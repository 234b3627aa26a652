"""Command-line front end.

One subcommand per artifact:

- ``eval-thm1``    cooperative rate bounds for a spec + coding file pair
- ``eval-pdcf``    classical PD/CF rate for a Markov coding file
- ``check-slope``  infinite-slope certification (``--reduction`` switches
  to the full-support dichotomy)
- ``sweep-curve``  certify, then sweep rate gain vs cooperation cost
- ``example``      built-in channel families (bec, modadd), one action each
- ``diamond3``     three-relay MAC bounds, rate splitting, slope transfer

The parser is the whole grammar: every leaf subparser names its handler,
which returns the report's ``result`` and, for curves, the CSV text.
Reports embed the tolerances and grid sizes in effect, output is written
atomically, and identical configurations produce byte-identical files.
Exit codes: 0 ok, 2 bad input or schema (parse and file errors included),
3 precondition violation, 4 numerical infeasibility; every failure prints
one ``error: <category>: <reason>`` line. Set CFD_LOG_LEVEL to adjust logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
from typing import Any, Callable, NoReturn

from . import config
from .probcore import InfeasibleError, PreconditionError, SchemaError
from .relaynet import CodingDist, RelayNetSpec, eval_cf_rate, eval_pdcf
from .slope import (
    VERDICT_CERTIFIED,
    full_support_verdict,
    infinite_slope_verdict,
    slope_curve,
)
from .zoo import (
    ModAddParams,
    bec_best_q,
    bec_coding_dist,
    bec_lambda_infeasibility,
    bec_rate,
    make_bec_pair,
    make_modadd,
    modadd_capacity,
    modadd_coding_dist,
)
from .diamond3 import (
    CoopCurve,
    MacSpec,
    diamond_upper_bound,
    mac_sum_capacity_indep,
    rate_split_achievable,
    slope_transfer,
)

log = logging.getLogger("cfdiamond")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INFEASIBLE = 4

#: What a handler returns: the report's ``result`` and the CSV form, if any.
Output = tuple[dict[str, Any], str | None]
Handler = Callable[[argparse.Namespace], Output]


class _Parser(argparse.ArgumentParser):
    """Raises parse errors as ``SchemaError``, so they print one error line."""

    def error(self, message: str) -> NoReturn:
        raise SchemaError(message)


def _alpha_schedule(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha schedule: {text!r}") from None
    if not all(math.isfinite(a) and a > 0.0 for a in alphas):
        raise argparse.ArgumentTypeError(f"alpha entries must be finite and > 0, got {text!r}")
    return alphas


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _load_json_file(path: str) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _write_atomic(path: str, data: str) -> None:
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".cfd-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _file_pair(args: argparse.Namespace) -> tuple[RelayNetSpec, CodingDist]:
    spec = RelayNetSpec.from_json_dict(_load_json_file(args.spec))
    cd = CodingDist.from_json_dict(_load_json_file(args.coding))
    return spec, cd


def _bec_pair(args: argparse.Namespace) -> tuple[RelayNetSpec, CodingDist]:
    return make_bec_pair(args.p, c0=args.c0, c_cf=args.c_cf), bec_coding_dist(args.p, args.q)


def _modadd_pair(args: argparse.Namespace) -> tuple[RelayNetSpec, CodingDist]:
    params = ModAddParams(args.p, args.delta, args.c0)
    spec = make_modadd(params, c_cf=args.c_cf)
    return spec, modadd_coding_dist(modadd_capacity(params, args.grid_resolution).kernel)


def _eval_thm1(args: argparse.Namespace) -> Output:
    return eval_cf_rate(*args.instance(args)).to_json_dict(), None


def _eval_pdcf(args: argparse.Namespace) -> Output:
    return {"rate": eval_pdcf(*args.instance(args))}, None


def _check_slope(args: argparse.Namespace) -> Output:
    return infinite_slope_verdict(*args.instance(args)).to_json_dict(), None


def _reduction(args: argparse.Namespace) -> Output:
    return full_support_verdict(*args.instance(args)).to_json_dict(), None


def _sweep_curve(args: argparse.Namespace) -> Output:
    spec, cd = args.instance(args)
    verdict = infinite_slope_verdict(spec, cd)
    if verdict.verdict != VERDICT_CERTIFIED or verdict.direction is None:
        raise InfeasibleError(f"no certified direction to sweep (verdict {verdict.verdict})")
    curve = slope_curve(spec, cd, verdict.direction, args.alpha_schedule)
    return {"verdict": verdict.verdict, "curve": curve.to_json_dict()}, curve.to_csv()


def _bec_rate(args: argparse.Namespace) -> Output:
    return {"rate": bec_rate(args.p, args.q, args.c0)}, None


def _bec_best_q(args: argparse.Namespace) -> Output:
    q, rate = bec_best_q(args.p, args.c0)
    return {"q": q, "rate": rate}, None


def _bec_lambda_check(args: argparse.Namespace) -> Output:
    return bec_lambda_infeasibility(args.p, args.q).to_json_dict(), None


def _modadd_capacity(args: argparse.Namespace) -> Output:
    params = ModAddParams(args.p, args.delta, args.c0)
    return modadd_capacity(params, args.grid_resolution).to_json_dict(), None


def _mac_capacity(args: argparse.Namespace) -> Output:
    mac = MacSpec.from_json_dict(_load_json_file(args.mac))
    return {"c_sum0": mac_sum_capacity_indep(mac, args.grid_resolution)}, None


def _upper_bound(args: argparse.Namespace) -> Output:
    return {"upper_bound": diamond_upper_bound(args.c_sum0)}, None


def _rate_split(args: argparse.Namespace) -> Output:
    return rate_split_achievable(args.r0, args.r1, args.eps).to_json_dict(), None


def _slope_transfer(args: argparse.Namespace) -> Output:
    curve = CoopCurve.from_csv(_read_text(args.curve))
    return slope_transfer(curve, args.threshold).to_json_dict(), None


#: The actions every example family runs on its instance.
_INSTANCE_ACTIONS: dict[str, Handler] = {
    "eval-thm1": _eval_thm1, "eval-pdcf": _eval_pdcf, "check-slope": _check_slope,
    "sweep-curve": _sweep_curve, "reduction": _reduction}


def _add_actions(sub: argparse._SubParsersAction, name: str, flags: dict[str, dict],
                 actions: dict[str, tuple[Handler, tuple[str, ...]]],
                 **defaults: Any) -> None:
    """Subcommand ``name`` with one subparser per action. Every action takes
    all of ``flags`` (flag -> ``add_argument`` keywords) and requires the
    ones it lists; argparse parents would share one ``required`` per flag."""
    family = sub.add_parser(name).add_subparsers(dest="action", required=True)
    for action, (run, required) in actions.items():
        leaf = family.add_parser(action)
        for flag, kwargs in flags.items():
            leaf.add_argument(flag, required=flag in required, **kwargs)
        leaf.set_defaults(run=run, **defaults)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfdiamond",
        description="Rate evaluation and infinite-slope certification for "
                    "relay networks with a rate-limited cooperation facilitator.")
    parser.add_argument("--tol-norm", type=float)
    parser.add_argument("--tol-supp", type=float)
    parser.add_argument("--tol-dev", type=float)
    parser.add_argument("--alpha-schedule", type=_alpha_schedule,
                        help="comma-separated step sizes, each finite and > 0")
    parser.add_argument("--grid-resolution", type=int, default=20)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    commands = parser.add_subparsers(dest="command", required=True)

    pair = _Parser(add_help=False)
    pair.add_argument("--spec", required=True)
    pair.add_argument("--coding", required=True)
    pair.set_defaults(instance=_file_pair)
    for name in ("eval-thm1", "eval-pdcf", "check-slope", "sweep-curve"):
        commands.add_parser(name, parents=[pair]).set_defaults(run=_INSTANCE_ACTIONS[name])
    commands.choices["check-slope"].add_argument(
        "--reduction", dest="run", action="store_const", const=_reduction,
        default=_check_slope, help="run the full-support dichotomy instead")

    families = commands.add_parser("example").add_subparsers(dest="name", required=True)
    number = {"type": float}
    capacities = {"--c0": {"type": float, "default": 0.0},
                  "--c-cf": {"type": float, "default": 0.0}}
    bec = ("--p", "--q")
    _add_actions(families, "bec", {"--p": number, "--q": number, **capacities},
                 {**{a: (run, bec) for a, run in _INSTANCE_ACTIONS.items()},
                  "rate": (_bec_rate, bec), "best-q": (_bec_best_q, ("--p",)),
                  "lambda-check": (_bec_lambda_check, bec)},
                 instance=_bec_pair)
    modadd = ("--p", "--delta")
    _add_actions(families, "modadd", {"--p": number, "--delta": number, **capacities},
                 {**{a: (run, modadd) for a, run in _INSTANCE_ACTIONS.items()},
                  "capacity": (_modadd_capacity, modadd)},
                 instance=_modadd_pair)

    _add_actions(commands, "diamond3",
                 {"--mac": {}, "--curve": {}, "--c-sum0": number, "--r0": number,
                  "--r1": number, "--eps": {"type": float, "default": 1e-3},
                  "--threshold": {"type": float, "default": 1e3}},
                 {"mac-capacity": (_mac_capacity, ("--mac",)),
                  "upper-bound": (_upper_bound, ("--c-sum0",)),
                  "rate-split": (_rate_split, ("--r0", "--r1")),
                  "slope-transfer": (_slope_transfer, ("--curve",))})
    return parser


def _emit(args: argparse.Namespace, payload: dict[str, Any], csv_text: str | None) -> None:
    if args.format == "csv":
        if csv_text is None:
            raise SchemaError(f"command {args.command!r} has no CSV form")
        data = csv_text
    else:
        data = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        _write_atomic(args.out, data)
    else:
        sys.stdout.write(data)


def _log_level() -> int:
    """The logging level that CFD_LOG_LEVEL names, WARNING when it is unset."""
    name = os.environ.get("CFD_LOG_LEVEL", "WARNING").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        raise SchemaError(f"CFD_LOG_LEVEL {name!r} is not a logging level; "
                          "use DEBUG, INFO, WARNING, ERROR or CRITICAL")
    return level


def main(argv: list[str] | None = None) -> int:
    try:
        logging.basicConfig(level=_log_level())
        args = _build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k.startswith("tol_") and v is not None}
        with config.temporary_tolerances(**overrides):
            log.debug("running %s", args.command)
            result, csv_text = args.run(args)
            payload = {"command": args.command,
                       "config": {"tol_norm": config.CONFIG.tol_norm,
                                  "tol_supp": config.CONFIG.tol_supp,
                                  "tol_dev": config.CONFIG.tol_dev,
                                  "tol_lp": config.CONFIG.tol_lp,
                                  "alpha_schedule": (list(args.alpha_schedule)
                                                     if args.alpha_schedule else None),
                                  "grid_resolution": args.grid_resolution},
                       "result": result}
            _emit(args, payload, csv_text)
        return EXIT_OK
    except SystemExit as exc:  # -h printed the help; parse errors raise SchemaError
        return int(exc.code) if exc.code else EXIT_OK
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SchemaError, ValueError) as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
