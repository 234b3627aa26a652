"""Command-line front end.

One subcommand per artifact:

- ``eval-thm1``    cooperative rate bounds for a spec + coding file pair
- ``eval-pdcf``    classical PD/CF rate for a Markov coding file
- ``check-slope``  infinite-slope certification (``--reduction`` switches
  to the full-support dichotomy)
- ``sweep-curve``  certify, then sweep rate gain vs cooperation cost
- ``example``      built-in channel families (bec, modadd) with an action
- ``diamond3``     three-relay MAC bounds, rate splitting, slope transfer

Reports embed the tolerances and grid sizes in effect, output is written
atomically, and identical configurations produce byte-identical files.
Exit codes: 0 ok, 2 bad input or schema, 3 precondition violation,
4 numerical infeasibility. Set CFD_LOG_LEVEL to adjust logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any

from . import config
from .probcore import InfeasibleError, PreconditionError, SchemaError
from .relaynet import CodingDist, RelayNetSpec, eval_cf_rate, eval_pdcf
from .slope import (
    VERDICT_CERTIFIED,
    default_schedule,
    alpha_max,
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

EXAMPLE_ACTIONS = ("eval-thm1", "eval-pdcf", "check-slope", "sweep-curve",
                   "rate", "best-q", "lambda-check", "capacity", "reduction")
DIAMOND_ACTIONS = ("mac-capacity", "upper-bound", "rate-split", "slope-transfer")


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its inputs and knobs."""

    command: str
    spec_path: str | None = None
    coding_path: str | None = None
    mac_path: str | None = None
    curve_path: str | None = None
    name: str | None = None
    action: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    reduction: bool = False
    alpha_schedule: tuple[float, ...] | None = None
    grid_resolution: int = 20
    threshold: float = 1e3
    c_sum0: float | None = None
    r0: float | None = None
    r1: float | None = None
    eps: float = 1e-3
    out: str | None = None
    format: str = "json"
    tolerance_overrides: dict[str, float] = field(default_factory=dict)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfdiamond",
        description="Rate evaluation and infinite-slope certification for "
                    "relay networks with a rate-limited cooperation facilitator.")
    parser.add_argument("--tol-norm", type=float, default=None)
    parser.add_argument("--tol-supp", type=float, default=None)
    parser.add_argument("--tol-dev", type=float, default=None)
    parser.add_argument("--alpha-schedule", type=str, default=None,
                        help="comma-separated step sizes, largest first")
    parser.add_argument("--grid-resolution", type=int, default=20)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("eval-thm1", "eval-pdcf", "check-slope", "sweep-curve"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--coding", required=True)
        if name == "check-slope":
            p.add_argument("--reduction", action="store_true",
                           help="run the full-support dichotomy instead")

    p = sub.add_parser("example")
    p.add_argument("name", choices=("bec", "modadd"))
    p.add_argument("action", choices=EXAMPLE_ACTIONS)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--c-cf", type=float, default=0.0)

    p = sub.add_parser("diamond3")
    p.add_argument("action", choices=DIAMOND_ACTIONS)
    p.add_argument("--mac", type=str, default=None)
    p.add_argument("--curve", type=str, default=None)
    p.add_argument("--c-sum0", type=float, default=None)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--threshold", type=float, default=1e3)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for key in ("tol_norm", "tol_supp", "tol_dev"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    schedule = None
    if args.alpha_schedule:
        try:
            schedule = tuple(float(s) for s in args.alpha_schedule.split(","))
        except ValueError as exc:
            raise SchemaError(f"bad alpha schedule: {args.alpha_schedule!r}") from exc
    cfg = RunConfig(command=args.command,
                    alpha_schedule=schedule,
                    grid_resolution=args.grid_resolution,
                    out=args.out,
                    format=args.format,
                    tolerance_overrides=overrides)
    if args.command in ("eval-thm1", "eval-pdcf", "check-slope", "sweep-curve"):
        cfg.spec_path = args.spec
        cfg.coding_path = args.coding
        cfg.reduction = getattr(args, "reduction", False)
    elif args.command == "example":
        cfg.name = args.name
        cfg.action = args.action
        for key in ("p", "q", "delta"):
            val = getattr(args, key)
            if val is not None:
                cfg.params[key] = val
        cfg.params["c0"] = args.c0
        cfg.params["c_cf"] = args.c_cf
    elif args.command == "diamond3":
        cfg.action = args.action
        cfg.mac_path = args.mac
        cfg.curve_path = args.curve
        cfg.c_sum0 = args.c_sum0
        cfg.r0 = args.r0
        cfg.r1 = args.r1
        cfg.eps = args.eps
        cfg.threshold = args.threshold
    return cfg


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _load_pair(cfg: RunConfig) -> tuple[RelayNetSpec, CodingDist]:
    spec = RelayNetSpec.from_json_dict(_load_json_file(cfg.spec_path))
    cd = CodingDist.from_json_dict(_load_json_file(cfg.coding_path))
    return spec, cd


def _require(cfg: RunConfig, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if cfg.params.get(k) is None]
    if missing:
        raise SchemaError(f"example {cfg.name!r} needs parameters: {missing}")


def _example_instance(cfg: RunConfig) -> tuple[RelayNetSpec, CodingDist]:
    if cfg.name == "bec":
        _require(cfg, ("p", "q"))
        spec = make_bec_pair(cfg.params["p"], c0=cfg.params["c0"], c_cf=cfg.params["c_cf"])
        cd = bec_coding_dist(cfg.params["p"], cfg.params["q"])
        return spec, cd
    _require(cfg, ("p", "delta"))
    params = ModAddParams(cfg.params["p"], cfg.params["delta"], cfg.params["c0"])
    spec = make_modadd(params, c_cf=cfg.params["c_cf"])
    search = modadd_capacity(params, cfg.grid_resolution)
    return spec, modadd_coding_dist(search.kernel)


def _sweep(cfg: RunConfig, spec: RelayNetSpec, cd: CodingDist):
    verdict = infinite_slope_verdict(spec, cd)
    if verdict.verdict != VERDICT_CERTIFIED or verdict.direction is None:
        raise InfeasibleError(f"no certified direction to sweep (verdict {verdict.verdict})")
    schedule = cfg.alpha_schedule or default_schedule(alpha_max(cd, verdict.direction))
    curve = slope_curve(spec, cd, verdict.direction, schedule)
    return verdict, curve


def dispatch(cfg: RunConfig) -> tuple[dict[str, Any], str | None]:
    """Run one command; returns the JSON payload and optional CSV text."""
    result: dict[str, Any]
    csv_text: str | None = None

    if cfg.command == "eval-thm1":
        spec, cd = _load_pair(cfg)
        result = eval_cf_rate(spec, cd).to_json_dict()
    elif cfg.command == "eval-pdcf":
        spec, cd = _load_pair(cfg)
        result = {"rate": eval_pdcf(spec, cd)}
    elif cfg.command == "check-slope":
        spec, cd = _load_pair(cfg)
        if cfg.reduction:
            result = full_support_verdict(spec, cd).to_json_dict()
        else:
            result = infinite_slope_verdict(spec, cd).to_json_dict()
    elif cfg.command == "sweep-curve":
        spec, cd = _load_pair(cfg)
        verdict, curve = _sweep(cfg, spec, cd)
        result = {"verdict": verdict.verdict, "curve": curve.to_json_dict()}
        csv_text = curve.to_csv()
    elif cfg.command == "example":
        result, csv_text = _dispatch_example(cfg)
    elif cfg.command == "diamond3":
        result, csv_text = _dispatch_diamond(cfg)
    else:
        raise SchemaError(f"unknown command {cfg.command!r}")

    payload = {"command": cfg.command,
               "config": {"tol_norm": config.CONFIG.tol_norm,
                          "tol_supp": config.CONFIG.tol_supp,
                          "tol_dev": config.CONFIG.tol_dev,
                          "tol_lp": config.CONFIG.tol_lp,
                          "alpha_schedule": list(cfg.alpha_schedule) if cfg.alpha_schedule else None,
                          "grid_resolution": cfg.grid_resolution},
               "result": result}
    return payload, csv_text


def _dispatch_example(cfg: RunConfig) -> tuple[dict[str, Any], str | None]:
    action = cfg.action
    if cfg.name == "bec":
        if action == "rate":
            _require(cfg, ("p", "q"))
            return {"rate": bec_rate(cfg.params["p"], cfg.params["q"], cfg.params["c0"])}, None
        if action == "best-q":
            _require(cfg, ("p",))
            q, rate = bec_best_q(cfg.params["p"], cfg.params["c0"])
            return {"q": q, "rate": rate}, None
        if action == "lambda-check":
            _require(cfg, ("p", "q"))
            return bec_lambda_infeasibility(cfg.params["p"], cfg.params["q"]).to_json_dict(), None
        if action == "capacity":
            raise SchemaError("capacity action applies to the modadd example only")
    else:
        if action == "capacity":
            _require(cfg, ("p", "delta"))
            params = ModAddParams(cfg.params["p"], cfg.params["delta"], cfg.params["c0"])
            return modadd_capacity(params, cfg.grid_resolution).to_json_dict(), None
        if action in ("rate", "best-q", "lambda-check"):
            raise SchemaError(f"action {action!r} applies to the bec example only")

    spec, cd = _example_instance(cfg)
    if action == "eval-thm1":
        return eval_cf_rate(spec, cd).to_json_dict(), None
    if action == "eval-pdcf":
        return {"rate": eval_pdcf(spec, cd)}, None
    if action == "check-slope":
        return infinite_slope_verdict(spec, cd).to_json_dict(), None
    if action == "reduction":
        return full_support_verdict(spec, cd).to_json_dict(), None
    if action == "sweep-curve":
        verdict, curve = _sweep(cfg, spec, cd)
        return {"verdict": verdict.verdict, "curve": curve.to_json_dict()}, curve.to_csv()
    raise SchemaError(f"unknown example action {action!r}")


def _dispatch_diamond(cfg: RunConfig) -> tuple[dict[str, Any], str | None]:
    action = cfg.action
    if action == "mac-capacity":
        if not cfg.mac_path:
            raise SchemaError("mac-capacity needs --mac")
        mac = MacSpec.from_json_dict(_load_json_file(cfg.mac_path))
        return {"c_sum0": mac_sum_capacity_indep(mac, cfg.grid_resolution)}, None
    if action == "upper-bound":
        if cfg.c_sum0 is None:
            raise SchemaError("upper-bound needs --c-sum0")
        return {"upper_bound": diamond_upper_bound(cfg.c_sum0)}, None
    if action == "rate-split":
        if cfg.r0 is None or cfg.r1 is None:
            raise SchemaError("rate-split needs --r0 and --r1")
        return rate_split_achievable(cfg.r0, cfg.r1, cfg.eps).to_json_dict(), None
    if action == "slope-transfer":
        if not cfg.curve_path:
            raise SchemaError("slope-transfer needs --curve")
        try:
            with open(cfg.curve_path, "r", encoding="utf-8") as fh:
                curve = CoopCurve.from_csv(fh.read())
        except FileNotFoundError as exc:
            raise SchemaError(f"input file not found: {cfg.curve_path}") from exc
        return slope_transfer(curve, cfg.threshold).to_json_dict(), None
    raise SchemaError(f"unknown diamond3 action {action!r}")


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cfd-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, payload: dict[str, Any], csv_text: str | None) -> None:
    if cfg.format == "csv":
        if csv_text is None:
            raise SchemaError(f"command {cfg.command!r} has no CSV form")
        data = csv_text
    else:
        data = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if cfg.out:
        _write_atomic(cfg.out, data)
    else:
        sys.stdout.write(data)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("CFD_LOG_LEVEL", "WARNING").upper())
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    old_tolerances = config.CONFIG
    try:
        cfg = _config_from_args(args)
        if cfg.tolerance_overrides:
            config.set_tolerances(**cfg.tolerance_overrides)
        log.debug("dispatching %s (action=%s)", cfg.command, cfg.action)
        payload, csv_text = dispatch(cfg)
        _emit(cfg, payload, csv_text)
        return EXIT_OK
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SchemaError, ValueError) as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    finally:
        config.CONFIG = old_tolerances


if __name__ == "__main__":
    sys.exit(main())
