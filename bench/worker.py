"""One workload in one fresh process: set up, run the timed loop, check.

Started by ``run.py``; not meant to be run by hand. Modes:

- ``warm``: import everything the other modes import, then exit. Fills the
  bytecode cache so later set-up times do not include compilation.
- ``setup``: build the inputs and warm up, report the ready time, exit.
- ``run``: set up, run the closed-loop timed section for ``--seconds``,
  then check every output.
- ``trace``: set up, run half the time untraced and half traced, then the
  ladder of dense instances, and report per-layer metrics.
- ``record``: run every op of the reference seed once and print the values
  that later runs of that seed are compared against.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Any

import numpy as np

import cfdiamond
import workloads
from tracer import MARGINALISING, Tracer
from workloads import LADDER, REFERENCE_SEED, VALUE_TOL, Op


def timed_loop(wl: workloads.Workload, seconds: float, tracer=None, first_op: int = 0):
    """Run whole blocks until the next one would pass ``seconds``.

    Returns (records, block rates in ops per second, loop wall seconds);
    a record is (op, latency seconds, output, error text).
    """
    records: list[tuple[Op, float, Any, str | None]] = []
    rates: list[float] = []
    clock = time.perf_counter
    start = clock()
    k = 0
    while True:
        block = wl.blocks[k % len(wl.blocks)]
        k += 1
        tb = clock()
        for op in block:
            if tracer is not None:
                tracer.op = first_op + len(records)
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # every failure is counted, none is fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append((op, clock() - t0, out, err))
        te = clock()
        rates.append(len(block) / (te - tb))
        if te - start + (te - tb) > seconds:
            return records, rates, te - start


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return abs(a - b) <= VALUE_TOL
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def check_records(records, reference: dict | None) -> list[dict]:
    """Failures, one entry per failed op: label, latency and reason.

    Each distinct op is checked once; repeats must reproduce its values.
    """
    verdicts: dict[str, tuple[str | None, Any]] = {}
    failures = []
    for op, latency, out, err in records:
        if err is None and op.label not in verdicts:
            reason = op.check(out)
            value = op.ref(out)
            if reason is None and reference is not None and op.label in reference:
                if not _same(value, reference[op.label]):
                    reason = (f"differs from the reference seed's recorded value "
                              f"{reference[op.label]!r}: {value!r}")
            verdicts[op.label] = (reason, value)
        elif err is None:
            reason, value = verdicts[op.label]
            if reason is None and not _same(op.ref(out), value):
                reason = "a repeat of this op returned a different value"
        else:
            reason = err
        if reason is not None:
            failures.append({"op": op.label, "latency_s": latency, "reason": reason})
    return failures


def _reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED:
        return None
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def _versions() -> dict:
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "cfdiamond": cfdiamond.__version__}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _inprocess_cli(wl: workloads.Workload) -> workloads.Workload:
    """The cli workload with each process replaced by a call of ``main``,
    so the library spans under it can be traced."""
    from cfdiamond import cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    blocks = [[Op(op.label, lambda argv=op.argv: call(argv), op.check, op.ref, op.argv)
               for op in block] for block in wl.blocks]
    return workloads.Workload(wl.name, blocks, [])


def _subprocess_seconds(code: str, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def trace_metrics(tr: Tracer, n_ops: int, ladder: dict, untraced_rate: float,
                  traced_rate: float, interp_s: float, import_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; ops 0..n_ops-1 are
    the traced loop's."""
    ops = set(range(n_ops))
    agg = tr.aggregate(ops)

    def per_op(span: str, field: str) -> float:
        return agg[span][field] / n_ops if span in agg else 0.0

    fd_calls = agg["slope.find_direction"]["calls"] if "slope.find_direction" in agg else 0
    certified, gray = tr.verdict_outcomes(ops)
    m: dict[str, tuple[float, str]] = {}
    for name, span, field in (
            ("slope.check_lambda.self_s", "slope.check_lambda", "self_s"),
            ("slope.find_direction.self_s", "slope.find_direction", "self_s"),
            ("slope.verdict.self_s", "slope.infinite_slope_verdict", "self_s"),
            ("slope.f_primes.self_s", "slope.f_primes", "self_s"),
            ("slope.slope_curve.self_s", "slope.slope_curve", "self_s"),
            ("slope.ccf_curvature.self_s", "slope.ccf_curvature", "self_s"),
            ("relaynet.mi_terms.self_s", "relaynet.mi_terms", "self_s"),
            ("relaynet.build_joint.self_s", "relaynet.build_joint", "self_s"),
            ("relaynet.eval_cf_rate.self_s", "relaynet.eval_cf_rate", "self_s"),
            ("probcore.entropy.self_s", "probcore.entropy", "self_s"),
            ("probcore.conditional_table.self_s", "probcore.conditional_table", "self_s"),
            ("probcore.compose.self_s", "probcore.compose", "self_s"),
            ("zoo.modadd_capacity.self_s", "zoo.modadd_capacity", "self_s"),
            ("zoo.bec_best_q.self_s", "zoo.bec_best_q", "self_s"),
            ("diamond3.mac_sum_capacity_indep.self_s", "diamond3.mac_sum_capacity_indep",
             "self_s"),
            ("cli.main.self_s", "cli.main", "self_s")):
        m[name] = (per_op(span, field), "s/op")
    for name, span in (("slope.find_direction.calls", "slope.find_direction"),
                       ("slope.perturb.calls", "slope.perturb"),
                       ("relaynet.mi_terms.calls", "relaynet.mi_terms"),
                       ("relaynet.build_joint.calls", "relaynet.build_joint"),
                       ("probcore.entropy.calls", "probcore.entropy"),
                       ("probcore.mutual_information.calls", "probcore.mutual_information"),
                       ("probcore.conditional_table.calls", "probcore.conditional_table")):
        m[name] = (per_op(span, "calls"), "calls/op")
    m["slope.certified_frac"] = (certified / fd_calls if fd_calls else 0.0, "ratio")
    m["slope.gray_zone_frac"] = (gray / fd_calls if fd_calls else 0.0, "ratio")
    m["probcore.marginal_bytes"] = (sum(per_op(s, "bytes") for s in MARGINALISING),
                                    "B/op")
    m["cli.interp_s"] = (interp_s, "s")
    m["cli.import_s"] = (import_s, "s")
    for rung, rung_agg in ladder.items():
        for span in ("slope.check_lambda", "slope.find_direction", "relaynet.mi_terms"):
            value = rung_agg[span]["self_s"] if span in rung_agg else 0.0
            m[f"ladder.{rung}.{span}.self_s"] = (value, "s")
    m["trace.untraced_ops_per_s"] = (untraced_rate, "op/s")
    m["trace.traced_ops_per_s"] = (traced_rate, "op/s")
    m["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "ratio")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("warm", "setup", "run", "trace", "record"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()
    if args.mode == "warm":
        import cfdiamond.cli  # noqa: F401
        print(json.dumps({"ok": True}))
        return 0

    wl = workloads.build(args.workload, args.seed, args.root)
    try:
        for op in wl.warmup:
            op.run()
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        if args.mode == "record":
            return _record(wl)
        if args.mode == "run":
            return _run(args, wl, ready)
        return _trace(args, wl)
    finally:
        wl.cleanup()


def _record(wl) -> int:
    """Print every op's reference values; refuse if any op fails its check."""
    values = {}
    for op in wl.ops():
        out = op.run()
        reason = op.check(out)
        if reason is not None:
            print(f"{op.label}: {reason}", file=sys.stderr)
            return 1
        values[op.label] = op.ref(out)
    print(json.dumps(values))
    return 0


def _run(args, wl, ready: float) -> int:
    records, rates, loop_s = timed_loop(wl, args.seconds)
    rss = _peak_rss_mb(args.workload)
    failures = check_records(records, _reference(args.workload, args.seed))
    print(json.dumps({
        "ready": ready,
        "loop_s": loop_s,
        "block_rates": rates,
        "latencies": [lat for _, lat, _, _ in records],
        "peak_rss_mb": rss,
        "failures": failures,
        "versions": _versions(),
    }))
    return 0


def _trace(args, wl) -> int:
    import cfdiamond.cli  # noqa: F401  (its bindings are traced too)

    traced_wl = _inprocess_cli(wl) if args.workload == "cli" else wl
    half = args.seconds / 2.0
    plain, _, plain_s = timed_loop(traced_wl, half)
    tr = Tracer()
    tr.install()
    rng = np.random.default_rng([args.seed, 99])
    ladder_ops = []
    for sizes in LADDER:
        spec, cd = workloads.dense_instance(rng, sizes)
        ladder_ops.append(Op(
            "ladder/" + "-".join(map(str, sizes)),
            lambda spec=spec, cd=cd: cfdiamond.slope.infinite_slope_verdict(spec, cd),
            lambda v, spec=spec, cd=cd: workloads.check_verdict("dense", spec, cd, v),
            lambda v: v.verdict))
    try:
        traced, _, traced_s = timed_loop(traced_wl, half, tr)
        # One verdict per rung: a single block, run once.
        rungs, _, _ = timed_loop(workloads.Workload("ladder", [ladder_ops], []), 0.0, tr,
                                 first_op=len(traced))
    finally:
        tr.uninstall()
    ladder = {op.label.split("/")[1]: tr.aggregate({len(traced) + k})
              for k, op in enumerate(ladder_ops)}
    if args.trace_file:
        tr.write(args.trace_file)
    interp_s = _subprocess_seconds("pass")
    import_s = _subprocess_seconds("import cfdiamond.cli") - interp_s
    metrics = trace_metrics(tr, len(traced), ladder, len(plain) / plain_s, len(traced) / traced_s,
                            interp_s, import_s)
    records = plain + traced + rungs
    failures = check_records(records, _reference(args.workload, args.seed))
    print(json.dumps({
        "attempted": len(records),
        "failures": failures,
        "traced_ops": len(traced),
        "versions": _versions(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
