#!/usr/bin/env python3
"""cfdiamond benchmark: seeded closed-loop workloads, one client, fresh process.

Run one workload (prints every metric by name and unit, checks outputs, and
ends with one JSON line):

    python3 bench/run.py --workload certify --seed 0 --seconds 26 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace
1`` reports the per-layer metrics of a traced run plus the tracing
overhead. Every run also writes its full record (samples, failures, run
metadata) under ``.bench_build/results/``.

Compare two sets of such records (parent and change):

    python3 bench/run.py compare PARENT_DIR CHANGE_DIR

Re-record the reference values that runs of seed 0 are checked against:

    python3 bench/run.py record-reference

Only the standard library is imported here; the workloads run in child
processes started from the checkout's ``src`` tree.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("certify", "sweep", "capacity", "cli")
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest blocks whose rates give ``ops_per_s`` as their lower quartile; a
#: run with fewer (``cli``) reports ops over the loop's wall time.
MIN_QUARTILE_BLOCKS = 8
#: A run, children included, ends within this many seconds of its start.
RUN_LIMIT = 170.0
STARTED = time.monotonic()


class BenchError(RuntimeError):
    pass


def bench_env() -> dict:
    """Environment of every child: the checkout's sources, a bench-owned
    bytecode cache (nothing is written under ``src/``), one thread each."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    for cap in THREAD_CAPS:
        env[cap] = "1"
    return env


def worker(mode: str, args, env: dict, extra: tuple[str, ...] = ()) -> tuple[dict, float]:
    """Run bench/worker.py once; returns its JSON result and spawn time."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--mode", mode, "--root", ROOT]
    if args is not None:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
    spawned = time.monotonic()
    # A session of its own, so a timeout also ends the CLI processes it started.
    proc = subprocess.Popen(cmd + list(extra), env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, STARTED + RUN_LIMIT - spawned))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {mode} did not finish within the run's {RUN_LIMIT:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{stderr.strip()}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} printed no result:\n{stderr.strip()}")
    return json.loads(lines[-1]), spawned


def metadata(args, env: dict) -> dict:
    """What a record needs besides its numbers; the worker adds its versions."""
    nproc = len(os.sched_getaffinity(0))
    caps = {cap: int(env[cap]) for cap in THREAD_CAPS}
    if max(caps.values()) > nproc:
        raise BenchError(f"thread caps {caps} exceed nproc {nproc}")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "thread_caps": caps,
            "machine": platform.machine(), "platform": platform.platform(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, Python's default (exclusive) quantile method."""
    return statistics.quantiles(values, n=100)[q - 1]


def run_untraced(args, env: dict) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        out, spawned = worker("setup", args, env)
        setups.append(out["ready"] - spawned)
    res, spawned = worker("run", args, env)
    setups.append(res["ready"] - spawned)
    lat = res["latencies"]
    attempted = len(lat)
    p90 = percentile(lat, 90)
    rates = res["block_rates"]
    # The throughput three blocks in four reach: it stays in the host's slow
    # speed mode, where a median of blocks or the whole loop's mean moves
    # with the share of the run spent in the fast one.
    ops_per_s = ((statistics.quantiles(rates, n=4)[0], "op/s",
                  f"lower quartile of {len(rates)} blocks, {attempted} ops in {res['loop_s']:.2f} s")
                 if len(rates) >= MIN_QUARTILE_BLOCKS else
                 (attempted / res["loop_s"], "op/s",
                  f"{attempted} ops in {res['loop_s']:.2f} s ({len(rates)} blocks)"))
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_s": (statistics.median(lat), "s", f"n={attempted}"),
        "op_p90_s": (p90, "s", f"n={attempted}, {sum(x > p90 for x in lat)} beyond"
                     + ("" if attempted >= 100 else "; fewer than 100 samples")),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB",
                        "max over the CLI child processes" if args.workload == "cli"
                        else "workload process"),
    }
    record = {"versions": res["versions"], "attempted": attempted,
              "failures": res["failures"], "block_rates": res["block_rates"],
              "latencies": lat, "setups": setups}
    return metrics, record


def run_traced(args, env: dict) -> tuple[dict, dict]:
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    trace_file = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz")
    res, _ = worker("trace", args, env, ("--trace-file", trace_file))
    metrics = {k: (v["value"], v["unit"], "") for k, v in res["metrics"].items()}
    record = {"versions": res["versions"], "attempted": res["attempted"],
              "failures": res["failures"], "traced_ops": res["traced_ops"],
              "trace_file": os.path.relpath(trace_file, ROOT)}
    return metrics, record


def run(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="where to write the full record")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cfdiamond", "__init__.py")):
        print(f"error: no cfdiamond sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = bench_env()
    try:
        meta = metadata(args, env)
        worker("warm", None, env)
        metrics, record = (run_traced if args.trace else run_untraced)(args, env)
        record["meta"] = {**meta, "versions": record.pop("versions")}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = record["failures"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<9} {note}")
    print(f"  {'fail_frac':<44} {len(failures) / record['attempted']:>14.6g} ratio     "
          f"{len(failures)} of {record['attempted']} ops failed")
    for f in failures:
        print(f"  FAILED {f['op']}: {f['reason']}")
    if args.trace:
        spans = ("slope.check_lambda", "slope.find_direction", "relaynet.mi_terms")
        print("  ladder: one dense verdict per rung, self seconds")
        print(f"  {'rung':<12}" + "".join(f"{s:>24}" for s in spans))
        for rung in sorted({k.split(".")[1] for k in metrics if k.startswith("ladder.")}):
            print(f"  {rung:<12}" + "".join(f"{metrics[f'ladder.{rung}.{s}.self_s'][0]:>24.6g}"
                                            for s in spans))

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    reported = dict(record["metrics"])
    record["metrics"]["fail_frac"] = {"value": len(failures) / record["attempted"],
                                      "unit": "ratio"}
    out = args.out or os.path.join(
        BUILD, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                          f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({"correct": not failures, "attempted": record["attempted"],
                      "failed": len(failures), "metrics": reported}))
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load(where: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(where, "*.json")) if os.path.isdir(where)
                   else glob.glob(where))
    out = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher_better: bool, bound: float | None) -> tuple[str, float]:
    """Status of one workload x metric, by the pairwise rule. A pair is the
    i-th parent run and the i-th change run, in the order they were made.

    improved: the change wins at least 9/10 of all pairs (ties count for
    neither) and the medians differ by more than the parent's quartile
    spread. Otherwise, for a metric with a bound: regressed when the change
    median is worse by more than the bound; unresolved when the parent's own
    spread is wider than the bound, unless every change run beats every
    parent run; else within bound.
    """
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = _quartiles(parent)
    _, cm, _ = _quartiles(change)
    if share >= 0.9 and sign * (cm - pm) > (p3 - p1):
        return "improved", share
    if bound is None:
        return ("regressed" if (1 - share) >= 0.9 and sign * (pm - cm) > (p3 - p1)
                else "unresolved"), share
    if pm:
        worse = sign * (pm - cm) / abs(pm)
    else:  # a zero median (fail_frac): any worsening exceeds a relative bound
        worse = math.inf if sign * (pm - cm) > 0 else 0.0
    if worse > bound:
        return "regressed", share
    if pm and (p3 - p1) / abs(pm) > bound:
        every = (min(change) > max(parent)) if higher_better else (max(change) < min(parent))
        return ("within bound" if every else "unresolved"), share
    return "within bound", share


def compare(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Compare parent and change result sets.")
    ap.add_argument("parent", help="directory (or glob) of the parent's run records")
    ap.add_argument("change", help="directory (or glob) of the change's run records")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    better["fail_frac"] = ("lower", 0.0)
    sides = {"parent": _load(args.parent), "change": _load(args.change)}
    if not sides["parent"] or not sides["change"]:
        print("error: no run records found", file=sys.stderr)
        return 2

    def series(records, workload, trace, name):
        """The metric's values, in the order the runs were made."""
        runs = sorted((r["meta"]["time"], r["metrics"][name]["value"]) for r in records
                      if r["meta"]["workload"] == workload and r["meta"]["trace"] == trace
                      and name in r["metrics"])
        return [value for _, value in runs]

    print(f"{'workload':<9} {'metric':<44} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'won':>5}  status")
    for workload in WORKLOADS:
        for trace in (0, 1):
            names = sorted({n for r in sides["parent"] if r["meta"]["workload"] == workload
                            and r["meta"]["trace"] == trace for n in r["metrics"]})
            for name in names:
                par = series(sides["parent"], workload, trace, name)
                chg = series(sides["change"], workload, trace, name)
                if not par or not chg:
                    continue
                direction, bound = better.get(name, ("lower", None))
                status, share = verdict(par, chg, list(zip(par, chg)), direction == "higher",
                                        bound)
                cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                         for q in (_quartiles(par), _quartiles(chg))]
                print(f"{workload:<9} {name:<44} {cells[0]:<32} {cells[1]:<32} "
                      f"{share:>5.0%}  {status}")
    return 0


# ---------------------------------------------------------------------------
# record-reference
# ---------------------------------------------------------------------------


def record_reference(argv: list[str]) -> int:
    argparse.ArgumentParser(description="Re-record bench/reference.json at seed 0.").parse_args(argv)
    env = bench_env()
    reference = {}
    try:
        worker("warm", None, env)
        for workload in WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=0, seconds=0)
            reference[workload], _ = worker("record", args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(map(len, reference.values()))} reference values")
    return 0


def main() -> int:
    sys.dont_write_bytecode = True
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    if argv and argv[0] == "record-reference":
        return record_reference(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
