"""Spans around the calls into each cfdiamond layer, recorded from outside.

``install`` wraps the public functions of every layer module and rebinds
each name in every cfdiamond module that holds it, so calls made through a
name imported with ``from .probcore import entropy`` are traced as well as
calls through the defining module. Spans are kept in memory as
``[name, parent_id, op_id, start_ns, end_ns, info]`` and written out once
at the end. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Public functions wrapped per layer. Dataclass constructors and private
#: helpers are not spans; their time counts toward the calling span.
LAYERS = {
    "probcore": ("entropy", "conditional_entropy", "mutual_information", "marginalize",
                 "condition", "compose", "reorder", "conditional_table"),
    "relaynet": ("build_joint", "mi_terms", "rate_bounds", "eval_cf_rate", "eval_pdcf",
                 "pdcf_reduction_residuals", "markov_kernel"),
    "slope": ("perturb", "alpha_max", "f_primes", "ccf_curvature", "find_direction",
              "check_lambda", "infinite_slope_verdict", "slope_curve",
              "validate_against_joint", "deterministic_reduction", "full_support_verdict"),
    "zoo": ("modadd_capacity", "bec_best_q", "bec_rate", "bec_lambda_infeasibility",
            "make_bec_pair", "bec_coding_dist", "make_modadd", "modadd_coding_dist"),
    "diamond3": ("mac_sum_capacity_indep", "diamond_upper_bound", "rate_split_achievable",
                 "slope_transfer"),
    "cli": ("main",),
}

#: probcore calls that marginalise their first argument; the bytes of its
#: pmf are counted as ``probcore.marginal_bytes``.
MARGINALISING = {"probcore.entropy", "probcore.marginalize", "probcore.condition",
                 "probcore.conditional_table"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_bytes = name in MARGINALISING
        records_verdict = name == "slope.infinite_slope_verdict"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            info = args[0].pmf.nbytes if counts_bytes else None
            span = [name, stack[-1] if stack else -1, self.op, clock(), 0, info]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if records_verdict:
                span[5] = out.verdict
            return out

        return traced

    def install(self) -> None:
        """Rebind every layer function, in every cfdiamond module, to a wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "cfdiamond" or n.startswith("cfdiamond.")) and m is not None]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"cfdiamond.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self.wrap(orig, f"{layer}.{fname}")
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        """One gzipped JSON line per span: id, parent, op, name, start, end, info."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, (name, parent, op, t0, t1, info) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, op, name, t0, t1, info]) + "\n")

    def aggregate(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per span name, over the spans of ``ops``: calls, total and self
        seconds, marginal bytes."""
        child = defaultdict(int)
        for name, parent, op, t0, t1, info in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
        for sid, (name, parent, op, t0, t1, info) in enumerate(self.spans):
            if op not in ops:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (t1 - t0) * 1e-9
            row["self_s"] += (t1 - t0 - child[sid]) * 1e-9
            if isinstance(info, int):
                row["bytes"] += info
        return out

    def verdict_outcomes(self, ops: set[int]) -> tuple[int, int]:
        """Of the verdicts in ``ops`` that ran the LP: (certified, aligned)."""
        ran_lp = {parent for name, parent, *_ in self.spans if name == "slope.find_direction"}
        certified = gray = 0
        for sid, (name, parent, op, t0, t1, info) in enumerate(self.spans):
            if name == "slope.infinite_slope_verdict" and sid in ran_lp and op in ops:
                certified += info == "INFINITE_SLOPE_CERTIFIED"
                gray += info == "CONDITION_12_HOLDS"
        return certified, gray
