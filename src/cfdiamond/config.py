"""Numerical tolerances shared across the package.

All comparisons against "zero probability", "normalized", "constant", and
"LP feasible" go through one global config so that command-line overrides
apply uniformly and reports can embed the values actually used.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class Tolerances:
    """Package-wide numerical thresholds.

    tol_norm:
        Slack for "sums to one" checks and for feasibility comparisons of
        rate/cooperation budgets.
    tol_supp:
        Support threshold. Entries at or below it are exact zeros for all
        logarithm and support-set computations.
    tol_dev:
        Allowed spread when testing whether a log-ratio profile is constant
        (the exponential-alignment check).
    tol_lp:
        Feasibility threshold for the direction-finding linear program.
    """

    tol_norm: float = 1e-9
    tol_supp: float = 1e-12
    tol_dev: float = 1e-7
    tol_lp: float = 1e-9

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


CONFIG = Tolerances()


def set_tolerances(**kwargs: Any) -> None:
    """Replace fields of the global tolerance config."""
    global CONFIG
    allowed = set(Tolerances.__dataclass_fields__)
    for key in kwargs:
        if key not in allowed:
            raise ValueError(f"unknown tolerance field: {key!r}")
    CONFIG = Tolerances(**{**CONFIG.__dict__, **kwargs})


@contextlib.contextmanager
def temporary_tolerances(**kwargs: Any) -> Iterator[None]:
    """Apply tolerance overrides inside a ``with`` block, then restore."""
    global CONFIG
    old = CONFIG
    set_tolerances(**kwargs)
    try:
        yield
    finally:
        CONFIG = old
