"""Numerical tolerances shared across the package.

All comparisons against "zero probability", "normalized", "constant", and
"LP feasible" read one config, ``CONFIG``, so that command-line overrides
apply uniformly and reports can embed the values actually used.

``set_tolerances`` replaces the process-wide config. ``temporary_tolerances``
overrides it inside a ``with`` block for the current context only (the
thread, or the asyncio task), through a ``contextvars.ContextVar``, so
threads that each hold their own block do not see each other's values.
``CONFIG`` reads the config in effect: this context's override, else the
process-wide config. Assigning it replaces the process-wide config.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import sys
import types
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


_process_wide = Tolerances()
_override: contextvars.ContextVar[Tolerances] = contextvars.ContextVar("cfdiamond_tolerances")


def _current() -> Tolerances:
    """The tolerances in effect: this context's override, else the process-wide config."""
    return _override.get(_process_wide)


def _updated(base: Tolerances, kwargs: dict[str, Any]) -> Tolerances:
    allowed = set(Tolerances.__dataclass_fields__)
    for key in kwargs:
        if key not in allowed:
            raise ValueError(f"unknown tolerance field: {key!r}")
    return Tolerances(**{**base.__dict__, **kwargs})


def set_tolerances(**kwargs: Any) -> None:
    """Replace fields of the process-wide tolerance config.

    A ``temporary_tolerances`` block that is open in the calling context
    keeps hiding the new values until it ends.
    """
    global _process_wide
    _process_wide = _updated(_process_wide, kwargs)


@contextlib.contextmanager
def temporary_tolerances(**kwargs: Any) -> Iterator[None]:
    """Apply tolerance overrides inside a ``with`` block, then restore.

    The overrides start from the config in effect and hold for the current
    context only; other threads keep reading their own config.
    """
    token = _override.set(_updated(_current(), kwargs))
    try:
        yield
    finally:
        _override.reset(token)


class _ConfigModule(types.ModuleType):
    @property
    def CONFIG(self) -> Tolerances:  # noqa: N802 - the module constant's name
        return _current()

    @CONFIG.setter
    def CONFIG(self, value: Tolerances) -> None:  # noqa: N802
        global _process_wide
        _process_wide = value


sys.modules[__name__].__class__ = _ConfigModule
