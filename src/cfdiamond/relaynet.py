"""Achievable rates for a relay channel with orthogonal receiver components.

The network is a broadcast channel p(yr, y1 | x) whose outputs feed the
destination directly (y1) and a relay (yr); the relay reaches the
destination over a noiseless bit pipe of capacity ``c0``, and a cooperation
facilitator observing both broadcast outputs reaches the relay over a pipe
of capacity ``c_cf``.

A coding distribution consists of p(u, x) together with a compression
channel for the relay observation, v given (u, x, y1, yr). Its Markov form
restricts v to depend on (u, yr) only, which is the classical
partial-decode-forward / compress-forward (PD/CF) setting.

Two evaluators are provided over a fixed coding distribution:

- ``eval_cf_rate``: the cooperative bounds. The rate is the minimum of

      bound1 = I(U;Yr) + min{ I(X;Y1,Yr|U), I(X;Y1,V|U) }
      bound2 = min{ I(U;Y1), I(U;Yr) } + I(X;Y1|U)
               + I(V;X,Y1|U) - I(Yr;V|U) + c0

  and is achievable whenever the cooperation budget covers
  cf_required = I(X,Y1;V|U,Yr).

- ``eval_pdcf``: the classical no-cooperation PD/CF bound,

      min{ I(U;Yr) + I(X;Y1,V|U),
           min{ I(U;Y1), I(U;Yr) } + I(X;Y1|U) + c0 - I(Yr;V|U,X,Y1) }.

With a Markov-form coding distribution and zero cooperation budget the two
evaluators agree; ``pdcf_reduction_residuals`` measures the two identities
behind that reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import config, probcore
from .probcore import (
    Alphabet,
    CondKernel,
    FiniteDist,
    PreconditionError,
    SchemaError,
    _is_json_number,
    mi_from_entropies,
    reorder,
)

U, X, Y1, YR, V = "u", "x", "y1", "yr", "v"
CANON_ORDER = (U, X, Y1, YR, V)

#: Each term's (a, b, given) arguments to ``mutual_information``, in the
#: order ``mi_terms`` computes and reports them.
_TERM_ARGS = {
    "I(U;Yr)": (U, YR, None),
    "I(U;Y1)": (U, Y1, None),
    "I(X;Y1|U)": (X, Y1, U),
    "I(X;Y1,Yr|U)": (X, (Y1, YR), U),
    "I(X;Y1,V|U)": (X, (Y1, V), U),
    "I(V;X,Y1|U)": (V, (X, Y1), U),
    "I(Yr;V|U)": (YR, V, U),
    "I(X,Y1;V|U,Yr)": ((X, Y1), V, (U, YR)),
    "I(Yr;V|U,X,Y1)": (YR, V, (U, X, Y1)),
}
TERM_NAMES = tuple(_TERM_ARGS)
#: The terms free of V. They depend on the (u, x, y1, yr) marginal alone, so
#: joints that differ only in the compression channel share them.
NO_V_TERMS = TERM_NAMES[:4]


def _canonical(*groups: Any) -> tuple[str, ...]:
    """The names of ``groups`` (each a name, a tuple of names or None) in
    ``CANON_ORDER``."""
    names = {n for g in groups if g is not None for n in ((g,) if isinstance(g, str) else g)}
    return tuple(n for n in CANON_ORDER if n in names)


#: Each term's four entropy subsets (a,g), (b,g), (a,b,g) and (g), each in
#: ``CANON_ORDER``, so that terms sharing a subset share its key.
_TERM_SUBSETS = {name: (_canonical(a, g), _canonical(b, g), _canonical(a, b, g), _canonical(g))
                 for name, (a, b, g) in _TERM_ARGS.items()}
#: The 14 distinct non-empty subsets of the terms' entropies, in the order
#: the terms first read them, and the axes of a ``CANON_ORDER`` joint that
#: each sums out.
_ENTROPY_SUBSETS = tuple(dict.fromkeys(s for subsets in _TERM_SUBSETS.values()
                                       for s in subsets if s))
_ENTROPY_REDUCTIONS = tuple(tuple(i for i, n in enumerate(CANON_ORDER) if n not in s)
                            for s in _ENTROPY_SUBSETS)


def _json_real(value: Any, field: str) -> float:
    """A JSON number a float can hold (not a boolean or a string), as a float."""
    if not _is_json_number(value):
        raise SchemaError(f"{field} must be a JSON number in double range, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RelayNetSpec:
    """Broadcast channel plus the two bit-pipe capacities (bits/use)."""

    x_alphabet: Alphabet
    y1_alphabet: Alphabet
    yr_alphabet: Alphabet
    broadcast: CondKernel
    c0: float
    c_cf: float = 0.0

    def __post_init__(self) -> None:
        expected = {X: self.x_alphabet, Y1: self.y1_alphabet, YR: self.yr_alphabet}
        for name, alpha in expected.items():
            if alpha.name != name:
                raise SchemaError(f"alphabet for {name!r} is named {alpha.name!r}")
        if self.broadcast.from_vars != (self.x_alphabet,):
            raise SchemaError(f"broadcast kernel input must be ({X},), got {self.broadcast.from_names}")
        if self.broadcast.to_vars != (self.yr_alphabet, self.y1_alphabet):
            raise SchemaError(f"broadcast kernel output must be ({YR}, {Y1}), got {self.broadcast.to_names}")
        if self.broadcast.defined is not None:
            raise SchemaError("broadcast kernel must define every row")
        if not (np.isfinite(self.c0) and self.c0 >= 0.0):
            raise SchemaError(f"c0 must be a nonnegative real, got {self.c0}")
        if not (np.isfinite(self.c_cf) and self.c_cf >= 0.0):
            raise SchemaError(f"c_cf must be a nonnegative real, got {self.c_cf}")

    def to_json_dict(self) -> dict[str, Any]:
        return {"x_alphabet": self.x_alphabet.to_json_dict(),
                "y1_alphabet": self.y1_alphabet.to_json_dict(),
                "yr_alphabet": self.yr_alphabet.to_json_dict(),
                "broadcast": self.broadcast.to_json_dict(),
                "c0": self.c0, "c_cf": self.c_cf}

    @staticmethod
    def from_json_dict(obj: Any) -> "RelayNetSpec":
        needed = {"x_alphabet", "y1_alphabet", "yr_alphabet", "broadcast", "c0"}
        if not isinstance(obj, dict) or not needed <= set(obj):
            raise SchemaError(f"network spec JSON needs keys {sorted(needed)}")
        return RelayNetSpec(
            Alphabet.from_json_dict(obj["x_alphabet"]),
            Alphabet.from_json_dict(obj["y1_alphabet"]),
            Alphabet.from_json_dict(obj["yr_alphabet"]),
            CondKernel.from_json_dict(obj["broadcast"]),
            _json_real(obj["c0"], "c0"),
            _json_real(obj.get("c_cf", 0.0), "c_cf"),
        )


@dataclass(frozen=True)
class CodingDist:
    """Auxiliary-distribution bundle: p(u, x) and the compression channel.

    ``v_kernel`` maps (u, x, y1, yr), in exactly that order, to v. When
    ``markov_form`` is set the kernel rows must be constant across (x, y1)
    for each (u, yr) pair; a trivial U is represented by a size-1 alphabet.
    """

    ux: FiniteDist
    v_kernel: CondKernel
    markov_form: bool

    def __post_init__(self) -> None:
        if self.ux.names != (U, X):
            raise SchemaError(f"ux must be a joint over ({U}, {X}), got {self.ux.names}")
        if self.v_kernel.from_names != (U, X, Y1, YR):
            raise SchemaError(
                f"v_kernel input must be ({U}, {X}, {Y1}, {YR}), got {self.v_kernel.from_names}")
        if self.v_kernel.to_names != (V,):
            raise SchemaError(f"v_kernel output must be ({V},), got {self.v_kernel.to_names}")
        if self.v_kernel.defined is not None:
            raise SchemaError("v_kernel must define every row")
        for name in (U, X):
            if self.ux.alphabet(name) != self.v_kernel.from_vars[(U, X, Y1, YR).index(name)]:
                raise SchemaError(f"alphabet mismatch on {name!r} between ux and v_kernel")
        if self.markov_form:
            t = self.v_kernel.tensor
            dev = float(np.abs(t - t[:, :1, :1, :, :]).max())
            if dev > config.CONFIG.tol_supp:
                raise SchemaError(
                    f"markov_form set but kernel varies with (x, y1) by {dev}")

    @property
    def x_alphabet(self) -> Alphabet:
        return self.ux.variables[1]

    def to_json_dict(self) -> dict[str, Any]:
        return {"ux": self.ux.to_json_dict(),
                "v_kernel": self.v_kernel.to_json_dict(),
                "markov_form": self.markov_form}

    @staticmethod
    def from_json_dict(obj: Any) -> "CodingDist":
        if not isinstance(obj, dict) or not {"ux", "v_kernel", "markov_form"} <= set(obj):
            raise SchemaError("coding JSON needs 'ux', 'v_kernel' and 'markov_form'")
        if not isinstance(obj["markov_form"], bool):
            raise SchemaError(f"markov_form must be true or false, got {obj['markov_form']!r}")
        return CodingDist(FiniteDist.from_json_dict(obj["ux"]),
                          CondKernel.from_json_dict(obj["v_kernel"]),
                          obj["markov_form"])


def markov_kernel(cd: CodingDist) -> np.ndarray:
    """The compression channel as an array p(v | u, yr), shape (|U|,|Yr|,|V|)."""
    if not cd.markov_form:
        raise PreconditionError("coding distribution is not in Markov form")
    return cd.v_kernel.tensor[:, 0, 0, :, :]


@dataclass(frozen=True)
class RateReport:
    """Evaluated cooperative bounds with a per-term breakdown."""

    bound1: float
    bound2: float
    cf_required: float
    feasible: bool
    achievable: float | None
    terms: dict[str, float]

    def to_json_dict(self) -> dict[str, Any]:
        return {"bound1": self.bound1,
                "bound2": self.bound2,
                "cf_required": self.cf_required,
                "achievable": self.achievable if self.feasible else "infeasible",
                "term_breakdown": dict(self.terms)}


def build_joint(spec: RelayNetSpec, cd: CodingDist) -> FiniteDist:
    """Exact product joint over (u, x, y1, yr, v) of the three factors.

    It is one broadcast product in ``CANON_ORDER``,
    (p(u,x) p(yr,y1|x)) p(v|u,x,y1,yr), each entry multiplied in the order
    ``compose`` multiplies it, so the pmf equals
    ``reorder(compose(compose(ux, broadcast), v_kernel), CANON_ORDER)`` bit
    for bit.
    """
    if cd.x_alphabet != spec.x_alphabet:
        raise SchemaError("x alphabet differs between spec and coding distribution")
    for name, alpha in ((Y1, spec.y1_alphabet), (YR, spec.yr_alphabet)):
        k_alpha = cd.v_kernel.from_vars[(U, X, Y1, YR).index(name)]
        if k_alpha != alpha:
            raise SchemaError(f"alphabet mismatch on {name!r} between spec and coding distribution")
    uxy = cd.ux.pmf[:, :, None, None] * spec.broadcast.tensor.transpose(0, 2, 1)
    return FiniteDist(cd.ux.variables + (spec.y1_alphabet, spec.yr_alphabet)
                      + cd.v_kernel.to_vars, uxy[..., None] * cd.v_kernel.tensor)


class RateTerms(dict):
    """The terms of ``TERM_NAMES`` on one joint, in bits, each computed when
    first read, so a formula evaluates only the terms it reads.

    Each distinct non-empty subset's entropy is taken once per table,
    through ``probcore.entropy``, and combined as ``mutual_information``
    combines it, so every term equals ``mutual_information(joint,
    *_TERM_ARGS[name])`` bit for bit. Terms in ``known`` are never computed.
    """

    def __init__(self, joint: FiniteDist, known: dict[str, float] | None = None) -> None:
        super().__init__(known or {})
        self.joint = joint
        self._entropies = {(): 0.0}

    def __missing__(self, name: str) -> float:
        subsets = _TERM_SUBSETS[name]
        h = self._entropies
        for s in subsets:
            if s not in h:  # looked up per call, so a patched entropy is used
                h[s] = probcore.entropy(self.joint, s)
        value = self[name] = mi_from_entropies(*(h[s] for s in subsets))
        return value


def mi_terms(joint: FiniteDist) -> dict[str, float]:
    """Every mutual-information term used by the rate bounds, in bits.

    The 14 entropies are taken in one ``probcore.marginal_entropies`` pass
    and combined term by term as ``RateTerms`` combines them, so each term
    equals ``mutual_information(joint, *_TERM_ARGS[name])`` bit for bit.
    """
    if joint.names != CANON_ORDER:
        joint = reorder(joint, CANON_ORDER)
    h = dict(zip(_ENTROPY_SUBSETS, probcore.marginal_entropies(joint.pmf, _ENTROPY_REDUCTIONS)))
    h[()] = 0.0
    return {name: mi_from_entropies(*(h[s] for s in _TERM_SUBSETS[name])) for name in TERM_NAMES}


def bounds_from_terms(t: dict[str, float], c0: float) -> tuple[float, float, float]:
    """(bound1, bound2, cf_required) from the rate terms and the pipe
    capacity; every term but I(Yr;V|U,X,Y1) is read."""
    bound1 = t["I(U;Yr)"] + min(t["I(X;Y1,Yr|U)"], t["I(X;Y1,V|U)"])
    bound2 = (min(t["I(U;Y1)"], t["I(U;Yr)"]) + t["I(X;Y1|U)"]
              + t["I(V;X,Y1|U)"] - t["I(Yr;V|U)"] + c0)
    return bound1, bound2, t["I(X,Y1;V|U,Yr)"]


def rate_bounds(joint: FiniteDist, c0: float) -> tuple[float, float, float, dict[str, float]]:
    """(bound1, bound2, cf_required, terms) for a joint and pipe capacity."""
    t = mi_terms(joint)
    return (*bounds_from_terms(t, c0), t)


def eval_cf_rate(spec: RelayNetSpec, cd: CodingDist) -> RateReport:
    """Evaluate the cooperative achievable-rate bounds at a fixed coding
    distribution, reporting feasibility against the cooperation budget."""
    joint = build_joint(spec, cd)
    bound1, bound2, cf_required, terms = rate_bounds(joint, spec.c0)
    feasible = cf_required <= spec.c_cf + config.CONFIG.tol_norm
    achievable = min(bound1, bound2) if feasible else None
    return RateReport(bound1, bound2, cf_required, feasible, achievable, terms)


def eval_pdcf(spec: RelayNetSpec, cd: CodingDist) -> float:
    """Classical PD/CF rate (no cooperation) at a Markov-form distribution.

    The two bounds read five of the terms of ``mi_terms``.
    """
    if not cd.markov_form:
        raise PreconditionError("PD/CF evaluation requires a Markov-form coding distribution")
    t = mi_terms(build_joint(spec, cd))
    first = t["I(U;Yr)"] + t["I(X;Y1,V|U)"]
    second = (min(t["I(U;Y1)"], t["I(U;Yr)"]) + t["I(X;Y1|U)"]
              + spec.c0 - t["I(Yr;V|U,X,Y1)"])
    return min(first, second)


def pdcf_reduction_residuals(spec: RelayNetSpec, cd: CodingDist) -> tuple[float, float]:
    """Residuals of the two identities that collapse the cooperative bounds
    onto the PD/CF bounds for Markov-form distributions.

    Returns (|I(V;X,Y1|U) - I(Yr;V|U) + I(Yr;V|U,X,Y1)|,
             |I(X;Y1,V|U) - min(I(X;Y1,V|U), I(X;Y1,Yr|U))|).

    Both vanish (within tolerance) in Markov form. The function also accepts
    non-Markov distributions so callers can observe the residuals break; it
    reports, it never asserts. The residuals read five of the terms of
    ``mi_terms``.
    """
    t = mi_terms(build_joint(spec, cd))
    first = abs(t["I(V;X,Y1|U)"] - t["I(Yr;V|U)"] + t["I(Yr;V|U,X,Y1)"])
    second = abs(t["I(X;Y1,V|U)"] - min(t["I(X;Y1,V|U)"], t["I(X;Y1,Yr|U)"]))
    return first, second
