"""Perturbation engine and infinite-slope certifiers.

Starting from a Markov-form coding distribution p(v | u, yr), consider the
perturbed compression channels

    q(v | u, x, y1, yr) = p(v | u, yr) + alpha * r(v | u, x, y1, yr)

where the direction r sums to zero over v for every conditioning tuple and
vanishes wherever the base channel (or the tuple itself) has no support, so
q keeps exactly the support of p.

Three scalar functionals of q drive the analysis (all in bits):

    f1(alpha) = I_q(X; V | U, Y1)
    f2(alpha) = I_q(V; X, Y1 | U) - I_q(Yr; V | U)
    ccf(alpha) = I_q(X, Y1; V | U, Yr)

Their first derivatives at alpha = 0 have closed forms; ccf starts at zero
with zero slope (it is quadratic in alpha), while a direction with
f1'(0) > 0 and f2'(0) > 0 raises both rate bounds at first order. Hence,
when such a direction exists, the rate gain per unit of cooperation grows
without bound as alpha -> 0.

Existence of the direction is a linear-program feasibility question whose
dual is an exponential-alignment condition: no improving direction exists
exactly when some lambda in [0, 1] makes

    log p(v|u,x,y1) - lambda*log p(v|u,y1) - (1-lambda)*log p(v|u,yr)

constant in v on the support of p(. | u, yr), for every supported tuple
(u, x, y1, yr). Both sides reduce to minimising a convex, piecewise-linear
function of lambda on [0, 1], which is done exactly: ``find_direction``
minimises the LP's dual over lambda and assembles an optimal direction
from the maximisers at the minimiser; ``check_lambda`` minimises the
largest alignment deviation for the dual witness; ``infinite_slope_verdict``
combines both with the strict precondition I(X;Y1,V|U) < I(X;Y1,Yr|U),
building the conditional and log tables they read once, as a ``JointView``.

For channels with full support, ``deterministic_reduction`` builds the
deterministic replacement W of V (connected components of the co-support
graph per u) and verifies it preserves the rate terms, and
``full_support_verdict`` returns the resulting dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import config
from .probcore import (
    FiniteDist,
    Alphabet,
    CondKernel,
    InfeasibleError,
    PreconditionError,
    conditional_table,
    compose,
    mutual_information,
    reorder,
)
from .relaynet import (
    CANON_ORDER,
    NO_V_TERMS,
    CodingDist,
    RateTerms,
    RelayNetSpec,
    U,
    V,
    X,
    Y1,
    YR,
    bounds_from_terms,
    build_joint,
    markov_kernel,
    rate_bounds,
)

#: Default geometric alpha schedule, largest first.
DEFAULT_ALPHAS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)

VERDICT_CERTIFIED = "INFINITE_SLOPE_CERTIFIED"
VERDICT_ALIGNED = "CONDITION_12_HOLDS"
VERDICT_PRECONDITION = "PRECONDITION_FAILS"

REDUCTION_DETERMINISTIC = "DETERMINISTIC_REPLACEMENT"
REDUCTION_INFINITE_SLOPE = "INFINITE_SLOPE"


class AlphaRangeError(InfeasibleError):
    """A perturbation step size leaves the valid range."""


# ---------------------------------------------------------------------------
# Perturbation family
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Perturbation:
    """A direction r(v | u, x, y1, yr) for the perturbed channel family.

    Invariants enforced here: the base is Markov form, r sums to zero over v
    for every conditioning tuple (within 1e-12), and r vanishes wherever the
    base channel p(v | u, yr) has no support. The additional requirement
    that r vanish on zero-probability tuples (u, x, y1, yr) depends on the
    network spec; ``validate_against_joint`` checks it when the joint is at
    hand, and all constructors in this module guarantee it.

    Every verdict that certifies keeps its direction, and a direction from
    ``find_direction`` takes at most nine distinct values. So when r has at
    most 16 distinct values it is held as 4-bit codes into its sorted
    distinct values, two codes per byte (the entry of even flat index in
    the low half), a sixteenth of the float64 size; any other r is held as
    float64. ``r`` rebuilds the read-only array on each access.
    """

    base: CodingDist
    _values: np.ndarray
    _codes: np.ndarray | None  # None when _values is r itself

    def __init__(self, r: np.ndarray, base: CodingDist) -> None:
        if not base.markov_form:
            raise PreconditionError("perturbation base must be in Markov form")
        shape = base.v_kernel.tensor.shape
        r = np.asarray(r, dtype=float)
        if r.shape != shape:
            raise ValueError(f"direction has shape {r.shape}, kernel needs {shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("direction contains non-finite entries")
        sums = np.abs(r.sum(axis=-1))
        if sums.size and sums.max() > 1e-12:
            raise ValueError(f"direction rows must sum to zero, worst residual {sums.max()}")
        mk = markov_kernel(base)  # (U, Yr, V)
        off = np.abs(r) * (mk[:, None, None, :, :] <= config.CONFIG.tol_supp)
        if off.size and off.max() > 0.0:
            raise ValueError("direction is nonzero outside the base channel support")
        values, codes = np.unique(r, return_inverse=True)
        if values.size <= 16:
            # One zero code is appended; at an even entry count it is left out.
            codes = np.append(codes.ravel().astype(np.uint8), np.uint8(0))
            codes = codes[0:-1:2] | (codes[1::2] << 4)
        else:
            values, codes = r.copy(), None
        values.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_codes", codes)

    @property
    def r(self) -> np.ndarray:
        if self._codes is None:
            return self._values
        shape = self.base.v_kernel.tensor.shape
        codes = np.empty(2 * self._codes.size, dtype=np.uint8)
        np.bitwise_and(self._codes, 0x0F, out=codes[0::2])
        np.right_shift(self._codes, 4, out=codes[1::2])
        r = self._values.take(codes[:math.prod(shape)]).reshape(shape)
        r.setflags(write=False)
        return r

    @property
    def is_zero(self) -> bool:
        return not bool(np.any(self._values))

    def scaled(self, factor: float) -> "Perturbation":
        """Same direction with every entry multiplied by ``factor``."""
        return Perturbation(self.r * float(factor), self.base)

    def to_json_dict(self) -> dict[str, Any]:
        r = self.r
        return {"shape": list(r.shape), "r": r.ravel().tolist()}


def validate_against_joint(pert: Perturbation, joint_base: FiniteDist) -> None:
    """Check that the direction vanishes on zero-probability tuples."""
    joint = _canon(joint_base)
    tuple_p = joint.pmf.sum(axis=4)
    off = np.abs(pert.r) * (tuple_p <= config.CONFIG.tol_supp)[..., None]
    if off.size and off.max() > 0.0:
        raise ValueError("direction is nonzero on a zero-probability conditioning tuple")


def alpha_max(base: CodingDist, pert: Perturbation) -> float:
    """Largest step keeping every perturbed entry inside [0, 1].

    Infinite only for the zero direction.
    """
    if pert.base is not base and not np.array_equal(pert.base.v_kernel.rows,
                                                    base.v_kernel.rows):
        raise ValueError("perturbation was built for a different base distribution")
    r = pert.r
    p = base.v_kernel.tensor
    pos = r > 1e-15
    neg = r < -1e-15
    limits = []
    if pos.any():
        limits.append(float(((1.0 - p[pos]) / r[pos]).min()))
    if neg.any():
        limits.append(float((p[neg] / -r[neg]).min()))
    return min(limits) if limits else float("inf")


def _check_alphas(base: CodingDist, pert: Perturbation, alphas: Sequence[float]) -> None:
    """Every step must be finite, nonnegative and within the validity limit.

    The first step past the limit is reported with the entry it pushes
    furthest outside [0, 1].
    """
    for alpha in alphas:
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise AlphaRangeError(f"alpha must be finite and nonnegative, got {alpha}")
    if pert.is_zero:
        return
    amax = alpha_max(base, pert)
    for alpha in alphas:
        if alpha > amax + 1e-15:
            q = base.v_kernel.tensor + alpha * pert.r
            flat = int(np.argmax(np.maximum(-q, q - 1.0)))
            worst = tuple(int(i) for i in np.unravel_index(flat, q.shape))
            raise AlphaRangeError(
                f"alpha {alpha} exceeds validity limit {amax}; entry (u,x,y1,yr,v)={worst} "
                f"reaches {q[worst]}")


def perturb(base: CodingDist, pert: Perturbation, alpha: float) -> CodingDist:
    """Perturbed coding distribution q = p + alpha * r.

    Row sums are preserved exactly by the zero-sum property of r, and the
    support on positive-probability tuples is unchanged for alpha below the
    validity limit. The result is a general (non-Markov) coding
    distribution.
    """
    _check_alphas(base, pert, (alpha,))
    if alpha == 0.0 or pert.is_zero:
        return base
    q = base.v_kernel.tensor + alpha * pert.r
    np.clip(q, 0.0, 1.0, out=q)  # boundary steps may overshoot by rounding
    kernel = CondKernel(base.v_kernel.from_vars, base.v_kernel.to_vars,
                        q.reshape(base.v_kernel.rows.shape))
    return CodingDist(base.ux, kernel, markov_form=False)


def _perturbed_joints(spec: RelayNetSpec, base: CodingDist, pert: Perturbation,
                      alphas: Sequence[float] | None
                      ) -> tuple[tuple[float, ...], FiniteDist, Iterator[FiniteDist]]:
    """The schedule (default: ``default_schedule`` of the validity limit),
    the base joint, and the joint of q = p + alpha * r for each alpha.

    The steps are taken as floats, in the order given, and the schedule is
    checked whole before anything is evaluated. The joint of q is the base
    joint plus alpha * D with D = p(u,x,y1,yr) r, so the base joint and D
    are built once per call; the joints are built as the iterator is
    consumed.
    """
    if alphas is None:
        alphas = default_schedule(alpha_max(base, pert))
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("empty alpha schedule")
    _check_alphas(base, pert, alphas)
    joint = build_joint(spec, base)
    d = joint.pmf.sum(axis=4, keepdims=True) * pert.r
    return alphas, joint, (FiniteDist(joint.variables, joint.pmf + a * d) for a in alphas)


def default_schedule(amax: float = float("inf")) -> tuple[float, ...]:
    """The default alpha schedule truncated at half the validity limit."""
    cutoff = amax / 2.0
    out = tuple(a for a in DEFAULT_ALPHAS if a <= cutoff)
    if not out:
        raise InfeasibleError(f"validity limit {amax} leaves no usable alpha")
    return out


# ---------------------------------------------------------------------------
# Derivatives and curvature
# ---------------------------------------------------------------------------


def _canon(joint: FiniteDist) -> FiniteDist:
    if joint.names != CANON_ORDER:
        return reorder(joint, CANON_ORDER)
    return joint


@dataclass(frozen=True, eq=False)
class JointView:
    """A canonical-order joint with the tables every certification step reads.

    ``tuple_p`` is p(u, x, y1, yr), ``supp5`` the support of the joint and
    ``pv_uyr`` the table p(v | u, yr). With l(v | .) the log2 of p(v | .),
    zero off its support, ``g1`` = l(v|u,x,y1) - l(v|u,y1) has shape
    (U, X, Y1, 1, V), ``g2`` = l(v|u,x,y1) - l(v|u,yr) shape (U, X, Y1, Yr, V)
    and ``drift`` = l(v|u,yr) - l(v|u,y1) shape (U, 1, Y1, Yr, V). f1'(0)
    and f2'(0) weight g1 and g2 by p(tuple) r, and the alignment deviation
    at lambda is g2 + lambda * drift. ``check_lambda``, ``find_direction``,
    ``f_primes`` and ``deterministic_reduction`` accept a view in place of
    a joint, so a caller that runs several of them builds the tables once.
    """

    joint: FiniteDist
    tuple_p: np.ndarray
    supp5: np.ndarray
    pv_uyr: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    drift: np.ndarray

    @staticmethod
    def of(joint: FiniteDist | JointView) -> JointView:
        """The view of a joint in any variable order; a view is returned as is."""
        if isinstance(joint, JointView):
            return joint
        joint = _canon(joint)
        tol = config.CONFIG.tol_supp
        p5 = joint.pmf
        pv_uxy1 = conditional_table(joint, V, (U, X, Y1))
        pv_uy1 = conditional_table(joint, V, (U, Y1))
        pv_uyr = conditional_table(joint, V, (U, YR))
        with np.errstate(divide="ignore"):
            l_uxy1, l_uy1, l_uyr = (np.where(t > tol, np.log2(np.maximum(t, tol)), 0.0)
                                    for t in (pv_uxy1, pv_uy1, pv_uyr))
        l1 = l_uxy1[:, :, :, None, :]
        l_uy1, l_uyr = l_uy1[:, None, :, None, :], l_uyr[:, None, None, :, :]
        return JointView(joint, p5.sum(axis=4), p5 > tol, pv_uyr,
                         l1 - l_uy1, l1 - l_uyr, l_uyr - l_uy1)


def _require_markov_joint(view: JointView) -> None:
    """The joint must factor as p(u,x,y1,yr) p(v|u,yr) on its support.

    p(v | u, x, y1, yr) is p5 / p(u, x, y1, yr) on the supported tuples,
    the same sum and division as ``conditional_table``.
    """
    tol = config.CONFIG.tol_supp
    tuple_p = view.tuple_p[..., None]
    supported = tuple_p > tol
    pv_all = np.zeros_like(view.joint.pmf)
    np.divide(view.joint.pmf, tuple_p, out=pv_all, where=supported)
    dev = np.abs(pv_all - view.pv_uyr[:, None, None, :, :]) * supported
    if dev.size and dev.max() > 1e-9:
        raise PreconditionError(
            f"joint is not Markov (v depends on (x, y1) by {dev.max():.3g})")


def f_primes(joint_base: FiniteDist | JointView, pert: Perturbation) -> tuple[float, float]:
    """Closed-form derivatives (f1'(0), f2'(0)) in bits per unit alpha.

    f1'(0) = sum p(u,x,y1,yr) r(v|u,x,y1,yr) log2[ p(v|u,x,y1) / p(v|u,y1) ]
    f2'(0) = sum p(u,x,y1,yr) r(v|u,x,y1,yr) log2[ p(v|u,x,y1) / p(v|u,yr) ]

    over the support of the base joint: dense sums of the view's g1 and g2
    weighted by p(tuple) r, zeroed off the support.
    """
    view = JointView.of(joint_base)
    w = np.where(view.supp5, view.tuple_p[..., None] * pert.r, 0.0)
    return float((w * view.g1).sum()), float((w * view.g2).sum())


@dataclass(frozen=True)
class CurvatureReport:
    """Cooperation cost along an alpha schedule plus a log-log slope fit."""

    points: tuple[tuple[float, float, float], ...]  # (alpha, ccf, ccf/alpha)
    loglog_slope: float | None

    def to_json_dict(self) -> dict[str, Any]:
        return {"points": [{"alpha": a, "ccf": c, "ratio": q} for a, c, q in self.points],
                "loglog_slope": self.loglog_slope}


def ccf_curvature(spec: RelayNetSpec, base: CodingDist, pert: Perturbation,
                  alphas: Sequence[float] | None = None) -> CurvatureReport:
    """Required cooperation rate ccf(alpha) along a schedule.

    ccf(alpha) vanishes quadratically at alpha = 0, so the ratios
    ccf/alpha decrease toward zero and the fitted log-log slope is close
    to 2 on full-support instances. Every perturbed joint is the base
    joint plus alpha times one fixed array, and only I(X,Y1;V|U,Yr) is
    evaluated on it. An alpha that is not finite, is negative or exceeds
    the validity limit raises ``AlphaRangeError`` before anything is
    evaluated; alpha = 0 and the zero direction give ccf = 0.
    """
    alphas, _, joints = _perturbed_joints(spec, base, pert, alphas)
    points = []
    for a, joint_q in zip(alphas, joints):
        if a > 0.0 and not pert.is_zero:
            ccf = RateTerms(joint_q)["I(X,Y1;V|U,Yr)"]
        else:
            ccf = 0.0
        points.append((a, ccf, ccf / a if a > 0.0 else 0.0))
    usable = [(a, c) for a, c, _ in points if a > 0.0 and c > 1e-300]
    slope = None
    if len(usable) >= 2:
        la = np.log(np.array([a for a, _ in usable]))
        lc = np.log(np.array([c for _, c in usable]))
        slope = float(np.polyfit(la, lc, 1)[0])
    return CurvatureReport(tuple(points), slope)


# ---------------------------------------------------------------------------
# Exact minimisation over lambda in [0, 1]
# ---------------------------------------------------------------------------

#: Step cap of ``_pwl_argmin``. Every other step at most halves the bracket,
#: so the cap is never reached before the bracket shrinks below rounding.
_MAX_STEPS = 200


def _pwl_argmin(evaluate: Callable[[float], tuple[float, float, Any]],
                at0: tuple[float, float, Any], at1: tuple[float, float, Any]):
    """Minimise a convex piecewise-linear function f of lambda on [0, 1].

    ``evaluate(lam)`` returns ``(f(lam), s, state)`` with s a subgradient
    of f at lam; ``at0`` and ``at1`` are its results at the two ends. An end
    whose slope points out of [0, 1] is the minimiser. Otherwise the
    tangent lines at the ends of the bracket bound f from below, so their
    meeting point bounds the minimum from below, and the search stops at
    the first query whose value reaches that bound up to rounding. Queries
    are the meeting points (secant steps, exact on a linear piece); a step
    that fails to halve the bracket is followed by a bisection.

    Returns ``(lam, at, lo, hi)``: the minimiser, its evaluation, and the
    evaluations at the final bracket ends. At an end of [0, 1] or on a flat
    piece all three are the same object.
    """
    if at0[1] >= 0.0:
        return 0.0, at0, at0, at0
    if at1[1] <= 0.0:
        return 1.0, at1, at1, at1
    (l0, lo), (l1, hi) = (0.0, at0), (1.0, at1)
    bisect = False
    for _ in range(_MAX_STEPS):
        (f0, s0, _), (f1, s1, _) = lo, hi
        meet = min(max((f1 - f0 + s0 * l0 - s1 * l1) / (s0 - s1), l0), l1)
        floor = f0 + s0 * (meet - l0)
        lam = 0.5 * (l0 + l1) if bisect else meet
        at = evaluate(lam)
        if at[0] - floor <= 1e-12 * max(1.0, abs(at[0])):
            return lam, at, lo, hi
        if at[1] == 0.0:
            return lam, at, at, at
        width = l1 - l0
        if at[1] < 0.0:
            l0, lo = lam, at
        else:
            l1, hi = lam, at
        bisect = not bisect and l1 - l0 > 0.5 * width
    return lam, at, lo, hi


# ---------------------------------------------------------------------------
# Best direction (primal witness)
# ---------------------------------------------------------------------------


def find_direction(joint_base: FiniteDist | JointView, base: CodingDist
                   ) -> tuple[Perturbation, float]:
    """Best direction for max min(f1'(0), f2'(0)) over the unit box.

    The program: maximize t subject to f1'(r) >= t, f2'(r) >= t, zero sum
    over v per conditioning tuple, r = 0 off support, and |r| <= 1
    entrywise. The box only fixes the scale; the sign of the optimum t* is
    what matters. A value above ``tol_lp`` certifies an improving direction.

    With f1' = a.r and f2' = b.r (a = p(tuple) g1 and b = p(tuple) g2 from
    the view, on the coordinates that ``base``, the Markov-form coding
    distribution of the joint, leaves free), t* = min over lambda in [0, 1] of
    g(lambda) = max_r c.r for c = lambda*a + (1-lambda)*b. The maximum
    splits by tuple: +1 on the top floor(k/2) of the tuple's k free entries
    of c, -1 on the bottom floor(k/2), so g is convex and piecewise linear
    and ``_pwl_argmin`` finds its minimiser lambda*. The direction is that
    maximiser at an end of [0, 1], or else the mix of the maximisers on
    both sides of lambda* that makes f1' = f2' (= t*).

    Returns the direction, as a ``Perturbation`` of ``base``, and t*.
    Degenerate supports (no free coordinates) return the zero direction and
    t* = 0.
    """
    view = JointView.of(joint_base)
    _require_markov_joint(view)
    tol = config.CONFIG.tol_supp
    w = view.tuple_p[..., None]
    mk = markov_kernel(base)
    free5 = (w > tol) & (mk[:, None, None, :, :] > tol)
    shape5 = free5.shape
    nv = shape5[-1]
    rows = np.flatnonzero(free5.reshape(-1, nv).any(axis=1))
    if rows.size == 0:
        return Perturbation(np.zeros(shape5), base), 0.0

    free = free5.reshape(-1, nv)[rows]
    a = np.where(free, (w * view.g1).reshape(-1, nv)[rows], 0.0)
    b = np.where(free, (w * view.g2).reshape(-1, nv)[rows], 0.0)
    d = a - b
    off = np.where(free, 0.0, np.inf)  # sorts unsupported entries past the free ones
    k = free.sum(axis=1, keepdims=True)
    pos = np.arange(nv)
    half = k // 2
    sign = np.where(pos < half, -1.0, np.where((pos >= k - half) & (pos < k), 1.0, 0.0))

    at_row = (np.arange(rows.size) * nv)[:, None]

    def evaluate(lam: float, side: float = 0.0):
        c = b + lam * d
        if side:  # at an end, ties in c go by side*d: the slope into [0, 1]
            order = np.lexsort((side * d, c + off), axis=-1)
        else:  # inside, any order of ties gives a maximiser
            order = (c + off).argsort(axis=1)
        z = np.empty(sign.size)
        z[(order + at_row).ravel()] = sign.ravel()
        return float((c.ravel() * z).sum()), float((d.ravel() * z).sum()), z

    _, _, lo, hi = _pwl_argmin(evaluate, evaluate(0.0, side=1.0), evaluate(1.0, side=-1.0))
    if lo is hi:
        z = lo[2]
    else:
        theta = hi[1] / (hi[1] - lo[1])  # slopes lo[1] < 0 < hi[1]: d.z = 0
        z = theta * lo[2] + (1.0 - theta) * hi[2]
    z = z.reshape(free.shape)
    t_star = min(float((a * z).sum()), float((b * z).sum()))
    r = np.zeros(shape5)
    r.reshape(-1, nv)[rows] = z
    return Perturbation(r, base), t_star


# ---------------------------------------------------------------------------
# Exponential alignment (dual witness)
# ---------------------------------------------------------------------------


def _alignment_rows(joint: FiniteDist | JointView) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deviation profile d(v) = base + lambda*drift per supported tuple.

    d(v) = log2 p(v|u,x,y1) - lambda*log2 p(v|u,y1) - (1-lambda)*log2 p(v|u,yr),
    so base is the view's g2 and drift its drift table. Returns (base,
    drift, free), one row per tuple (u, x, y1, yr) with at least two
    supported letters v; the other tuples have no spread.
    """
    view = JointView.of(joint)
    nv = view.supp5.shape[-1]
    free = view.supp5.reshape(-1, nv)
    rows = np.flatnonzero(free.sum(axis=1) >= 2)
    drift = np.broadcast_to(view.drift, view.supp5.shape)
    return view.g2.reshape(-1, nv)[rows], drift.reshape(-1, nv)[rows], free[rows]


def _min_deviation(base: np.ndarray, drift: np.ndarray, free: np.ndarray,
                   stop: float = -np.inf) -> tuple[float, float]:
    """Least (lambda, max deviation) over [0, 1] for ``_alignment_rows`` data.

    The deviation max over rows of (max - min over free v of base +
    lambda*drift) is convex and piecewise linear in lambda, and the
    subgradient at lambda is the drift spread of the row and letters that
    attain it. lambda = 0, then lambda = 1, is returned at once when its
    deviation is at most ``stop``; otherwise the exact minimiser.
    """
    if base.shape[0] == 0:
        return 0.0, 0.0
    hi0 = np.where(free, base, -np.inf)
    lo0 = np.where(free, base, np.inf)
    drift = np.where(free, drift, 0.0)
    idx = np.arange(base.shape[0])

    def evaluate(lam: float):
        hi = hi0 + lam * drift
        lo = lo0 + lam * drift
        top = hi.argmax(axis=1)
        bot = lo.argmin(axis=1)
        spread = hi[idx, top] - lo[idx, bot]
        t = int(spread.argmax())
        return float(spread[t]), float(drift[t, top[t]] - drift[t, bot[t]]), None

    at0 = evaluate(0.0)
    if at0[0] <= stop:
        return 0.0, at0[0]
    at1 = evaluate(1.0)
    if at1[0] <= stop:
        return 1.0, at1[0]
    lam, at, _, _ = _pwl_argmin(evaluate, at0, at1)
    return lam, at[0]


def check_lambda(joint_base: FiniteDist | JointView,
                 best: bool = False) -> tuple[float, float] | None:
    """Dual witness: a lambda certifying that no improving direction exists.

    Tries lambda = 0, then lambda = 1, then the minimiser of the maximum
    deviation; returns (lambda, max deviation) for the first within
    ``tol_dev``, or None when the minimum exceeds it (by LP duality an
    improving direction then exists). With ``best`` the least-deviation
    pair is returned even when it fails ``tol_dev``.
    """
    tol_dev = config.CONFIG.tol_dev
    lam, dev = _min_deviation(*_alignment_rows(joint_base), stop=tol_dev)
    return (lam, dev) if best or dev <= tol_dev else None


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class SlopeVerdict:
    """Outcome of the infinite-slope certification at one coding distribution."""

    verdict: str
    precondition_strict: bool
    lp_value: float
    lambda_witness: tuple[float, float] | None
    direction: Perturbation | None = None
    f1_prime: float | None = None
    f2_prime: float | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {"verdict": self.verdict,
                "precondition_strict": self.precondition_strict,
                "lp_value": self.lp_value,
                "lambda_witness": (None if self.lambda_witness is None else
                                   {"lambda": self.lambda_witness[0],
                                    "max_deviation": self.lambda_witness[1]}),
                "f1_prime": self.f1_prime,
                "f2_prime": self.f2_prime,
                "direction": None if self.direction is None else self.direction.to_json_dict()}


def infinite_slope_verdict(spec: RelayNetSpec, cd: CodingDist) -> SlopeVerdict:
    """Certify whether small cooperation buys rate at unbounded slope here.

    PRECONDITION_FAILS: I(X;Y1,V|U) is not strictly below I(X;Y1,Yr|U),
    so raising f1 cannot raise the first bound.
    CONDITION_12_HOLDS: an exponential-alignment witness exists; no
    improving direction is available from this distribution.
    INFINITE_SLOPE_CERTIFIED: the LP produced a direction whose re-verified
    derivatives are both positive.

    The precondition evaluates only its two rate terms, and the steps after
    it share one ``JointView`` of the joint.
    """
    if not cd.markov_form:
        raise PreconditionError("verdict requires a Markov-form coding distribution")
    joint = build_joint(spec, cd)
    terms = RateTerms(joint)
    gap = terms["I(X;Y1,Yr|U)"] - terms["I(X;Y1,V|U)"]
    strict = gap > config.CONFIG.tol_norm
    if not strict:
        return SlopeVerdict(VERDICT_PRECONDITION, False, 0.0, None)
    view = JointView.of(joint)
    lam, dev = check_lambda(view, best=True)
    if dev <= config.CONFIG.tol_dev:
        return SlopeVerdict(VERDICT_ALIGNED, True, 0.0, (lam, dev))
    pert, t_star = find_direction(view, base=cd)
    f1p, f2p = f_primes(view, pert)
    tol_lp = config.CONFIG.tol_lp
    if t_star > tol_lp and min(f1p, f2p) > tol_lp / 2.0:
        return SlopeVerdict(VERDICT_CERTIFIED, True, t_star, None, pert, f1p, f2p)
    # Numerical gray zone: the LP found nothing usable, so report the least
    # misaligned lambda (its deviation records how far the dual witness is).
    return SlopeVerdict(VERDICT_ALIGNED, True, t_star, (lam, dev))


@dataclass(frozen=True, eq=False, init=False)
class SlopeCurve:
    """Rate gain against cooperation cost along an alpha schedule.

    Sweeps keep many curves, so the points are held as one read-only
    float64 array of rows (alpha, ccf, delta, ratio), under half the size
    of tuples of Python floats; ``points`` rebuilds the tuples, with the
    same values, on each access.
    """

    _table: np.ndarray
    monotone_from_alpha: float | None

    def __init__(self, points: Sequence[tuple[float, float, float, float]],
                 monotone_from_alpha: float | None) -> None:
        table = np.array(points, dtype=float).reshape(-1, 4)
        table.setflags(write=False)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "monotone_from_alpha", monotone_from_alpha)

    @property
    def points(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple(map(tuple, self._table.tolist()))

    def to_json_dict(self) -> dict[str, Any]:
        return {"points": [{"alpha": a, "ccf": c, "delta_rate": d, "ratio": q}
                           for a, c, d, q in self.points],
                "monotone_from_alpha": self.monotone_from_alpha}

    def to_csv(self) -> str:
        lines = ["alpha,ccf,delta_rate,ratio"]
        for a, c, d, q in self.points:
            lines.append(f"{a!r},{c!r},{d!r},{q!r}")
        return "\n".join(lines) + "\n"


def slope_curve(spec: RelayNetSpec, cd: CodingDist, pert: Perturbation,
                alphas: Sequence[float] | None = None) -> SlopeCurve:
    """Rate gain per unit cooperation along a schedule of step sizes.

    For each alpha the cooperation budget is set to exactly the cost
    ccf(alpha) of the perturbed distribution, the cooperative bounds are
    re-evaluated, and the gain over the unperturbed rate is divided by the
    cost. Intended for directions certified by ``infinite_slope_verdict``;
    the ratio then grows without bound as alpha shrinks, and the report
    notes the alpha below which it is observed monotone.

    The curve is evaluated from one base joint: every perturbed joint is
    the base joint plus alpha times one fixed array, and its (u, x, y1, yr)
    marginal is the base's, so the terms free of V are the base's and only
    the V terms are evaluated per alpha. This matches rebuilding each
    perturbed distribution and its joint up to rounding. An alpha that is
    not finite, is negative or exceeds the validity limit raises
    ``AlphaRangeError`` before anything is evaluated; alpha = 0 and the
    zero direction give the point (alpha, 0, 0, 0).

    The smallest steps rest on rounding. ccf(alpha) is near 1e-12 at
    alpha = 1e-6, and it is a difference of entropies of order 1, so it
    carries an absolute error near 1e-15 and its ratio about 1e-3 relative
    rounding (two summation orders of one joint gave ratios 2.1e-4 apart).
    So when two ratios of the tail are that close, rounding can decide
    ``monotone_from_alpha``.
    """
    if alphas is not None:  # the default schedule is largest first already
        alphas = sorted(alphas, reverse=True)
    alphas, joint_p, joints = _perturbed_joints(spec, cd, pert, alphas)
    b1, b2, _, terms = rate_bounds(joint_p, spec.c0)
    rate_base = min(b1, b2)
    no_v = {name: terms[name] for name in NO_V_TERMS}
    points = []
    for a, joint_q in zip(alphas, joints):
        if a == 0.0 or pert.is_zero:  # q = p: no cost and no gain
            points.append((a, 0.0, 0.0, 0.0))
            continue
        q1, q2, ccf = bounds_from_terms(RateTerms(joint_q, no_v), spec.c0)
        delta = min(q1, q2) - rate_base
        # 1e-15 is float-noise floor, not a support threshold: genuine ccf
        # values at the smallest default alphas sit near 1e-12.
        ratio = delta / ccf if ccf > 1e-15 else 0.0
        points.append((a, ccf, delta, ratio))
    monotone_from = None
    for k in range(len(points)):
        ratios = [p[3] for p in points[k:]]
        if all(ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1)):
            monotone_from = points[k][0]
            break
    return SlopeCurve(points, monotone_from)


# ---------------------------------------------------------------------------
# Deterministic reduction under full support
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Deterministic replacement W of V with rate-preservation residuals."""

    w_of_v: np.ndarray   # (|U|, |V|) component index of each v letter
    w_of_yr: np.ndarray  # (|U|, |Yr|) component index of the row support
    num_components: int
    rate_residual: float   # |I(X;Y1,V|U) - I(X;Y1,W|U)|
    penalty_slack: float   # I(Yr;V|U,X,Y1) - I(Yr;W|U,X,Y1)

    def to_json_dict(self) -> dict[str, Any]:
        return {"w_of_v": self.w_of_v.tolist(),
                "w_of_yr": self.w_of_yr.tolist(),
                "num_components": self.num_components,
                "rate_residual": self.rate_residual,
                "penalty_slack": self.penalty_slack}


def _components(adjacent: np.ndarray) -> np.ndarray:
    """Connected-component labels for a symmetric boolean adjacency matrix."""
    n = adjacent.shape[0]
    labels = np.full(n, -1, dtype=int)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            node = stack.pop()
            for nxt in np.nonzero(adjacent[node])[0]:
                if labels[nxt] < 0:
                    labels[nxt] = comp
                    stack.append(nxt)
        comp += 1
    return labels


def deterministic_reduction(joint_base: FiniteDist | JointView) -> ReductionResult:
    """Replace V with the component index W of the per-u co-support graph.

    For each u, letters v_a and v_b are adjacent when some yr supports
    both; W is the component of V, which is simultaneously a deterministic
    function of (u, yr). The construction is valid when the broadcast
    channel has full support and the alignment condition holds; the result
    carries numerical residuals for I(X;Y1,W|U) = I(X;Y1,V|U) and for the
    compression penalty inequality. It reads the joint, p(u, x, y1, yr)
    and p(v | u, yr) of a ``JointView``, so a caller can share one view.
    """
    view = JointView.of(joint_base)
    joint, tuple_p, pv_uyr = view.joint, view.tuple_p, view.pv_uyr
    tol = config.CONFIG.tol_supp
    pux = tuple_p.sum(axis=(2, 3))
    gaps = (pux[:, :, None, None] > tol) & (tuple_p <= tol)
    if bool(gaps.any()):
        u_bad, x_bad, y1_bad, yr_bad = map(int, np.argwhere(gaps)[0])
        raise PreconditionError(
            f"broadcast support gap: p(y1={y1_bad}, yr={yr_bad} | x={x_bad}) = 0 "
            f"while p(u={u_bad}, x={x_bad}) > 0")

    nu, nyr, nv = pv_uyr.shape
    w_of_v = np.zeros((nu, nv), dtype=int)
    w_of_yr = np.zeros((nu, nyr), dtype=int)
    max_comps = 1
    for u in range(nu):
        supp = pv_uyr[u] > tol  # (|Yr|, |V|)
        adjacent = np.zeros((nv, nv), dtype=bool)
        for yr in range(nyr):
            vs = np.nonzero(supp[yr])[0]
            adjacent[np.ix_(vs, vs)] = True
        labels = _components(adjacent)
        w_of_v[u] = labels
        for yr in range(nyr):
            vs = np.nonzero(supp[yr])[0]
            w_of_yr[u, yr] = labels[vs[0]] if vs.size else 0
        max_comps = max(max_comps, int(labels.max()) + 1)

    w_alpha = Alphabet("w", max_comps)
    rows = np.zeros((nu * nv, max_comps))
    rows[np.arange(nu * nv), w_of_v.ravel()] = 1.0
    w_kernel = CondKernel((joint.alphabet(U), joint.alphabet(V)), (w_alpha,), rows)
    extended = compose(joint, w_kernel)

    i_v = mutual_information(extended, X, (Y1, V), U)
    i_w = mutual_information(extended, X, (Y1, "w"), U)
    pen_v = mutual_information(extended, YR, V, (U, X, Y1))
    pen_w = mutual_information(extended, YR, "w", (U, X, Y1))
    return ReductionResult(w_of_v, w_of_yr, max_comps,
                           abs(i_v - i_w), pen_v - pen_w)


@dataclass(frozen=True, eq=False)
class ReductionVerdict:
    """Dichotomy for full-support channels: deterministic replacement of V
    at no rate cost, or the infinite-slope benefit."""

    kind: str
    lambda_witness: tuple[float, float] | None
    reduction: ReductionResult | None

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind,
                "lambda_witness": (None if self.lambda_witness is None else
                                   {"lambda": self.lambda_witness[0],
                                    "max_deviation": self.lambda_witness[1]}),
                "reduction": None if self.reduction is None else self.reduction.to_json_dict()}


def full_support_verdict(spec: RelayNetSpec, cd: CodingDist) -> ReductionVerdict:
    """Run the alignment check; reduce V to a deterministic W if it holds.

    Requires every broadcast transition probability to be positive.
    """
    if float(spec.broadcast.rows.min()) <= config.CONFIG.tol_supp:
        flat = int(np.argmin(spec.broadcast.rows))
        row, col = (int(k) for k in np.unravel_index(flat, spec.broadcast.rows.shape))
        raise PreconditionError(
            f"full-support hypothesis fails: broadcast entry (row {row}, column {col}) is zero")
    if not cd.markov_form:
        raise PreconditionError("reduction verdict requires a Markov-form coding distribution")
    view = JointView.of(build_joint(spec, cd))
    witness = check_lambda(view)
    if witness is None:
        return ReductionVerdict(REDUCTION_INFINITE_SLOPE, None, None)
    return ReductionVerdict(REDUCTION_DETERMINISTIC, witness, deterministic_reduction(view))
