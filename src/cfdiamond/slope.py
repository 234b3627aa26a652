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
with zero slope (it is kappa alpha^2 to second order), while a direction with
f1'(0) > 0 and f2'(0) > 0 raises both rate bounds at first order. Hence,
when such a direction exists, the rate gain per unit of cooperation grows
without bound as alpha -> 0.

Existence of the direction is a linear-program feasibility question whose
dual is an exponential-alignment condition: no improving direction exists
exactly when some lambda in [0, 1] makes

    log p(v|u,x,y1) - lambda*log p(v|u,y1) - (1-lambda)*log p(v|u,yr)

constant in v on the support of p(. | u, yr), for every supported tuple
(u, x, y1, yr). One exact minimisation of a convex, piecewise-linear
function of lambda on [0, 1] answers both sides: ``_dual_solve`` minimises
the LP's dual over lambda and assembles an optimal direction from the
maximisers at the minimiser lambda*, and ``_deviation`` reads the alignment
deviation at lambda*. ``find_direction`` and ``check_lambda`` report its
primal and dual witness; ``infinite_slope_verdict`` reads it once, after
the strict precondition I(X;Y1,V|U) < I(X;Y1,Yr|U), building the
conditional and log tables it needs once, as a ``JointView``, and reads the
deviation only where it reports it. When neither witness passes its
tolerance the verdict is INCONCLUSIVE.

For channels with full support, ``deterministic_reduction`` builds the
deterministic replacement W of V (connected components of the co-support
graph per u) and verifies it preserves the rate terms, and
``full_support_verdict`` returns the resulting dichotomy, from the same
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import config, probcore
from .probcore import (
    FiniteDist,
    Alphabet,
    CondKernel,
    InfeasibleError,
    PreconditionError,
    mi_from_entropies,
    reorder,
)
from .relaynet import (
    _TERM_SUBSETS,
    CANON_ORDER,
    NO_V_TERMS,
    CodingDist,
    RateTerms,
    RelayNetSpec,
    V,
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
#: Neither witness passes its tolerance; also a ``full_support_verdict`` kind.
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

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
    joint = reorder(joint_base, CANON_ORDER)
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
                      ) -> tuple[tuple[float, ...], FiniteDist, np.ndarray, Iterator[FiniteDist]]:
    """The schedule (default: ``default_schedule`` of the validity limit),
    the base joint, D and the joint of q = p + alpha * r for each alpha.

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
    return alphas, joint, d, (FiniteDist(joint.variables, joint.pmf + a * d) for a in alphas)


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


@dataclass(frozen=True, eq=False)
class JointView:
    """A canonical-order joint with the tables every certification step reads.

    ``tuple_p`` is p(u, x, y1, yr), ``pv_uyr`` the table p(v | u, yr) and
    ``free`` the cells where both exceed ``tol_supp``: the coordinates a
    direction moves, that the derivatives sum over and whose letters the
    alignment deviation compares. With l(v | .) the log2 of p(v | .), zero
    where p is (on a free cell each p(v | .) is at least p(tuple) p(v|u,yr)),
    ``g1`` = l(v|u,x,y1) - l(v|u,y1) has shape (U, X, Y1, 1, V), ``g2`` =
    l(v|u,x,y1) - l(v|u,yr) shape (U, X, Y1, Yr, V) and ``drift`` =
    l(v|u,yr) - l(v|u,y1) shape (U, 1, Y1, Yr, V). f1'(0) and f2'(0) weight
    g1 and g2 by p(tuple) r, and the alignment deviation at lambda is
    g2 + lambda * drift. ``check_lambda``, ``find_direction``, ``f_primes``
    and ``deterministic_reduction`` accept a view in place of a joint, so a
    caller that runs several of them builds the tables once.

    Each conditional table is its marginal of the joint divided by that
    marginal's sum over v, on the entries whose sum exceeds ``tol_supp``
    and zero elsewhere: the sums and division of ``conditional_table``, so
    the tables equal its tables bit for bit.
    """

    joint: FiniteDist
    tuple_p: np.ndarray
    free: np.ndarray
    pv_uyr: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    drift: np.ndarray

    @staticmethod
    def of(joint: FiniteDist | JointView) -> JointView:
        """The view of a joint in any variable order; a view is returned as is."""
        if isinstance(joint, JointView):
            return joint
        joint = reorder(joint, CANON_ORDER)
        tol = config.CONFIG.tol_supp
        p5 = joint.pmf
        pv_uxy1, pv_uy1, pv_uyr = (_given_rest(p5.sum(axis=summed), tol)
                                   for summed in (3, (1, 3), (1, 2)))
        with np.errstate(divide="ignore"):
            l_uxy1, l_uy1, l_uyr = (np.where(t > 0.0, np.log2(t), 0.0)
                                    for t in (pv_uxy1, pv_uy1, pv_uyr))
        l1 = l_uxy1[:, :, :, None, :]
        l_uy1, l_uyr = l_uy1[:, None, :, None, :], l_uyr[:, None, None, :, :]
        tuple_p = p5.sum(axis=4)
        free = (tuple_p > tol)[..., None] & (pv_uyr > tol)[:, None, None, :, :]
        return JointView(joint, tuple_p, free, pv_uyr,
                         l1 - l_uy1, l1 - l_uyr, l_uyr - l_uy1)


def _given_rest(marginal: np.ndarray, tol: float) -> np.ndarray:
    """p(v | rest) from a marginal whose last axis is v; zero where the
    rest carries no more than ``tol``."""
    mass = marginal.sum(axis=-1, keepdims=True)
    out = np.zeros_like(marginal)
    np.divide(marginal, mass, out=out, where=mass > tol)
    return out


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

    over the view's free cells: dense sums of its g1 and g2 weighted by
    p(tuple) r, zeroed elsewhere.
    """
    view = JointView.of(joint_base)
    w = np.where(view.free, view.tuple_p[..., None] * pert.r, 0.0)
    return float((w * view.g1).sum()), float((w * view.g2).sum())


def _cost_coefficient(joint: FiniteDist, d: np.ndarray) -> float:
    """kappa, the exact coefficient of ccf(alpha) = kappa alpha^2 + O(alpha^3).

    ccf is the p(tuple)-average of KL(q(.|u,x,y1,yr) || p(.|u,yr) + alpha rbar),
    rbar(v|u,yr) the p(x,y1|u,yr)-average of r, so kappa = sum p(tuple)
    (r - rbar)^2 / p(v|u,yr) / (2 ln 2): from D = p(tuple) r, the sum of
    (D - p(tuple) rbar)^2 over the canonical-order joint p5.
    """
    p5 = joint.pmf
    tuple_p = p5.sum(axis=4, keepdims=True)
    p_uyr = tuple_p.sum(axis=(1, 2), keepdims=True)
    d_uyr = d.sum(axis=(1, 2), keepdims=True)
    rbar = np.divide(d_uyr, p_uyr, out=np.zeros_like(d_uyr), where=p_uyr > 0.0)
    dev = d - tuple_p * rbar
    cost = np.divide(dev * dev, p5, out=np.zeros_like(p5), where=p5 > 0.0)
    return float(cost.sum()) / (2.0 * math.log(2.0))


@dataclass(frozen=True)
class CurvatureReport:
    """Cooperation cost along an alpha schedule."""

    points: tuple[tuple[float, float, float], ...]  # (alpha, ccf, ccf/alpha)

    def to_json_dict(self) -> dict[str, Any]:
        return {"points": [{"alpha": a, "ccf": c, "ratio": q} for a, c, q in self.points]}


def ccf_curvature(spec: RelayNetSpec, base: CodingDist, pert: Perturbation,
                  alphas: Sequence[float] | None = None) -> CurvatureReport:
    """Required cooperation rate ccf(alpha) along a schedule.

    ccf(alpha) vanishes quadratically at alpha = 0, so the ratios
    ccf/alpha decrease toward zero; ``slope_curve`` reports the
    coefficient. Every perturbed joint is the base joint plus alpha times
    one fixed array, and only I(X,Y1;V|U,Yr) is evaluated on it. An alpha
    that is not finite, is negative or exceeds the validity limit raises
    ``AlphaRangeError`` before anything is evaluated; alpha = 0 and the
    zero direction give ccf = 0.
    """
    alphas, _, _, joints = _perturbed_joints(spec, base, pert, alphas)
    points = []
    for a, joint_q in zip(alphas, joints):
        if a > 0.0 and not pert.is_zero:
            ccf = RateTerms(joint_q)["I(X,Y1;V|U,Yr)"]
        else:
            ccf = 0.0
        points.append((a, ccf, ccf / a if a > 0.0 else 0.0))
    return CurvatureReport(tuple(points))


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
# The direction LP and its dual, in one solve
# ---------------------------------------------------------------------------


def _dual_solve(view: JointView) -> tuple[float, float, np.ndarray]:
    """Minimise the direction LP's dual g over lambda in [0, 1], once.

    The program: maximize t subject to f1'(r) >= t, f2'(r) >= t, zero sum
    over v per conditioning tuple, r = 0 off the view's free cells, and
    |r| <= 1 entrywise. The box only fixes the scale; the sign of the
    optimum t* is what matters. With f1' = a.r and f2' = b.r (a = p(tuple)
    g1 and b = p(tuple) g2), t* = min over lambda of g(lambda) = max_r c.r
    for c = lambda*a + (1-lambda)*b. The maximum splits by tuple: +1 on the
    top floor(k/2) of the tuple's k free entries of c, -1 on the bottom
    floor(k/2), so g is convex and piecewise linear and ``_pwl_argmin``
    finds its minimiser lambda*. The direction is that maximiser at an end
    of [0, 1], or else the mix of the maximisers on both sides of lambda*
    that makes f1' = f2' (= t*).

    c is p(tuple) times the alignment profile g2 + lambda*drift, so g is 0
    exactly where every tuple's profile is constant: lambda* is also the
    alignment witness, whose deviation ``_deviation`` reads. Returns
    (lambda*, t*, r), r the direction as a canonical-order array.
    Degenerate supports (no free coordinates) give (0, 0, zero direction).
    """
    shape5 = view.free.shape
    nv = shape5[-1]
    r = np.zeros(shape5)
    rows = np.flatnonzero(view.free.reshape(-1, nv).any(axis=1))
    if rows.size == 0:
        return 0.0, 0.0, r

    w = view.tuple_p[..., None]
    free = view.free.reshape(-1, nv)[rows]
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

    lam, _, lo, hi = _pwl_argmin(evaluate, evaluate(0.0, side=1.0), evaluate(1.0, side=-1.0))
    if lo is hi:
        z = lo[2]
    else:
        theta = hi[1] / (hi[1] - lo[1])  # slopes lo[1] < 0 < hi[1]: d.z = 0
        z = theta * lo[2] + (1.0 - theta) * hi[2]
    z = z.reshape(free.shape)
    t_star = min(float((a * z).sum()), float((b * z).sum()))
    r.reshape(-1, nv)[rows] = z
    return lam, t_star, r


def _deviation(view: JointView, lam: float) -> float:
    """The alignment deviation at lambda: the largest spread of g2 +
    lambda*drift over the free letters of a tuple; 0 with no free letter."""
    shape5 = view.free.shape
    nv = shape5[-1]
    rows = np.flatnonzero(view.free.reshape(-1, nv).any(axis=1))
    if rows.size == 0:
        return 0.0
    free = view.free.reshape(-1, nv)[rows]
    profile = np.broadcast_to(view.g2 + lam * view.drift, shape5).reshape(-1, nv)[rows]
    top = np.where(free, profile, -np.inf).max(axis=1)
    return float((top - np.where(free, profile, np.inf).min(axis=1)).max())


def find_direction(joint_base: FiniteDist | JointView, base: CodingDist
                   ) -> tuple[Perturbation, float]:
    """Best direction for max min(f1'(0), f2'(0)) over the unit box.

    Returns the direction of ``_dual_solve``, as a ``Perturbation`` of
    ``base``, and t*. A value above ``tol_lp`` certifies an improving
    direction. The joint must be Markov: p(v | u, x, y1, yr) = p(v | u, yr)
    on its support.
    """
    view = JointView.of(joint_base)
    _require_markov_joint(view)
    _, t_star, r = _dual_solve(view)
    return Perturbation(r, base), t_star


def check_lambda(joint_base: FiniteDist | JointView) -> tuple[float, float] | None:
    """Dual witness: a lambda certifying that no improving direction exists.

    Returns (lambda*, max deviation) from ``_dual_solve`` when the deviation
    is within ``tol_dev``, else None.
    """
    view = JointView.of(joint_base)
    lam = _dual_solve(view)[0]
    dev = _deviation(view, lam)
    return (lam, dev) if dev <= config.CONFIG.tol_dev else None


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

#: The terms of the verdict's precondition and of the reduction's residuals.
_PRECONDITION_TERMS = ("I(X;Y1,Yr|U)", "I(X;Y1,V|U)")
_REDUCTION_TERMS = ("I(X;Y1,V|U)", "I(Yr;V|U,X,Y1)")


def _entropy_pass(names: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], ...],
                                                   tuple[tuple[int, ...], ...]]:
    """The distinct entropy subsets of the terms ``names`` and the axes of
    a ``CANON_ORDER`` joint that each sums out."""
    subsets = tuple(dict.fromkeys(s for name in names for s in _TERM_SUBSETS[name]))
    return subsets, tuple(tuple(i for i, n in enumerate(CANON_ORDER) if n not in s)
                          for s in subsets)


#: The entropy pass of each group of terms read together.
_TERM_PASSES = {names: _entropy_pass(names) for names in (_PRECONDITION_TERMS, _REDUCTION_TERMS)}


def _read_terms(pmf: np.ndarray, names: tuple[str, ...]) -> list[float]:
    """The terms ``names`` of a canonical-order joint's pmf, from one
    ``probcore.marginal_entropies`` pass over their distinct entropies,
    each combined by ``mi_from_entropies`` as ``RateTerms`` combines it, so
    every value equals the ``RateTerms`` value bit for bit."""
    subsets, reductions = _TERM_PASSES[names]
    h = dict(zip(subsets, probcore.marginal_entropies(pmf, reductions)))
    return [mi_from_entropies(*(h[s] for s in _TERM_SUBSETS[name])) for name in names]


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
    INFINITE_SLOPE_CERTIFIED: the LP value t* exceeds ``tol_lp`` and the
    direction's re-verified derivatives both exceed ``tol_lp / 2``.
    CONDITION_12_HOLDS: otherwise, when the dual minimiser lambda* is an
    exponential-alignment witness within ``tol_dev``; no improving
    direction is available from this distribution. lp_value reads 0: the
    witness bounds t* by |V| // 2 times its deviation.
    INCONCLUSIVE: neither; the report carries lambda*, its deviation and
    t*, which sit between the two tolerances.

    The precondition takes the entropies of its two rate terms in one pass,
    and the steps after it share one ``JointView`` of the joint and one
    ``_dual_solve``; the deviation at lambda* is read only when reported.
    """
    if not cd.markov_form:
        raise PreconditionError("verdict requires a Markov-form coding distribution")
    joint = build_joint(spec, cd)
    i_yr, i_v = _read_terms(joint.pmf, _PRECONDITION_TERMS)
    strict = i_yr - i_v > config.CONFIG.tol_norm
    if not strict:
        return SlopeVerdict(VERDICT_PRECONDITION, False, 0.0, None)
    view = JointView.of(joint)
    lam, t_star, r = _dual_solve(view)
    tol_lp = config.CONFIG.tol_lp
    if t_star > tol_lp:
        pert = Perturbation(r, cd)
        f1p, f2p = f_primes(view, pert)
        if min(f1p, f2p) > tol_lp / 2.0:
            return SlopeVerdict(VERDICT_CERTIFIED, True, t_star, None, pert, f1p, f2p)
    dev = _deviation(view, lam)
    if dev <= config.CONFIG.tol_dev:
        return SlopeVerdict(VERDICT_ALIGNED, True, 0.0, (lam, dev))
    return SlopeVerdict(VERDICT_INCONCLUSIVE, True, t_star, (lam, dev))


@dataclass(frozen=True, eq=False, init=False)
class SlopeCurve:
    """Rate gain against cooperation cost along an alpha schedule.

    Sweeps keep many curves, so the points are held as one read-only
    float64 array of rows (alpha, ccf, delta, ratio), under half the size
    of tuples of Python floats; ``points`` rebuilds the tuples, with the
    same values, on each access.
    """

    _table: np.ndarray
    kappa: float  # ccf(alpha) = kappa * alpha**2 + O(alpha**3)

    def __init__(self, points: Sequence[tuple[float, float, float, float]],
                 kappa: float) -> None:
        table = np.array(points, dtype=float).reshape(-1, 4)
        table.setflags(write=False)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "kappa", kappa)

    @property
    def points(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple(map(tuple, self._table.tolist()))

    def to_json_dict(self) -> dict[str, Any]:
        return {"points": [{"alpha": a, "ccf": c, "delta_rate": d, "ratio": q}
                           for a, c, d, q in self.points],
                "kappa": self.kappa}

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
    the ratio then grows without bound as alpha shrinks, because the cost
    is second order: the report carries kappa, the exact coefficient of
    ccf(alpha) = kappa alpha^2 + O(alpha^3), read once from the base joint.

    The curve is evaluated from one base joint: every perturbed joint is
    the base joint plus alpha times one fixed array, and its (u, x, y1, yr)
    marginal is the base's, so the terms free of V are the base's and only
    the V terms are evaluated per alpha. This matches rebuilding each
    perturbed distribution and its joint up to rounding. An alpha that is
    not finite, is negative or exceeds the validity limit raises
    ``AlphaRangeError`` before anything is evaluated; alpha = 0 and the
    zero direction give the point (alpha, 0, 0, 0) and kappa = 0.
    """
    if alphas is not None:  # the default schedule is largest first already
        alphas = sorted(alphas, reverse=True)
    alphas, joint_p, d, joints = _perturbed_joints(spec, cd, pert, alphas)
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
    return SlopeCurve(points, _cost_coefficient(joint_p, d))


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
    """Connected-component labels for a stack of symmetric boolean adjacency
    matrices, shape (..., n, n) -> (..., n).

    Only the letters with a self-loop are labelled, over the graph among
    them; components are numbered in the order of their first letter, and
    every other letter gets 0. The reachability closure squares the matrix
    until it stops changing.
    """
    loops = np.diagonal(adjacent, axis1=-2, axis2=-1)
    reach = adjacent & loops[..., :, None] & loops[..., None, :]
    while True:
        grown = reach @ reach  # every nonzero row has its self-loop, so this only grows
        if np.array_equal(grown, reach):
            break
        reach = grown
    first = reach.argmax(axis=-1)  # a looped letter reaches itself
    roots = loops & (first == np.arange(adjacent.shape[-1]))
    rank = np.cumsum(roots, axis=-1) - 1
    return np.where(loops, np.take_along_axis(rank, first, axis=-1), 0)


def deterministic_reduction(joint_base: FiniteDist | JointView) -> ReductionResult:
    """Replace V with the component index W of the per-u co-support graph.

    For each u, letters v_a and v_b are adjacent when some yr supports
    both; W is the component of V, which is simultaneously a deterministic
    function of (u, yr). Only letters that some supported (u, yr) uses are
    numbered; the others map to 0. The construction is valid when the
    broadcast channel has full support and the alignment condition holds;
    the result carries numerical residuals for I(X;Y1,W|U) = I(X;Y1,V|U)
    and for the compression penalty inequality, read from the rate terms of
    the joint and of the joint with V's letters merged into W's, one entropy
    pass per joint. It reads the joint, p(u, x, y1, yr) and p(v | u, yr) of
    a ``JointView``, so a caller can share one view.
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

    supp = pv_uyr > tol  # (|U|, |Yr|, |V|)
    w_of_v = _components(np.einsum("uyv,uyw->uvw", supp, supp))
    # letter 0 is labelled 0 whether or not it is used, so a row with no
    # support maps to 0
    w_of_yr = np.take_along_axis(w_of_v, supp.argmax(axis=-1), axis=-1)
    num_components = int(w_of_v.max()) + 1

    merge = (w_of_v[..., None] == np.arange(num_components)).astype(float)
    merged = FiniteDist(joint.variables[:4] + (Alphabet(V, num_components),),
                        np.einsum("uxyrv,uvw->uxyrw", joint.pmf, merge))
    (i_v, pen_v), (i_w, pen_w) = (_read_terms(j.pmf, _REDUCTION_TERMS) for j in (joint, merged))
    return ReductionResult(w_of_v, w_of_yr, num_components, abs(i_v - i_w), pen_v - pen_w)


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
    """Reduce V to a deterministic W when the dual solve finds alignment.

    Reads one ``_dual_solve``: INFINITE_SLOPE when t* exceeds ``tol_lp``,
    DETERMINISTIC_REPLACEMENT when lambda* is a witness within ``tol_dev``,
    INCONCLUSIVE (with lambda* and its deviation) otherwise. Requires every
    broadcast transition probability to be positive.
    """
    if float(spec.broadcast.rows.min()) <= config.CONFIG.tol_supp:
        flat = int(np.argmin(spec.broadcast.rows))
        row, col = (int(k) for k in np.unravel_index(flat, spec.broadcast.rows.shape))
        raise PreconditionError(
            f"full-support hypothesis fails: broadcast entry (row {row}, column {col}) is zero")
    if not cd.markov_form:
        raise PreconditionError("reduction verdict requires a Markov-form coding distribution")
    view = JointView.of(build_joint(spec, cd))
    lam, t_star, _ = _dual_solve(view)
    if t_star > config.CONFIG.tol_lp:
        return ReductionVerdict(REDUCTION_INFINITE_SLOPE, None, None)
    dev = _deviation(view, lam)
    if dev <= config.CONFIG.tol_dev:
        return ReductionVerdict(REDUCTION_DETERMINISTIC, (lam, dev), deterministic_reduction(view))
    return ReductionVerdict(VERDICT_INCONCLUSIVE, (lam, dev), None)
