"""Three-relay diamond network: bounds and rate-splitting arithmetic.

The network routes a binary source through three relays; two of them hold
independent uniform observations and feed a two-user binary MAC, while the
third forwards a noiseless but randomly-addressed copy of the source. The
diamond capacity without cooperation equals half the MAC sum-capacity with
independent inputs: the upper bound is the halving argument, the matching
construction is a three-part rate-splitting code.

Cooperative MAC sum-capacity values are consumed as an externally supplied
curve (c_cf, c_sum); ``slope_transfer`` lower-bounds the diamond capacity
by half that curve pointwise and flags a diverging benefit at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .probcore import Alphabet, CondKernel, SchemaError, entropy_letters_first


@dataclass(frozen=True)
class MacSpec:
    """A two-user MAC with binary inputs: kernel from (x0, x1) to y_w."""

    x0_alphabet: Alphabet
    x1_alphabet: Alphabet
    kernel: CondKernel

    def __post_init__(self) -> None:
        if self.x0_alphabet.size != 2 or self.x1_alphabet.size != 2:
            raise SchemaError("MAC inputs must be binary")
        if self.kernel.from_vars != (self.x0_alphabet, self.x1_alphabet):
            raise SchemaError(
                f"MAC kernel input must be (x0, x1) alphabets, got {self.kernel.from_names}")
        if len(self.kernel.to_vars) != 1:
            raise SchemaError("MAC kernel must map to a single output variable")
        if self.kernel.defined is not None:
            raise SchemaError("MAC kernel must define every row")

    def to_json_dict(self) -> dict[str, Any]:
        return {"x0_alphabet": self.x0_alphabet.to_json_dict(),
                "x1_alphabet": self.x1_alphabet.to_json_dict(),
                "kernel": self.kernel.to_json_dict()}

    @staticmethod
    def from_json_dict(obj: Any) -> "MacSpec":
        if not isinstance(obj, dict) or not {"x0_alphabet", "x1_alphabet", "kernel"} <= set(obj):
            raise SchemaError("MAC JSON needs 'x0_alphabet', 'x1_alphabet' and 'kernel'")
        return MacSpec(Alphabet.from_json_dict(obj["x0_alphabet"]),
                       Alphabet.from_json_dict(obj["x1_alphabet"]),
                       CondKernel.from_json_dict(obj["kernel"]))


#: Grid points evaluated per batch in ``mac_sum_capacity_indep``; bounds its
#: memory (a few MB) at any resolution.
_GRID_CHUNK = 1 << 15


def _indep_mi(rows: np.ndarray, h_rows: np.ndarray, a: Any, b: Any) -> Any:
    """I(X0,X1;Y) in bits for product inputs Ber(a) x Ber(b), elementwise.

    ``rows`` is the (4, |Y|) kernel and ``h_rows`` its row entropies. ``a``
    and ``b`` are floats, or arrays that broadcast against each other; the
    result has their broadcast shape reversed, so a row vector ``a`` and a
    column vector ``b`` give values indexed [a, b].
    """
    px = np.array([(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b])
    h_cond = px[0] * h_rows[0] + px[1] * h_rows[1] + px[2] * h_rows[2] + px[3] * h_rows[3]
    return (entropy_letters_first((px.T @ rows).T) - h_cond).T


def mac_sum_capacity_indep(mac: MacSpec, grid_resolution: int) -> float:
    """Max of I(X0,X1;Y) over independent Bernoulli inputs.

    Grid scan over the two input biases followed by coordinate refinement
    with halved steps; a lower bound converging with resolution. The scan
    takes the first maximum in row-major (a, then b) order and is evaluated
    in batches of at most ``_GRID_CHUNK`` points, so memory stays bounded
    at any resolution; the refinement moves one coordinate at a time.
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    rows = mac.kernel.rows
    h_rows = entropy_letters_first(rows.T)
    grid = np.linspace(0.0, 1.0, grid_resolution + 1)
    best = -np.inf
    best_ab = (0.5, 0.5)
    per_chunk = max(1, _GRID_CHUNK // grid.size)
    for start in range(0, grid.size, per_chunk):
        a = grid[start:start + per_chunk]
        vals = _indep_mi(rows, h_rows, a[None, :], grid[:, None])
        k = int(np.argmax(vals))
        if vals.flat[k] > best:
            i, j = divmod(k, grid.size)
            best, best_ab = float(vals.flat[k]), (float(a[i]), float(grid[j]))
    a, b = best_ab
    step = 1.0 / grid_resolution
    for _ in range(20):
        step /= 2.0
        moved = True
        while moved:
            moved = False
            for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                na = min(1.0, max(0.0, a + da))
                nb = min(1.0, max(0.0, b + db))
                val = float(_indep_mi(rows, h_rows, na, nb))
                if val > best + 1e-15:
                    best, a, b = val, na, nb
                    moved = True
    return float(best)


def diamond_upper_bound(c_sum0: float) -> float:
    """Diamond capacity without cooperation is at most half the MAC
    independent-input sum-capacity."""
    if not (np.isfinite(c_sum0) and c_sum0 >= 0.0):
        raise ValueError(f"sum-capacity must be a nonnegative real, got {c_sum0}")
    return c_sum0 / 2.0


@dataclass(frozen=True)
class RateSplit:
    """Three-part code arithmetic achieving half the MAC rate pair.

    The codeword splits into a fraction ``first_fraction`` carrying the
    plain part of the message, ``coded_fraction`` carrying an erasure
    encoding of the remainder at ``code_rate``, and zero padding. The
    record is symbolic: block fractions and sizes, no blocklength
    simulation.
    """

    rate: float
    first_fraction: float
    coded_fraction: float
    padding_fraction: float
    m2_size: float
    code_rate: float
    swapped: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {"rate": self.rate,
                "first_fraction": self.first_fraction,
                "coded_fraction": self.coded_fraction,
                "padding_fraction": self.padding_fraction,
                "m2_size": self.m2_size,
                "code_rate": self.code_rate,
                "swapped": self.swapped}


def rate_split_achievable(r0: float, r1: float, eps: float) -> RateSplit:
    """Diamond rate (r0 + r1)/2 - eps from a MAC rate pair (r0, r1).

    Inputs are swapped if needed so r0 >= r1. The split: the first r1
    fraction of the block carries the plain message part, the next r0 - r1
    fraction carries a rate-(1/2 - eps) erasure encoding of the remaining
    (r0 - r1)/2 - eps message bits, and the rest is zero padding. So eps
    < 1/2 keeps the code rate positive and eps <= (r0 + r1)/2 the rate >= 0.
    """
    if not all(np.isfinite(r) and r >= 0.0 for r in (r0, r1)):
        raise ValueError(f"rates must be nonnegative reals, got ({r0}, {r1})")
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive real, got {eps}")
    if eps >= 0.5:
        raise ValueError(f"eps must be below 1/2 for a positive code rate 1/2 - eps, got {eps}")
    if eps > (r0 + r1) / 2.0:
        raise ValueError(f"eps must be at most (r0 + r1)/2 = {(r0 + r1) / 2.0} for a "
                         f"nonnegative rate, got {eps}")
    swapped = r1 > r0
    if swapped:
        r0, r1 = r1, r0
    if r0 > 1.0:
        raise ValueError(f"binary-input construction needs r0 <= 1, got {r0}")
    rate = (r0 + r1) / 2.0 - eps
    return RateSplit(rate=rate,
                     first_fraction=r1,
                     coded_fraction=r0 - r1,
                     padding_fraction=1.0 - r0,
                     m2_size=max(0.0, rate - r1),
                     code_rate=0.5 - eps,
                     swapped=swapped)


@dataclass(frozen=True)
class CoopCurve:
    """Sampled cooperative MAC sum-capacity curve (c_cf, c_sum).

    Values are supplied externally; nothing here computes them. Samples
    must be finite and sorted with strictly increasing c_cf >= 0 and
    non-decreasing c_sum.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        samples = tuple((float(c), float(s)) for c, s in self.samples)
        if len(samples) < 2:
            raise SchemaError("curve needs at least two samples")
        for k, (c, s) in enumerate(samples):
            if not (math.isfinite(c) and math.isfinite(s)):
                raise SchemaError(f"curve sample {k} (c_cf={c!r}, c_sum={s!r}) is not finite")
        cs = [c for c, _ in samples]
        ss = [s for _, s in samples]
        if any(c < 0.0 for c in cs):
            raise SchemaError("curve has a negative cooperation rate")
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise SchemaError("curve samples must be sorted with strictly increasing c_cf")
        if any(b < a - 1e-12 for a, b in zip(ss, ss[1:])):
            raise SchemaError("curve c_sum values must be non-decreasing")
        object.__setattr__(self, "samples", samples)

    def c_sum_at(self, c_cf: float) -> float:
        """Linear interpolation inside the sampled range."""
        cs = np.array([c for c, _ in self.samples])
        ss = np.array([s for _, s in self.samples])
        if c_cf < cs[0] or c_cf > cs[-1]:
            raise ValueError(f"c_cf {c_cf} outside sampled range [{cs[0]}, {cs[-1]}]")
        return float(np.interp(c_cf, cs, ss))

    def to_csv(self) -> str:
        lines = ["c_cf,c_sum"]
        for c, s in self.samples:
            lines.append(f"{c!r},{s!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "CoopCurve":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows:
            raise SchemaError("empty curve file")
        start = 1 if rows[0].lower().replace(" ", "") == "c_cf,c_sum" else 0
        samples = []
        for line in rows[start:]:
            parts = line.split(",")
            if len(parts) != 2:
                raise SchemaError(f"curve row needs two columns: {line!r}")
            try:
                samples.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise SchemaError(f"non-numeric curve row: {line!r}") from exc
        return CoopCurve(tuple(samples))


@dataclass(frozen=True)
class TransferReport:
    """Pointwise diamond lower bound and difference quotients at zero."""

    points: tuple[tuple[float, float, float], ...]  # (c_cf, lower_bound, quotient)
    diverging: bool
    threshold: float

    def to_json_dict(self) -> dict[str, Any]:
        return {"points": [{"c_cf": c, "lower_bound": lb, "quotient": q}
                           for c, lb, q in self.points],
                "diverging": self.diverging,
                "threshold": self.threshold}


def slope_transfer(curve: CoopCurve, threshold: float = 1e3) -> TransferReport:
    """Transfer the MAC cooperation gain to the diamond network.

    The diamond capacity is at least c_sum(c_cf)/2 pointwise, so the
    difference quotients (c_sum(c)/2 - c_sum(0)/2)/c lower-bound the
    benefit slope. The divergence flag is a heuristic certificate: set when
    the smallest-c quotient exceeds ``threshold`` and the quotients
    strictly increase as c decreases.
    """
    samples = curve.samples
    if len(samples) < 3:
        raise ValueError("need at least 3 curve samples")
    if abs(samples[0][0]) > 1e-12:
        raise ValueError("curve must include a c_cf = 0 sample")
    base = samples[0][1] / 2.0
    points = [(samples[0][0], base, 0.0)]
    quotients = []
    for c, s in samples[1:]:
        lb = s / 2.0
        qt = (lb - base) / c
        points.append((c, lb, qt))
        quotients.append(qt)
    increasing = all(a > b for a, b in zip(quotients, quotients[1:]))
    diverging = bool(quotients and increasing and quotients[0] > threshold)
    return TransferReport(tuple(points), diverging, float(threshold))
