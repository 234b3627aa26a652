"""Exact probability arithmetic over named finite alphabets.

Joint distributions are dense numpy arrays indexed in the declared variable
order (row-major). Conditional kernels map one ordered variable group to
another, one pmf row per conditioning configuration.

Conventions:

- All information quantities are in bits (log base 2), with 0 log 0 = 0.
- Entries at or below ``config.CONFIG.tol_supp`` are exact zeros for every
  logarithm and support-set computation.
- Values are immutable after construction and every operation is a pure
  function, so parallel evaluation over independent inputs needs no locks.
- Conditioning on a zero-probability configuration produces a flagged
  undefined row, never a silently uniform one. Using such a row with
  positive input mass raises ``UndefinedRowError``.

JSON formats:

- distribution: ``{"variables": [{"name", "size", "labels"}], "pmf": [...]}``
  with the pmf flat in row-major order over the variable list.
- kernel: ``{"from": [...], "to": [...], "rows": [[...], ...]}`` plus an
  optional ``"defined"`` boolean list for rows produced by conditioning.
"""

from __future__ import annotations

import math
import string
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence

import numpy as np

from . import config


class SchemaError(ValueError):
    """Data violates a structural invariant (shape, normalization, names)."""


class PreconditionError(ValueError):
    """An operation's precondition does not hold for the given inputs."""


class InfeasibleError(RuntimeError):
    """A computation is numerically infeasible as posed."""


class UndefinedRowError(PreconditionError):
    """A zero-probability conditional row was used with positive mass."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet, optionally with display labels."""

    name: str
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError("alphabet name must be a non-empty string")
        if isinstance(self.size, bool) or not isinstance(self.size, int) or self.size < 1:
            raise SchemaError(
                f"alphabet {self.name!r} size must be a positive integer, got {self.size!r}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.size:
                raise SchemaError(f"alphabet {self.name!r} has {len(labels)} labels for size {self.size}")
            if len(set(labels)) != len(labels):
                raise SchemaError(f"alphabet {self.name!r} labels are not distinct")
            object.__setattr__(self, "labels", labels)

    def to_json_dict(self) -> dict[str, Any]:
        return {"name": self.name, "size": self.size,
                "labels": list(self.labels) if self.labels is not None else None}

    @staticmethod
    def from_json_dict(obj: Any) -> "Alphabet":
        if not isinstance(obj, dict) or "name" not in obj or "size" not in obj:
            raise SchemaError(f"malformed alphabet entry: {obj!r}")
        labels = obj.get("labels")
        if labels is not None and not (isinstance(labels, list)
                                       and all(isinstance(s, str) for s in labels)):
            raise SchemaError(f"alphabet {obj['name']!r} labels must be a list of strings, "
                              f"got {labels!r}")
        return Alphabet(obj["name"], obj["size"], tuple(labels) if labels is not None else None)


def _is_json_number(value: Any) -> bool:
    """A JSON number a float can hold: a float, or an int within the double
    range (int-float comparison is exact), and not a boolean."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _json_list(value: Any, field: str, accept: Callable[[Any], bool], what: str) -> list:
    """``value`` if it is a list whose every entry passes ``accept``; else a
    ``SchemaError`` naming ``field`` and the first bad entry."""
    if not isinstance(value, list):
        raise SchemaError(f"{field} must be a list, got {value!r}")
    for i, entry in enumerate(value):
        if not accept(entry):
            raise SchemaError(f"{field}[{i}] must be {what}, got {entry!r}")
    return value


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """A joint pmf over an ordered list of named finite alphabets.

    ``pmf`` has shape equal to the alphabet sizes in declared order. A flat
    array of matching total length is accepted and reshaped. The variable
    order is part of the type and is never silently permuted; use
    :func:`reorder` for an explicit permutation.
    """

    variables: tuple[Alphabet, ...]
    pmf: np.ndarray

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate variable names: {names}")
        shape = tuple(v.size for v in variables)
        arr = np.asarray(self.pmf, dtype=float)
        total = math.prod(shape)
        if arr.shape != shape:
            if arr.size != total:
                raise SchemaError(f"pmf has {arr.size} entries, expected {total} for shape {shape}")
            arr = arr.reshape(shape)
        else:
            arr = arr.copy()
        # Two passes, min and sum. A non-finite entry makes one of them
        # non-finite, and only then is every entry tested, which tells it
        # from finite entries whose sum overflows; either is a SchemaError,
        # not a warning.
        low = arr.min()
        with np.errstate(over="ignore", invalid="ignore"):
            s = float(arr.sum())
            if not (math.isfinite(low) and math.isfinite(s)) and not np.isfinite(arr).all():
                raise SchemaError("pmf contains non-finite entries")
            if low < -1e-12:
                raise SchemaError(f"pmf has negative entry {low}")
            if not low > 0.0:  # zeros, -0.0 and rounding negatives read 0.0
                np.maximum(arr, 0.0, out=arr)  # np.clip(arr, 0.0, None), bit for bit
                s = float(arr.sum())
        if abs(s - 1.0) > config.CONFIG.tol_norm:
            raise SchemaError(f"pmf sums to {s}, not 1 within {config.CONFIG.tol_norm}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "pmf", _freeze(arr))
        object.__setattr__(self, "_axis", {n: i for i, n in enumerate(names)})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._axis)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.variables)

    def axes(self, names: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self._axis[n] for n in names)
        except KeyError as exc:
            raise ValueError(f"unknown variable name {exc.args[0]!r}; have {self.names}") from None

    def alphabet(self, name: str) -> Alphabet:
        return self.variables[self.axes((name,))[0]]

    def to_json_dict(self) -> dict[str, Any]:
        return {"variables": [v.to_json_dict() for v in self.variables],
                "pmf": self.pmf.ravel().tolist()}

    @staticmethod
    def from_json_dict(obj: Any) -> "FiniteDist":
        if not isinstance(obj, dict) or "variables" not in obj or "pmf" not in obj:
            raise SchemaError("distribution JSON needs 'variables' and 'pmf'")
        variables = tuple(Alphabet.from_json_dict(v) for v in obj["variables"])
        pmf = np.asarray(_json_list(obj["pmf"], "pmf", _is_json_number,
                                    "a JSON number in double range"), dtype=float)
        expected = int(np.prod([v.size for v in variables])) if variables else 1
        if pmf.ndim != 1 or pmf.size != expected:
            raise SchemaError(f"pmf array has length {pmf.size}, expected {expected}")
        return FiniteDist(variables, pmf)


@dataclass(frozen=True, eq=False)
class CondKernel:
    """A conditional pmf from one ordered variable group to another.

    ``rows[i]`` is the pmf over the ``to_vars`` configurations given the
    i-th (row-major) configuration of ``from_vars``. ``defined`` marks rows
    that carry a meaningful conditional; ``None`` means all rows do.
    """

    from_vars: tuple[Alphabet, ...]
    to_vars: tuple[Alphabet, ...]
    rows: np.ndarray
    defined: np.ndarray | None = None

    def __post_init__(self) -> None:
        from_vars = tuple(self.from_vars)
        to_vars = tuple(self.to_vars)
        names = [v.name for v in from_vars + to_vars]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate variable names in kernel: {names}")
        n_from = int(np.prod([v.size for v in from_vars])) if from_vars else 1
        n_to = int(np.prod([v.size for v in to_vars])) if to_vars else 1
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (n_from, n_to):
            if rows.size != n_from * n_to:
                raise SchemaError(f"kernel rows have shape {rows.shape}, expected ({n_from}, {n_to})")
            rows = rows.reshape(n_from, n_to)
        else:
            rows = rows.copy()
        defined = self.defined
        if defined is not None:
            defined = np.asarray(defined, dtype=bool)
            if defined.shape != (n_from,):
                raise SchemaError("defined mask length does not match row count")
            if bool(defined.all()):
                defined = None
        if not np.all(np.isfinite(rows)):
            raise SchemaError("kernel contains non-finite entries")
        if rows.min(initial=0.0) < -1e-12:
            raise SchemaError(f"kernel has negative entry {rows.min()}")
        np.clip(rows, 0.0, None, out=rows)
        sums = rows.sum(axis=1)
        check = sums if defined is None else sums[defined]
        if check.size and np.max(np.abs(check - 1.0)) > config.CONFIG.tol_norm:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise SchemaError(f"kernel row {bad} sums to {sums[bad]}, not 1")
        object.__setattr__(self, "from_vars", from_vars)
        object.__setattr__(self, "to_vars", to_vars)
        object.__setattr__(self, "rows", _freeze(rows))
        if defined is not None:
            defined = defined.copy()
            defined.setflags(write=False)
        object.__setattr__(self, "defined", defined)

    @property
    def from_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.from_vars)

    @property
    def to_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.to_vars)

    @property
    def tensor(self) -> np.ndarray:
        """Rows reshaped to ``from_sizes + to_sizes``."""
        shape = tuple(v.size for v in self.from_vars) + tuple(v.size for v in self.to_vars)
        return self.rows.reshape(shape)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"from": [v.to_json_dict() for v in self.from_vars],
                               "to": [v.to_json_dict() for v in self.to_vars],
                               "rows": [row.tolist() for row in self.rows]}
        if self.defined is not None:
            out["defined"] = self.defined.tolist()
        return out

    @staticmethod
    def from_json_dict(obj: Any) -> "CondKernel":
        if not isinstance(obj, dict) or not {"from", "to", "rows"} <= set(obj):
            raise SchemaError("kernel JSON needs 'from', 'to' and 'rows'")
        from_vars = tuple(Alphabet.from_json_dict(v) for v in obj["from"])
        to_vars = tuple(Alphabet.from_json_dict(v) for v in obj["to"])
        rows = _json_list(obj["rows"], "rows", lambda row: isinstance(row, list), "a list")
        for i, row in enumerate(rows):
            _json_list(row, f"rows[{i}]", _is_json_number, "a JSON number in double range")
        rows = np.asarray(rows, dtype=float)
        n_from = int(np.prod([v.size for v in from_vars])) if from_vars else 1
        n_to = int(np.prod([v.size for v in to_vars])) if to_vars else 1
        if rows.shape != (n_from, n_to):
            raise SchemaError(f"kernel rows have shape {rows.shape}, expected ({n_from}, {n_to})")
        defined = obj.get("defined")
        if defined is not None:
            defined = np.asarray(_json_list(defined, "defined",
                                            lambda flag: isinstance(flag, bool), "true or false"),
                                 dtype=bool)
        return CondKernel(from_vars, to_vars, rows, defined)


# ---------------------------------------------------------------------------
# Subset handling
# ---------------------------------------------------------------------------


def _as_names(vars: Any) -> tuple[str, ...]:
    if vars is None:
        return ()
    if isinstance(vars, str):
        return (vars,)
    return tuple(vars)


def _check_disjoint(*groups: tuple[str, ...]) -> None:
    seen: set[str] = set()
    for g in groups:
        if len(set(g)) != len(g):
            raise ValueError(f"repeated variable within a subset: {g}")
        overlap = seen & set(g)
        if overlap:
            raise ValueError(f"overlapping variable subsets: {sorted(overlap)}")
        seen |= set(g)


def _subset_axes(d: FiniteDist, names: tuple[str, ...]
                 ) -> tuple[tuple[int, ...], list[int], tuple[int, ...]]:
    """The axes of ``names`` as requested, the same axes sorted, and the
    axes summed out to leave their marginal."""
    keep = d.axes(names)
    kept = sorted(set(keep))
    if len(kept) != len(keep):
        raise ValueError(f"repeated variable in subset: {names}")
    return keep, kept, tuple(i for i in range(d.pmf.ndim) if i not in kept)


def _marginal_array(d: FiniteDist, names: tuple[str, ...]) -> np.ndarray:
    """Marginal pmf on ``names``, axes ordered as requested.

    Names in the joint's axis order need no transpose, so the reduced
    array is returned as it is.
    """
    keep, kept, other = _subset_axes(d, names)
    arr = d.pmf.sum(axis=other) if other else d.pmf
    if tuple(kept) == keep:
        return arr
    return arr.transpose(tuple(kept.index(a) for a in keep))


# ---------------------------------------------------------------------------
# Information measures
# ---------------------------------------------------------------------------


def _h_bits(p: np.ndarray) -> float:
    flat = p.ravel(order="K")  # memory order, whatever order the axes are in
    flat = flat[flat > config.CONFIG.tol_supp]
    if flat.size == 0:
        return 0.0
    return float(-(flat * np.log2(flat)).sum())


def entropy_terms(p: np.ndarray) -> np.ndarray:
    """Elementwise p log2 p, with entries at or below ``tol_supp`` as zeros.

    Those entries take the logarithm of 1.0, exactly 0, so the product
    needs no mask. The temporaries are one float array and one mask of the
    input's shape.
    """
    p = np.asarray(p, dtype=float)
    terms = np.where(p > config.CONFIG.tol_supp, p, 1.0)
    np.log2(terms, out=terms)
    return np.multiply(terms, p, out=terms)


def entropy_letters_first(p: np.ndarray) -> np.ndarray:
    """Shannon entropies in bits of pmfs stored letters first.

    ``p[k]`` holds letter k of every pmf, so an array of shape (n, ...)
    gives entropies of shape (...): the negated sum of ``entropy_terms``
    over the first axis. With the letters on the first axis the sum over
    them runs as whole-array adds over contiguous memory, which is fast
    however few the letters. Callers bound memory by the size of what they
    pass.

    On a C-contiguous input the letters are added in order, as numpy's sum
    along a last axis of fewer than 8 entries does; from 8 letters numpy
    sums a last axis pairwise, so the two layouts can differ in the last
    bits.
    """
    return -entropy_terms(p).sum(axis=0)


def entropy(d: FiniteDist, vars: Any = None) -> float:
    """Shannon entropy in bits of the marginal on ``vars`` (all if None).

    The marginal is summed in memory order, the joint's own variable order,
    so every order of the same names gives the same bits.
    """
    names = _as_names(vars) if vars is not None else d.names
    if not names:
        return 0.0
    return _h_bits(_marginal_array(d, names))


def marginal_entropies(pmf: np.ndarray, reductions: Sequence[tuple[int, ...]]) -> list[float]:
    """Entropies in bits of the marginals of a C-contiguous float ``pmf``
    (as a ``FiniteDist`` holds it) that sum out each tuple of axes in
    ``reductions``, in one pass.

    Each marginal is summed from ``pmf`` in memory order, as ``entropy``
    sums it. The ``tol_supp`` mask, the log2 and the product are taken once
    over all marginals together, and each marginal's terms are summed on
    their own, pairwise as ``_h_bits`` sums them, so every entropy equals
    ``entropy``'s bit for bit. Summing out every axis leaves the empty
    marginal, whose entropy is 0.0.
    """
    if not reductions:
        return []
    flats = [np.add.reduce(pmf, axis=r).ravel() if r else pmf.ravel() for r in reductions]
    joined = np.concatenate(flats)
    keep = joined > config.CONFIG.tol_supp
    ends = np.cumsum(keep).take([n - 1 for n in accumulate(f.size for f in flats)]).tolist()
    p = joined[keep]
    terms = p * np.log2(p)
    out, start = [], 0
    for end, r in zip(ends, reductions):
        out.append(-float(np.add.reduce(terms[start:end]))
                   if end > start and len(r) < pmf.ndim else 0.0)
        start = end
    return out


def entropies(d: FiniteDist, subsets: Sequence[Any]) -> list[float]:
    """``[entropy(d, s) for s in subsets]`` bit for bit, through one
    ``marginal_entropies`` pass. Each subset is named as in ``entropy``,
    and an unknown or repeated name raises the error ``entropy`` raises."""
    return marginal_entropies(d.pmf, [_subset_axes(d, _as_names(s) if s is not None
                                                   else d.names)[2] for s in subsets])


def conditional_entropy(d: FiniteDist, target: Any, given: Any) -> float:
    """H(target | given) = H(target, given) - H(given), in bits."""
    t = _as_names(target)
    g = _as_names(given)
    _check_disjoint(t, g)
    return entropy(d, t + g) - entropy(d, g)


def mi_from_entropies(h_ag: float, h_bg: float, h_abg: float, h_g: float) -> float:
    """I(a; b | g) = H(a,g) + H(b,g) - H(a,b,g) - H(g), in bits.

    A negative value within ``tol_norm`` of zero is rounding and returns
    0.0; a more negative one (or NaN) raises ``InfeasibleError``.
    """
    raw = h_ag + h_bg - h_abg - h_g
    if raw > 0.0:  # tol_norm is read only where it can matter
        return raw
    if not raw >= -config.CONFIG.tol_norm:
        raise InfeasibleError(f"mutual information {raw!r} is not >= -tol_norm "
                              f"= -{config.CONFIG.tol_norm}")
    return 0.0


def mutual_information(d: FiniteDist, a: Any, b: Any, given: Any = None) -> float:
    """I(a; b | given) in bits, from four ``entropy`` calls combined by
    ``mi_from_entropies``."""
    aa = _as_names(a)
    bb = _as_names(b)
    gg = _as_names(given)
    _check_disjoint(aa, bb, gg)
    return mi_from_entropies(entropy(d, aa + gg), entropy(d, bb + gg),
                             entropy(d, aa + bb + gg), entropy(d, gg))


def binary_entropy(x: float) -> float:
    """H(x) for a Bernoulli(x) variable, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    tol = config.CONFIG.tol_supp
    out = 0.0
    if x > tol:
        out -= x * np.log2(x)
    if 1.0 - x > tol:
        out -= (1.0 - x) * np.log2(1.0 - x)
    return float(out)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def marginalize(d: FiniteDist, keep: Any) -> FiniteDist:
    """Marginal distribution on ``keep``, variables ordered as requested."""
    names = _as_names(keep)
    if not names:
        raise ValueError("cannot marginalize to an empty variable set")
    arr = _marginal_array(d, names)
    variables = tuple(d.alphabet(n) for n in names)
    return FiniteDist(variables, arr)


def condition(d: FiniteDist, given: Any) -> CondKernel:
    """Conditional kernel p(rest | given) extracted from a joint.

    Rows with marginal mass at or below the support threshold are flagged
    undefined and filled with zeros.
    """
    g = _as_names(given)
    if not g:
        raise ValueError("cannot condition on an empty variable set")
    rest = tuple(n for n in d.names if n not in set(g))
    if not rest:
        raise ValueError("conditioning on all variables leaves nothing to predict")
    _check_disjoint(g, rest)
    arr = _marginal_array(d, g + rest)
    n_from = int(np.prod([d.alphabet(n).size for n in g]))
    flat = arr.reshape(n_from, -1)
    mass = flat.sum(axis=1)
    defined = mass > config.CONFIG.tol_supp
    rows = np.zeros_like(flat)
    rows[defined] = flat[defined] / mass[defined, None]
    return CondKernel(tuple(d.alphabet(n) for n in g),
                      tuple(d.alphabet(n) for n in rest),
                      rows,
                      None if bool(defined.all()) else defined)


def compose(d: FiniteDist, k: CondKernel) -> FiniteDist:
    """Attach the kernel's output variables: p(d, to) = p(d) k(to | from).

    ``k.from_vars`` must all appear in ``d`` with identical alphabets; the
    result carries ``d.variables + k.to_vars``. Raises
    ``UndefinedRowError`` if ``d`` puts mass above the support threshold on
    an undefined kernel row.
    """
    for v in k.from_vars:
        if v.name not in d.names:
            raise ValueError(f"kernel input {v.name!r} missing from distribution {d.names}")
        if d.alphabet(v.name) != v:
            raise SchemaError(f"alphabet mismatch on {v.name!r} between distribution and kernel")
    collide = set(k.to_names) & set(d.names)
    if collide:
        raise SchemaError(f"kernel outputs already present: {sorted(collide)}")
    if k.defined is not None:
        mass = _marginal_array(d, k.from_names).ravel()
        bad = (mass > config.CONFIG.tol_supp) & ~k.defined
        if bad.any():
            raise UndefinedRowError(
                f"input mass {mass[bad].max()} on undefined row {int(np.argmax(bad))} "
                f"of kernel {k.from_names}->{k.to_names}")
    nd = len(d.variables)
    nt = len(k.to_vars)
    if nd + nt > len(string.ascii_lowercase):
        raise ValueError("too many variables for composition")
    letters = string.ascii_lowercase
    d_sub = letters[:nd]
    to_sub = letters[nd:nd + nt]
    pos = {v.name: d_sub[i] for i, v in enumerate(d.variables)}
    from_sub = "".join(pos[v.name] for v in k.from_vars)
    out = np.einsum(f"{d_sub},{from_sub}{to_sub}->{d_sub}{to_sub}", d.pmf, k.tensor)
    return FiniteDist(d.variables + k.to_vars, out)


def reorder(d: FiniteDist, order: Sequence[str]) -> FiniteDist:
    """Explicitly permute the variable order of a joint."""
    names = _as_names(order)
    if sorted(names) != sorted(d.names):
        raise ValueError(f"reorder needs a permutation of {d.names}, got {names}")
    if names == d.names:
        return d
    perm = d.axes(names)
    return FiniteDist(tuple(d.alphabet(n) for n in names), d.pmf.transpose(perm))


def conditional_table(d: FiniteDist, target: Any, given: Any) -> np.ndarray:
    """Dense table p(target | given) with shape given_sizes + target_sizes.

    Entries for zero-probability conditioning configurations are zero; the
    caller is expected to restrict attention to the support.
    """
    t = _as_names(target)
    g = _as_names(given)
    _check_disjoint(t, g)
    arr = _marginal_array(d, g + t)
    t_axes = tuple(range(len(g), len(g) + len(t)))
    mass = arr.sum(axis=t_axes, keepdims=True)
    out = np.zeros_like(arr)
    np.divide(arr, mass, out=out, where=mass > config.CONFIG.tol_supp)
    return out
