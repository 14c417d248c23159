"""Frequency-set combinatorics on Z^d.

Hyperbolic crosses, dyadic frequency blocks, and the level decomposition the
blocks induce.  Every constructor emits a duplicate-free, lexicographically
sorted index list, so all downstream arithmetic has a deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DimensionMismatchError
from .points import _integer_argument
from .trigpoly import _frequency_argument, _unique_rows

DEFAULT_FREQUENCY_CAP = 10**7


@dataclass(frozen=True)
class FrequencySet:
    """A finite, duplicate-free subset of Z^d with a fixed iteration order."""

    indices: tuple
    dimension: int
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        seen = set()
        for k in self.indices:
            if len(k) != self.dimension:
                raise DimensionMismatchError(
                    f"index {k} does not have dimension {self.dimension}")
            if k in seen:
                raise ValueError(f"duplicate frequency index {k}")
            seen.add(k)
        object.__setattr__(self, "_members", frozenset(seen))

    @classmethod
    def from_indices(cls, indices, dimension=None):
        norm = [_frequency_argument(k) for k in indices]
        if dimension is None:
            if not norm:
                raise ValueError("dimension required for an empty set")
            dimension = len(norm[0])
        norm.sort()
        return cls(tuple(norm), dimension)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, k):
        """Membership of ``k`` as ``from_indices`` reads it: an integer or a
        sequence of them; a bool or non-integral entry raises ``ValueError``."""
        return _frequency_argument(k) in self._members

    def to_json(self):
        return {
            "dimension": self.dimension,
            "indices": [list(k) for k in sorted(self.indices)],
        }

    @classmethod
    def from_json(cls, obj):
        return cls.from_indices(obj["indices"], dimension=obj["dimension"])


def _refuse_above_cap(size: int, what: str):
    if size > DEFAULT_FREQUENCY_CAP:
        raise CapExceededError(
            f"{what} holds {size} indices, above the cap {DEFAULT_FREQUENCY_CAP}",
            predicted=size, cap=DEFAULT_FREQUENCY_CAP)


@lru_cache(maxsize=None, typed=True)  # typed: a bool is checked, not read as 1
def hyperbolic_cross_size(n_param: int, d: int) -> int:
    """Cardinality of ``{k in Z^d : prod_j max(|k_j|, 1) <= n_param}``."""
    n_param, d = _integer_argument("n_param", n_param, 1), _integer_argument("d", d, 1)
    if d == 1:
        return 2 * n_param + 1
    total = hyperbolic_cross_size(n_param, d - 1)
    for k in range(1, n_param + 1):
        total += 2 * hyperbolic_cross_size(n_param // k, d - 1)
    return total


def hyperbolic_cross(n_param: int, d: int) -> FrequencySet:
    """All k in Z^d with ``prod_j max(|k_j|, 1) <= n_param``, sorted.

    Refuses (with the predicted cardinality) when the set would exceed
    ``DEFAULT_FREQUENCY_CAP`` entries.
    """
    n_param, d = _integer_argument("n_param", n_param, 1), _integer_argument("d", d, 1)
    predicted = hyperbolic_cross_size(n_param, d)
    _refuse_above_cap(predicted, f"hyperbolic cross with N={n_param}, d={d}")
    out = []

    def recurse(prefix, budget, remaining):
        if remaining == 1:
            for k in range(-budget, budget + 1):
                out.append(prefix + (k,))
            return
        for k in range(-budget, budget + 1):
            recurse(prefix + (k,), budget // max(abs(k), 1), remaining - 1)

    recurse((), n_param, d)
    return FrequencySet(tuple(out), d)


def dyadic_annulus(s: int) -> list:
    """Integers k with ``floor(2^(s-1)) <= |k| < 2^s``, ascending."""
    s = _integer_argument("s", s, 0)
    if s == 0:
        return [0]
    lo, hi = 2 ** (s - 1), 2 ** s
    return list(range(-hi + 1, -lo + 1)) + list(range(lo, hi))


def dyadic_block(s) -> FrequencySet:
    """Product of per-coordinate dyadic annuli for the index vector ``s``."""
    s = tuple(_integer_argument("s", v, 0) for v in (s if np.ndim(s) else (s,)))
    size = 1
    for v in s:
        size *= 1 if v == 0 else 2 ** v
    _refuse_above_cap(size, f"dyadic block {s}")
    annuli = [dyadic_annulus(v) for v in s]
    indices = tuple(itertools.product(*annuli))
    return FrequencySet(indices, len(s))


def dyadic_level_index(k) -> tuple:
    """The unique block index s with k in the block ``dyadic_block(s)``."""
    return tuple(abs(_integer_argument("k", kj)).bit_length()
                 for kj in (k if np.ndim(k) else (k,)))


def level_of(k) -> int:
    """Sum of the dyadic block index components (the level of ``k``)."""
    return sum(dyadic_level_index(k))


@lru_cache(maxsize=None, typed=True)  # typed: a bool is checked, not read as 1
def level_size(j: int, d: int) -> int:
    """Cardinality of the level ``{k in Z^d : level_of(k) = j}``.

    ``size(j, d) = size(j, d-1) + sum_{s=1..j} 2^s size(j-s, d-1)``: the
    first coordinate lies in annulus s (2^s values for s >= 1, one for
    s = 0) and the tail is a level ``j - s`` frequency in dimension d - 1.
    """
    j, d = _integer_argument("j", j, 0), _integer_argument("d", d, 0)
    if d == 0:
        return 1 if j == 0 else 0
    return level_size(j, d - 1) + sum(2 ** s * level_size(j - s, d - 1)
                                      for s in range(1, j + 1))


def _checked_level_size(j: int, d: int) -> int:
    size = level_size(j, d)
    _refuse_above_cap(size, f"level {j} in dimension {d}")
    return size


def unrank_level(j: int, d: int, ranks) -> np.ndarray:
    """Level-j frequencies at the given lexicographic positions, as (n, d) int64.

    The first coordinate runs through the segments of negative annuli
    ``s = j..1``, then 0, then positive annuli ``s = 1..j``; every value in
    segment s carries ``level_size(j - s, d - 1)`` tails in lexicographic
    order, so a search over the segment offsets fixes the first coordinate
    and the remainder of the rank is unranked on the tail.  Ranks must lie
    in ``[0, level_size(j, d))``.
    """
    j, d = _integer_argument("j", j, 0), _integer_argument("d", d, 0)
    ranks, size = np.asarray(ranks), level_size(j, d)
    if ranks.size and (ranks.dtype.kind not in "iu" or ranks.min() < 0 or ranks.max() >= size):
        raise ValueError(f"ranks must be integers in [0, {size}) at level {j} in dimension {d}")
    ranks = ranks.astype(np.int64, copy=False)
    out = np.empty((ranks.size, d), dtype=np.int64)
    if d == 0 or ranks.size == 0:
        return out
    seg_s = np.array(list(range(j, 0, -1)) + list(range(j + 1)), dtype=np.int64)
    seg_sign = np.array([-1] * j + [1] * (j + 1), dtype=np.int64)
    width = 2 ** np.maximum(seg_s - 1, 0)
    # smallest value of each segment: -(2^s - 1) below zero, 2^(s-1) above
    lowest = np.where(seg_sign < 0, 1 - 2 ** seg_s, width * (seg_s > 0))
    tails = np.array([level_size(j - s, d - 1) for s in seg_s.tolist()],
                     dtype=np.int64)
    ends = np.cumsum(width * tails)
    seg = np.searchsorted(ends, ranks, side="right")
    local = ranks - (ends[seg] - width[seg] * tails[seg])
    step, tail_rank = np.divmod(local, tails[seg])
    out[:, 0] = lowest[seg] + step
    if d > 1:
        tail_level = j - seg_s[seg]
        for t in _unique_rows(tail_level)[0].tolist():
            rows = tail_level == t
            out[rows, 1:] = unrank_level(t, d - 1, tail_rank[rows])
    return out


def frequency_levels(freq_array) -> np.ndarray:
    """The level of every row of an (n, d) integer frequency array.

    ``np.frexp`` returns for a nonzero x the exponent e with
    ``2^(e-1) <= |x| < 2^e``, which for an integer below 2^53 in modulus
    (exactly representable as a float) is its ``bit_length``, and 0 for 0.
    Frequencies beyond 2^53 are outside the package anyway: ``_values_on``
    already holds them as floats.
    """
    return np.frexp(np.abs(np.asarray(freq_array, dtype=np.int64)))[1].sum(axis=1)


def level_frequencies(j: int, d: int) -> FrequencySet:
    """Union of the dyadic blocks with ``|s|_1 = j`` in dimension ``d``.

    Every rank of the level is unranked by :func:`unrank_level`, the one
    source of the level's lexicographic order.
    """
    j, d = _integer_argument("j", j, 0), _integer_argument("d", d, 1)
    size = _checked_level_size(j, d)
    indices = unrank_level(j, d, np.arange(size)).tolist()
    return FrequencySet(tuple(map(tuple, indices)), d)
