"""Frequency-set combinatorics on Z^d.

Hyperbolic crosses, dyadic frequency blocks, and the level decomposition the
blocks induce.  Every constructor emits a duplicate-free, lexicographically
sorted index list, so all downstream arithmetic has a deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError, DimensionMismatchError

DEFAULT_FREQUENCY_CAP = 10**7


@dataclass(frozen=True)
class FrequencySet:
    """A finite, duplicate-free subset of Z^d with a fixed iteration order."""

    indices: tuple
    dimension: int

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

    @classmethod
    def from_indices(cls, indices, dimension=None, sort=True):
        norm = []
        for k in indices:
            if isinstance(k, int):
                k = (k,)
            norm.append(tuple(int(v) for v in k))
        if dimension is None:
            if not norm:
                raise ValueError("dimension required for an empty set")
            dimension = len(norm[0])
        if sort:
            norm.sort()
        return cls(tuple(norm), dimension)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, k):
        if isinstance(k, int):
            k = (k,)
        return tuple(k) in set(self.indices)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "indices": [list(k) for k in sorted(self.indices)],
        }

    @classmethod
    def from_json(cls, obj):
        return cls.from_indices(obj["indices"], dimension=obj["dimension"])


@lru_cache(maxsize=None)
def hyperbolic_cross_size(n_param: int, d: int) -> int:
    """Cardinality of ``{k in Z^d : prod_j max(|k_j|, 1) <= n_param}``."""
    if n_param < 1 or d < 1:
        raise ValueError("n_param and d must be >= 1")
    if d == 1:
        return 2 * n_param + 1
    total = hyperbolic_cross_size(n_param, d - 1)
    for k in range(1, n_param + 1):
        total += 2 * hyperbolic_cross_size(n_param // k, d - 1)
    return total


def hyperbolic_cross(n_param: int, d: int, cap: int = DEFAULT_FREQUENCY_CAP) -> FrequencySet:
    """All k in Z^d with ``prod_j max(|k_j|, 1) <= n_param``, sorted.

    Refuses (with the predicted cardinality) when the set would exceed
    ``cap`` entries.
    """
    if n_param < 1 or d < 1:
        raise ValueError("n_param and d must be >= 1")
    predicted = hyperbolic_cross_size(n_param, d)
    if predicted > cap:
        raise CapExceededError(
            f"hyperbolic cross with N={n_param}, d={d} holds {predicted} "
            f"indices, above the cap {cap}",
            predicted=predicted, cap=cap)
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
    if s < 0:
        raise ValueError("annulus index must be >= 0")
    if s == 0:
        return [0]
    lo, hi = 2 ** (s - 1), 2 ** s
    return list(range(-hi + 1, -lo + 1)) + list(range(lo, hi))


def dyadic_block(s, cap: int = DEFAULT_FREQUENCY_CAP) -> FrequencySet:
    """Product of per-coordinate dyadic annuli for the index vector ``s``."""
    s = tuple(int(v) for v in (s if not isinstance(s, int) else (s,)))
    if any(v < 0 for v in s):
        raise ValueError("annulus indices must be >= 0")
    size = 1
    for v in s:
        size *= 1 if v == 0 else 2 ** v
    if size > cap:
        raise CapExceededError(
            f"dyadic block {s} holds {size} indices, above the cap {cap}",
            predicted=size, cap=cap)
    annuli = [dyadic_annulus(v) for v in s]
    indices = tuple(itertools.product(*annuli))
    return FrequencySet(indices, len(s))


def dyadic_level_index(k) -> tuple:
    """The unique block index s with k in the block ``dyadic_block(s)``."""
    if isinstance(k, int):
        k = (k,)
    return tuple(0 if kj == 0 else abs(int(kj)).bit_length() for kj in k)


def level_of(k) -> int:
    """Sum of the dyadic block index components (the level of ``k``)."""
    return sum(dyadic_level_index(k))


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def level_frequencies(j: int, d: int, cap: int = DEFAULT_FREQUENCY_CAP) -> FrequencySet:
    """Union of the dyadic blocks with ``|s|_1 = j`` in dimension ``d``."""
    if j < 0 or d < 1:
        raise ValueError("level must be >= 0 and d >= 1")
    size = 0
    comps = list(compositions(j, d))
    for s in comps:
        block = 1
        for v in s:
            block *= 1 if v == 0 else 2 ** v
        size += block
    if size > cap:
        raise CapExceededError(
            f"level {j} in dimension {d} holds {size} indices, above the cap {cap}",
            predicted=size, cap=cap)
    indices = []
    for s in comps:
        indices.extend(dyadic_block(s, cap=cap).indices)
    indices.sort()
    return FrequencySet(tuple(indices), d)
