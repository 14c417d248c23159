"""Finite systems of trigonometric polynomials and their span metadata.

A ``Dictionary`` keeps an ordered element list plus the constants that the
discretization and recovery machinery consumes: a uniform bound on the
elements and an optional l2 Riesz-type constant K (coefficient l2 dominated
by ``sqrt(K)`` times the function L2 norm).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NormBudgetError
from .frequencies import FrequencySet
from .points import PointSet
from .trigpoly import (DEFAULT_GRID_LEVEL, TrigPolynomial, _union_coefficients,
                       lp_norm, sup_norm)

_BOUND_CHECK_GRID_LEVEL = 8


class Dictionary:
    """Ordered system of trigonometric polynomials with recorded constants."""

    def __init__(self, elements, uniform_bound, riesz_constant=None,
                 check_bound=True):
        elements = list(elements)
        if not elements:
            raise ValueError("a dictionary needs at least one element")
        d = elements[0].dimension
        for g in elements:
            if g.dimension != d:
                raise DimensionMismatchError("dictionary elements must share a dimension")
        if check_bound:
            for i, g in enumerate(elements):
                est = sup_norm(g, _BOUND_CHECK_GRID_LEVEL)
                if est > uniform_bound + 1e-9:
                    raise NormBudgetError(
                        f"element {i} has sup-norm estimate {est} above the "
                        f"declared uniform bound {uniform_bound}")
        self.elements = elements
        self.uniform_bound = float(uniform_bound)
        self.riesz_constant = None if riesz_constant is None else float(riesz_constant)
        self.dimension = d
        # distinct unit monomials e^{i<k,x>} are orthonormal in L2
        monomials = [next(iter(g.coeffs.items())) for g in elements
                     if len(g.coeffs) == 1]
        self.orthonormal_monomials = (
            len(monomials) == len(elements)
            and all(c == 1 for _, c in monomials)
            and len({k for k, _ in monomials}) == len(elements))

    def __len__(self):
        return len(self.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def max_component_frequency(self) -> int:
        return max(g.max_component_frequency() for g in self.elements)

    @classmethod
    def exponentials(cls, freqs: FrequencySet) -> "Dictionary":
        """Orthonormal system ``{e^{i<k,x>}}`` over the given frequency set."""
        elements = [TrigPolynomial({k: 1.0}, freqs.dimension) for k in freqs]
        return cls(elements, uniform_bound=1.0, riesz_constant=1.0,
                   check_bound=False)

    @classmethod
    def exponential_band(cls, lo: int, hi: int) -> "Dictionary":
        """Univariate exponentials with frequencies lo..hi inclusive."""
        if hi < lo:
            raise ValueError("empty frequency band")
        return cls.exponentials(
            FrequencySet.from_indices([(k,) for k in range(lo, hi + 1)]))

    def values_at(self, points) -> np.ndarray:
        """Matrix of element values, one column per element."""
        if not isinstance(points, PointSet):
            points = PointSet.explicit(points)
        cols = [g.evaluate(points) for g in self.elements]
        return np.stack(cols, axis=1)

    def has_identity_gram(self, indices) -> bool:
        """Whether the selected elements are distinct orthonormal monomials."""
        return self.orthonormal_monomials and len(set(indices)) == len(indices)

    def continuous_gram(self, indices=None) -> np.ndarray:
        """Exact L2 Gram of the selected elements, from the coefficients.

        Distinct orthonormal monomials give the identity without a build.
        """
        idx = range(self.size) if indices is None else indices
        if self.has_identity_gram(idx):
            return np.eye(len(idx), dtype=complex)
        _, b = _union_coefficients([self.elements[i] for i in idx], self.dimension)
        return b.conj().T @ b

    def combine(self, coefficients, indices=None) -> TrigPolynomial:
        """The span element with the given coefficients."""
        idx = list(range(self.size)) if indices is None else list(indices)
        if len(idx) != len(coefficients):
            raise ValueError("one coefficient per selected element expected")
        out = {}
        for c, i in zip(coefficients, idx):
            for k, a in self.elements[i].coeffs.items():
                out[k] = out.get(k, 0.0) + complex(c) * a
        return TrigPolynomial(out, self.dimension)

    def l2_project(self, f: TrigPolynomial, indices) -> np.ndarray:
        """Coefficients of the continuous-L2 best approximation from a subset."""
        idx = list(indices)
        gram = self.continuous_gram(idx)
        rhs = np.zeros(len(idx), dtype=complex)
        for col, i in enumerate(idx):
            for k, a in self.elements[i].coeffs.items():
                rhs[col] += np.conj(a) * f.coeffs.get(k, 0.0)
        return np.linalg.solve(gram, rhs)


class SubspaceCollection:
    """A dictionary together with the index sets spanning the subspaces."""

    def __init__(self, dictionary: Dictionary, subsets=None, v=None):
        if (subsets is None) == (v is None):
            raise ValueError("give either explicit subsets or a subset size v")
        self.dictionary = dictionary
        if subsets is not None:
            subsets = [tuple(sorted(int(i) for i in s)) for s in subsets]
            if not subsets:
                raise ValueError("the collection must be nonempty")
            sizes = {len(s) for s in subsets}
            if len(sizes) != 1:
                raise ValueError("all subsets must have the same size")
            for s in subsets:
                if len(set(s)) != len(s):
                    raise ValueError(f"subset {s} repeats an index")
                if any(i < 0 or i >= dictionary.size for i in s):
                    raise ValueError(f"subset {s} indexes outside the dictionary")
            self.subsets = subsets
            self.v = sizes.pop()
        else:
            if v < 1 or v > dictionary.size:
                raise ValueError("subset size v must satisfy 1 <= v <= N")
            self.subsets = None
            self.v = int(v)

    @classmethod
    def all_subsets(cls, dictionary: Dictionary, v: int) -> "SubspaceCollection":
        return cls(dictionary, v=v)

    @classmethod
    def from_subsets(cls, dictionary: Dictionary, subsets) -> "SubspaceCollection":
        return cls(dictionary, subsets=subsets)

    def count(self) -> int:
        import math
        if self.subsets is not None:
            return len(self.subsets)
        return math.comb(self.dictionary.size, self.v)

    def iter_subsets(self):
        if self.subsets is not None:
            yield from self.subsets
        else:
            import itertools
            yield from itertools.combinations(range(self.dictionary.size), self.v)


def nikolskii_ratio_estimate(dictionary: Dictionary, q: float, trials: int,
                             rng_seed: int = 0,
                             grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Lower estimate of the Nikol'skii constant H on the span.

    Maximizes ``sup|f| / ||f||_q`` over random span elements with
    rotation-invariant complex Gaussian coefficients, plus the
    deterministic all-equal-coefficients candidate (the extremal vector for
    orthonormal exponentials at q = 2).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng([int(rng_seed), 0])
    n = dictionary.size
    best = 0.0
    draws = [np.ones(n, dtype=complex)]
    for _ in range(trials):
        draws.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for a in draws:
        f = dictionary.combine(a)
        denom = lp_norm(f, q, grid_level)
        if denom == 0.0:
            continue
        best = max(best, sup_norm(f, grid_level) / denom)
    return best
