"""Finite systems of trigonometric polynomials as one coefficient matrix.

A ``Dictionary`` stores the sorted union of its elements' frequencies (F, d)
and their coefficient matrix B (F, N), and records which union rows each
element holds (a stored zero counts), so every subset has its own union and
block of B.  It also keeps a uniform bound on the elements, an optional
l2 Riesz-type constant K (coefficient l2 dominated by ``sqrt(K)`` times the
function L2 norm), and whether its elements are distinct unit monomials,
whose continuous Gram is the identity.  A ``SubspaceCollection`` names the
v-element subsets of a dictionary that a certificate must cover.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionMismatchError, NormBudgetError
from .frequencies import FrequencySet
from .points import PointSet, _integer_argument, _real_argument
from .trigpoly import TrigPolynomial, _stack, _unique_rows, _values_on, sup_norm

_BOUND_CHECK_GRID_LEVEL = 8


class Dictionary:
    """Ordered system of trigonometric polynomials with recorded constants."""

    def __init__(self, elements, uniform_bound, riesz_constant=None):
        elements = list(elements)
        if not elements:
            raise ValueError("a dictionary needs at least one element")
        self.uniform_bound = _real_argument("uniform_bound", uniform_bound, 0, strict=True)
        self.riesz_constant = (None if riesz_constant is None else
                               _real_argument("riesz_constant", riesz_constant, 0, strict=True))
        d = elements[0].dimension
        for g in elements:
            if g.dimension != d:
                raise DimensionMismatchError("dictionary elements must share a dimension")
        self.dimension = d
        union, at, owner, coeffs = _stack(elements, d)
        self.frequencies = union
        self.coefficients = np.zeros((len(union), len(elements)), dtype=complex)
        self.coefficients[at, owner] = coeffs
        self._held = np.zeros(self.coefficients.shape, dtype=bool)
        self._held[at, owner] = True
        self.frequencies.flags.writeable = self.coefficients.flags.writeable = False
        # sup|g| <= sum_k |c_k|, so only columns above the bound need the grid
        bound = self.uniform_bound
        for i in np.flatnonzero(np.abs(self.coefficients).sum(axis=0) > bound):
            est = sup_norm(elements[i], _BOUND_CHECK_GRID_LEVEL)
            if est > bound + 1e-9:
                raise NormBudgetError(
                    f"element {i} has sup-norm estimate {est} above the "
                    f"declared uniform bound {bound}")
        # distinct unit monomials e^{i<k,x>} are orthonormal in L2
        self.orthonormal_monomials = bool(
            np.array_equal(owner, np.arange(len(elements)))
            and (coeffs == 1).all() and len(union) == len(elements))

    @property
    def size(self) -> int:
        return self.coefficients.shape[1]

    def max_component_frequency(self) -> int:
        return int(np.abs(self.frequencies).max(initial=0))

    @classmethod
    def exponentials(cls, freqs: FrequencySet) -> "Dictionary":
        """Orthonormal system ``{e^{i<k,x>}}`` over the given frequency set."""
        elements = [TrigPolynomial({k: 1.0}, freqs.dimension) for k in freqs]
        return cls(elements, uniform_bound=1.0, riesz_constant=1.0)

    @classmethod
    def exponential_band(cls, lo: int, hi: int) -> "Dictionary":
        """Univariate exponentials with frequencies lo..hi inclusive."""
        lo = _integer_argument("lo", lo)
        hi = _integer_argument("hi", hi, lo)
        return cls.exponentials(FrequencySet.from_indices([(k,) for k in range(lo, hi + 1)]))

    def _checked_indices(self, indices) -> list:
        """The selected indices as ints, all for None; ValueError outside 0..N-1."""
        idx = (list(range(self.size)) if indices is None
               else [_integer_argument("subset index", i) for i in indices])
        if any(i < 0 or i >= self.size for i in idx):
            raise ValueError(f"subset {tuple(idx)} indexes outside the dictionary")
        return idx

    def _block(self, indices):
        """The selected elements' sorted union frequencies and block of B."""
        rows = np.flatnonzero(self._held[:, indices].any(axis=1))
        return self.frequencies[rows], self.coefficients[np.ix_(rows, indices)]

    def _union_mask(self, subsets):
        """The (S, F) mask of the union rows held by each row of the (S, v)
        index array ``subsets``."""
        return self._held[:, subsets].any(axis=2).T

    def _blocks(self, subsets):
        """``_block`` of every row of the (S, v) index array ``subsets``,
        grouped by union size: per size, the member rows and their stacked
        (S_g, F, d) frequencies and (S_g, F, v) blocks of B."""
        mask = self._union_mask(subsets)
        sizes, kind = _unique_rows(mask.sum(axis=1))
        for j, size in enumerate(sizes.tolist()):
            members = np.flatnonzero(kind == j)
            rows = np.nonzero(mask[members])[1].reshape(len(members), size)
            yield (members, self.frequencies[rows],
                   self.coefficients[rows[:, :, None], subsets[members][:, None, :]])

    def values_at(self, points) -> np.ndarray:
        """Matrix of element values, one column per element."""
        if not isinstance(points, PointSet):
            points = PointSet.explicit(points)
        return _values_on(points.points, self.frequencies, self.coefficients)

    def continuous_gram(self, indices=None) -> np.ndarray:
        """Exact L2 Gram ``b^H b`` of the selected elements' block b of B."""
        b = self._block(self._checked_indices(indices))[1]
        return b.conj().T @ b

    def combine(self, coefficients, indices=None) -> TrigPolynomial:
        """The span element with the given coefficients."""
        idx = self._checked_indices(indices)
        if len(idx) != len(coefficients):
            raise ValueError("one coefficient per selected element expected")
        freqs, b = self._block(idx)
        return TrigPolynomial.from_arrays(
            freqs, b @ np.asarray(coefficients, dtype=complex), self.dimension)


class SubspaceCollection:
    """A dictionary together with the index sets spanning the subspaces."""

    def __init__(self, dictionary: Dictionary, subsets=None, v=None):
        if (subsets is None) == (v is None):
            raise ValueError("give either explicit subsets or a subset size v")
        self.dictionary = dictionary
        if subsets is not None:
            subsets = [tuple(sorted(dictionary._checked_indices(s))) for s in subsets]
            if not subsets:
                raise ValueError("the collection must be nonempty")
            sizes = {len(s) for s in subsets}
            if len(sizes) != 1:
                raise ValueError("all subsets must have the same size")
            if 0 in sizes:
                raise ValueError("a subset needs at least one index")
            for s in subsets:
                if len(set(s)) != len(s):
                    raise ValueError(f"subset {s} repeats an index")
            self.subsets = subsets
            self.v = sizes.pop()
        else:
            self.subsets = None
            self.v = _integer_argument("v", v, 1)
            if self.v > dictionary.size:
                raise ValueError(f"v must be at most the dictionary size {dictionary.size}, "
                                 f"got {self.v}")

    @classmethod
    def all_subsets(cls, dictionary: Dictionary, v: int) -> "SubspaceCollection":
        return cls(dictionary, v=v)

    @classmethod
    def from_subsets(cls, dictionary: Dictionary, subsets) -> "SubspaceCollection":
        return cls(dictionary, subsets=subsets)

    def count(self) -> int:
        if self.subsets is not None:
            return len(self.subsets)
        return math.comb(self.dictionary.size, self.v)

    def iter_subsets(self):
        if self.subsets is not None:
            return iter(self.subsets)
        return itertools.combinations(range(self.dictionary.size), self.v)
