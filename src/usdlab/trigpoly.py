"""Trigonometric polynomials stored as sorted frequency and coefficient arrays.

A polynomial ``sum_k c_k * exp(i <k, x>)`` holds its frequencies as a
read-only (n, d) int64 array in lexicographic row order without repeats and
its n complex128 coefficients in the same order; ``.coeffs`` is a read-only
mapping view of that pair, built on first access.  The fixed order makes
evaluation and serialization reproducible run to run.

Norm conventions: the measure is the normalized Lebesgue measure on the
torus [0, 2*pi)^d, so the L2 norm equals the l2 norm of the coefficients
(Parseval) and all Lp quadratures are plain tensor-grid rectangle rules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError
from .points import PointSet, _integer_argument, _real_argument, tensor_grid_points

DEFAULT_GRID_LEVEL = 10
_EVAL_CHUNK = 8192


def _frequency_argument(k) -> tuple:
    """A frequency, an integer or a sequence of them, as a tuple of ints; a
    bool or non-integral component raises ``ValueError``."""
    return tuple(_integer_argument("frequency", v)
                 for v in ((k,) if isinstance(k, numbers.Number) else k))


class TrigPolynomial:
    """Finite trigonometric polynomial ``sum_k coeffs[k] e^{i<k,x>}``."""

    __slots__ = ("dimension", "_freqs", "_coeffs", "_mapping")

    def __init__(self, coeffs, dimension=None):
        items = list(coeffs.items() if hasattr(coeffs, "items") else coeffs)
        keys = [_frequency_argument(k) for k, _ in items]
        if dimension is None and not keys:
            raise ValueError("dimension required for the zero polynomial")
        dimension = len(keys[0]) if dimension is None else dimension
        if any(len(k) != dimension for k in keys):
            raise DimensionMismatchError(f"frequencies must have dimension {dimension}")
        self._store(np.array(keys, dtype=np.int64).reshape(len(keys), dimension),
                    [complex(c) for _, c in items], dimension)

    @classmethod
    def from_arrays(cls, freqs, coeffs, dimension) -> "TrigPolynomial":
        """Polynomial from (n, d) integer frequencies and n coefficients,
        sorted into copies; a repeated frequency raises ``ValueError``."""
        out = cls.__new__(cls)
        out._store(freqs, coeffs, dimension)
        return out

    def _store(self, freqs, coeffs, dimension):
        freqs = np.asarray(freqs, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=complex)
        if freqs.ndim != 2 or freqs.shape[1] != dimension or dimension < 1:
            raise DimensionMismatchError(
                f"frequency array of shape {freqs.shape} is not (n, {dimension}), d >= 1")
        if coeffs.shape != freqs.shape[:1]:
            raise ValueError("one coefficient per frequency row expected")
        if len(freqs) > 1:
            order = np.lexsort(freqs.T[::-1])
            freqs, coeffs = freqs[order], coeffs[order]
            repeated = np.flatnonzero((freqs[1:] == freqs[:-1]).all(axis=1))
            if repeated.size:
                raise ValueError(f"duplicate frequency {freqs[repeated[0]].tolist()}")
        else:   # one row is sorted and has no repeat
            freqs, coeffs = freqs.copy(), coeffs.copy()
        freqs.flags.writeable = coeffs.flags.writeable = False
        self.dimension = int(dimension)
        self._freqs, self._coeffs, self._mapping = freqs, coeffs, None

    # -- basic views ------------------------------------------------------

    def as_arrays(self):
        """The stored (frequencies, coefficients) pair, in lexicographic order."""
        return self._freqs, self._coeffs

    @property
    def coeffs(self):
        """Read-only mapping from frequency tuples to complex coefficients."""
        if self._mapping is None:
            self._mapping = MappingProxyType(dict(zip(
                map(tuple, self._freqs.tolist()), self._coeffs.tolist())))
        return self._mapping

    @property
    def support(self):
        return tuple(self.coeffs)

    def max_component_frequency(self) -> int:
        return int(np.abs(self._freqs).max()) if self._freqs.size else 0

    def coefficient_l2(self) -> float:
        return float(np.linalg.norm(self._coeffs))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if other.dimension != self.dimension:
            raise DimensionMismatchError("cannot add polynomials of different dimension")
        return _combination([self, other], [1.0, 1.0], self.dimension)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return TrigPolynomial.from_arrays(
            self._freqs, complex(factor) * self._coeffs, self.dimension)

    def __neg__(self):
        return self.scale(-1.0)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, points):
        """Values at each point, summed in lexicographic frequency order."""
        arr = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return _values_on(arr, self._freqs, self._coeffs)

    def __repr__(self):
        return f"TrigPolynomial(d={self.dimension}, terms={len(self._coeffs)})"

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "dimension": self.dimension,
            "coefficients": [[k, c.real, c.imag] for k, c in
                             zip(self._freqs.tolist(), self._coeffs.tolist())],
        }

    @classmethod
    def from_json(cls, obj):
        return cls({tuple(k): complex(re, im) for k, re, im in obj["coefficients"]},
                   dimension=obj["dimension"])


def _unique_rows(rows):
    """The distinct rows of the (n, w) integer array ``rows`` in lexicographic
    order and the index of each row among them, as ``np.unique(axis=0,
    return_inverse=True)`` gives them; 1-d values are one column, and their
    distinct values come back 1-d, as from ``np.unique(return_inverse=True)``.

    The package's one distinct-values kernel, from one ``lexsort``: several
    times faster than the structured sort of ``np.unique(axis=0)``, a stable
    integer sort (``np.unique``'s int64 quicksort pages in about 0.2 MiB of
    numpy code that nothing else here runs), and no numpy.ma import (25 ms
    on first use, which ``np.unique`` without an inverse pays)."""
    flat = np.ndim(rows) == 1
    rows = np.asarray(rows)[:, None] if flat else rows
    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    at = np.empty(len(rows), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    distinct = rows[order[new]]
    return (distinct[:, 0] if flat else distinct), at


def _stack(polys, dimension):
    """The sorted union (F, d) of the frequencies of ``polys`` and, for every
    term of every polynomial in turn, its union row, its polynomial's index
    and its coefficient."""
    pairs = [f.as_arrays() for f in polys]
    pairs.append((np.zeros((0, dimension), dtype=np.int64), np.zeros(0)))  # never empty
    union, at = _unique_rows(np.concatenate([k for k, _ in pairs]))
    owner = np.repeat(np.arange(len(pairs)), [len(c) for _, c in pairs])
    return union, at, owner, np.concatenate([c for _, c in pairs])


def _union_coefficients(polys, dimension):
    """Sorted union frequencies (F, d) and the (F, len(polys)) coefficient matrix."""
    union, at, owner, coeffs = _stack(polys, dimension)
    matrix = np.zeros((len(union), len(polys)), dtype=complex)
    matrix[at, owner] = coeffs
    return union, matrix


def _combination(polys, weights, dimension):
    """``sum_i weights[i] * polys[i]``; each frequency sums its terms in
    polynomial order, starting from zero."""
    union, at, owner, coeffs = _stack(polys, dimension)
    total = np.zeros(len(union), dtype=complex)
    np.add.at(total, at, np.asarray(weights, dtype=complex)[owner] * coeffs)
    return TrigPolynomial.from_arrays(union, total, dimension)


def _phases(points, kt):
    """The (m, F) phases <x, k> for (d, F) float frequencies ``kt``, summed
    coordinate by coordinate in a fixed order, so a column's bits do not
    depend on which other columns share the call (a BLAS product's do for
    d > 1).  For d = 1 this is the one rounded product ``x @ kt``."""
    phase = points[:, 0:1] * kt[0]
    for j in range(1, points.shape[1]):
        phase += points[:, j:j + 1] * kt[j]
    return phase


def _values_on(points, freq_array, coeff_array):
    """Chunked direct summation; fixed chunk size keeps runs bit-stable.

    A 2-D coefficient array gives one column of values per column.  The
    values are ``np.exp(1j * _phases(x, k.T)) @ c`` per chunk, so a
    column's exponentials are those of its frequency alone.
    """
    if points.shape[1] != freq_array.shape[1]:
        raise DimensionMismatchError(
            f"points have dimension {points.shape[1]}, frequencies have {freq_array.shape[1]}")
    m = points.shape[0]
    shape = (m,) + coeff_array.shape[1:]
    if freq_array.shape[0] == 0:
        return np.zeros(shape, dtype=complex)
    kt = freq_array.T.astype(float)
    out = np.empty(shape, dtype=complex)
    for lo in range(0, m, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, m)
        # exp in place: one complex temporary per chunk, not two
        vals = 1j * _phases(points[lo:hi], kt)
        np.matmul(np.exp(vals, out=vals), coeff_array, out=out[lo:hi])
    return out


def _quadrature_grid_size(max_freq, grid_level, factor, offset) -> int:
    """Grid points per dimension: ``max(factor * max_freq + offset, 2**grid_level, 1)``;
    a ``grid_level`` that is not an integer >= 0 raises ``ValueError``."""
    grid_level = _integer_argument("grid_level", grid_level, 0)
    return max(factor * max_freq + offset, 2 ** grid_level, 1)


def lp_norm(f: TrigPolynomial, p: float, grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Lp norm under the normalized Lebesgue measure on the torus.

    p = 2 is computed exactly from the coefficients (Parseval).  Other p use
    a rectangle rule on an equispaced tensor grid with
    ``max(2*maxfreq + 1, 2**grid_level)`` points per dimension, which is
    exact for p = 2 and spectrally accurate otherwise.  A p that is not a
    real number >= 1, or a ``grid_level`` that is not an integer >= 0 (at
    p = 2 too), raises ``ValueError``.
    """
    p = _real_argument("p", p, 1)
    grid_level = _integer_argument("grid_level", grid_level, 0)
    if p == 2:
        return f.coefficient_l2()
    return _quadrature_lp_norm(f, p, grid_level)


def _quadrature_lp_norm(f: TrigPolynomial, p: float, grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    n = _quadrature_grid_size(f.max_component_frequency(), grid_level, 2, 1)
    grid = tensor_grid_points(n, f.dimension)
    vals = f.evaluate(grid)
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SupNormEstimate:
    """A bracket ``[value, upper]`` around the sup norm of |f|.

    ``value`` is the maximum of |f| on the equispaced grid of
    ``points_per_dim`` points per dimension, a lower estimate.  ``upper``
    holds always: every point lies within pi/N of a grid node in each
    coordinate, and by Bernstein's inequality ``||d_j f|| <= n_j ||f||``
    for the largest |k_j| = n_j in coordinate j, so ``||f|| <= value + (pi/N)
    sum_j n_j ||f||``.  While that factor is below 1, ``upper = min(sum
    |c_k|, value / (1 - (pi/N) sum_j n_j))``, else ``sum |c_k|`` (both up
    to the rounding of the grid values).
    """

    value: float
    points_per_dim: int
    oversampling: float
    upper: float


def sup_norm_info(f: TrigPolynomial, grid_level: int = DEFAULT_GRID_LEVEL) -> SupNormEstimate:
    n = _quadrature_grid_size(f.max_component_frequency(), grid_level, 8, 0)
    grid = tensor_grid_points(n, f.dimension)
    vals = f.evaluate(grid)
    value = float(np.abs(vals).max()) if vals.size else 0.0
    over = n / max(1, f.max_component_frequency())
    freqs, coeffs = f.as_arrays()
    upper = float(np.abs(coeffs).sum())
    spread = math.pi / n * float(np.abs(freqs).max(axis=0, initial=0).sum())
    if spread < 1.0:
        upper = min(upper, value / (1.0 - spread))
    return SupNormEstimate(value, n, over, upper)


def sup_norm(f: TrigPolynomial, grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Dense-grid maximum of |f| with 8x oversampling per max frequency.

    This is a lower estimate of the true uniform norm; the oversampling
    factor is recorded in :func:`sup_norm_info`.
    """
    return sup_norm_info(f, grid_level).value
