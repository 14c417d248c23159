"""Trigonometric polynomials with explicit complex coefficient maps.

A polynomial is a finite map from integer frequency vectors to complex
amplitudes; its value at x is ``sum_k c_k * exp(i <k, x>)``.  Frequencies
are kept in lexicographic order everywhere (construction, evaluation,
serialization) so results are reproducible run to run.

Norm conventions: the measure is the normalized Lebesgue measure on the
torus [0, 2*pi)^d, so the L2 norm equals the l2 norm of the coefficients
(Parseval) and all Lp quadratures are plain tensor-grid rectangle rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GridTooCoarseError
from .points import GRID_POINT_CAP, PointSet, tensor_grid_points

DEFAULT_GRID_LEVEL = 10
_EVAL_CHUNK = 8192


class TrigPolynomial:
    """Finite trigonometric polynomial ``sum_k coeffs[k] e^{i<k,x>}``."""

    __slots__ = ("coeffs", "dimension", "_arrays")

    def __init__(self, coeffs, dimension=None):
        norm = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for k, c in items:
            if isinstance(k, (int, np.integer)):
                k = (int(k),)
            else:
                k = tuple(int(v) for v in k)
            if k in norm:
                raise ValueError(f"duplicate frequency {k}")
            norm[k] = complex(c)
        if dimension is None:
            if not norm:
                raise ValueError("dimension required for the zero polynomial")
            dimension = len(next(iter(norm)))
        for k in norm:
            if len(k) != dimension:
                raise DimensionMismatchError(
                    f"frequency {k} does not have dimension {dimension}")
        self.coeffs = dict(sorted(norm.items()))
        self.dimension = int(dimension)
        self._arrays = None

    # -- basic views ------------------------------------------------------

    @property
    def support(self):
        return tuple(self.coeffs)

    def as_arrays(self):
        """(frequencies, coefficients) as arrays in lexicographic order."""
        if self._arrays is None:
            if self.coeffs:
                k = np.asarray(list(self.coeffs), dtype=np.int64)
                c = np.asarray(list(self.coeffs.values()), dtype=complex)
            else:
                k = np.zeros((0, self.dimension), dtype=np.int64)
                c = np.zeros(0, dtype=complex)
            self._arrays = (k, c)
        return self._arrays

    def max_component_frequency(self) -> int:
        k, _ = self.as_arrays()
        return int(np.abs(k).max()) if k.size else 0

    def coefficient_l2(self) -> float:
        _, c = self.as_arrays()
        return float(np.linalg.norm(c))

    # -- algebra ----------------------------------------------------------

    @classmethod
    def _from_sorted(cls, coeffs, dimension, arrays=None):
        """Wrap an already normalized, lexicographically sorted coefficient dict."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        out.dimension = dimension
        out._arrays = arrays
        return out

    def __add__(self, other):
        """Sum by merging the sorted arrays; a key only in ``other`` gets 0.0 + c."""
        if other.dimension != self.dimension:
            raise DimensionMismatchError("cannot add polynomials of different dimension")
        (ka, ca), (kb, cb) = self.as_arrays(), other.as_arrays()
        keys = np.concatenate([ka, kb])
        vals = np.concatenate([ca, cb])
        order = np.lexsort(keys.T[::-1])   # stable: of two equal keys, self's first
        keys, vals = keys[order], vals[order]
        same = (keys[1:] == keys[:-1]).all(axis=1)
        pairs = np.flatnonzero(same)
        vals[pairs] = vals[pairs] + vals[pairs + 1]
        keep = np.ones(len(keys), dtype=bool)
        keep[pairs + 1] = False
        only_other = keep & (order >= len(ka))
        vals[only_other] = 0.0 + vals[only_other]
        keys, vals = keys[keep], vals[keep]
        key_objects = [*self.coeffs, *other.coeffs]
        coeffs = dict(zip([key_objects[i] for i in order[keep].tolist()],
                          vals.tolist()))
        return TrigPolynomial._from_sorted(coeffs, self.dimension, (keys, vals))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return TrigPolynomial._from_sorted(
            {k: complex(factor * c) for k, c in self.coeffs.items()}, self.dimension)

    def __neg__(self):
        return self.scale(-1.0)

    def restrict(self, frequencies) -> "TrigPolynomial":
        keep = set(tuple(k) if not isinstance(k, int) else (k,) for k in frequencies)
        return TrigPolynomial({k: c for k, c in self.coeffs.items() if k in keep},
                              self.dimension)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, points):
        """Values at each point, summed in lexicographic frequency order."""
        arr = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points have dimension {arr.shape[1]}, polynomial has {self.dimension}")
        k, c = self.as_arrays()
        return _values_on(arr, k, c)

    def __repr__(self):
        return f"TrigPolynomial(d={self.dimension}, terms={len(self.coeffs)})"

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "dimension": self.dimension,
            "coefficients": [[list(k), float(c.real), float(c.imag)]
                             for k, c in self.coeffs.items()],
        }

    @classmethod
    def from_json(cls, obj):
        coeffs = {tuple(entry[0]): complex(entry[1], entry[2])
                  for entry in obj["coefficients"]}
        return cls(coeffs, dimension=obj["dimension"])


def _check_exponent(p):
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")


def _union_coefficients(polys, dimension):
    """Sorted union frequencies (F, d) and the (F, len(polys)) coefficient matrix."""
    freqs = sorted({k for f in polys for k in f.coeffs})
    pos = {k: i for i, k in enumerate(freqs)}
    coeff = np.zeros((len(freqs), len(polys)), dtype=complex)
    for j, f in enumerate(polys):
        for k, c in f.coeffs.items():
            coeff[pos[k], j] = c
    karr = (np.asarray(freqs, dtype=np.int64).reshape(len(freqs), dimension)
            if freqs else np.zeros((0, dimension), dtype=np.int64))
    return karr, coeff


def _values_on(points, freq_array, coeff_array):
    """Chunked direct summation; fixed chunk size keeps runs bit-stable.

    A 2-D coefficient array gives one column of values per column.
    """
    m = points.shape[0]
    shape = (m,) + coeff_array.shape[1:]
    if freq_array.shape[0] == 0:
        return np.zeros(shape, dtype=complex)
    kt = freq_array.T.astype(float)
    out = np.empty(shape, dtype=complex)
    for lo in range(0, m, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, m)
        np.matmul(np.exp(1j * (points[lo:hi] @ kt)), coeff_array, out=out[lo:hi])
    return out


def _quadrature_grid_size(f: TrigPolynomial, grid_level: int, factor: int, offset: int) -> int:
    need = factor * f.max_component_frequency() + offset
    n = max(need, 2 ** grid_level, 1)
    if n ** f.dimension > GRID_POINT_CAP:
        raise GridTooCoarseError(
            f"norm of a degree-{f.max_component_frequency()} polynomial in "
            f"dimension {f.dimension} needs {n}^{f.dimension} grid points, "
            f"above the cap {GRID_POINT_CAP}; refusing to under-resolve")
    return n


def lp_norm(f: TrigPolynomial, p: float, grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Lp norm under the normalized Lebesgue measure on the torus.

    p = 2 is computed exactly from the coefficients (Parseval).  Other p use
    a rectangle rule on an equispaced tensor grid with
    ``max(2*maxfreq + 1, 2**grid_level)`` points per dimension, which is
    exact for p = 2 and spectrally accurate otherwise.
    """
    _check_exponent(p)
    if p == 2:
        return f.coefficient_l2()
    return _quadrature_lp_norm(f, p, grid_level)


def _quadrature_lp_norm(f: TrigPolynomial, p: float, grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    n = _quadrature_grid_size(f, grid_level, factor=2, offset=1)
    grid = tensor_grid_points(n, f.dimension)
    vals = f.evaluate(grid)
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SupNormEstimate:
    """Grid maximum of |f|; a lower estimate of the true sup norm."""

    value: float
    points_per_dim: int
    oversampling: float


def sup_norm_info(f: TrigPolynomial, grid_level: int = DEFAULT_GRID_LEVEL) -> SupNormEstimate:
    n = _quadrature_grid_size(f, grid_level, factor=8, offset=0)
    grid = tensor_grid_points(n, f.dimension)
    vals = f.evaluate(grid)
    value = float(np.abs(vals).max()) if vals.size else 0.0
    over = n / max(1, f.max_component_frequency())
    return SupNormEstimate(value, n, over)


def sup_norm(f: TrigPolynomial, grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Dense-grid maximum of |f| with 8x oversampling per max frequency.

    This is a lower estimate of the true uniform norm; the oversampling
    factor is recorded in :func:`sup_norm_info`.
    """
    return sup_norm_info(f, grid_level).value
