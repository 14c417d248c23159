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
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .points import PointSet, tensor_grid_points

DEFAULT_GRID_LEVEL = 10
_EVAL_CHUNK = 8192


class TrigPolynomial:
    """Finite trigonometric polynomial ``sum_k coeffs[k] e^{i<k,x>}``."""

    __slots__ = ("dimension", "_freqs", "_coeffs", "_mapping")

    def __init__(self, coeffs, dimension=None):
        items = list(coeffs.items() if hasattr(coeffs, "items") else coeffs)
        keys = [(int(k),) if isinstance(k, (int, np.integer))
                else tuple(int(v) for v in k) for k, _ in items]
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

    def restrict(self, frequencies) -> "TrigPolynomial":
        """The terms whose frequency is among ``frequencies`` (given without repeats)."""
        query = TrigPolynomial([(k, 0.0) for k in frequencies], self.dimension)
        _, at, owner, _ = _stack([self, query], self.dimension)
        keep = np.isin(at[owner == 0], at[owner == 1])
        return TrigPolynomial.from_arrays(self._freqs[keep], self._coeffs[keep],
                                          self.dimension)

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


def _check_exponent(p):
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")


def _stack(polys, dimension):
    """The sorted union (F, d) of the frequencies of ``polys`` and, for every
    term of every polynomial in turn, its union row, its polynomial's index
    and its coefficient."""
    pairs = [f.as_arrays() for f in polys]
    pairs.append((np.zeros((0, dimension), dtype=np.int64), np.zeros(0)))  # never empty
    freqs = np.concatenate([k for k, _ in pairs])
    order = np.lexsort(freqs.T[::-1])   # several times faster than np.unique(axis=0)
    new = np.ones(len(freqs), dtype=bool)
    new[1:] = (freqs[order[1:]] != freqs[order[:-1]]).any(axis=1)
    union, at = freqs[order[new]], np.empty(len(freqs), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
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


class _HalfSpectrum(NamedTuple):
    """The k <-> -k map of a one-column frequency array as column selectors.

    ``direct`` selects the rows that are exponentiated: k > 0 and every
    k < 0 without a mirror.  Row ``mirror[i]`` is the negation of direct row
    number ``source[i]``; ``zero`` selects the k = 0 row, if any.  A
    selector that steps by +1 or -1 is a slice, so a sorted set closed
    under negation is filled by strided block copies.
    """

    direct: object
    mirror: object
    source: object
    zero: np.ndarray


_PLAIN = _HalfSpectrum(*[np.zeros(0, dtype=np.intp)] * 4)   # exponentiate every column


def _run(idx):
    """``idx`` as a slice when it steps by +1 or -1 throughout, else as is."""
    if len(idx) > 1:
        step = int(idx[1] - idx[0])
        if abs(step) == 1 and (np.diff(idx) == step).all():
            stop = int(idx[-1]) + step
            return slice(int(idx[0]), stop if stop >= 0 else None, step)
    return idx


def _half_spectrum(freqs):
    """The k <-> -k map of an (n, d) int64 frequency array without repeated
    rows, or ``_PLAIN`` where no row is mirrored or d > 1.  The coordinate
    sum of ``_phases`` would make the mirror exact for d > 1 too; d > 1 stays
    plain only because no workload measures it."""
    if freqs.shape[1] != 1:
        return _PLAIN
    k = freqs[:, 0]
    order = np.argsort(k)
    partner = order[np.searchsorted(k, -k, sorter=order).clip(max=len(k) - 1)]
    mirrored = (k < 0) & (k[partner] == -k)
    if not mirrored.any():
        return _PLAIN
    direct = ~mirrored & (k != 0)
    return _HalfSpectrum(_run(np.flatnonzero(direct)), _run(np.flatnonzero(mirrored)),
                         _run((np.cumsum(direct) - 1)[partner[mirrored]]),
                         np.flatnonzero(k == 0))


def _phases(points, kt):
    """The (m, F) phases <x, k> for (d, F) float frequencies ``kt``, summed
    coordinate by coordinate in a fixed order, so a column's bits do not
    depend on which other columns share the call (a BLAS product's do for
    d > 1).  For d = 1 this is the one rounded product ``x @ kt``."""
    phase = points[:, 0:1] * kt[0]
    for j in range(1, points.shape[1]):
        phase += points[:, j:j + 1] * kt[j]
    return phase


def _values_on(points, freq_array, coeff_array, halves=None):
    """Chunked direct summation; fixed chunk size keeps runs bit-stable.

    A 2-D coefficient array gives one column of values per column.  The
    values are byte-equal to ``np.exp(1j * _phases(x, k.T)) @ c`` per chunk
    at finite points, so a column's exponentials are those of its
    frequency alone.  ``halves`` is ``_half_spectrum(freq_array)``, built
    here when not given; a single row takes the plain product without a map.

    Under a map, only the direct columns are exponentiated.  A mirror
    column is (re, 0.0 - im) of its partner's, which is bitwise ``exp`` at
    the negated phase: for d = 1 each phase is one rounded product, so the
    mirror phase is exactly the negated partner phase, cos is even, and
    ``0.0 - sin(y)`` is ``sin(-y)`` except at y = 0, where ``exp`` returns
    +0.0 for either sign.  The k = 0 column is 1.
    """
    if points.shape[1] != freq_array.shape[1]:
        raise DimensionMismatchError(
            f"points have dimension {points.shape[1]}, frequencies have {freq_array.shape[1]}")
    m = points.shape[0]
    shape = (m,) + coeff_array.shape[1:]
    if freq_array.shape[0] == 0:
        return np.zeros(shape, dtype=complex)
    if halves is None:
        halves = _half_spectrum(freq_array) if freq_array.shape[0] > 1 else _PLAIN
    kt = freq_array.T.astype(float)
    if halves is not _PLAIN:
        kt = np.ascontiguousarray(kt[:, halves.direct])
        # C order, so the product sums each row as for the plain matrix
        z = np.empty((min(m, _EVAL_CHUNK), freq_array.shape[0]), dtype=complex)
        z[:, halves.zero] = 1
    out = np.empty(shape, dtype=complex)
    for lo in range(0, m, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, m)
        if halves is _PLAIN:
            vals = np.exp(1j * _phases(points[lo:hi], kt))
        else:
            e = 1j * _phases(points[lo:hi], kt)
            np.exp(e, out=e)
            vals = z[:hi - lo]
            vals[:, halves.direct] = e
            vals.real[:, halves.mirror] = e.real[:, halves.source]
            vals.imag[:, halves.mirror] = 0.0 - e.imag[:, halves.source]
        np.matmul(vals, coeff_array, out=out[lo:hi])
    return out


def _quadrature_grid_size(max_freq, grid_level, factor, offset) -> int:
    """Grid points per dimension: ``max(factor * max_freq + offset, 2**grid_level, 1)``."""
    return max(factor * max_freq + offset, 2 ** grid_level, 1)


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
    n = _quadrature_grid_size(f.max_component_frequency(), grid_level, 2, 1)
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
    n = _quadrature_grid_size(f.max_component_frequency(), grid_level, 8, 0)
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
