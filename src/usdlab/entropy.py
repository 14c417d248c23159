"""Covering-radius estimation and the entropy-sum bound arithmetic.

Function classes are represented by finite samples on a shared dense grid
with the uniform (max-abs) metric.  The resulting profile is a lower
estimate of the underlying class entropy and a greedy upper-type estimate
for the sampled set itself; both caveats are recorded in the profile
metadata.

The index convention follows the covering-number ladder: ``eps_n`` allows
``2^n`` centers, and the doubly exponential sequence ``e_k`` is read off as
``e_0 = eps_0`` and ``e_k = eps_{2^k}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary
from .errors import ProfileTooShortError
from .points import PointSet, _integer_argument, _real_argument

# Pruning ladder of the farthest-point traversal: about this many strided
# grid columns per level, coarsest first (the full grid is the last level),
# and the most values a level after the first gathers at once.
_LADDER_POINTS = (8, 64)
_REFINE_ELEMS = 1 << 16
# rows per block of the single-precision cast of a sample's values
_CAST_ROWS = 64


def l1_ball_draws(n: int, count: int, seed: int):
    """Yield ``count`` seeded (support, coefficients) pairs of unit l1 mass.

    Each draw takes a random support of the n indices, of a uniform size in
    1..n, Dirichlet weights on it and uniform phases; ``seed`` is an int >= 0.
    """
    rng = np.random.default_rng([_integer_argument("seed", seed, 0), 0])
    for _ in range(count):
        size = int(rng.integers(1, n + 1))
        support = np.sort(rng.choice(n, size=size, replace=False))
        weights = rng.dirichlet(np.ones(size))
        phases = np.exp(2j * np.pi * rng.random(size))
        yield support, weights * phases


def _drawn_block(basis, draws, lo, hi):
    """``basis @ coeff`` for representatives lo..hi-1, their coefficients
    the next ones of the ``draws`` stream (representative 0 is zero)."""
    coeff = np.zeros((basis.shape[1], hi - lo), dtype=complex)
    for j in range(lo == 0, hi - lo):
        support, c = next(draws)
        coeff[support, j] = c
    return (basis @ coeff).T


class SampledClass:
    """Finite sample of a function class on a shared evaluation grid.

    Held once, at 8 B per value, as ``planes``: C-ordered float32 real and
    imaginary parts (2, count, grid_size), cast from ``values`` (finite in
    single precision; not kept) in blocks of ``_CAST_ROWS`` rows."""

    def __init__(self, values, grid=None, metadata=None):
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("expected a (representatives, grid) value matrix")
        self._fill(values.shape, lambda lo, hi: values[lo:hi].astype(complex, copy=False),
                   grid, metadata)

    def _fill(self, shape, rows, grid, metadata):
        """Cast the complex blocks ``rows(lo, hi)`` into the planes."""
        self.planes = re, im = np.empty((2, *shape), dtype=np.float32)
        with np.errstate(over="ignore"):  # overflow is rejected just below
            for lo in range(0, shape[0], _CAST_ROWS):
                hi = min(lo + _CAST_ROWS, shape[0])
                block = rows(lo, hi)
                re[lo:hi], im[lo:hi] = block.real, block.imag
                if not np.isfinite(self.planes[:, lo:hi]).all():
                    raise ValueError("sample values must be finite in single precision")
        self.count, self.grid_size = shape
        self.grid = grid
        self.metadata = dict(metadata or {})
        return self

    @classmethod
    def from_l1_ball(cls, dictionary: Dictionary, n_representatives: int = 4096,
                     grid_level: int = 10, seed: int = 0) -> "SampledClass":
        """Sample expansions with coefficient l1 mass at most 1.

        The zero expansion is always the first representative (it belongs
        to the ball and anchors single-center covers).  Every other
        representative is an ``l1_ball_draws`` draw: a random sparse
        support, Dirichlet weights on it and uniform phases, so its
        coefficient moduli sum to one; the sample emphasizes the extreme
        shell that drives the covering structure.  The planes are filled
        in blocks of ``_CAST_ROWS`` representatives, each block from
        ``basis @ coeff`` over only its own coefficients, drawn as it is cast.
        Counts that are not integers (``n_representatives`` >= 1,
        ``grid_level`` and ``seed`` >= 0) raise ``ValueError``.
        """
        n = dictionary.size
        n_representatives = _integer_argument("n_representatives", n_representatives, 1)
        grid_level = _integer_argument("grid_level", grid_level, 0)
        seed = _integer_argument("seed", seed, 0)
        grid = PointSet.equispaced(2 ** grid_level, dictionary.dimension)
        basis = dictionary.values_at(grid)
        draws = l1_ball_draws(n, n_representatives - 1, seed)
        meta = {
            "source": "l1_coefficient_ball",
            "dictionary_size": n,
            "n_representatives": n_representatives,
            "grid_points": int(grid.size),
            "seed": seed,
            "sparse_supports": True,
            "caveats": [
                "lower estimate of the underlying class entropy (finite sample)",
                "greedy covering gives an upper-type estimate for the sampled set",
            ],
        }
        return cls.__new__(cls)._fill((n_representatives, grid.size),
                                      lambda lo, hi: _drawn_block(basis, draws, lo, hi), grid, meta)


def _squared_moduli(re, im, c_re, c_im, out, scratch):
    """Write ``(re - c_re)^2 + (im - c_im)^2`` into ``out``; ``scratch`` is clobbered."""
    np.subtract(re, c_re, out=out)
    np.multiply(out, out, out=out)
    np.subtract(im, c_im, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    out += scratch
    return out


def _ladder_levels(re, im):
    """Float32 real and imaginary planes of every level of the pruning ladder.

    Level i keeps every ``max(1, g // _LADDER_POINTS[i])``-th column of the
    sample's g-column planes, and the ladder ends with the planes themselves,
    no copy (or at the first level that already keeps every column).  The
    first level is stored column-major, shape (columns, rows), so its row
    maxima are one reduction across a few rows; the later ones row-major,
    so surviving rows gather contiguously.
    """
    strides = [max(1, re.shape[1] // w) for w in _LADDER_POINTS]
    strides = strides[:strides.index(1) + 1] if 1 in strides else strides + [1]
    levels = [(np.ascontiguousarray(re[:, ::s]), np.ascontiguousarray(im[:, ::s]))
              for s in strides]
    levels[0] = tuple(np.ascontiguousarray(plane.T) for plane in levels[0])
    return levels


def farthest_point_radii(sampled: SampledClass, t_max: int) -> np.ndarray:
    """Covering radius after t greedy centers, for t = 1..t_max.

    The greedy selection order does not depend on any target radius, so
    one traversal answers every cover-size query: the first center is
    representative 0, and each next one is a representative at maximal
    distance from the chosen ones, ties resolved to the lowest index.  The
    call keeps nothing on the sample; each call traverses from the first
    center.  Distances run in single precision on squared moduli (relative
    error near 1e-7), so the values must be finite in single precision.

    Each new center runs a ladder of strided column subsets (about
    ``_LADDER_POINTS`` columns each, then the full grid).  The first level
    updates every row; each later level recomputes only the rows that
    survived the level before it, in chunks of at most ``_REFINE_ELEMS``
    values.  Every level's values are the very float32 squared moduli the
    full row holds, so a partial maximum cannot exceed the full-row
    maximum: a row whose partial maximum already reaches its current
    ``dmin2`` keeps ``dmin2`` unchanged, which is what the full update
    would give, whether or not the levels' columns nest.  Radii, center
    order and the lowest-index tie rule are therefore bit-identical to an
    unpruned traversal.
    """
    t_max = min(_integer_argument("t_max", t_max, 0), sampled.count)
    (first_re, first_im), *later = _ladder_levels(*sampled.planes)
    n = sampled.count
    dmin2 = np.full(n, np.inf, dtype=np.float32)
    radii2 = np.empty(t_max, dtype=np.float32)
    first_a, first_b = np.empty_like(first_re), np.empty_like(first_im)
    bufs = []  # per later level: two (chunk rows, columns) gather buffers
    for re, _ in later:
        chunk = min(n, max(1, _REFINE_ELEMS // re.shape[1]))
        bufs.append(np.empty((2, chunk, re.shape[1]), dtype=np.float32))
    c = 0  # one argmax a step: next center and radius
    for t in range(t_max):
        sq = _squared_moduli(first_re, first_im, first_re[:, c, None],
                             first_im[:, c, None], first_a, first_b)
        part = np.maximum.reduce(sq, axis=0)
        live = np.flatnonzero(part < dmin2)
        part = part if later else part[live]  # a later level rebuilds part
        for (re, im), buf in zip(later, bufs):
            chunk = buf.shape[1]
            part = np.empty(live.size, dtype=np.float32)
            for lo in range(0, live.size, chunk):
                rows = live[lo:lo + chunk]
                a, b = buf[0, :rows.size], buf[1, :rows.size]
                # "clip": rows are in range, and "raise" would copy through a buffer
                np.take(re, rows, axis=0, out=a, mode="clip")
                np.take(im, rows, axis=0, out=b, mode="clip")
                sq = _squared_moduli(a, b, re[c], im[c], a, b)
                np.max(sq, axis=1, out=part[lo:lo + rows.size])
            keep = part < dmin2[live]
            live, part = live[keep], part[keep]
        dmin2[live] = part
        c = int(np.argmax(dmin2))
        radii2[t] = dmin2[c]
    return np.sqrt(radii2.astype(float))


@dataclass
class EntropyProfile:
    """Estimates eps_n for n = 0..n_max plus the dyadic e_k readout."""

    eps: np.ndarray
    zero_from: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        if self.eps.ndim != 1 or self.eps.size < 1:
            raise ValueError("expected a 1-d eps sequence")
        if not np.isfinite(self.eps).all() or self.eps.min() < 0:
            raise ValueError("eps must be finite and non-negative")
        if np.any(np.diff(self.eps) > 1e-12):
            raise ValueError("eps must be nonincreasing in n")

    @property
    def n_max(self) -> int:
        return self.eps.size - 1

    def eps_at(self, n: int) -> float:
        n = _integer_argument("n", n, 0)
        if n <= self.n_max:
            return float(self.eps[n])
        if self.zero_from is not None and n >= self.zero_from:
            return 0.0
        raise ProfileTooShortError(
            f"profile covers n <= {self.n_max} but n = {n} was requested")

    def e_sequence(self) -> list:
        """``e_0 = eps_0`` and ``e_k = eps_{2^k}`` while indices fit."""
        out = [float(self.eps[0])]
        k = 1
        while 2 ** k <= self.n_max:
            out.append(float(self.eps[2 ** k]))
            k += 1
        return out

    def e_at(self, k: int) -> float:
        k = _integer_argument("k", k, 0)
        return self.eps_at(0) if k == 0 else self.eps_at(2 ** k)

    def to_csv_rows(self):
        return [(n, float(v)) for n, v in enumerate(self.eps)]

    def to_json(self):
        return {
            "eps": [float(v) for v in self.eps],
            "e_k": self.e_sequence(),
            "zero_from": self.zero_from,
            "metadata": self.metadata,
        }

    @classmethod
    def from_values(cls, eps, zero_from=None, metadata=None):
        return cls(np.asarray(eps, dtype=float), zero_from, dict(metadata or {}))


def entropy_numbers(sampled: SampledClass, n_max: int) -> EntropyProfile:
    """Estimate eps_n for n = 0..n_max as greedy covering radii.

    ``eps_n`` is the covering radius after ``2^n`` farthest-point centers,
    ``radii[2^n - 1]`` of one :func:`farthest_point_radii` traversal as
    long as the largest budget below the sample size, which is exactly the
    greedy cover run at every radius simultaneously.  Budgets of at least
    the sample size give radius zero outright.
    """
    n_max = _integer_argument("n_max", n_max, 0)
    n_reps = sampled.count
    finite = [2 ** n for n in range(n_max + 1) if 2 ** n < n_reps]
    radii = farthest_point_radii(sampled, finite[-1] if finite else 0)
    eps = np.array([radii[b - 1] for b in finite] + [0.0] * (n_max + 1 - len(finite)))
    zero_from = math.ceil(math.log2(n_reps)) if n_reps > 1 else 0
    meta = dict(sampled.metadata)
    meta.update({"estimator": "greedy farthest-point radii", "n_max": int(n_max)})
    return EntropyProfile(eps, zero_from, meta)


def entropy_sum_flat(profile: EntropyProfile, theta: float, m: int) -> float:
    """``sum_{n=0}^{m} (n+1)^{-1/2} eps_n^theta``."""
    theta, m = _real_argument("theta", theta, 0), _integer_argument("m", m, 0)
    total = 0.0
    for n in range(m + 1):
        total += (n + 1) ** (-0.5) * profile.eps_at(n) ** theta
    return total


def entropy_sum_dyadic(profile: EntropyProfile, theta: float, m: int) -> float:
    """``sum_{k=0}^{floor(log2 m)} 2^{k/2} e_k^theta``."""
    theta, m = _real_argument("theta", theta, 0), _integer_argument("m", m, 1)
    total = 0.0
    for k in range(int(math.floor(math.log2(m))) + 1):
        total += 2.0 ** (k / 2.0) * profile.e_at(k) ** theta
    return total


def _chaining_terms(p, sup_bound, m) -> tuple:
    """``theta = min(2, p)/2``, the prefactor ``p^2 M^{max(p/2, p-1)}
    m^{-1/2}`` and m, from checked arguments."""
    p = _real_argument("p", p, 1)
    sup_bound = _real_argument("sup_bound", sup_bound, 0, strict=True)
    m = _integer_argument("m", m, 1)
    return min(2.0, p) / 2.0, p ** 2 * sup_bound ** max(p / 2.0, p - 1.0) * m ** (-0.5), m


def chaining_bound(profile: EntropyProfile, p: float, sup_bound: float,
                   m: int) -> float:
    """Entropy-sum functional behind the discretization-error bound.

    Evaluates ``p^2 M^{max(p/2, p-1)} m^{-1/2} sum_{n<=m} (n+1)^{-1/2}
    eps_n^{theta}`` with ``theta = min(2, p)/2`` and the absolute constant
    set to 1, so the value is meaningful up to that unknown constant.
    """
    theta, prefactor, m = _chaining_terms(p, sup_bound, m)
    return prefactor * entropy_sum_flat(profile, theta, m)


def chaining_bound_dyadic(profile: EntropyProfile, p: float, sup_bound: float,
                          m: int) -> float:
    """Dyadic form of the same functional, using the e_k ladder."""
    theta, prefactor, m = _chaining_terms(p, sup_bound, m)
    return prefactor * entropy_sum_dyadic(profile, theta, m)


def double_exponential_tail_sum(a: float, b: float, m: int) -> float:
    """``sum_{k >= ceil(log2 m)} (2^{ak} 2^{-2^k/m})^b`` by direct summation."""
    a, b = _real_argument("a", a, 0, strict=True), _real_argument("b", b, 0, strict=True)
    m = _integer_argument("m", m, 2)
    k = math.ceil(math.log2(m))
    total = 0.0
    while True:
        log2_term = b * (a * k - (2.0 ** k) / m)
        term = 2.0 ** log2_term if log2_term > -1000 else 0.0
        total += term
        if term <= 1e-18 * max(total, 1e-300) and 2.0 ** k > m:
            break
        k += 1
    return total


def double_exponential_tail_constant(a: float, b: float) -> float:
    """Closed-form constant with tail_sum <= constant * m^(a b)."""
    a, b = _real_argument("a", a, 0, strict=True), _real_argument("b", b, 0, strict=True)
    ab = a * b
    return 2.0 * max(2.0 ** (ab - 1.0), 1.0) * math.gamma(ab) / (b * math.log(2.0)) ** ab
