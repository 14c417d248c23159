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
from .points import PointSet

# Filter width and refine-chunk size of the farthest-point traversal.
_SUBGRID_POINTS = 64
_REFINE_ELEMS = 1 << 16


def l1_ball_draws(n: int, count: int, seed: int, sparse_supports: bool = True):
    """Yield ``count`` seeded (support, coefficients) pairs of unit l1 mass.

    Each draw takes a random support of the n indices (all of them when
    ``sparse_supports`` is false), Dirichlet weights on it and uniform
    phases.
    """
    rng = np.random.default_rng([int(seed), 0])
    for _ in range(count):
        size = int(rng.integers(1, n + 1)) if sparse_supports else n
        support = np.sort(rng.choice(n, size=size, replace=False))
        weights = rng.dirichlet(np.ones(size))
        phases = np.exp(2j * np.pi * rng.random(size))
        yield support, weights * phases


class SampledClass:
    """Finite sample of a function class on a shared evaluation grid."""

    def __init__(self, values, grid=None, metadata=None):
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("expected a (representatives, grid) value matrix")
        self.values = values.astype(complex)
        self.grid = grid
        self.metadata = dict(metadata or {})
        self._radii = np.zeros(0)
        self._centers = np.zeros(0, dtype=np.intp)
        self._dmin2 = np.full(self.count, np.inf, dtype=np.float32)
        self._dist32 = None

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def grid_size(self) -> int:
        return self.values.shape[1]

    def distances_from(self, i: int) -> np.ndarray:
        """Uniform-metric distances from representative i to all others."""
        return np.abs(self.values - self.values[i]).max(axis=1)

    @classmethod
    def from_l1_ball(cls, dictionary: Dictionary, n_representatives: int = 4096,
                     grid_level: int = 10, seed: int = 0,
                     sparse_supports: bool = True) -> "SampledClass":
        """Sample expansions with coefficient l1 mass at most 1.

        The zero expansion is always the first representative (it belongs
        to the ball and anchors single-center covers).  Every other
        representative draws a random support (all of it when
        ``sparse_supports`` is false), Dirichlet weights on the support and
        uniform phases, so its coefficient moduli sum to one; the sample
        emphasizes the extreme shell that drives the covering structure.
        """
        n = dictionary.size
        grid = PointSet.equispaced(2 ** grid_level, dictionary.dimension)
        basis = dictionary.values_at(grid)
        coeff = np.zeros((n, n_representatives), dtype=complex)
        draws = l1_ball_draws(n, n_representatives - 1, seed, sparse_supports)
        for j, (support, c) in enumerate(draws, start=1):
            coeff[support, j] = c
        values = (basis @ coeff).T
        meta = {
            "source": "l1_coefficient_ball",
            "dictionary_size": n,
            "n_representatives": int(n_representatives),
            "grid_points": int(grid.size),
            "seed": int(seed),
            "sparse_supports": bool(sparse_supports),
            "caveats": [
                "lower estimate of the underlying class entropy (finite sample)",
                "greedy covering gives an upper-type estimate for the sampled set",
            ],
        }
        return cls(values, grid, meta)


def greedy_cover(sampled: SampledClass, eps: float) -> list:
    """Greedy farthest-point cover of the sample at radius ``eps``.

    The centers are the shortest prefix of the :func:`farthest_point_radii`
    traversal whose covering radius is at most ``eps``, so a cover and the
    entropy profile read the same numbers: at the profile's radius after t
    centers the cover has at most t centers.  Each new center is a
    representative at maximal distance from the chosen ones, ties resolved
    to the lowest index.  Distances are single precision (relative error
    near 1e-7), so the values must be finite in single precision.  When the
    cached traversal is too short, its length is doubled until the radius
    is reached; each doubling resumes the cached traversal, so no center
    step runs twice and the traversal ends shorter than twice the cover.
    """
    if not eps > 0:
        raise ValueError(f"covering radius must be positive, got {eps}")
    t = max(1, len(sampled._radii))
    while True:
        hit = np.flatnonzero(farthest_point_radii(sampled, t) <= eps)
        if hit.size:  # the full traversal ends at radius 0
            return sampled._centers[:hit[0] + 1].tolist()
        t *= 2


def _squared_moduli(re, im, c_re, c_im, out, scratch):
    """Write ``(re - c_re)^2 + (im - c_im)^2`` into ``out``; ``scratch`` is clobbered."""
    np.subtract(re, c_re, out=out)
    np.multiply(out, out, out=out)
    np.subtract(im, c_im, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    out += scratch
    return out


def farthest_point_radii(sampled: SampledClass, t_max: int) -> np.ndarray:
    """Covering radius after t greedy centers, for t = 1..t_max.

    The greedy selection order does not depend on any target radius, so
    this single traversal answers every cover-size query.  The radii, the
    center order and the nearest-center distances are cached on the sample,
    and a longer request resumes the traversal where the cache ends.
    Distances run in single precision on squared moduli (relative error
    near 1e-7), so the values must be finite in single precision.

    Each new center first updates every row on a fixed strided subgrid of
    about ``_SUBGRID_POINTS`` columns (filter); only the rows that survive
    are recomputed on the full grid, in chunks of at most
    ``_REFINE_ELEMS`` values (refine).  The subgrid values are the very
    float32 squared moduli the full row holds, so their maximum cannot
    exceed the full-row maximum: a row whose subgrid distance already
    reaches its current ``dmin2`` keeps ``dmin2`` unchanged, which is what
    the full update would give.  Radii, center order and the lowest-index
    tie rule are therefore bit-identical to an unpruned traversal.
    """
    t_max = min(int(t_max), sampled.count)
    done = len(sampled._radii)
    if done >= t_max:
        return sampled._radii[:t_max]
    if sampled._dist32 is None:
        with np.errstate(over="ignore"):  # overflow is rejected just below
            v32 = sampled.values.astype(np.complex64)
        re, im = np.ascontiguousarray(v32.real), np.ascontiguousarray(v32.imag)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("sample values must be finite in single precision")
        stride = max(1, sampled.grid_size // _SUBGRID_POINTS)
        sampled._dist32 = (re, im, np.ascontiguousarray(re[:, ::stride]),
                           np.ascontiguousarray(im[:, ::stride]))
    re, im, sub_re, sub_im = sampled._dist32
    n, g = re.shape
    dmin2 = sampled._dmin2.copy()  # the cache moves only once the steps are done
    radii2 = np.empty(t_max - done, dtype=np.float32)
    centers = np.empty(t_max - done, dtype=np.intp)
    sub_a, sub_b = np.empty_like(sub_re), np.empty_like(sub_im)
    chunk = min(n, max(1, _REFINE_ELEMS // g))
    ref_a = np.empty((chunk, g), dtype=np.float32)
    ref_b = np.empty((chunk, g), dtype=np.float32)
    for t in range(t_max - done):
        c = centers[t] = int(np.argmax(dmin2))
        sub = _squared_moduli(sub_re, sub_im, sub_re[c], sub_im[c], sub_a, sub_b)
        live = np.flatnonzero(sub.max(axis=1) < dmin2)
        for lo in range(0, live.size, chunk):
            rows = live[lo:lo + chunk]
            a, b = ref_a[:rows.size], ref_b[:rows.size]
            # "clip": rows are in range, and "raise" would copy through a buffer
            np.take(re, rows, axis=0, out=a, mode="clip")
            np.take(im, rows, axis=0, out=b, mode="clip")
            full = _squared_moduli(a, b, re[c], im[c], a, b)
            dmin2[rows] = np.minimum(dmin2[rows], full.max(axis=1))
        radii2[t] = dmin2.max()
    sampled._radii = np.concatenate([sampled._radii, np.sqrt(radii2.astype(float))])
    sampled._centers = np.concatenate([sampled._centers, centers])
    sampled._dmin2 = dmin2
    return sampled._radii


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
        if np.any(np.diff(self.eps) > 1e-12):
            raise ValueError("eps must be nonincreasing in n")

    @property
    def n_max(self) -> int:
        return self.eps.size - 1

    def eps_at(self, n: int) -> float:
        if n < 0:
            raise ValueError(f"index n must be >= 0, got {n}")
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
        if k < 0:
            raise ValueError(f"index k must be >= 0, got {k}")
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


def _eps_for_budget(sampled, budget):
    """Covering radius of the greedy cover with at most ``budget`` centers."""
    if budget >= sampled.count:
        return 0.0
    return float(farthest_point_radii(sampled, budget)[budget - 1])


def entropy_numbers(sampled: SampledClass, n_max: int) -> EntropyProfile:
    """Estimate eps_n for n = 0..n_max as greedy covering radii.

    ``eps_n`` is the covering radius after ``2^n`` farthest-point centers,
    read off one cached traversal, which is exactly the greedy cover run
    at every radius simultaneously.  Budgets of at least the sample size
    give radius zero outright.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n_reps = sampled.count
    finite = [2 ** k for k in range(n_max + 1) if 2 ** k < n_reps]
    if finite:
        farthest_point_radii(sampled, max(finite))  # one traversal, cached
    eps = np.array([_eps_for_budget(sampled, 2 ** n) for n in range(n_max + 1)])
    zero_from = math.ceil(math.log2(n_reps)) if n_reps > 1 else 0
    meta = dict(sampled.metadata)
    meta.update({"estimator": "greedy farthest-point radii", "n_max": int(n_max)})
    return EntropyProfile(eps, zero_from, meta)


def entropy_sum_flat(profile: EntropyProfile, theta: float, m: int) -> float:
    """``sum_{n=0}^{m} (n+1)^{-1/2} eps_n^theta``."""
    total = 0.0
    for n in range(m + 1):
        total += (n + 1) ** (-0.5) * profile.eps_at(n) ** theta
    return total


def entropy_sum_dyadic(profile: EntropyProfile, theta: float, m: int) -> float:
    """``sum_{k=0}^{floor(log2 m)} 2^{k/2} e_k^theta``."""
    total = 0.0
    for k in range(int(math.floor(math.log2(m))) + 1):
        total += 2.0 ** (k / 2.0) * profile.e_at(k) ** theta
    return total


def _chaining_prefactor(p: float, bound_m: float, m: int) -> float:
    if m < 1:
        raise ValueError(f"sample count m must be >= 1, got {m}")
    return p ** 2 * bound_m ** max(p / 2.0, p - 1.0) * m ** (-0.5)


def chaining_bound(profile: EntropyProfile, p: float, sup_bound: float,
                   m: int) -> float:
    """Entropy-sum functional behind the discretization-error bound.

    Evaluates ``p^2 M^{max(p/2, p-1)} m^{-1/2} sum_{n<=m} (n+1)^{-1/2}
    eps_n^{theta}`` with ``theta = min(2, p)/2`` and the absolute constant
    set to 1, so the value is meaningful up to that unknown constant.
    """
    theta = min(2.0, p) / 2.0
    return _chaining_prefactor(p, sup_bound, m) * entropy_sum_flat(profile, theta, m)


def chaining_bound_dyadic(profile: EntropyProfile, p: float, sup_bound: float,
                          m: int) -> float:
    """Dyadic form of the same functional, using the e_k ladder."""
    theta = min(2.0, p) / 2.0
    return _chaining_prefactor(p, sup_bound, m) * entropy_sum_dyadic(profile, theta, m)


def finite_dim_decay_check(sampled: SampledClass, dim: int, k0: int, k: int,
                           profile: EntropyProfile | None = None) -> bool:
    """Check ``e_k <= 3 * 2^(2^k0/dim) * e_k0 * 2^(-2^k/dim)`` on estimates.

    The left side is an upper-type estimate, so a failure flags an
    estimator bug rather than a mathematical violation.
    """
    if k <= k0:
        raise ValueError("need k > k0")
    if profile is not None:
        lhs, base = profile.e_at(k), profile.e_at(k0)
    else:
        lhs = _eps_for_budget(sampled, 2 ** (2 ** k))
        base = _eps_for_budget(sampled, 2 ** (2 ** k0))
    rhs = 3.0 * 2.0 ** (2 ** k0 / dim) * base * 2.0 ** (-(2 ** k) / dim)
    return lhs <= rhs + 1e-12


def double_exponential_tail_sum(a: float, b: float, m: int,
                                rel_tol: float = 1e-18) -> float:
    """``sum_{k >= ceil(log2 m)} (2^{ak} 2^{-2^k/m})^b`` by direct summation."""
    if a <= 0 or b <= 0 or m < 2:
        raise ValueError("need a > 0, b > 0, m >= 2")
    k = math.ceil(math.log2(m))
    total = 0.0
    while True:
        log2_term = b * (a * k - (2.0 ** k) / m)
        term = 2.0 ** log2_term if log2_term > -1000 else 0.0
        total += term
        if term <= rel_tol * max(total, 1e-300) and 2.0 ** k > m:
            break
        k += 1
    return total


def double_exponential_tail_constant(a: float, b: float) -> float:
    """Closed-form constant with tail_sum <= constant * m^(a b)."""
    ab = a * b
    return 2.0 * max(2.0 ** (ab - 1.0), 1.0) * math.gamma(ab) / (b * math.log(2.0)) ** ab
