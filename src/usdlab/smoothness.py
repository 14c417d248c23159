"""Generators and checkers for the smoothness classes used in experiments.

Three families live here:

* the power-decay (Bernoulli) kernel ``1 + 2 sum k^{-r} cos(kx - r pi/2)``
  and unit-ball elements obtained by coefficient-wise convolution with it,
* elements with per-level Wiener-norm budgets ``2^{-aj} max(j,1)^{(d-1)b}``
  over the dyadic level decomposition,
* the mixed-difference seminorm quotient used to check Hoelder-type
  membership.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NormBudgetError
from .frequencies import _checked_level_size, frequency_levels, unrank_level
from .trigpoly import DEFAULT_GRID_LEVEL, TrigPolynomial, lp_norm

DEFAULT_KERNEL_TRUNCATION = 4096


def kernel_coefficient(k: int, r: float) -> complex:
    """Fourier coefficient of the power-decay kernel at integer frequency k.

    The value at k = 0 is 1; at k != 0 it is ``|k|^{-r} e^{-i sign(k) r pi/2}``.
    Negative frequencies carry the conjugate phase, which makes the kernel
    real valued.
    """
    if k == 0:
        return 1.0 + 0.0j
    sign = 1.0 if k > 0 else -1.0
    return abs(k) ** (-r) * cmath.exp(-1j * sign * r * math.pi / 2.0)


def bernoulli_kernel(r: float, max_freq: int = DEFAULT_KERNEL_TRUNCATION) -> TrigPolynomial:
    """Univariate power-decay kernel truncated at ``|k| <= max_freq``.

    The truncation level is recorded by the support itself (max |k| equals
    ``max_freq``).  For r > 1 the dropped tail is bounded by
    :func:`bernoulli_kernel_tail_bound`.
    """
    if r <= 0:
        raise ValueError("decay exponent r must be positive")
    if max_freq < 1:
        raise ValueError("truncation must keep at least |k| <= 1")
    ks = range(-max_freq, max_freq + 1)
    return TrigPolynomial.from_arrays(np.array(ks)[:, None],
                                      [kernel_coefficient(k, r) for k in ks], 1)


def bernoulli_kernel_tail_bound(r: float, max_freq: int) -> float:
    """Upper bound 2*K^(1-r)/(r-1) on the dropped coefficient mass, r > 1."""
    if r <= 1:
        return math.inf
    return 2.0 * max_freq ** (1.0 - r) / (r - 1.0)


def mixed_smoothness_element(phi: TrigPolynomial, r: float, q: float,
                             grid_level: int = DEFAULT_GRID_LEVEL) -> TrigPolynomial:
    """Convolve a unit-ball function with the tensor power-decay kernel.

    Coefficient-wise this multiplies ``phi_hat(k)`` by the product of the
    univariate kernel coefficients over the components of k, so the support
    of the result equals the support of ``phi``.  Requires ``||phi||_q <= 1``
    up to 1e-9.
    """
    nq = lp_norm(phi, q, grid_level)
    if nq > 1.0 + 1e-9:
        raise NormBudgetError(f"||phi||_{q} = {nq} exceeds the unit budget")
    freqs, coeffs = phi.as_arrays()
    values, at = np.unique(freqs, return_inverse=True)  # at has the shape of freqs
    kernel = np.array([kernel_coefficient(k, r) for k in values.tolist()], dtype=complex)
    return TrigPolynomial.from_arrays(freqs, coeffs * kernel[at].prod(axis=1),
                                      phi.dimension)


@dataclass(frozen=True)
class SmoothnessBudget:
    """Per-level Wiener-norm budgets ``2^{-aj} * max(j,1)^{(d-1)b}``."""

    a: float
    b: float
    d: int
    max_level: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")

    def level_budget(self, j: int) -> float:
        return 2.0 ** (-self.a * j) * max(j, 1) ** ((self.d - 1) * self.b)


def level_budget_element(budget: SmoothnessBudget, support_rule=None,
                         rng_seed: int = 0) -> TrigPolynomial:
    """Random element whose level blocks saturate their Wiener budgets.

    ``support_rule`` selects the frequencies used within each level:
    ``None`` keeps the whole level, a nonnegative integer keeps that many
    chosen uniformly at random, and a callable ``rule(candidates, level,
    rng)`` receives the whole level as a list of tuples and returns the
    list to keep.  Every rule picks lexicographic ranks below
    :func:`level_size` and unranks only those with :func:`unrank_level`;
    an integer rule draws its ranks, so it never builds a level.
    Magnitudes are scaled so the sum of coefficient moduli on every level
    equals the level budget exactly; phases are uniform.  A level whose
    selected support is empty is reported through a warning and skipped.
    """
    if not (support_rule is None or callable(support_rule)
            or (isinstance(support_rule, numbers.Integral)
                and not isinstance(support_rule, bool) and support_rule >= 0)):
        raise ValueError("support_rule must be None, a callable or an "
                         f"integer >= 0, got {support_rule!r}")
    kept = [(np.zeros((0, budget.d), dtype=np.int64), np.zeros(0))]
    for j in range(budget.max_level + 1):
        rng = np.random.default_rng([int(rng_seed), j])
        size = _checked_level_size(j, budget.d)
        if support_rule is None or callable(support_rule):
            ranks = np.arange(size)
        else:
            ranks = np.sort(rng.choice(size, size=min(support_rule, size),
                                       replace=False))
        selected = unrank_level(j, budget.d, ranks)
        if callable(support_rule):
            chosen = list(support_rule(list(map(tuple, selected.tolist())), j, rng))
            selected = np.array(chosen, dtype=np.int64).reshape(len(chosen), budget.d)
        if not len(selected):
            warnings.warn(f"level {j} has an empty support; level skipped")
            continue
        mags = rng.uniform(0.5, 1.5, size=len(selected))
        mags *= budget.level_budget(j) / mags.sum()
        phases = np.exp(2j * np.pi * rng.random(len(selected)))
        kept.append((selected, mags * phases))
    return TrigPolynomial.from_arrays(*map(np.concatenate, zip(*kept)), budget.d)


def level_a_norms(f: TrigPolynomial) -> dict:
    """Wiener norm of each dyadic level block of ``f``."""
    freqs, coeffs = f.as_arrays()
    levels = frequency_levels(freqs)
    # bincount adds in row order from 0.0, and hypot is the modulus abs() gives
    sums = np.bincount(levels, weights=np.hypot(coeffs.real, coeffs.imag))
    return {j: float(sums[j]) for j in np.unique(levels).tolist()}


def dyadic_blocks(f: TrigPolynomial) -> dict:
    """Split ``f`` into its dyadic level blocks, keyed by level."""
    freqs, coeffs = f.as_arrays()
    levels = frequency_levels(freqs)
    return {j: TrigPolynomial.from_arrays(freqs[levels == j], coeffs[levels == j],
                                          f.dimension)
            for j in np.unique(levels).tolist()}


def mixed_difference_seminorm(f: TrigPolynomial, r: float, l: int, step,
                              coords, p: float,
                              grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Quotient ``||D_t^l(e) f||_p / prod_{j in e} |t_j|^r``.

    The mixed l-th difference over the 0-based coordinate subset ``coords``
    acts on coefficients exactly: each coordinate j multiplies ``f_hat(k)``
    by ``(e^{i k_j t_j} - 1)^l``.  An empty subset is the identity, so the
    quotient degenerates to ``||f||_p``.
    """
    if l < 1:
        raise ValueError("difference order l must be >= 1")
    coords = tuple(sorted(set(int(c) for c in coords)))
    step = np.atleast_1d(np.asarray(step, dtype=float))
    for c in coords:
        if c < 0 or c >= f.dimension:
            raise ValueError(f"coordinate {c} out of range for dimension {f.dimension}")
        if step[c] == 0.0:
            raise ValueError(f"step t_{c} must be nonzero on the active coordinates")
    if not coords:
        return lp_norm(f, p, grid_level)
    freqs, coeffs = f.as_arrays()
    active = list(coords)
    factor = ((np.exp(1j * freqs[:, active] * step[active]) - 1.0) ** l).prod(axis=1)
    diff = TrigPolynomial.from_arrays(freqs, coeffs * factor, f.dimension)
    scale = 1.0
    for j in coords:
        scale *= abs(step[j]) ** r
    return lp_norm(diff, p, grid_level) / scale
