"""Generators and checkers for the smoothness classes used in experiments.

Two families live here:

* the power-decay (Bernoulli) kernel ``1 + 2 sum k^{-r} cos(kx - r pi/2)``
  and a bound on its truncated tail,
* elements with per-level Wiener-norm budgets ``2^{-aj} max(j,1)^{(d-1)b}``
  over the dyadic level decomposition, and the per-level Wiener norms of
  any polynomial.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .frequencies import _checked_level_size, frequency_levels, unrank_level
from .points import _integer_argument, _real_argument
from .trigpoly import TrigPolynomial, _unique_rows

DEFAULT_KERNEL_TRUNCATION = 4096


def kernel_coefficient(k: int, r: float) -> complex:
    """Fourier coefficient of the power-decay kernel at integer frequency k.

    The value at k = 0 is 1; at k != 0 it is ``|k|^{-r} e^{-i sign(k) r pi/2}``.
    Negative frequencies carry the conjugate phase, which makes the kernel
    real valued.
    """
    return _kernel_coefficient(_integer_argument("k", k), _real_argument("r", r, 0, strict=True))


def _kernel_coefficient(k: int, r: float) -> complex:
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
    r = _real_argument("r", r, 0, strict=True)
    max_freq = _integer_argument("max_freq", max_freq, 1)
    ks = range(-max_freq, max_freq + 1)
    return TrigPolynomial.from_arrays(np.array(ks)[:, None],
                                      [_kernel_coefficient(k, r) for k in ks], 1)


def bernoulli_kernel_tail_bound(r: float, max_freq: int) -> float:
    """Upper bound 2*K^(1-r)/(r-1) on the dropped coefficient mass, r > 1."""
    r = _real_argument("r", r, 0, strict=True)
    max_freq = _integer_argument("max_freq", max_freq, 1)
    if r <= 1:
        return math.inf
    return 2.0 * max_freq ** (1.0 - r) / (r - 1.0)


@dataclass(frozen=True)
class SmoothnessBudget:
    """Per-level Wiener-norm budgets ``2^{-aj} * max(j,1)^{(d-1)b}``."""

    a: float
    b: float
    d: int
    max_level: int

    def __post_init__(self):
        for name, least in (("a", 0), ("b", -math.inf)):
            object.__setattr__(self, name, _real_argument(name, getattr(self, name), least))
        for name, least in (("d", 1), ("max_level", 0)):
            object.__setattr__(self, name, _integer_argument(name, getattr(self, name), least))

    def level_budget(self, j: int) -> float:
        return 2.0 ** (-self.a * j) * max(j, 1) ** ((self.d - 1) * self.b)


def level_budget_element(budget: SmoothnessBudget, support_rule=None,
                         rng_seed: int = 0) -> TrigPolynomial:
    """Random element whose level blocks saturate their Wiener budgets.

    ``support_rule`` selects the frequencies used within each level:
    ``None`` keeps the whole level, and a nonnegative integer keeps that
    many chosen uniformly at random.  Either rule picks lexicographic ranks
    below :func:`level_size` and unranks only those with
    :func:`unrank_level`; an integer rule draws its ranks, so it never
    builds a level.
    Magnitudes are scaled so the sum of coefficient moduli on every level
    equals the level budget exactly; phases are uniform.  A level whose
    selected support is empty is reported through a warning and skipped.
    """
    if not (support_rule is None
            or (isinstance(support_rule, numbers.Integral)
                and not isinstance(support_rule, bool) and support_rule >= 0)):
        raise ValueError(f"support_rule must be None or an integer >= 0, got {support_rule!r}")
    rng_seed = _integer_argument("rng_seed", rng_seed, 0)
    kept = [(np.zeros((0, budget.d), dtype=np.int64), np.zeros(0))]
    for j in range(budget.max_level + 1):
        rng = np.random.default_rng([rng_seed, j])
        size = _checked_level_size(j, budget.d)
        if support_rule is None:
            ranks = np.arange(size)
        else:
            ranks = np.sort(rng.choice(size, size=min(support_rule, size),
                                       replace=False))
        selected = unrank_level(j, budget.d, ranks)
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
    present = _unique_rows(levels)[0]
    return {j: float(sums[j]) for j in present.tolist()}
