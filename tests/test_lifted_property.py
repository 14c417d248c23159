"""Property checks of the lifted even-p ratio against the direct quadrature form.

At p = 2r the ratio of a span element f equals the p = 2 ratio of f^r in
the exponentials of the r-fold sumset.  The reference is the direct form
that the odd and non-integer exponents still use: the p-th power means of
``values @ c`` at the nodes and on a tensor grid with ``p * maxfreq + 1``
points per dimension, where the rectangle rule is exact for even p.  Ratios
sit around 1, so every tolerance is relative with a floor of 1; a ratio
near 0 (one node close to a zero of f) is the difference of terms of size 1.
"""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary
from usdlab.discretization import (RatioOptions, _LiftedRatio, _ratio_grad,
                                   _ratio_only, subspace_ratio_bounds)
from usdlab.points import PointSet, tensor_grid_points
from usdlab.trigpoly import TrigPolynomial, _quadrature_grid_size

TOL = 1e-12


def _case(seed, d, v, m, general):
    """v monomials with distinct frequencies, or v polynomials of 1-3 terms
    with complex coefficients, in d dimensions, and m uniform nodes."""
    rng = np.random.default_rng(seed)
    if general:
        elements = []
        for _ in range(v):
            keys = {tuple(rng.integers(-4, 5, size=d).tolist())
                    for _ in range(int(rng.integers(1, 4)))}
            elements.append(TrigPolynomial(
                {k: complex(*rng.standard_normal(2)) for k in keys}, d))
    else:
        keys = set()
        while len(keys) < v:
            keys.add(tuple(rng.integers(-4, 5, size=d).tolist()))
        elements = [TrigPolynomial({k: 1.0}, d) for k in sorted(keys)]
    bound = max(sum(map(abs, e.coeffs.values())) for e in elements)
    dictionary = Dictionary(elements, uniform_bound=bound)
    x = rng.uniform(0.0, 2.0 * np.pi, size=(m, d))
    return dictionary, x, rng


def _direct(dictionary, x, p):
    """(values at the nodes, values on the exact quadrature grid)."""
    n = _quadrature_grid_size(dictionary.max_component_frequency(), 0, p, 1)
    grid = tensor_grid_points(n, dictionary.dimension)
    return dictionary.values_at(x), dictionary.values_at(grid)


def _sphere(rng, v, count):
    c = rng.standard_normal((v, count)) + 1j * rng.standard_normal((v, count))
    return c / np.linalg.norm(c, axis=0)


cases = dict(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 2),
             v=st.integers(1, 3), m=st.integers(1, 40), general=st.booleans(),
             p=st.sampled_from([4, 6]))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(**cases)
def test_lifted_ratio_and_gradient_match_the_quadrature(seed, d, v, m, general, p):
    dictionary, x, rng = _case(seed, d, v, m, general)
    freqs, coeffs = dictionary.frequencies, dictionary.coefficients
    assume(np.linalg.matrix_rank(coeffs) == v)
    lifted = _LiftedRatio(freqs, coeffs, x, p // 2)
    if not general:
        assert len(lifted.gram) <= math.comb(v + p // 2 - 1, p // 2)
    v_emp, v_cont = _direct(dictionary, x, p)
    c = rng.standard_normal((v, 9)) + 1j * rng.standard_normal((v, 9))
    ref = _ratio_only(v_emp, v_cont, c, p)
    ref_rho, ref_grad = _ratio_grad(v_emp, v_cont, c, p)
    rho, grad = lifted.ratio_grad(c)
    scale = np.maximum(1.0, np.abs(ref))
    assert (np.abs(lifted.ratio(c) - ref) <= TOL * scale).all()
    assert (np.abs(rho - ref_rho) <= TOL * scale).all()
    # the gradient of a ratio of degree-p forms scales like ratio / |c|
    grad_scale = np.linalg.norm(ref_grad, axis=0) + scale / np.linalg.norm(c, axis=0)
    assert (np.linalg.norm(grad - ref_grad, axis=0) <= TOL * grad_scale).all()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(**cases)
def test_outer_window_contains_the_multistart_window_and_every_sample(
        seed, d, v, m, general, p):
    dictionary, x, rng = _case(seed, d, v, m, general)
    coeffs = dictionary.coefficients
    assume(np.linalg.cond(coeffs) < 1e4)
    res = subspace_ratio_bounds(range(v), dictionary, PointSet.explicit(x), p,
                                RatioOptions(starts=4, max_iters=40, seed=seed % 7))
    assert res.outer_min_ratio <= res.min_ratio <= res.max_ratio <= res.outer_max_ratio
    v_emp, v_cont = _direct(dictionary, x, p)
    samples = _ratio_only(v_emp, v_cont, _sphere(rng, v, 300), p)
    slack = TOL * np.maximum(1.0, samples)   # the samples' own rounding
    assert (samples >= res.outer_min_ratio - slack).all()
    assert (samples <= res.outer_max_ratio + slack).all()


def test_odd_and_non_integer_exponents_carry_no_outer_window():
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(32, 1, seed=4)
    for p in (2, 3, 5, 4.5):
        res = subspace_ratio_bounds((1, 3), d, xi, p, RatioOptions(starts=2, max_iters=5))
        assert res.outer_min_ratio is None and res.outer_max_ratio is None
