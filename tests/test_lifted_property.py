"""Property checks of the stacked ratio kernels against the direct quadrature form.

At p = 2r the ratio of a span element f equals the p = 2 ratio of f^r in
the exponentials of the r-fold sumset.  The reference is the direct form
``_ratio_only``/``_ratio_grad``: the p-th power means of ``values @ c`` at
the nodes and on a tensor grid with ``p * maxfreq + 1`` points per
dimension, where the rectangle rule is exact for even p.  The odd and
non-integer exponents' stacked kernel computes the same form row by row.
Ratios sit around 1, so every tolerance is relative with a floor of 1; a
ratio near 0 (one node close to a zero of f) is the difference of terms of
size 1.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import RatioOptions, check_usd, subspace_ratio_bounds
from usdlab.multistart import (_abs_pow, _dual_power, _families, _multistart_extreme,
                               _normalize_rows)
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


def _ratio_only(v_emp, v_cont, c, p):
    return (np.mean(_abs_pow(v_emp @ c, p), axis=0)
            / np.mean(_abs_pow(v_cont @ c, p), axis=0))


def _ratio_grad(v_emp, v_cont, c, p):
    u = v_emp @ c
    g = v_cont @ c
    num = np.mean(_abs_pow(u, p), axis=0)
    den = np.mean(_abs_pow(g, p), axis=0)
    rho = num / den
    gnum = (p / (2.0 * v_emp.shape[0])) * (v_emp.conj().T @ _dual_power(u, p))
    gden = (p / (2.0 * v_cont.shape[0])) * (v_cont.conj().T @ _dual_power(g, p))
    grad = (gnum - gden * rho) / den
    return rho, grad


def _family(dictionary, x, p, subset):
    """The stacked kernel of one subset, and its rows' owner for n rows."""
    [(_, family)] = _families(dictionary, dictionary.values_at(x), x,
                              np.array([subset]), p, 2, {})
    return family, lambda n: np.zeros(n, dtype=np.intp)


def _margins(dictionary, points, subsets, p):
    out = np.empty(len(subsets))
    for members, family in _families(dictionary, None, points, np.array(subsets), p, 2, {}):
        out[members] = family.margin
    return out


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
    assume(np.linalg.matrix_rank(dictionary.coefficients) == v)
    lifted, owner = _family(dictionary, x, p, range(v))
    if not general:
        assert lifted.gram.shape[1] <= math.comb(v + p // 2 - 1, p // 2)
    v_emp, v_cont = _direct(dictionary, x, p)
    c = rng.standard_normal((v, 9)) + 1j * rng.standard_normal((v, 9))
    ref = _ratio_only(v_emp, v_cont, c, p)
    _, ref_grad = _ratio_grad(v_emp, v_cont, c, p)
    grad = lifted.gradient(c.T, owner(9)).T
    scale = np.maximum(1.0, np.abs(ref))
    assert (np.abs(lifted.ratio(c.T, owner(9)) - ref) <= TOL * scale).all()
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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(lo=st.integers(-4, -1), width=st.integers(1, 4), v=st.integers(2, 3),
       m=st.integers(4, 32), shift=st.integers(-50, 50), p=st.sampled_from([4, 6]),
       seed=st.integers(0, 2 ** 16))
def test_outer_windows_ignore_a_common_frequency_shift_and_point_order(
        lo, width, v, m, shift, p, seed):
    # shifting every frequency by s multiplies each lifted exponential at x
    # by e^{i r s x}, and permuting the nodes permutes the sum: either way
    # the lifted Gram is the same matrix, up to rounding; the bands start
    # below zero, so sums of both signs meet in the unshifted sumsets
    v = min(v, width + 1)
    xi = PointSet.random_uniform(m, 1, seed)
    perm = np.random.default_rng(seed).permutation(m)
    band = Dictionary.exponential_band(lo, lo + width)
    cases = [(band, xi),
             (Dictionary.exponential_band(lo + shift, lo + width + shift), xi),
             (band, PointSet.explicit(xi.points[perm]))]
    opts = RatioOptions(starts=2, max_iters=10, seed=seed % 5)
    certs = [check_usd(x, SubspaceCollection.all_subsets(d, v), p, opts)
             for d, x in cases]
    margins = [_margins(d, x.points, cert.subsets, p) for (d, x), cert in zip(cases, certs)]
    base = certs[0]
    for cert, margin in zip(certs, margins):
        assert cert.subsets == base.subsets
        for i, (a, b) in enumerate(zip(margin, margins[0])):
            # each window is the eigen extremes widened by a margin that
            # bounds their rounding, so two windows' extremes differ by at
            # most the sum of the margins
            assert abs((cert.outer_min_ratios[i] + a)
                       - (base.outer_min_ratios[i] + b)) <= a + b
            assert abs((cert.outer_max_ratios[i] - a)
                       - (base.outer_max_ratios[i] - b)) <= a + b
            assert (cert.outer_min_ratios[i] <= cert.min_ratios[i]
                    <= cert.max_ratios[i] <= cert.outer_max_ratios[i])


def test_odd_and_non_integer_exponents_carry_no_outer_window():
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(32, 1, seed=4)
    for p in (2, 3, 5, 4.5):
        res = subspace_ratio_bounds((1, 3), d, xi, p, RatioOptions(starts=2, max_iters=5))
        assert res.outer_min_ratio is None and res.outer_max_ratio is None


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 2), v=st.integers(1, 3),
       m=st.integers(1, 40), general=st.booleans(), p=st.sampled_from([3, 5, 2.5, 1.5]))
def test_quadrature_kernel_matches_the_direct_form(seed, d, v, m, general, p):
    dictionary, x, rng = _case(seed, d, v, m, general)
    family, owner = _family(dictionary, x, p, range(v))
    [(v_emp, _), (v_cont, _)] = family.stacks
    c = rng.standard_normal((v, 9)) + 1j * rng.standard_normal((v, 9))
    ref_rho, ref_grad = _ratio_grad(v_emp[0], v_cont[0], c, p)
    scale = np.maximum(1.0, np.abs(ref_rho))
    assert (np.abs(family.ratio(c.T, owner(9)) - ref_rho) <= TOL * scale).all()
    grad_scale = np.linalg.norm(ref_grad, axis=0) + scale / np.linalg.norm(c, axis=0)
    grad = family.gradient(c.T, owner(9)).T
    assert (np.linalg.norm(grad - ref_grad, axis=0) <= TOL * grad_scale).all()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 2), v=st.integers(1, 3),
       m=st.integers(1, 40), general=st.booleans(), p=st.sampled_from([3, 4, 6]))
def test_hessian_action_matches_central_differences_of_the_gradient(
        seed, d, v, m, general, p):
    # lifted kernels at p = 4, 6, the quadrature kernel at p = 3
    dictionary, x, rng = _case(seed, d, v, m, general)
    family, owner = _family(dictionary, x, p, range(v))
    c = rng.standard_normal((5, v)) + 1j * rng.standard_normal((5, v))
    xi = rng.standard_normal((5, 3, v)) + 1j * rng.standard_normal((5, 3, v))
    moved = family.hessian(c, owner(5), xi)
    scale = np.linalg.norm(family.gradient(c, owner(5)), axis=1) + np.abs(
        family.ratio(c, owner(5)))
    h = 1e-5
    for q in range(3):
        central = (family.gradient(c + h * xi[:, q], owner(5))
                   - family.gradient(c - h * xi[:, q], owner(5))) / (2.0 * h)
        err = np.linalg.norm(moved[:, q] - central, axis=1)
        assert (err <= 1e-6 * (scale + np.linalg.norm(central, axis=1))).all()


def _exact_ratio(family, c, owner):
    """The ratio of the family's rounded lift or node values at c, in
    extended precision."""
    ld = np.clongdouble
    if hasattr(family, "gram"):
        g = family._lift(c, owner)[1].astype(ld)
        gram = family.gram[owner].astype(ld)
        num = np.einsum("ks,kst,kt->k", g.conj(), gram, g).real
        return num / np.einsum("ks,ks->k", g.conj(), g).real
    means = []
    for vals, _ in family.stacks:
        u = np.einsum("kij,kj->ki", vals[owner], c).astype(ld)
        means.append(np.mean((u.real * u.real + u.imag * u.imag) ** (family.p / 2), axis=1))
    return means[0] / means[1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("p", [3, 4, 6])
def test_compare_decides_gains_below_the_rounding_of_the_ratios(p):
    # near a stationary row a step of t changes the ratio by about t^2,
    # below one ulp for t <= 1e-8; the gain must still have the sign of
    # the extended-precision difference of the two ratios
    dictionary = Dictionary.exponential_band(-3, 3)
    xi = PointSet.random_uniform(64, 1, seed=3)
    subsets = np.array([(0, 2, 5)])
    values = dictionary.values_at(xi)
    [(_, family)] = _families(dictionary, values, xi.points, subsets, p, 2, {})
    rng = np.random.default_rng(p)
    starts = rng.standard_normal((1, 2, 4, 3)) + 1j * rng.standard_normal((1, 2, 4, 3))
    _, best, _, _ = _multistart_extreme(family, _normalize_rows(starts),
                                        RatioOptions(starts=4))
    c = np.repeat(best[0], 20, axis=0)   # (ascent, descent) rows
    owner = np.zeros(len(c), dtype=np.intp)
    steps = rng.standard_normal((len(c), 3, 3)) + 1j * rng.standard_normal((len(c), 3, 3))
    cand = _normalize_rows(c[:, None] + np.array([1e-8, 3e-9, 1e-9])[:, None] * steps)
    got, gain = family.compare(c, owner, cand)
    assert np.array_equal(got, family.ratio(cand.reshape(-1, 3), np.repeat(owner, 3))
                          .reshape(got.shape))
    exact = (_exact_ratio(family, cand.reshape(-1, 3), np.repeat(owner, 3)).reshape(got.shape)
             - _exact_ratio(family, c, owner)[:, None])
    clear = np.abs(exact) > 1e-18
    assert clear.mean() > 0.5
    assert (np.sign(gain) == np.sign(exact))[clear].all()
