import math

import numpy as np
import pytest

from usdlab.dictionary import (Dictionary, SubspaceCollection,
                               nikolskii_ratio_estimate)
from usdlab.errors import NormBudgetError
from usdlab.frequencies import hyperbolic_cross
from usdlab.points import PointSet
from usdlab.trigpoly import TrigPolynomial, _union_coefficients


def test_exponential_band_basics():
    d = Dictionary.exponential_band(-3, 3)
    assert d.size == 7
    assert d.uniform_bound == 1.0
    assert d.riesz_constant == 1.0
    assert d.max_component_frequency() == 3


def test_uniform_bound_checked_on_construction():
    spike = TrigPolynomial({(k,): 1.0 for k in range(-2, 3)})  # sup is 5
    with pytest.raises(NormBudgetError):
        Dictionary([spike], uniform_bound=1.0)
    Dictionary([spike], uniform_bound=5.0)  # fine


def test_values_matrix_shape_and_content():
    d = Dictionary.exponential_band(-1, 1)
    xi = PointSet.explicit(np.array([0.0, np.pi / 2]))
    vals = d.values_at(xi)
    assert vals.shape == (2, 3)
    assert vals[0] == pytest.approx([1.0, 1.0, 1.0])
    assert vals[1] == pytest.approx([np.exp(-1j * np.pi / 2), 1.0,
                                     np.exp(1j * np.pi / 2)])


def test_continuous_gram_orthonormal_identity():
    d = Dictionary.exponential_band(-4, 4)
    gram = d.continuous_gram([0, 3, 8])
    assert np.allclose(gram, np.eye(3), atol=1e-15)


def coefficient_gram(d, indices):
    """Reference: the Gram built from the coefficient matrix."""
    _, b = _union_coefficients([d.elements[i] for i in indices], d.dimension)
    return b.conj().T @ b


def test_identity_gram_equals_the_coefficient_gram():
    for d in (Dictionary.exponential_band(-4, 4),
              Dictionary.exponentials(hyperbolic_cross(3, 2))):
        assert d.orthonormal_monomials
        for idx in ([0, 3, 8], [5], list(range(d.size)), [8, 2, 6]):
            gram = d.continuous_gram(idx)
            assert gram.dtype == complex
            assert np.array_equal(gram, coefficient_gram(d, idx))
        assert np.array_equal(d.continuous_gram(), np.eye(d.size))


def test_only_distinct_unit_monomials_get_the_identity():
    e = [TrigPolynomial({(k,): 1.0}) for k in (0, 1, 2)]
    assert not Dictionary(e + [TrigPolynomial({(1,): 1.0})], 1.0).orthonormal_monomials
    assert not Dictionary(e + [TrigPolynomial({(3,): 1j})], 1.0).orthonormal_monomials
    assert not Dictionary(e + [TrigPolynomial({(3,): 0.5})], 1.0).orthonormal_monomials
    two = TrigPolynomial({(3,): 0.5, (4,): 0.5})
    assert not Dictionary(e + [two], 1.0).orthonormal_monomials
    d = Dictionary(e, 1.0)
    assert d.orthonormal_monomials
    # a repeated index is dependent: the Gram comes from the coefficients
    gram = d.continuous_gram([1, 1])
    assert np.array_equal(gram, np.ones((2, 2)))


def test_continuous_gram_general_elements():
    g1 = TrigPolynomial({0: 1.0, 1: 0.5})
    g2 = TrigPolynomial({1: 1.0})
    d = Dictionary([g1, g2], uniform_bound=2.0)
    gram = d.continuous_gram()
    # <g1, g1> = 1.25, <g1, g2> has the cross coefficient 0.5
    assert gram[0, 0] == pytest.approx(1.25)
    assert gram[0, 1] == pytest.approx(0.5)
    assert gram[1, 0] == pytest.approx(0.5)
    c = np.array([1.0 + 0.5j, -2.0])
    expect = (d.combine(c)).coefficient_l2() ** 2
    assert (c.conj() @ gram @ c).real == pytest.approx(expect, rel=1e-12)


def test_combine_selects_indices():
    d = Dictionary.exponential_band(-2, 2)
    f = d.combine([2.0, -1.0], indices=[0, 4])
    assert f.coeffs == {(-2,): 2.0, (2,): -1.0}


def test_collection_counts_and_enumeration():
    d = Dictionary.exponential_band(-3, 3)
    coll = SubspaceCollection.all_subsets(d, 2)
    assert coll.count() == math.comb(7, 2) == 21
    subsets = list(coll.iter_subsets())
    assert len(subsets) == 21
    assert subsets == sorted(subsets)
    explicit = SubspaceCollection.from_subsets(d, [(0, 1), (2, 5)])
    assert explicit.count() == 2
    with pytest.raises(ValueError):
        SubspaceCollection.from_subsets(d, [(0, 1), (2,)])
    with pytest.raises(ValueError):
        SubspaceCollection.from_subsets(d, [(0, 9)])


def test_nikolskii_singleton_is_one():
    d = Dictionary.exponentials(hyperbolic_cross(1, 1)).elements[2:3]
    single = Dictionary(d, uniform_bound=1.0)
    assert nikolskii_ratio_estimate(single, 3.0, trials=5) == pytest.approx(1.0, rel=1e-12)


def test_nikolskii_band_reaches_cauchy_schwarz_extreme():
    # for the full band at q = 2 the constant is exactly sqrt(2N + 1),
    # attained by equal coefficients
    for n_param in (2, 4):
        d = Dictionary.exponential_band(-n_param, n_param)
        est = nikolskii_ratio_estimate(d, 2.0, trials=20, rng_seed=1)
        exact = math.sqrt(2 * n_param + 1)
        assert est >= 0.999 * exact
        assert est <= exact * (1 + 1e-12)


def test_nikolskii_trend_with_cross_size():
    # desk-scale trend check: the estimate grows like sqrt(dim) for d = 1
    ests = []
    for n_param in (2, 4, 8):
        d = Dictionary.exponentials(hyperbolic_cross(n_param, 1))
        ests.append(nikolskii_ratio_estimate(d, 2.0, trials=10, rng_seed=0))
    assert ests[0] < ests[1] < ests[2]
    for n_param, est in zip((2, 4, 8), ests):
        assert est == pytest.approx(math.sqrt(2 * n_param + 1), rel=1e-3)


def test_nikolskii_trend_two_dimensional_cross():
    # the estimate should track N^{1/q} (log N)^{(d-1)(1-1/q)} at desk scale:
    # the ratio estimate/shape stays within a narrow band as N grows
    q = 2.0
    ratios = []
    for n_param in (2, 4, 8):
        d = Dictionary.exponentials(hyperbolic_cross(n_param, 2))
        est = nikolskii_ratio_estimate(d, q, trials=8, rng_seed=3, grid_level=6)
        shape = n_param ** (1 / q) * math.log2(2 * n_param) ** (1 - 1 / q)
        ratios.append(est / shape)
    assert max(ratios) / min(ratios) < 2.0


def test_l2_projection_onto_subset():
    d = Dictionary.exponential_band(-2, 2)
    f = TrigPolynomial({(-1,): 2.0, (0,): 1.0, (2,): -0.5})
    coeffs = d.l2_project(f, [1, 2])  # frequencies -1 and 0
    assert coeffs == pytest.approx([2.0, 1.0])
    resid = f - d.combine(coeffs, [1, 2])
    assert set(resid.support) == {(-1,), (0,), (2,)}
    assert abs(resid.coeffs[(-1,)]) < 1e-12
    assert abs(resid.coeffs[(2,)] + 0.5) < 1e-12
