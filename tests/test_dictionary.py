import math

import numpy as np
import pytest

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.errors import DimensionMismatchError, NormBudgetError
from usdlab.frequencies import hyperbolic_cross
from usdlab.points import PointSet
from usdlab.trigpoly import TrigPolynomial


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
    with pytest.raises(DimensionMismatchError):
        d.values_at(np.zeros((2, 2)))


def test_continuous_gram_orthonormal_identity():
    d = Dictionary.exponential_band(-4, 4)
    gram = d.continuous_gram([0, 3, 8])
    assert np.allclose(gram, np.eye(3), atol=1e-15)


def coefficient_gram(d, indices):
    """Reference: the Gram built from the stored coefficient matrix."""
    b = d.coefficients[:, indices]
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


def test_stored_union_frequencies_and_coefficients():
    g1 = TrigPolynomial({(1,): 2.0, (-1,): 0.0})
    g2 = TrigPolynomial({(0,): 1j})
    d = Dictionary([g1, g2], uniform_bound=2.0)
    assert d.frequencies.tolist() == [[-1], [0], [1]]
    assert np.array_equal(d.coefficients, [[0, 0], [0, 1j], [2, 0]])
    assert not d.frequencies.flags.writeable and not d.coefficients.flags.writeable
    # the stored zero term of g1 still belongs to its block
    freqs, b = d._block([0])
    assert freqs.tolist() == [[-1], [1]]
    assert np.array_equal(b, [[0], [2]])
    assert d.combine([1.0], [0]).coeffs == {(-1,): 0j, (1,): 2 + 0j}


@pytest.mark.parametrize("call", [
    lambda d: d.combine([1.0], [-1]),
    lambda d: d.combine([1.0], [7]),
    lambda d: d.continuous_gram([-1, 0]),
    lambda d: d.continuous_gram([0, 7]),
], ids=["combine_negative", "combine_past_end", "gram_negative", "gram_past_end"])
def test_indices_outside_the_dictionary_are_rejected(call):
    with pytest.raises(ValueError, match="outside the dictionary"):
        call(Dictionary.exponential_band(-3, 3))


def _one_element(**constants):
    return Dictionary([TrigPolynomial({(1,): 1.0})], **constants)


@pytest.mark.parametrize("call", [
    lambda: _one_element(uniform_bound=float("nan")),
    lambda: _one_element(uniform_bound=float("inf")),
    lambda: _one_element(uniform_bound=0.0),
    lambda: _one_element(uniform_bound=1.0, riesz_constant=-1.0),
    lambda: _one_element(uniform_bound=1.0, riesz_constant=float("nan")),
    lambda: Dictionary.exponential_band(0.5, 2.5),
    lambda: SubspaceCollection(Dictionary.exponential_band(-2, 2), v=2.5),
], ids=["bound_nan", "bound_inf", "bound_zero", "riesz_negative", "riesz_nan",
        "band_fractional", "v_fractional"])
def test_bad_constants_rejected_at_construction(call):
    with pytest.raises(ValueError):
        call()
