"""Property checks of certificates: per-subset reference, invariances, pencil reduction."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (RatioOptions, _pencil_extremes, check_usd,
                                   subspace_ratio_bounds)
from usdlab.points import PointSet


@settings(max_examples=30, derandomize=True, deadline=None)
@given(lo=st.integers(-3, 1), width=st.integers(1, 4), v=st.integers(1, 2),
       m=st.integers(3, 24), p=st.sampled_from([2, 3, 4]),
       seed=st.integers(0, 2 ** 16))
def test_check_usd_ratios_equal_the_per_subset_reference(lo, width, v, m, p, seed):
    d = Dictionary.exponential_band(lo, lo + width)
    coll = SubspaceCollection.all_subsets(d, v)
    xi = PointSet.random_uniform(m, 1, seed)
    opts = RatioOptions(starts=3, max_iters=25, seed=seed % 5)
    cert = check_usd(xi, coll, p, opts)
    for i, subset in enumerate(coll.iter_subsets()):
        ref = subspace_ratio_bounds(subset, d, xi, p, opts,
                                    seed_key=[opts.seed, i])
        assert cert.subsets[i] == subset
        assert (cert.min_ratios[i], cert.max_ratios[i]) == (ref.min_ratio,
                                                            ref.max_ratio)
        assert cert.method == ref.method


@settings(max_examples=200, derandomize=True, deadline=None)
@given(v=st.integers(1, 8), complex_entries=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_identity_gram_reduction_equals_the_plain_eigen_path(v, complex_entries, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(v + 3, v))
    if complex_entries:
        a = a + 1j * rng.normal(size=(v + 3, v))
    g = a.conj().T @ a / (v + 3)
    reduced = _pencil_extremes(g, np.eye(v))
    plain = _pencil_extremes(g, None)
    for x, y in zip(reduced, plain):
        assert np.array_equal(x, y)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(lo=st.integers(-4, 2), width=st.integers(1, 5), v=st.integers(1, 3),
       m=st.integers(4, 40), shift=st.integers(-50, 50),
       seed=st.integers(0, 2 ** 16))
def test_p2_ratios_ignore_a_common_frequency_shift_and_point_order(
        lo, width, v, m, shift, seed):
    v = min(v, width + 1)
    xi = PointSet.random_uniform(m, 1, seed)
    coll = SubspaceCollection.all_subsets(
        Dictionary.exponential_band(lo, lo + width), v)
    base = check_usd(xi, coll, 2)
    shifted = check_usd(xi, SubspaceCollection.all_subsets(
        Dictionary.exponential_band(lo + shift, lo + width + shift), v), 2)
    perm = np.random.default_rng(seed).permutation(m)
    permuted = check_usd(PointSet.explicit(xi.points[perm]), coll, 2)
    for other in (shifted, permuted):
        assert other.subsets == base.subsets
        np.testing.assert_allclose(other.min_ratios, base.min_ratios,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(other.max_ratios, base.max_ratios,
                                   rtol=0, atol=1e-12)
