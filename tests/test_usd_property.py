"""Property check: a certificate's per-subset ratios equal the public per-subset reference."""
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import RatioOptions, check_usd, subspace_ratio_bounds
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
