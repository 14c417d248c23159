"""Property checks of certificates: per-subset reference, invariances, pencil
and moment kernels."""
import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (RatioOptions, _p2_family, check_usd,
                                   subspace_ratio_bounds)
from usdlab.errors import RankDeficiencyError
from usdlab.pencils import _PENCIL_CHUNK_VALUES, _moment_family, _pencil_family
from usdlab.points import PointSet
from usdlab.trigpoly import TrigPolynomial


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


def _eigh_reference(values, subset):
    """One subset's pencil as a per-subset loop solves it: its own (m, v)
    slice, v x v Gram and eigh."""
    a = values[:, list(subset)]
    g = a.conj().T @ a / a.shape[0]
    w, u = np.linalg.eigh(0.5 * (g + g.conj().T))
    return w[0], w[-1], u[:, 0], u[:, -1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(v=st.integers(1, 8), complex_entries=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_identity_gram_reduction_equals_the_plain_eigen_path(v, complex_entries, seed):
    # the Cholesky reduction by an identity Gram is exact, so it keeps the
    # bits of each subset's own plain eigh
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(v + 3, v + 2))
    if complex_entries:
        a = a + 1j * rng.normal(size=(v + 3, v + 2))
    subsets = np.array(list(itertools.combinations(range(v + 2), v)))
    lo, hi, vec_lo, vec_hi = _pencil_family(a, subsets, np.eye(v + 2))
    for i, subset in enumerate(subsets):
        ref = _eigh_reference(a, subset)
        assert (lo[i], hi[i]) == ref[:2]
        assert np.array_equal(vec_lo[i], ref[2]) and np.array_equal(vec_hi[i], ref[3])


# (m, elements, v) of each chunk regime of the kernel
KERNEL_SHAPES = {
    "several chunks": (300, 12, 3),       # 72 subsets a chunk, 220 subsets
    "one subset a chunk": (17000, 6, 4),  # m * v above the chunk size
    "v = 1": (40, 9, 1),
    "m < v": (2, 8, 5),
}


@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(dm=st.integers(0, 2), shuffle=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_pencil_kernel_equals_the_per_subset_eigh_bit_for_bit(shape, dm, shuffle, seed):
    m, n, v = KERNEL_SHAPES[shape]
    m += dm
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    subsets = np.array(list(itertools.combinations(range(n), v)))
    if shuffle:   # any order, any index order within a subset
        subsets = rng.permuted(rng.permutation(subsets), axis=1)
    step = max(1, _PENCIL_CHUNK_VALUES // (m * v))
    assert {"several chunks": 1 < step < len(subsets) // 2, "one subset a chunk":
            m * v > _PENCIL_CHUNK_VALUES, "v = 1": v == 1, "m < v": m < v}[shape]
    lo, hi, vec_lo, vec_hi = _pencil_family(values, subsets, np.eye(n))
    bare = _pencil_family(values, subsets, np.eye(n), vectors=False)
    assert np.array_equal(bare[0], lo) and np.array_equal(bare[1], hi)
    assert bare[2] is None and bare[3] is None
    for i, subset in enumerate(subsets):
        ref = _eigh_reference(values, subset)
        assert (lo[i], hi[i]) == ref[:2]
        assert np.array_equal(vec_lo[i], ref[2]) and np.array_equal(vec_hi[i], ref[3])


def _general_dictionary(rng, n):
    """n independent polynomials: each holds its own frequency in -6..5 with
    coefficient 1, plus up to three shared ones in 10..14 with complex
    coefficients."""
    elements = []
    for k in rng.choice(np.arange(-6, 6), size=n, replace=False):
        extra = rng.choice(np.arange(10, 15), size=int(rng.integers(0, 4)), replace=False)
        coeffs = {int(q): complex(*rng.standard_normal(2)) for q in extra}
        coeffs[int(k)] = 1.0
        elements.append(TrigPolynomial(coeffs))
    bound = max(sum(map(abs, e.coeffs.values())) for e in elements)
    return Dictionary(elements, uniform_bound=bound)


def _scipy_reference(values, dictionary, subset):
    """One subset's pencil reduced by triangular solves on its own Gram."""
    a = values[:, list(subset)]
    g_emp = a.conj().T @ a / a.shape[0]
    g_cont = dictionary.continuous_gram(subset)
    chol = np.linalg.cholesky(0.5 * (g_cont + g_cont.conj().T))
    half = scipy.linalg.solve_triangular(chol, g_emp, lower=True)
    mid = scipy.linalg.solve_triangular(chol, half.conj().T, lower=True).conj().T
    w, u = np.linalg.eigh(0.5 * (mid + mid.conj().T))
    return w, scipy.linalg.solve_triangular(chol.conj().T, u, lower=False)


def _same_direction(x, y, tol):
    """x equals y after removing the phase eigh is free to choose."""
    phase = np.vdot(y, x)
    return np.abs(x * (abs(phase) / phase) - y).max() <= tol * max(1.0, np.abs(y).max())


@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.integers(2, 6), v=st.integers(1, 3), m=st.integers(2, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_general_dictionary_pencils_match_the_triangular_solve_reference(n, v, m, seed):
    rng = np.random.default_rng(seed)
    d = _general_dictionary(rng, n)
    coll = SubspaceCollection.all_subsets(d, min(v, n))
    xi = PointSet.random_uniform(m, 1, seed)
    values = d.values_at(xi)
    subsets = np.array(list(coll.iter_subsets()))
    # the kernel check_usd takes: the reduced pencils, or the moment kernel
    # when every element drew a lone unit coefficient
    _, (lo, hi, vec_lo, vec_hi) = _p2_family(d, xi, subsets, 2, True)
    cert = check_usd(xi, coll, 2)
    assert cert.min_ratios == lo.tolist() and cert.max_ratios == hi.tolist()
    if not d.orthonormal_monomials:
        reduced = _pencil_family(values, subsets, d.continuous_gram())
        for x, y in zip(reduced, (lo, hi, vec_lo, vec_hi)):
            assert np.array_equal(x, y)
    for i, subset in enumerate(coll.iter_subsets()):
        w, back = _scipy_reference(values, d, subset)
        scale = max(1.0, abs(w[-1]))
        assert abs(lo[i] - w[0]) <= 1e-12 * scale
        assert abs(hi[i] - w[-1]) <= 1e-12 * scale
        # an extreme vector is one direction when its eigenvalue is apart
        if len(w) == 1 or w[1] - w[0] > 1e-2 * scale:
            assert _same_direction(vec_lo[i], back[:, 0], 1e-12)
        if len(w) == 1 or w[-1] - w[-2] > 1e-2 * scale:
            assert _same_direction(vec_hi[i], back[:, -1], 1e-12)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(3, 7), v=st.integers(2, 3), pair=st.data(),
       m=st.sampled_from([8, 9000]), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_deficiency_names_the_first_dependent_subset(n, v, pair, m, seed):
    # element j is a multiple of element i; with m = 9000 each chunk holds
    # at most 3 subsets, so the first dependent subset may sit in any chunk
    i, j = sorted(pair.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                     unique=True)))
    elements = [TrigPolynomial({k: 1.0, k + 10: 0.5j}) for k in range(n)]
    elements[j] = elements[i].scale(-2.0)
    d = Dictionary(elements, uniform_bound=3.0)
    coll = SubspaceCollection.all_subsets(d, v)
    first = next(s for s in coll.iter_subsets() if i in s and j in s)
    with pytest.raises(RankDeficiencyError,
                       match=rf"^subset {re.escape(str(first))} is numerically "
                             r"dependent in L2 \(smallest Gram eigenvalue "):
        check_usd(PointSet.random_uniform(m, 1, seed), coll, 2)


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


U = 2.0 ** -53   # unit roundoff

# element frequencies of monomial dictionaries: bands, sparse sets with a far
# frequency (its phases round at about 1.5e-11), and 2-D sets
MONOMIAL_SETS = st.one_of(
    st.builds(lambda lo, width: [(k,) for k in range(lo, lo + width + 1)],
              st.integers(-5, 2), st.integers(0, 8)),
    st.sampled_from([[(0,), (1,), (30000,)], [(-30000,), (0,), (2,), (5,), (30000,)]]),
    st.lists(st.integers(-30000, 30000), min_size=1, max_size=6, unique=True).map(
        lambda ks: [(k,) for k in ks]),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1,
             max_size=7, unique=True))


def _moment_gram(freqs, subset, x):
    """A subset's own empirical Gram, entry by entry from its moments, and
    the same in 80-bit arithmetic (the error of its phases aside, exact)."""
    k = freqs[list(subset)]
    delta = (k[None, :, :] - k[:, None, :]).astype(float)        # [a, b] = k_b - k_a
    phase = (delta[:, :, None, :] * x[None, None, :, :]).sum(axis=-1)
    gram = np.exp(1j * phase).mean(axis=-1)
    wide = (delta.astype(np.longdouble)[:, :, None, :]
            * x.astype(np.longdouble)[None, None, :, :]).sum(axis=-1)
    exact = (np.cos(wide) + 1j * np.sin(wide)).mean(axis=-1).astype(complex)
    return gram, exact


@settings(max_examples=80, derandomize=True, deadline=None)
@given(elements=MONOMIAL_SETS, order=st.randoms(use_true_random=False),
       v=st.integers(1, 4), nodes=st.one_of(st.tuples(st.just("seeded"), st.integers(1, 40)),
                                            st.tuples(st.just("equispaced"), st.integers(1, 9))),
       shuffle_rows=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_moment_kernel_matches_the_per_subset_eigh_reference(elements, order, v, nodes,
                                                             shuffle_rows, seed):
    order.shuffle(elements)   # element order apart from the sorted union order
    d = Dictionary([TrigPolynomial({k: 1.0}, len(k)) for k in elements], uniform_bound=1.0)
    assert d.orthonormal_monomials
    dim, v = len(elements[0]), min(v, len(elements))
    xi = (PointSet.random_uniform(nodes[1], dim, seed) if nodes[0] == "seeded"
          else PointSet.equispaced(nodes[1], dim))
    subsets = np.array(list(itertools.combinations(range(d.size), v)))
    if shuffle_rows:   # any index order within a subset
        subsets = np.random.default_rng(seed).permuted(subsets, axis=1)
    values, (lo, hi, vec_lo, vec_hi) = _p2_family(d, xi, subsets, 3, True)
    assert values is not None   # p = 3 reads them; the Grams do not
    freqs = np.array(elements)
    bare = _moment_family(xi.points, freqs, subsets, vectors=False)
    assert np.array_equal(bare[0], lo) and np.array_equal(bare[1], hi)
    assert bare[2] is None and bare[3] is None
    m = xi.size
    # a bound on the phases |<k_b - k_a, x>|, the stated rounding bound it
    # sets, and the reference's own eigensolver and cast to float64
    span = np.abs(freqs[:, None, :] - freqs[None, :, :]).sum(axis=-1).max()
    phase = 2.0 * np.pi * span
    bound = ((v - 1) * (dim * phase + 2 * np.log2(m) + 32) + 4 * v * v) * U
    bound += (4 * v * v + v) * U
    classes = {}
    for i, subset in enumerate(subsets):
        ref = _eigh_reference(values, subset)
        # both routes round each phase, by up to dim * phase * u
        tol = 1e-12 + 8 * v * dim * phase * U
        assert abs(lo[i] - ref[0]) <= tol and abs(hi[i] - ref[1]) <= tol
        gram, exact = _moment_gram(freqs, subset, xi.points)
        w = np.linalg.eigvalsh(exact)
        assert abs(lo[i] - w[0]) <= bound and abs(hi[i] - w[-1]) <= bound
        for vec, lam in ((vec_lo[i], lo[i]), (vec_hi[i], hi[i])):
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            assert np.linalg.norm(gram @ vec - lam * vec) <= 1e-12
        # one subset alone gets the bits it gets in the family
        alone = _moment_family(xi.points, freqs, subsets[i:i + 1])
        for x, y in zip(alone, (lo, hi, vec_lo, vec_hi)):
            assert np.array_equal(x[0], y[i])
        key = tuple(map(tuple, freqs[subset] - freqs[subset[0]]))
        classes.setdefault(key, []).append(i)
    for members in classes.values():
        for out in (lo, hi, vec_lo, vec_hi):
            assert all(np.array_equal(out[i], out[members[0]]) for i in members)
