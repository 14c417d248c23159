"""Property checks: the pruned best-v-term oracle equals the exhaustive loop."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab import recovery
from usdlab.dictionary import Dictionary
from usdlab.errors import RankDeficiencyError
from usdlab.frequencies import FrequencySet
from usdlab.points import PointSet
from usdlab.recovery import (DiscreteInstance, best_v_term_oracle,
                             chebyshev_projection)
from usdlab.trigpoly import TrigPolynomial


def exhaustive_oracle(inst, v):
    """Reference: project every subset in lexicographic order, keep the first minimum."""
    best, best_subset = None, None
    for subset in itertools.combinations(range(inst.n_elements), v):
        res = chebyshev_projection(inst, subset)
        if best is None or res.residual_norm < best.residual_norm:
            best, best_subset = res, subset
    return best_subset, best


def svd_reference_bounds(inst, subsets):
    """The bounds as a full column SVD of every subset gives them: the
    reference the QR-reduced kernel is held to."""
    m = inst.dict_values.shape[0]
    v = subsets.shape[1]
    sw = np.sqrt(inst.weights)
    sb = sw * inst.f_values
    stack = np.moveaxis((sw[:, None] * inst.dict_values)[:, subsets], 0, 1)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    bad = np.flatnonzero((s > np.finfo(float).eps * max(m, v) * s[:, :1]).sum(axis=1) < v)
    if bad.size:
        raise recovery._rank_deficiency(subsets[bad[0]].tolist())
    ars = np.abs(sb - np.matmul(u, np.matmul(sb, u.conj())[:, :, None])[:, :, 0])
    r2 = np.divide(ars, sw, out=np.zeros(ars.shape), where=sw > 0)
    top = r2.max(axis=1)
    top[top == 0] = 1.0
    q = inst.p / (inst.p - 1.0)
    dual = top * ((inst.weights * (r2 / top[:, None]) ** q).sum(axis=1)) ** (1.0 / q)
    bound = np.divide((ars * ars).sum(axis=1), dual, out=np.zeros(len(subsets)),
                      where=dual > 0)
    slack = 1e-12 * inst.norm(inst.f_values) * (s[:, 0] / s[:, -1])
    return bound - slack, slack


def outcome(fn):
    try:
        return "ok", fn()
    except RankDeficiencyError as exc:
        return "rank", str(exc)


def random_instance(seed, m, n, p, kind):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    w = rng.uniform(0.1, 1.0, m)
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if kind == "tie":        # a duplicated column close to the target
        i, j = sorted(rng.choice(n, 2, replace=False))
        a[:, j] = a[:, i]
        b = 2.0 * a[:, i] + 0.05 * b
    elif kind == "exact":    # the target lies in the span of a few columns
        cols = rng.choice(n, min(3, n), replace=False)
        b = a[:, cols] @ (rng.standard_normal(cols.size) + 0j)
    elif kind == "rank":     # subsets holding both copies are rank deficient
        i, j = rng.choice(n, 2, replace=False)
        a[:, j] = 3.0 * a[:, i]
    return DiscreteInstance(a, b, w / w.sum(), p)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 24),
       n=st.integers(3, 7), v=st.integers(1, 3),
       p=st.sampled_from([1.5, 3.0, 4.0, 6.0]),
       kind=st.sampled_from(["random", "tie", "exact", "rank"]))
def test_pruned_oracle_equals_the_exhaustive_loop(seed, m, n, v, p, kind):
    if kind == "tie":
        v = 1
    inst = random_instance(seed, m, n, p, kind)
    got = outcome(lambda: best_v_term_oracle(inst, v))
    ref = outcome(lambda: exhaustive_oracle(inst, v))
    assert got[0] == ref[0]
    if got[0] == "rank":
        assert got[1] == ref[1]
        return
    oracle, (subset, best) = got[1], ref[1]
    assert oracle.support == subset
    assert np.array_equal(oracle.coefficients, best.coefficients)
    assert oracle.residual_norm == best.residual_norm
    assert oracle.converged == best.converged


def test_planted_tie_goes_to_the_lower_index():
    inst = random_instance(11, 16, 5, 4.0, "tie")
    a = inst.dict_values
    first = [i for j in range(5) for i in range(j)
             if np.array_equal(a[:, i], a[:, j])][0]
    assert best_v_term_oracle(inst, 1).support == (first,)


def test_rank_deficient_subset_that_cannot_win_still_raises():
    # (0, 1) spans nothing new, while (2,) fits the target exactly
    a = np.array([[1, 2, 0], [1, 2, 1], [0, 0, 1], [1, 2, 0]], dtype=complex)
    inst = DiscreteInstance(a, a[:, 2].copy(), np.full(4, 0.25), 4.0)
    with pytest.raises(RankDeficiencyError) as exc:
        best_v_term_oracle(inst, 2)
    assert str(exc.value) == "columns (0, 1) are rank deficient at the given nodes"


def test_fewer_nodes_than_terms_raises_for_the_first_subset():
    # with m < v every subset is rank deficient, as lstsq counts rank
    inst = random_instance(2, 2, 5, 4.0, "random")
    with pytest.raises(RankDeficiencyError) as exc:
        best_v_term_oracle(inst, 3)
    assert str(exc.value) == "columns (0, 1, 2) are rank deficient at the given nodes"


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("seed", range(4))
def test_every_bound_is_below_its_projection_residual(p, seed):
    inst = random_instance(seed, 20, 6, p, "random")
    subsets = np.array(list(itertools.combinations(range(6), 2)))
    bounds = recovery._subset_lower_bounds(inst, subsets)
    for bound, subset in zip(bounds, subsets):
        res = chebyshev_projection(inst, subset).residual_norm
        assert bound <= res
        if p == 2.0:   # the bound is the least-squares residual itself
            assert bound == pytest.approx(res, rel=1e-9)


@pytest.mark.parametrize("kind", ["random", "rank"])
def test_chunked_bounds_equal_one_chunk(kind, monkeypatch):
    inst = random_instance(3, 20, 7, 4.0, kind)
    subsets = np.array(list(itertools.combinations(range(7), 3)))
    whole = outcome(lambda: recovery._subset_lower_bounds(inst, subsets))
    monkeypatch.setattr(recovery, "_BOUND_CHUNK_VALUES", 130)   # 2 subsets a chunk
    chunked = outcome(lambda: recovery._subset_lower_bounds(inst, subsets))
    assert whole[0] == chunked[0]
    assert np.array_equal(whole[1], chunked[1])


def test_oracle_projects_few_subsets_on_an_orthonormal_dictionary(monkeypatch):
    d = Dictionary.exponential_band(-6, 5)                  # N = 12
    rng = np.random.default_rng(5)
    f = d.combine(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    f = f + TrigPolynomial({(9,): 0.3})
    inst = DiscreteInstance.from_function(f, d, PointSet.equispaced(64, 1), 4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return chebyshev_projection(*args, **kwargs)

    monkeypatch.setattr(recovery, "chebyshev_projection", counting)
    best_v_term_oracle(inst, 3)
    assert len(calls) < 220 // 4



@settings(max_examples=120, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 24),
       n=st.integers(3, 6), v=st.integers(1, 3),
       p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
       scale=st.floats(0.1, 10.0), log_delta=st.floats(-18.0, -9.0),
       near=st.booleans())
def test_qr_bounds_match_the_full_column_svd(seed, m, n, v, p, scale, log_delta, near):
    inst = random_instance(seed, m, n, p, "random")
    if near:   # a_j = s a_i + delta noise, delta straddling lstsq's threshold
        rng = np.random.default_rng(seed + 1)
        i, j = rng.choice(n, 2, replace=False)
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a = inst.dict_values.copy()
        a[:, j] = scale * a[:, i] + 10.0 ** log_delta * noise
        inst = DiscreteInstance(a, inst.f_values, inst.weights, p)
    subsets = np.array(list(itertools.combinations(range(n), v)))
    assert_qr_bounds_match_the_reference(inst, subsets)


def assert_qr_bounds_match_the_reference(inst, subsets):
    """Same rank outcome and message as the full column SVD; bounds within
    the stated rounding of the reference, each below its projection residual."""
    got = outcome(lambda: recovery._subset_lower_bounds(inst, subsets))
    ref = outcome(lambda: svd_reference_bounds(inst, subsets))
    assert got[0] == ref[0]
    if got[0] == "rank":
        assert got[1] == ref[1]
        return
    (bounds, (ref_bounds, slack)) = got[1], ref[1]
    # each computed bound is within its slack of the exact one, and the two
    # slacks agree to a few percent where the QR path decides the rank
    assert (np.abs(bounds - ref_bounds) <= 1e-9 * np.abs(ref_bounds) + 4.0 * slack).all()
    for bound, subset in zip(bounds, subsets):
        try:
            res = chebyshev_projection(inst, subset).residual_norm
        except RankDeficiencyError:
            continue   # lstsq's own SVD can round across its threshold
        assert bound <= res


RECOVER_SUBSETS = np.array(list(itertools.combinations(range(12), 3)))


def recover_instance(blended, seed=0, freqs=(-8, -3, 1, 5, 8)):
    """The recover benchmark's oracle instance: 12 exponentials +-1..+-6 at
    m = 256 random nodes and p = 4, or its blended instance (1024 grid
    nodes more); the target on ``freqs``.  Also the generator, for noise."""
    d = Dictionary.exponentials(FrequencySet.from_indices([(k,) for k in range(-6, 7) if k]))
    rng = np.random.default_rng(seed)
    f = TrigPolynomial({(k,): complex(*rng.standard_normal(2)) for k in freqs})
    xi = PointSet.random_uniform(256, 1, seed=0)
    make = DiscreteInstance.blended if blended else DiscreteInstance.from_function
    return make(f, d, xi, 4), rng


def near_copy(inst, delta, noise):
    """``inst`` with column 7 = 0.8 column 2 + delta noise."""
    a = inst.dict_values.copy()
    a[:, 7] = 0.8 * a[:, 2] + delta * noise
    return DiscreteInstance(a, inst.f_values, inst.weights, inst.p)


@pytest.mark.parametrize("exact, delta", [(True, None)] + [
    (False, delta) for delta in (None, 1e-16, 5e-14, 1e-13, 3e-13, 1e-12, 3e-12,
                                 2e-11, 5e-11, 1e-10, 1e-9)])
@pytest.mark.parametrize("blended", [False, True], ids=["recover", "blended"])
def test_qr_bounds_match_the_full_column_svd_at_recover_shapes(exact, delta, blended):
    # the 220 3-subsets of the recover benchmark's oracle.  An exact target
    # lies in the span of three columns, where a bound without its slack
    # rises above that subset's residual; the near copy crosses lstsq's
    # threshold between delta = 5e-14 and 1e-13 at m = 256 and between
    # 3e-13 and 1e-12 at m = 1280; the full column SVD decides the subsets
    # holding both up to delta = 3e-12 at m = 256 and 5e-11 at m = 1280,
    # the QR path above
    inst, rng = recover_instance(blended, freqs=(-5, 1, 4) if exact else (-8, -3, 1, 5, 8))
    if delta is not None:
        m = inst.dict_values.shape[0]
        inst = near_copy(inst, delta, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    assert_qr_bounds_match_the_reference(inst, RECOVER_SUBSETS)


@pytest.mark.parametrize("blended, seed", [(False, 0), (False, 1), (False, 2),
                                           (False, 3), (True, 0), (True, 1)])
def test_rank_rule_matches_the_full_column_svd_at_its_threshold(blended, seed):
    # bisect delta until the full column SVD's decision flips between two
    # neighbouring doubles: the smallest singular value then sits within
    # about 1e-6 of lstsq's threshold, relatively, while the reduced one
    # differs from it by 1e-6 to 2e-4 (either sign, depending on the seed),
    # so deciding either side from R alone names a different outcome
    inst, rng = recover_instance(blended, seed)
    m = inst.dict_values.shape[0]
    noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    both = RECOVER_SUBSETS[(RECOVER_SUBSETS == 2).any(axis=1)
                           & (RECOVER_SUBSETS == 7).any(axis=1)]

    def reference(log_delta):
        return outcome(lambda: svd_reference_bounds(
            near_copy(inst, 10.0 ** log_delta, noise), both))[0]

    lo, hi = -15.0, -11.0
    assert (reference(lo), reference(hi)) == ("rank", "ok")
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if reference(mid) == "rank":
            lo = mid
        else:
            hi = mid
    for log_delta in (lo, hi):
        assert_qr_bounds_match_the_reference(near_copy(inst, 10.0 ** log_delta, noise),
                                             RECOVER_SUBSETS)


def test_well_conditioned_bounds_take_no_svd_on_the_node_rows(monkeypatch):
    d = Dictionary.exponential_band(-6, 5)                  # N = 12
    rng = np.random.default_rng(5)
    f = d.combine(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    inst = DiscreteInstance.from_function(f, d, PointSet.equispaced(64, 1), 4)
    subsets = np.array(list(itertools.combinations(range(12), 3)))
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    recovery._subset_lower_bounds(inst, subsets)
    assert shapes and all(shape[-2] == 12 for shape in shapes)
