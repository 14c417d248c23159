"""Property checks: the pruned best-v-term oracle equals the exhaustive loop."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab import recovery
from usdlab.dictionary import Dictionary
from usdlab.errors import RankDeficiencyError
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

