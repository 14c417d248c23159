"""The stacked multistart against the per-subset, per-direction loop it replaced.

``reference_extreme`` is that loop: one subset and one direction at a time,
columns as starts, one ratio evaluation per step halving.  It evaluates the
same family kernels on one subset and takes norms and inner products with
the same helpers, so the stacked loop should return the same ratios,
vectors and ``converged`` flags: which of several starts that tie at the
optimum is the best one decides the flag, so a last-bit difference could.
"""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from usdlab import discretization
from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (MULTISTART_BACKTRACKS, MULTISTART_GRAD_TOL,
                                   RatioOptions, _dot, _families,
                                   _multistart_extreme, _normalize_rows,
                                   _p2_family, _starts, _subset_ratios,
                                   check_usd)
from usdlab.errors import RankDeficiencyError
from usdlab.points import PointSet
from usdlab.trigpoly import TrigPolynomial

TOL = 1e-12


def _normalize_columns(c):
    return _normalize_rows(c.T).T


def reference_extreme(ratio, gradient, warm, sign, seed_key, opts):
    """Projected-gradient ascent (sign=+1) or descent (sign=-1) of one
    subset, each halving of each step a separate ratio call.  Returns the
    best ratio, its vector and whether it stopped before the limit."""
    v, starts = warm[0].shape[0], opts.starts
    rng = np.random.default_rng(list(seed_key))
    c0 = rng.standard_normal((v, starts)) + 1j * rng.standard_normal((v, starts))
    c0 = np.concatenate([c0] + [w.reshape(-1, 1) for w in warm], axis=1)
    c = _normalize_columns(c0.astype(complex))
    n_cols = c.shape[1]
    rho = ratio(c)
    active = np.ones(n_cols, dtype=bool)
    alpha_mem = np.ones(n_cols)
    for _ in range(opts.max_iters):
        if not active.any():
            break
        grad = gradient(c)
        inner = _dot(c.T, grad.T)
        tang = grad - c * inner
        tnorm = np.sqrt(_dot(tang.T, tang.T).real)
        done = active & (tnorm <= MULTISTART_GRAD_TOL)
        active &= ~done
        if not active.any():
            break
        idx = np.where(active)[0]
        sub_c = c[:, idx]
        sub_t = tang[:, idx]
        sub_r = rho[idx]
        alpha = np.minimum(alpha_mem[idx] * 2.0, 1e3)
        accepted = np.zeros(len(idx), dtype=bool)
        for _ in range(MULTISTART_BACKTRACKS):
            todo = ~accepted
            cand = _normalize_columns(sub_c[:, todo] + sign * alpha[todo] * sub_t[:, todo])
            rho_c = ratio(cand)
            improve = (rho_c > sub_r[todo]) if sign > 0 else (rho_c < sub_r[todo])
            fresh = np.where(todo)[0][improve]
            sub_c[:, fresh] = cand[:, improve]
            sub_r[fresh] = rho_c[improve]
            accepted[fresh] = True
            if accepted.all():
                break
            alpha[~accepted] *= 0.5
        c[:, idx] = sub_c
        rho[idx] = sub_r
        alpha_mem[idx] = alpha
        active[idx[~accepted]] = False
    best = int(np.argmax(sign * rho))
    return float(rho[best]), c[:, best], not active[best]


def reference_ratios(dictionary, xi, subsets, p, opts, prefix):
    """Per subset: (lowest, highest) ratio, (descent, ascent) converged."""
    values = dictionary.values_at(xi)
    index = np.array(subsets, dtype=np.intp)
    _, (_, _, vec_lo, vec_hi) = _p2_family(dictionary, xi, index, p, True)
    out = []
    for i, subset in enumerate(index):
        [(_, family)] = _families(dictionary, values, xi.points, subset[None, :], p,
                                  2 * (opts.starts + 2), {})
        own = lambda c: np.zeros(c.shape[1], dtype=np.intp)   # noqa: E731
        ratio = lambda c: family.ratio(c.T, own(c))           # noqa: E731
        gradient = lambda c: family.gradient(c.T, own(c)).T   # noqa: E731
        warm = [vec_lo[i], vec_hi[i]]
        hi, _, conv_hi = reference_extreme(ratio, gradient, warm, 1.0, prefix + [i, 1], opts)
        lo, _, conv_lo = reference_extreme(ratio, gradient, warm, -1.0, prefix + [i, 2], opts)
        out.append(((lo, hi), (conv_lo, conv_hi)))
    return out


def _general_dictionary(rng, size, d):
    """``size`` polynomials of 1-3 terms with complex coefficients."""
    elements = []
    for _ in range(size):
        keys = {tuple(rng.integers(-3, 4, size=d).tolist())
                for _ in range(int(rng.integers(1, 4)))}
        elements.append(TrigPolynomial({k: complex(*rng.standard_normal(2)) for k in keys}, d))
    bound = max(sum(map(abs, e.coeffs.values())) for e in elements)
    return Dictionary(elements, uniform_bound=bound)


def _assert_matches_reference(dictionary, xi, subsets, p, opts):
    coll = SubspaceCollection.from_subsets(dictionary, subsets)
    cert = check_usd(xi, coll, p, opts)
    ref = reference_ratios(dictionary, xi, cert.subsets, p, opts, [opts.seed])
    values = dictionary.values_at(xi)
    index = np.array(cert.subsets, dtype=np.intp)
    _, (_, _, vec_lo, vec_hi) = _p2_family(dictionary, xi, index, p, True)
    _, _, flags, _ = _subset_ratios(values, xi.points, index, dictionary, p, opts,
                                    [[opts.seed, i] for i in range(len(index))],
                                    np.stack([vec_lo, vec_hi], axis=1))
    for i, ((lo, hi), conv) in enumerate(ref):
        assert abs(cert.min_ratios[i] - lo) <= TOL * max(1.0, abs(lo))
        assert abs(cert.max_ratios[i] - hi) <= TOL * max(1.0, abs(hi))
        assert flags[i] == all(conv)
    assert cert.converged == all(all(conv) for _, conv in ref)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), general=st.booleans(), d=st.integers(1, 2),
       size=st.integers(2, 5), v=st.integers(1, 3), m=st.integers(2, 40),
       p=st.sampled_from([3, 4, 6]), starts=st.integers(1, 4),
       max_iters=st.integers(1, 40))
def test_stacked_multistart_matches_the_per_subset_loop(
        seed, general, d, size, v, m, p, starts, max_iters):
    rng = np.random.default_rng(seed)
    if general:
        dictionary = _general_dictionary(rng, size, d)
    else:
        dictionary = Dictionary.exponential_band(-2, size - 3)
        d = 1
    v = min(v, dictionary.size)
    subsets = list(itertools.combinations(range(dictionary.size), v))
    xi = PointSet.explicit(rng.uniform(0.0, 2.0 * np.pi, size=(m, d)))
    opts = RatioOptions(starts=starts, max_iters=max_iters, seed=seed % 7)
    try:
        _assert_matches_reference(dictionary, xi, subsets, p, opts)
    except RankDeficiencyError:
        assume(False)


def _mixed_shapes():
    # the subset (0, 1) has the union {0, 1, 2}, whose pair sums collide
    # (0 + 2 = 1 + 1), and (0, 2) the union {0, 2}
    elements = [TrigPolynomial({(0,): 1.0}), TrigPolynomial({(1,): 0.6, (2,): 0.8j}),
                TrigPolynomial({(2,): 1.0})]
    return Dictionary(elements, uniform_bound=1.4), [(0, 1), (0, 2)]


@pytest.mark.parametrize("p", [3, 4, 6])
def test_a_family_of_mixed_lifted_shapes_matches_the_per_subset_loop(p):
    dictionary, subsets = _mixed_shapes()
    xi = PointSet.random_uniform(24, 1, seed=5)
    if p == 4:
        groups = list(_families(dictionary, None, xi.points, np.array(subsets), p, 2, {}))
        assert sorted(family.gram.shape[1] for _, family in groups) == [3, 5]
    _assert_matches_reference(dictionary, xi, subsets, p,
                              RatioOptions(starts=6, max_iters=60, seed=2))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), general=st.booleans(),
       p=st.sampled_from([3, 4, 6, 2.5]), rows=st.integers(1, 12))
def test_a_row_keeps_its_bits_whatever_rows_share_its_call(seed, general, p, rows):
    # check_usd and subspace_ratio_bounds agree bit for bit because each
    # row of a family call is evaluated on its own
    rng = np.random.default_rng(seed)
    dictionary = (_general_dictionary(rng, 4, 1) if general
                  else Dictionary.exponential_band(-3, 2))
    subsets = np.array(list(itertools.combinations(range(dictionary.size), 2)))
    xi = rng.uniform(0.0, 2.0 * np.pi, size=(16, 1))
    values = dictionary.values_at(xi)
    for members, family in _families(dictionary, values, xi, subsets, p, 2, {}):
        owner = rng.integers(len(members), size=rows)
        c = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
        for fn in (family.ratio, family.gradient):
            whole = fn(c, owner)
            alone = np.concatenate([fn(c[k:k + 1], owner[k:k + 1]) for k in range(rows)])
            assert np.array_equal(whole, alone, equal_nan=True)


def test_only_the_descent_cut_at_the_limit_marks_the_certificate():
    dictionary = Dictionary.exponential_band(-3, 3)
    xi = PointSet.random_uniform(512, 1, seed=9)
    subsets = np.array([(0, 4)])
    opts = RatioOptions(max_iters=30)
    values = dictionary.values_at(xi)
    _, (_, _, vec_lo, vec_hi) = _p2_family(dictionary, xi, subsets, 4, True)
    starts = _starts([[0, 0]], np.stack([vec_lo, vec_hi], axis=1), opts.starts)
    [(_, family)] = _families(dictionary, values, xi.points, subsets, 4,
                              starts.shape[2] * 2, {})
    _, _, every, flags = _multistart_extreme(family, starts, opts)
    # (ascent, descent)
    assert type(every) is bool and not every
    assert flags.tolist() == [[True, False]]
    [(_, (conv_lo, conv_hi))] = reference_ratios(dictionary, xi, [(0, 4)], 4, opts, [0])
    assert (conv_hi, conv_lo) == (True, False)
    cert = check_usd(xi, SubspaceCollection.from_subsets(dictionary, [(0, 4)]), 4, opts)
    assert not cert.converged
    assert cert.notes == ["some sphere optimizations hit the iteration limit"]


@pytest.mark.parametrize("p", [3, 4])
def test_one_loop_per_certificate_and_chunks_keep_the_bits(monkeypatch, p):
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-3, 3), 2)
    xi = PointSet.random_uniform(64, 1, seed=4)
    opts = RatioOptions(starts=4, max_iters=40, seed=1)
    loops = []
    extreme = discretization._multistart_extreme
    monkeypatch.setattr(discretization, "_multistart_extreme",
                        lambda *args: loops.append(1) or extreme(*args))
    whole = check_usd(xi, coll, p, opts)
    assert len(loops) == 1   # 21 pairs of one shape, both directions
    # one subset per chunk and per slice of an evaluation
    monkeypatch.setattr(discretization, "_MULTISTART_CHUNK_VALUES", 1)
    cut = check_usd(xi, coll, p, opts)
    assert len(loops) == 1 + 21
    assert cut.to_json() == whole.to_json()
