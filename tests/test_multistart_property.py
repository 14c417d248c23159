"""The stacked multistart against the per-subset, per-direction loop it replaced.

``reference_extreme`` is that loop: one subset and one direction at a time,
one ratio evaluation per step halving, gradient steps until the step memory
stalls and Newton steps after.  It evaluates the same family kernels on one
subset and takes norms, inner products and Newton directions with the same
helpers, so the stacked loop should return the same ratios, vectors and
``converged`` flags bit for bit: which of several starts that tie at the
optimum is the best one decides the flag, so a last-bit difference could.
``first_order_extreme`` is the gradient-only loop that came before the
Newton steps, the yardstick for how good the extremes are.
"""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from usdlab import multistart
from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import RatioOptions, _p2_family, check_usd
from usdlab.errors import RankDeficiencyError
from usdlab.multistart import (MULTISTART_BACKTRACKS, MULTISTART_GRAD_TOL, _dot,
                               _families, _multistart_extreme, _multistart_rows,
                               _newton_directions, _normalize_rows, _starts,
                               _subset_ratios)
from usdlab.points import PointSet
from usdlab.trigpoly import TrigPolynomial


def _seeded_starts(warm, seed_key, starts):
    """The unit starting rows of one subset and direction: ``starts``
    complex Gaussian draws from ``seed_key``, then the warm vectors."""
    v = warm[0].shape[0]
    rng = np.random.default_rng(list(seed_key))
    c0 = rng.standard_normal((v, starts)) + 1j * rng.standard_normal((v, starts))
    return _normalize_rows(np.concatenate([c0.T, np.stack(warm)]).astype(complex))


def reference_extreme(family, warm, sign, seed_key, opts):
    """Ascent (sign=+1) or descent (sign=-1) of one subset of ``family``,
    each halving of each step a separate evaluation.  Returns the best
    ratio, its vector and whether it stopped before the limit."""
    c = _seeded_starts(warm, seed_key, opts.starts)
    n, v = c.shape
    owner = np.zeros(n, dtype=np.intp)
    rho = family.ratio(c, owner)
    active = np.ones(n, dtype=bool)
    alpha = np.ones(n)
    newton = np.zeros(n, dtype=bool)
    second = family.second_order and v > 1
    for _ in range(opts.max_iters):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        cur, own = c[idx], owner[idx]
        grad = family.gradient(cur, own)
        tang = grad - cur * _dot(cur, grad)[:, None]
        done = np.sqrt(_dot(tang, tang).real) <= MULTISTART_GRAD_TOL
        active[idx[done]] = False
        idx, cur, tang, own = idx[~done], cur[~done], tang[~done], own[~done]
        step = np.minimum(alpha[idx] * 2.0, 1e3)
        curved = np.zeros(len(idx), dtype=bool)
        at = np.flatnonzero(newton[idx])
        if at.size:
            d, ok = _newton_directions(family, cur[at], own[at], tang[at],
                                       np.full(len(at), sign), 1 << 20)
            tang[at[ok]], step[at[ok]], curved[at[ok]] = d[ok], 1.0, True
        for k in range(MULTISTART_BACKTRACKS):
            if not idx.size:
                break
            cand = _normalize_rows(cur + (np.ldexp(step, -k) * sign)[:, None] * tang)
            got = family.ratio(cand, own)
            gain = got - rho[idx]
            if curved.any():
                gain[curved] = family.compare(cur[curved], own[curved],
                                              cand[curved][:, None])[1][:, 0]
            hit = sign * gain > 0.0
            c[idx[hit]], rho[idx[hit]] = cand[hit], got[hit]
            plain = hit & ~curved
            taken = np.ldexp(step[plain], -k)
            if second:
                newton[idx[plain]] |= taken <= alpha[idx[plain]]
            alpha[idx[plain]] = taken
            miss = ~hit
            idx, cur, tang, own, step, curved = (
                idx[miss], cur[miss], tang[miss], own[miss], step[miss], curved[miss])
        active[idx] = False
    best = int(np.argmax(sign * rho))
    return float(rho[best]), c[best], not active[best]


def first_order_extreme(family, warm, sign, seed_key, opts):
    """``reference_extreme`` with gradient steps alone, as before the Newton
    steps: the row's step memory never switches it."""
    plain = SimpleNamespace(ratio=family.ratio, gradient=family.gradient,
                            second_order=False)
    return reference_extreme(plain, warm, sign, seed_key, opts)


def reference_ratios(dictionary, xi, subsets, p, opts, prefix, extreme=reference_extreme):
    """Per subset: (lowest, highest) ratio, (descent, ascent) converged."""
    values = dictionary.values_at(xi)
    index = np.array(subsets, dtype=np.intp)
    _, (_, _, vec_lo, vec_hi) = _p2_family(dictionary, xi, index, p, True)
    out = []
    for i, subset in enumerate(index):
        [(_, family)] = _families(dictionary, values, xi.points, subset[None, :], p,
                                  2 * (opts.starts + 2), {})
        warm = [vec_lo[i], vec_hi[i]]
        hi, _, conv_hi = extreme(family, warm, 1.0, prefix + [i, 1], opts)
        lo, _, conv_lo = extreme(family, warm, -1.0, prefix + [i, 2], opts)
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
        assert (cert.min_ratios[i], cert.max_ratios[i]) == (lo, hi)
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


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), general=st.booleans(), d=st.integers(1, 2),
       size=st.integers(2, 4), v=st.integers(2, 3), m=st.integers(4, 40),
       p=st.sampled_from([3, 4, 6]), starts=st.integers(1, 4))
def test_extremes_are_no_worse_than_500_first_order_iterations(
        seed, general, d, size, v, m, p, starts):
    rng = np.random.default_rng(seed)
    if general:
        dictionary = _general_dictionary(rng, size, d)
    else:
        dictionary = Dictionary.exponential_band(-2, size - 3)
        d = 1
    v = min(v, dictionary.size)
    subsets = list(itertools.combinations(range(dictionary.size), v))
    xi = PointSet.explicit(rng.uniform(0.0, 2.0 * np.pi, size=(m, d)))
    opts = RatioOptions(starts=starts, max_iters=500, seed=seed % 7)
    try:
        cert = check_usd(xi, SubspaceCollection.from_subsets(dictionary, subsets), p, opts)
    except RankDeficiencyError:
        assume(False)
    ref = reference_ratios(dictionary, xi, cert.subsets, p, opts, [opts.seed],
                           first_order_extreme)
    for i, ((lo, hi), _) in enumerate(ref):
        assert cert.min_ratios[i] <= lo + 1e-12 * abs(lo)
        assert cert.max_ratios[i] >= hi - 1e-12 * abs(hi)


@pytest.mark.parametrize("seed", range(100, 106))
def test_every_start_of_a_full_p4_certificate_stops_stationary(seed):
    # band(-3, 3), all 21 pairs, m = 512, 64 starts: 2772 rows.  Under
    # gradient steps alone these ran into the 500-iteration limit, and
    # seed 103's certificate read converged: false.
    dictionary = Dictionary.exponential_band(-3, 3)
    coll = SubspaceCollection.all_subsets(dictionary, 2)
    xi = PointSet.random_uniform(512, 1, seed=seed)
    opts = RatioOptions(starts=64)
    subsets = np.array(list(coll.iter_subsets()))
    _, (_, _, vec_lo, vec_hi) = _p2_family(dictionary, xi, subsets, 4, True)
    starts = _starts([[0, i] for i in range(len(subsets))],
                     np.stack([vec_lo, vec_hi], axis=1), opts.starts)
    [(_, family)] = _families(dictionary, None, xi.points, subsets, 4,
                              starts.shape[2] * 2, {})
    c, _, _, active, after = _multistart_rows(family, starts, opts)
    owner = np.repeat(np.arange(len(subsets)), starts.shape[2] * 2)
    grad = family.gradient(c, owner)
    tang = grad - c * _dot(c, grad)[:, None]
    assert not active.any()
    assert np.sqrt(_dot(tang, tang).real).max() <= MULTISTART_GRAD_TOL
    # every row switched to Newton steps and stopped a few iterations later
    assert after.min() >= 1 and after.max() <= 12
    assert check_usd(xi, coll, 4, opts).converged


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
        # directions of the Hessian action, candidates of compare
        more = rng.standard_normal((rows, 3, 2)) + 1j * rng.standard_normal((rows, 3, 2))
        kernels = [lambda c, o, x: family.ratio(c, o), lambda c, o, x: family.gradient(c, o)]
        if family.second_order:
            kernels += [family.hessian,
                        lambda c, o, x: np.stack(family.compare(c, o, x), axis=1)]
        for fn in kernels:
            whole = fn(c, owner, more)
            alone = np.concatenate([fn(c[k:k + 1], owner[k:k + 1], more[k:k + 1])
                                    for k in range(rows)])
            assert np.array_equal(whole, alone, equal_nan=True)


def test_only_the_descent_cut_at_the_limit_marks_the_certificate():
    dictionary = Dictionary.exponential_band(-3, 3)
    xi = PointSet.random_uniform(512, 1, seed=9)
    subsets = np.array([(1, 6)])
    opts = RatioOptions(max_iters=9)
    values = dictionary.values_at(xi)
    _, (_, _, vec_lo, vec_hi) = _p2_family(dictionary, xi, subsets, 4, True)
    starts = _starts([[0, 0]], np.stack([vec_lo, vec_hi], axis=1), opts.starts)
    [(_, family)] = _families(dictionary, values, xi.points, subsets, 4,
                              starts.shape[2] * 2, {})
    _, _, every, flags = _multistart_extreme(family, starts, opts)
    # (ascent, descent)
    assert type(every) is bool and not every
    assert flags.tolist() == [[True, False]]
    [(_, (conv_lo, conv_hi))] = reference_ratios(dictionary, xi, [(1, 6)], 4, opts, [0])
    assert (conv_hi, conv_lo) == (True, False)
    cert = check_usd(xi, SubspaceCollection.from_subsets(dictionary, [(1, 6)]), 4, opts)
    assert not cert.converged
    assert cert.notes == ["some sphere optimizations hit the iteration limit"]


@pytest.mark.parametrize("p", [3, 4])
def test_one_loop_per_certificate_and_chunks_keep_the_bits(monkeypatch, p):
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-3, 3), 2)
    xi = PointSet.random_uniform(64, 1, seed=4)
    opts = RatioOptions(starts=4, max_iters=40, seed=1)
    loops = []
    extreme = multistart._multistart_extreme
    monkeypatch.setattr(multistart, "_multistart_extreme",
                        lambda *args: loops.append(1) or extreme(*args))
    whole = check_usd(xi, coll, p, opts)
    assert len(loops) == 1   # 21 pairs of one shape, both directions
    # one subset per chunk and per slice of an evaluation
    monkeypatch.setattr(multistart, "_MULTISTART_CHUNK_VALUES", 1)
    cut = check_usd(xi, coll, p, opts)
    assert len(loops) == 1 + 21
    assert cut.to_json() == whole.to_json()
