import hashlib
import json
import math

import numpy as np
import pytest

from usdlab import jsonio
from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import check_usd
from usdlab.errors import (CapExceededError, RankDeficiencyError,
                           ZeroResidualError)
from usdlab.frequencies import FrequencySet, frequency_levels, level_of
from usdlab.points import PointSet
from usdlab.recovery import (DiscreteInstance, SparseApproximant,
                             best_v_term_error_blended, best_v_term_oracle,
                             block_greedy_approximant, block_term_schedule,
                             chebyshev_projection, norming_functional_action,
                             recovery_pipeline, wcga_iteration_budget,
                             weak_chebyshev_greedy)
from usdlab.smoothness import SmoothnessBudget, level_budget_element
from usdlab.trigpoly import TrigPolynomial, _quadrature_grid_size, lp_norm


def make_instance(seed=0, band=4, m=32, p=2.0, target_support=None,
                  extra=None):
    d = Dictionary.exponential_band(-band, band)
    rng = np.random.default_rng(seed)
    if target_support is None:
        target_support = [0, 2, band + 1]
    coeffs = rng.standard_normal(len(target_support)) \
        + 1j * rng.standard_normal(len(target_support))
    f = d.combine(coeffs, target_support)
    if extra is not None:
        f = f + extra
    xi = PointSet.equispaced(m, 1)
    return d, f, DiscreteInstance.from_function(f, d, xi, p), target_support, coeffs


def test_projection_recovers_span_members_exactly():
    d, f, inst, support, coeffs = make_instance()
    res = chebyshev_projection(inst, support)
    assert res.residual_norm <= 1e-12
    assert np.allclose(res.coefficients, coeffs, atol=1e-10)


def test_projection_empty_set_returns_target():
    _, f, inst, _, _ = make_instance()
    res = chebyshev_projection(inst, ())
    assert res.residual_norm == pytest.approx(inst.norm(inst.f_values))
    assert res.coefficients.size == 0


def test_projection_matches_numpy_least_squares():
    d, f, inst, _, _ = make_instance(seed=3)
    subset = (1, 4, 6)
    res = chebyshev_projection(inst, subset)
    a = inst.dict_values[:, list(subset)]
    direct, *_ = np.linalg.lstsq(a, inst.f_values, rcond=None)
    assert np.allclose(res.coefficients, direct, atol=1e-10)


def test_projection_rank_deficiency():
    g = TrigPolynomial({1: 1.0})
    d = Dictionary([g, g.scale(3.0)], uniform_bound=3.0)
    xi = PointSet.random_uniform(8, 1, seed=0)
    f = TrigPolynomial({2: 1.0})
    inst = DiscreteInstance.from_function(f, d, xi, 2)
    with pytest.raises(RankDeficiencyError):
        chebyshev_projection(inst, (0, 1))


@pytest.mark.parametrize("field, bad", [("dict_values", math.nan),
                                        ("f_values", math.nan),
                                        ("f_values", math.inf),
                                        ("weights", -0.1),
                                        ("weights", math.inf)])
def test_instance_rejects_non_finite_or_negative_inputs(field, bad):
    _, _, inst, _, _ = make_instance()
    parts = {"dict_values": inst.dict_values.copy(), "f_values": inst.f_values.copy(),
             "weights": inst.weights.copy()}
    parts[field].flat[3] = bad
    with pytest.raises(ValueError, match=field):
        DiscreteInstance(parts["dict_values"], parts["f_values"], parts["weights"], 4.0)


@pytest.mark.parametrize("subset, index", [((-1,), -1), ((0, 9), 9), ((7,), 7)])
def test_projection_rejects_out_of_range_indices(subset, index):
    _, _, inst, _, _ = make_instance(band=3)                 # N = 7
    with pytest.raises(ValueError, match=rf"subset index {index} is outside \[0, 7\)"):
        chebyshev_projection(inst, subset)


def test_projection_rejects_a_fractional_iteration_count():
    _, _, inst, _, _ = make_instance(p=4.0)
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        chebyshev_projection(inst, (0, 1), max_iters=2.5)


def test_wcga_rejects_a_negative_iteration_count():
    _, _, inst, _, _ = make_instance()
    with pytest.raises(ValueError, match="max_iter must be at least 0"):
        weak_chebyshev_greedy(inst, max_iter=-1)


@pytest.mark.parametrize("subset, shown", [((1.7,), "1.7"), ((True,), "True"),
                                           ((0, np.float64(2.5)), "2.5")])
def test_projection_rejects_non_integer_indices(subset, shown):
    _, _, inst, _, _ = make_instance(band=3)
    message = f"subset index must be an integer, got .*{shown}"
    with pytest.raises(ValueError, match=message):
        chebyshev_projection(inst, subset)


@pytest.mark.parametrize("stop_tol", [math.nan, math.inf, -1e-3])
def test_wcga_rejects_a_non_finite_or_negative_stop_tol(stop_tol):
    _, _, inst, _, _ = make_instance()
    with pytest.raises(ValueError, match="stop_tol must be finite and non-negative"):
        weak_chebyshev_greedy(inst, stop_tol=stop_tol)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_block_term_schedule_rejects_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        block_term_schedule(3, beta, 1)


@pytest.mark.parametrize("n, message", [(2.5, "n must be an integer, got 2.5"),
                                        (True, "n must be an integer, got True"),
                                        (0, "n must be at least 1, got 0")])
def test_block_greedy_rejects_a_non_integer_or_small_cut(n, message):
    f = TrigPolynomial({1: 1.0, 5: 0.5, 9: 0.25})
    with pytest.raises(ValueError, match=message):
        block_greedy_approximant(f, n, 0.5)


def grid_scan_single_coefficient(a_col, b, w, p, lo=-4.0, hi=4.0):
    """Independent oracle: nested 1-d scan over a real coefficient."""
    c_grid = np.linspace(lo, hi, 2001)
    best_c, best_val = None, None
    for _ in range(6):
        vals = [(w @ np.abs(b - c * a_col) ** p) ** (1 / p) for c in c_grid]
        i = int(np.argmin(vals))
        best_c, best_val = c_grid[i], vals[i]
        lo = c_grid[max(i - 1, 0)]
        hi = c_grid[min(i + 1, len(c_grid) - 1)]
        c_grid = np.linspace(lo, hi, 101)
    return best_c, best_val


def test_irls_single_column_matches_grid_scan_p4():
    # real data keep the optimal coefficient real, so a 1-d scan suffices
    rng = np.random.default_rng(6)
    a_col = rng.normal(size=3)
    b = rng.normal(size=3)
    w = np.full(3, 1.0 / 3.0)
    g = TrigPolynomial({0: 1.0})  # placeholder dictionary column
    inst = DiscreteInstance(a_col[:, None].astype(complex), b.astype(complex),
                            w, 4.0)
    res = chebyshev_projection(inst, (0,))
    _, best_val = grid_scan_single_coefficient(a_col, b, w, 4.0)
    assert res.residual_norm == pytest.approx(best_val, abs=1e-6)
    assert abs(res.coefficients[0].imag) < 1e-8


def test_irls_at_p2_configuration_matches_direct_solver():
    # with p = 2 the reweighting is trivial, so one weighted solve results
    d, f, inst, _, _ = make_instance(seed=9, p=2.0)
    res = chebyshev_projection(inst, (0, 3))
    a = inst.dict_values[:, [0, 3]]
    direct, *_ = np.linalg.lstsq(a, inst.f_values, rcond=None)
    assert np.allclose(res.coefficients, direct, atol=1e-10)
    assert res.iterations == 1


def test_irls_p4_stationarity():
    # at the minimizer the norming functional annihilates the span
    d, f, inst, _, _ = make_instance(seed=10, p=4.0, extra=TrigPolynomial({6: 0.3}))
    subset = (0, 1, 2)
    res = chebyshev_projection(inst, subset)
    assert res.converged
    for j in subset:
        action = norming_functional_action(res.residual,
                                           inst.dict_values[:, j], 4.0,
                                           inst.weights)
        assert abs(action) < 1e-6


def test_norming_functional_norms_itself():
    rng = np.random.default_rng(1)
    r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for p in (2.0, 3.0, 4.5):
        norm = (np.mean(np.abs(r) ** p)) ** (1 / p)
        assert norming_functional_action(r, r, p) == pytest.approx(norm, rel=1e-12)


def test_norming_functional_p2_is_normalized_inner_product():
    rng = np.random.default_rng(2)
    r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    expect = np.mean(np.conj(r) * g) / math.sqrt(np.mean(np.abs(r) ** 2))
    assert norming_functional_action(r, g, 2.0) == pytest.approx(expect, rel=1e-12)


def test_norming_functional_hoelder_bound_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = float(rng.uniform(1.5, 6.0))
        action = abs(norming_functional_action(r, g, p))
        bound = (np.mean(np.abs(g) ** p)) ** (1 / p)
        assert action <= bound + 1e-12


def test_norming_functional_equality_for_aligned_vector():
    rng = np.random.default_rng(4)
    r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    g = 2.5 * r
    for p in (2.0, 4.0):
        action = abs(norming_functional_action(r, g, p))
        bound = (np.mean(np.abs(g) ** p)) ** (1 / p)
        assert action == pytest.approx(bound, rel=1e-12)


def test_norming_functional_zero_residual_raises():
    with pytest.raises(ZeroResidualError):
        norming_functional_action(np.zeros(4), np.ones(4), 2.0)


def test_wcga_one_sparse_single_iteration():
    d, f, inst, support, _ = make_instance(seed=5, target_support=[3])
    appr = weak_chebyshev_greedy(inst, max_iter=5, stop_tol=1e-10)
    assert appr.support == (3,)
    assert appr.residual_norm <= 1e-10
    assert len(appr.trace) == 1


def test_wcga_recovers_four_sparse_in_four_iterations():
    d, f, inst, support, _ = make_instance(seed=7, target_support=[0, 2, 5, 8])
    appr = weak_chebyshev_greedy(inst, max_iter=4, stop_tol=1e-10)
    assert sorted(appr.support) == [0, 2, 5, 8]
    assert appr.residual_norm <= 1e-8


def test_wcga_trace_residuals_nonincreasing():
    extra = TrigPolynomial({6: 0.4, -6: 0.2})
    d, f, inst, _, _ = make_instance(seed=8, p=4.0, extra=extra)
    appr = weak_chebyshev_greedy(inst, max_iter=6)
    norms = [rec["residual_norm"] for rec in appr.trace]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_sparse_approximant_roundtrips_through_json_text():
    extra = TrigPolynomial({6: 0.4, -6: 0.2})
    _, _, inst, _, _ = make_instance(seed=8, p=4.0, extra=extra)
    wcga = weak_chebyshev_greedy(inst, max_iter=3)
    empty = SparseApproximant((), np.zeros(0, dtype=complex), math.inf,
                              [{"iteration": 1, "functional": math.nan}],
                              converged=False, method="none")
    for appr in (wcga, best_v_term_oracle(inst, 2), empty):
        text = jsonio.dumps(appr.to_json())
        again = SparseApproximant.from_json(json.loads(text))
        assert jsonio.dumps(again.to_json()) == text
        assert again.support == appr.support and again.method == appr.method
        assert np.array_equal(again.coefficients, appr.coefficients)
        assert again.coefficients.dtype == complex
        assert again.converged == appr.converged
        assert again.residual_norm == appr.residual_norm
        # repr tells float nan from the string "nan" and 1 from 1.0
        assert ([{k: repr(v) for k, v in step.items()} for step in again.trace]
                == [{k: repr(v) for k, v in step.items()} for step in appr.trace])


def test_wcga_tie_breaks_to_lowest_index():
    # 2 cos x splits evenly over e^{-ix} and e^{ix}; the lower index wins
    d = Dictionary.exponential_band(-1, 1)
    f = TrigPolynomial({1: 1.0, -1: 1.0})
    inst = DiscreteInstance.from_function(f, d, PointSet.equispaced(8, 1), 2)
    appr = weak_chebyshev_greedy(inst, max_iter=1)
    assert appr.support == (0,)  # index 0 carries frequency -1


def test_wcga_label_names_the_exact_weakness():
    d, f, inst, support, _ = make_instance(seed=5, target_support=[3])
    appr = weak_chebyshev_greedy(inst, max_iter=1)
    assert appr.method == "wcga(t=1.0)"
    assert appr.support == (3,)


def test_oracle_full_support_equals_full_projection():
    d, f, inst, _, _ = make_instance(seed=11, band=2)
    full = chebyshev_projection(inst, range(5))
    oracle = best_v_term_oracle(inst, 5)
    assert oracle.residual_norm == pytest.approx(full.residual_norm, abs=1e-12)


def test_oracle_v_zero_returns_target_norm():
    d, f, inst, _, _ = make_instance(seed=12)
    oracle = best_v_term_oracle(inst, 0)
    assert oracle.residual_norm == pytest.approx(inst.norm(inst.f_values))
    assert oracle.support == ()


def test_oracle_cap():
    d = Dictionary.exponential_band(-20, 20)
    f = TrigPolynomial({1: 1.0})
    inst = DiscreteInstance.from_function(f, d, PointSet.equispaced(64, 1), 2)
    with pytest.raises(CapExceededError):
        best_v_term_oracle(inst, 10)   # C(41, 10), about 1.1e9 subsets


def test_oracle_dominates_wcga_fifty_instances():
    d = Dictionary.exponential_band(-4, 4)
    xi = PointSet.equispaced(32, 1)
    rng = np.random.default_rng(13)
    for _ in range(50):
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = d.combine(coeffs * rng.uniform(0.1, 1.0, 9))
        inst = DiscreteInstance.from_function(f, d, xi, 2)
        v = int(rng.integers(1, 4))
        greedy = weak_chebyshev_greedy(inst, max_iter=v)
        oracle = best_v_term_oracle(inst, v)
        assert oracle.residual_norm <= greedy.residual_norm + 1e-12


def test_block_term_schedule_hand_values():
    # n = 3, beta = 1/2, d = 1: floor(2^{3 - (j-3)/2}), which is 0 from j = 10
    expected = {3: 8, 4: 5, 5: 4, 6: 2, 7: 2, 8: 1, 9: 1, 10: 0}
    for j, v in expected.items():
        assert math.floor(2.0 ** (3 - 0.5 * (j - 3))) == v  # the floor formula by hand
    assert block_term_schedule(3, 0.5, 1) == [(j, v) for j, v in expected.items() if v]


def test_block_term_schedule_d2_nonmonotone_guard():
    sched = block_term_schedule(2, 0.25, 2)
    assert sched[0][0] == 2
    assert all(v >= 1 for _, v in sched)
    # the polynomial factor grows before the geometric part wins
    counts = [v for _, v in sched]
    assert max(counts) >= counts[0]


def test_block_greedy_reproduces_low_level_functions():
    budget = SmoothnessBudget(1.0, 0.0, 1, 3)
    f = level_budget_element(budget, rng_seed=1)
    result = block_greedy_approximant(f, n=4, beta=0.5)
    assert (f - result.approximant).coefficient_l2() <= 1e-14
    assert result.total_terms == len(f.coeffs)


def test_block_greedy_error_decreases_with_cut():
    budget = SmoothnessBudget(0.75, 0.0, 1, 12)
    f = level_budget_element(budget, support_rule=256, rng_seed=2)
    errors = []
    for n in (2, 4, 6):
        res = block_greedy_approximant(f, n, beta=0.375)
        errors.append(lp_norm(f - res.approximant, 2))
    assert errors[0] > errors[1] > errors[2]


def test_block_greedy_thresholding_keeps_largest():
    coeffs = {(4,): 1.0, (5,): 0.25, (6,): 0.5, (7,): 0.1}  # all level 3
    f = TrigPolynomial(coeffs)
    res = block_greedy_approximant(f, n=3, beta=10.0)  # v_3 = 8 -> all kept
    assert res.approximant.coeffs == f.coeffs
    g = TrigPolynomial({**coeffs, (2,): 9.0})  # level 2 survives the cut
    res2 = block_greedy_approximant(g, n=3, beta=0.5)
    assert (2,) in res2.approximant.coeffs


def test_block_greedy_keeps_the_per_key_level_thresholding():
    budget = SmoothnessBudget(0.5, 1.0, 2, 8)
    f = level_budget_element(budget, support_rule=24, rng_seed=9)
    n, beta = 3, 0.5
    keep, blocks = {}, {}
    for k, c in f.coeffs.items():
        if level_of(k) < n:
            keep[k] = c
        else:
            blocks.setdefault(level_of(k), []).append((k, c))
    for j, count in block_term_schedule(n, beta, 2):
        entries = sorted(blocks.get(j, []), key=lambda kc: (-abs(kc[1]), kc[0]))
        keep.update(entries[:count])
    res = block_greedy_approximant(f, n, beta)
    assert list(res.approximant.coeffs.items()) == list(
        TrigPolynomial(keep, 2).coeffs.items())


def test_wcga_iteration_budget_formula():
    v, dconst, k = 3, 1.2, 1.0
    big_v = dconst * math.sqrt(k)
    assert wcga_iteration_budget(v, dconst, k) == pytest.approx(
        big_v ** 2 * math.log(big_v * v) * v, rel=1e-12)


def test_pipeline_exact_sparse_oracle_recovery():
    d = Dictionary.exponential_band(-3, 3)
    rng = np.random.default_rng(14)
    f = d.combine(rng.standard_normal(2) + 1j * rng.standard_normal(2), [1, 5])
    xi = PointSet.equispaced(16, 1)
    report = recovery_pipeline(f, d, xi, v=2, p=2, method=("oracle", {}))
    assert report.continuous_error <= 1e-8
    assert report.discrete_residual <= 1e-10
    assert "uncertified_points" in report.flags
    # the pipeline approximates from the dictionary; block greedy is called
    # directly; a misspelt or removed parameter is named, not ignored
    for method, message in ((("block", {"n": 3, "beta": 0.5}),
                             "unknown recovery method 'block'"),
                            (("wcga", {"max_iters": 1}),
                             r"unknown wcga parameter 'max_iters' \(wcga takes max_iter, stop_tol\)"),
                            (("wcga", {"t": 1.0}), "unknown wcga parameter 't'"),
                            (("oracle", {"v": 2}),
                             r"unknown oracle parameter 'v' \(oracle takes none\)")):
        with pytest.raises(ValueError, match=message):
            recovery_pipeline(f, d, xi, v=2, p=2, method=method)


def test_pipeline_oracle_runs_once_and_reuses_its_residual(monkeypatch):
    import usdlab.recovery as recovery
    calls = []

    def counting_oracle(*args, **kwargs):
        calls.append(1)
        return best_v_term_oracle(*args, **kwargs)

    monkeypatch.setattr(recovery, "best_v_term_oracle", counting_oracle)
    d, f, _, _, _ = make_instance(seed=3, band=3, p=4.0, m=48)
    xi = PointSet.equispaced(48, 1)
    report = recovery_pipeline(f, d, xi, v=2, p=4.0, method=("oracle", {}))
    assert len(calls) == 1
    assert report.sigma_discrete == report.discrete_residual


def test_pipeline_embeds_certificate_and_flags():
    d = Dictionary.exponential_band(-3, 3)
    coll = SubspaceCollection.all_subsets(d, 2)
    xi = PointSet.random_uniform(128, 1, seed=15)
    cert = check_usd(xi, coll, 2)
    f = TrigPolynomial({1: 1.0, 4: 0.5})
    report = recovery_pipeline(f, d, xi, v=1, p=2, method=("wcga", {}),
                               certificate=cert)
    assert report.one_sided_constant == pytest.approx(cert.one_sided_constant)
    assert report.certificate["passed"] == cert.passed
    assert "uncertified_points" not in report.flags
    payload = report.to_json()
    assert payload["certificate"]["p"] == 2.0


def test_pipeline_reports_the_rigorous_constant_of_a_rigorous_certificate():
    # p = 4 band(-2, 2) pairs: the lifted outer window passes, so the report
    # carries max_J outer_min(J)^(-1/p) and no heuristic flag
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(128, 1, seed=1)
    cert = check_usd(xi, SubspaceCollection.all_subsets(d, 2), 4)
    assert cert.heuristic and cert.rigorous_pass
    f = TrigPolynomial({1: 1.0, -2: 0.5})
    report = recovery_pipeline(f, d, xi, v=2, p=4, method=("oracle", {}),
                               certificate=cert)
    assert "heuristic_certificate" not in report.flags
    rigorous = min(cert.outer_min_ratios) ** (-1.0 / 4)
    assert report.one_sided_constant == rigorous
    assert report.one_sided_constant >= cert.one_sided_constant
    assert report.to_json()["certificate"]["rigorous_pass"] is True


def test_pipeline_flags_a_certificate_that_is_only_heuristic():
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(128, 1, seed=1)
    cert = check_usd(xi, SubspaceCollection.all_subsets(d, 2), 3)
    assert cert.heuristic and cert.rigorous_pass is None
    report = recovery_pipeline(TrigPolynomial({1: 1.0}), d, xi, v=1, p=3,
                               method=("oracle", {}), certificate=cert)
    assert "heuristic_certificate" in report.flags
    assert report.one_sided_constant == cert.one_sided_constant


def test_blended_sigma_decreases_with_v():
    d = Dictionary.exponential_band(-3, 3)
    rng = np.random.default_rng(16)
    f = d.combine(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    f = f + TrigPolynomial({5: 0.2})
    xi = PointSet.random_uniform(32, 1, seed=17)
    errs = [best_v_term_error_blended(f, d, xi, v, 2) for v in (0, 1, 2)]
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[0] == pytest.approx(
        (0.5 * lp_norm(f, 2) ** 2
         + 0.5 * np.mean(np.abs(f.evaluate(xi)) ** 2)) ** 0.5, rel=1e-9)


def test_irls_flags_non_convergence_on_tiny_budget():
    extra = TrigPolynomial({6: 0.3, -6: 0.2})
    d, f, inst, _, _ = make_instance(seed=21, p=4.0, extra=extra)
    res = chebyshev_projection(inst, (0, 1), max_iters=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.residual_norm > 0


def _wcga_block_greedy(f, n, beta, grid_level=9):
    """Reference per-level rule: the weak greedy on each level block at p = 2,
    run over an equispaced grid that integrates the block's products exactly."""
    freqs, coeffs = f.as_arrays()
    levels = frequency_levels(freqs)
    kept = TrigPolynomial.from_arrays(freqs[levels < n], coeffs[levels < n], 1)
    for j, count in block_term_schedule(n, beta, 1):
        rows = levels == j
        if not rows.any():
            continue
        block = TrigPolynomial.from_arrays(freqs[rows], coeffs[rows], 1)
        block_dict = Dictionary.exponentials(
            FrequencySet.from_indices(freqs[rows].tolist()))
        grid = PointSet.equispaced(_quadrature_grid_size(
            block.max_component_frequency(), grid_level, 2, 1))
        inst = DiscreteInstance.from_function(block, block_dict, grid, 2.0)
        appr = weak_chebyshev_greedy(inst, max_iter=count)
        kept = kept + block_dict.combine(appr.coefficients, appr.support)
    return kept


def test_block_greedy_matches_a_per_level_wcga_reference():
    # on orthonormal blocks with an exact grid, the weak greedy picks the
    # largest coefficients, so it keeps what thresholding keeps
    budget = SmoothnessBudget(1.0, 0.0, 1, 7)
    f = level_budget_element(budget, support_rule=16, rng_seed=5)
    thresh = block_greedy_approximant(f, n=3, beta=0.5)
    greedy = _wcga_block_greedy(f, n=3, beta=0.5)
    assert set(greedy.support) == set(thresh.approximant.support)
    for k, c in thresh.approximant.coeffs.items():
        assert greedy.coeffs[k] == pytest.approx(c, abs=1e-10)


def test_block_greedy_bytes_are_pinned_for_the_recovery_rate_config():
    # the a = 1.0 element of configs/recovery_rate.json (seed 909 + 1) over
    # its n sweep, pinned bit for bit
    budget = SmoothnessBudget(1.0, 0.0, 1, 20)
    f = level_budget_element(budget, support_rule=4096, rng_seed=910)
    digest = hashlib.sha256()
    for n in range(3, 9):
        freqs, coeffs = block_greedy_approximant(f, n, 0.5).approximant.as_arrays()
        digest.update(np.ascontiguousarray(freqs).tobytes())
        digest.update(np.ascontiguousarray(coeffs).tobytes())
    assert digest.hexdigest() == (
        "49ebee769c2a6d53e3f1ca80612d34ad4f8e79482ca2e0bb00c9dc288c03fa6a")
