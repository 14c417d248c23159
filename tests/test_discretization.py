import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from usdlab import discretization
from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (RatioOptions, UsdCertificate, check_usd,
                                   discretization_error_trials,
                                   expected_sup_estimate, find_usd_points,
                                   subspace_ratio_bounds, usd_sample_budget)
from usdlab.entropy import SampledClass, entropy_numbers
from usdlab.errors import (CapExceededError, DimensionMismatchError,
                           RankDeficiencyError)
from usdlab.frequencies import FrequencySet
from usdlab.multistart import LIFT_CAP_BYTES
from usdlab.points import PointSet
from usdlab.recovery import (DiscreteInstance, best_v_term_oracle,
                             weak_chebyshev_greedy)
from usdlab.trigpoly import TrigPolynomial, lp_norm


def test_equispaced_quadrature_is_exact():
    d = Dictionary.exponential_band(-4, 4)
    xi = PointSet.equispaced(16, 1)  # 16 >= 2*4 + 1
    res = subspace_ratio_bounds(range(9), d, xi, 2)
    assert res.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert res.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert res.method == {"kind": "eigen_exact"}
    assert not res.heuristic


def test_single_unimodular_element_ratio_one():
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(7, 1, seed=3)
    for p in (2.0, 3.0):
        res = subspace_ratio_bounds([4], d, xi, p, RatioOptions(starts=4))
        assert res.min_ratio == pytest.approx(1.0, abs=1e-9)
        assert res.max_ratio == pytest.approx(1.0, abs=1e-9)


def test_single_point_two_dim_span_min_ratio_zero():
    d = Dictionary.exponential_band(0, 1)  # span{1, e^{ix}}
    xi = PointSet.explicit(np.array([0.0]))
    res = subspace_ratio_bounds([0, 1], d, xi, 2)
    assert res.min_ratio == pytest.approx(0.0, abs=1e-12)


def test_eigen_extremes_dominate_dense_sampling():
    d = Dictionary.exponential_band(-3, 3)
    xi = PointSet.random_uniform(24, 1, seed=9)
    subset = (0, 2, 5)
    res = subspace_ratio_bounds(subset, d, xi, 2)
    v = d.values_at(xi)[:, list(subset)]
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 10**4)) + 1j * rng.standard_normal((3, 10**4))
    c /= np.linalg.norm(c, axis=0)
    ratios = np.mean(np.abs(v @ c) ** 2, axis=0)  # continuous Gram is I
    assert res.max_ratio >= ratios.max() - 1e-12
    assert res.min_ratio <= ratios.min() + 1e-12


def test_multistart_finds_the_constant_span_extreme():
    # span{1}: the ratio is exactly 1 whatever the points are
    d = Dictionary.exponential_band(0, 0)
    xi = PointSet.random_uniform(11, 1, seed=2)
    res = subspace_ratio_bounds([0], d, xi, 4, RatioOptions(starts=3))
    assert res.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert res.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert res.heuristic


def test_multistart_dominates_dense_sampling_p4():
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(64, 1, seed=21)
    subset = (1, 3)
    opts = RatioOptions(starts=16, seed=5)
    res = subspace_ratio_bounds(subset, d, xi, 4, opts)
    v_emp = d.values_at(xi)[:, list(subset)]
    grid = PointSet.equispaced(64, 1)
    v_cont = d.values_at(grid)[:, list(subset)]
    rng = np.random.default_rng(8)
    c = rng.standard_normal((2, 2000)) + 1j * rng.standard_normal((2, 2000))
    c /= np.linalg.norm(c, axis=0)
    num = np.mean(np.abs(v_emp @ c) ** 4, axis=0)
    den = np.mean(np.abs(v_cont @ c) ** 4, axis=0)
    ratios = num / den
    assert res.max_ratio >= ratios.max() - 1e-9
    assert res.min_ratio <= ratios.min() + 1e-9


def test_rank_deficiency_detected():
    g = TrigPolynomial({0: 1.0})
    d = Dictionary([g, g.scale(2.0)], uniform_bound=2.0)
    xi = PointSet.random_uniform(4, 1, seed=0)
    with pytest.raises(RankDeficiencyError):
        subspace_ratio_bounds([0, 1], d, xi, 2)


def test_rank_check_still_runs_for_a_repeated_monomial():
    d = Dictionary.exponential_band(-2, 2)
    xi = PointSet.random_uniform(8, 1, seed=0)
    with pytest.raises(RankDeficiencyError):
        subspace_ratio_bounds([1, 1], d, xi, 2)


def test_check_usd_equispaced_full_pass():
    d = Dictionary.exponential_band(-4, 4)
    coll = SubspaceCollection.all_subsets(d, 9)  # the full space only
    xi = PointSet.equispaced(32, 1)
    cert = check_usd(xi, coll, 2)
    assert cert.passed
    assert cert.one_sided_constant == pytest.approx(1.0, abs=1e-10)
    assert all(abs(r - 1) < 1e-10 for r in cert.min_ratios + cert.max_ratios)


def test_check_usd_repeated_point_fails():
    d = Dictionary.exponential_band(-2, 2)
    coll = SubspaceCollection.all_subsets(d, 2)
    xi = PointSet.explicit(np.zeros((4, 1)))  # one point repeated
    cert = check_usd(xi, coll, 2)
    assert not cert.passed
    assert min(cert.min_ratios) == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(cert.one_sided_constant)
    assert cert.worst_violation() >= 0.5


def test_one_sided_constant_arithmetic():
    d = Dictionary.exponential_band(-2, 2)
    coll = SubspaceCollection.from_subsets(d, [(0, 1), (2, 3)])
    xi = PointSet.random_uniform(64, 1, seed=14)
    cert = check_usd(xi, coll, 2)
    expect = max(r ** (-1 / 2) for r in cert.min_ratios)
    assert cert.one_sided_constant == pytest.approx(expect, rel=1e-12)


def test_certificate_json_roundtrip():
    d = Dictionary.exponential_band(-2, 2)
    coll = SubspaceCollection.from_subsets(d, [(0, 1)])
    cert = check_usd(PointSet.random_uniform(32, 1, seed=1), coll, 2)
    again = UsdCertificate.from_json(cert.to_json())
    assert again.passed == cert.passed
    assert again.min_ratios == pytest.approx(cert.min_ratios)
    assert again.subsets == cert.subsets
    assert len(cert.to_json()["min_ratios"]) == 1  # per-subset arrays present


def test_outer_window_fields_appear_at_even_p_above_two_only():
    d = Dictionary.exponential_band(-2, 2)
    coll = SubspaceCollection.from_subsets(d, [(0, 1), (1, 4)])
    xi = PointSet.random_uniform(48, 1, seed=6)
    opts = RatioOptions(starts=3, max_iters=30)
    outer_keys = {"outer_min_ratios", "outer_max_ratios", "rigorous_pass"}
    for p in (2, 3, 4.5):
        assert not outer_keys & set(check_usd(xi, coll, p, opts).to_json())
    for p in (4, 6):
        cert = check_usd(xi, coll, p, opts)
        obj = cert.to_json()
        assert outer_keys <= set(obj)
        again = UsdCertificate.from_json(obj)
        assert again.outer_min_ratios == cert.outer_min_ratios
        assert again.outer_max_ratios == cert.outer_max_ratios
        assert again.rigorous_pass is cert.rigorous_pass
        assert cert.rigorous_pass == all(
            0.5 <= a and b <= 1.5
            for a, b in zip(cert.outer_min_ratios, cert.outer_max_ratios))


def test_odd_exponent_evaluates_each_quadrature_grid_once(monkeypatch):
    calls = []
    values_at = Dictionary.values_at

    def counting(self, points):
        calls.append(len(points.points if isinstance(points, PointSet) else points))
        return values_at(self, points)

    monkeypatch.setattr(Dictionary, "values_at", counting)
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-40, 2), 2)
    cert = check_usd(PointSet.random_uniform(16, 1, seed=2), coll, 3,
                     RatioOptions(starts=1, max_iters=1))
    assert len(cert.subsets) == 903
    # the nodes once, then one grid per distinct size max(3 * maxfreq + 1, 64)
    assert calls[0] == 16
    assert sorted(calls[1:]) == [64] + [3 * k + 1 for k in range(22, 41)]


def test_subset_cap_enforced():
    d = Dictionary.exponential_band(-15, 15)
    coll = SubspaceCollection.all_subsets(d, 10)   # C(31, 10) = 44 352 165
    with pytest.raises(CapExceededError):
        check_usd(PointSet.equispaced(64, 1), coll, 2)


def test_lifted_gram_size_is_refused_before_it_is_allocated():
    # a p = 4 pair of d = 2 polynomials whose union holds 201 frequencies:
    # thousands of distinct pair sums, a scatter matrix of gigabytes
    rng = np.random.default_rng(8)
    keys = rng.permutation(np.array(list(itertools.product(range(-30, 31), repeat=2))))
    elements = [TrigPolynomial({tuple(k): 1.0 for k in keys[:100].tolist()}, 2),
                TrigPolynomial({tuple(k): 1.0 for k in keys[100:201].tolist()}, 2)]
    d = Dictionary(elements, uniform_bound=101.0)
    xi = PointSet.random_uniform(16, 2, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as exc:
            subspace_ratio_bounds((0, 1), d, xi, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.cap == LIFT_CAP_BYTES < exc.value.predicted
    assert peak < 2 ** 25


def test_find_usd_points_full_space_succeeds():
    d = Dictionary.exponential_band(-4, 4)
    coll = SubspaceCollection.all_subsets(d, 9)
    res = find_usd_points(coll, 2, m=256, max_trials=20, rng_seed=31)
    assert res.passed
    assert res.certificate.passed
    assert res.points.size == 256
    assert res.points.provenance["draw_index"] == res.draw_index


def test_find_usd_points_single_point_two_dim_always_fails():
    d = Dictionary.exponential_band(0, 1)
    coll = SubspaceCollection.all_subsets(d, 2)
    res = find_usd_points(coll, 2, m=1, max_trials=5, rng_seed=0)
    assert not res.passed
    assert res.trials_run == 5
    assert res.certificate.worst_violation() > 0  # best attempt carried


def test_find_usd_points_bit_reproducible():
    d = Dictionary.exponential_band(-2, 2)
    coll = SubspaceCollection.all_subsets(d, 2)
    r1 = find_usd_points(coll, 2, m=64, max_trials=5, rng_seed=77)
    r2 = find_usd_points(coll, 2, m=64, max_trials=5, rng_seed=77)
    assert np.array_equal(r1.points.points, r2.points.points)
    assert r1.certificate.min_ratios == r2.certificate.min_ratios
    assert r1.draw_index == r2.draw_index


def test_usd_sample_budget_formula():
    v, n = 2, 7
    expect = v * (math.log2(2 * v) + math.log2(math.log2(2 * n))) ** 2 \
        * math.log2(n) ** 2
    assert usd_sample_budget(v, n) == pytest.approx(expect, rel=1e-12)


def test_ratio_dilution_under_point_addition():
    # appending m' points to an exact equispaced set moves p = 2 ratios
    # inside the interval predicted by weight dilution
    d = Dictionary.exponential_band(-2, 2)
    subset = (0, 2, 4)
    base = PointSet.equispaced(20, 1)
    extra = PointSet.random_uniform(60, 1, seed=6)
    combined = base.append(extra)
    m, mp = base.size, extra.size
    extra_res = subspace_ratio_bounds(subset, d, extra, 2)
    comb_res = subspace_ratio_bounds(subset, d, combined, 2)
    lo_bound = (m + mp * extra_res.min_ratio) / (m + mp)
    hi_bound = (m + mp * extra_res.max_ratio) / (m + mp)
    assert comb_res.min_ratio >= lo_bound - 1e-10
    assert comb_res.max_ratio <= hi_bound + 1e-10
    # and when the appended ratios sit in [0, 2], the coarse dilution
    # interval [m/(m+m'), (m+2m')/(m+m')] also contains everything
    if extra_res.min_ratio >= 0 and extra_res.max_ratio <= 2:
        assert comb_res.min_ratio >= m / (m + mp) - 1e-10
        assert comb_res.max_ratio <= (m + 2 * mp) / (m + mp) + 1e-10


def test_discretization_error_trivial_members():
    # a constant and a single wave have |f| = 1 at every node, so every gap
    # is 0, exactly so at p = 2, where one frequency has no difference to sum
    const = TrigPolynomial({(0,): 1.0})
    wave = TrigPolynomial({(3,): 1.0})
    for f in (const, wave):
        assert discretization_error_trials([f], 2, 10, 3).tolist() == [0.0] * 3
    assert discretization_error_trials([wave], 4, 10, 3) == pytest.approx(0.0, abs=1e-12)


def test_discretization_error_hand_value():
    # W = {sqrt(2) cos x} at one node x: ||f||_2^2 = 1 and |f(x)|^2 = 2 cos^2 x,
    # so each trial's gap is |cos 2x| at its node
    f = TrigPolynomial({1: math.sqrt(2) / 2, -1: math.sqrt(2) / 2})
    gaps = discretization_error_trials([f], 2, 1, 4, rng_seed=6)
    x = [np.random.default_rng([6, t]).uniform(0.0, 2.0 * np.pi, size=(1, 1))[0, 0]
         for t in range(4)]
    assert gaps == pytest.approx(np.abs(np.cos(2 * np.array(x))), rel=1e-13, abs=1e-15)


def test_expected_sup_trivial_classes():
    zero = TrigPolynomial({}, dimension=1)
    mean, stderr = expected_sup_estimate([zero], 2, m=8, mc_trials=4, rng_seed=0)
    assert mean == 0.0 and stderr == 0.0
    wave = TrigPolynomial({(2,): 1.0})
    mean, stderr = expected_sup_estimate([wave], 2, m=8, mc_trials=4, rng_seed=0)
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert stderr == pytest.approx(0.0, abs=1e-14)


def test_expected_sup_deterministic_and_decaying():
    rng = np.random.default_rng(12)
    funcs = []
    for _ in range(5):
        coeffs = {int(k): complex(a, b) / 8 for k, a, b in
                  zip(rng.integers(-8, 9, 6), rng.normal(size=6), rng.normal(size=6))}
        funcs.append(TrigPolynomial(coeffs))
    m1 = expected_sup_estimate(funcs, 2, m=32, mc_trials=40, rng_seed=3)
    m1_again = expected_sup_estimate(funcs, 2, m=32, mc_trials=40, rng_seed=3)
    assert m1 == m1_again
    m2 = expected_sup_estimate(funcs, 2, m=2048, mc_trials=40, rng_seed=3)
    assert m2[0] < m1[0]  # larger samples discretize better
    assert m1[1] > 0


def test_certificate_with_infinite_constant_roundtrips_through_text():
    import json

    from usdlab import jsonio
    d = Dictionary.exponential_band(0, 1)
    coll = SubspaceCollection.all_subsets(d, 2)
    cert = check_usd(PointSet.explicit(np.zeros((2, 1))), coll, 2)
    assert math.isinf(cert.one_sided_constant)
    text = jsonio.dumps(cert.to_json())
    again = UsdCertificate.from_json(json.loads(text))
    assert math.isinf(again.one_sided_constant)
    assert again.min_ratios == pytest.approx(cert.min_ratios)


def test_pointset_json_roundtrip(tmp_path):
    ps = PointSet.random_uniform(6, 2, seed=9, draw_index=1)
    path = tmp_path / "points.json"
    ps.save(path)
    again = PointSet.load(path)
    assert np.allclose(again.points, ps.points)
    assert again.provenance == ps.provenance


def test_equispaced_tensor_grid_exact_in_two_dimensions():
    from usdlab.frequencies import hyperbolic_cross
    d2 = Dictionary.exponentials(hyperbolic_cross(2, 2))  # 21 elements
    xi = PointSet.equispaced(8, 2)  # 8 >= 2*2 + 1 per dimension
    res = subspace_ratio_bounds(range(21), d2, xi, 2)
    assert res.min_ratio == pytest.approx(1.0, abs=1e-10)
    assert res.max_ratio == pytest.approx(1.0, abs=1e-10)


def test_equispaced_refuses_grids_above_the_point_cap():
    from usdlab.errors import GridTooCoarseError
    from usdlab.points import GRID_POINT_CAP, tensor_grid_points
    assert np.array_equal(PointSet.equispaced(7, 3).points,
                          tensor_grid_points(7, 3))
    assert 4097 ** 2 > GRID_POINT_CAP
    with pytest.raises(GridTooCoarseError):
        PointSet.equispaced(4097, 2)
    with pytest.raises(GridTooCoarseError):
        PointSet.equispaced(GRID_POINT_CAP + 1)


def test_find_usd_points_heuristic_exponent():
    d = Dictionary.exponential_band(-2, 2)
    coll = SubspaceCollection.from_subsets(d, [(0, 2), (1, 4)])
    res = find_usd_points(coll, 3.0, m=256, max_trials=5, rng_seed=41,
                          opts=RatioOptions(starts=6, max_iters=120))
    assert res.passed
    assert res.certificate.heuristic
    assert res.certificate.method["kind"] == "multistart"


def _band_collection():
    return SubspaceCollection.all_subsets(Dictionary.exponential_band(-2, 2), 2)


@pytest.mark.parametrize("call", [
    lambda: check_usd(PointSet.equispaced(16), _band_collection(), 0.5),
    lambda: check_usd(PointSet.equispaced(16), _band_collection(), 0.0),
    lambda: check_usd(PointSet.equispaced(16), _band_collection(), float("nan")),
    lambda: check_usd(PointSet.equispaced(16), _band_collection(), 2, epsilon=2),
    lambda: subspace_ratio_bounds((0, 1), Dictionary.exponential_band(-2, 2),
                                  PointSet.equispaced(16), 0.5),
    lambda: subspace_ratio_bounds((-1, 0), Dictionary.exponential_band(-3, 3),
                                  PointSet.equispaced(16), 2),
    lambda: subspace_ratio_bounds((0, 7), Dictionary.exponential_band(-3, 3),
                                  PointSet.equispaced(16), 2),
    lambda: subspace_ratio_bounds((), Dictionary.exponential_band(-3, 3),
                                  PointSet.equispaced(16), 2),
    lambda: SubspaceCollection.from_subsets(Dictionary.exponential_band(-3, 3), [()]),
    lambda: find_usd_points(_band_collection(), 2, m=16, max_trials=0),
    lambda: PointSet([0.1, float("nan")]),
    lambda: discretization_error_trials([TrigPolynomial({(1,): 1.0})], 2, 0, 3),
    lambda: discretization_error_trials([TrigPolynomial({(1,): 1.0})], 2, -1, 3),
    lambda: expected_sup_estimate([TrigPolynomial({(1,): 1.0})], 2, 0, 3),
], ids=["p_half", "p_zero", "p_nan", "epsilon_two", "ratio_p_half",
        "ratio_negative_index", "ratio_index_past_end", "ratio_empty_subset",
        "collection_empty_subset", "no_trials",
        "nan_point", "trials_no_points", "trials_negative_points",
        "sup_estimate_no_points"])
def test_bad_input_rejected_at_the_boundary(call):
    with pytest.raises(ValueError):
        call()


_WAVE = [TrigPolynomial({(1,): 1.0})]


@pytest.mark.parametrize("call, name", [
    (lambda: discretization_error_trials(_WAVE, 2, 8.5, 3), "m"),
    (lambda: discretization_error_trials(_WAVE, 2, True, 3), "m"),
    (lambda: discretization_error_trials(_WAVE, 2, "8", 3), "m"),
    (lambda: discretization_error_trials(_WAVE, 2, 8, 2.5), "mc_trials"),
    (lambda: expected_sup_estimate(_WAVE, 2, 8, 2.5), "mc_trials"),
    (lambda: expected_sup_estimate(_WAVE, 3, 8, False), "mc_trials"),
    (lambda: discretization_error_trials(_WAVE, 2, 8, 3, rng_seed=1.5), "rng_seed"),
    (lambda: expected_sup_estimate(_WAVE, 2, 8, 3, rng_seed=[4, 0.5]), "rng_seed"),
], ids=["m_fractional", "m_bool", "m_string", "trials_fractional",
        "sup_estimate_trials_fractional", "sup_estimate_trials_bool",
        "seed_fractional", "seed_list_fractional"])
def test_gap_trial_counts_and_seeds_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def _band_instance():
    band = Dictionary.exponential_band(-2, 2)
    return DiscreteInstance.from_function(TrigPolynomial({(1,): 1.0}), band,
                                          PointSet.equispaced(16), 2)


def _band_pairs():
    return SubspaceCollection.all_subsets(Dictionary.exponential_band(-2, 2), 2)


@pytest.mark.parametrize("call, name", [
    (lambda: find_usd_points(_band_pairs(), 2, 2.5), "m"),
    (lambda: find_usd_points(_band_pairs(), 2, True), "m"),
    (lambda: find_usd_points(_band_pairs(), 2, 16, max_trials=2.5), "max_trials"),
    (lambda: best_v_term_oracle(_band_instance(), 2.5), "v"),
    (lambda: weak_chebyshev_greedy(_band_instance(), 2.5), "max_iter"),
    (lambda: entropy_numbers(SampledClass.from_l1_ball(
        Dictionary.exponential_band(-2, 2), 8, grid_level=4), 2.5), "n_max"),
    (lambda: PointSet.equispaced(2.5), "n"),
    (lambda: PointSet.equispaced(4, 1.5), "d"),
    (lambda: PointSet.random_uniform(2.5, 1, 0), "m"),
    (lambda: PointSet.random_uniform(4, 1, 0.5), "seed"),
    (lambda: PointSet.random_uniform(4, True, 0), "d"),
    (lambda: PointSet.random_uniform(4, 1, 0, draw_index=True), "draw_index"),
], ids=["search_m_fractional", "search_m_bool", "search_trials_fractional",
        "oracle_v_fractional", "wcga_iterations_fractional",
        "entropy_n_max_fractional", "equispaced_n_fractional",
        "equispaced_d_fractional", "random_m_fractional", "random_seed_fractional",
        "random_d_bool", "random_draw_index_bool"])
def test_counts_must_be_integers_at_the_api_boundary(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def _band_nodes():
    return PointSet.equispaced(16)


@pytest.mark.parametrize("call, message", [
    (lambda: check_usd(_band_nodes(), _band_pairs(), "2"), "p must be a real number"),
    (lambda: lp_norm(_WAVE[0], "2"), "p must be a real number"),
    (lambda: find_usd_points(_band_pairs(), "2", 16), "p must be a real number"),
    (lambda: check_usd(_band_nodes(), _band_pairs(), 2, epsilon="0.5"),
     "epsilon must be a real number"),
    (lambda: lp_norm(_WAVE[0], 3, "3"), "grid_level must be an integer"),
    (lambda: usd_sample_budget("2", 5), "v must be an integer"),
    (lambda: check_usd(_band_nodes(), _band_pairs(), True), "p must be a real number"),
    (lambda: lp_norm(_WAVE[0], True), "p must be a real number"),
    (lambda: DiscreteInstance.from_function(
        _WAVE[0], Dictionary.exponential_band(-2, 2), _band_nodes(), "4"),
     "p must be a real number"),
], ids=["check_usd_p_string", "lp_norm_p_string", "search_p_string",
        "check_usd_epsilon_string", "lp_norm_grid_level_string",
        "budget_v_string", "check_usd_p_bool", "lp_norm_p_bool",
        "instance_p_string"])
def test_exponents_windows_and_grid_levels_are_checked_at_the_api_boundary(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: PointSet.random_uniform(4, 1, -1), "seed must be at least 0, got -1"),
    (lambda: PointSet.random_uniform(4, 1, 0, draw_index=-2),
     "draw_index must be at least 0, got -2"),
    (lambda: discretization_error_trials([TrigPolynomial({1: 1.0})], 2, 8, 3, rng_seed=-1),
     "rng_seed must be at least 0, got -1"),
    (lambda: PointSet.equispaced(4, 0), "d must be at least 1, got 0"),
    (lambda: PointSet.random_uniform(4, 0, 0), "d must be at least 1, got 0"),
], ids=["random_seed_negative", "random_draw_index_negative",
        "trials_rng_seed_negative", "equispaced_d_zero", "random_d_zero"])
def test_counts_below_their_least_value_name_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_seeded_points_take_integral_arguments_of_any_integer_type():
    ref = PointSet.random_uniform(6, 2, 9, draw_index=1)
    same = PointSet.random_uniform(np.int64(6), 2.0, np.uint32(9), draw_index=np.int8(1))
    assert np.array_equal(ref.points, same.points)
    assert same.provenance == {"kind": "seeded", "seed": 9, "draw_index": 1}
    assert all(type(v) is int for v in (same.provenance["seed"],
                                        same.provenance["draw_index"]))


@pytest.mark.parametrize("fields, message", [
    ({"starts": -1}, "starts must be at least 1, got -1"),
    ({"starts": 0}, "starts must be at least 1, got 0"),
    ({"starts": 2.5}, "starts must be an integer, got 2.5"),
    ({"starts": True}, "starts must be an integer, got True"),
    ({"max_iters": -1}, "max_iters must be at least 1, got -1"),
    ({"max_iters": 0}, "max_iters must be at least 1, got 0"),
    ({"max_iters": "40"}, "max_iters must be an integer, got '40'"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": False}, "seed must be an integer, got False"),
], ids=["starts_negative", "starts_zero", "starts_fractional", "starts_bool",
        "max_iters_negative", "max_iters_zero", "max_iters_string",
        "seed_negative", "seed_fractional", "seed_bool"])
def test_ratio_options_check_their_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RatioOptions(**fields)


def test_ratio_options_store_integral_values_as_int():
    opts = RatioOptions(starts=np.int64(4), max_iters=30.0, seed=np.uint8(2))
    assert opts == RatioOptions(starts=4, max_iters=30, seed=2)
    assert all(type(x) is int for x in (opts.starts, opts.max_iters, opts.seed))


@pytest.mark.parametrize("p", [2, 3])
def test_gap_trials_reject_functions_of_mixed_dimension(p):
    mixed = [TrigPolynomial({(1,): 1.0}), TrigPolynomial({(1, 0): 1.0})]
    with pytest.raises(DimensionMismatchError):
        discretization_error_trials(mixed, p, 8, 3)
    with pytest.raises(DimensionMismatchError):
        expected_sup_estimate(mixed, p, 8, 3)


def test_integral_counts_and_seeds_of_any_integer_type_are_accepted():
    f = [TrigPolynomial({(1,): 1.0, (-2,): 0.5})]
    ref = discretization_error_trials(f, 2, 8, 3, rng_seed=[4, 2])
    same = discretization_error_trials(f, 2, np.int64(8), 3.0,
                                       rng_seed=(np.uint32(4), 2.0))
    assert np.array_equal(ref, same)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5],
                         ids=["nan", "inf", "half"])
@pytest.mark.parametrize("call", [
    lambda p: lp_norm(TrigPolynomial({(1,): 1.0}), p),
    lambda p: check_usd(PointSet.equispaced(16), _band_collection(), p),
    lambda p: subspace_ratio_bounds((0, 1), Dictionary.exponential_band(-2, 2),
                                    PointSet.equispaced(16), p),
    lambda p: DiscreteInstance.from_function(
        TrigPolynomial({(1,): 1.0}), Dictionary.exponential_band(-2, 2),
        PointSet.equispaced(16), p),
], ids=["lp_norm", "check_usd", "subspace_ratio_bounds", "discrete_instance"])
def test_every_exponent_boundary_rejects_bad_p(call, p):
    with pytest.raises(ValueError):
        call(p)


def test_check_usd_evaluates_the_dictionary_once_per_certificate(monkeypatch):
    calls = []
    values_at = Dictionary.values_at

    def counting(self, points):
        calls.append(points)
        return values_at(self, points)

    monkeypatch.setattr(Dictionary, "values_at", counting)
    xi = PointSet.random_uniform(64, 1, seed=2)
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-3, 3), 3)
    # monomials at p = 2 and at even p need no node values: the moment
    # kernel and the lift take the nodes themselves (p = 3 also evaluates
    # its quadrature grid)
    for p, evaluations in ((2, 0), (4, 0), (3, 1)):
        calls.clear()
        cert = check_usd(xi, coll, p, RatioOptions(starts=2, max_iters=2))
        assert len(cert.subsets) == 35
        assert sum(points is xi for points in calls) == evaluations
    general = Dictionary([TrigPolynomial({k: 1.0, k + 10: 0.5}) for k in range(5)],
                         uniform_bound=1.5)
    calls.clear()
    check_usd(xi, SubspaceCollection.all_subsets(general, 2), 2)
    assert len(calls) == 1


def test_p2_certificate_holds_one_chunk_of_subsets_at_a_time():
    # the search shape of the recover benchmark: the 924 6-subsets of
    # +-1..+-6 at m = 256; a chunk of 2^16 gathered values and its conjugate
    # take 2 MiB, so a chunk twice as wide passes the 3 MiB bound
    d = Dictionary.exponentials(
        FrequencySet.from_indices([(k,) for k in range(-6, 7) if k]))
    coll = SubspaceCollection.all_subsets(d, 6)
    xi = PointSet.random_uniform(256, 1, seed=0)
    check_usd(xi, coll, 2)   # first-call allocations of numpy and LAPACK
    tracemalloc.start()
    try:
        cert = check_usd(xi, coll, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.subsets) == 924
    assert peak < 3 * 2 ** 20


@pytest.mark.parametrize("m, cap", [(4096, 5 * 2 ** 18), (16, 6 * 2 ** 18)])
def test_p2_gap_trials_hold_one_block_of_nodes_at_a_time(m, cap):
    # the er-rate shape of the profile benchmark: spread 32, so each node
    # holds 6 + 6 power-table values and each chunk of 32 nodes (16 at
    # m = 16) 6 x 6 sums, and a pass stays within 2^16 values or 1 MiB.  At
    # m = 4096 a block is one trial, with 0.75 MiB of tables and 32 KiB of
    # nodes; the 200 trials' nodes at once would take 6.25 MiB.  At m = 16
    # one block takes all 200 trials, with 0.7 MiB of tables and sums
    rng = np.random.default_rng(38)
    fs = [TrigPolynomial({(j,): complex(*rng.standard_normal(2)) for j in range(-16, 17)})
          for _ in range(20)]
    discretization_error_trials(fs, 2, m, 2)
    tracemalloc.start()
    try:
        errs = discretization_error_trials(fs, 2, m, 200, rng_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errs.shape == (200,)
    assert peak < cap


def test_p2_gap_trials_hold_one_chunk_of_powers_at_a_time(monkeypatch):
    # a spread of 3000 at m = 4096: every power at every node would take
    # 188 MiB; a pass holds 10 chunks of 32 nodes, with 55 + 55 power-table
    # values a node and 55 x 55 sums a chunk, 65450 values or 1 MiB, so a
    # pass twice as wide fails the 2 MiB bound.  The path rule sends so
    # wide a union to the values path, so the rule is lifted here and the
    # test checks that the moment kernel ran
    monkeypatch.setattr(discretization, "_MOMENT_SPREAD_PER_FREQUENCY", math.inf)
    calls = []
    power_sums = discretization._power_sums

    def recording(theta, powers):
        calls.append(theta.shape)
        return power_sums(theta, powers)

    monkeypatch.setattr(discretization, "_power_sums", recording)
    fs = [TrigPolynomial({(0,): 0.6, (3000,): 0.8j})]
    discretization_error_trials(fs, 2, 16, 1)
    tracemalloc.start()
    try:
        errs = discretization_error_trials(fs, 2, 4096, 1, rng_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errs.shape == (1,)
    assert calls == [(1, 16), (1, 4096)]
    assert peak < 2 * 2 ** 20


def test_find_usd_points_keeps_every_draw():
    coll = _band_collection()
    found = find_usd_points(coll, 2, m=10, max_trials=6, rng_seed=5,
                            opts=RatioOptions(seed=5))
    assert found.passed and found.draw_index == 2
    failed = find_usd_points(coll, 2, m=2, max_trials=3, rng_seed=5)
    assert not failed.passed
    for res in (found, failed):
        assert len(res.draws) == res.trials_run
        assert res.certificate is res.draws[res.draw_index]
        assert "draws" not in res.to_json()


def test_multistart_converges_when_its_optimum_is_stationary():
    # other starts still creep at the iteration limit here, but the
    # returned optimum's tangent gradient is below grad_tol
    d = Dictionary.exponential_band(-3, 3)
    xi = PointSet.random_uniform(512, 1, seed=9)
    res = subspace_ratio_bounds((0, 4), d, xi, 4, seed_key=[0, 3])
    assert res.converged


def test_multistart_cut_after_one_iteration_is_not_converged():
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-3, 3), 2)
    cert = check_usd(PointSet.random_uniform(512, 1, seed=9), coll, 4,
                     RatioOptions(max_iters=1))
    assert not cert.converged
    assert cert.notes == ["some sphere optimizations hit the iteration limit"]


_PLANE = Dictionary([TrigPolynomial({(k, 0): 1.0}) for k in range(3)], uniform_bound=1.0)


@pytest.mark.parametrize("dictionary, dim, p", [
    (Dictionary.exponential_band(-2, 2), 2, 2),   # the p = 2 moment path
    (Dictionary.exponential_band(-2, 2), 2, 4),
    (_PLANE, 1, 2),
], ids=["band_2d_nodes_p2", "band_2d_nodes_p4", "plane_1d_nodes_p2"])
def test_nodes_of_another_dimension_than_the_dictionary_are_refused(dictionary, dim, p):
    xi = PointSet.random_uniform(32, dim, seed=1)
    opts = RatioOptions(starts=2, max_iters=5)
    with pytest.raises(DimensionMismatchError, match=f"{dim}-d nodes"):
        check_usd(xi, SubspaceCollection.all_subsets(dictionary, 2), p, opts)
    with pytest.raises(DimensionMismatchError, match=f"{dim}-d nodes"):
        subspace_ratio_bounds((0, 1), dictionary, xi, p, opts)
