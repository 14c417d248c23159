import itertools
import math
import tracemalloc

import numpy as np
import pytest

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (LIFT_CAP_BYTES, RatioOptions, UsdCertificate,
                                   blended_lp_norm, check_usd,
                                   discrete_lp_norm,
                                   discretization_error_finite,
                                   discretization_error_trials,
                                   expected_sup_estimate, find_usd_points,
                                   subspace_ratio_bounds, usd_sample_budget)
from usdlab.errors import CapExceededError, RankDeficiencyError
from usdlab.points import PointSet
from usdlab.recovery import DiscreteInstance
from usdlab.trigpoly import TrigPolynomial, lp_norm


def test_discrete_lp_norm_cases():
    assert discrete_lp_norm([1, 1, 1, 1], 3.7) == pytest.approx(1.0)
    assert discrete_lp_norm([0, 0, 0], 2) == 0.0
    # (|1|^2 + |-1|^2 + |2i|^2)/3 = 2
    assert discrete_lp_norm([1, -1, 2j], 2) == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        discrete_lp_norm([], 2)


def test_blended_norm_trivial_cases():
    one = TrigPolynomial({(0,): 1.0})
    xi = PointSet.random_uniform(8, 1, seed=0)
    assert blended_lp_norm(one, xi, 3.0) == pytest.approx(1.0, rel=1e-12)
    wave = TrigPolynomial({(2,): 1.0})
    assert blended_lp_norm(wave, xi, 5.0) == pytest.approx(1.0, rel=1e-12)
    # f vanishing on xi: 2 sin(x/...) style construction at a single point
    f = TrigPolynomial({1: 1.0, 0: -1.0})  # e^{ix} - 1 vanishes at x = 0
    zero_pt = PointSet.explicit(np.array([0.0]))
    for p in (2.0, 4.0):
        expect = 2 ** (-1.0 / p) * lp_norm(f, p)
        assert blended_lp_norm(f, zero_pt, p) == pytest.approx(expect, rel=1e-12)


def test_blended_norm_power_identity():
    rng = np.random.default_rng(4)
    xi = PointSet.random_uniform(16, 1, seed=5)
    for _ in range(10):
        coeffs = {int(k): complex(a, b) for k, a, b in
                  zip(rng.integers(-6, 7, 4), rng.normal(size=4), rng.normal(size=4))}
        f = TrigPolynomial(coeffs)
        p = float(rng.uniform(1.5, 5.0))
        lhs = blended_lp_norm(f, xi, p) ** p
        rhs = 0.5 * lp_norm(f, p) ** p + 0.5 * discrete_lp_norm(f.evaluate(xi), p) ** p
        assert lhs == pytest.approx(rhs, rel=1e-12)


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
    xi = PointSet.random_uniform(10, 1, seed=8)
    const = TrigPolynomial({(0,): 1.0})
    wave = TrigPolynomial({(3,): 1.0})
    assert discretization_error_finite([const], xi, 2) == pytest.approx(0.0, abs=1e-15)
    assert discretization_error_finite([wave], xi, 4) == pytest.approx(0.0, abs=1e-12)


def test_discretization_error_hand_value():
    # W = {sqrt(2) cos x} at xi = {0}: ||f||_2^2 = 1, f(0)^2 = 2, gap = 1
    f = TrigPolynomial({1: math.sqrt(2) / 2, -1: math.sqrt(2) / 2})
    xi = PointSet.explicit(np.array([0.0]))
    assert discretization_error_finite([f], xi, 2) == pytest.approx(1.0, rel=1e-12)


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
    lambda: find_usd_points(_band_collection(), 2, m=16, max_trials=0),
    lambda: PointSet([0.1, float("nan")]),
    lambda: discretization_error_trials([TrigPolynomial({(1,): 1.0})], 2, 0, 3),
    lambda: discretization_error_trials([TrigPolynomial({(1,): 1.0})], 2, -1, 3),
    lambda: expected_sup_estimate([TrigPolynomial({(1,): 1.0})], 2, 0, 3),
], ids=["p_half", "p_zero", "p_nan", "epsilon_two", "ratio_p_half",
        "ratio_negative_index", "ratio_index_past_end", "no_trials",
        "nan_point", "trials_no_points", "trials_negative_points",
        "sup_estimate_no_points"])
def test_bad_input_rejected_at_the_boundary(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5],
                         ids=["nan", "inf", "half"])
@pytest.mark.parametrize("call", [
    lambda p: discrete_lp_norm([1.0, 2.0], p),
    lambda p: lp_norm(TrigPolynomial({(1,): 1.0}), p),
    lambda p: check_usd(PointSet.equispaced(16), _band_collection(), p),
    lambda p: subspace_ratio_bounds((0, 1), Dictionary.exponential_band(-2, 2),
                                    PointSet.equispaced(16), p),
    lambda p: DiscreteInstance.from_function(
        TrigPolynomial({(1,): 1.0}), Dictionary.exponential_band(-2, 2),
        PointSet.equispaced(16), p),
], ids=["discrete_lp_norm", "lp_norm", "check_usd", "subspace_ratio_bounds",
        "discrete_instance"])
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
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-3, 3), 3)
    cert = check_usd(PointSet.random_uniform(64, 1, seed=2), coll, 2)
    assert len(cert.subsets) == 35
    assert len(calls) == 1


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
