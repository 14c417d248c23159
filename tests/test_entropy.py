import itertools
import math

import numpy as np
import pytest

from usdlab import entropy
from usdlab.dictionary import Dictionary
from usdlab.discretization import (discretization_error_trials,
                                   expected_sup_estimate)
from usdlab.entropy import (EntropyProfile, SampledClass, chaining_bound,
                            chaining_bound_dyadic,
                            double_exponential_tail_constant,
                            double_exponential_tail_sum, entropy_numbers,
                            farthest_point_radii, finite_dim_decay_check,
                            greedy_cover)
from usdlab.errors import ProfileTooShortError


def cls_from_rows(rows):
    return SampledClass(np.asarray(rows, dtype=complex))


def test_greedy_cover_one_center_when_radius_dominates():
    s = cls_from_rows([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
    centers = greedy_cover(s, eps=5.0)
    assert centers == [0]


def test_greedy_cover_two_points_at_distance_one():
    s = cls_from_rows([[0.0], [1.0]])
    assert len(greedy_cover(s, eps=0.4)) == 2
    assert len(greedy_cover(s, eps=1.0)) == 1


def test_greedy_cover_three_collinear_points_hand_covering():
    # points 0, 1/2, 1 on a line; radius 0.6 covers with centers {0, 1}:
    # the middle point sits within 1/2 of either end
    s = cls_from_rows([[0.0], [0.5], [1.0]])
    centers = greedy_cover(s, eps=0.6)
    assert centers == [0, 2]


def test_greedy_cover_tie_goes_to_lowest_index():
    s = cls_from_rows([[0.0], [1.0], [-1.0]])
    centers = greedy_cover(s, eps=0.5)
    assert centers[0] == 0
    assert centers[1] == 1  # both remaining sit at distance 1; lowest wins


def exhaustive_min_cover(sampled, eps):
    """Smallest number of representative-centered balls covering the set."""
    n = sampled.count
    dist = np.array([sampled.distances_from(i) for i in range(n)])
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(dist[list(centers)].min(axis=0) <= eps):
                return size
    return n


def test_greedy_cover_within_log_factor_of_optimum():
    rng = np.random.default_rng(23)
    for trial in range(5):
        rows = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
        s = SampledClass(rows)
        eps = float(rng.uniform(0.8, 2.0))
        greedy_size = len(greedy_cover(s, eps))
        opt = exhaustive_min_cover(s, eps)
        assert greedy_size <= math.ceil((math.log(10) + 1) * opt)


def test_farthest_point_radii_monotone_and_consistent():
    rng = np.random.default_rng(3)
    s = SampledClass(rng.normal(size=(40, 8)))
    radii = farthest_point_radii(s, 40)
    assert np.all(np.diff(radii) <= 1e-12)
    assert radii[-1] == pytest.approx(0.0, abs=1e-12)
    # radius after t centers equals the worst distance the literal greedy
    # cover leaves at that budget
    for t in (1, 3, 7):
        centers = greedy_cover(s, eps=radii[t - 1] + 1e-5)
        assert len(centers) <= t


def unpruned_traversal(values, t_max):
    """Reference traversal: every row is updated on the full grid per center.

    Returns the radii after t = 1..t_max centers and the center order.
    """
    v32 = np.asarray(values).astype(np.complex64)
    re, im = v32.real, v32.imag
    dmin2 = np.full(len(v32), np.inf, dtype=np.float32)
    radii2 = np.empty(t_max, dtype=np.float32)
    centers = []
    for t in range(t_max):
        c = int(np.argmax(dmin2))
        centers.append(c)
        d2 = (re - re[c]) ** 2 + (im - im[c]) ** 2
        dmin2 = np.minimum(dmin2, d2.max(axis=1))
        radii2[t] = dmin2.max()
    return np.sqrt(radii2.astype(float)), centers


def unpruned_radii(values, t_max):
    return unpruned_traversal(values, t_max)[0]


def test_farthest_point_radii_equal_the_unpruned_traversal():
    # 1024 grid columns: the filter sees 64 of them, so most rows are pruned
    d = Dictionary.exponential_band(-16, 15)
    s = SampledClass.from_l1_ball(d, n_representatives=1024, grid_level=10, seed=17)
    ref = unpruned_radii(s.values, 256)
    assert np.array_equal(farthest_point_radii(s, 32), ref[:32])
    assert np.array_equal(farthest_point_radii(s, 256), ref)  # longer than the cache
    assert np.array_equal(farthest_point_radii(s, 100), ref[:100])  # from the cache


@pytest.mark.parametrize("seed", [3, 4])
def test_greedy_cover_at_profile_radius_is_a_traversal_prefix(seed):
    # near-ties are frequent here, so a cover computed apart from the
    # traversal could need more than t centers at the radius after t
    d = Dictionary.exponential_band(-16, 15)
    s = SampledClass.from_l1_ball(d, n_representatives=512, grid_level=8, seed=seed)
    radii, order = unpruned_traversal(s.values, s.count)
    fresh = SampledClass(s.values)  # no cached traversal: the cover grows its own
    assert greedy_cover(fresh, radii[40]) == order[:41]
    for t in range(1, s.count + 1):
        if radii[t - 1] == 0.0:  # a cover radius must be positive
            break
        centers = greedy_cover(s, radii[t - 1])
        assert len(centers) <= t
        assert centers == order[:len(centers)]


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan])
def test_greedy_cover_rejects_radii_that_are_not_positive(eps):
    with pytest.raises(ValueError, match="positive"):
        greedy_cover(cls_from_rows([[0.0], [1.0]]), eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
def test_farthest_point_radii_rejects_values_not_finite_in_single_precision(bad):
    s = cls_from_rows([[0.0, 1.0], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        farthest_point_radii(s, 2)


def test_entropy_numbers_singleton_all_zero():
    s = cls_from_rows([[1.0, 2.0, 3.0]])
    profile = entropy_numbers(s, 5)
    assert np.all(profile.eps == 0.0)


def test_entropy_numbers_monotone_and_zero_when_budget_covers():
    rng = np.random.default_rng(7)
    s = SampledClass(rng.normal(size=(30, 6)))
    profile = entropy_numbers(s, 8)
    assert np.all(np.diff(profile.eps) <= 1e-12)
    for n in range(9):
        if 2 ** n >= 30:
            assert profile.eps[n] == 0.0
        else:
            assert profile.eps[n] > 0.0
    assert profile.zero_from == math.ceil(math.log2(30))


def test_entropy_numbers_match_traversal_radii():
    rng = np.random.default_rng(11)
    s = SampledClass(rng.normal(size=(50, 4)))
    profile = entropy_numbers(s, 5)
    radii = farthest_point_radii(s, 32)
    for n in range(6):
        if 2 ** n < 50:
            assert profile.eps[n] == radii[2 ** n - 1]


def test_entropy_profile_e_k_bookkeeping():
    eps = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25,
                    0.2, 0.18, 0.15, 0.12, 0.1, 0.09, 0.08, 0.07])
    profile = EntropyProfile.from_values(eps)
    es = profile.e_sequence()
    assert es[0] == eps[0]
    assert es[1] == eps[2]
    assert es[2] == eps[4]
    assert es[3] == eps[8]
    assert es[4] == eps[16]
    assert len(es) == 5


def test_l1_ball_class_fits_in_the_unit_ball():
    d = Dictionary.exponential_band(-8, 8)
    s = SampledClass.from_l1_ball(d, n_representatives=64, grid_level=7, seed=1)
    assert np.abs(s.values).max() <= 1.0 + 1e-12
    assert np.abs(s.values[0]).max() == 0.0  # the zero expansion anchors the set
    profile = entropy_numbers(s, 3)
    assert profile.eps[0] <= 1.0 + 1e-4  # a single ball at 0 covers the class


def test_chaining_bound_zero_profile():
    profile = EntropyProfile.from_values(np.zeros(5), zero_from=0)
    assert chaining_bound(profile, 2, 1.0, 100) == 0.0


def test_chaining_bound_hand_arithmetic():
    # flat profile eps_n = M, p = 2, m = 4:
    # p^2 M^{max(p/2, p-1)} m^{-1/2} sum_{n=0}^4 (n+1)^{-1/2} M^{theta}
    big_m = 1.7
    profile = EntropyProfile.from_values([big_m] * 5)
    hand_sum = 1.0 + 2.0 ** -0.5 + 3.0 ** -0.5 + 4.0 ** -0.5 + 5.0 ** -0.5
    expect = 4.0 * big_m * (1.0 / 2.0) * hand_sum * big_m
    assert chaining_bound(profile, 2, big_m, 4) == pytest.approx(expect, rel=1e-12)


def test_chaining_bound_monotone_in_profile():
    lo = EntropyProfile.from_values([0.5, 0.4, 0.3, 0.2, 0.1])
    hi = EntropyProfile.from_values([1.0, 0.8, 0.6, 0.4, 0.2])
    for p in (1.5, 2.0, 3.0):
        assert chaining_bound(lo, p, 1.0, 4) < chaining_bound(hi, p, 1.0, 4)


def test_chaining_bound_sup_bound_scaling_exact():
    profile = EntropyProfile.from_values([0.7, 0.5, 0.25])
    p = 3.0  # max(p/2, p-1) = 2, so doubling M multiplies the bound by 4
    base = chaining_bound(profile, p, 1.0, 2)
    assert chaining_bound(profile, p, 2.0, 2) == 4.0 * base


def test_chaining_bound_profile_too_short():
    profile = EntropyProfile.from_values([1.0, 0.5])
    with pytest.raises(ProfileTooShortError):
        chaining_bound(profile, 2, 1.0, 10)
    padded = EntropyProfile.from_values([1.0, 0.5, 0.0], zero_from=2)
    assert chaining_bound(padded, 2, 1.0, 10) > 0.0


def test_dyadic_flat_sum_inequality():
    # the dyadic ladder sum is dominated by 2*sqrt(2) times the flat sum
    rng = np.random.default_rng(2)
    for m in (4, 16, 64, 256):
        raw = np.sort(rng.uniform(0.01, 1.0, size=m + 1))[::-1]
        profile = EntropyProfile.from_values(raw)
        for p in (1.5, 2.0, 4.0):
            dy = chaining_bound_dyadic(profile, p, 1.0, m)
            flat = chaining_bound(profile, p, 1.0, m)
            assert dy <= 2.0 * math.sqrt(2.0) * flat + 1e-12


def test_finite_dim_decay_check_singleton():
    s = cls_from_rows([[0.3, 0.4]])
    assert finite_dim_decay_check(s, dim=1, k0=1, k=2)


def test_finite_dim_decay_check_two_dim_span():
    d = Dictionary.exponential_band(0, 1)
    rng = np.random.default_rng(5)
    coeff = rng.standard_normal((2, 10**4)) + 1j * rng.standard_normal((2, 10**4))
    coeff /= np.linalg.norm(coeff, axis=0)
    grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)[:, None]
    basis = d.values_at(grid)
    s = SampledClass((basis @ coeff).T)
    assert finite_dim_decay_check(s, dim=2, k0=1, k=4)


def brute_force_tail_sum(a, b, m, terms=80):
    total = 0.0
    k = math.ceil(math.log2(m))
    for i in range(terms):
        total += (2.0 ** (a * (k + i)) * 2.0 ** (-(2.0 ** (k + i)) / m)) ** b
    return total


def test_double_exponential_tail_sum_matches_brute_force():
    for a, b, m in [(1.0, 1.0, 64), (0.5, 2.0, 16), (2.0, 0.5, 8)]:
        lib = double_exponential_tail_sum(a, b, m)
        brute = brute_force_tail_sum(a, b, m)
        assert lib == pytest.approx(brute, rel=1e-12)


def test_double_exponential_tail_bounded_by_constant():
    for a, b, m in [(1.0, 1.0, 64), (1.0, 1.0, 256), (0.5, 2.0, 32)]:
        total = double_exponential_tail_sum(a, b, m)
        c = double_exponential_tail_constant(a, b)
        assert total <= c * m ** (a * b)


def test_longer_traversal_resumes_from_the_cache(monkeypatch):
    # extending t to 2t runs only the t new center steps, and gives the very
    # radii and centers of one traversal of 2t centers
    d = Dictionary.exponential_band(-16, 15)
    values = SampledClass.from_l1_ball(d, n_representatives=512, grid_level=8,
                                       seed=5).values
    calls = []
    original = entropy._squared_moduli

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(entropy, "_squared_moduli", counted)

    def traverse(*lengths):
        s = SampledClass(values)
        del calls[:]
        for t in lengths:
            farthest_point_radii(s, t)
        return s, len(calls)

    _, first = traverse(64)
    resumed, both = traverse(64, 128)
    whole, once = traverse(128)
    assert both == once and both - first < once
    assert np.array_equal(resumed._radii, whole._radii)
    assert np.array_equal(resumed._centers, whole._centers)
    assert greedy_cover(resumed, whole._radii[99]) == whole._centers[:100].tolist()


@pytest.mark.parametrize("call", [
    lambda: EntropyProfile.from_values([3.0, 2.0, 1.0]).eps_at(-1),
    lambda: EntropyProfile.from_values([3.0, 2.0, 1.0]).e_at(-1),
    lambda: chaining_bound(EntropyProfile.from_values([1.0, 0.5]), 2.0, 1.0, 0),
    lambda: chaining_bound_dyadic(EntropyProfile.from_values([1.0, 0.5]), 2.0,
                                  1.0, 0),
    lambda: discretization_error_trials([], 2.0, 8, 3),
    lambda: expected_sup_estimate([], 2.0, 8, 3),
], ids=["eps_at", "e_at", "chaining_bound", "chaining_bound_dyadic",
        "discretization_error_trials", "expected_sup_estimate"])
def test_boundary_inputs_raise_value_error(call):
    with pytest.raises(ValueError, match="must be >= |at least one function"):
        call()
