import itertools
import math
import time
import tracemalloc

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
                            farthest_point_radii, l1_ball_draws)
from usdlab.experiments import random_l1_ball_elements
from usdlab.errors import ProfileTooShortError
from usdlab.points import PointSet

_BAND = Dictionary.exponential_band(-2, 2)


def cls_from_rows(rows):
    return SampledClass(np.asarray(rows, dtype=complex))


def single_rows(sampled):
    """The sample's values as complex64 rows, rebuilt from its planes."""
    re, im = sampled.planes
    return re + 1j * im


def test_one_center_covers_when_the_radius_dominates():
    # center 0 leaves [1, 0] at distance 1 and [0, 0.5] at distance 0.5
    s = cls_from_rows([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
    assert farthest_point_radii(s, 3).tolist() == [1.0, 0.5, 0.0]


def test_two_points_at_distance_one():
    # a cover at radius 0.4 needs both centers, at radius 1.0 one
    s = cls_from_rows([[0.0], [1.0]])
    assert farthest_point_radii(s, 2).tolist() == [1.0, 0.0]


def test_three_collinear_points_hand_covering():
    # points 0, 1/2, 1 on a line: centers {0, 1} cover at radius 1/2, since
    # the middle point sits within 1/2 of either end
    s = cls_from_rows([[0.0], [0.5], [1.0]])
    assert farthest_point_radii(s, 3).tolist() == [1.0, 0.5, 0.0]


def exhaustive_min_cover(sampled, eps):
    """Smallest number of representative-centered balls covering the set."""
    n = sampled.count
    # uniform-metric distances between every pair of representatives
    rows = single_rows(sampled)
    dist = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(dist[list(centers)].min(axis=0) <= eps):
                return size
    return n


def test_greedy_cover_size_within_log_factor_of_optimum():
    rng = np.random.default_rng(23)
    for trial in range(5):
        rows = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
        s = SampledClass(rows)
        eps = float(rng.uniform(0.8, 2.0))
        # the fewest traversal centers whose covering radius is at most eps
        greedy_size = 1 + int(np.argmax(farthest_point_radii(s, 10) <= eps))
        opt = exhaustive_min_cover(s, eps)
        assert greedy_size <= math.ceil((math.log(10) + 1) * opt)


def test_farthest_point_radii_monotone_down_to_zero():
    rng = np.random.default_rng(3)
    s = SampledClass(rng.normal(size=(40, 8)))
    radii = farthest_point_radii(s, 40)
    assert np.all(np.diff(radii) <= 1e-12)
    assert radii[-1] == pytest.approx(0.0, abs=1e-12)


def unpruned_radii(values, t_max):
    """Reference traversal: every row is updated on the full grid per center,
    the lowest-index farthest row; the radii after t = 1..t_max centers."""
    v32 = np.asarray(values).astype(np.complex64)
    re, im = v32.real, v32.imag
    dmin2 = np.full(len(v32), np.inf, dtype=np.float32)
    radii2 = np.empty(t_max, dtype=np.float32)
    for t in range(t_max):
        c = int(np.argmax(dmin2))
        d2 = (re - re[c]) ** 2 + (im - im[c]) ** 2
        dmin2 = np.minimum(dmin2, d2.max(axis=1))
        radii2[t] = dmin2.max()
    return np.sqrt(radii2.astype(float))


def test_farthest_point_radii_equal_the_unpruned_traversal():
    # 1024 grid columns: the filter sees 64 of them, so most rows are pruned
    d = Dictionary.exponential_band(-16, 15)
    s = SampledClass.from_l1_ball(d, n_representatives=1024, grid_level=10, seed=17)
    ref = unpruned_radii(single_rows(s), 256)
    # each call traverses from the first center, whatever ran before
    assert np.array_equal(farthest_point_radii(s, 32), ref[:32])
    assert np.array_equal(farthest_point_radii(s, 256), ref)
    assert np.array_equal(farthest_point_radii(s, 100), ref[:100])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
def test_sampled_class_rejects_values_not_finite_in_single_precision(bad):
    with pytest.raises(ValueError, match="finite"):
        cls_from_rows([[0.0, 1.0], [bad, 0.0]])


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


def test_entropy_numbers_stop_at_the_first_budget_that_covers_the_sample():
    # budgets 2^n >= count are never built, so a huge n_max only fills zeros
    s = SampledClass(np.random.default_rng(5).normal(size=(8, 3)))
    start = time.perf_counter()
    profile = entropy_numbers(s, 100_000)
    assert time.perf_counter() - start < 1.0
    assert profile.eps.size == 100_001 and profile.zero_from == 3
    assert np.all(profile.eps[:3] > 0.0) and not profile.eps[3:].any()
    assert np.array_equal(profile.eps[:3], entropy_numbers(s, 2).eps)


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
    re, im = s.planes
    # each single-precision part is within a relative 2^-24 of its value
    assert np.abs(re.astype(float) + 1j * im).max() <= (1.0 + 2.0 ** -24) * (1.0 + 1e-12)
    assert not (re[0].any() or im[0].any())  # the zero expansion anchors the set
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


def test_entropy_numbers_runs_one_traversal_and_leaves_the_sample_as_it_was(monkeypatch):
    s = SampledClass.from_l1_ball(_BAND, n_representatives=40, grid_level=5, seed=3)
    before = dict(vars(s))
    lengths = []
    original = entropy.farthest_point_radii

    def counted(sampled, t_max):
        lengths.append(t_max)
        return original(sampled, t_max)

    monkeypatch.setattr(entropy, "farthest_point_radii", counted)
    profile = entropy_numbers(s, 7)
    assert lengths == [32]   # the largest budget 2^n below the 40 representatives
    assert vars(s).keys() == before.keys()
    assert all(vars(s)[key] is value for key, value in before.items())
    assert profile.eps.tolist() == [*original(s, 32)[[0, 1, 3, 7, 15, 31]], 0.0, 0.0]


def one_shot_values(d, n_representatives, grid_level, seed):
    """Reference sample: the whole complex (representatives, grid) product."""
    basis = d.values_at(PointSet.equispaced(2 ** grid_level, d.dimension))
    coeff = np.zeros((d.size, n_representatives), dtype=complex)
    draws = l1_ball_draws(d.size, n_representatives - 1, seed)
    for j, (support, c) in enumerate(draws, start=1):
        coeff[support, j] = c
    return (basis @ coeff).T


@pytest.mark.parametrize("count", [1, 63, 64, 65, 133])
def test_from_l1_ball_planes_equal_the_single_precision_one_shot_product(count):
    d = Dictionary.exponential_band(-8, 7)
    s = SampledClass.from_l1_ball(d, n_representatives=count, grid_level=7, seed=2)
    v32 = one_shot_values(d, count, 7, 2).astype(np.complex64)
    assert np.array_equal(s.planes[0], v32.real)
    assert np.array_equal(s.planes[1], v32.imag)


@pytest.mark.parametrize("count", [1, 63, 65, 133])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sampled_class_planes_equal_the_single_precision_values(count, order):
    rng = np.random.default_rng(count)
    values = np.asarray(rng.normal(size=(count, 37)) + 1j * rng.normal(size=(count, 37)),
                        order=order)
    s = SampledClass(values)
    assert np.array_equal(single_rows(s), values.astype(np.complex64))


def test_sample_is_held_once_as_c_ordered_single_precision_planes():
    s = SampledClass.from_l1_ball(Dictionary.exponential_band(-8, 7),
                                  n_representatives=96, grid_level=7, seed=2)
    re, im = s.planes
    (screen_re, screen_im), levels = entropy._ladder_levels(re, im)
    held = [*vars(s).values(), screen_re, screen_im, *itertools.chain(*levels)]
    assert not any(isinstance(a, np.ndarray) and np.iscomplexobj(a) for a in held)
    stride = s.grid_size // entropy._LADDER_POINTS[0]
    assert [level[0].shape for level in levels] == [
        (s.count, s.grid_size // stride), (s.count, s.grid_size)]
    assert np.array_equal(levels[0][0], re[:, ::stride])
    assert np.array_equal(levels[0][1], im[:, ::stride])
    assert np.array_equal(screen_re, re[:, ::stride].T)
    assert np.array_equal(screen_im, im[:, ::stride].T)
    assert np.shares_memory(levels[-1][0], re) and np.shares_memory(levels[-1][1], im)
    for plane in (screen_re, screen_im, *itertools.chain(*levels)):
        assert plane.dtype == np.float32 and plane.flags.c_contiguous


def test_sample_and_profile_peak_below_a_complex_copy_of_the_sample():
    # 2048 x 1024 values: the float32 planes take 16 MiB, one complex128
    # copy of the sample would take 32 MiB on top
    d = Dictionary.exponential_band(-32, 31)
    tracemalloc.start()
    try:
        entropy_numbers(SampledClass.from_l1_ball(d, 2048, grid_level=10), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


def test_l1_ball_coefficients_are_built_one_block_at_a_time():
    # the 16 MiB planes, the 1 MiB basis and one 64-column block of
    # coefficients; the whole (64, 2048) complex coefficient matrix at once
    # would add 2 MiB and end near 21.7 MiB
    d = Dictionary.exponential_band(-32, 31)
    tracemalloc.start()
    try:
        entropy_numbers(SampledClass.from_l1_ball(d, 2048, grid_level=10), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * 2 ** 20


@pytest.mark.parametrize("call, message", [
    (lambda: SampledClass.from_l1_ball(_BAND, 1.5), "n_representatives must be an integer"),
    (lambda: SampledClass.from_l1_ball(_BAND, "8"), "n_representatives must be an integer"),
    (lambda: SampledClass.from_l1_ball(_BAND, True), "n_representatives must be an integer"),
    (lambda: SampledClass.from_l1_ball(_BAND, -3), "n_representatives must be at least 1"),
    (lambda: SampledClass.from_l1_ball(_BAND, 0), "n_representatives must be at least 1"),
    (lambda: SampledClass.from_l1_ball(_BAND, 8, seed=1.5), "seed must be an integer"),
    (lambda: SampledClass.from_l1_ball(_BAND, 8, seed=-1), "seed must be at least 0"),
    (lambda: list(l1_ball_draws(3, 2, "1")), "seed must be an integer"),
    (lambda: random_l1_ball_elements(_BAND, 2, 1.5), "seed must be an integer"),
    (lambda: farthest_point_radii(cls_from_rows([[0.0], [1.0]]), 1.5),
     "t_max must be an integer"),
    (lambda: farthest_point_radii(cls_from_rows([[0.0], [1.0]]), -1),
     "t_max must be at least 0"),
    (lambda: entropy_numbers(cls_from_rows([[0.0]]), -1), "n_max must be at least 0"),
], ids=["reps_fractional", "reps_string", "reps_bool", "reps_negative", "reps_zero",
        "seed_fractional", "seed_negative", "draws_seed_string", "elements_seed_fractional",
        "t_max_fractional", "t_max_negative", "n_max_negative"])
def test_entropy_arguments_are_checked_at_the_api_boundary(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


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
    with pytest.raises(ValueError, match="must be at least |at least one function"):
        call()
