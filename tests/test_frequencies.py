import itertools

import numpy as np
import pytest

from usdlab.errors import CapExceededError
from usdlab.frequencies import (FrequencySet, dyadic_annulus, dyadic_block,
                                dyadic_level_index, frequency_levels,
                                hyperbolic_cross, hyperbolic_cross_size,
                                level_frequencies, level_of, level_size,
                                unrank_level)


def brute_force_cross(n_param, d):
    """Independent oracle: enumerate the full box and filter."""
    out = set()
    for k in itertools.product(range(-n_param, n_param + 1), repeat=d):
        prod = 1
        for kj in k:
            prod *= max(abs(kj), 1)
        if prod <= n_param:
            out.add(k)
    return out


def test_cross_d1_is_the_band():
    fs = hyperbolic_cross(3, 1)
    assert list(fs) == [(k,) for k in range(-3, 4)]
    assert len(fs) == 7


def test_cross_matches_brute_force_enumeration():
    for n_param, d in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        fs = hyperbolic_cross(n_param, d)
        assert set(fs.indices) == brute_force_cross(n_param, d)
    assert len(hyperbolic_cross(2, 2)) == 21


def test_cross_n1_d3_is_the_full_cube():
    fs = hyperbolic_cross(1, 3)
    assert set(fs.indices) == set(itertools.product((-1, 0, 1), repeat=3))
    assert len(fs) == 27


def test_cross_size_formula_d1():
    for n_param in range(1, 21):
        assert hyperbolic_cross_size(n_param, 1) == 2 * n_param + 1
        assert len(hyperbolic_cross(n_param, 1)) == 2 * n_param + 1


def test_cross_size_prediction_matches_enumeration():
    for n_param, d in [(5, 2), (3, 3), (2, 4)]:
        assert hyperbolic_cross_size(n_param, d) == len(hyperbolic_cross(n_param, d))


def test_cross_symmetries():
    fs = set(hyperbolic_cross(3, 2).indices)
    assert {(k2, k1) for k1, k2 in fs} == fs
    assert {(-k1, k2) for k1, k2 in fs} == fs
    assert {(k1, -k2) for k1, k2 in fs} == fs


def test_cross_lexicographic_order():
    fs = hyperbolic_cross(3, 2)
    assert list(fs) == sorted(fs)


def test_cross_cap_reports_predicted_size():
    with pytest.raises(CapExceededError) as exc:
        hyperbolic_cross(10**6, 2)
    assert exc.value.predicted == hyperbolic_cross_size(10**6, 2)
    assert exc.value.predicted > 10**7


def test_dyadic_annulus_cases():
    assert dyadic_annulus(0) == [0]
    assert dyadic_annulus(1) == [-1, 1]
    assert dyadic_annulus(2) == [-3, -2, 2, 3]


def test_dyadic_block_cases():
    assert list(dyadic_block((0,))) == [(0,)]
    assert set(dyadic_block((2,)).indices) == {(-3,), (-2,), (2,), (3,)}
    blk = dyadic_block((1, 1))
    assert set(blk.indices) == set(itertools.product((-1, 1), repeat=2))
    assert len(blk) == 4


def test_blocks_partition_a_box():
    # every |k_j| < 32 lands in exactly one block with all s_j <= 5
    for d in (1, 2):
        seen = {}
        for s in itertools.product(range(6), repeat=d):
            for k in dyadic_block(s):
                assert k not in seen, f"{k} covered twice"
                seen[k] = s
        box = set(itertools.product(range(-31, 32), repeat=d))
        assert set(seen) == box


def test_level_index_inverts_block_membership():
    for s in [(0,), (3,), (1, 2), (0, 4)]:
        for k in dyadic_block(s):
            assert dyadic_level_index(k) == s
            assert level_of(k) == sum(s)


def test_level_frequencies_union():
    lvl = level_frequencies(3, 2)
    expected = set()
    for s in [(0, 3), (1, 2), (2, 1), (3, 0)]:
        expected |= set(dyadic_block(s).indices)
    assert set(lvl.indices) == expected
    assert list(lvl) == sorted(lvl)


def reference_level(j, d):
    """Independent oracle: sorted union of the blocks with |s|_1 = j."""
    out = []
    for s in itertools.product(range(j + 1), repeat=d):
        if sum(s) == j:
            out.extend(dyadic_block(s).indices)
    return sorted(out)


SMALL_LEVELS = [(j, d) for d in (1, 2, 3) for j in range(13)
                if level_size(j, d) <= 5000]


def test_small_levels_cover_every_dimension():
    assert {d for _, d in SMALL_LEVELS} == {1, 2, 3}
    assert max(j for j, d in SMALL_LEVELS if d == 1) == 12
    assert max(level_size(j, d) for j, d in SMALL_LEVELS) > 4000


@pytest.mark.parametrize("j, d", SMALL_LEVELS)
def test_unrank_every_rank_matches_the_block_union(j, d):
    ref = reference_level(j, d)
    assert level_size(j, d) == len(ref)
    got = unrank_level(j, d, np.arange(len(ref)))
    assert got.dtype == np.int64 and got.shape == (len(ref), d)
    assert list(map(tuple, got.tolist())) == ref
    assert list(level_frequencies(j, d)) == ref


def test_level_size_recursion_base_and_d1():
    assert level_size(0, 0) == 1
    assert level_size(3, 0) == 0
    assert level_size(0, 4) == 1
    for j in range(1, 30):
        assert level_size(j, 1) == 2 ** j


def test_unrank_empty_and_subset_ranks():
    assert unrank_level(5, 2, np.zeros(0, dtype=np.int64)).shape == (0, 2)
    ref = reference_level(6, 2)
    ranks = np.array([0, 7, 100, len(ref) - 1])
    assert list(map(tuple, unrank_level(6, 2, ranks).tolist())) == [
        ref[r] for r in ranks]


def test_level_frequencies_cap_uses_the_closed_form_size():
    with pytest.raises(CapExceededError) as exc:
        level_frequencies(24, 1)
    assert exc.value.predicted == 2 ** 24
    # 10 027 008 indices, just above the cap of 10^7
    with pytest.raises(CapExceededError) as exc:
        level_frequencies(16, 3)
    assert exc.value.predicted == level_size(16, 3) == 10_027_008
    with pytest.raises(ValueError):
        level_frequencies(-1, 2)


def test_frequency_levels_match_level_of():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        k = rng.integers(-2 ** 40, 2 ** 40, size=(500, d))
        k[::7] = 0
        k[1::11, 0] = -1
        k[2::13, -1] = 2 ** 52 - 1
        assert frequency_levels(k).tolist() == [
            level_of(tuple(row)) for row in k.tolist()]
    assert frequency_levels(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_frequency_set_rejects_duplicates_and_mixed_dims():
    with pytest.raises(ValueError):
        FrequencySet(((1, 0), (1, 0)), 2)
    with pytest.raises(Exception):
        FrequencySet(((1, 0), (1,)), 2)


def test_frequency_set_json_roundtrip():
    fs = hyperbolic_cross(2, 2)
    again = FrequencySet.from_json(fs.to_json())
    assert set(again.indices) == set(fs.indices)
    assert again.to_json()["indices"] == sorted(again.to_json()["indices"])


def test_dyadic_block_cap():
    with pytest.raises(CapExceededError):
        dyadic_block((40,))
