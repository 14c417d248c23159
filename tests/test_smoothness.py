import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest

from usdlab.errors import CapExceededError, NormBudgetError
from usdlab.frequencies import level_frequencies, level_of
from usdlab.smoothness import (SmoothnessBudget, bernoulli_kernel,
                               bernoulli_kernel_tail_bound, dyadic_blocks,
                               kernel_coefficient, level_a_norms,
                               level_budget_element, mixed_difference_seminorm,
                               mixed_smoothness_element)
from usdlab.trigpoly import TrigPolynomial, lp_norm, tensor_grid_points


def test_kernel_constant_term_is_one():
    k = bernoulli_kernel(0.7, 16)
    assert k.coeffs[(0,)] == 1.0


def test_kernel_amplitude_matches_power_decay():
    k = bernoulli_kernel(0.5, 8)
    assert abs(k.coeffs[(5,)]) == pytest.approx(5 ** -0.5, rel=1e-15)
    assert abs(k.coeffs[(-5,)]) == pytest.approx(5 ** -0.5, rel=1e-15)


def test_kernel_phase_gap_between_conjugate_frequencies():
    # expanding 2 cos(kx - r pi/2) into exponentials puts phase -r pi/2 at +k
    # and +r pi/2 at -k, so the gap is -r pi
    r = 0.73
    k = bernoulli_kernel(r, 4)
    gap = cmath.phase(k.coeffs[(1,)]) - cmath.phase(k.coeffs[(-1,)])
    assert gap == pytest.approx(-r * math.pi, rel=1e-12)


def test_kernel_is_real_valued():
    k = bernoulli_kernel(1.3, 32)
    vals = k.evaluate(tensor_grid_points(257, 1))
    assert np.abs(vals.imag).max() < 1e-11


def test_kernel_values_match_cosine_series():
    r, trunc = 0.9, 64
    k = bernoulli_kernel(r, trunc)
    xs = np.array([0.3, 1.7, 4.1])
    series = 1 + 2 * sum(n ** -r * np.cos(n * xs - r * np.pi / 2)
                         for n in range(1, trunc + 1))
    assert np.allclose(k.evaluate(xs).real, series, atol=1e-12)


def test_kernel_tail_bound():
    assert bernoulli_kernel_tail_bound(2.0, 100) == pytest.approx(2 / 100)
    assert math.isinf(bernoulli_kernel_tail_bound(0.9, 100))


def test_smoothed_element_of_constant_is_constant():
    phi = TrigPolynomial({(0,): 1.0})
    f = mixed_smoothness_element(phi, 1.5, 2)
    assert f.coeffs == {(0,): 1.0}


def test_smoothed_element_coefficient_product():
    phi = TrigPolynomial({(2,): 1.0})
    f = mixed_smoothness_element(phi, 1.0, 2)
    expected = 0.5 * cmath.exp(-1j * math.pi / 2)
    assert f.coeffs[(2,)] == pytest.approx(expected)


def test_smoothed_element_support_preserved():
    rng = np.random.default_rng(9)
    coeffs = {(int(k),): complex(v, w) for k, v, w in
              zip(rng.integers(-6, 7, 5), rng.normal(size=5), rng.normal(size=5))}
    phi = TrigPolynomial(coeffs)
    phi = phi.scale(0.5 / max(lp_norm(phi, 3), 1e-9))
    f = mixed_smoothness_element(phi, 0.8, 3)
    assert set(f.support) == set(phi.support)


def test_smoothed_element_tensor_kernel_d2():
    phi = TrigPolynomial({(1, 2): 1.0})
    f = mixed_smoothness_element(phi, 1.0, 2)
    expected = kernel_coefficient(1, 1.0) * kernel_coefficient(2, 1.0)
    assert f.coeffs[(1, 2)] == pytest.approx(expected)


def test_smoothed_element_rejects_large_phi():
    phi = TrigPolynomial({(0,): 3.0})
    with pytest.raises(NormBudgetError):
        mixed_smoothness_element(phi, 1.0, 2)


def test_budget_element_level_zero_is_unit_constant():
    budget = SmoothnessBudget(1.0, 0.0, 1, 0)
    f = level_budget_element(budget, rng_seed=1)
    assert set(f.support) == {(0,)}
    assert abs(f.coeffs[(0,)]) == pytest.approx(1.0, rel=1e-14)


def test_budget_element_saturates_every_level():
    budget = SmoothnessBudget(1.0, 0.0, 1, 6)
    f = level_budget_element(budget, rng_seed=3)
    norms = level_a_norms(f)  # independent re-summation over the support
    for j in range(7):
        assert norms[j] == pytest.approx(2.0 ** -j, rel=1e-12)
    assert norms[1] == pytest.approx(0.5, rel=1e-12)


def test_budget_element_d2_polylog_factor():
    budget = SmoothnessBudget(0.5, 1.0, 2, 4)
    f = level_budget_element(budget, support_rule=5, rng_seed=4)
    norms = level_a_norms(f)
    for j, val in norms.items():
        assert val == pytest.approx(2.0 ** (-0.5 * j) * max(j, 1), rel=1e-12)


def test_budget_element_deterministic_per_seed():
    budget = SmoothnessBudget(0.75, 0.0, 1, 5)
    f = level_budget_element(budget, support_rule=3, rng_seed=11)
    g = level_budget_element(budget, support_rule=3, rng_seed=11)
    assert f.coeffs == g.coeffs
    h = level_budget_element(budget, support_rule=3, rng_seed=12)
    assert f.coeffs != h.coeffs


def test_budget_element_empty_support_warns_and_skips():
    budget = SmoothnessBudget(1.0, 0.0, 1, 2)

    def rule(candidates, level, rng):
        return [] if level == 1 else candidates

    with pytest.warns(UserWarning, match="level 1"):
        f = level_budget_element(budget, support_rule=rule, rng_seed=0)
    assert 1 not in level_a_norms(f)


def materialized_budget_element(budget, take_rule, rng_seed):
    """Reference body: build every level, then pick positions in it."""
    coeffs = {}
    for j in range(budget.max_level + 1):
        candidates = list(level_frequencies(j, budget.d))
        rng = np.random.default_rng([int(rng_seed), j])
        if take_rule is None:
            selected = candidates
        elif callable(take_rule):
            selected = list(take_rule(candidates, j, rng))
        else:
            take = min(take_rule, len(candidates))
            pick = rng.choice(len(candidates), size=take, replace=False)
            selected = [candidates[i] for i in sorted(pick)]
        mags = rng.uniform(0.5, 1.5, size=len(selected))
        mags *= budget.level_budget(j) / mags.sum()
        phases = np.exp(2j * np.pi * rng.random(len(selected)))
        for k, m, ph in zip(selected, mags, phases):
            coeffs[k] = m * ph
    return TrigPolynomial(coeffs, budget.d)


def keep_random_half(candidates, level, rng):
    return [k for i, k in enumerate(candidates) if i == 0 or rng.random() < 0.5]


def keep_nonnegative_first(candidates, level, rng):
    return [k for k in candidates if k[0] >= 0]


@pytest.mark.parametrize("budget, rule, seed", [
    (SmoothnessBudget(1.0, 0.0, 1, 14), 256, 3),
    (SmoothnessBudget(0.75, 1.0, 2, 9), 64, 8),
    (SmoothnessBudget(0.5, 0.5, 3, 6), 40, 21),
    (SmoothnessBudget(1.0, 0.0, 1, 10), None, 5),
    (SmoothnessBudget(0.5, 0.5, 3, 5), None, 2),
    (SmoothnessBudget(0.75, 1.0, 2, 7), keep_random_half, 13),
    (SmoothnessBudget(1.0, 0.0, 1, 9), keep_nonnegative_first, 4),
])
def test_integer_rule_equals_the_materialized_reference(budget, rule, seed):
    f = level_budget_element(budget, support_rule=rule, rng_seed=seed)
    ref = materialized_budget_element(budget, rule, seed)
    assert list(f.coeffs) == list(ref.coeffs)
    assert np.array_equal(f.as_arrays()[1], ref.as_arrays()[1])


def test_integer_rule_digest_is_pinned():
    # recorded from the level-materializing implementation
    budget = SmoothnessBudget(1.0, 0.0, 1, 20)
    f = level_budget_element(budget, support_rule=4096, rng_seed=909)
    k, c = f.as_arrays()
    digest = hashlib.sha256(k.tobytes() + c.tobytes()).hexdigest()
    assert len(f.coeffs) == 40959
    assert digest == ("2a3e31f99c729df363d1ccf396cd5f09"
                      "bdf11e64c9ab36d4e3784304529a6297")


@pytest.mark.parametrize("rule", [-3, -1, 2.7, 3.0, True, False, "5"])
def test_budget_element_rejects_bad_integer_rules(rule):
    budget = SmoothnessBudget(1.0, 0.0, 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="support_rule"):
            level_budget_element(budget, support_rule=rule)


def test_budget_element_accepts_numpy_integer_rules():
    budget = SmoothnessBudget(1.0, 0.0, 2, 4)
    f = level_budget_element(budget, support_rule=np.int64(3), rng_seed=6)
    assert f.coeffs == level_budget_element(budget, support_rule=3,
                                            rng_seed=6).coeffs


def test_budget_element_level_cap_still_applies_to_integer_rules():
    with pytest.raises(CapExceededError):
        level_budget_element(SmoothnessBudget(1.0, 0.0, 1, 24), support_rule=8)


def test_dyadic_blocks_reassemble():
    budget = SmoothnessBudget(1.0, 0.0, 1, 4)
    f = level_budget_element(budget, rng_seed=2)
    blocks = dyadic_blocks(f)
    total = None
    for block in blocks.values():
        total = block if total is None else total + block
    assert total.coeffs == f.coeffs
    for j, block in blocks.items():
        assert all(level_of(k) == j for k in block.support)


def test_mixed_difference_empty_subset_is_identity():
    f = TrigPolynomial({2: 1.5, -1: 0.5})
    assert mixed_difference_seminorm(f, 0.5, 2, [0.3], [], 2) == pytest.approx(
        lp_norm(f, 2))


def test_mixed_difference_kills_constants():
    f = TrigPolynomial({(0,): 4.2})
    assert mixed_difference_seminorm(f, 1.0, 1, [0.7], [0], 2) == 0.0


def test_mixed_difference_single_exponential_hand_value():
    # first difference of e^{ix} at step pi has norm |e^{i pi} - 1| = 2
    f = TrigPolynomial({1: 1.0})
    r = 0.6
    val = mixed_difference_seminorm(f, r, 1, [math.pi], [0], 2)
    assert val == pytest.approx(2.0 / math.pi ** r, rel=1e-12)


def test_mixed_difference_multiplier_power():
    # the order-l difference multiplies each coefficient by (e^{i k t} - 1)^l
    f = TrigPolynomial({3: 2.0})
    t, l = 0.37, 3
    val = mixed_difference_seminorm(f, 0.0, l, [t], [0], 2)
    assert val == pytest.approx(2.0 * abs(cmath.exp(1j * 3 * t) - 1) ** l,
                                rel=1e-12)


def test_mixed_difference_matches_function_space_oracle():
    # independent oracle: apply the difference to sampled values directly
    rng = np.random.default_rng(17)
    f = TrigPolynomial({(int(k),): complex(a, b) for k, a, b in
                        zip(rng.integers(-5, 6, 4), rng.normal(size=4),
                            rng.normal(size=4))})
    t, l = 0.9, 2
    grid = tensor_grid_points(256, 1)
    diff_vals = np.zeros(256, dtype=complex)
    for i in range(l + 1):
        diff_vals += math.comb(l, i) * (-1) ** (l - i) * f.evaluate(grid + i * t)
    oracle = (np.mean(np.abs(diff_vals) ** 2.0)) ** 0.5
    lib = mixed_difference_seminorm(f, 0.0, l, [t], [0], 2)
    assert lib == pytest.approx(oracle, rel=1e-10)


def test_mixed_difference_d2_subset():
    f = TrigPolynomial({(1, 2): 1.0})
    t = [0.5, 0.25]
    val = mixed_difference_seminorm(f, 1.0, 1, t, [0, 1], 2)
    expect = (abs(cmath.exp(1j * 0.5) - 1) * abs(cmath.exp(2j * 0.25) - 1)
              / (0.5 * 0.25))
    assert val == pytest.approx(expect, rel=1e-12)


def test_mixed_difference_validates_input():
    f = TrigPolynomial({1: 1.0})
    with pytest.raises(ValueError):
        mixed_difference_seminorm(f, 1.0, 0, [0.5], [0], 2)
    with pytest.raises(ValueError):
        mixed_difference_seminorm(f, 1.0, 1, [0.0], [0], 2)
