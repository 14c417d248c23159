import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest

from usdlab.errors import CapExceededError
from usdlab.frequencies import level_frequencies
from usdlab.smoothness import (SmoothnessBudget, bernoulli_kernel,
                               bernoulli_kernel_tail_bound, level_a_norms,
                               level_budget_element)
from usdlab.trigpoly import TrigPolynomial, tensor_grid_points


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
    with pytest.warns(UserWarning) as caught:
        f = level_budget_element(budget, support_rule=0, rng_seed=0)
    assert [str(w.message) for w in caught] == [
        f"level {j} has an empty support; level skipped" for j in range(3)]
    assert level_a_norms(f) == {} and f.dimension == 1


def materialized_budget_element(budget, take_rule, rng_seed):
    """Reference body: build every level, then pick positions in it."""
    coeffs = {}
    for j in range(budget.max_level + 1):
        candidates = list(level_frequencies(j, budget.d))
        rng = np.random.default_rng([int(rng_seed), j])
        if take_rule is None:
            selected = candidates
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


@pytest.mark.parametrize("budget, rule, seed", [
    (SmoothnessBudget(1.0, 0.0, 1, 14), 256, 3),
    (SmoothnessBudget(0.75, 1.0, 2, 9), 64, 8),
    (SmoothnessBudget(0.5, 0.5, 3, 6), 40, 21),
    (SmoothnessBudget(1.0, 0.0, 1, 10), None, 5),
    (SmoothnessBudget(0.5, 0.5, 3, 5), None, 2),
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


@pytest.mark.parametrize("rule", [-3, -1, 2.7, 3.0, True, False, "5", len])
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
