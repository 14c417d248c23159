"""Every public boundary checks a scalar argument through one helper.

A bool, a non-number, a non-integral, non-finite or out-of-range value
raises ``ValueError`` whose message starts with the argument's name.
"""

import math
import re

import numpy as np
import pytest

from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (check_usd, discretization_error_trials,
                                   expected_sup_estimate, find_usd_points)
from usdlab.entropy import (EntropyProfile, SampledClass, chaining_bound,
                            chaining_bound_dyadic, double_exponential_tail_constant,
                            double_exponential_tail_sum, entropy_sum_dyadic,
                            entropy_sum_flat)
from usdlab.frequencies import (FrequencySet, dyadic_annulus, dyadic_block, dyadic_level_index,
                                hyperbolic_cross, hyperbolic_cross_size,
                                level_frequencies, level_of, level_size, unrank_level)
from usdlab.points import PointSet
from usdlab.recovery import (DiscreteInstance, best_v_term_oracle,
                             block_term_schedule)
from usdlab.smoothness import (SmoothnessBudget, bernoulli_kernel,
                               bernoulli_kernel_tail_bound, kernel_coefficient,
                               level_budget_element)
from usdlab.trigpoly import TrigPolynomial, lp_norm

_WAVE = [TrigPolynomial({1: 1.0})]


def _band():
    return Dictionary.exponential_band(-2, 2)


def _pairs():
    return SubspaceCollection.all_subsets(_band(), 2)


def _profile():
    return EntropyProfile.from_values([1.0, 0.5, 0.25])


def _instance(p=2.0):
    return DiscreteInstance(np.eye(3, dtype=complex), np.ones(3), np.ones(3), p)


CASES = [
    # a helper call followed by its own bound check
    ("find_usd_m", lambda: find_usd_points(_pairs(), 2, 0), "m must be at least 1, got 0"),
    ("find_usd_max_trials", lambda: find_usd_points(_pairs(), 2, 16, max_trials=0),
     "max_trials must be at least 1, got 0"),
    ("check_usd_opts_float",
     lambda: check_usd(PointSet.random_uniform(8, 1, 0), _pairs(), 2.0, 0.5),
     "opts must be a RatioOptions, got 0.5"),
    ("find_usd_opts_dict", lambda: find_usd_points(_pairs(), 4, 16, opts={"starts": 2}),
     "opts must be a RatioOptions, got {'starts': 2}"),
    ("trials_mc_trials", lambda: discretization_error_trials(_WAVE, 2, 8, 0),
     "mc_trials must be at least 1, got 0"),
    ("trials_m", lambda: discretization_error_trials(_WAVE, 2, 0, 3),
     "m must be at least 1, got 0"),
    ("sup_estimate_mc_trials", lambda: expected_sup_estimate(_WAVE, 2, 8, 1),
     "mc_trials must be at least 2, got 1"),
    ("oracle_v_negative", lambda: best_v_term_oracle(_instance(), -1),
     "v must be at least 0, got -1"),
    ("oracle_v_above_n", lambda: best_v_term_oracle(_instance(), 4),
     "v must be at most the dictionary size 3, got 4"),
    ("lp_norm_p", lambda: lp_norm(_WAVE[0], 0.5), "p must be finite and >= 1, got 0.5"),
    ("check_usd_p_nan", lambda: check_usd(PointSet.equispaced(16), _pairs(), math.nan),
     "p must be finite and >= 1, got nan"),
    ("instance_p", lambda: _instance(1.0), "p must be finite and > 1, got 1.0"),
    ("check_usd_epsilon",
     lambda: check_usd(PointSet.equispaced(16), _pairs(), 2, epsilon=0.0),
     "epsilon must be finite and positive, got 0.0"),
    ("check_usd_epsilon_nan",
     lambda: check_usd(PointSet.equispaced(16), _pairs(), 2, epsilon=math.nan),
     "epsilon must be finite and positive, got nan"),
    # conversions with float(x), float(x).is_integer() or int(x)
    ("dictionary_bound_string", lambda: Dictionary(_WAVE, "1.5"),
     "uniform_bound must be a real number, got '1.5'"),
    ("dictionary_riesz_string", lambda: Dictionary(_WAVE, 1.0, "2"),
     "riesz_constant must be a real number, got '2'"),
    ("dictionary_bound_bool", lambda: Dictionary(_WAVE, True),
     "uniform_bound must be a real number, got True"),
    ("band_lo_string", lambda: Dictionary.exponential_band("-1", 1),
     "lo must be an integer, got '-1'"),
    ("band_hi_fractional", lambda: Dictionary.exponential_band(-1, 1.5),
     "hi must be an integer, got 1.5"),
    ("band_reversed", lambda: Dictionary.exponential_band(3, 1), "hi must be at least 3, got 1"),
    ("collection_v_string", lambda: SubspaceCollection.all_subsets(_band(), "2"),
     "v must be an integer, got '2'"),
    ("collection_v_above_n", lambda: SubspaceCollection.all_subsets(_band(), 6),
     "v must be at most the dictionary size 5, got 6"),
    ("combine_fractional_index", lambda: _band().combine([1.0], [1.9]),
     "subset index must be an integer, got 1.9"),
    ("subsets_fractional_index",
     lambda: SubspaceCollection.from_subsets(_band(), [(0.7, 1.2)]),
     "subset index must be an integer, got 0.7"),
    ("gram_bool_index", lambda: _band().continuous_gram([True]),
     "subset index must be an integer, got True"),
    ("polynomial_fractional_frequency", lambda: TrigPolynomial({(1.7,): 1.0}),
     "frequency must be an integer, got 1.7"),
    ("polynomial_fractional_scalar_frequency", lambda: TrigPolynomial({1.7: 1.0}),
     "frequency must be an integer, got 1.7"),
    ("polynomial_nan_coefficient", lambda: TrigPolynomial({(1,): math.nan}),
     "coefficients must be finite"),
    ("polynomial_inf_coefficient", lambda: TrigPolynomial({(1,): math.inf}),
     "coefficients must be finite"),
    ("polynomial_complex_inf_coefficient",
     lambda: TrigPolynomial.from_arrays([[0], [2]], [1.0, complex(0.0, -math.inf)], 1),
     "coefficients must be finite"),
    ("frequency_set_fractional", lambda: FrequencySet.from_indices([(1.5,), (-2.7,)]),
     "frequency must be an integer, got 1.5"),
    ("frequency_set_bool", lambda: FrequencySet.from_indices([(True,)]),
     "frequency must be an integer, got True"),
    ("frequency_set_contains_bool", lambda: (True,) in FrequencySet.from_indices([(1,)]),
     "frequency must be an integer, got True"),
    ("frequency_set_contains_fractional", lambda: 1.5 in FrequencySet.from_indices([(1,)]),
     "frequency must be an integer, got 1.5"),
    ("dyadic_block_fractional", lambda: dyadic_block(1.5), "s must be an integer, got 1.5"),
    ("dyadic_block_fractional_entry", lambda: dyadic_block((1, 2.5)),
     "s must be an integer, got 2.5"),
    # bare comparisons
    ("cross_size_fractional", lambda: hyperbolic_cross_size(2.5, 1),
     "n_param must be an integer, got 2.5"),
    ("cross_size_bool", lambda: hyperbolic_cross_size(True, 1),
     "n_param must be an integer, got True"),
    ("cross_fractional", lambda: hyperbolic_cross(2.5, 1), "n_param must be an integer, got 2.5"),
    ("cross_string", lambda: hyperbolic_cross("2", 1), "n_param must be an integer, got '2'"),
    ("cross_d_zero", lambda: hyperbolic_cross(2, 0), "d must be at least 1, got 0"),
    ("annulus_fractional", lambda: dyadic_annulus(1.5), "s must be an integer, got 1.5"),
    ("level_index_fractional", lambda: dyadic_level_index(1.5), "k must be an integer, got 1.5"),
    ("level_of_fractional", lambda: level_of(1.5), "k must be an integer, got 1.5"),
    ("level_of_fractional_entry", lambda: level_of((1, 2.5)), "k must be an integer, got 2.5"),
    ("level_size_fractional", lambda: level_size(2.5, 1), "j must be an integer, got 2.5"),
    ("level_size_bool", lambda: level_size(1, True), "d must be an integer, got True"),
    ("level_frequencies_fractional", lambda: level_frequencies(2.5, 1),
     "j must be an integer, got 2.5"),
    ("level_frequencies_d_zero", lambda: level_frequencies(2, 0), "d must be at least 1, got 0"),
    ("kernel_coefficient_fractional", lambda: kernel_coefficient(1.5, 2.0),
     "k must be an integer, got 1.5"),
    ("kernel_coefficient_r_nan", lambda: kernel_coefficient(1, math.nan),
     "r must be finite and positive, got nan"),
    ("kernel_fractional_truncation", lambda: bernoulli_kernel(1.5, 2.5),
     "max_freq must be an integer, got 2.5"),
    ("kernel_r_string", lambda: bernoulli_kernel("2", 4), "r must be a real number, got '2'"),
    ("kernel_r_nan", lambda: bernoulli_kernel(math.nan), "r must be finite and positive, got nan"),
    ("tail_bound_r_nan", lambda: bernoulli_kernel_tail_bound(math.nan, 4),
     "r must be finite and positive, got nan"),
    ("tail_bound_fractional", lambda: bernoulli_kernel_tail_bound(2.0, 4.5),
     "max_freq must be an integer, got 4.5"),
    ("budget_max_level_fractional", lambda: SmoothnessBudget(1.0, 0.0, 1, 2.5),
     "max_level must be an integer, got 2.5"),
    ("budget_a_string", lambda: SmoothnessBudget("1", 0.0, 1, 2),
     "a must be a real number, got '1'"),
    ("budget_a_nan", lambda: SmoothnessBudget(math.nan, 0.0, 1, 2),
     "a must be finite and non-negative, got nan"),
    ("budget_b_nan", lambda: SmoothnessBudget(1.0, math.nan, 1, 2),
     "b must be finite and >= -inf, got nan"),
    ("budget_d_fractional", lambda: SmoothnessBudget(1.0, 0.0, 1.5, 2),
     "d must be an integer, got 1.5"),
    ("budget_element_seed_fractional",
     lambda: level_budget_element(SmoothnessBudget(1.0, 0.0, 1, 2), rng_seed=1.5),
     "rng_seed must be an integer, got 1.5"),
    ("eps_at_fractional", lambda: _profile().eps_at(1.5), "n must be an integer, got 1.5"),
    ("e_at_fractional", lambda: _profile().e_at(0.5), "k must be an integer, got 0.5"),
    ("chaining_m_fractional", lambda: chaining_bound(_profile(), 2, 1.0, 2.5),
     "m must be an integer, got 2.5"),
    ("chaining_p_nan", lambda: chaining_bound(_profile(), math.nan, 1.0, 4),
     "p must be finite and >= 1, got nan"),
    ("chaining_sup_bound_nan", lambda: chaining_bound(_profile(), 2, math.nan, 4),
     "sup_bound must be finite and positive, got nan"),
    ("chaining_dyadic_m_fractional", lambda: chaining_bound_dyadic(_profile(), 2, 1.0, 2.5),
     "m must be an integer, got 2.5"),
    ("tail_sum_a_nan", lambda: double_exponential_tail_sum(math.nan, 1, 4),
     "a must be finite and positive, got nan"),
    ("tail_sum_m_fractional", lambda: double_exponential_tail_sum(1, 1, 4.5),
     "m must be an integer, got 4.5"),
    ("tail_constant_a_zero", lambda: double_exponential_tail_constant(0, 1),
     "a must be finite and positive, got 0.0"),
    ("tail_constant_b_nan", lambda: double_exponential_tail_constant(1, math.nan),
     "b must be finite and positive, got nan"),
    # no check before
    ("unrank_negative_rank", lambda: unrank_level(2, 1, [-1]),
     "ranks must be integers in [0, 4) at level 2 in dimension 1"),
    ("unrank_rank_too_large", lambda: unrank_level(2, 1, [100]),
     "ranks must be integers in [0, 4) at level 2 in dimension 1"),
    ("unrank_fractional_rank", lambda: unrank_level(2, 1, [1.9]),
     "ranks must be integers in [0, 4) at level 2 in dimension 1"),
    ("profile_eps_nan", lambda: EntropyProfile.from_values([math.nan, 0.5]),
     "eps must be finite and non-negative"),
    ("sampled_class_no_grid_columns", lambda: SampledClass(np.zeros((3, 0))),
     "expected a (representatives, grid) value matrix"),
    ("entropy_sum_flat_fractional_m", lambda: entropy_sum_flat(_profile(), 0.5, 2.5),
     "m must be an integer, got 2.5"),
    ("entropy_sum_flat_negative_m", lambda: entropy_sum_flat(_profile(), 0.5, -1),
     "m must be at least 0, got -1"),
    ("entropy_sum_flat_theta_negative", lambda: entropy_sum_flat(_profile(), -0.5, 2),
     "theta must be finite and non-negative, got -0.5"),
    ("entropy_sum_dyadic_m_zero", lambda: entropy_sum_dyadic(_profile(), 0.5, 0),
     "m must be at least 1, got 0"),
    ("entropy_sum_dyadic_theta_nan", lambda: entropy_sum_dyadic(_profile(), math.nan, 2),
     "theta must be finite and non-negative, got nan"),
    ("entropy_sum_dyadic_theta_string", lambda: entropy_sum_dyadic(_profile(), "1", 2),
     "theta must be a real number, got '1'"),
    ("schedule_n_negative", lambda: block_term_schedule(-1, 0.5, 1),
     "n must be at least 0, got -1"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_invalid_arguments_raise_value_error_naming_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_integral_arguments_of_any_numeric_type_give_the_same_results():
    assert hyperbolic_cross(2.0, np.int64(2)) == hyperbolic_cross(2, 2)
    assert dyadic_block(np.int64(2)) == dyadic_block((2,)) == dyadic_block(2.0)
    assert level_of(np.array([-5, 0])) == level_of((-5, 0)) == 3
    assert level_size(np.int8(3), 2.0) == level_size(3, 2)
    assert SmoothnessBudget(1, 0, 2.0, np.int64(3)) == SmoothnessBudget(1.0, 0.0, 2, 3)
    assert Dictionary.exponential_band(-2.0, np.int64(2)).size == 5
    assert unrank_level(2, 1, np.array([0, 3], dtype=np.uint8)).tolist() == [[-3], [3]]
    assert chaining_bound(_profile(), 2, 1, 2) == chaining_bound(_profile(), 2.0, 1.0, 2.0)
    fs = FrequencySet.from_indices([(1,), (-2,)])
    assert 1.0 in fs and np.int64(-2) in fs and (np.int8(1),) in fs and [1] in fs
    assert 2 not in fs and (1, 0) not in fs
