"""Sampling-discretization laboratory.

Library for building and certifying point sets whose empirical Lp norms
are uniformly comparable to continuous Lp norms across whole collections
of sparse trigonometric subspaces, for estimating covering-radius
profiles of function classes, and for sparse approximation and sampling
recovery with greedy algorithms in discrete Lp norms.
"""

from .dictionary import Dictionary, SubspaceCollection
from .discretization import (RatioOptions, UsdCertificate, UsdSearchResult,
                             check_usd, expected_sup_estimate,
                             find_usd_points, subspace_ratio_bounds,
                             usd_sample_budget)
from .entropy import (EntropyProfile, SampledClass, chaining_bound,
                      chaining_bound_dyadic, double_exponential_tail_constant,
                      double_exponential_tail_sum, entropy_numbers)
from .errors import (CapExceededError, ConfigError, DimensionMismatchError,
                     GridTooCoarseError, NormBudgetError, ProfileTooShortError,
                     RankDeficiencyError, UsdlabError, ZeroResidualError)
from .experiments import ExperimentConfig, RateFit, fit_rate, run
from .frequencies import (FrequencySet, dyadic_block, dyadic_level_index,
                          frequency_levels, hyperbolic_cross,
                          hyperbolic_cross_size, level_frequencies, level_of,
                          level_size, unrank_level)
from .points import PointSet
from .recovery import (BlockGreedyResult, DiscreteInstance, RecoveryReport,
                       SparseApproximant, best_v_term_error_blended,
                       best_v_term_oracle, block_greedy_approximant,
                       block_term_schedule, chebyshev_projection,
                       norming_functional_action, recovery_pipeline,
                       weak_chebyshev_greedy, wcga_iteration_budget)
from .smoothness import (SmoothnessBudget, bernoulli_kernel,
                         bernoulli_kernel_tail_bound, kernel_coefficient,
                         level_a_norms, level_budget_element)
from .trigpoly import TrigPolynomial, lp_norm, sup_norm, sup_norm_info

__version__ = "0.1.0"
