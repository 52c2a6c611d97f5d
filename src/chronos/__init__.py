"""Numerical engine for time-ordered operator calculus on finite-dimensional spaces.

Time-ordered exponentials and their expansions with exact remainders,
contraction semigroups and Yosida approximants, finite tensor-product film
spaces, the Poisson sum over paths, and a toy scattering model.
"""

__version__ = "0.1.0"

from .errors import (ChronosError, ConfigError, ConsistencyError,
                     ConvergenceError, DimensionError, DomainError,
                     QuadratureError, RangeError, ResourceError,
                     SingularityError)
from .linalg import (DissipativityReport, dissipativity, expm_stack,
                     hermitian_part, matrix_exp, operator_norm,
                     random_dissipative, resolvent, yosida)
from .quadrature import (adaptive_quadrature, cumulative_simpson_uniform,
                         fixed_quadrature, loglog_slope)
from .families import (GeneratorFamily, builtin_family, family_from_csv,
                       family_from_evaluator, family_from_matrix,
                       integrate_family, variance_integral, yosida_family)
from .propagators import (DysonExpansion, PropagatorResult, asymptotic_probe,
                          dyson_expansion, dyson_terms, exp_propagator,
                          ordered_product, product_integral,
                          propagator_on_grid, remainder_310, remainder_42,
                          taylor_partial_sum,
                          yosida_propagator_convergence)
from .film import (ExchangeOperator, FilmIntegralOperator, FilmSpace,
                   SlotOperator, commutation_check, embed, exchange, film_Q,
                   midpoint_edges, slot_operator_norm, verify_eq35,
                   verify_eq38)
from .path_sum import (PathSumConfig, U_lambda, U_n,
                       conditional_single_bubble_check, make_partition,
                       monte_carlo_U, poisson_weight, poisson_mixture,
                       poisson_truncation, sample_bubbles, stieltjes_form,
                       trial_rng)
from .smatrix import (SMatrixConfig, S_lambda, S_n_experimental,
                      dyson_S_expansion, energy_shift_identity, fixed_dt_S,
                      interaction_generator, oracle_S)
