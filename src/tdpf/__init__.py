"""Numerical laboratory for time-dependent product and multi-product formulas
with commutator-scaling error bounds and a Floquet-space cross-check."""

__version__ = "0.1.0"

from .bounds import (BoundReport, alpha_com, bar_alpha_com, corollary_bound,
                     huyghebaert_bound, mpf_bound, mpf_bound_value,
                     nonunitary_bound, tight_bound)
from .curves import (ConstantCurve, ExpCurve, PolynomialCurve, ScalarCurve,
                     TrigCurve, bump_c, bump_c_deriv, extrapolate_scalar)
from .errors import (BudgetExceededError, ConvergenceError, InvalidInputError,
                     NumericalBlowUpError, OutOfRegimeError, SchemaError,
                     UnsupportedOrderError)
from .floquet import (FloquetSpace, FourierHamiltonian, build_floquet_operators,
                      build_tf, build_tf_suzuki, check_translation_symmetry,
                      fourier_decompose, fourier_hamiltonian, reconstruct)
from .formulas import (EXACT, INSTANTANEOUS, Stage, StagePlan, evaluate_pf,
                       fit_order, measure_error, suzuki_plan, trotterize)
from .linalg import PAULI, matrix_exp, spectral_norm
from .models import (Hamiltonian, OperatorCurve, build_driven_chain,
                     build_long_range, build_nn_chain, model_from_descriptor)
from .multiproduct import (MpfPlan, evaluate_mpf, measure_mpf_error, mpf_plan,
                           solve_coefficients)
from .propagator import evolve
from .resources import choose_trotter_steps, gate_count_pf, mpf_resources
