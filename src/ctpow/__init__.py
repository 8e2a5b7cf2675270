"""Exact coefficients of powers of multivariate Laurent polynomials.

The torus engine extracts one coefficient of h^p as an exact sum over roots
of unity in prime fields and reassembles the exact integer with a residue
number system; the interpolation engine of the paper stays as the
reference.  On top of that sit constant term series and exact
recurrence (differential operator) discovery.
"""

from .engine import (AllocationMeter, Counters, EngineError, ModulusTooSmall,
                     PrimeContext, SplitPrecondition, coefficient_mod_prime,
                     make_context)
from .fixtures import (OPERATOR_NAMES, SAMPLE39_POWER150_CONSTANT,
                       SAMPLE_NAMES, sample_operator, sample_polynomial)
from .interp import InverseRow, interpolate_coefficient, inverse_vandermonde_row
from .laurent import (CoefficientTensor, LaurentError, LaurentPolynomial,
                      NormalizedPolynomial, from_polytope, make_polynomial,
                      normalize, parse_laurent, polynomial_from_json,
                      polynomial_to_json, to_expr_string, total_weight)
from .oracle import SizeGuardError, known_family, naive_power_coeff
from .recurrence import (DifferentialOperator, FitError, Recurrence, Series,
                         constant_term_series, exact_coefficient,
                         fit_recurrence, make_recurrence, operator_to_recurrence,
                         parse_operator_text, recurrence_to_operator,
                         search_recurrence, series_from_json, series_to_json,
                         verify_recurrence)
from .rns import (ModulusSet, RnsValue, coefficient_bound_bits,
                  mixed_radix_digits, reconstruct, reduce_int, select_primes)

__version__ = "0.1.0"

__all__ = [
    "AllocationMeter", "CoefficientTensor", "Counters", "DifferentialOperator",
    "EngineError", "FitError", "InverseRow", "LaurentError",
    "LaurentPolynomial", "ModulusSet", "ModulusTooSmall",
    "NormalizedPolynomial", "OPERATOR_NAMES", "PrimeContext", "Recurrence",
    "RnsValue", "SAMPLE39_POWER150_CONSTANT", "SAMPLE_NAMES", "Series",
    "SizeGuardError", "SplitPrecondition", "coefficient_bound_bits",
    "coefficient_mod_prime", "constant_term_series", "exact_coefficient",
    "fit_recurrence", "from_polytope", "interpolate_coefficient",
    "inverse_vandermonde_row", "known_family", "make_context",
    "make_polynomial", "make_recurrence", "mixed_radix_digits",
    "naive_power_coeff", "normalize", "operator_to_recurrence",
    "parse_laurent", "parse_operator_text", "polynomial_from_json",
    "polynomial_to_json", "reconstruct", "recurrence_to_operator",
    "reduce_int", "sample_operator", "sample_polynomial", "search_recurrence",
    "select_primes", "series_from_json", "series_to_json", "to_expr_string",
    "total_weight", "verify_recurrence",
]
