"""Exact coefficients of powers of multivariate Laurent polynomials.

The torus engine extracts one coefficient of h^p as an exact sum over roots
of unity in prime fields and reassembles the exact integer with a residue
number system; the interpolation engine of the paper stays as the
reference.  On top of that sit constant term series and exact
recurrence (differential operator) discovery.
"""

import os

# int64 arithmetic needs no BLAS: keep OpenBLAS from starting busy threads
if _pin := "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
from .fixtures import sample_operator, sample_polynomial
from .laurent import parse_laurent
from .oracle import naive_power_coeff
from .recurrence import (constant_term_series, exact_coefficient,
                         make_recurrence, operator_to_recurrence,
                         recurrence_to_operator, search_recurrence,
                         verify_recurrence)

if _pin:
    del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

__all__ = [
    "constant_term_series", "exact_coefficient", "make_recurrence",
    "naive_power_coeff", "operator_to_recurrence", "parse_laurent",
    "recurrence_to_operator", "sample_operator", "sample_polynomial",
    "search_recurrence", "verify_recurrence",
]
