"""sinecomb: zero combs, atomic Fourier measures and sine-product
factorization of exponential polynomials with zeros in a horizontal strip.
"""

from .core import (
    ExpPolynomial,
    SineProduct,
    Strip,
    expand_sine_product,
    multiply,
    zero_strip_estimate,
)
from .factorize import (
    FactorConfig,
    FactorOutcome,
    FactorizationResult,
    factor,
)
from .growth import GrowthReport, growth_profile
from .logderiv import (
    LOWER,
    UPPER,
    DirichletCoefficients,
    logderiv_coeff_numeric,
    logderiv_coeff_numeric_with_error,
    logderiv_coeffs_symbolic,
)
from .measures import (
    TestFunction,
    bump,
    contour_residue_check,
    contour_residue_report,
    fourier_measure,
    gaussian,
    poisson_check,
    poisson_report,
    transform_c,
)
from .zeros import (
    AtomicMeasure,
    Rect,
    count_zeros,
    find_zeros,
    find_zeros_report,
    zeros_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "DirichletCoefficients",
    "ExpPolynomial",
    "FactorConfig",
    "FactorOutcome",
    "FactorizationResult",
    "GrowthReport",
    "LOWER",
    "Rect",
    "SineProduct",
    "Strip",
    "TestFunction",
    "UPPER",
    "bump",
    "contour_residue_check",
    "contour_residue_report",
    "count_zeros",
    "expand_sine_product",
    "factor",
    "find_zeros",
    "find_zeros_report",
    "fourier_measure",
    "gaussian",
    "growth_profile",
    "logderiv_coeff_numeric",
    "logderiv_coeff_numeric_with_error",
    "logderiv_coeffs_symbolic",
    "multiply",
    "poisson_check",
    "poisson_report",
    "transform_c",
    "zero_strip_estimate",
    "zeros_to_csv",
]
