"""Generalised Cesaro limits for divergent series and integrals.

The package assigns finite values to power/power-log divergent series,
sequences, and integrals by annihilating the divergent part with regular
averaging-operator polynomials and reading off the remaining constant.
On top of that core it provides a constructive continuation of the zeta
and eta functions, discrete-framework anomaly correction, and cutoff
regularization of integrals with per-endpoint divergence bookkeeping.
"""

from .asymptotics import (AsymptoticExpansion, ExpansionTerm, bernoulli,
                          invert_to_x_expansion, synthesize_annihilator,
                          zeta_psum_expansion)
from .climits import (CesaroResult, cesaro_limit, cesaro_limit_discrete,
                      classical_limit, clim_k_alpha, clim_x_alpha,
                      strong_cesaro_limit)
from .config import DEFAULT_CONFIG, LAMBDA_EPS, LimitConfig
from .errors import (CesaroError, CrossCheckMismatchError, FitFailureError,
                     IllegalCancellationError, LambdaIsOneError,
                     NotConvergentError, PoleSignal, QuadratureError,
                     SAtPoleError, is_pole)
from .integrals import (DomainSpec, RegularizedIntegral, SingularPoint,
                        cesaro_integral, fit_endpoint_expansion,
                        mellin_1_over_1px)
from .operators import (MeasureScheme, RegularPolynomial, apply_P, apply_P_D,
                        apply_P_D_inverse, apply_P_mu,
                        apply_regular_polynomial, build_regular_polynomial)
from .seqfun import (PiecewiseFn, SeriesTerms, alt_naturals, alt_ones,
                     n_pow_minus_s, naturals, ones, psum_function, zero_padded)
from .zeta import (FaulhaberPoly, ZetaEvaluation, discrete_eigensequence,
                   eta, faulhaber, zeta, zeta_discrete_corrected,
                   zeta_discrete_ext, zeta_integral_rep, zeta_residue_at_1)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticExpansion", "ExpansionTerm", "bernoulli",
    "invert_to_x_expansion", "synthesize_annihilator", "zeta_psum_expansion",
    "CesaroResult", "cesaro_limit", "cesaro_limit_discrete",
    "classical_limit", "clim_k_alpha", "clim_x_alpha", "strong_cesaro_limit",
    "DEFAULT_CONFIG", "LAMBDA_EPS", "LimitConfig",
    "CesaroError", "CrossCheckMismatchError", "FitFailureError",
    "IllegalCancellationError", "LambdaIsOneError", "NotConvergentError",
    "PoleSignal", "QuadratureError", "SAtPoleError", "is_pole",
    "DomainSpec", "RegularizedIntegral", "SingularPoint", "cesaro_integral",
    "fit_endpoint_expansion", "mellin_1_over_1px",
    "MeasureScheme", "RegularPolynomial", "apply_P", "apply_P_D",
    "apply_P_D_inverse", "apply_P_mu", "apply_regular_polynomial",
    "build_regular_polynomial",
    "PiecewiseFn", "SeriesTerms", "alt_naturals", "alt_ones",
    "n_pow_minus_s", "naturals", "ones", "psum_function", "zero_padded",
    "FaulhaberPoly", "ZetaEvaluation", "discrete_eigensequence", "eta",
    "faulhaber", "zeta", "zeta_discrete_corrected", "zeta_discrete_ext",
    "zeta_integral_rep", "zeta_residue_at_1",
    "__version__",
]
