"""Direct and inverse heat-equation Cauchy solvers on the line and in
radially symmetric polar coordinates.

Truncated Hermite / radial-polynomial series with oracle-validated
constants, an independent quadrature oracle for every formula, and an
experiment harness for the regularizing behavior of series truncation on
the ill-posed backward problem.
"""

from .profiles import (
    AnalyticProfile,
    Bump,
    Gaussian,
    Mixture,
    Sampled1D,
    estimate_scale_line,
    estimate_scale_polar,
    parse_profile,
)
from .quad import AccuracyError
from .specfun import (
    KernelParams,
    bessel_i0,
    bessel_i0_scaled,
    bessel_j0,
    hermite_batch,
    scaled_polar_kernel,
    w_poly_batch,
)
from .kernels import (
    evolve_line,
    evolve_polar,
    forward_line,
    forward_polar,
)
from .variants import VARIANTS, SeriesTerms, Variant, beta_rule, default_beta
from .series_cartesian import (
    cd_coeffs,
    cd_eval,
    ci_classical,
    ci_coeffs,
    ci_eval,
    solve_grid_line,
)
from .series_polar import (
    pd_coeffs,
    pd_eval,
    pi_coeffs,
    pi_eval,
    solve_grid_polar,
)

__version__ = "0.1.0"
