"""Constant-curvature geometries behind the linear equation u'' + h u = 0.

Four metric families (hyperbolic upper half plane, two-dimensional
(anti-)de Sitter, the complex sphere of imaginary radius, and the real 4D
Kahler-Norden picture) share one coefficient function h. The package builds
their metrics and curvature, integrates geodesics in affine and explicit
form, reconstructs solution bases of the linear equation from geodesics,
and verifies the Riccati correspondences, all numerically.
"""

from .errors import GeodesyError
from .expr import Expression, Jet2, eval_jet2, parse
from .geodesics import (
    ComplexPath,
    ExplicitGeodesic,
    GeodesicState,
    GeodesicTrajectory,
    Termination,
    explicit_from_trajectory,
    geodesic_residual,
    integrate_explicit,
    integrate_geodesic,
)
from .geometry import (
    Family,
    GeometrySpec,
    christoffel_at,
    curvature_at,
    metric_at,
    sample_domain_points,
)
from .kahler_norden import (
    cauchy_riemann_residual,
    kn_christoffel_correspondence,
    kn_geodesic_split,
    kn_metric_consistency,
)
from .reconstruct import (
    SolutionBasis,
    ThetaPair,
    integrate_riccati,
    invert_to_geodesic,
    ode_residual,
    path_independence_check,
    reconstruct_basis,
    riccati_residual,
    riccati_solution_is_geodesic,
    theta_from_geodesic,
    transition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
