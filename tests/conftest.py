import numpy as np
import pytest

from geodesy import expr, geometry, geodesics

REAL_POOL = ["sin(x)+3", "x^2+2", "-1", "exp(x)"]
COMPLEX_POOL = ["z^2+1", "exp(z)"]


def make_spec(family: str, h_source: str) -> geometry.GeometrySpec:
    fam = geometry.Family.from_name(family)
    mode = "real" if fam in geometry.REAL_FAMILIES else "complex"
    return geometry.GeometrySpec(fam, expr.parse(h_source, mode))


@pytest.fixture(scope="session")
def airy_geodesic():
    """The Airy-case explicit geodesic: h(x)=x from (0, 2, 0.3).

    It blows up at x* = 0.46012344 (the first zero of the decreasing
    solution), so the cap keeps the retained support well conditioned while
    still reaching x = -0.5 on the left.
    """
    spec = make_spec("hyperbolic", "x")
    g = geodesics.integrate_explicit(spec, 0.0, 2.0, 0.3, support=(-0.5, 1.5),
                                     tol=1e-12, value_cap=6.0, max_step=0.02)
    return spec, g


@pytest.fixture(scope="session")
def airy_basis(airy_geodesic):
    from geodesy import reconstruct
    spec, g = airy_geodesic
    return spec, g, reconstruct.reconstruct_basis(spec, g, base=0.0)


@pytest.fixture(scope="session")
def harmonic_basis():
    """AdS harmonic oscillator: h = 1, Psi = 1, exact basis e^{-+ix}."""
    from geodesy import reconstruct
    spec = make_spec("ads+", "1")
    g = geodesics.integrate_explicit(spec, 0.0, 1.0, 0.0,
                                     support=(0.0, 2.0 * np.pi), tol=1e-12)
    return spec, g, reconstruct.reconstruct_basis(spec, g, base=0.0)
