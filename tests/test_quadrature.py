"""Vertical-ray integrals: the closed form against numerical integration, and
the divergent constant term."""

import mpmath
import numpy as np
import pytest

from mgrid import quadrature
from mgrid.automorphy import AutomorphyData, TrivialMultiplier, trivial_representation
from mgrid.groups import S, moebius, sl2z
from mgrid.poincare import poincare_series
from mgrid.precision import PrecisionContext
from mgrid.quadrature import vertical_poly_integral
from mgrid.series import FourierSeries, TruncationParams

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
TR = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
DATA12 = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                        rho=trivial_representation(), group=sl2z())


@pytest.mark.parametrize("coeffs", [{(0, 1): 1, (1, 1): 1}, {(0, 1): 1}],
                         ids=["with-a-decaying-term", "alone"])
def test_a_nonzero_constant_term_raises(coeffs):
    # its ray integral diverges: neither cut off at some height nor dropped
    f = FourierSeries(12, DATA12, {k: mpmath.mpc(v) for k, v in coeffs.items()})
    with pytest.raises(ValueError):
        vertical_poly_integral(f, 1, 1j, 1j, 1j, 3)


# (z0, P, R, M): the upper leg of S at t0 = 1; E^N's ray near the real axis;
# the transported lower leg of S at t0 = 2, which starts at S(i 2) = i/2
RAYS = [(1j, 1j, 1j, 4), (0.3 + 0.05j, -0.1j, -1j, 10),
        (complex(moebius(S, 2j)), -0.5j, -1j, 7)]


@pytest.mark.parametrize("ray", RAYS, ids=["upper-leg", "near-axis", "lower-leg"])
def test_closed_form_matches_numerical_integration(ray):
    # mpmath.quad over t in [0, inf) of the stored series at z0 + i t times
    # (P + R t)^M, against the closed form within its rounding bound (tails
    # set to 0: both sides use the same stored coefficients) plus quad's
    # own error estimate
    z0, P, R, M = ray
    f = poincare_series(DATA12, 12, -1, 1, range(1, 21), TR)
    F, a, tails = quadrature._component_terms(f, 1)
    value, bound = quadrature._ray(F, a, np.zeros_like(tails), z0, P, R, M)
    assert value == vertical_poly_integral(f, 1, z0, P, R, M)
    with mpmath.workdps(40):
        def integrand(t):
            z = z0 + 1j * t
            series = mpmath.fsum(c * mpmath.expjpi(2 * n * z) for (n, _j), c in f.items())
            return 1j * series * (P + R * t) ** M
        ref, quad_err = mpmath.quad(integrand, [0, 1, mpmath.inf], error=True)
        assert abs(value - ref) <= bound + quad_err
