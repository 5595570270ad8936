"""Eichler integrals and period polynomials, three ways.

For a weight-(k+2) cusp form f the degree-k period polynomial r(f, gamma)
can be assembled from k+1 critical twisted L-values, evaluated directly
from the order-(k+1) primitive by series, or integrated along the contour
joining the cusps, each ray term in closed form.  The supplementary function
f* (a weakly holomorphic form with reflected principal part) mirrors the
periods of f after the constant-term correction: r^H(f) = [r^H(f*)]^- at
reflected arguments.
"""

from mgrid import (
    SAMPLE_POINTS,
    AutomorphyData,
    PrecisionContext,
    TrivialMultiplier,
    TruncationParams,
    c_weight,
    check_supplementary_identity,
    eichler_E,
    period_r,
    period_r_quadrature,
    period_rH,
    period_rN,
    poincare_series,
    sl2z,
    supplementary,
    trivial_representation,
)
from mgrid.groups import S
from mgrid.quadrature import eval_component_grid

k = 10
ctx = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
data = AutomorphyData(weight=k + 2, chi=TrivialMultiplier(),
                      rho=trivial_representation(), group=sl2z())
trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=ctx)
f = poincare_series(data, k + 2, -1, 1, range(1, 61), trunc)

print("=== r(f, S) three ways (weight 12 cusp form) ===")
r_l = period_r(f, S, k, trunc)
r_q = period_r_quadrature(f, S, k)
e = eichler_E(f, k)
ck = c_weight(k + 2)
tau = 0.1 + 0.7j
direct = ck * (eval_component_grid(e, 1, tau)
               - tau**k * eval_component_grid(e, 1, -1 / tau))[0]
print(f"  L-value assembly   at tau: {r_l(tau):.12e}")
print(f"  quadrature moments at tau: {r_q(tau):.12e}")
print(f"  series difference  at tau: {direct:.12e}")

print("\n=== r^N by quadrature and the reflection identity ===")
rn = period_rN(f, S, k)
rh = period_rH(f, S, k, trunc)
worst = max(abs(rh(t) - rn.conjugate_reflected()(t)) for t in SAMPLE_POINTS)
print(f"  max |r^H(tau) - conj(r^N(conj tau))| over samples: {worst:.2e}")

print("\n=== supplementary function and its mirrored periods ===")
fstar = supplementary([(1, -1, 1)], data, k, trunc, lmax=60)
print("  f  = P_{-1}: cusp form, leading term q^1")
print("  f* = P_{1} on the conjugate side: pole q^-1, coefficient",
      complex(fstar.coefficient(-1, 1)).real)
res = check_supplementary_identity([(1, -1, 1)], data, k, S, trunc, lmax=60)
print(f"  max residual of r^H(f) = [r^H(f*)]^- over samples: {res:.2e}")

print("\n=== the cocycle relation ===")
from mgrid import slash_poly_value
from mgrid.groups import T

prod = S * T
r_prod = period_r(f, prod, k, trunc)
r_t = period_r(f, T, k, trunc)
for tau in SAMPLE_POINTS[:2]:
    lhs = r_prod(tau)
    rhs = r_t(tau) + slash_poly_value(period_r(f, S, k, trunc), data, k, T, tau)
    print(f"  tau = {tau}: |r(ST) - r(T) - r(S)|T| = {abs(lhs - rhs):.2e}")
