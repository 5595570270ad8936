"""Regularized twisted L-values of weakly holomorphic cusp forms.

The completed value L* is a pair of incomplete-gamma-weighted coefficient
sums split at an arbitrary height t0; the finitely many exponentially
growing terms of a weakly holomorphic form enter through incomplete gammas
at negative argument, which is exactly the regularization.  The value is
independent of t0, and for genuine cusp forms it agrees with the contour
integral, each ray term evaluated in closed form.
"""

from mgrid import (
    AutomorphyData,
    PrecisionContext,
    TrivialMultiplier,
    TruncationParams,
    TwistSpec,
    lvalue_integral,
    lvalue_series,
    poincare_series,
    sl2z,
    supplementary,
    trivial_representation,
)
from mgrid.groups import S

ctx = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
data = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                      rho=trivial_representation(), group=sl2z())
trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=ctx)
f = poincare_series(data, 12, -1, 1, range(1, 61), trunc)
tw = TwistSpec.from_element(S)

print("=== critical values, weight-12 cusp form, untwisted (gamma = S) ===")
print(f"{'s':>3} {'series':>24} {'integral':>24} {'rel dev':>10}")
for s in range(1, 12):
    ls = complex(lvalue_series(f, tw, s, t0=1.0, trunc=trunc).value)
    li = complex(lvalue_integral(f, tw, s, t0=1.0).value)
    print(f"{s:>3} {ls.real:>24.14f} {li.real:>24.14f} "
          f"{abs(ls - li) / abs(li):>10.1e}")

print("\n=== independence of the split height t0 ===")
for t0 in (0.5, 1.0, 2.0):
    v = complex(lvalue_series(f, tw, 6, t0=t0, trunc=trunc).value)
    print(f"  t0 = {t0:>4}: L(6) = {v.real:.16f}")

print("\n=== a weakly holomorphic form: regularization at work ===")
fstar = supplementary([(1, -1, 1)], data, 10, trunc, lmax=60)
print("principal part of f*:", fstar.principal_support())
for t0 in (0.5, 1.0, 2.0):
    v = complex(lvalue_series(fstar, tw, 6, t0=t0, trunc=trunc).value)
    print(f"  t0 = {t0:>4}: L(f*, 6) = {v.real:.12f}  "
          "(negative-argument gammas carry the growth)")
