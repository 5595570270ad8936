"""Property tests of the Kloosterman layers S(m, n; c) of the trivial
character at both layer precisions: symmetry in (m, n) and the Weil bound
|S(m, n; c)| <= tau(c) gcd(m, n, c)^{1/2} c^{1/2} (Weil, PNAS 34 (1948);
Iwaniec-Kowalski, Analytic Number Theory, ch. 11).  Also Dedekind
reciprocity (Rademacher-Grosswald, Dedekind Sums, ch. 2) and the
recurrence Gamma(s+1, z) = s Gamma(s, z) + z^s e^{-z} (DLMF 8.8.2) of the
upper incomplete gamma, and the recurrences J_{n-1} + J_{n+1} = (2n/x) J_n,
I_{n-1} - I_{n+1} = (2n/x) I_n (DLMF 10.6.1, 10.29.1) of the fixed-point
Bessel kernel within its returned bounds."""

import math
from fractions import Fraction

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mgrid.automorphy import (
    AutomorphyData,
    TrivialMultiplier,
    dedekind_sum,
    trivial_representation,
)
from mgrid.groups import sl2z
from mgrid.poincare import kloosterman_layer
from mgrid.precision import PrecisionContext
from mgrid.specialfn import bessel_series, gamma_upper

DATA = AutomorphyData(weight=4, chi=TrivialMultiplier(),
                      rho=trivial_representation(), group=sl2z())

# fixed examples, no example database: the tier-1 run stays deterministic
SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
MODULI = st.integers(min_value=1, max_value=200)
INDICES = st.integers(min_value=-10**6, max_value=10**6)
BITS = st.sampled_from([53, 113])


def _layer_error(c, bits):
    """A rounding bound of one layer over at most c elements.  In float64 it
    is the tighter c 2^-50, which these boxes (c <= 200) meet; the
    documented bound is c (c + 28) 2^-53 (poincare._layer_error)."""
    if bits <= 53:
        return c * 2.0 ** -50
    return c * (2 * math.isqrt(c) + 3) * 2.0 ** -(bits + 16 + c.bit_length())


def _kloosterman(m, n, c, bits):
    return complex(kloosterman_layer(DATA, c, Fraction(m), Fraction(n), bits=bits))


@SETTINGS
@given(m=INDICES, n=INDICES, c=MODULI, bits=BITS)
def test_kloosterman_symmetry(m, n, c, bits):
    diff = abs(_kloosterman(m, n, c, bits) - _kloosterman(n, m, c, bits))
    assert diff <= 2 * _layer_error(c, bits)


@SETTINGS
@given(m=INDICES, n=INDICES, c=MODULI, bits=BITS)
def test_kloosterman_weil_bound(m, n, c, bits):
    tau = sum(1 for d in range(1, c + 1) if c % d == 0)
    weil = tau * math.sqrt(math.gcd(m, n, c)) * math.sqrt(c)
    assert abs(_kloosterman(m, n, c, bits)) <= weil + _layer_error(c, bits)


@SETTINGS
@given(h=st.integers(min_value=1, max_value=10**15),
       k=st.integers(min_value=1, max_value=10**15))
# k on both sides of 2^21, where dedekind_sum leaves int64 for Python ints
@example(h=1_000_003, k=2**21 - 1)
@example(h=1_000_003, k=2**21 + 1)
def test_dedekind_reciprocity(h, k):
    assume(math.gcd(h, k) == 1)
    rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
    assert dedekind_sum(h, k) + dedekind_sum(k, h) == rhs


CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
# |z| below and above 8
RADII = st.one_of(st.floats(min_value=0.5, max_value=7.9),
                  st.floats(min_value=8.1, max_value=16.0))
# arg z away from the negative real axis (the branch cut)
ARGS = st.floats(min_value=-0.9 * math.pi, max_value=0.9 * math.pi)


@SETTINGS
@given(s=st.integers(min_value=-6, max_value=6), r=RADII, theta=ARGS)
def test_gamma_upper_recurrence(s, r, theta):
    with CTX.working():
        z = mpmath.mpc(r * math.cos(theta), r * math.sin(theta))
        lhs = gamma_upper(s + 1, z, CTX)
        g = gamma_upper(s, z, CTX)
        zs = z ** s * mpmath.exp(-z)
        diff = abs(lhs - s * g - zs)
        size = abs(lhs) + abs(s * g) + abs(zs)
    assert diff <= 2.0 ** -CTX.mantissa_bits * size


# a tolerance far below the engine's, so that rounding dominates the bounds
BESSEL_CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-40)


@SETTINGS
@given(n=st.integers(min_value=1, max_value=12),
       half=st.floats(min_value=0.01, max_value=50.0),
       q=st.integers(min_value=1, max_value=8))
def test_bessel_recurrences(n, half, q):
    # J and I at x = 2 half/q, each order from one multi-divisor kernel call
    for signed, sign in ((True, 1), (False, -1)):
        (lo, b_lo), (mid, b_mid), (hi, b_hi) = (
            (mpmath.ldexp(values[1], -scale), bounds[1]) for values, scale, bounds in
            (bessel_series(order, half, [1, q], BESSEL_CTX, signed) for order in (n - 1, n, n + 1)))
        with mpmath.workprec(300):
            ratio = 2 * n * q / (2 * mpmath.mpf(half))
            residual = abs(lo + sign * hi - ratio * mid)
            assert residual <= b_lo + b_hi + ratio * b_mid
