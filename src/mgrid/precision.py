"""Working-precision plumbing shared by every numerical routine.

All multiprecision arithmetic goes through mpmath.  A PrecisionContext fixes
the binary mantissa size and the absolute tolerance that series truncations
must certify.  Complex results are mpmath ``mpc`` values; callers that want
machine floats can apply ``complex()``.  Long sums in src/ are exact fixed-
point integer sums rounded once (the coefficient engine and the L-series);
compensated_sum is no longer called there and stays for benchmarks/spans.py.
Their bounds and the Bessel kernel's are doubles from one round-up rule
(_ldexp_up, _scaled_up, _magnitudes) that never rounds one down to 0.0.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import from_int, mpf_cos_sin, mpf_div, mpf_mul, mpf_pi, mpf_shift

__all__ = [
    "PrecisionContext",
    "DEFAULT_CONTEXT",
    "compensated_sum",
    "ensure_finite",
    "exp2pi",
    "cos_sin_2pi",
]

# Series loops abort after ITER_CAP_FACTOR * mantissa_bits terms.
ITER_CAP_FACTOR = 10


class ConvergenceError(ArithmeticError):
    """A certified series/recurrence failed to converge within its cap."""


@dataclass(frozen=True)
class PrecisionContext:
    """Binary precision plus the absolute tolerance series must reach.

    mantissa_bits: working mantissa size in bits, at least 53.
    target_tol:    absolute truncation tolerance for series remainders.
    """

    mantissa_bits: int = 113
    target_tol: float = 1e-25

    def __post_init__(self):
        if self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be >= 53")
        if not self.target_tol > 0:
            raise ValueError("target_tol must be positive")

    @property
    def iteration_cap(self) -> int:
        return ITER_CAP_FACTOR * self.mantissa_bits

    @contextmanager
    def working(self):
        """mpmath working precision: the context's bits plus a 20-bit guard."""
        with mpmath.workprec(self.mantissa_bits + 20):
            yield


DEFAULT_CONTEXT = PrecisionContext()


def ensure_finite(z):
    """Reject NaN/Inf; results entering the public API must be finite."""
    zz = mpmath.mpc(z)
    if not (mpmath.isfinite(zz.real) and mpmath.isfinite(zz.imag)):
        raise ArithmeticError(f"non-finite value {z!r}")
    return z


def exp2pi(x) -> mpmath.mpc:
    """e^{2 pi i x} for an exact rational x (a Fraction, or anything
    Fraction() takes exactly).

    x is reduced mod 1 before evaluation so unit phases stay exact to working
    precision regardless of the size of the exponent.  A quarter turn (4x an
    integer) is exactly 1, i, -1 or -i; any other x is one cos_sin_2pi.
    """
    x = Fraction(x)
    x -= int(x)  # reduce mod 1 exactly
    if (4 * x).denominator == 1:
        return mpmath.mpc(*((1, 0), (0, 1), (-1, 0), (0, -1))[int(4 * x) % 4])
    return mp.make_mpc(cos_sin_2pi(x, mp.prec))


def cos_sin_2pi(x: Fraction, prec: int) -> tuple:
    """Raw mpfs (cos, sin) of 2 pi x at prec bits, rounded to nearest as in
    mpmath.cos_sin(2 * pi * mpf(x.numerator) / x.denominator), step by step."""
    arg = mpf_mul(mpf_shift(mpf_pi(prec, "n"), 1), from_int(x.numerator, prec, "n"), prec, "n")
    return mpf_cos_sin(mpf_div(arg, from_int(x.denominator), prec, "n"), prec, "n")


def _ldexp_up(x: float, e: int) -> float:
    """x 2^-e, x >= 0: math.ldexp, and where that rounds (below the normal
    doubles) one ulp(0.0) more, so a bound that underflows never becomes 0.0."""
    y = math.ldexp(x, -e)
    return y if math.ldexp(y, e) == x else y + math.ulp(0.0)


def _scaled_up(e: int, *ints) -> float:
    """hypot(ints) 2^-e by _ldexp_up from the ints' top 1000 bits (float overflows)."""
    cut = max(0, max(abs(v).bit_length() for v in ints) - 1000)
    return _ldexp_up(math.hypot(*(v >> cut for v in ints)), e - cut)


def _magnitudes(ints: list, e: int) -> np.ndarray:
    """|v| 2^-e per integer v as float64 (_scaled_up unless all are normal doubles)."""
    if max(map(abs, ints)).bit_length() <= 1000 and e <= 1022:
        return np.array(list(map(abs, ints)), dtype=float) * 2.0 ** -e
    return np.array([_scaled_up(e, v) for v in ints])


def compensated_sum(terms):
    """Sum of a finite sequence of real or complex terms, rounded once.

    No code in src/ calls it any more; it stays because benchmarks/spans.py
    wraps it, until the library's own run trace replaces that tracer.

    mpmath.fsum: the real and imaginary parts are each added as exact
    integer mantissas (mpmath.libmp.mpf_sum) and rounded to nearest at the
    working precision wp.  A term is lost only when its top bit lies more
    than 2 wp bits below the running sum's lowest bit, and the running sum
    only when its top bit lies more than 2 wp bits below a new term's
    lowest bit.  c-sums, whose terms decay gradually, never come near that,
    so for them the sum is exact before the one rounding.  In general each
    part of n terms t is off by at most 2^-wp |S| + n 2^(1-2wp) max |t|,
    with S its exact sum: at 53 bits, [2.0**200, 1.0, 2.0**-100,
    -2.0**200, -1.0] sums to -1.0.  When nothing is lost the result does
    not depend on the term order.  It is an mpf when no term is complex
    (an empty sequence sums to mpf 0), else an mpc.
    """
    return mpmath.fsum(terms)
