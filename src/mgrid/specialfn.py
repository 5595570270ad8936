"""Deterministic special functions at the precision of a PrecisionContext.

Everything here is a pure function of its arguments and a PrecisionContext:
each result is computed and rounded inside ctx.working(), whatever the
caller's ambient mpmath precision.  The Bessel functions are summed by
their power series

    J_n(z) = sum_t (-1)^t (z/2)^{n+2t} / (t! (n+t)!),
    I_n(z) = sum_t        (z/2)^{n+2t} / (t! (n+t)!),

with a geometric tail bound certifying the remainder; bessel_series sums them
in fixed point, from one table of terms for the arguments 2h/q of many q,
and returns a certified error bound with each value.  The upper incomplete
gamma Gamma(s, z), for integer order only, is mpmath.gammainc at the working
precision; it carries no bound of its own.  Principal branch throughout:
arg z in (-pi, pi]."""

from __future__ import annotations

import math

import mpmath
from mpmath.libmp import from_int, mpf_abs, mpf_div, mpf_mul, mpf_shift, round_nearest, to_float

from .precision import (
    DEFAULT_CONTEXT,
    ConvergenceError,
    PrecisionContext,
    ensure_finite,
)

__all__ = ["bessel_j", "bessel_i", "bessel_series", "gamma_upper", "h_function",
           "ConvergenceError"]

# ~log2(e); the alternating J series cancels down from a peak term of size
# about e^x, so x*LOG2E extra mantissa bits restore full accuracy.
_LOG2E = 1.4426950408889634


def bessel_series(order: int, half, divisors, ctx: PrecisionContext = DEFAULT_CONTEXT,
                  signed: bool = True) -> list:
    """[(J_order(2 half/q), error bound) for q in divisors] (I_order if not
    signed) for integer order >= 0, real half >= 0 and integers q >= 1.

    One fixed-point table serves every q: u_0 = 2^P and
    u_t = ((u_{t-1} W) >> P) // (t (order+t)), W = round(half^2 2^P), stand
    for 2^P tau_t(half), tau_t(b) = order! b^{2t}/(t! (order+t)!).  Horner's
    S = u_t -+ S // q^2, from t = T(q) down, gives the value
    (half/q)^order/order! S 2^-P at the ctx.working() precision wp.  All T(q)
    read one table of log(t (order+t)) (_stop_index); each q's scale
    lead/q^order, value and bound are mpmath.libmp operations on raw tuples.

    Rounding: tau_t(b) <= (b^t/t!)^2 <= e^{2b}, rising from tau_0 = 1, then
    falling.  A table step loses under 2 units and rounding W under 1/2, so
    |u_t - 2^P tau_t(half)| <= 2t max(1, tau_t(k)) + tau_{t-1}(k)/2 units,
    k^2 = half^2 + 2^-P/2.  Weighted by q^{-2t}, plus a unit per Horner floor:
    |S 2^-P - sum_{t<=T} (-+1)^t tau_t(half/q)| <= 2.0001 (T+1)^2 e^{2 half/q} 2^-P.
    P = mantissa_bits + 30 + 2 bit_length(max T + 1) + LOG2E 2 half/q_min (the
    last term absorbs the cancellation of the alternating J) makes that under
    2^-(mantissa_bits + 27).  The bound adds the tail reached, that times
    (half/q)^order/order!, 2^{4-wp} |value| (the product), rounded up in doubles.
    """
    if order < 0 or half < 0:
        raise ValueError("order and argument must be non-negative")
    if half == 0:
        return [(mpmath.mpf(1 if order == 0 else 0), 0.0) for _q in divisors]
    with ctx.working():
        half, wp, logs = mpmath.mpf(half), mpmath.mp.prec, [0.0, math.log(order + 1)]
        log_half = float(mpmath.log(half))
        stops = [_stop_index(order, log_half - math.log(q), ctx, logs) for q in divisors]
        t_max = max(t for t, _tail in stops)
        guard = int(_LOG2E * float(2 * half / min(divisors)))
        prec = ctx.mantissa_bits + 30 + guard + 2 * (t_max + 1).bit_length()
        shift = 2 * half.exp + prec
        w = half.man**2 << shift if shift >= 0 else (half.man**2 >> (-shift - 1)) + 1 >> 1
        table = [1 << prec]
        for t in range(1, t_max + 1):
            table.append(((table[-1] * w) >> prec) // (t * (order + t)))
        sign, out = -1 if signed else 1, []
        lead = ensure_finite(half**order / mpmath.factorial(order))._mpf_
        for q, (t_q, log_tail) in zip(divisors, stops):
            q2, total = q * q, 0
            for t in range(t_q, -1, -1):
                total = table[t] + sign * (total // q2)
            scale = mpf_div(lead, from_int(q**order), wp, round_nearest)
            value = mpf_mul(scale, mpf_shift(from_int(total), -prec), wp, round_nearest)
            bound = math.exp(log_tail) \
                + to_float(scale, rnd=round_nearest) * 2.0 ** -(ctx.mantissa_bits + 27) \
                + to_float(mpf_abs(value), rnd=round_nearest) * 2.0 ** (4 - wp)
            out.append((mpmath.mp.make_mpf(value), bound * (1 + 2.0**-20) + math.ulp(0.0)))
    return out


def _stop_index(order: int, log_hq: float, ctx: PrecisionContext, logs: list):
    """(T, log tail): the first t >= 1 at which r = hq^2/((t+1)(order+t+1)), with
    hq = e^{log_hq}, is below 1/2 and the tail term_t r/(1-r) below target_tol.
    logs[t] = log(t (order+t)) is one table for every hq of a call, grown here."""
    log_term, tol = order * log_hq - math.lgamma(order + 1), math.log(ctx.target_tol)
    for t in range(1, ctx.iteration_cap + 1):
        if len(logs) == t + 1:
            logs.append(math.log((t + 1) * (order + t + 1)))
        log_term += 2 * log_hq - logs[t]
        log_ratio = 2 * log_hq - logs[t + 1]
        # log1p(-e^r) <= 0, so the tail is below tol only if log_term + r is
        if log_ratio < -math.log(2) and log_term + log_ratio < tol:
            log_tail = log_term + log_ratio - math.log1p(-math.exp(log_ratio))
            if log_tail < tol:
                return t, log_tail
    raise ConvergenceError(f"Bessel series did not certify {ctx.target_tol} within "
                           f"{ctx.iteration_cap} terms; raise mantissa_bits")


def bessel_j(order: int, x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Bessel J_order(x) for integer order >= 0 and real x >= 0."""
    return bessel_series(order, mpmath.ldexp(x, -1), [1], ctx)[0][0]


def bessel_i(order: int, x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Modified Bessel I_order(x) for integer order >= 0 and real x >= 0."""
    return bessel_series(order, mpmath.ldexp(x, -1), [1], ctx, signed=False)[0][0]


def gamma_upper(s: int, z, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Upper incomplete gamma Gamma(s, z) for integer s and complex z != 0.

    mpmath.gammainc at the ctx.working() precision, rounded there to an mpc.
    Principal branch, arg z in (-pi, pi]; a negative real z is accepted and
    evaluated on the upper side of the cut (Log(-x) = log x + i pi).  The
    imaginary part is exactly 0 for real z > 0.
    """
    if s != int(s):
        raise ValueError("gamma_upper is implemented for integer s only")
    if z == 0:
        raise ValueError("z must be nonzero")
    with ctx.working():
        g = mpmath.gammainc(int(s), z)
        if mpmath.im(z) == 0 and mpmath.re(z) > 0:
            g = mpmath.re(g)
        return ensure_finite(mpmath.mpc(+g))


def h_function(w, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """e^{-w} Gamma(k+1, -2w) for real w < 0: the weight -k Whittaker factor.

    This is the special function multiplying the negative-frequency Fourier
    terms of the non-holomorphic part of a weight -k harmonic form.
    """
    if not w < 0:
        raise ValueError("h_function is defined for w < 0 only")
    if k < 0:
        raise ValueError("k must be >= 0")
    with ctx.working():
        g = gamma_upper(k + 1, -2 * mpmath.mpf(w), ctx)
        return ensure_finite(mpmath.exp(-mpmath.mpf(w)) * g.real)
