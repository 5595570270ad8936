"""Deterministic special functions at the precision of a PrecisionContext.

Everything here is a pure function of its arguments and a PrecisionContext:
each result is computed and rounded inside ctx.working(), whatever the
caller's ambient mpmath precision.  The Bessel functions are summed by
their power series

    J_n(z) = sum_t (-1)^t (z/2)^{n+2t} / (t! (n+t)!),
    I_n(z) = sum_t        (z/2)^{n+2t} / (t! (n+t)!),

with a geometric tail bound certifying the remainder; bessel_series sums them
in fixed point, from one table of terms for the arguments 2h/q of many q,
as integers at one scale with certified error bounds.  The upper incomplete
gamma Gamma(s, z), for integer order only, is mpmath.gammainc at the working
precision; it carries no bound of its own.  Principal branch throughout:
arg z in (-pi, pi]."""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .precision import (DEFAULT_CONTEXT, ConvergenceError, PrecisionContext, _ldexp_up,
                        _magnitudes, ensure_finite)

__all__ = ["bessel_j", "bessel_i", "bessel_series", "gamma_upper", "h_function",
           "ConvergenceError"]

# ~log2(e); the alternating J series cancels down from a peak term of size
# about e^x, so x*LOG2E extra mantissa bits restore full accuracy.
_LOG2E = 1.4426950408889634


def bessel_series(order: int, half, divisors, ctx: PrecisionContext = DEFAULT_CONTEXT,
                  signed: bool = True) -> tuple:
    """(V, E, bounds): J_order(2 half/q) (I_order if not signed) as V[i] 2^-E,
    V[i] an integer, with bounds[i] (float64) on its error, for q = divisors[i],
    integer order >= 0, real half >= 0 and integers q >= 1.

    One fixed-point table serves every q: u_0 = 2^P and
    u_t = ((u_{t-1} W) >> P) // (t (order+t)), W = round(half^2 2^P), stand
    for 2^P tau_t(half), tau_t(b) = order! b^{2t}/(t! (order+t)!).  Horner's
    S = u_t -+ S // q^2, from t = T(q) (_stop_indices) down, and the lead
    half^order/order! = m 2^x, rounded once at the ctx.working() precision
    wp, give V = floor(m S / q^order) at E = P - x.

    Rounding: tau_t(b) <= (b^t/t!)^2 <= e^{2b}, rising from tau_0 = 1, then
    falling.  A table step loses under 2 units and rounding W under 1/2, so
    |u_t - 2^P tau_t(half)| <= 2t max(1, tau_t(k)) + tau_{t-1}(k)/2 units,
    k^2 = half^2 + 2^-P/2.  Weighted by q^{-2t}, plus a unit per Horner floor:
    |S 2^-P - sum_{t<=T} (-+1)^t tau_t(half/q)| <= 2.0001 (T+1)^2 e^{2 half/q} 2^-P.
    P = mantissa_bits + 30 + 2 bit_length(max T + 1) + LOG2E 2 half/q_min (the
    last term absorbs the cancellation of the alternating J) makes that under
    2^-(mantissa_bits + 27).  The bound adds the tail reached, that times
    (half/q)^order/order!, 2^{4-wp} |V 2^-E| (the lead's rounding, and one
    more at wp in bessel_j) and the floor's 2^-E in doubles, its powers of two
    and |V| 2^-E rounded up (precision._ldexp_up), never down to 0.0.
    """
    if order < 0 or half < 0:
        raise ValueError("order and argument must be non-negative")
    if half == 0:
        return [int(order == 0)] * len(divisors), 0, np.zeros(len(divisors))
    with ctx.working():
        half, wp = mpmath.mpf(half), mpmath.mp.prec
        lead = ensure_finite(half**order / mpmath.factorial(order))._mpf_
        log_hq = float(mpmath.log(half)) - np.array([math.log(q) for q in divisors])
        guard = int(_LOG2E * float(2 * half / min(divisors)))
    # blocks of 128 q, each as wide as its own largest hq needs: small arrays at any c_max
    stops, log_tails, log_leads = map(np.concatenate, zip(*(
        _stop_indices(order, log_hq[i:i + 128], ctx) for i in range(0, len(log_hq), 128))))
    t_max = int(stops.max())
    prec = ctx.mantissa_bits + 30 + guard + 2 * (t_max + 1).bit_length()
    shift = 2 * half.exp + prec
    w = half.man**2 << shift if shift >= 0 else (half.man**2 >> (-shift - 1)) + 1 >> 1
    table = [1 << prec]
    for t in range(1, t_max + 1):
        table.append(((table[-1] * w) >> prec) // (t * (order + t)))
    sign, values = -1 if signed else 1, []
    for q, t_q in zip(divisors, stops.tolist()):
        q2, total = q * q, 0
        for t in range(t_q, -1, -1):
            total = table[t] + sign * (total // q2)
        values.append(lead[1] * total // q**order)
    scale = prec - lead[2]
    bounds = np.exp(log_tails) + np.exp(log_leads) * _ldexp_up(1.0, ctx.mantissa_bits + 27) \
        + _magnitudes(values, scale + wp - 4) + _ldexp_up(1.0, scale)
    return values, scale, bounds * (1 + 2.0**-20) + math.ulp(0.0)


def _stop_indices(order: int, log_hq: np.ndarray, ctx: PrecisionContext):
    """(T, log tail, log lead) per hq = e^{log_hq}, lead = hq^order/order!: T is
    the first t >= 1 at which r = hq^2/((t+1)(order+t+1)) < 1/2 and the tail
    term_t r/(1-r) < target_tol, bit for bit as a loop over t finds it, by
    np.add.accumulate over an (hq x t) array of the loop's steps, twice the
    ratio's t ~ sqrt(2) hq wide (doubled up to the iteration cap if short).
    The ratio and term conditions hold from a t0 on, the tail's (in math, as
    the loop) at t0 or t0 + 1: r(t0+1) < 1/2 by more than rounding."""
    tol, cap = math.log(ctx.target_tol), ctx.iteration_cap
    width = 2 * int(math.sqrt(2) * math.exp(log_hq.max())) + 32
    while True:
        width = min(cap, width)
        steps = 2 * log_hq[:, None] - np.array([math.log(t * (order + t))  # [:, t]: log r(t)
                                                for t in range(1, width + 3)])
        terms = np.add.accumulate(np.column_stack(
            [order * log_hq - math.lgamma(order + 1), steps]), axis=1)
        ok = (steps[:, 1:width + 1] < -math.log(2)) & (terms[:, 2:width + 2] < tol)
        if ok.any(axis=1).all() or width == cap:
            break
        width *= 2
    stops, found, rows = ok.argmax(axis=1) + 1, ok.any(axis=1).all(), np.arange(len(log_hq))

    def tails(t):  # in math, as the loop
        return np.array([a - math.log1p(-math.exp(r)) for a, r in
                         zip(terms[rows, t + 1].tolist(), steps[rows, t].tolist())])
    if found:
        log_tails = tails(stops)
        if (log_tails >= tol).any():
            stops = stops + (log_tails >= tol)
            log_tails = tails(stops)
    if not found or stops.max() > cap:
        raise ConvergenceError(f"Bessel series did not certify {ctx.target_tol} within "
                               f"{cap} terms; raise mantissa_bits")
    return stops, log_tails, terms[:, 0]


def bessel_j(order: int, x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Bessel J_order(x) for integer order >= 0 and real x >= 0."""
    values, scale, _bounds = bessel_series(order, mpmath.ldexp(x, -1), [1], ctx)
    with ctx.working():
        return mpmath.mpf((values[0], -scale))  # rounded once


def bessel_i(order: int, x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Modified Bessel I_order(x) for integer order >= 0 and real x >= 0."""
    values, scale, _bounds = bessel_series(order, mpmath.ldexp(x, -1), [1], ctx, False)
    with ctx.working():
        return mpmath.mpf((values[0], -scale))  # rounded once


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
