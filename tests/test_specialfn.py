"""Special-function layer: series values against independent quadrature and
closed forms, recurrence consistency, gamma_upper against 600-bit gammainc,
results independent of the ambient precision, and the exact sum rounded
once."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mgrid.precision import PrecisionContext, compensated_sum, ConvergenceError
from mgrid.specialfn import (_stop_indices, bessel_i, bessel_j, bessel_series, gamma_upper,
                             h_function)

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)


def bessel_j_quadrature(order, x, npts=40000):
    """Fixed-step integral representation: (1/pi) int_0^pi cos(n t - x sin t) dt."""
    ts = np.linspace(0.0, math.pi, npts + 1)
    vals = np.cos(order * ts - x * np.sin(ts))
    return np.trapezoid(vals, ts) / math.pi


def bessel_i_quadrature(order, x, npts=40000):
    """(1/pi) int_0^pi e^{x cos t} cos(n t) dt."""
    ts = np.linspace(0.0, math.pi, npts + 1)
    vals = np.exp(x * np.cos(ts)) * np.cos(order * ts)
    return np.trapezoid(vals, ts) / math.pi


def test_bessel_trivial_values():
    assert bessel_j(0, 0, CTX) == 1
    assert bessel_j(1, 0, CTX) == 0
    assert bessel_i(0, 0, CTX) == 1
    assert bessel_i(2, 0, CTX) == 0


def test_bessel_frozen_values():
    assert float(bessel_j(1, 2, CTX)) == pytest.approx(0.576724807756873387, abs=1e-15)
    assert float(bessel_i(1, 1, CTX)) == pytest.approx(0.565159103992485027, abs=1e-15)


def test_bessel_against_quadrature_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        order = int(rng.integers(0, 6))
        x = float(rng.uniform(0.0, 30.0))
        assert float(bessel_j(order, x, CTX)) == pytest.approx(
            bessel_j_quadrature(order, x), abs=1e-10)
        assert float(bessel_i(order, x, CTX)) == pytest.approx(
            bessel_i_quadrature(order, x), abs=1e-10 * math.exp(x))


def test_bessel_large_argument_cancellation():
    # J at x ~ 38 loses ~55 bits to cancellation; the guard bits restore it.
    x = 4 * math.pi * math.sqrt(9.0)
    assert float(bessel_j(11, x, CTX)) == pytest.approx(
        bessel_j_quadrature(11, x, 200000), abs=1e-10)


def test_bessel_iteration_cap():
    tiny = PrecisionContext(mantissa_bits=53, target_tol=1e-10)
    with pytest.raises(ConvergenceError):
        bessel_j(0, 5000.0, tiny)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0, CTX)
    with pytest.raises(ValueError):
        bessel_i(0, -1.0, CTX)


def test_gamma_upper_exponential_case():
    for z in (0.5, 2.0, mpmath.mpc(1, 1), mpmath.mpc(-2, 0.3), -1.0):
        with mpmath.workprec(130):
            expected = mpmath.e ** -mpmath.mpc(z)
            got = gamma_upper(1, z, CTX)
            assert abs(got - expected) < 1e-30


def test_gamma_upper_frozen_values():
    g21 = gamma_upper(2, 1.0, CTX)
    assert complex(g21).real == pytest.approx(0.735758882342884643, abs=1e-15)
    assert complex(g21).imag == 0.0
    g0m1 = complex(gamma_upper(0, -1.0, CTX))
    assert g0m1.real == pytest.approx(-1.895117816355936755, abs=1e-14)
    assert g0m1.imag == pytest.approx(-math.pi, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("x", [0.25, 1.0, 4.0, 10.0])
def test_gamma_upper_closed_form(n, x):
    # Gamma(n, x) = (n-1)! e^{-x} sum_{m<n} x^m/m!
    with mpmath.workprec(130):
        xm = mpmath.mpf(x)
        expected = mpmath.factorial(n - 1) * mpmath.e**-xm \
            * sum(xm**m / mpmath.factorial(m) for m in range(n))
        got = gamma_upper(n, x, CTX)
        assert abs(got - expected) / abs(expected) < 1e-30


def test_gamma_upper_recurrence_consistency():
    rng = np.random.default_rng(7)
    with mpmath.workprec(140):
        for _ in range(25):
            s = int(rng.integers(-3, 7))
            z = mpmath.mpc(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z) < 0.1:
                z += 1
            lhs = gamma_upper(s + 1, z, CTX)
            rhs = s * gamma_upper(s, z, CTX) + z**s * mpmath.e**-z
            scale = max(1.0, float(abs(lhs)))
            assert abs(lhs - rhs) / scale < 1e-25


def test_gamma_upper_rejects_zero():
    with pytest.raises(ValueError):
        gamma_upper(2, 0, CTX)


def test_h_function_values_and_identity():
    assert float(h_function(-1.0, 0, CTX)) == pytest.approx(
        math.exp(-1), abs=1e-14)
    assert float(h_function(-0.5, 1, CTX)) == pytest.approx(
        1.213061319425266847, abs=1e-14)
    for w, k in ((-0.7, 2), (-3.0, 4), (-1.5, 0)):
        with mpmath.workprec(130):
            lhs = h_function(w, k, CTX) * mpmath.e ** mpmath.mpf(w)
            rhs = gamma_upper(k + 1, -2 * mpmath.mpf(w), CTX).real
            assert abs(lhs - rhs) / abs(rhs) < 1e-25


def test_h_function_domain():
    with pytest.raises(ValueError):
        h_function(0.0, 2, CTX)
    with pytest.raises(ValueError):
        h_function(1.0, 2, CTX)


def test_compensated_sum_basics():
    assert complex(compensated_sum([])) == 0
    assert complex(compensated_sum([1, -1])) == 0
    got = compensated_sum([1.0, 1e-30, -1.0])
    assert float(got) == pytest.approx(1e-30, rel=1e-12)
    # every term's top bit lies within 2 wp bits of the running sum's lowest
    # bit, so at 133 bits the sum is exact although it spans 300 bits
    with mpmath.workprec(133):
        got = compensated_sum([mpmath.mpc(mpmath.ldexp(1, e)) * sign
                               for e, sign in ((150, 1), (0, 1), (-150, 1),
                                               (150, -1), (0, -1))])
        assert got == mpmath.ldexp(1, -150)
    # beyond the window terms are lost, as the docstring states
    with mpmath.workprec(53):
        assert compensated_sum([2.0**200, 1.0, 2.0**-100, -2.0**200, -1.0]) == -1.0


def test_compensated_sum_mixed_complex():
    got = compensated_sum([1 + 1j, 1e-30 - 1e-30j, -1 - 1j])
    assert complex(got).real == pytest.approx(1e-30, rel=1e-12)
    assert complex(got).imag == pytest.approx(-1e-30, rel=1e-12)


def test_compensated_sum_order_fixed_chunking_free():
    rng = np.random.default_rng(3)
    xs = list(rng.standard_normal(1000) * 10.0 ** rng.integers(-12, 12, 1000))
    assert float(compensated_sum(xs)) == float(compensated_sum(list(xs)))
    assert float(compensated_sum(xs)) == pytest.approx(math.fsum(xs), rel=1e-13)
    # 1,000 mpc terms with 133-bit mantissas and exponents in +-60 span
    # 253 bits, inside the 2 wp = 266-bit window
    rng = random.Random(7)
    parts = [(rng.choice((-1, 1)) * rng.getrandbits(133), rng.randint(-60, 60) - 133)
             for _k in range(2000)]
    with mpmath.workprec(133):
        terms = [mpmath.mpc(mpmath.ldexp(*re), mpmath.ldexp(*im))
                 for re, im in zip(parts[0::2], parts[1::2])]
    exact = (sum(Fraction(m) * Fraction(2) ** e for m, e in half)
             for half in (parts[0::2], parts[1::2]))
    want = tuple(mpmath.libmp.from_rational(x.numerator, x.denominator, 133,
                                            mpmath.libmp.round_nearest) for x in exact)
    for _shuffle in range(20):
        rng.shuffle(terms)
        with mpmath.workprec(133):
            assert compensated_sum(terms)._mpc_ == want


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(mantissa_bits=52)
    with pytest.raises(ValueError):
        PrecisionContext(target_tol=0.0)


# target_tol far below the truncation the engine uses, so that the fixed-point
# rounding, not the truncation, dominates the returned bounds
TIGHT = PrecisionContext(mantissa_bits=113, target_tol=1e-40)


@pytest.mark.parametrize("ctx", [CTX, TIGHT])
@pytest.mark.parametrize("order", [0, 4, 11])
@pytest.mark.parametrize("l", [1, 10, 60])
def test_bessel_series_within_its_bound(ctx, order, l):
    # the engine's half-argument 2 pi sqrt(l) of P_{-1} at q = c = 1..80;
    # l = 60, q = 1 is J at x ~ 97, which cancels about 140 bits
    with ctx.working():
        half = 2 * mpmath.pi * mpmath.sqrt(l)
    qs = list(range(1, 81))
    for signed, ref in ((True, mpmath.besselj), (False, mpmath.besseli)):
        (values, scale, bounds), = bessel_series(order, [half], qs, ctx, signed)
        with mpmath.workprec(400):
            for q, value, bound in zip(qs, values, bounds.tolist()):
                assert abs(mpmath.ldexp(value, -scale) - ref(order, 2 * half / q)) <= bound


def _stop_index_loop(order, log_hq, ctx):
    """The stop rule as a loop over t, one step at a time: the reference for
    _stop_indices."""
    log_term, tol = order * log_hq - math.lgamma(order + 1), math.log(ctx.target_tol)
    for t in range(1, ctx.iteration_cap + 1):
        log_term += 2 * log_hq - math.log(t * (order + t))
        log_ratio = 2 * log_hq - math.log((t + 1) * (order + t + 1))
        if log_ratio < -math.log(2) and log_term + log_ratio < tol:
            log_tail = log_term + log_ratio - math.log1p(-math.exp(log_ratio))
            if log_tail < tol:
                return t, log_tail
    raise ConvergenceError("no stop")


@pytest.mark.parametrize("ctx", [CTX, TIGHT])
@pytest.mark.parametrize("order", [0, 4, 11])
@pytest.mark.parametrize("l", [1, 10, 60])
def test_stop_indices_equal_the_loop(ctx, order, l):
    # the engine's arguments 2 half/q (J and I share the rule): T and the
    # log tail bit for bit
    with ctx.working():
        log_half = float(mpmath.log(2 * mpmath.pi * mpmath.sqrt(l)))
    log_hq = log_half - np.array([math.log(q) for q in range(1, 81)])
    stops, log_tails, _log_leads = _stop_indices(order, log_hq, ctx)
    want = [_stop_index_loop(order, log_half - math.log(q), ctx) for q in range(1, 81)]
    assert list(zip(stops.tolist(), log_tails.tolist())) == want


def test_stop_indices_lead_column_owns_its_data():
    # a view of the (rows x width) step array would keep all of it alive
    # until every block of a wide call has run
    _stops, _log_tails, log_leads = _stop_indices(11, np.log(2 * math.pi * math.sqrt(10))
                                                  - np.log(np.arange(1.0, 129.0)), CTX)
    assert log_leads.flags.owndata and log_leads.base is None


def _engine_halves():
    """2 pi sqrt(|x| y) of P_{-1} on the trivial character (x = 1, y = l) and
    on eta^2 (kappa = 1/12: x = 13/12, y = l + 1/12), l = 1..10, with a zero
    half among them: 21 halves, so two batches of 16."""
    pairs = [(Fraction(1), Fraction(l)) for l in range(1, 11)] \
        + [(Fraction(13, 12), l + Fraction(1, 12)) for l in range(0, 10)]
    halves = [2 * mpmath.pi * mpmath.sqrt(mpmath.mpf((x * y).numerator) / (x * y).denominator)
              for x, y in pairs]
    return halves[:7] + [mpmath.mpf(0)] + halves[7:]


@pytest.mark.parametrize("bits", [53, 113, 200])
@pytest.mark.parametrize("order", [4, 11])
@pytest.mark.parametrize("signed", [True, False], ids=["J", "I"])
def test_one_pass_over_many_halves_equals_one_call_per_half(bits, order, signed):
    # c_max 300: more than 128 q, so each half's rows span several blocks,
    # each shared with other halves' rows; (values, scale, bounds) bit for bit
    ctx = PrecisionContext(mantissa_bits=bits, target_tol=1e-25)
    with ctx.working():
        halves = _engine_halves()
    qs = range(1, 301)
    batched = list(bessel_series(order, halves, qs, ctx, signed))
    assert len(batched) == len(halves)
    for half, (values, scale, bounds) in zip(halves, batched):
        (one_values, one_scale, one_bounds), = bessel_series(order, [half], qs, ctx, signed)
        assert values == one_values and scale == one_scale
        assert bounds.tobytes() == one_bounds.tobytes()
    values, scale, bounds = batched[7]  # the zero half: exact
    assert values == [0] * 300 and scale == 0 and not bounds.any()


@pytest.mark.parametrize("order", [0, 3, 11])
@pytest.mark.parametrize("x", [0.0, 1e-30, 0.7, 38.0, 97.3])
def test_bessel_j_and_i_are_the_one_divisor_kernel(order, x):
    half = mpmath.mpf(x) / 2
    for fn, signed, ref in ((bessel_j, True, mpmath.besselj),
                            (bessel_i, False, mpmath.besseli)):
        (values, scale, bounds), = bessel_series(order, [half], [1], TIGHT, signed)
        with TIGHT.working():
            value, bound = mpmath.mpf((values[0], -scale)), bounds[0]  # rounded once
        got = fn(order, x, TIGHT)
        assert got == value and got._mpf_ == value._mpf_  # bit for bit
        with mpmath.workprec(400):
            assert abs(got - ref(order, mpmath.mpf(x))) <= bound


@pytest.mark.parametrize("signed", [True, False], ids=["J", "I"])
def test_bessel_bounds_keep_the_lead_rounding_below_the_least_double(signed):
    # at 1,100 bits the lead's rounding 2^(4-wp) |V| 2^-E lies below the
    # least normal double (1.35e-319 for I_11 at q = 1); with target_tol
    # 1e-320 the tail does not hide it, so each bound must still cover it
    ctx = PrecisionContext(mantissa_bits=1100, target_tol=1e-320)
    with ctx.working():
        half, wp = 2 * mpmath.pi * mpmath.sqrt(12), mpmath.mp.prec
    (values, scale, bounds), = bessel_series(11, [half], [1, 2, 5], ctx, signed)
    for value, bound in zip(values, bounds.tolist()):
        assert mpmath.mpf(bound) >= mpmath.ldexp(abs(value), 4 - wp - scale)


def test_bessel_series_iteration_cap_covers_every_divisor():
    # 53 bits cap the series at 530 terms: enough for x = 2 half/q at
    # q >= 8, not at q = 1
    tiny = PrecisionContext(mantissa_bits=53, target_tol=1e-10)
    with pytest.raises(ConvergenceError):
        list(bessel_series(0, [1000], [1, 8, 16], tiny))
    (values, scale, bounds), = bessel_series(0, [1000], [8, 16], tiny)
    with mpmath.workprec(200):
        for q, value, bound in zip([8, 16], values, bounds.tolist()):
            assert abs(mpmath.ldexp(value, -scale) - mpmath.besselj(0, mpmath.mpf(2000) / q)) \
                <= bound


def _bits(x):
    """The exact binary value of an mpf or mpc, for bit-for-bit comparisons."""
    return x._mpc_ if isinstance(x, mpmath.mpc) else x._mpf_


def _every_entry_point():
    (values, scale, bounds), = bessel_series(4, [7 / 3], [1, 2, 5], CTX)
    return [_bits(bessel_j(3, 7.5, CTX)), _bits(bessel_i(2, 7.5, CTX)),
            (values, scale, bounds.tolist()),
            _bits(gamma_upper(3, mpmath.mpf(3), CTX)),
            _bits(gamma_upper(0, -1.0, CTX)),
            _bits(gamma_upper(-2, mpmath.mpc(1.5, -2.5), CTX)),
            _bits(h_function(-1.3, 4, CTX))]


def test_results_do_not_depend_on_the_ambient_precision():
    # the same inputs at the ambient 53 bits and at 400 bits
    with mpmath.workprec(53):
        low = _every_entry_point()
    with mpmath.workprec(400):
        high = _every_entry_point()
    assert low == high


# (s, z) from s = -6..12 and z positive real, negative real down to -500 and
# complex with |z| <= 16
GAMMA_CASES = (
    [(s, mpmath.mpf(x)) for s, x in ((-6, 0.25), (-3, 1), (0, 0.5), (0, 8), (0, 30),
                                     (1, 2), (2, 0.125), (5, 10), (8, 40), (12, 1),
                                     (12, 20), (-1, 100), (3, 500), (6, 1e-3))]
    + [(s, mpmath.mpf(x)) for s, x in ((0, -1), (0, -500), (-6, -3), (-2, -20),
                                       (-1, -0.5), (1, -4), (4, -8), (7, -60),
                                       (12, -2), (3, -150), (-4, -250), (10, -500))]
    + [(s, mpmath.mpc(re, im)) for s, re, im in (
        (-6, 1, 1), (-5, -2, 0.3), (-4, 0.5, -3), (-3, -8, 8), (-2, 3, -11),
        (-1, -6, -6), (0, 0.1, 0.1), (0, -15, 4), (0, 7, -7), (1, -5, 2),
        (2, 12, 9), (2, -0.75, -0.25), (3, 0, 16), (4, -10, -12), (5, 2, 2),
        (6, -3, 0.5), (7, 11, -3), (8, -1, 15), (9, 4, -4), (10, -9, 9),
        (11, 0.3, -0.6), (12, -12, -5), (12, 8, 13), (-3, 0, -2))])


def test_gamma_upper_against_600_bit_gammainc():
    for s, z in GAMMA_CASES:
        got = gamma_upper(s, z, CTX)
        with mpmath.workprec(600):
            ref = mpmath.gammainc(s, z)
            assert abs(got - ref) <= 2.0 ** -CTX.mantissa_bits * abs(ref), (s, z)
