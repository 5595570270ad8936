"""Twisted L-values: t0 invariance, series vs integral representation,
Petersson unfolding symmetry, and the period-pairing fit."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    TrivialMultiplier,
    trivial_representation,
)
import mgrid.lfun as lfun
from mgrid.cli import main
from mgrid.eichler import period_r, period_rH, supplementary
from mgrid.groups import S, T, GroupElement, sl2z
from mgrid.lfun import (
    TwistSpec,
    fit_pairing,
    lvalue_integral,
    lvalue_series,
    petersson_poincare,
    predict_gram,
)
from mgrid.poincare import poincare_series
from mgrid.precision import PrecisionContext, exp2pi
from mgrid.series import FourierSeries, TruncationParams

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
TR = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
DATA12 = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                        rho=trivial_representation(), group=sl2z())
TWIST_S = TwistSpec.from_element(S)


@pytest.fixture(scope="module")
def delta_like():
    return poincare_series(DATA12, 12, -1, 1, range(1, 61), TR)


def test_twist_requires_nonzero_c():
    with pytest.raises(ValueError):
        TwistSpec.from_element(T)
    tw = TwistSpec.from_element(GroupElement(0, 1, -1, 0))
    assert tw.gamma.c > 0  # normalized to positive c


def test_lvalue_zero_form():
    zero = FourierSeries(12, DATA12, coeffs={}, truncation=TR)
    lv = lvalue_series(zero, TWIST_S, 4, trunc=TR)
    assert complex(lv.value) == 0


def test_twist_rejects_a_cusp_width_other_than_1():
    # every formula is for Gamma_0(N), of cusp width 1; a twist of another
    # width would give no L-value
    with pytest.raises(ValueError, match="lambda"):
        TwistSpec.from_element(GroupElement(1, 1, 2, 3), 2)
    assert TwistSpec.from_element(GroupElement(1, 1, 2, 3), 1) \
        == TwistSpec.from_element(GroupElement(1, 1, 2, 3))


def test_lvalue_rejects_constant_term():
    bad = FourierSeries(12, DATA12, coeffs={(0, 1): mpmath.mpc(1)},
                        truncation=TR)
    with pytest.raises(ValueError):
        lvalue_series(bad, TWIST_S, 3, trunc=TR)


def test_lvalue_t0_invariance(delta_like):
    for s in (1, 5, 11):
        vals = [complex(lvalue_series(delta_like, TWIST_S, s, t0=t, trunc=TR).value)
                for t in (0.5, 1.0, 2.0)]
        scale = max(abs(vals[0]), 1e-30)
        assert max(abs(v - vals[0]) for v in vals) / scale < 1e-8


def test_lvalue_series_vs_integral(delta_like):
    for s in range(1, 12):
        ls = lvalue_series(delta_like, TWIST_S, s, t0=1.0, trunc=TR)
        li = lvalue_integral(delta_like, TWIST_S, s, t0=1.0)
        rel = abs(complex(ls.value - li.value)) / abs(complex(li.value))
        assert rel < 1e-6


def test_lvalue_integral_path_split_invariance(delta_like):
    a = complex(lvalue_integral(delta_like, TWIST_S, 6, t0=1.0).value)
    b = complex(lvalue_integral(delta_like, TWIST_S, 6, t0=2.0).value)
    assert abs(a - b) < 1e-9 * abs(a)


def _closed_form_lstar(f, s, prec=200):
    """L*(f, S, s) = i^-s (upper leg - lower leg) at t0 = 1, every ray term
    i a e^{2 pi i n z0} sum_j binom(M, j) P^{M-j} R^j j! / (2 pi n)^{j+1}
    evaluated at prec bits: the upper leg from z0 = i with P = R = i and
    M = s - 1, the lower leg (S i = i) with P = R = -i and M = 11 - s."""
    with mpmath.workprec(prec):
        def leg(P, R, M):
            return mpmath.fsum(
                1j * a * mpmath.exp(-2 * mpmath.pi * n)
                * mpmath.fsum(mpmath.binomial(M, j) * P ** (M - j) * R ** j
                              * mpmath.factorial(j) / (2 * mpmath.pi * n) ** (j + 1)
                              for j in range(M + 1))
                for (n, _j), a in f.items())
        return (-1j) ** s * (leg(1j, 1j, s - 1) - leg(-1j, -1j, 11 - s))


def test_lvalue_integral_err_covers_rounding_and_tails(delta_like):
    # err is the closed forms' float64 rounding plus the stored tails carried
    # through each term.  The first covers the move to a 200-bit evaluation
    # of the same coefficients (c_max 60, tails below the rounding); the
    # second the move from c_max 12 coefficients to c_max 60 ones (l <= 20,
    # where the c_max 12 tails are finite and dominate)
    fine, coarse = (poincare_series(DATA12, 12, -1, 1, range(1, 21),
                                    TruncationParams(c_max=cm, tail_tol=1.0, ctx=CTX))
                    for cm in (60, 12))
    for s in range(1, 12):
        lv, ref = lvalue_integral(delta_like, TWIST_S, s), _closed_form_lstar(delta_like, s)
        near, far = lvalue_integral(fine, TWIST_S, s), lvalue_integral(coarse, TWIST_S, s)
        ref20 = _closed_form_lstar(fine, s)
        with mpmath.workprec(200):
            assert abs(lv.lstar - ref) <= lv.err
            assert abs(far.lstar - ref20) <= far.err + near.err
    # an infinite tail on a term whose size underflows (l = 130)
    wide = poincare_series(DATA12, 12, -1, 1, range(1, 131),
                           TruncationParams(c_max=12, tail_tol=1.0, ctx=CTX))
    wide.tails[(130, 1)] = math.inf
    assert lvalue_integral(wide, TWIST_S, 3).err == float("inf")


def test_lvalue_integral_err_is_nonnegative_for_a_negative_c_twist(delta_like):
    # TwistSpec(gamma) keeps c < 0 (only from_element flips the sign): the
    # value is the c > 0 twist's, and the lower leg's factor c^-m enters the
    # bound as |c|^-m, so err stays >= 0 at odd m = s - 1
    minus = TwistSpec(GroupElement(-1, -1, -2, -3))
    plus = TwistSpec.from_element(GroupElement(-1, -1, -2, -3))
    assert minus.gamma.c < 0 < plus.gamma.c
    for s in (5, 6, 7):
        neg, pos = lvalue_integral(delta_like, minus, s), lvalue_integral(delta_like, plus, s)
        assert neg.err >= 0 and neg.value == pos.value


def test_lvalue_integral_rejects_weakly_holomorphic():
    wh = poincare_series(DATA12, 12, 1, 1, range(1, 5), TR)
    with pytest.raises(ValueError):
        lvalue_integral(wh, TWIST_S, 3)


def test_lvalue_series_handles_weakly_holomorphic(delta_like):
    # principal-part terms ride on incomplete gammas at negative argument;
    # the split-height independence is a sharp cancellation test: at
    # t0 = 1/2 the regularized terms reach ~1e6 and cancel to ~1e-3, so it
    # only holds if the coefficients keep full working precision end to end
    fstar = supplementary([(1, -1, 1)], DATA12, 10, TR, lmax=60)
    vals = [complex(lvalue_series(fstar, TWIST_S, 6, t0=t0, trunc=TR).value)
            for t0 in (0.5, 1.0, 2.0)]
    assert all(np.isfinite(v.real) for v in vals)
    spread = max(abs(v - vals[0]) for v in vals)
    assert spread <= 1e-13 * max(1.0, abs(vals[0]))


def test_petersson_zero_and_linearity(delta_like):
    zero = FourierSeries(12, DATA12, coeffs={(1, 1): mpmath.mpc(0)},
                         truncation=TR)
    assert complex(petersson_poincare(zero, -1, 1, DATA12, 10)) == 0
    g2 = FourierSeries(12, DATA12, {idx: 2 * v for idx, v in delta_like.coeffs.items()},
                       truncation=TR)
    a = complex(petersson_poincare(delta_like, -1, 1, DATA12, 10))
    b = complex(petersson_poincare(g2, -1, 1, DATA12, 10))
    assert b == pytest.approx(2 * a, rel=1e-12)
    with pytest.raises(ValueError):
        petersson_poincare(delta_like, 1, 1, DATA12, 10)  # not a cusp direction
    with pytest.raises(ValueError):
        petersson_poincare(delta_like, -99, 1, DATA12, 10)  # missing coefficient


def test_petersson_hermitian_symmetry():
    # c_{n1}(-n2) (-n2+kappa)^{-(k+1)} = conj(c_{n2}(-n1)) (-n1+kappa)^{-(k+1)}
    p1 = poincare_series(DATA12, 12, -1, 1, range(1, 4), TR)
    p2 = poincare_series(DATA12, 12, -2, 1, range(1, 4), TR)
    lhs = complex(p1.coefficient(2, 1)) * 2.0 ** -11
    rhs = complex(p2.coefficient(1, 1)).conjugate() * 1.0 ** -11
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-6


def test_fit_pairing_dim1_interpolation_and_heldout():
    pm = fit_pairing([(-1, 1)], DATA12, 10, TR, lmax=60)
    assert pm.residual < 1e-20
    assert pm.rank == 1
    fs1 = supplementary([(1, -1, 1)], DATA12, 10, TR, lmax=60)
    fs2 = supplementary([(1, -2, 1)], DATA12, 10, TR, lmax=60)
    rh1 = [period_rH(fs1, g, 10, TR) for g in pm.gens]
    rh2 = [period_rH(fs2, g, 10, TR) for g in pm.gens]
    pred = predict_gram(pm, rh1, rh2)
    p1 = poincare_series(DATA12, 12, -1, 1, range(1, 4), TR)
    truth = complex(petersson_poincare(p1, -2, 1, DATA12, 10))
    assert abs(pred - truth) / abs(truth) < 1e-4
    # training entry is reproduced by construction
    rh11 = predict_gram(pm, rh1, rh1)
    t11 = complex(petersson_poincare(p1, -1, 1, DATA12, 10))
    assert abs(rh11 - t11) / abs(t11) < 1e-10


def test_fit_pairing_gram_targets_do_not_depend_on_lmax(monkeypatch):
    # the targets read a_{n_i}(-n_j) at l = 3 > lmax = 2: each equals the
    # unfolding of a series built at l = 1..3, and a one-element fit
    # reproduces it (at lmax-built targets a(3) was absent, or the 1 alone)
    from mgrid import lfun

    tr = TruncationParams(c_max=20, tail_tol=1.0, ctx=CTX)
    targets, unfold = [], lfun.petersson_poincare

    def recorded(*args):
        targets.append(unfold(*args))
        return targets[-1]

    monkeypatch.setattr(lfun, "petersson_poincare", recorded)
    for basis in ([(-1, 1), (-3, 1)], [(-3, 1)]):
        targets.clear()
        pm = fit_pairing(basis, DATA12, 10, tr, lmax=2)
        assert targets == [unfold(poincare_series(DATA12, 12, n_i, 1, range(1, 4), tr),
                                  n_j, 1, DATA12, 10)
                           for n_i, _a in basis for n_j, _b in basis]
    rh = [period_rH(supplementary([(1, -3, 1)], DATA12, 10, tr, lmax=2), g, 10, tr)
          for g in pm.gens]
    assert abs(predict_gram(pm, rh, rh) - complex(targets[0])) <= 1e-12 * abs(targets[0])


def test_fit_pairing_residual_is_relative_to_the_gram_targets():
    # at c_max 20 and lmax 2 the Gram targets of P_{-1}, P_{-3} have norm
    # ~8e-6 and the fit reproduces none of them: relative residual ~1, though
    # the absolute one is as small as the targets; one element still fits.
    # An empty basis is a ValueError of its own, not numpy's LinAlgError
    tr = TruncationParams(c_max=20, tail_tol=1.0, ctx=CTX)
    assert fit_pairing([(-1, 1), (-3, 1)], DATA12, 10, tr, lmax=2).residual > 0.99
    assert fit_pairing([(-1, 1)], DATA12, 10, tr, lmax=2).residual < 1e-12
    with pytest.raises(ValueError, match="nonempty basis"):
        fit_pairing([], DATA12, 10, tr)


def test_fit_pairing_rejects_non_cusp_basis():
    with pytest.raises(ValueError):
        fit_pairing([(1, 1)], DATA12, 10, TR)


def test_predict_gram_zero_input():
    pm = fit_pairing([(-1, 1)], DATA12, 10, TR, lmax=40)
    from mgrid.eichler import PeriodPolynomial
    zero = [PeriodPolynomial(S, 10, np.zeros(11, dtype=complex), 0.0)]
    assert predict_gram(pm, zero, zero) == 0


def test_lvalue_err_field_reported(delta_like):
    lv = lvalue_series(delta_like, TWIST_S, 6, trunc=TR)
    assert lv.err < 1e-8
    assert lv.method == "series"
    assert lv.s == 6


def test_fit_pairing_eta_multiplier_pure_L_branch():
    # kappa = 1/12 > 0: the constant-term corrections vanish identically and
    # the prediction runs on the double L-sum alone; weight 5, dim-1 space
    from mgrid.automorphy import EtaPowerMultiplier

    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                          rho=trivial_representation(), group=sl2z())
    tr = TruncationParams(c_max=80, tail_tol=1e-9, ctx=CTX)
    k = 3
    pm = fit_pairing([(0, 1)], data, k, tr, lmax=50)
    fs0 = supplementary([(1, 0, 1)], data, k, tr, lmax=50)
    fsm1 = supplementary([(1, -1, 1)], data, k, tr, lmax=50)
    rh0 = [period_rH(fs0, g, k, tr) for g in pm.gens]
    rhm1 = [period_rH(fsm1, g, k, tr) for g in pm.gens]
    from mgrid.eichler import period_r

    assert np.allclose(rh0[0].coeffs, period_r(fs0, pm.gens[0], k, tr).coeffs)
    pred = predict_gram(pm, rh0, rhm1)
    p0 = poincare_series(data, 5, 0, 1, range(1, 3), tr)
    truth = complex(petersson_poincare(p0, -1, 1, data, k))
    assert abs(pred - truth) / abs(truth) < 1e-4


# a twist whose a and d are both nonzero, with c = 2 (nontrivial phases)
TWIST_2 = TwistSpec.from_element(GroupElement(1, 1, 2, 3))


@pytest.mark.parametrize("series, t0", [("delta", 1.0), ("delta", 2.0), ("wh", 1.0)])
def test_one_pass_equals_single_calls(delta_like, series, t0):
    f = delta_like if series == "delta" else poincare_series(DATA12, 12, 1, 1,
                                                             range(1, 30), TR)
    if series == "wh":
        assert min(f.freq(n, j) for (n, j) in f.coeffs) < 0
    one_pass = lvalue_series(f, TWIST_2, range(1, 12), t0=t0, trunc=TR)
    assert [lv.s for lv in one_pass] == list(range(1, 12))
    for lv in one_pass:
        single = lvalue_series(f, TWIST_2, lv.s, t0=t0, trunc=TR)
        assert lv.value == single.value
        assert lv.lstar == single.lstar
        assert lv.err == single.err


# x = 2 pi q: -6 pi, -2 pi, about 1e-3, about 1.05, 2 pi, 120 pi, about 798
GAMMA_SWEEP_Q = [Fraction(-3), Fraction(-1), Fraction(1, 6283), Fraction(1, 6),
                 Fraction(1), Fraction(60), Fraction(127)]


@pytest.mark.parametrize("bits", [53, 113, 200])
def test_gamma_sweep_within_documented_bound(bits):
    # |G_n - Gamma(n, x)| <= 2^-wp (|Gamma(n, x)| + Gamma(n, |x|)); at x = -2 pi
    # the sum cancels from e^{2 pi} to e^{-2 pi}, and without the x < 0 guard
    # bits the high orders fall outside the bound.  The integer value G 2^E
    # also lies within the D 2^E that lvalue_series carries into its noise.
    orders = range(1, 25)
    for q in GAMMA_SWEEP_Q:
        with PrecisionContext(bits, 1e-30).working():
            wp = mpmath.mp.prec
            got = lfun._gamma_sweep(q, orders)
        assert sorted(got) == list(orders)
        with mpmath.workprec(600):
            x = 2 * mpmath.pi * q.numerator / q.denominator
            for n in orders:
                g, zero, e, d = got[n]
                value = mpmath.ldexp(g, e)
                exact = mpmath.re(mpmath.gammainc(n, x))
                bound = mpmath.ldexp(abs(exact) + mpmath.gammainc(n, abs(x)), -wp)
                assert zero == 0
                assert abs(value - exact) <= bound, (bits, q, n)
                assert abs(value - exact) <= mpmath.ldexp(d, e), (bits, q, n)


def test_gamma_majorant_is_certified():
    # the old "rough" bound gave 1.0 for Gamma(0, 0.1) = 1.823
    assert lfun._gamma_majorant(0, 0.1) >= 1.8229
    for s in range(-3, 25):
        for x in (0.05, 0.1, 0.5, 1, 2, 5, 30, 200):
            with mpmath.workprec(600):
                exact = mpmath.gammainc(s, x)
            assert lfun._gamma_majorant(s, x) >= exact, (s, x)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_period_polynomials_make_one_lvalue_pass(delta_like, monkeypatch):
    calls = _counting(monkeypatch, lfun, "lvalue_series")
    period_r(delta_like, S, 10, TR)
    assert len(calls) == 1
    period_rH(delta_like, S, 10, TR)
    assert len(calls) == 2


def test_cli_lvalue_makes_one_pass(capsys, monkeypatch):
    calls = _counting(monkeypatch, lfun, "lvalue_series")
    rc = main(["lvalue", "--weight", "12", "--n", "-1", "--s", "2", "--s", "6",
               "--s", "11", "--lmax", "20", "--cmax", "20", "--tol", "1e-2"])
    values = json.loads(capsys.readouterr().out)["values"]
    assert rc == 0
    assert len(calls) == 1
    assert [row["s"] for row in values] == [2, 6, 11]


def test_critical_s_make_no_gamma_upper_call(delta_like, monkeypatch):
    calls = _counting(monkeypatch, lfun, "gamma_upper")
    lvalue_series(delta_like, TWIST_S, range(1, 12), trunc=TR)
    period_rH(delta_like, S, 10, TR)
    assert calls == []


def test_s_at_or_above_weight_reaches_gamma_upper(delta_like, monkeypatch):
    # orders w - s <= 0 leave the sweep; the values are those of the
    # one-gammainc-per-term implementation this sweep replaced
    calls = _counting(monkeypatch, lfun, "gamma_upper")
    lvs = lvalue_series(delta_like, TWIST_S, [12, 13], trunc=TR)
    assert len(calls) == 2 * 60
    before = {12: "2.824789895048719242612899845603453225378",
              13: "2.832362598646802084496167914670593866186"}
    with mpmath.workprec(200):
        for lv in lvs:
            ref = mpmath.mpf(before[lv.s])
            assert abs(lv.value - ref) <= mpmath.ldexp(ref, 4 - 113)


def _per_term_lstar(f, twist, s, t0, bits=300):
    """L* by the per-term formula the fixed-point pass replaced, at bits:
    mpc terms a(m) zeta Gamma(n, x) / b^n with mpmath.gammainc and principal
    mpmath.power, summed as they come."""
    w, g = f.weight, twist.gamma
    with mpmath.workprec(bits):
        two_pi = 2 * mpmath.pi
        pref2 = (exp2pi(Fraction(3 * w, 4)) * mpmath.mpf(g.c) ** (w - 2 * s)
                 / f.automorphy.scalar_character(1).value(g))
        side1 = side2 = mpmath.mpc(0)
        for (m, _j), am in f.items():
            fr = f.freq(m, 1)
            fmp = mpmath.mpf(fr.numerator) / fr.denominator
            base = mpmath.mpc(two_pi * fmp)
            x1 = two_pi * fmp * t0
            x2 = two_pi * fmp / (g.c * g.c * t0)
            side1 += (am * twist.zeta_power(-g.d * fr) * mpmath.gammainc(s, x1)
                      / mpmath.power(base, s))
            side2 += (am * twist.zeta_power(g.a * fr) * mpmath.gammainc(w - s, x2)
                      / mpmath.power(base, w - s))
        return side1 + pref2 * side2


@pytest.fixture(scope="module")
def reference_series(delta_like):
    from mgrid.automorphy import EtaPowerMultiplier

    eta2 = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                          rho=trivial_representation(), group=sl2z())
    return {"delta": delta_like,
            "wh": poincare_series(DATA12, 12, 1, 1, range(1, 30), TR),
            "eta2": poincare_series(eta2, 5, 0, 1, range(0, 30),
                                    TruncationParams(c_max=20, tail_tol=1.0, ctx=CTX))}


@pytest.mark.parametrize("bits", [53, 113, 200])
@pytest.mark.parametrize("name, twist, t0, s_values", [
    ("delta", TWIST_S, 1.0, range(1, 12)),
    ("delta", TWIST_2, 2.0, range(1, 12)),  # x1 != x2, nontrivial phases
    ("wh", TWIST_S, 0.5, range(1, 12)),     # negative frequency, cancellation
    ("eta2", TWIST_S, 1.0, range(1, 5)),    # kappa = 1/12, chi(S) != 1
    ("delta", TWIST_S, 1.0, [12, 13]),      # orders <= 0 through gamma_upper
])
def test_fixed_point_lstar_against_per_term_sum(reference_series, monkeypatch, bits,
                                                name, twist, t0, s_values):
    # with the tails dropped and the remainder estimate switched off, err is
    # the rounding noise alone, and it must cover the distance to a 300-bit
    # per-term sum of the same stored coefficients, up to 2^-wp |lstar|
    f = reference_series[name]
    bare = FourierSeries(f.weight, f.automorphy, coeffs=f.coeffs, truncation=f.truncation)
    ctx = PrecisionContext(bits, 1e-30)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=ctx)
    wp = bits + 20
    full = lvalue_series(f, twist, s_values, t0=t0, trunc=trunc)
    monkeypatch.setattr(lfun, "coefficient_envelope", lambda *args: 0.0)
    for lv, lv_full in zip(lvalue_series(bare, twist, s_values, t0=t0, trunc=trunc), full):
        ref = _per_term_lstar(f, twist, lv.s, t0)
        with mpmath.workprec(300):
            gap = abs(lv.lstar - ref)
            assert gap <= lv.err + mpmath.ldexp(abs(lv.lstar), -wp), (name, bits, lv.s)
            assert lv_full.lstar == lv.lstar and lv_full.err >= lv.err
