"""Twisted L-values: t0 invariance, series vs integral representation,
Petersson unfolding symmetry, and the period-pairing fit."""

import json

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
from mgrid.precision import PrecisionContext
from mgrid.series import FourierSeries, TruncationParams

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
TR = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
DATA12 = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                        rho=trivial_representation(), group=sl2z())
TWIST_S = TwistSpec.from_element(S, 1)


@pytest.fixture(scope="module")
def delta_like():
    return poincare_series(DATA12, 12, -1, 1, range(1, 61), TR)


def test_twist_requires_nonzero_c():
    with pytest.raises(ValueError):
        TwistSpec.from_element(T, 1)
    tw = TwistSpec.from_element(GroupElement(0, 1, -1, 0), 1)
    assert tw.gamma.c > 0  # normalized to positive c


def test_lvalue_zero_form():
    zero = FourierSeries(12, DATA12, coeffs={}, truncation=TR)
    lv = lvalue_series(zero, TWIST_S, 4, trunc=TR)
    assert complex(lv.value) == 0


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
    g2 = delta_like.scale(2)
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
TWIST_2 = TwistSpec.from_element(GroupElement(1, 1, 2, 3), 1)


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


GAMMA_SWEEP_X = [-6 * mpmath.pi, -2 * mpmath.pi, mpmath.mpf("1e-3"), 1,
                 2 * mpmath.pi, 120 * mpmath.pi, 800]


@pytest.mark.parametrize("bits", [53, 113, 200])
def test_gamma_sweep_within_documented_bound(bits):
    # |G_n - Gamma(n, x)| <= 2^-wp (|Gamma(n, x)| + Gamma(n, |x|)); at x = -2 pi
    # the sum cancels from e^{2 pi} to e^{-2 pi}, and without the x < 0 guard
    # bits the high orders fall outside the bound
    orders = range(1, 25)
    for x0 in GAMMA_SWEEP_X:
        with PrecisionContext(bits, 1e-30).working():
            x = +mpmath.mpf(x0)
            wp = mpmath.mp.prec
            got = lfun._gamma_sweep(x, orders)
        assert sorted(got) == list(orders)
        with mpmath.workprec(600):
            for n in orders:
                exact = mpmath.re(mpmath.gammainc(n, x))
                bound = mpmath.ldexp(abs(exact) + mpmath.gammainc(n, abs(x)), -wp)
                assert abs(got[n] - exact) <= bound, (bits, float(x), n)


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
