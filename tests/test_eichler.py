"""Eichler primitives and period polynomials: coefficient maps, quadrature
versus incomplete-gamma closed forms, the cocycle relation, and the
supplementary-function identities."""

import math

import mpmath
import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    EtaPowerMultiplier,
    TrivialMultiplier,
    trivial_representation,
)
from mgrid.eichler import (
    SAMPLE_POINTS,
    c_weight,
    check_supplementary_identity,
    eichler_E,
    eichler_EH,
    eichler_EN,
    period_r,
    period_r_parabolic,
    period_r_quadrature,
    period_rH,
    period_rN,
    slash_poly_value,
    supplementary,
)
from mgrid.groups import S, T, GroupElement, gamma0, sl2z
from mgrid.poincare import poincare_series
from mgrid.precision import PrecisionContext
from mgrid.series import FourierSeries, TruncationParams
from mgrid.specialfn import gamma_upper

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
TR = TruncationParams(c_max=60, tail_tol=1e-8, ctx=CTX)
DATA12 = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                        rho=trivial_representation(), group=sl2z())


def cusp_form_wt12(lmax=60, trunc=TR):
    return poincare_series(DATA12, 12, -1, 1, range(1, lmax + 1), trunc)


def test_eichler_E_single_term():
    data = AutomorphyData(weight=4, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    f = FourierSeries(4, data, coeffs={(1, 1): mpmath.mpc(1)})
    e = eichler_E(f, 2)
    assert e.coefficient(1, 1) == 1  # 1^{-3}
    assert e.weight == -2


def test_eichler_E_zero_series_and_roundtrip():
    f = FourierSeries(12, DATA12, coeffs={})
    assert eichler_E(f, 10).coeffs == {}
    g = cusp_form_wt12(8)
    e = eichler_E(g, 10)
    # D^{k+1} restores the coefficients (inverse maps, working precision)
    with mpmath.workprec(130):
        for (n, j), v in g.items():
            back = e.coefficient(n, j) * mpmath.mpf(n) ** 11
            assert abs(back - v) < mpmath.mpf(2) ** -100 * max(1, abs(v))


def test_eichler_E_rejects_constant_term():
    f = FourierSeries(12, DATA12, coeffs={(0, 1): mpmath.mpc(2)})
    with pytest.raises(ValueError):
        eichler_E(f, 10)


def test_eichler_EH_cusp_form_has_zero_constant():
    g = cusp_form_wt12(5)
    _e, cf, _tails = eichler_EH(g, 10, TR)
    assert complex(cf[0]) == 0


def test_eichler_EH_constant_stable_under_cmax_doubling():
    f = poincare_series(DATA12, 12, 1, 1, range(1, 3), TR)
    _e1, c1, _ = eichler_EH(f, 10, TruncationParams(c_max=2000, tail_tol=1e-8, ctx=CTX))
    _e2, c2, _ = eichler_EH(f, 10, TruncationParams(c_max=4000, tail_tol=1e-8, ctx=CTX))
    assert abs(complex(c1[0] - c2[0])) < 1e-6


def test_eichler_EN_zero_and_high_point():
    zero = FourierSeries(12, DATA12, coeffs={})
    assert eichler_EN(zero, 1j, 10) == 0
    f = cusp_form_wt12(10)
    tau = 20j
    k = 10
    # one-term closed form: a(1) * i(-i)^k e^{2 pi i tau} e^{4 pi v}
    #                       Gamma(k+1, 4 pi v) / (2 pi)^{k+1} / c_{k+2}, conj
    with mpmath.workprec(150):
        a1 = f.coefficient(1, 1)
        v = tau.imag
        integral = (1j * (-1j) ** k * mpmath.e ** (2j * mpmath.pi * tau)
                    * mpmath.e ** (4 * mpmath.pi * v)
                    * gamma_upper(k + 1, 4 * mpmath.pi * v)
                    / (2 * mpmath.pi) ** (k + 1))
        one_term = mpmath.conj(a1 * integral) / c_weight(12)
    got = eichler_EN(f, tau, k)
    assert abs(got - complex(one_term)) < 2e-3 * abs(complex(one_term))


def test_eichler_EN_quadrature_vs_gamma_closed_form():
    f = cusp_form_wt12(25)
    k = 10
    tau = 1j
    got = eichler_EN(f, tau, k)
    # term-by-term incomplete-gamma evaluation of the same truncated series
    with mpmath.workprec(150):
        total = mpmath.mpc(0)
        v = tau.imag
        for (n, j), a in f.items():
            if n <= 0:
                continue
            beta = 2 * mpmath.pi * n
            total += a * (1j * (-1j) ** k * mpmath.e ** (2j * mpmath.pi * n * tau)
                          * mpmath.e ** (2 * beta * v)
                          * gamma_upper(k + 1, 2 * beta * v)
                          / beta ** (k + 1))
        expected = mpmath.conj(total) / c_weight(12)
    assert abs(got - complex(expected)) < 1e-8 * max(1.0, abs(complex(expected)))


def test_supplementary_combinations():
    empty = supplementary([], DATA12, 10, TR, lmax=3)
    assert empty.coeffs == {}
    single = supplementary([(1, -1, 1)], DATA12, 10, TR, lmax=3)
    assert single.coefficient(-1, 1) == 1  # P_{1,conj} leading term
    scaled = supplementary([(2j, -1, 1)], DATA12, 10, TR, lmax=3)
    assert complex(scaled.coefficient(-1, 1)) == pytest.approx(-2j)
    with pytest.raises(ValueError):
        supplementary([(1, 1, 1)], DATA12, 10, TR)  # not a cusp direction


def test_period_r_zero_and_degree():
    zero = FourierSeries(12, DATA12, coeffs={})
    poly = period_r(zero, S, 10, TR)
    assert np.allclose(poly.coeffs, 0)
    f = cusp_form_wt12(40)
    poly = period_r(f, S, 10, TR)
    assert poly.coeffs.shape == (11,)
    # k must match the series' weight k + 2 on every route, parabolic too
    for gamma in (S, T):
        for route in (lambda: period_r(f, gamma, 8, TR), lambda: period_rH(f, gamma, 8, TR),
                      lambda: period_r_quadrature(f, gamma, 8), lambda: period_rN(f, gamma, 8),
                      lambda: period_r_parabolic(f, gamma, 8)):
            with pytest.raises(ValueError, match="k\\+2"):
                route()


def test_period_r_cocycle_S_squared():
    # r(f, S)|(1 + S) = 0: from S^2 = -I, trivial character, even weight
    f = cusp_form_wt12(40)
    poly = period_r(f, S, 10, TR)
    for tau in SAMPLE_POINTS:
        val = poly(tau) + slash_poly_value(poly, DATA12, 10, S, tau)
        assert abs(val) < 1e-6 * max(1.0, abs(poly(tau)))


def test_period_parabolic_zero():
    f = cusp_form_wt12(5)
    for g in (T, -T, T * T):
        assert np.allclose(period_r_parabolic(f, g, 10).coeffs, 0)
        assert np.allclose(period_r(f, g, 10, TR).coeffs, 0)
    with pytest.raises(ValueError):
        period_r_parabolic(f, S, 10)


def test_period_rH_equals_r_for_cusp_and_positive_kappa():
    f = cusp_form_wt12(40)
    assert np.allclose(period_rH(f, S, 10, TR).coeffs,
                       period_r(f, S, 10, TR).coeffs)
    eta_data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                              rho=trivial_representation(), group=sl2z())
    tr = TruncationParams(c_max=80, tail_tol=1e-3, ctx=CTX)
    wh = poincare_series(eta_data, 5, 1, 1, range(0, 30), tr)
    assert np.allclose(period_rH(wh, S, 3, tr).coeffs,
                       period_r(wh, S, 3, tr).coeffs)


def test_period_r_quadrature_vs_lvalues_weakly_holomorphic():
    # dual-method oracle on the supplementary function (pole at i-infinity)
    fstar = supplementary([(1, -1, 1)], DATA12, 10, TR, lmax=40)
    r_l = period_r(fstar, S, 10, TR)
    r_q = period_r_quadrature(fstar, S, 10, t0=1.0)
    scale = np.max(np.abs(r_l.coeffs))
    for tau in SAMPLE_POINTS[:3]:
        assert abs(r_l(tau) - r_q(tau)) < 1e-5 * max(1.0, scale)


def test_period_rN_and_theorem_HN():
    f = cusp_form_wt12(40)
    rn = period_rN(f, S, 10)
    assert rn.coeffs.shape == (11,)
    rh = period_rH(f, S, 10, TR)
    reflected = rn.conjugate_reflected()
    scale = max(abs(rh(t)) for t in SAMPLE_POINTS)
    for tau in SAMPLE_POINTS:
        assert abs(rh(tau) - reflected(tau)) < 1e-6 * scale
    zero = FourierSeries(12, DATA12, coeffs={})
    assert np.allclose(period_rN(zero, S, 10).coeffs, 0)
    wh = poincare_series(DATA12, 12, 1, 1, range(1, 5), TR)
    with pytest.raises(ValueError):
        period_rN(wh, S, 10)


def test_period_rN_converts_the_series_once(monkeypatch):
    # the k+1 moments share one float conversion of f for both their rays
    # (two per moment before), and each equals its own regularized_moment
    import mgrid.quadrature as quadrature

    f = cusp_form_wt12(40)
    calls = []
    real = quadrature._component_terms
    monkeypatch.setattr(quadrature, "_component_terms",
                        lambda *args: calls.append(args) or real(*args))
    rn = period_rN(f, S, 10)
    assert len(calls) == 1
    want = np.zeros(11, dtype=complex)
    for m in range(11):
        mom = quadrature.regularized_moment(f, S, m)
        want[10 - m] += math.comb(10, m) * (-1) ** m * mom.conjugate()
    assert np.array_equal(rn.coeffs, want)


def test_supplementary_identity_cases():
    assert check_supplementary_identity([], DATA12, 10, S, TR) == 0
    res = check_supplementary_identity([(1, -1, 1)], DATA12, 10, S, TR, lmax=50)
    assert res < 1e-5
    # parabolic generator: both periods vanish identically
    res_t = check_supplementary_identity([(1, -1, 1)], DATA12, 10, T, TR, lmax=10)
    assert res_t == 0


def test_supplementary_and_identity_run_one_walk_each(monkeypatch):
    # the box at c = 1 is built once per engine walk: f = P_{-1} + 0.5i P_{-2}
    # and f* share one, where a walk per series built it 2 |combo| times
    from mgrid import poincare

    built = []
    original = poincare.cplus_arrays

    def counted(group, c):
        built.append(c)
        return original(group, c)

    monkeypatch.setattr(poincare, "cplus_arrays", counted)
    combo = [(1, -1, 1), (0.5j, -2, 1)]
    supplementary(combo, DATA12, 10, TR, lmax=5)
    assert built.count(1) == 1
    built.clear()
    check_supplementary_identity(combo, DATA12, 10, S, TR, lmax=5)
    assert built.count(1) == 1


def test_period_cocycle_random_words():
    rng = np.random.default_rng(31)
    f = cusp_form_wt12(50)
    k = 10
    base = [S, T, T.inverse()]
    polys = {}

    def r_of(g):
        key = g.as_tuple()
        if key not in polys:
            polys[key] = period_r(f, g, k, TR)
        return polys[key]

    for _ in range(6):
        word = [base[int(rng.integers(0, 3))]
                for _ in range(int(rng.integers(1, 4)))]
        g2 = word[0]
        for g1 in word[1:]:
            prod = g1 * g2
            for tau in SAMPLE_POINTS[:3]:
                lhs = r_of(prod)(tau)
                rhs = r_of(g2)(tau) + slash_poly_value(r_of(g1), DATA12, k,
                                                       g2, tau)
                assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))
            g2 = prod


def test_period_space_injectivity_dim1():
    # weight 12: a nonzero cusp form has a nonzero period vector
    f = cusp_form_wt12(40)
    poly = period_r(f, S, 10, TR)
    assert np.abs(poly.coeffs).max() > 1e-8


def test_eval_component_grid_matches_the_stored_terms():
    # the one evaluator sums every stored term of the component; it rejects
    # a component outside 1..dim and a point off the upper half-plane
    from mgrid.quadrature import eval_component_grid

    wh = poincare_series(DATA12, 12, 1, 1, range(1, 6), TR)
    zs = np.array([0.1 + 0.8j, -0.3 + 1.5j])
    want = sum(complex(v) * np.exp(2j * np.pi * n * zs) for (n, _j), v in wh.items())
    assert np.allclose(eval_component_grid(wh, 1, zs), want, rtol=1e-13, atol=0)
    for j, points in ((2, zs), (0, zs), (1, [1j, 0.5]), (1, [1j, 0.5 - 1j])):
        with pytest.raises(ValueError):
            eval_component_grid(wh, j, points)


def test_regularized_moment_rejects_a_vector_series():
    # even one whose stored terms all lie in component 1
    from mgrid.automorphy import DiagonalRepresentation
    from mgrid.quadrature import regularized_moment

    pair = AutomorphyData(weight=12, chi=TrivialMultiplier(), group=sl2z(),
                          rho=DiagonalRepresentation((TrivialMultiplier(),) * 2))
    f = FourierSeries(12, pair, {(1, 1): mpmath.mpc(1)})
    with pytest.raises(NotImplementedError):
        regularized_moment(f, S, 0)


@pytest.mark.parametrize("route", ["lvalue_series", "lvalue_integral", "regularized_moment",
                                   "period_r", "period_rH", "period_r_quadrature",
                                   "period_rN", "period_r_parabolic", "eichler_EN"])
def test_every_route_rejects_a_vector_series_with_one_message(route):
    # one rule (quadrature._require_scalar) with one message on every route,
    # on a two-component series; period_r_parabolic at T, the others at S
    from mgrid.automorphy import DiagonalRepresentation
    from mgrid.lfun import TwistSpec, lvalue_integral, lvalue_series
    from mgrid.quadrature import regularized_moment

    twist = TwistSpec.from_element(S)
    calls = {"lvalue_series": lambda f: lvalue_series(f, twist, 1, trunc=TR),
             "lvalue_integral": lambda f: lvalue_integral(f, twist, 1),
             "regularized_moment": lambda f: regularized_moment(f, S, 0),
             "period_r": lambda f: period_r(f, S, 10, TR),
             "period_rH": lambda f: period_rH(f, S, 10, TR),
             "period_r_quadrature": lambda f: period_r_quadrature(f, S, 10),
             "period_rN": lambda f: period_rN(f, S, 10),
             "period_r_parabolic": lambda f: period_r_parabolic(f, T, 10),
             "eichler_EN": lambda f: eichler_EN(f, 1j, 10)}
    pair = AutomorphyData(weight=12, chi=TrivialMultiplier(), group=sl2z(),
                          rho=DiagonalRepresentation((TrivialMultiplier(),) * 2))
    f = FourierSeries(12, pair, {(1, 1): mpmath.mpc(1), (1, 2): mpmath.mpc(2)})
    with pytest.raises(NotImplementedError,
                       match=r"^period, L-value and moment routes act on scalar series; "):
        calls[route](f)


@pytest.mark.parametrize("t0", [0.0, -1.0, math.nan, math.inf])
def test_every_twist_route_rejects_a_t0_that_is_not_finite_and_positive(t0):
    # one rule (quadrature._require_t0); _moments once checked nothing
    # (lvalue_integral at t0 = -1 gave L* = -1.28e116, the true value being
    # 0.0044) and lvalue_series let NaN through
    from mgrid.lfun import TwistSpec, lvalue_integral, lvalue_series
    from mgrid.quadrature import regularized_moment

    tr = TruncationParams(c_max=40, tail_tol=1.0, ctx=CTX)
    f = poincare_series(DATA12, 12, -1, 1, range(1, 9), tr)
    twist = TwistSpec.from_element(S)
    for call in (lambda: lvalue_series(f, twist, 6, t0=t0, trunc=tr),
                 lambda: lvalue_integral(f, twist, 6, t0=t0),
                 lambda: regularized_moment(f, S, 0, t0=t0),
                 lambda: period_r(f, S, 10, tr, t0=t0),
                 lambda: period_rH(f, S, 10, tr, t0=t0),
                 lambda: period_r_quadrature(f, S, 10, t0=t0),
                 lambda: period_rN(f, S, 10, t0=t0)):
        with pytest.raises(ValueError, match=r"^t0 must be finite and positive, got "):
            call()


def test_every_twist_route_rejects_an_element_outside_the_group():
    # S is not in Gamma_0(4); T and (1 0; 4 1) are
    from mgrid.lfun import TwistSpec, lvalue_integral, lvalue_series
    from mgrid.quadrature import regularized_moment

    data4 = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                           rho=trivial_representation(), group=gamma0(4))
    tr = TruncationParams(c_max=40, tail_tol=1.0, ctx=CTX)
    f = poincare_series(data4, 12, -1, 1, range(1, 9), tr)
    twist = TwistSpec.from_element(S)
    for call in (lambda: lvalue_series(f, twist, 6, trunc=tr),
                 lambda: lvalue_integral(f, twist, 6),
                 lambda: regularized_moment(f, S, 0),
                 lambda: period_r(f, S, 10, tr),
                 lambda: period_rH(f, S, 10, tr),
                 lambda: period_r_quadrature(f, S, 10),
                 lambda: period_rN(f, S, 10)):
        with pytest.raises(ValueError, match=r"is not in Gamma_0\(4\)"):
            call()
    for route in (period_r, period_rH):
        assert not route(f, T, 10, tr).coeffs.any()
    assert not period_rN(f, T, 10).coeffs.any()
    g = GroupElement(1, 0, 4, 1)
    r, rq = period_r(f, g, 10, tr), period_r_quadrature(f, g, 10)
    assert r.gamma == rq.gamma == g and r.shift == rq.shift == 0.25
    assert np.allclose(r.coeffs, rq.coeffs, rtol=0, atol=1e-6 * np.abs(r.coeffs).max())
    assert np.abs(r.coeffs).max() > 0
