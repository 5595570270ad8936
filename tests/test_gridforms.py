"""Grid construction: normalization, operator images against independently
truncated Poincare runs, duality, the shadow-pairing symmetry and the
weight -k law of G = G+ + G-."""

import math

import mpmath
import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    DiagonalRepresentation,
    EtaPowerMultiplier,
    TrivialMultiplier,
    conjugate,
    n_prime,
    trivial_representation,
)
from mgrid.gridforms import (
    HarmonicForm,
    apply_Dk1,
    apply_xi,
    build_G,
    build_f,
    build_pair,
    check_main2_symmetry,
    verify_duality,
)
from mgrid import poincare
from mgrid.groups import S, sl2z
from mgrid.poincare import coefficient_envelope, poincare_series
from mgrid.precision import PrecisionContext
from mgrid.quadrature import eval_component_grid
from mgrid.series import FourierSeries, TruncationParams
from mgrid.specialfn import h_function

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)
TR = TruncationParams(c_max=100, tail_tol=1e-5, ctx=CTX)
TR_INDEP = TruncationParams(c_max=151, tail_tol=1e-5, ctx=CTX)


def trivial_data(weight):
    return AutomorphyData(weight=weight, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())


def sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


DATA12 = trivial_data(12)


def test_build_f_leading_coefficient():
    f = build_f(DATA12, 10, 1, 1, TR, lmax=3)
    assert f.coefficient(-1, 1) == 1
    assert f.weight == 12


def test_build_f_index_precondition():
    with pytest.raises(ValueError):
        build_f(DATA12, 10, -1, 1, TR)
    eta_data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                              rho=trivial_representation(), group=sl2z())
    with pytest.raises(ValueError):
        build_f(eta_data, 3, 0, 1, TR)  # 0 - 1/12 < 0


def test_build_f_eisenstein_direction_ratio():
    f = build_f(DATA12, 10, 0, 1, TruncationParams(c_max=2000, tail_tol=1e-2,
                                                   ctx=CTX), lmax=2)
    ratio = complex(f.coefficient(2, 1)) / complex(f.coefficient(1, 1))
    assert ratio.real == pytest.approx(sigma(11, 2) / sigma(11, 1), rel=1e-5)


def test_build_G_leading_and_b_values():
    G = build_G(DATA12, 10, 1, 1, TR, lmax=4)
    assert G.holo.coefficient(-1, 1) == 1
    p_indep = poincare_series(conjugate(DATA12), 12, 1, 1, range(1, 5), TR_INDEP)
    for l in range(1, 5):
        expected = complex(p_indep.coefficient(l, 1)) * (-1 / l) ** 11
        got = complex(G.holo.coefficient(l, 1))
        assert got == pytest.approx(expected, rel=1e-8)


def test_build_G_index_precondition():
    with pytest.raises(ValueError):
        build_G(DATA12, 10, 0, 1, TR)
    with pytest.raises(ValueError):
        build_G(DATA12, 10, -1, 1, TR)


def test_build_G_constant_term_vanishes_for_positive_kappa():
    eta_data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                              rho=trivial_representation(), group=sl2z())
    G = build_G(eta_data, 3, 1, 1, TruncationParams(c_max=120, tail_tol=1e-3,
                                                    ctx=CTX), lmax=3)
    # kappa' = 11/12 > 0: no frequency-zero coefficient may appear at all
    assert all(G.holo.freq(n, j) != 0 for (n, j) in G.holo.coeffs)
    assert G.holo.has_zero_constant_term()


def test_duality_matrix_small():
    for (n1, n2) in ((1, 1), (1, 2), (2, 1), (0, 1)):
        trunc = TruncationParams(c_max=2500 if n1 == 0 else 250,
                                 tail_tol=1e-2, ctx=CTX)
        rep = verify_duality(DATA12, 10, n1, 1, n2, 1, trunc)
        assert rep.residual < 1e-6


def test_duality_index_preconditions():
    with pytest.raises(ValueError):
        verify_duality(DATA12, 10, -1, 1, 1, 1, TR)
    with pytest.raises(ValueError):
        verify_duality(DATA12, 10, 1, 1, 0, 1, TR)


def test_apply_Dk1_kills_constant_and_matches_scaled_series():
    G = build_G(DATA12, 10, 1, 1, TR, lmax=4)
    D = apply_Dk1(G)
    assert (0, 1) not in D.coeffs
    p_indep = poincare_series(conjugate(DATA12), 12, 1, 1, range(1, 5), TR_INDEP)
    scale = mpmath.mpf(-1) ** 11
    for l in range(1, 5):
        expected = complex(p_indep.coefficient(l, 1)) * float(scale)
        assert complex(D.coefficient(l, 1)) == pytest.approx(expected, rel=1e-7)
    # leading term: (-1)^{k+1} q^{-1}
    assert complex(D.coefficient(-1, 1)) == pytest.approx(-1.0)


def test_apply_xi_scaled_shadow_and_kernel():
    G = build_G(DATA12, 10, 1, 1, TR, lmax=4)
    xi = apply_xi(G)
    shadow_indep = poincare_series(DATA12, 12, -1, 1, range(1, 5), TR_INDEP)
    scale = complex((-4 * mpmath.pi) ** 11 / mpmath.factorial(10)) * (-1.0) ** 11
    for l in range(1, 5):
        expected = complex(shadow_indep.coefficient(l, 1)) * scale
        assert complex(xi.coefficient(l, 1)) == pytest.approx(expected, rel=1e-7)
    # empty non-holomorphic part maps to the zero series
    empty = HarmonicForm(k=10, n2=1, alpha2=1, holo=G.holo, nonholo={},
                         nonholo_tails={}, shadow=G.shadow)
    assert apply_xi(empty).coeffs == {}


def test_apply_xi_synthetic_single_term():
    cdata = conjugate(trivial_data(4))
    holo = FourierSeries(-2, cdata, coeffs={(-1, 1): mpmath.mpc(1)})
    G = HarmonicForm(k=2, n2=1, alpha2=1, holo=holo,
                     nonholo={(-1, 1): mpmath.mpc(1)}, nonholo_tails={},
                     shadow=holo)
    xi = apply_xi(G)
    expected = -((-4 * np.pi * -1.0) ** 3)
    assert complex(xi.coefficient(1, 1)) == pytest.approx(expected)


def test_main2_symmetry_pairs():
    G1 = build_G(DATA12, 10, 1, 1, TR, lmax=3)
    G2 = build_G(DATA12, 10, 2, 1, TR, lmax=3)
    assert check_main2_symmetry(G1, G2) < 1e-6
    # self-pairing forces b^-(-n2)(-n2)^{k+1} to be real
    assert check_main2_symmetry(G1, G1) < 1e-12
    val = complex(G1.b_minus(-1, 1)) * (-1.0) ** 11
    assert abs(val.imag) < 1e-10 * abs(val.real)


def test_duality_zero_cross_block_component():
    # diagonal rho: coefficients across components vanish identically, so
    # both duality sides are exact zeros and the residual is 0
    rep = DiagonalRepresentation((TrivialMultiplier(), TrivialMultiplier()))
    data2 = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=rep,
                           group=sl2z())
    rep_ = verify_duality(data2, 10, 1, 1, 1, 2, TR)
    assert rep_.lhs == 0 and rep_.rhs == 0 and rep_.residual == 0.0


def test_main2_symmetry_zero_overlap():
    rep = DiagonalRepresentation((TrivialMultiplier(), TrivialMultiplier()))
    data2 = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=rep,
                           group=sl2z())
    Ga = build_G(data2, 10, 1, 1, TR, lmax=2)
    Gb = build_G(data2, 10, 2, 2, TR, lmax=2)
    # b^- of Ga lives in component 1 only, Gb in component 2 only
    assert check_main2_symmetry(Ga, Gb) == 0.0


def _entries(series):
    return [(key, value, series.tails[key]) for key, value in series.items()]


ETA2 = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2), rho=trivial_representation(),
                      group=sl2z())
TWO = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                     rho=DiagonalRepresentation((TrivialMultiplier(), TrivialMultiplier())),
                     group=sl2z())


@pytest.mark.parametrize("data, k, pair, c_max", [
    (ETA2, 3, (1, 1, 1, 1), 30),
    (DATA12, 10, (0, 1, 2, 1), 60),  # Ramanujan and constant-term sums in the walk
    (TWO, 10, (1, 1, 1, 2), 30),
    (TWO, 10, (0, 2, 2, 2), 30),
], ids=["eta2-k3", "trivial-k10-n1=0", "diag-cross", "diag-n1=0"])
def test_build_pair_equals_separate_calls(data, k, pair, c_max):
    # one shared walk gives every value and tail of f, G+, G-, the shadow and
    # both duality sides bit for bit as the three separate builders do
    n1, a1, n2, a2 = pair
    trunc = TruncationParams(c_max=c_max, tail_tol=1.0, ctx=CTX)
    pair_ = build_pair(data, k, n1, a1, n2, a2, trunc, lmax=4)
    f = build_f(data, k, n1, a1, trunc, lmax=4)
    G = build_G(data, k, n2, a2, trunc, lmax=4)
    rep = verify_duality(data, k, n1, a1, n2, a2, trunc)
    assert _entries(pair_.f) == _entries(f)
    for got, ref in ((pair_.G.holo, G.holo), (pair_.G.shadow, G.shadow)):
        assert _entries(got) == _entries(ref)
    assert pair_.G.nonholo == G.nonholo and pair_.G.nonholo_tails == G.nonholo_tails
    assert pair_.duality == rep


def test_build_pair_walks_c_once(monkeypatch):
    # eta^2 at c_max 80: f, G+ and its constant term, the shadow and both
    # duality sides read one box and one root table per c (5 per c apart)
    counts = {"cplus_arrays": 0, "_root_table": 0}
    for name in counts:
        original = getattr(poincare, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(poincare, name, counted)
    build_pair(ETA2, 3, 1, 1, 1, 1, TruncationParams(c_max=80, tail_tol=1.0, ctx=CTX),
               lmax=10)
    assert counts == {"cplus_arrays": 80, "_root_table": 80}


def test_equal_data_share_their_csums(monkeypatch):
    # the trivial character is self-conjugate, so at n1 = n2 f and G+'s
    # conjugate series are one set of c-sums: 6 coefficient c-sums, not 9,
    # plus G+'s constant term (one c-sum, from the same constructor), and
    # every value and tail of the pair as the separate builders give it
    calls = []
    original = poincare._coefficient_sum

    def counted(*args):
        calls.append(args[:4])
        return original(*args)

    monkeypatch.setattr(poincare, "_coefficient_sum", counted)
    pair_ = build_pair(DATA12, 10, 1, 1, 1, 1, TR, lmax=3)
    assert len(calls) == 7 and conjugate(DATA12) == DATA12
    f, G = build_f(DATA12, 10, 1, 1, TR, lmax=3), build_G(DATA12, 10, 1, 1, TR, lmax=3)
    assert _entries(pair_.f) == _entries(f)
    assert _entries(pair_.f) == _entries(poincare_series(conjugate(DATA12), 12, 1, 1,
                                                         range(0, 4), TR))
    for got, ref in ((pair_.G.holo, G.holo), (pair_.G.shadow, G.shadow)):
        assert [(k, v._mpc_, t) for k, v, t in _entries(got)] \
            == [(k, v._mpc_, t) for k, v, t in _entries(ref)]
    assert pair_.G.nonholo == G.nonholo and pair_.G.nonholo_tails == G.nonholo_tails
    assert pair_.duality == verify_duality(DATA12, 10, 1, 1, 1, 1, TR)


def _harmonic_value(G: HarmonicForm, zs):
    """(G(z), a bound on its error) at points zs, from component 1's stored
    coefficients: G+ through eval_component_grid, G- term by term as
    sum b-(l) h(2 pi (l+kappa') y, k) e((l+kappa') x).

    The bound adds, per point:
      - each stored tail times its term's basis value;
      - float64 rounding, (N + 8 + |exponent|) 2^-52 of each term's size
        for N terms;
      - the 40 terms past each stored range: b+ from coefficient_envelope,
        and |b-| from coefficient_envelope on the shadow's index
        n_prime(n2, kappa_alpha2) times (|mu|/y)^(k+1)/k!, mu = -n2 +
        kappa'_alpha2 (a bound constant in y).  At these heights (y > 0.78)
        each further term is below e^-3 times the one before, so the rest is
        below the last one summed.
    """
    cdata, k, eps = G.conj_data, G.k, 2.0 ** -52
    kp, mu = cdata.kappa_of(1), abs(float(-G.n2 + cdata.kappa_of(G.alpha2)))

    def h(fr):  # the G- basis function at frequency fr < 0
        return np.array([float(h_function(2 * np.pi * fr * y, k, CTX)) for y in zs.imag]) \
            * np.exp(2j * np.pi * fr * zs.real)

    plus = [(np.exp(2j * np.pi * fr * zs), fr, b, G.holo.tails[(l, 1)])
            for (l, _j), b in G.holo.items() for fr in [float(G.holo.freq(l, 1))]]
    minus = [(h(fr), fr, b, G.nonholo_tails[(l, 1)])
             for (l, _j), b in sorted(G.nonholo.items()) for fr in [float(l + kp)]]
    rows = plus + minus
    value = eval_component_grid(G.holo, 1, zs) + sum(complex(b) * v for v, _fr, b, _t in minus)
    bound = sum(np.abs(v) * (t + eps * (len(rows) + 8 + np.abs(2 * np.pi * fr * zs))
                             * abs(complex(b))) for v, fr, b, t in rows)
    sdata = G.shadow.automorphy
    shadow_n = n_prime(G.n2, sdata.kappa_of(G.alpha2))
    top_plus, top_minus = (max(l for l, _j in s.coeffs) for s in (G.holo, G.shadow))
    for i in range(1, 41):
        yp, ym = float(top_plus + i + kp), float(top_minus + i + sdata.kappa_of(1))
        env = coefficient_envelope(cdata, k + 2, G.n2, G.alpha2, top_plus + i, 1)
        bound += env * (mu / yp) ** (k + 1) * np.exp(-2 * np.pi * yp * zs.imag)
        b_minus = coefficient_envelope(sdata, k + 2, shadow_n, G.alpha2, top_minus + i, 1) \
            * (mu / ym) ** (k + 1) / math.factorial(k)
        bound += b_minus * np.abs(h(-ym))
    return value, bound


@pytest.mark.parametrize("data, k, c_max", [(DATA12, 10, 60), (ETA2, 3, 80)],
                         ids=["trivial-k10", "eta2-k3"])
def test_G_transforms_with_weight_minus_k(data, k, c_max):
    # G(-1/tau) = chi_G(S) tau^-k G(tau), G = G+ + G-, within the summed
    # bounds of both sides.  Without G-, or with b- negated, the residual is
    # of the size of G; with 1/chi_G on eta^2 it is 2|G|
    G = build_G(data, k, 1, 1, TruncationParams(c_max=c_max, tail_tol=1.0, ctx=CTX), lmax=12)
    chi = complex(G.conj_data.chi.value(S))
    taus = np.array([0.1 + 1.1j, -0.3 + 1.2j, 0.25 + 0.98j])
    (g_s, b_s), (g, b) = _harmonic_value(G, -1 / taus), _harmonic_value(G, taus)
    residual = np.abs(g_s - chi * taus ** -k * g)
    assert (residual <= b_s + np.abs(taus) ** -k * b).all()
