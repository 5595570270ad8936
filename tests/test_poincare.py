"""Poincare coefficients against classical oracles: divisor sums for the
Eisenstein direction, the discriminant product expansion for the cusp
direction, and direct Kloosterman enumeration for the arithmetic layer."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    DiagonalRepresentation,
    EtaPowerMultiplier,
    Multiplier,
    TrivialMultiplier,
    conjugate,
    trivial_representation,
)
from mgrid.gridforms import build_G
from mgrid.groups import GroupElement, gamma0, sl2z
from mgrid.poincare import (
    Walk,
    coefficient_envelope,
    constant_term_cf,
    kloosterman_layer,
    poincare_coefficient,
    poincare_series,
)
from mgrid.precision import PrecisionContext
from mgrid.series import FourierSeries, TruncationParams

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)


def trivial_data(weight, p=1):
    return AutomorphyData(weight=weight, chi=TrivialMultiplier(),
                          rho=trivial_representation(p), group=sl2z())


def sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def delta_q_expansion(nmax):
    """q prod (1-q^n)^24 by exact integer convolution; returns tau(1..nmax)."""
    co = [0] * (nmax + 1)
    co[0] = 1
    for n in range(1, nmax + 1):
        for _ in range(24):
            new = co[:]
            for i in range(0, nmax + 1 - n):
                new[i + n] -= co[i]
            co = new
    return co[:nmax]


def kloosterman_direct(m, n, c):
    total = 0j
    for d in range(c):
        if math.gcd(d, c) != 1:
            continue
        a = pow(d, -1, c)
        total += np.exp(2j * np.pi * (m * a + n * d) / c)
    if c == 1:
        return 1 + 0j
    return total


def test_kloosterman_layer_matches_direct_enumeration():
    data = trivial_data(4)
    for c in range(1, 51):
        for (m, n) in ((0, 0), (1, 1), (1, -1), (2, 3)):
            lay = kloosterman_layer(data, c, Fraction(m), Fraction(n))
            # the box stores d in (-c, 0]; classical sums run d in [0, c)
            direct = kloosterman_direct(m % c if c > 1 else 0, n, c)
            assert abs(lay - direct) < 1e-9 * max(1, abs(direct))


def test_kloosterman_special_values():
    data = trivial_data(4)
    phi = [len([d for d in range(max(c, 1)) if math.gcd(d, c) == 1]) or 1
           for c in range(0, 60)]
    for c in range(1, 60):
        s00 = kloosterman_layer(data, c, Fraction(0), Fraction(0))
        assert abs(s00 - phi[c]) < 1e-9
    assert abs(kloosterman_layer(data, 2, Fraction(1), Fraction(1)) - 1) < 1e-12


def test_layer_duality_substitution():
    # gamma -> gamma^{-1}(-I) maps the box to itself and transposes the sum:
    # K_c^{chi,rho}(x, y)_{j,a} = chi(-I)^{-1} K_c^{conj}( -y, -x)_{a,j}
    for chi, weight in ((TrivialMultiplier(), 12), (EtaPowerMultiplier(2), 5)):
        data = AutomorphyData(weight=weight, chi=chi,
                              rho=trivial_representation(), group=sl2z())
        cdata = conjugate(data)
        minus_i_phase = complex(chi.value(GroupElement(-1, 0, 0, -1)))
        kap = data.kappa_of(1)
        for c in (1, 2, 3, 5, 7):
            x = -1 + kap
            y = 2 + kap
            lhs = kloosterman_layer(data, c, x, y)
            rhs = kloosterman_layer(cdata, c, -y, -x)
            assert abs(lhs - rhs / minus_i_phase) < 1e-10


def test_level_filter_returns_zero_layers():
    data = AutomorphyData(weight=4, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=gamma0(2))
    assert kloosterman_layer(data, 3, Fraction(1), Fraction(1)) == 0


@pytest.mark.parametrize("weight,scale,power", [(4, 240, 3), (6, -504, 5)])
def test_eisenstein_coefficients(weight, scale, power):
    data = trivial_data(weight)
    trunc = TruncationParams(c_max=3000, tail_tol=1e-2, ctx=CTX)
    for l in (1, 2, 5):
        val, tail = poincare_coefficient(data, weight, 0, 1, l, 1, trunc)
        expected = scale * sigma(power, l)
        assert complex(val).real == pytest.approx(expected, rel=2e-6)
        assert abs(complex(val).imag) < 1e-8
        assert tail < 1e-2


def test_weight12_cusp_ratios_match_delta():
    data = trivial_data(12)
    trunc = TruncationParams(c_max=120, tail_tol=1e-7, ctx=CTX)
    series = poincare_series(data, 12, -1, 1, range(1, 6), trunc)
    tau = delta_q_expansion(6)
    a1 = complex(series.coefficient(1, 1))
    for l in range(2, 6):
        got = complex(series.coefficient(l, 1)) / a1
        assert got.real == pytest.approx(tau[l - 1] / tau[0], rel=1e-5, abs=1e-5)
        assert abs(got.imag) < 1e-8


def test_leading_term_stored_only_where_its_entry_is_complete():
    # P_{-1}'s entry at l = 1 is its leading 1 plus a c-sum: at l = 2..3 it
    # is not stored (the 1 alone, with tail 0, would be a wrong a(1)), at
    # l = 1..3 it is both; a leading term at frequency <= 0 stands alone
    data = trivial_data(12)
    trunc = TruncationParams(c_max=60, tail_tol=1e-6, ctx=CTX)
    assert (1, 1) not in poincare_series(data, 12, -1, 1, range(2, 4), trunc).coeffs
    full = poincare_series(data, 12, -1, 1, range(1, 4), trunc)
    # the test l = -n in l_range does not use up a one-shot iterable
    assert poincare_series(data, 12, -1, 1, iter(range(1, 4)), trunc).coeffs == full.coeffs
    value, tail = poincare_coefficient(data, 12, -1, 1, 1, 1, trunc)
    with CTX.working():
        assert full.coeffs[(1, 1)] == value + 1 and full.tails[(1, 1)] == tail
    for weight, n in ((4, 0), (12, 1)):
        series = poincare_series(trivial_data(weight), weight, n, 1, range(2, 4), trunc)
        assert series.coeffs[(-n, 1)] == 1 and series.tails[(-n, 1)] == 0.0


def test_delta_leading_coefficient_and_empty_range():
    data = trivial_data(12)
    trunc = TruncationParams(c_max=50, tail_tol=1e-6, ctx=CTX)
    series = poincare_series(data, 12, 1, 1, range(0), trunc)
    assert list(series.coeffs) == [(-1, 1)]
    assert series.coefficient(-1, 1) == 1
    assert series.principal_support() == [(-1, 1)]


def test_zero_cross_block_is_exact_zero():
    rep = DiagonalRepresentation((TrivialMultiplier(), TrivialMultiplier()))
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=rep,
                          group=sl2z())
    trunc = TruncationParams(c_max=40, tail_tol=1e-6, ctx=CTX)
    val, tail = poincare_coefficient(data, 12, -1, 1, 3, 2, trunc)
    assert val == 0


def test_weight_preconditions():
    data = trivial_data(4)
    trunc = TruncationParams(c_max=10, tail_tol=1.0, ctx=CTX)
    with pytest.raises(ValueError):
        poincare_coefficient(data, 2, 0, 1, 1, 1, trunc)
    # weight 3 converges absolutely (terms O(c^-2)): no opt-in, finite tails
    data3 = AutomorphyData(weight=3, chi=EtaPowerMultiplier(2),
                           rho=trivial_representation(), group=sl2z())
    _val, tail = poincare_coefficient(data3, 3, 1, 1, 1, 1, trunc)
    assert math.isfinite(tail)
    # chi(-I) = e^{pi i w} at the weight computed, not only at data.weight:
    # weight 13 on a trivial datum is a series that vanishes identically
    data12 = trivial_data(12)
    lead = FourierSeries(13, data12, coeffs={(-1, 1): mpmath.mpc(1)})
    for request in (lambda: poincare_coefficient(data12, 13, -1, 1, 1, 1, trunc),
                    lambda: poincare_series(data12, 13, -1, 1, range(1, 3), trunc),
                    lambda: constant_term_cf(lead, trunc),
                    lambda: build_G(data12, 11, 1, 1, trunc, lmax=2)):
        with pytest.raises(ValueError, match=r"chi\(-I\)"):
            request()
    _val, tail = poincare_coefficient(data12, 14, -1, 1, 1, 1, trunc)  # same parity
    assert math.isfinite(tail)


def test_nonpositive_frequency_rejected():
    # a coefficient and a Walk request name the precondition l + kappa_j > 0
    # (not a math domain error from the majorant)
    data = trivial_data(12)
    trunc = TruncationParams(c_max=10, tail_tol=1.0, ctx=CTX)
    for l in (0, -2):
        for request in (lambda: poincare_coefficient(data, 12, -1, 1, l, 1, trunc),
                        lambda: Walk(trunc).coefficient(data, 12, -1, 1, l, 1)):
            with pytest.raises(ValueError, match=r"need l \+ kappa_j > 0, got"):
                request()


def test_weight_checked_once_per_datum_and_weight(monkeypatch):
    # one eta^2 series over 11 values of l asks chi(-I) = e^{pi i w} once,
    # not once more per coefficient
    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                          rho=trivial_representation(), group=sl2z())
    calls = []
    original = Multiplier.nontriviality_ok

    def counted(self, weight):
        calls.append(weight)
        return original(self, weight)

    monkeypatch.setattr(Multiplier, "nontriviality_ok", counted)
    series = poincare_series(data, 5, 1, 1, range(0, 11),
                             TruncationParams(c_max=20, tail_tol=1.0, ctx=CTX))
    assert len(series.tails) == 12  # 11 c-sums and the leading 1
    assert calls == [5]


@pytest.mark.parametrize("weight,n,l", [(4, 0, 2), (12, -1, 2), (12, 1, 1)])
def test_truncation_monotonicity(weight, n, l, pin_layer_bits):
    data = trivial_data(weight)
    c1, c2 = 200, 400
    # pin the layer precision so both runs share one evaluation scheme
    pin_layer_bits(113)
    v1, t1 = poincare_coefficient(data, weight, n, 1, l, 1,
                                  TruncationParams(c_max=c1, tail_tol=1.0, ctx=CTX))
    v2, _ = poincare_coefficient(data, weight, n, 1, l, 1,
                                 TruncationParams(c_max=c2, tail_tol=1.0, ctx=CTX))
    assert abs(complex(v1 - v2)) <= t1


@pytest.mark.parametrize("chi, n, c_max", [(TrivialMultiplier(), 1, 2000),
                                           (TrivialMultiplier(), -1, 2000),
                                           (EtaPowerMultiplier(24), -1, 1000)],
                         ids=["I-weight12", "J-weight12", "eta24-J"])
def test_more_c_never_costs_certified_digits(chi, n, c_max):
    # 113-bit layers stay within their element budget up to c = 359 at
    # level 1, and float64 layers take the larger c: past 359, every tail is
    # at most its c_max 359 tail, and the move from c_max 359 lies within it
    data = AutomorphyData(weight=12, chi=chi, rho=trivial_representation(), group=sl2z())
    near, far = (poincare_series(data, 12, n, 1, range(1, 11),
                                 TruncationParams(c_max=c, tail_tol=1.0, ctx=CTX))
                 for c in (359, c_max))
    with CTX.working():
        for l in range(1, 11):
            assert far.tail_bound(l) <= near.tail_bound(l)
            assert abs(far.coefficient(l) - near.coefficient(l)) <= near.tail_bound(l)


def test_eta_case_coefficient_finite_and_converged():
    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                          rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=150, tail_tol=1e-4, ctx=CTX)
    val, tail = poincare_coefficient(data, 5, 1, 1, 0, 1, trunc)
    assert tail < 1e-4
    assert abs(complex(val)) > 0


ETA2_5 = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                        rho=trivial_representation(), group=sl2z())


@pytest.mark.parametrize("data, weight, n", [(trivial_data(12), 12, -1), (trivial_data(12), 12, 1),
                                             (ETA2_5, 5, 0), (ETA2_5, 5, 1)],
                         ids=["J-weight12", "I-weight12", "eta2-J", "eta2-I"])
def test_tails_finite_and_cover_the_move_to_cmax_300(data, weight, n):
    # one majorant gives every tail and the envelope: J with no extra factor,
    # I with e^min((z/2)^2/(nu+1), z).  From c_max 1 on, each tail is finite
    # and, with the reference's, covers the move to c_max 300; the envelope
    # covers every stored |a(l)| less the leading term at (-n, 1)
    ls = range(0, 41)
    ref = poincare_series(data, weight, n, 1, ls, TruncationParams(c_max=300, tail_tol=1.0, ctx=CTX))
    series = [ref]
    for c_max in (1, 3, 12):
        f = poincare_series(data, weight, n, 1, ls, TruncationParams(c_max=c_max, tail_tol=1.0,
                                                                     ctx=CTX))
        for key, a in f.items():
            assert math.isfinite(f.tails[key])
            assert abs(complex(a - ref.coeffs[key])) <= f.tails[key] + ref.tails[key]
        series.append(f)
    for f in series:
        for (l, j), a in f.items():
            assert abs(complex(a) - ((l, j) == (-n, 1))) \
                <= coefficient_envelope(data, weight, n, 1, l, j)


@pytest.mark.parametrize("level, shrink", [(2, 0.5), (4, 0.2), (11, 0.13)])
def test_majorant_sums_over_multiples_of_the_level(level, shrink):
    # on Gamma_0(N) a c-sum runs over c = N t only: the weight-12 P_{-1}
    # tails at c_max 40 are at most shrink times SL2(Z)'s (about 0.47, 0.19
    # and 0.13) and still cover the move to c_max 400; the envelope still
    # covers every stored |a(l)| less the leading term, for n = -1, 0, 1, l <= 40
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=gamma0(level))
    trunc = TruncationParams(c_max=40, tail_tol=1.0, ctx=CTX)
    f = poincare_series(data, 12, -1, 1, range(0, 6), trunc)
    ref = poincare_series(data, 12, -1, 1, range(0, 6),
                          TruncationParams(c_max=400, tail_tol=1.0, ctx=CTX))
    full = poincare_series(trivial_data(12), 12, -1, 1, range(0, 6), trunc)
    for key, a in f.items():
        assert f.tails[key] <= shrink * full.tails[key]
        assert abs(complex(a - ref.coeffs[key])) <= f.tails[key]
    # from c = 1, the sum over c = N t is N^-(w-1) times SL2(Z)'s (J weights)
    assert coefficient_envelope(data, 12, -1, 1, 3, 1) == pytest.approx(
        coefficient_envelope(trivial_data(12), 12, -1, 1, 3, 1) / level ** 11, rel=1e-12)
    for n in (-1, 0, 1):
        for (l, j), a in poincare_series(data, 12, n, 1, range(0, 41), trunc).items():
            assert abs(complex(a) - ((l, j) == (-n, 1))) \
                <= coefficient_envelope(data, 12, n, 1, l, j)


def test_constant_term_cf_zero_cases():
    data = trivial_data(12)
    trunc = TruncationParams(c_max=100, tail_tol=1e-6, ctx=CTX)
    cusp = poincare_series(data, 12, -1, 1, range(1, 4), trunc)
    vals, tails = constant_term_cf(cusp, trunc)
    assert complex(vals[0]) == 0
    # all kappa > 0: delta_{kappa,0} kills every component
    eta_data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                              rho=trivial_representation(), group=sl2z())
    wh = poincare_series(eta_data, 5, 1, 1, range(0, 3), trunc)
    vals, tails = constant_term_cf(wh, trunc)
    assert complex(vals[0]) == 0


def test_constant_term_cf_truncation_stability():
    data = trivial_data(12)
    f = poincare_series(data, 12, 1, 1, range(1, 3),
                        TruncationParams(c_max=50, tail_tol=1e-6, ctx=CTX))
    v1, _ = constant_term_cf(f, TruncationParams(c_max=2000, tail_tol=1e-8, ctx=CTX))
    v2, _ = constant_term_cf(f, TruncationParams(c_max=4000, tail_tol=1e-8, ctx=CTX))
    assert abs(complex(v1[0] - v2[0])) < 1e-6


def test_series_json_roundtrip_metadata():
    data = trivial_data(4)
    trunc = TruncationParams(c_max=500, tail_tol=1e-2, ctx=CTX)
    series = poincare_series(data, 4, 0, 1, range(1, 3), trunc)
    assert series.truncation is trunc
    assert series.unconverged_entries() == []


@pytest.mark.parametrize("weight", [6, 8, 10])
def test_cusp_direction_vanishes_in_zero_dimensional_spaces(weight):
    # the cusp spaces of weights 6, 8, 10 on SL2(Z) are zero, so the cusp
    # Poincare series of order -1 vanishes identically: the delta term must
    # cancel exactly against the Kloosterman-Bessel sum, an absolute oracle
    # for the J-case constants
    data = trivial_data(weight)
    trunc = TruncationParams(c_max=1000, tail_tol=1e-2, ctx=CTX)
    series = poincare_series(data, weight, -1, 1, range(1, 4), trunc)
    for l in range(1, 4):
        assert abs(complex(series.coefficient(l, 1))) < 1e-8


@pytest.mark.parametrize("weight, m, p, group", [(16, -1, 3, sl2z()), (12, -1, 3, gamma0(4)),
                                                 (12, 1, 3, gamma0(4))],
                         ids=["sl2z-w16-m-1", "gamma0(4)-w12-m-1", "gamma0(4)-w12-m1"])
def test_hecke_relations_within_tails(weight, m, p, group):
    # T_p P_m = p^(w-1) P_{pm} + P_{m/p} for p prime to the level, with m
    # the index n of poincare_series; p does not divide m here, so P_{m/p}
    # drops.  Coefficient by coefficient for l <= 8:
    #   a_m(p l) + p^(w-1) a_m(l/p) = p^(w-1) a_{pm}(l),
    # the a_m(l/p) term only where p | l.  Compared at 300 bits (complex()
    # would lose the digits the tails certify), within the sum of the tails
    # of every coefficient used, each times its factor
    data = AutomorphyData(weight=weight, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=group)
    trunc = TruncationParams(c_max=200, tail_tol=1.0, ctx=CTX)
    lmax, pw = 8, p ** (weight - 1)
    f = poincare_series(data, weight, m, 1, range(1, p * lmax + 1), trunc)
    g = poincare_series(data, weight, p * m, 1, range(1, lmax + 1), trunc)
    for l in range(1, lmax + 1):
        terms = [(1, f, p * l), (-pw, g, l)] + ([(pw, f, l // p)] if l % p == 0 else [])
        with mpmath.workprec(300):
            diff = sum(k * s.coefficient(i, 1) for k, s, i in terms)
        tails = sum(abs(k) * s.tails[(i, 1)] for k, s, i in terms)
        assert abs(diff) <= tails, (l, float(abs(diff)), tails)
