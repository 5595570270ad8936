"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not tuned at runtime; every expected
value comes from an oracle computed in this file (divisor sieves, product
expansions, direct enumeration) or from a second, independent evaluation
route inside the library.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    EtaPowerMultiplier,
    TrivialMultiplier,
    conjugate,
    n_prime,
    trivial_representation,
)
from mgrid.eichler import (
    SAMPLE_POINTS,
    check_supplementary_identity,
    eichler_E,
    period_r,
    period_rH,
    period_rN,
    slash_poly_value,
    supplementary,
    c_weight,
)
from mgrid.gridforms import (
    apply_Dk1,
    apply_xi,
    build_G,
    build_grid,
    check_main2_symmetry,
    verify_duality,
)
from mgrid.groups import S, T, enumerate_cplus, sl2z
from mgrid.lfun import (
    TwistSpec,
    fit_pairing,
    lvalue_integral,
    lvalue_series,
    petersson_poincare,
    predict_gram,
)
from mgrid.poincare import kloosterman_layer, poincare_coefficient, poincare_series
from mgrid.precision import PrecisionContext
from mgrid.quadrature import eval_component_grid
from mgrid.series import TruncationParams

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)


def trivial_data(weight):
    return AutomorphyData(weight=weight, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())


def report(num, name, measured, bound, extra=""):
    ok = measured < bound
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {tag} "
          f"(measured {measured:.3e} < {bound:.0e}{extra})")
    assert ok, f"criterion {num}: {measured} !< {bound}"


def sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_criterion_01_eisenstein_cross_check():
    """Weights 4 and 6, n = 0: coefficients match 240 sigma_3 / -504 sigma_5
    to relative 1e-4 at c_max = 10^4."""
    t_start = time.time()
    trunc = TruncationParams(c_max=10**4, tail_tol=1.0, ctx=CTX)
    worst = 0.0
    for weight, scale, power in ((4, 240, 3), (6, -504, 5)):
        data = trivial_data(weight)
        series = poincare_series(data, weight, 0, 1, range(1, 11), trunc)
        for l in range(1, 11):
            expected = scale * sigma(power, l)
            got = complex(series.coefficient(l, 1))
            worst = max(worst, abs(got - expected) / abs(expected))
    report(1, "Eisenstein cross-check", worst, 1e-4,
           extra=f", {time.time() - t_start:.1f}s")


def test_criterion_02_zagier_duality_trivial():
    """k in {2, 10}, all (n1, n2) in {0..3} x {1..3}: normalized duality
    residual < 1e-6, both sides via independent Bessel/Kloosterman sums."""
    t_start = time.time()
    worst = 0.0
    for k in (2, 10):
        data = trivial_data(k + 2)
        for n1 in (0, 1, 2, 3):
            for n2 in (1, 2, 3):
                if k == 2:
                    cmax = 4000 if n1 == 0 else 800
                else:
                    cmax = 2000 if n1 == 0 else 200
                trunc = TruncationParams(c_max=cmax, tail_tol=1.0, ctx=CTX)
                rep = verify_duality(data, k, n1, 1, n2, 1, trunc)
                worst = max(worst, rep.residual)
    report(2, "Zagier duality (trivial character)", worst, 1e-6,
           extra=f", {time.time() - t_start:.1f}s")


def test_criterion_02b_duality_sides_converge():
    """Each duality side moves from c_max to 2 c_max by at most the sum of
    its two tails, plus 2^-52 |side| per side for the complex128 report
    (k = 10 at c_max 200, k = 2 at c_max 800).  Criterion 02's residual
    stays near 0 at any c_max, since on the trivial character both sides
    share their Kloosterman sums and Bessel values; this check fails when a
    tail bound is too small."""
    t_start = time.time()
    worst = 0.0
    for k, cmax, pairs in ((10, 200, ((1, 1), (2, 3), (0, 1), (3, 2))),
                           (2, 800, ((0, 1), (1, 2), (3, 1), (0, 3)))):
        data = trivial_data(k + 2)
        duality = [(n1, 1, n2, 1) for n1, n2 in pairs]
        near, far = (build_grid(data, k, TruncationParams(c_max=c, tail_tol=1.0, ctx=CTX),
                                duality=duality)[2] for c in (cmax, 2 * cmax))
        for r1, r2 in zip(near, far):
            for side in ("lhs", "rhs"):
                v1, v2 = getattr(r1, side), getattr(r2, side)
                allowed = getattr(r1, side + "_tail") + getattr(r2, side + "_tail") \
                    + 2.0 ** -52 * (abs(v1) + abs(v2))
                worst = max(worst, abs(v1 - v2) / allowed)
    report(2, "duality sides converge (move / allowed)", worst, 1.0,
           extra=f", {time.time() - t_start:.1f}s")


def test_criterion_03_duality_eta_multiplier():
    """Nontrivial multiplier eta^2 (kappa = 1/12), k = 3 (weight 5 >= 4):
    duality residual < 1e-5."""
    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                          rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=250, tail_tol=1.0, ctx=CTX)
    rep = verify_duality(data, 3, 1, 1, 1, 1, trunc)
    report(3, "Zagier duality (eta-power multiplier)", rep.residual, 1e-5)


def test_criterion_04_operator_images():
    """apply_Dk1(G) and apply_xi(G) match the scaled Poincare series built
    with an independent truncation, k = 10, n2 in {1, 2}, l <= 5; 1e-6."""
    k = 10
    data = trivial_data(12)
    trunc = TruncationParams(c_max=100, tail_tol=1e-6, ctx=CTX)
    trunc_indep = TruncationParams(c_max=151, tail_tol=1e-6, ctx=CTX)
    worst = 0.0
    for n2 in (1, 2):
        G = build_G(data, k, n2, 1, trunc, lmax=5)
        mu = float(-n2)
        d_img = apply_Dk1(G)
        p_ref = poincare_series(conjugate(data), 12, n2, 1, range(1, 6),
                                trunc_indep)
        for l in range(1, 6):
            ref = complex(p_ref.coefficient(l, 1)) * mu ** (k + 1)
            worst = max(worst, abs(complex(d_img.coefficient(l, 1)) - ref)
                        / max(abs(ref), 1e-30))
        xi_img = apply_xi(G)
        sh_ref = poincare_series(data, 12, n_prime(n2, Fraction(0)), 1,
                                 range(1, 6), trunc_indep)
        scale = complex((-4 * mpmath.pi) ** (k + 1) / mpmath.factorial(k)) \
            * mu ** (k + 1)
        for l in range(1, 6):
            ref = complex(sh_ref.coefficient(l, 1)) * scale
            worst = max(worst, abs(complex(xi_img.coefficient(l, 1)) - ref)
                        / max(abs(ref), 1e-30))
    report(4, "D^{k+1} and xi_{-k} images", worst, 1e-6)


def test_criterion_05_shadow_pairing_symmetry():
    """Corollary symmetry of non-holomorphic coefficients over
    (n2, n2~) in {1,2,3}^2, k = 10: residual < 1e-6."""
    data = trivial_data(12)
    trunc = TruncationParams(c_max=100, tail_tol=1e-6, ctx=CTX)
    forms = {n2: build_G(data, 10, n2, 1, trunc, lmax=4) for n2 in (1, 2, 3)}
    worst = 0.0
    for n2 in (1, 2, 3):
        for m2 in (1, 2, 3):
            worst = max(worst, check_main2_symmetry(forms[n2], forms[m2]))
    report(5, "shadow-pairing symmetry", worst, 1e-6)


def test_criterion_06_supplementary_identity():
    """r^H(f, S; tau) = conj(r^H(f*, S; conj tau)) for f = P_{-1} at weight 12,
    five sample points, both sides through their own L-value pipelines."""
    data = trivial_data(12)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
    res = check_supplementary_identity([(1, -1, 1)], data, 10, S, trunc, lmax=60)
    report(6, "supplementary-function identity", res, 1e-5)


def test_criterion_07_rH_equals_conjugated_rN():
    """r^H from L-values against the conjugated ray-moment polynomial r^N."""
    data = trivial_data(12)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
    f = poincare_series(data, 12, -1, 1, range(1, 61), trunc)
    rh = period_rH(f, S, 10, trunc)
    rn = period_rN(f, S, 10, t0=1.0).conjugate_reflected()
    scale = max(abs(rh(t)) for t in SAMPLE_POINTS)
    res = max(abs(rh(t) - rn(t)) for t in SAMPLE_POINTS) / scale
    report(7, "r^H vs conjugated r^N", res, 1e-6)


def test_criterion_08_lvalue_consistency():
    """Series vs contour integral for the weight-12 cusp form, untwisted, s=1..11
    (1e-6 relative); t0-invariance across {0.5, 1, 2} (1e-8)."""
    data = trivial_data(12)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
    f = poincare_series(data, 12, -1, 1, range(1, 61), trunc)
    tw = TwistSpec.from_element(S)
    worst = 0.0
    for s in range(1, 12):
        ls = complex(lvalue_series(f, tw, s, t0=1.0, trunc=trunc).value)
        li = complex(lvalue_integral(f, tw, s, t0=1.0).value)
        worst = max(worst, abs(ls - li) / abs(li))
    report(8, "L series vs integral", worst, 1e-6)
    worst_t0 = 0.0
    for s in (1, 6, 11):
        vals = [complex(lvalue_series(f, tw, s, t0=t, trunc=trunc).value)
                for t in (0.5, 1.0, 2.0)]
        worst_t0 = max(worst_t0,
                       max(abs(v - vals[0]) for v in vals) / abs(vals[0]))
    report(8, "L t0-invariance", worst_t0, 1e-8)


def test_criterion_09_period_assembly():
    """r(f, S; tau) from 11 L-values equals c_{k+2}(E_f - E_f|S)(tau) by
    direct series evaluation (eval_component_grid) at the 5 sample points;
    1e-5."""
    k = 10
    data = trivial_data(12)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
    f = poincare_series(data, 12, -1, 1, range(1, 61), trunc)
    rp = period_r(f, S, k, trunc)
    e = eichler_E(f, k)
    ck = c_weight(12)
    chi_inv = complex(data.scalar_character(1).value(S)) ** -1
    taus = np.array(SAMPLE_POINTS, dtype=complex)
    direct = ck * (eval_component_grid(e, 1, taus)
                   - chi_inv * taus**k * eval_component_grid(e, 1, -1 / taus))
    scale = max(abs(rp(t)) for t in SAMPLE_POINTS)
    res = max(abs(d - rp(t)) for d, t in zip(direct, SAMPLE_POINTS)) / scale
    report(9, "period assembly from L-values", res, 1e-5)


@pytest.mark.parametrize("k", [10, 14])
def test_criterion_10_pairing_prediction(k):
    """Fit the period pairing on the single Gram entry (P_{-1}, P_{-1}) of a
    one-dimensional cusp space and predict the held-out entry
    (P_{-1}, P_{-2}) from L-values of the supplementary functions; < 1e-4."""
    t_start = time.time()
    data = trivial_data(k + 2)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
    pm = fit_pairing([(-1, 1)], data, k, trunc, lmax=60)
    fs1 = supplementary([(1, -1, 1)], data, k, trunc, lmax=60)
    fs2 = supplementary([(1, -2, 1)], data, k, trunc, lmax=60)
    rh1 = [period_rH(fs1, g, k, trunc) for g in pm.gens]
    rh2 = [period_rH(fs2, g, k, trunc) for g in pm.gens]
    pred = predict_gram(pm, rh1, rh2)
    p1 = poincare_series(data, k + 2, -1, 1, range(1, 4), trunc)
    truth = complex(petersson_poincare(p1, -2, 1, data, k))
    rel = abs(pred - truth) / abs(truth)
    report(10, f"pairing prediction (weight {k + 2})", rel, 1e-4,
           extra=f", {time.time() - t_start:.1f}s")


def test_criterion_11a_cocycle_property():
    """Cocycle r(f, g1 g2) = r(f, g2) + r(f, g1)|g2 on random words of
    length <= 3, sampled points, 1e-6."""
    rng = np.random.default_rng(1234)
    data = trivial_data(12)
    trunc = TruncationParams(c_max=60, tail_tol=1e-9, ctx=CTX)
    f = poincare_series(data, 12, -1, 1, range(1, 51), trunc)
    base = [S, T, T.inverse()]
    cache = {}

    def r_of(g):
        key = g.as_tuple()
        if key not in cache:
            cache[key] = period_r(f, g, 10, trunc)
        return cache[key]

    worst = 0.0
    for _ in range(8):
        word = [base[int(rng.integers(0, 3))]
                for _ in range(int(rng.integers(2, 4)))]
        g2 = word[0]
        for g1 in word[1:]:
            prod = g1 * g2
            for tau in SAMPLE_POINTS:
                lhs = r_of(prod)(tau)
                rhs = r_of(g2)(tau) + slash_poly_value(r_of(g1), data, 10,
                                                       g2, tau)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            g2 = prod
    report(11, "cocycle identity", worst, 1e-6)


def test_criterion_11b_kloosterman_layer_exact():
    """Kloosterman layer equals direct enumeration for c <= 50."""
    data = trivial_data(4)
    worst = 0.0
    for c in range(1, 51):
        for (m, n) in ((0, 0), (1, 1), (2, 1), (1, -1)):
            direct = 0j
            for d in range(c):
                if math.gcd(d, c) != 1:
                    continue
                a = pow(d, -1, c)
                direct += np.exp(2j * np.pi * (m * a + n * d) / c)
            if c == 1:
                direct = 1 + 0j
            got = kloosterman_layer(data, c, Fraction(m), Fraction(n))
            worst = max(worst, abs(got - direct))
    report(11, "Kloosterman layer vs enumeration", worst, 1e-9)


def test_criterion_11c_box_cardinality():
    """|C+(c)| = phi(c) for c <= 200, against an independent sieve."""
    phi = list(range(201))
    for p in range(2, 201):
        if phi[p] == p:
            for q in range(p, 201, p):
                phi[q] -= phi[q] // p
    bad = sum(1 for c in range(1, 201)
              if len(enumerate_cplus(sl2z(), c)) != phi[c])
    report(11, "box cardinality phi(c)", float(bad), 0.5, extra=" mismatches")


def test_criterion_11d_truncation_monotonicity(pin_layer_bits):
    """|coef(c_max) - coef(2 c_max)| <= tail_bound(c_max) for the three
    coefficient regimes (cusp/J, Eisenstein, weakly holomorphic/I)."""
    worst = -1.0
    cases = [
        (trivial_data(12), 12, -1, 2),   # J-Bessel
        (trivial_data(4), 4, 0, 2),      # power
        (trivial_data(12), 12, 1, 1),    # I-Bessel
        (trivial_data(4), 4, 2, 3),      # I-Bessel, slow decay
    ]
    pin_layer_bits(113)  # both runs share one layer precision
    for data, weight, n, l in cases:
        v1, t1 = poincare_coefficient(
            data, weight, n, 1, l, 1, TruncationParams(c_max=200, tail_tol=1.0, ctx=CTX))
        v2, _t2 = poincare_coefficient(
            data, weight, n, 1, l, 1, TruncationParams(c_max=400, tail_tol=1.0, ctx=CTX))
        gap = abs(complex(v1 - v2))
        worst = max(worst, gap / t1 if t1 > 0 else float(gap > 0))
    report(11, "truncation monotonicity", worst, 1.0, extra=" (gap/bound)")
