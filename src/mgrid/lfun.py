"""Regularized twisted L-functions of weakly holomorphic cusp forms.

For a scalar weight-w series f with vanishing constant term and a group
element gamma = (a b; c d), c > 0, the completed twisted series is

  L*(f, zeta_{c lam}^{-d}, s)
    = sum_m a(m) zeta^{-d(m+kappa)} Gamma(s, 2 pi (m+kappa) t0 / lam)
            / (2 pi (m+kappa)/lam)^s
    + chi^{-1}(gamma) i^w (-c)^{w-2s}
      sum_m a(m) zeta^{a(m+kappa)} Gamma(w-s, 2 pi (m+kappa)/(c^2 t0 lam))
            / (2 pi (m+kappa)/lam)^{w-s},

with zeta^x = e^{2 pi i x/(c lam)}, principal powers (arg in (-pi, pi]),
and L = (2 pi)^s / Gamma(s) L*; the cusp width lam is 1 on Gamma_0(N).
The value is independent of t0; the incomplete-gamma factors at the
finitely many negative frequencies carry the regularization.
lvalue_series sums each side for a list of s in one exact integer pass
over the coefficients (one fixed-point sweep of DLMF 8.4.8 per argument,
exact rational powers), rounded once at wp; its err is the estimated
remainder, plus the propagated tails, plus the rounding noise
|pref| 2^-e (N + 2^(-wp-1) (M + N)) per side and 2^(1-wp) |L*| (the rule
and its parts are in lvalue_series).  The integral representation

    L* = i^{-s} R.int_{-d/c}^{i inf} f(tau) (tau + d/c)^{s-1} dtau

is evaluated term by term in closed form for genuine cusp forms
(lvalue_integral): a second route that splits the contour at t0, carries
the lower leg over by gamma and recombines the moments of (tau + d/c)^m.

The pairing block: Petersson products of cusp-form Poincare series have the
closed unfolding form (petersson_poincare); expressing their period vectors
through L-values of the supplementary functions turns the Gram matrix into
a sesquilinear form in those L-values, which fit_pairing recovers (minimum
norm) and predict_gram applies to held-out pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp, mpc_mul, mpf_exp, pi_fixed, round_nearest, to_float

from .automorphy import AutomorphyData
from .groups import GroupElement, generators
from .poincare import _CSum, _prefactor_prec, _value, coefficient_envelope, poincare_series
from .precision import exp2pi
from .quadrature import _moments, _require_scalar
from .series import FourierSeries, TruncationParams
from .specialfn import gamma_upper

__all__ = [
    "TwistSpec",
    "LValue",
    "lvalue_series",
    "lvalue_integral",
    "petersson_poincare",
    "PairingMatrix",
    "fit_pairing",
    "predict_gram",
    "period_feature_vector",
]


@dataclass(frozen=True)
class TwistSpec:
    """Twist by zeta_c^{-d} attached to a group element with c != 0."""

    gamma: GroupElement

    def __post_init__(self):
        if self.gamma.c == 0:
            raise ValueError("twists need a group element with c != 0")

    @classmethod
    def from_element(cls, gamma: GroupElement, lam=1) -> "TwistSpec":
        """The twist of whichever of +-gamma has c > 0.  lam, the cusp width,
        stays accepted for callers that pass it, and must be 1."""
        if lam != 1:
            raise ValueError(f"cusp width lambda = {lam}: only lambda = 1 is built")
        return cls(-gamma if gamma.c < 0 else gamma)

    def zeta_power(self, x) -> mpmath.mpc:
        """e^{2 pi i x / c} for rational x; exactly 1 at x = 0."""
        return exp2pi(Fraction(x) / self.gamma.c)


@dataclass
class LValue:
    s: int
    twist: TwistSpec
    value: mpmath.mpc
    lstar: mpmath.mpc
    method: str
    t0: float
    err: float


def _fixed(parts):
    """(re, im, e) with (re + i im) 2^e exactly the mpc whose mpf tuples are parts."""
    e = min((p[2] for p in parts if p[1]), default=0)
    re, im = ((-1) ** sign * man << (exp - e) if man else 0 for sign, man, exp, _bc in parts)
    return re, im, e


def _gamma_sweep(q: Fraction, orders) -> dict:
    """{n: (G, 0, E, D)}: Gamma(n, x) = G 2^E within D 2^E, x = 2 pi q, for the
    orders n >= 1, by one integer sweep of DLMF 8.4.8, Gamma(n, x) =
    (n-1)! e^{-x} sum_{j<n} x^j/j!, at p bits: X = x 2^p within 2 units,
    T_0 = 2^p, T_j = ((T_{j-1} X) >> p) // j, and one exp, e^{-X 2^-p} = m 2^E'
    at p bits; G = (n-1)! m sum_{j<n} T_j, E = E' - p.  Two floors a step put
    the partial sums within 2n sum_{j<n} |x|^j/j! units, so with X and exp
    the error is under (2n+6) 2^-p e^{|x|-x} Gamma(n, |x|) <= D 2^E, D =
    ((2n+7) (n-1)! m sum_{j<n} |T_j| >> p) + 1.  p = wp + max(10,
    bit_length(2N+3) + 1) (+ 4 pi |q| log2(e) + 1 when x < 0, the sum's
    cancellation) puts G 2^E within 2^-wp (|Gamma(n, x)| + Gamma(n, |x|));
    for N <= 254, p does not depend on the orders asked.
    """
    n_max = max(orders, default=0)
    prec = mpmath.mp.prec + max(10, (2 * n_max + 3).bit_length() + 1)
    if q.numerator < 0:
        prec += math.ceil(4 * math.pi * 1.4426950408889634 * float(-q)) + 1
    g = (2 * abs(q.numerator)).bit_length()
    big_x = 2 * q.numerator * pi_fixed(prec + g) // (q.denominator << g)
    _s, man, exp, _bc = mpf_exp(from_man_exp(-big_x, -prec), prec, round_nearest)
    term, psum, apsum, fact, out = 1 << prec, 0, 0, 1, {}
    for n in range(1, n_max + 1):
        psum, apsum = psum + term, apsum + abs(term)
        if n in orders:
            out[n] = (fact * psum * man, 0, exp - prec,
                      ((2 * n + 7) * fact * apsum * man >> prec) + 1)
        term = ((term * big_x) >> prec) // n
        fact *= n
    return out


def _power(fr: Fraction, n: int):
    """fr^-n = up/down exactly, down > 0: (-1)^n |fr|^-n for fr < 0."""
    if n < 0:
        return fr.numerator ** -n, fr.denominator ** -n
    up, down = fr.denominator ** n, fr.numerator ** n
    return (-up, -down) if down < 0 else (up, down)


def _fixed_sum(terms, n: int, pref) -> _CSum:
    """pref sum_m A G fr^-n over terms (fr, t, A, G), call at wp: the sum is
    re + i im at 2^-e, P = wp + bit_length(terms) + 8 bits below its largest
    term.  A is an exact (re, im, e) triple, G one with a fourth entry d
    (Gamma within d units of its 2^e), t = tail / |a|.  A term enters
    floored, off by under 2 units plus its Gamma bound carried through |A|
    |fr^-n|, D_m + 1 units (D_m its floor).  With N = sum (3 + D_m), M the
    terms' sum of |re| + |im| and T = sum t (|re| + |im| + 3 + D_m), tail is
    |pref| 2^-e T and noise |pref| 2^-e (N + 2^(-wp-1) (M + N)), where
    2^(-wp-1) (M + N) covers the twist phases and the prefactor."""
    terms = [(a, gam, _power(fr, n), t) for fr, t, a, gam in terms]
    e = mpmath.mp.prec + len(terms).bit_length() + 8 - max(
        ((abs(ar) + abs(ai)).bit_length() + (abs(gr) + abs(gi)).bit_length() + ae + ge
         + abs(up).bit_length() - down.bit_length() + 1
         for (ar, ai, ae), (gr, gi, ge, _d), (up, down), _t in terms), default=0)
    re = im = noise = mag = 0
    tail = 0.0
    for (ar, ai, ae), (gr, gi, ge, d), (up, down), t in terms:
        xr, xi = (ar * gr - ai * gi) * up, (ar * gi + ai * gr) * up
        xd = (abs(ar) + abs(ai)) * d * abs(up)
        sh = ae + ge + e
        if sh >= 0:
            xr, xi, xd = xr << sh, xi << sh, xd << sh
        else:
            xr, xi, xd = xr >> -sh, xi >> -sh, xd >> -sh
        tr, ti, dn = xr // down, xi // down, xd // down
        re, im, u = re + tr, im + ti, abs(tr) + abs(ti)
        noise, mag, tail = noise + 3 + dn, mag + u, tail + t * (u + 3 + dn)
    unit = math.ldexp(float(abs(pref)), -e)
    return _CSum(None, pref, None, unit * tail, re=re, im=im, e=e,
                 noise=unit * (noise + 2.0 ** (-mpmath.mp.prec - 1) * (mag + noise)))


def _gamma_majorant(s: int, x: float) -> float:
    """Certified upper bound on Gamma(s, x), integer s, real x > 0: DLMF 8.4.8
    for s > 1, x^{s-1} e^{-x} (DLMF 8.10.1) for s <= 1; exps of double sums
    of logs, each exponent off by under `slack`, plus a subnormal a term."""
    log_x = math.log(x)
    total = math.fsum(math.exp(math.lgamma(s) - x + j * log_x - math.lgamma(j + 1))
                      for j in range(s)) if s > 1 else math.exp((s - 1) * log_x - x)
    slack = 2.0**-48 * (x + (abs(s) + 1) * (abs(log_x) + math.lgamma(abs(s) + 2)))
    return total * (1 + 2 * slack) + max(s, 1) * math.ulp(0.0)


def lvalue_series(f: FourierSeries, twist: TwistSpec, s, t0: float = 1.0,
                  trunc: TruncationParams | None = None):
    """Twisted L-values by the incomplete-gamma series (the regularization).

    s is an integer >= 1 (one LValue) or a sequence of them (a list, in
    order), all from one pass over the stored coefficients: a coefficient's
    frequency, twist phases and Gamma(n, x) at every order n >= 1 needed
    come once, from one _gamma_sweep per argument (one for both when
    x1 = x2).  An order <= 0 (s >= weight) calls gamma_upper, taken to be
    within 2^(3-wp) (|re| + |im|).  Each side of L* is one exact integer sum
    (_fixed_sum) of A G fr^-n: A = a(m) zeta exactly, zeta at
    _prefactor_prec(w) bits (1 at x = 0), and fr^-n exact, so a negative
    base b gives (-1)^n |b|^n; its prefactor pref, the powers of 2 pi
    and the side-2 phase, is kept at _prefactor_prec(max(w, s)) bits.  L* is
    rounded once at wp (poincare._value).  err has three parts:
      - the estimated remainder past the stored range (the coefficient
        envelope at the first omitted index, of a guessed order, times
        certified gamma majorants);
      - the propagated coefficient tails, each side's tail;
      - the rounding noise, each side's noise plus 2^(1-wp) |L*|.
    wp is the working precision of the context of trunc when given, else
    of f.
    """
    s_list = list(s) if hasattr(s, "__iter__") else [s]
    _require_scalar(f)
    kappa = f.automorphy.kappa_of(1)
    terms = [(m, m + kappa, am) for (m, _j), am in f.items()]  # dim 1: j = 1
    if not f.has_zero_constant_term():
        raise ValueError("L-series require a vanishing constant term")
    if any(si < 1 for si in s_list):
        raise ValueError("critical values are taken at integer s >= 1")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    g = twist.gamma
    if not f.automorphy.group.contains(g):
        raise ValueError(f"{g.as_tuple()} is not in Gamma_0({f.automorphy.group.level})")
    ctx = (trunc or f.truncation).ctx
    w = f.weight
    # estimated remainder past the stored range (positive-frequency side)
    rem = dict.fromkeys(s_list, 0.0)
    if terms:
        m_top = terms[-1][0] + 1
        order = -min((m for m, fr, _a in terms if fr < 0), default=0)  # guessed
        env = coefficient_envelope(f.automorphy, w, order, 1, m_top, 1)
        x1t = 2 * math.pi * float(m_top + kappa) * t0
        x2t = 2 * math.pi * float(m_top + kappa) / (g.c * g.c * t0)
        for si in rem:
            rem[si] = 2 * (env * (_gamma_majorant(si, x1t) + g.c ** (w - 2 * si)
                                  * _gamma_majorant(w - si, x2t)))
    orders1, orders2 = set(s_list), {w - si for si in s_list if w - si >= 1}
    orders0 = {w - si for si in s_list} - orders2  # through gamma_upper
    r1, r2 = Fraction(t0), 1 / (g.c * g.c * Fraction(t0))  # x = 2 pi fr r
    one_sweep, orders12 = r1 == r2, orders1 | orders2  # x1 = x2
    rows = []  # (fr, tail/|a|, A at side 1, Gamma at x1, A at side 2, Gamma at x2)
    with ctx.working():
        wp = mpmath.mp.prec
        with mpmath.workprec(_prefactor_prec(w)):
            chi_g = f.automorphy.scalar_character(1).value(g)
            for m, fr, am in terms:
                am = am if isinstance(am, mpmath.mpc) else mpmath.mpc(am)
                a = _fixed(am._mpc_)
                if not (a[0] or a[1]):
                    continue
                gam1 = _gamma_sweep(fr * r1, orders12 if one_sweep else orders1)
                gam2 = gam1 if one_sweep else _gamma_sweep(fr * r2, orders2)
                for n in orders0:
                    gr, gi, ge = _fixed(gamma_upper(n, 2 * mpmath.pi * (fr * r2), ctx)._mpc_)
                    gam2[n] = (gr, gi, ge, ((abs(gr) + abs(gi)) >> (wp - 3)) + 1)
                a1, a2 = [_fixed(mpc_mul(am._mpc_, twist.zeta_power(x * fr)._mpc_, 0))
                          if x else a for x in (-g.d, g.a)]
                tb = f.tails.get((m, 1), 0.0)
                tb = tb and tb / math.hypot(*map(to_float, am._mpc_))  # tail / |a|
                rows.append((fr, tb, a1, gam1, a2, gam2))
        two_pi, out = 2 * mpmath.pi, []
        for si in s_list:
            with mpmath.workprec(_prefactor_prec(max(w, si))):
                # i^w times the arg(-c)^(w - 2s) phase e(w/2 - s) for c > 0
                prefs = ((2 * mpmath.pi) ** -si, exp2pi(Fraction(3 * w, 4))
                         * mpmath.mpf(g.c) ** (w - 2 * si) * (2 * mpmath.pi) ** (si - w) / chi_g)
            sums = [_fixed_sum([(r[0], r[1], r[2 + 2 * k], r[3 + 2 * k][n]) for r in rows],
                               n, pref) for k, (n, pref) in enumerate(zip((si, w - si), prefs))]
            lstar = _value(sums)
            err = rem[si] + sum(s.tail + s.noise for s in sums) + 2.0 ** (1 - wp) * float(abs(lstar))
            out.append(LValue(si, twist, two_pi ** si / mpmath.factorial(si - 1) * lstar, lstar,
                              "series", t0, err))
    return out if hasattr(s, "__iter__") else out[0]


def lvalue_integral(f: FourierSeries, twist: TwistSpec, s: int,
                    t0: float = 1.0) -> LValue:
    """L* = i^{-s} R.int f(tau)(tau + d/c)^{s-1} d tau from the closed-form
    ray integrals of quadrature.regularized_moment, in float64.

    err bounds the float64 rounding of the closed forms plus the stored
    coefficient tails carried through each term (quadrature._moments);
    terms past the stored range are outside this bound.  Restricted to
    genuine cusp forms; weakly holomorphic input is rejected.
    """
    if not f.is_cusp_form():
        raise ValueError("the integral oracle is restricted to cusp forms")
    if not 1 <= s <= f.weight - 1:
        raise ValueError(
            f"the contour route covers s in 1..weight-1 = {f.weight - 1}")
    (mom, err), = _moments(f, twist, [s - 1], t0)
    lstar = mpmath.mpc((-1j) ** s * mom)
    value = (2 * mpmath.pi) ** s / mpmath.factorial(s - 1) * lstar
    return LValue(s, twist, value, lstar, "integral", t0, err)


def petersson_poincare(g: FourierSeries, n: int, alpha: int,
                       data: AutomorphyData, k: int) -> mpmath.mpc:
    """(g, P_{n,alpha}) by unfolding:

        lambda c_g(-n, alpha) (lambda/(4 pi (-n+kappa_alpha)))^{k+1} Gamma(k+1)

    for cusp forms of weight k+2 with -n + kappa_alpha > 0; lambda = 1 on Gamma_0(N).
    """
    x = -n + data.kappa_of(alpha)
    if not x > 0:
        raise ValueError("Petersson unfolding needs a cusp direction")
    if (-n, alpha) not in g.coeffs:
        raise ValueError(f"coefficient at ({-n}, {alpha}) not stored")
    with g.truncation.ctx.working():
        xmp = mpmath.mpf(x.numerator) / x.denominator
        return (g.coefficient(-n, alpha) * (1 / (4 * mpmath.pi * xmp)) ** (k + 1)
                * mpmath.factorial(k))


@dataclass
class PairingMatrix:
    """Sesquilinear form on stacked period-coefficient vectors.

    B has shape (t(k+1), t(k+1)) with t the number of non-parabolic
    generators; entry order is (generator, monomial degree).  residual is
    ||A vec(B) - g|| / ||g|| over the Gram targets g (0.0 at g = 0, B = 0).
    """

    k: int
    gens: tuple
    B: np.ndarray
    residual: float
    rank: int


def period_feature_vector(rh_polys) -> np.ndarray:
    """Stacked coefficients of [r^H(f*, gamma_j; conj tau)]^- over generators.

    Conjugating at the reflected argument conjugates the coefficients, so
    the feature vector of the cusp form f is conj of the r^H coefficients
    of its supplementary function.
    """
    return np.concatenate([np.conj(p.coeffs) for p in rh_polys])


def fit_pairing(basis, data: AutomorphyData, k: int, trunc: TruncationParams,
                t0: float = 1.0, lmax: int = 60) -> PairingMatrix:
    """Fit B so that u_f^T B conj(u_g) reproduces the unfolding Gram matrix
    on all basis pairs, with u the period feature vectors via supplementary
    L-values.  Minimum-norm least squares when underdetermined (rank is
    reported; with fewer pairs than (t(k+1))^2 unknowns B is a minimum-norm
    representative of the pairing extension, not unique).  Each P_{n_i} is
    built at l in {-n_j} only, the entries the Gram targets read; lmax sets
    the length of the supplementary series.  The residual is relative to the
    targets (PairingMatrix); an empty basis, or an index that is not a cusp
    direction (supplementary), raises ValueError.
    """
    from .eichler import period_rH, supplementary

    gens = [g for g in generators(data.group) if g.c != 0]
    if not gens:
        raise ValueError("no non-parabolic generators available")
    if not basis:
        raise ValueError("the pairing fit needs a nonempty basis")
    feats, p_series, ls = [], [], sorted({-n for n, _alpha in basis})
    for (n, alpha) in basis:  # supplementary rejects an index that is not a cusp direction
        fstar = supplementary([(1, n, alpha)], data, k, trunc, lmax=lmax)
        p_series.append(poincare_series(data, k + 2, n, alpha, ls, trunc))
        feats.append(period_feature_vector(
            [period_rH(fstar, g, k, trunc, t0) for g in gens]))
    fdim = len(gens) * (k + 1)
    rows, targets = [], []
    for i, (n_i, a_i) in enumerate(basis):
        for j, (n_j, a_j) in enumerate(basis):
            gram = petersson_poincare(p_series[i], n_j, a_j, data, k)
            rows.append(np.kron(feats[i], np.conj(feats[j])))
            targets.append(complex(gram))
    a_mat = np.asarray(rows)
    b_vec = np.asarray(targets)
    sol, _res, rank, _sv = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    residual = float(np.linalg.norm(a_mat @ sol - b_vec) / (np.linalg.norm(b_vec) or 1.0))
    return PairingMatrix(k, tuple(gens), sol.reshape(fdim, fdim), residual, int(rank))


def predict_gram(pm: PairingMatrix, rh_f_polys, rh_g_polys) -> complex:
    """Predicted (f, g) from the fitted pairing and the r^H polynomials of
    the two supplementary functions (one per non-parabolic generator)."""
    uf = period_feature_vector(rh_f_polys)
    ug = period_feature_vector(rh_g_polys)
    if uf.shape != pm.B.shape[:1] or ug.shape != pm.B.shape[:1]:
        raise ValueError("feature dimension mismatch with the fitted pairing")
    return complex(uf @ pm.B @ np.conj(ug))
