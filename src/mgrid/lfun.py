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
and L = (2 pi)^s / Gamma(s) L*.  The value is independent of t0; the
incomplete-gamma factors at the finitely many negative frequencies carry
the regularization.  lvalue_series sums it for a list of s in one pass
over the coefficients, with Gamma(n, x) at integer n >= 1 from one
fixed-point sweep of its finite sum (DLMF 8.4.8) per argument, within
2^-wp (|Gamma(n, x)| + Gamma(n, |x|)).  The integral representation

    L* = i^{-s} R.int_{-d/c}^{i inf} f(tau) (tau + d/c)^{s-1} dtau

is evaluated by quadrature for genuine cusp forms as an independent oracle.

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

from .automorphy import AutomorphyData
from .groups import GroupElement, generators
from .poincare import coefficient_envelope
from .precision import compensated_sum, exp2pi
from .quadrature import regularized_moment
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
    """Twist by zeta_{c lam}^{-d} attached to a group element with c != 0."""

    gamma: GroupElement
    lam: Fraction

    def __post_init__(self):
        if self.gamma.c == 0:
            raise ValueError("twists need a group element with c != 0")

    @classmethod
    def from_element(cls, gamma: GroupElement, lam) -> "TwistSpec":
        if gamma.c < 0:
            gamma = -gamma
        return cls(gamma, Fraction(lam))

    def zeta_power(self, x) -> mpmath.mpc:
        """e^{2 pi i x / (c lam)} for rational x; exactly 1 at x = 0."""
        return mpmath.mpc(1) if x == 0 else exp2pi(Fraction(x) / (self.gamma.c * self.lam))


@dataclass
class LValue:
    s: int
    twist: TwistSpec
    value: mpmath.mpc
    lstar: mpmath.mpc
    method: str
    t0: float
    err: float


def _gamma_sweep(x, orders) -> dict:
    """{n: Gamma(n, x)} for the given orders n >= 1 and real mpf x, by one
    sweep of DLMF 8.4.8, Gamma(n, x) = (n-1)! e^{-x} sum_{j<n} x^j/j!, in
    fixed point: X = x 2^p exactly, T_0 = 2^p, T_j = ((T_{j-1} X) >> p) // j.
    Two floors a step put the partial sums within 2n sum_{j<n} |x|^j/j!
    units, so with exp and the product at p bits the error is at most
    (2n+3) 2^-p e^{|x|-x} Gamma(n, |x|).  p = wp + max(10, bit_length(2N+3)
    + 1) + (2|x| log2(e) when x < 0, the sum's cancellation) makes every
    value, rounded to wp = mp.prec, within 2^-wp (|Gamma(n, x)| +
    Gamma(n, |x|)); for N <= 254, p does not depend on the orders asked.
    """
    n_max = max(orders, default=0)
    prec = mpmath.mp.prec + max(10, (2 * n_max + 3).bit_length() + 1)
    if x < 0:
        prec += math.ceil(2 * 1.4426950408889634 * float(-x))
    sign, man, exp, _bc = mpmath.mpf(x)._mpf_
    prec = max(prec, -exp)
    big_x = (-1) ** sign * man << (exp + prec)
    out = {}
    with mpmath.workprec(prec):
        ex = mpmath.exp(-x)
        term, psum, fact = 1 << prec, 0, 1
        for n in range(1, n_max + 1):
            psum += term
            if n in orders:
                out[n] = mpmath.ldexp(ex * (fact * psum), -prec)
            term = ((term * big_x) >> prec) // n
            fact *= n
    return {n: +g for n, g in out.items()}


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
    x1 = x2).  An order <= 0 (s >= weight) calls gamma_upper.

    All stored coefficients enter; the err field reports the estimated
    neglected remainder (a guessed coefficient envelope times certified
    gamma majorants) plus the propagated coefficient tail bounds.  The
    working precision is the context of trunc when given, else of f.
    """
    s_list = list(s) if hasattr(s, "__iter__") else [s]
    if f.automorphy.dim != 1:
        raise NotImplementedError("L-series are computed per scalar component")
    if not f.has_zero_constant_term():
        raise ValueError("L-series require a vanishing constant term")
    if any(si < 1 for si in s_list):
        raise ValueError("critical values are taken at integer s >= 1")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    ctx = (trunc or f.truncation).ctx
    w = f.weight
    g = twist.gamma
    a_g, c_g, d_g = g.a, g.c, g.d
    lam = f.automorphy.lam
    # estimated remainder past the stored range (positive-frequency side)
    rem = dict.fromkeys(s_list, 0.0)
    if f.coeffs:
        m_top = max(m for (m, _j) in f.coeffs) + 1
        order = -min((n for (n, _j) in f.principal_support()), default=0)  # guessed
        env = coefficient_envelope(f.automorphy, w, order, 1, m_top, 1)
        x1t = 2 * math.pi * float(m_top + f.automorphy.kappa_of(1)) * t0 / float(lam)
        x2t = 2 * math.pi * float(m_top + f.automorphy.kappa_of(1)) / (c_g * c_g * t0 * float(lam))
        for si in rem:
            rem[si] = 2 * (env * (_gamma_majorant(si, x1t) + c_g ** (w - 2 * si)
                                  * _gamma_majorant(w - si, x2t)))
    acc = {si: ([], [], [0.0]) for si in s_list}  # terms1, terms2, err
    orders1, orders2 = set(acc), {w - si for si in acc if w - si >= 1}
    with ctx.working():
        lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
        two_pi = 2 * mpmath.pi
        chi_g = f.automorphy.scalar_character(1).value(g)
        # i^w times the arg(-c)^(w - 2s) phase e(w/2 - s) for c > 0
        pref2 = {si: exp2pi(Fraction(3 * w, 4)) * mpmath.mpf(c_g) ** (w - 2 * si) / chi_g
                 for si in acc}
        for (m, _j), am in f.items():
            if am == 0:
                continue
            fr = f.freq(m, 1)  # m + kappa, exact Fraction
            fmp = mpmath.mpf(fr.numerator) / fr.denominator
            x1 = two_pi * fmp * t0 / lam_mp
            x2 = two_pi * fmp / (c_g * c_g * t0 * lam_mp)
            # principal powers of a possibly negative real base
            base = mpmath.mpc(two_pi * fmp / lam_mp)
            gam1 = _gamma_sweep(x1, orders1 | orders2 if x1 == x2 else orders1)
            gam2 = gam1 if x1 == x2 else _gamma_sweep(x2, orders2)
            az1 = am * twist.zeta_power(-d_g * fr)
            az2 = am * twist.zeta_power(a_g * fr)
            tb = f.tails.get((m, 1), 0.0)
            for si, (terms1, terms2, err) in acc.items():
                g1 = gam1[si]
                g2 = gam2[w - si] if w - si >= 1 else gamma_upper(w - si, x2, ctx)
                pw1 = mpmath.power(base, si)
                pw2 = mpmath.power(base, w - si)
                terms1.append(az1 * g1 / pw1)
                terms2.append(az2 * g2 / pw2)
                if tb:
                    err[0] += tb * float(abs(g1 / pw1) + abs(pref2[si]) * abs(g2 / pw2))
        out = []
        for si in s_list:
            terms1, terms2, err = acc[si]
            lstar = compensated_sum(terms1) + pref2[si] * compensated_sum(terms2)
            value = two_pi ** si / mpmath.factorial(si - 1) * lstar
            out.append(LValue(si, twist, value, lstar, "series", t0, err[0] + rem[si]))
    return out if hasattr(s, "__iter__") else out[0]


def lvalue_integral(f: FourierSeries, twist: TwistSpec, s: int,
                    t0: float = 1.0, tol: float = 1e-12) -> LValue:
    """L* by quadrature of i^{-s} R.int f(tau)(tau + d/c)^{s-1} d tau.

    Plainly convergent for genuine cusp forms, which is what this oracle is
    restricted to; weakly holomorphic input is rejected.
    """
    if not f.is_cusp_form():
        raise ValueError("the integral oracle is restricted to cusp forms")
    if not 1 <= s <= f.weight - 1:
        raise ValueError(
            f"the contour route covers s in 1..weight-1 = {f.weight - 1}")
    g = twist.gamma
    mom = regularized_moment(f, g, s - 1, t0=t0, tol=tol)
    lstar = mpmath.mpc((-1j) ** s * mom)
    value = (2 * mpmath.pi) ** s / mpmath.factorial(s - 1) * lstar
    return LValue(s, twist, value, lstar, "integral", t0, tol)


def petersson_poincare(g: FourierSeries, n: int, alpha: int,
                       data: AutomorphyData, k: int) -> mpmath.mpc:
    """(g, P_{n,alpha}) by unfolding:

        lambda c_g(-n, alpha) (lambda/(4 pi (-n+kappa_alpha)))^{k+1} Gamma(k+1)

    for cusp forms of weight k+2 with -n + kappa_alpha > 0.
    """
    x = -n + data.kappa_of(alpha)
    if not x > 0:
        raise ValueError("Petersson unfolding needs a cusp direction")
    if (-n, alpha) not in g.coeffs:
        raise ValueError(f"coefficient at ({-n}, {alpha}) not stored")
    lam = data.lam
    with g.truncation.ctx.working():
        lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
        xmp = mpmath.mpf(x.numerator) / x.denominator
        return (lam_mp * g.coefficient(-n, alpha)
                * (lam_mp / (4 * mpmath.pi * xmp)) ** (k + 1)
                * mpmath.factorial(k))


@dataclass
class PairingMatrix:
    """Sesquilinear form on stacked period-coefficient vectors.

    B has shape (t(k+1), t(k+1)) with t the number of non-parabolic
    generators; entry order is (generator, monomial degree).
    """

    k: int
    gens: tuple
    B: np.ndarray
    residual: float
    rank: int

    @property
    def feature_dim(self) -> int:
        return len(self.gens) * (self.k + 1)



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
    representative of the pairing extension, not unique).
    """
    from .eichler import period_rH, supplementary
    from .poincare import poincare_series

    gens = [g for g in generators(data.group) if g.c != 0]
    if not gens:
        raise ValueError("no non-parabolic generators available")
    feats, p_series = [], []
    for (n, alpha) in basis:
        if not -n + data.kappa_of(alpha) > 0:
            raise ValueError(f"basis index ({n},{alpha}) is not a cusp direction")
        p_series.append(poincare_series(data, k + 2, n, alpha,
                                        range(0, lmax + 1), trunc))
        fstar = supplementary([(1, n, alpha)], data, k, trunc, lmax=lmax)
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
    residual = float(np.linalg.norm(a_mat @ sol - b_vec))
    return PairingMatrix(k, tuple(gens), sol.reshape(fdim, fdim), residual, int(rank))


def predict_gram(pm: PairingMatrix, rh_f_polys, rh_g_polys) -> complex:
    """Predicted (f, g) from the fitted pairing and the r^H polynomials of
    the two supplementary functions (one per non-parabolic generator)."""
    uf = period_feature_vector(rh_f_polys)
    ug = period_feature_vector(rh_g_polys)
    if uf.shape != (pm.feature_dim,) or ug.shape != (pm.feature_dim,):
        raise ValueError("feature dimension mismatch with the fitted pairing")
    return complex(uf @ pm.B @ np.conj(ug))
