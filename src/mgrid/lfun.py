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
the regularization.  The integral representation

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
        """e^{2 pi i x / (c lam)} for rational x."""
        return exp2pi(Fraction(x) / (self.gamma.c * self.lam))


@dataclass
class LValue:
    s: int
    twist: TwistSpec
    value: mpmath.mpc
    lstar: mpmath.mpc
    method: str
    t0: float
    err: float


def _gamma_factor_bound(s: int, x: float) -> float:
    """Rough decreasing majorant of |Gamma(s, x)| for x > 0 (estimates only)."""
    if x <= 2 * max(s, 1):
        return math.gamma(max(s, 1))
    return 2.0 * x ** (s - 1) * math.exp(-x)


def lvalue_series(f: FourierSeries, twist: TwistSpec, s: int, t0: float = 1.0,
                  trunc: TruncationParams | None = None) -> LValue:
    """Twisted L-value by the incomplete-gamma series (the regularization).

    All stored coefficients enter; the err field reports the estimated
    neglected remainder plus the propagated coefficient tail bounds.  The
    working precision is the context of trunc when given, else of f.
    """
    if f.automorphy.dim != 1:
        raise NotImplementedError("L-series are computed per scalar component")
    if not f.has_zero_constant_term():
        raise ValueError("L-series require a vanishing constant term")
    if s < 1:
        raise ValueError("critical values are taken at integer s >= 1")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    ctx = (trunc or f.truncation).ctx
    w = f.weight
    g = twist.gamma
    a_g, c_g, d_g = g.a, g.c, g.d
    lam = f.automorphy.lam
    kap = f.automorphy.kappa_of(1)
    with ctx.working():
        lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
        two_pi = 2 * mpmath.pi
        # i^w times the arg(-c)^(w - 2s) phase e(w/2 - s) for c > 0
        pref2 = (exp2pi(Fraction(3 * w, 4)) * mpmath.mpf(c_g) ** (w - 2 * s)
                 / f.automorphy.scalar_character(1).value(g))
        terms1, terms2 = [], []
        err = 0.0
        for (m, _j), am in f.items():
            if am == 0:
                continue
            fr = f.freq(m, 1)  # m + kappa, exact Fraction
            fmp = mpmath.mpf(fr.numerator) / fr.denominator
            x1 = two_pi * fmp * t0 / lam_mp
            g1 = gamma_upper(s, x1, ctx)
            base = two_pi * fmp / lam_mp
            # principal power of a possibly negative real base
            pw1 = mpmath.power(mpmath.mpc(base), s)
            terms1.append(am * twist.zeta_power(-d_g * fr) * g1 / pw1)
            x2 = two_pi * fmp / (c_g * c_g * t0 * lam_mp)
            g2 = gamma_upper(w - s, x2, ctx)
            pw2 = mpmath.power(mpmath.mpc(base), w - s)
            terms2.append(am * twist.zeta_power(a_g * fr) * g2 / pw2)
            tb = f.tails.get((m, 1), 0.0)
            if tb:
                err += tb * float(abs(g1 / pw1) + abs(pref2) * abs(g2 / pw2))
        lstar = compensated_sum(terms1) + pref2 * compensated_sum(terms2)
        value = (two_pi) ** s / mpmath.factorial(s - 1) * lstar
    # estimated remainder past the stored range (positive-frequency side)
    stored = [m for (m, _j) in f.coeffs]
    if not stored:
        return LValue(s, twist, value, lstar, "series", t0, err)
    m_top = max(stored) + 1
    env = coefficient_envelope(f.automorphy, w, _poincare_order_of(f), 1, m_top, 1)
    x1t = 2 * math.pi * float(m_top + kap) * t0 / float(lam)
    x2t = 2 * math.pi * float(m_top + kap) / (c_g * c_g * t0 * float(lam))
    rem = env * (_gamma_factor_bound(s, x1t) + c_g ** (w - 2 * s)
                 * _gamma_factor_bound(w - s, x2t))
    err += 2 * rem
    return LValue(s, twist, value, lstar, "series", t0, err)


def _poincare_order_of(f: FourierSeries) -> int:
    """Heuristic order of the pole for the envelope estimate: the most
    negative stored index (0 for cusp forms)."""
    neg = [n for (n, _j) in f.coeffs if f.freq(n, _j) < 0]
    return -min(neg) if neg else 0


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

    def entry(self, alpha: int, i: int, beta: int, j: int) -> complex:
        """B_{alpha,beta}(i, j): degrees 0 <= alpha,beta <= k, generators
        1 <= i,j <= t (feature order is generator-major, degree-minor)."""
        if not (0 <= alpha <= self.k and 0 <= beta <= self.k):
            raise IndexError("degree index out of range")
        if not (1 <= i <= len(self.gens) and 1 <= j <= len(self.gens)):
            raise IndexError("generator index out of range")
        return complex(self.B[(i - 1) * (self.k + 1) + alpha,
                              (j - 1) * (self.k + 1) + beta])


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
