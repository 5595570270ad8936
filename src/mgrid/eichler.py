"""Eichler integrals, supplementary functions and period polynomials.

For f = sum a(n,j) e^{2 pi i (n+kappa_j) tau/lambda} of weight k+2 with
vanishing constant term, the order-(k+1) primitive and its variants are

    E_f:  coefficient map a(n,j) -> a(n,j) ((n+kappa_j)/lambda)^{-(k+1)},
    E^H_f = E_f + c_f            (c_f the constant forced by the principal part),
    E^N_f = (1/c_{k+2}) [ int_tau^{i inf} f(z) (conj(tau)-z)^k dz ]^-   (cusp f),

with c_{k+2} = -k!/(2 pi i)^{k+1} and lambda = 1 on Gamma_0(N).  The period
polynomials

    r   = c_{k+2} (E_f  - E_f |_{-k} gamma),
    r^H = c_{k+2} (E^H_f - E^H_f |_{-k} gamma),
    r^N = c_{k+2} (E^N_f - E^N_f |_{-k} gamma)

have degree <= k; r is assembled from k+1 critical twisted L-values, r^N
from closed-form ray moments, and r^H differs from r by the constant-term
correction  c_{k+2} c_f (1 - chi(gamma)^{-1} c^k (tau + d/c)^k).

Period routines are implemented for scalar series (p = 1); a diagonal
representation reduces componentwise to this case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from . import lfun
from .automorphy import AutomorphyData, conjugate, n_prime
from .groups import GroupElement, moebius
from .poincare import Walk, constant_term_cf
from .quadrature import _moments, vertical_poly_integral
from .series import FourierSeries, TruncationParams

__all__ = [
    "PeriodPolynomial",
    "c_weight",
    "eichler_E",
    "eichler_EH",
    "eichler_EN",
    "supplementary",
    "period_r",
    "period_r_parabolic",
    "period_rH",
    "period_r_quadrature",
    "period_rN",
    "check_supplementary_identity",
    "slash_poly_value",
    "SAMPLE_POINTS",
]

# Fixed generic sample points, away from the real axis.
SAMPLE_POINTS = (1j, 1 / 3 + 1j, -0.25 + 2j, 0.1 + 0.7j, -0.6 + 1.5j)


def c_weight(w: int) -> complex:
    """c_w = -(w-2)!/(2 pi i)^{w-1}; period normalization for weight w."""
    return complex(-mpmath.factorial(w - 2) / (2j * mpmath.pi) ** (w - 1))


@dataclass
class PeriodPolynomial:
    """Degree <= k polynomial sum_i coeffs[i] (tau + shift)^i.

    shift = d/c for a hyperbolic/elliptic gamma, 0 for parabolic ones.
    """

    gamma: GroupElement
    k: int
    coeffs: np.ndarray
    shift: float = field(default=0.0)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.k + 1,):
            raise ValueError("need exactly k+1 coefficients")

    def __call__(self, tau) -> complex:
        return complex(np.polyval(self.coeffs[::-1], complex(tau) + self.shift))

    def conjugate_reflected(self) -> "PeriodPolynomial":
        """tau -> conj(P(conj(tau))): conjugates the coefficients (real shift)."""
        return PeriodPolynomial(self.gamma, self.k, np.conj(self.coeffs), self.shift)


def _require_scalar(f: FourierSeries):
    if f.automorphy.dim != 1:
        raise NotImplementedError(
            "period/Eichler routines act on scalar series; apply them "
            "componentwise through a diagonal representation"
        )


def _require_weight(f: FourierSeries, k: int):
    if f.weight != k + 2:
        raise ValueError(f"series weight {f.weight} != k+2 = {k + 2}")


def eichler_E(f: FourierSeries, k: int) -> FourierSeries:
    """Coefficient-level Eichler primitive of order k+1 (weight -k series)."""
    _require_weight(f, k)
    if not f.has_zero_constant_term():
        raise ValueError("Eichler primitive needs a vanishing constant term")
    return f.freq_power(-k, -(k + 1))


def eichler_EH(f: FourierSeries, k: int, trunc: TruncationParams):
    """(E_f, c_f values, c_f tails): the primitive, and the constant its
    principal part forces with its tail bound, one per component."""
    e = eichler_E(f, k)
    cf_vals, cf_tails = constant_term_cf(f, trunc)
    return e, cf_vals, cf_tails


def eichler_EN(f: FourierSeries, tau, k: int) -> complex:
    """E^N_f(tau) for a genuine cusp form, by its closed-form ray integral."""
    _require_scalar(f)
    _require_weight(f, k)
    if not f.is_cusp_form():
        raise ValueError("E^N is defined only for cusp forms")
    tau = complex(tau)
    integral = vertical_poly_integral(f, 1, tau, tau.conjugate() - tau, -1j, k)
    return integral.conjugate() / c_weight(k + 2)


def _supplementary_terms(combo, data: AutomorphyData) -> list:
    """The terms (conj(b_i), n_i', alpha_i) of f* for the terms (b_i, n_i,
    alpha_i) of the cusp form f; each must satisfy -n_i + kappa_{alpha_i} > 0."""
    for (_b, n, alpha) in combo:
        if not -n + data.kappa_of(alpha) > 0:
            raise ValueError(f"(n, alpha) = ({n}, {alpha}) is not a cusp direction")
    return [(mpmath.conj(b), n_prime(n, data.kappa_of(alpha)), alpha) for b, n, alpha in combo]


def supplementary(combo, data: AutomorphyData, k: int, trunc: TruncationParams,
                  lmax: int = 12) -> FourierSeries:
    """f* = sum conj(b_i) P_{n_i', alpha_i} on the conjugate automorphy, at
    l = 0..lmax, from one engine walk (poincare.Walk.series).

    combo is a list of (b_i, n_i, alpha_i) describing the cusp form
    f = sum b_i P_{n_i, alpha_i}; each index must satisfy
    -n_i + kappa_{alpha_i} > 0.  Each coefficient is rounded once.
    """
    walk = Walk(trunc)
    fstar = walk.series(conjugate(data), k + 2, _supplementary_terms(combo, data),
                        range(0, lmax + 1))
    walk.run()
    return fstar()


def period_r_parabolic(f: FourierSeries, gamma: GroupElement, k: int) -> PeriodPolynomial:
    """Zero polynomial: the Eichler primitive is periodic under +-T^m."""
    _require_scalar(f)
    _require_weight(f, k)
    if gamma.c != 0:
        raise ValueError("parabolic period requested for c != 0")
    if abs(gamma.a) != 1:
        raise ValueError(f"{gamma.as_tuple()} is not +-T^m")
    return PeriodPolynomial(gamma, k, np.zeros(k + 1, dtype=complex), 0.0)


def _period(f: FourierSeries, gamma: GroupElement, k: int, route) -> PeriodPolynomial:
    """sum_n u_n binom(k, n) w_n (tau + d/c)^{k-n}, the one assembler of the
    period polynomials: route(twist) gives the k+1 pairs (u_n, w_n) at the
    twist of gamma (lfun.TwistSpec, c > 0); the parabolic polynomial at c = 0."""
    if gamma.c == 0:
        return period_r_parabolic(f, gamma, k)
    _require_scalar(f)
    _require_weight(f, k)
    twist = lfun.TwistSpec.from_element(gamma)
    g = twist.gamma
    coeffs = np.zeros(k + 1, dtype=complex)
    for n, (u, w) in enumerate(route(twist)):
        coeffs[k - n] = u * math.comb(k, n) * w
    return PeriodPolynomial(g, k, coeffs, shift=g.d / g.c)


def period_r(f: FourierSeries, gamma: GroupElement, k: int,
             trunc: TruncationParams, t0: float = 1.0) -> PeriodPolynomial:
    """r(f, gamma; tau) from the k+1 critical twisted L-values, one pass:

        sum_{n=0}^k i^{1-n} binom(k,n) L*(f, zeta_{c lam}^{-d}, n+1)
                    (tau + d/c)^{k-n}.
    """
    return _period(f, gamma, k, lambda twist: [
        (complex(1j ** (1 - n)), complex(lv.lstar))
        for n, lv in enumerate(lfun.lvalue_series(f, twist, range(1, k + 2), t0=t0, trunc=trunc))])


def _constant_correction(f: FourierSeries, gamma: GroupElement, k: int,
                         trunc: TruncationParams) -> np.ndarray:
    """Coefficients of c_{k+2} c_f (1 - chi(g)^{-1} c^k (tau + d/c)^k)."""
    cf_vals, _ = constant_term_cf(f, trunc)
    cf = complex(cf_vals[0])
    out = np.zeros(k + 1, dtype=complex)
    if cf == 0:
        return out
    ck2 = c_weight(k + 2)
    chi_inv = complex(f.automorphy.scalar_character(1).value(gamma)) ** -1
    out[0] = ck2 * cf
    out[k] += -ck2 * cf * chi_inv * gamma.c**k
    return out


def period_rH(f: FourierSeries, gamma: GroupElement, k: int,
              trunc: TruncationParams, t0: float = 1.0) -> PeriodPolynomial:
    """r^H = r + constant-term correction (nonzero only when kappa_1 = 0
    and f has a pole; in particular r^H = r for genuine cusp forms)."""
    base = period_r(f, gamma, k, trunc, t0)
    if base.gamma.c == 0:  # r^H = r = 0 at +-T^m
        return base
    corr = _constant_correction(f, base.gamma, k, trunc)
    return PeriodPolynomial(base.gamma, k, base.coeffs + corr, base.shift)


def period_r_quadrature(f: FourierSeries, gamma: GroupElement, k: int,
                        t0: float = 1.0) -> PeriodPolynomial:
    """r(f, gamma; tau) as the regularized path integral

        R.int_{gamma^{-1}(i inf)}^{i inf} f(z) (tau - z)^k dz,

    expanded through the moments M_m = R.int f(z) (z + d/c)^m dz, from one
    float conversion of f, each ray term in closed form (quadrature).
    Independent of the L-series route.
    """
    return _period(f, gamma, k, lambda twist: [
        ((-1) ** m, mom) for m, (mom, _e) in enumerate(_moments(f, twist, range(k + 1), t0))])


def period_rN(f: FourierSeries, gamma: GroupElement, k: int,
              t0: float = 1.0) -> PeriodPolynomial:
    """r^N(f, gamma; tau) = [ int_{gamma^{-1}(i inf)}^{i inf} f(z)
    (conj(tau) - z)^k dz ]^-  for a genuine cusp form: the moments of
    period_r_quadrature, conjugated."""
    if not f.is_cusp_form():
        raise ValueError("r^N is defined only for cusp forms")
    return _period(f, gamma, k, lambda twist: [
        ((-1) ** m, mom.conjugate())
        for m, (mom, _e) in enumerate(_moments(f, twist, range(k + 1), t0))])


def slash_poly_value(poly: PeriodPolynomial, data: AutomorphyData, k: int,
                     gamma: GroupElement, tau) -> complex:
    """(poly |_{-k, chi} gamma)(tau) = chi(g)^{-1} (c tau + d)^k poly(g tau)."""
    chi_inv = complex(data.scalar_character(1).value(gamma)) ** -1
    tau = complex(tau)
    jfac = (gamma.c * tau + gamma.d) ** k
    return chi_inv * jfac * poly(moebius(gamma, tau))


def check_supplementary_identity(combo, data: AutomorphyData, k: int,
                                 gamma: GroupElement, trunc: TruncationParams,
                                 lmax: int = 60) -> float:
    """Max normalized residual of r^H(f, g; tau) = [r^H(f*, g; conj tau)]^-
    over SAMPLE_POINTS, for f = sum b_i P_{n_i,alpha_i} a cusp form.

    f (on (chi, rho)) and f* (on (chi-bar, rho-bar)) come from one engine
    walk at l = 0..lmax, sharing its boxes.  Both sides then run through
    their own L-value pipelines: the left on the coefficients of f, the
    right on those of the supplementary function.
    """
    if not combo:
        return 0.0
    walk, ls, terms = Walk(trunc), range(0, lmax + 1), _supplementary_terms(combo, data)
    f = walk.series(data, k + 2, combo, ls)
    fstar = walk.series(conjugate(data), k + 2, terms, ls)
    walk.run()
    f, fstar = f(), fstar()
    lhs = period_rH(f, gamma, k, trunc)
    rhs = period_rH(fstar, gamma, k, trunc).conjugate_reflected()
    vals = [(lhs(t), rhs(t)) for t in SAMPLE_POINTS]
    scale = max(max(abs(v) for v, _w in vals), 1.0)
    return max(abs(v - w) for v, w in vals) / scale
