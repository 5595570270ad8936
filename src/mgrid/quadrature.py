"""Vertical-ray quadrature for period integrals and integral L-values.

Every contour used here is a vertical ray [z0, z0 + i*infinity) carrying an
integrand  f(z) * (P + R t)^M  with z = z0 + i t and f given by a stored
q-expansion.  Decaying Fourier terms are integrated by composite
Gauss-Legendre on [0, V] plus the closed-form tail from height V; the
finitely many exponentially growing terms (the principal part, when f is
weakly holomorphic) are integrated in closed form over the full ray, which
is exactly their regularized value: the analytic continuation of
int_0^inf t^j e^{-beta t} dt = j! / beta^{j+1} to Re(beta) < 0.
"""

from __future__ import annotations

import math

import numpy as np

from .series import FourierSeries

__all__ = ["vertical_poly_integral", "regularized_moment", "eval_component_grid"]

# the 32-point Gauss-Legendre rule on [-1, 1], used on every panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _component_terms(series: FourierSeries, j: int):
    """(float frequencies F, complex coefficients a) of component j, in the
    series' iteration order: the one float conversion a quadrature makes."""
    terms = [(float(series.freq(n, jj)), complex(v))
             for (n, jj), v in series.items() if jj == j]
    return np.array([F for F, _a in terms]), np.array([a for _F, a in terms], dtype=complex)


def _eval_terms(F: np.ndarray, a: np.ndarray, lam: float, zs: np.ndarray) -> np.ndarray:
    """sum a e^{2 pi i F z / lambda} over the terms (F, a), on a grid."""
    return a @ np.exp(2j * np.pi * np.outer(F, zs) / lam)


def eval_component_grid(series: FourierSeries, j: int, zs: np.ndarray,
                        principal: bool = True) -> np.ndarray:
    """Component j of the series on a grid of points (complex128).

    principal=False drops the exponentially growing terms (freq < 0).
    """
    F, a = _component_terms(series, j)
    keep = (F >= 0) | principal
    return _eval_terms(F[keep], a[keep], float(series.automorphy.lam), zs)


def _closed_form_ray(freqs: np.ndarray, coeffs: np.ndarray, lam: float, z0: complex,
                     P: complex, R: complex, M: int) -> complex:
    """Exact ray integral of the Fourier terms (F, a) against (P + Rt)^M.

    For each term a e^{2 pi i F z / lambda} with F != 0:
      i * a * e^{2 pi i F z0 / lambda} *
        sum_j binom(M, j) P^{M-j} R^j * j! / beta^{j+1},   beta = 2 pi F / lambda,
    the j!/beta^{j+1} factor being the regularized moment for beta < 0.
    """
    total = 0j
    for F, a in zip(freqs.tolist(), coeffs.tolist()):
        if a == 0:
            continue
        beta = 2 * math.pi * F / lam
        inner = 0j
        for m in range(M + 1):
            inner += (math.comb(M, m) * P ** (M - m) * R**m
                      * math.factorial(m) / beta ** (m + 1))
        total += 1j * a * np.exp(2j * np.pi * F * z0 / lam) * inner
    return total


def vertical_poly_integral(series: FourierSeries, j: int, z0: complex,
                           P: complex, R: complex, M: int,
                           tol: float = 1e-12) -> complex:
    """int_{z0}^{z0 + i inf} f_j(z) (P + R t)^M dz  (z = z0 + i t), regularized.

    Principal-part terms are integrated exactly; the rest by composite
    Gauss-Legendre up to a height V where the first neglected contribution
    is below tol, with the closed-form tail of the stored series added.
    Component j is converted to floats once, for every panel and both
    closed forms.
    """
    return _ray(*_component_terms(series, j), float(series.automorphy.lam), z0, P, R, M, tol)


def _ray(F: np.ndarray, a: np.ndarray, lam: float, z0: complex, P: complex,
         R: complex, M: int, tol: float) -> complex:
    """vertical_poly_integral on the converted terms (F, a) of a component."""
    value = _closed_form_ray(F[F < 0], a[F < 0], lam, z0, P, R, M)
    if not (F > 0).any():
        return value
    fmin = F[F > 0].min()
    # height where the slowest-decaying term, times polynomial growth, dies
    V = 1.0
    scale = max(abs(P), 1.0) + abs(R)
    while (math.exp(-2 * math.pi * fmin * (z0.imag + V) / lam)
           * (scale * (1 + V)) ** M > tol * 1e-2) and V < 60:
        V *= 1.25
    edges = [0.0]
    step = min(0.5, V / 4)
    while edges[-1] < V:
        edges.append(min(edges[-1] + step, V))
        step *= 2
    bulk, F_dec, a_dec = 0j, F[F >= 0], a[F >= 0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2
        ts = lo + half * (_NODES + 1)
        zs = z0 + 1j * ts
        fv = _eval_terms(F_dec, a_dec, lam, zs)
        integrand = fv * (P + R * ts) ** M
        bulk += half * np.sum(_WEIGHTS * integrand)
    bulk *= 1j  # dz = i dt
    z_top = z0 + 1j * V
    tail = _closed_form_ray(F[F > 0], a[F > 0], lam, z_top, P + R * V, R, M)
    return value + bulk + tail


def regularized_moment(series: FourierSeries, gamma, m, t0: float = 1.0,
                       tol: float = 1e-12, j: int = 1):
    """R. int_{-d/c}^{i inf} f(z) (z + d/c)^m dz for a scalar series f.

    Split at z1 = -d/c + i t0; the leg hugging the cusp is transported to a
    vertical ray at i-infinity by the group element itself:

      lower leg = -chi_f(gamma)^{-1} c^{-m} *
                  int_{gamma z1}^{i inf} f(w) (-c w + a)^{w_f - 2 - m} dw.

    m is an integer (one complex) or a sequence of them (a list, in order);
    component j is converted to floats once for both rays of every m.
    Requires c != 0 and a vanishing constant term.
    """
    a, _, c, d = gamma.as_tuple()
    if c == 0:
        raise ValueError("regularized moments need a group element with c != 0")
    if c < 0:
        gamma = -gamma
        a, _, c, d = gamma.as_tuple()
    m_list = list(m) if hasattr(m, "__iter__") else [m]
    for mi in m_list:
        if not 0 <= mi <= series.weight - 2:
            raise ValueError(
                f"moment order {mi} outside 0..weight-2 = {series.weight - 2}")
    if not series.has_zero_constant_term():
        raise ValueError("the constant term must vanish")
    data = series.automorphy
    if data.dim != 1 and j == 1 and any(jj != 1 for (_, jj) in series.coeffs):
        raise NotImplementedError("moments are implemented per scalar component")
    chi_val = complex(data.scalar_character(j).value(gamma))
    terms, lam = _component_terms(series, j), float(data.lam)
    z1 = -d / c + 1j * t0
    w0 = (a * z1 + (a * d - 1) // c) / (c * z1 + d)
    out = [_ray(*terms, lam, z1, z1 + d / c, 1j, mi, tol)  # upper leg minus lower leg
           - _ray(*terms, lam, w0, -c * w0 + a, -1j * c, series.weight - 2 - mi, tol)
           * c ** (-mi) / chi_val for mi in m_list]
    return out if hasattr(m, "__iter__") else out[0]
