"""Vertical-ray integrals for period integrals and integral L-values.

Every contour used here is a vertical ray [z0, z0 + i*infinity) carrying an
integrand  f(z) * (P + R t)^M  with z = z0 + i t and f given by a stored
q-expansion.  Each Fourier term a e^{2 pi i F z / lambda} with F != 0 has
the exact ray integral (lambda = 1 on Gamma_0(N))

  i a e^{i beta z0} sum_j binom(M, j) P^{M-j} R^j j! / beta^{j+1},
  beta = 2 pi F / lambda,

from int_0^inf t^j e^{-beta t} dt = j! / beta^{j+1}; for beta < 0 (the
principal part) it is the analytic continuation, the regularized value.
Every term goes through this one closed form.  A nonzero constant term,
whose ray integral diverges, is rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .series import FourierSeries

__all__ = ["vertical_poly_integral", "regularized_moment", "eval_component_grid"]


def _require_scalar(series: FourierSeries):
    """The one rule of the period, L-value and moment routes: they act on p = 1."""
    if series.automorphy.dim != 1:
        raise NotImplementedError("period, L-value and moment routes act on scalar series; "
                                  "apply them componentwise through a diagonal representation")


def _require_t0(t0):
    """The one split-height rule of the twisted routes: t0 finite and positive."""
    if not (math.isfinite(t0) and t0 > 0):
        raise ValueError(f"t0 must be finite and positive, got {t0}")


def _component_terms(series: FourierSeries, j: int):
    """(float frequencies F, complex coefficients a, tails) of component j,
    in the series' iteration order: the one float conversion a ray makes."""
    terms = [(float(series.freq(n, jj)), complex(v), series.tails.get((n, jj), 0.0))
             for (n, jj), v in series.items() if jj == j]
    return (np.array([F for F, _a, _t in terms]), np.array([a for _F, a, _t in terms], dtype=complex),
            np.array([t for _F, _a, t in terms]))


def eval_component_grid(series: FourierSeries, j: int, zs) -> np.ndarray:
    """Component j of the stored series at points zs of the upper half-plane
    (complex128, every stored term, no bound)."""
    zs = np.asarray(zs, dtype=complex)
    series.automorphy.kappa_of(j)  # ValueError outside 1..dim
    if not (zs.imag > 0).all():
        raise ValueError("points must lie in the upper half-plane")
    F, a, _tails = _component_terms(series, j)
    return a @ np.exp(2j * np.pi * np.outer(F, zs))


def _ray(F: np.ndarray, a: np.ndarray, tails: np.ndarray, z0: complex,
         P: complex, R: complex, M: int):
    """(value, bound) of the closed forms (module docstring) of the converted
    terms of a component at the float z0, P and R.  With x = R / beta the
    inner sum is g_M / beta, g_0 = 1, g_i = P^i + i x g_{i-1}; G_M, the same
    recurrence on |P| and |x|, majorises it, and mag = |e^{i beta z0}| G_M /
    |beta| is a term's size per unit coefficient.  bound is
      - 2^-53 sum |a| mag (32 + 12 M + 8 |beta z0|), the rounding: beta is
        within 5 roundings, g_M within 11 M of G_M (a complex product, a
        scaling and an add per step, with the errors of x and P^i), i beta z0
        within 6, so the exponential within 6 |beta z0| + 8 (numpy's exp, cos
        and sin taken within 2 ulps), and a's conversion, the last products,
        the division and each part's fsum add 15;
      - sum t mag, the stored coefficient tails t carried through each term.
    """
    if (a[F == 0] != 0).any():
        raise ValueError("a nonzero constant term has a divergent ray integral")
    F, a, tails = F[F != 0], a[F != 0], tails[F != 0]
    beta = 2 * math.pi * F
    x = R / beta
    g, G, p = np.ones(len(F), dtype=complex), np.ones(len(F)), 1 + 0j
    for i in range(1, M + 1):
        p *= P
        g, G = p + i * x * g, abs(P) ** i + i * np.abs(x) * G
    w = 1j * beta * z0
    terms = 1j * a * np.exp(w) * g / beta
    mag = np.exp(w.real) * G / np.abs(beta)
    value = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    rounding = 2.0**-53 * math.fsum((np.abs(a) * mag * (32 + 12 * M + 8 * np.abs(w))).tolist())
    # an infinite tail is an infinite bound, also where its term's mag underflows
    carried = math.inf if np.isinf(tails).any() else math.fsum((tails * mag).tolist())
    return value, rounding + carried


def vertical_poly_integral(series: FourierSeries, j: int, z0: complex,
                           P: complex, R: complex, M: int) -> complex:
    """int_{z0}^{z0 + i inf} f_j(z) (P + R t)^M dz  (z = z0 + i t), regularized,
    term by term in closed form (module docstring).  Raises ValueError on a
    nonzero constant term."""
    return _ray(*_component_terms(series, j), z0, P, R, M)[0]


def _moments(series: FourierSeries, twist, m_list, t0: float) -> list:
    """[(moment, bound)] for each m of m_list at the element (any sign of c)
    of the lfun.TwistSpec twist: _ray's bounds of both legs, plus 2^-50 of
    the lower leg for its factor c^-m / chi (|c|^-m) and 2^-52 of both for
    the difference.  The points -d/c + i t0, its image a/c + i/(c^2 t0) and
    the lower leg's P = -i/(c t0) round once or twice; that is outside the
    bound (they are exact for S at t0 = 1)."""
    _require_t0(t0)
    data, gamma = series.automorphy, twist.gamma
    if not data.group.contains(gamma):
        raise ValueError(f"{gamma.as_tuple()} is not in Gamma_0({data.group.level})")
    a, _, c, d = gamma.as_tuple()
    for mi in m_list:
        if not 0 <= mi <= series.weight - 2:
            raise ValueError(
                f"moment order {mi} outside 0..weight-2 = {series.weight - 2}")
    _require_scalar(series)
    chi_val = complex(data.scalar_character(1).value(gamma))
    terms = _component_terms(series, 1)
    z1, w0 = -d / c + 1j * t0, a / c + 1j / (c * c * t0)
    out = []
    for mi in m_list:  # upper leg minus lower leg
        up, up_err = _ray(*terms, z1, 1j * t0, 1j, mi)
        low, low_err = _ray(*terms, w0, -1j / (c * t0), -1j * c, series.weight - 2 - mi)
        low, low_err = low * c ** (-mi) / chi_val, (low_err + 2.0**-50 * abs(low)) * abs(c) ** (-mi)
        out.append((up - low, up_err + low_err + 2.0**-52 * (abs(up) + abs(low))))
    return out


def regularized_moment(series: FourierSeries, gamma, m, t0: float = 1.0):
    """R. int_{-d/c}^{i inf} f(z) (z + d/c)^m dz for a scalar series f.

    Split at z1 = -d/c + i t0; the leg hugging the cusp is transported to a
    vertical ray at i-infinity by the group element itself:

      lower leg = -chi_f(gamma)^{-1} c^{-m} *
                  int_{gamma z1}^{i inf} f(w) (-c w + a)^{w_f - 2 - m} dw.

    m is an integer (one complex) or a sequence of them (a list, in order);
    f is converted to floats once for both rays of every m.  Requires
    c != 0, gamma in the series' group and a vanishing constant term.
    """
    from .lfun import TwistSpec  # lfun imports this module

    twist = TwistSpec.from_element(gamma)
    out = [v for v, _err in _moments(series, twist, list(m) if hasattr(m, "__iter__") else [m], t0)]
    return out if hasattr(m, "__iter__") else out[0]
