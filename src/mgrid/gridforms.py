"""The dual grid: weakly holomorphic forms f and harmonic partners G.

For k > 0 and indices n1 - kappa_{alpha_1} >= 0, n2 - kappa'_{alpha_2} > 0:

  * f_{n1,alpha1} is the weight-(k+2) Poincare series on (chi, rho);
  * G_{n2,alpha2} lives at weight -k on (chi-bar, rho-bar).  Its holomorphic
    part is the order-(k+1) Eichler primitive of the weight-(k+2) Poincare
    series on the conjugate data, rescaled so the leading coefficient is 1:

        b(l, j) = a_{n2,alpha2,conj}(l, j) * ((-n2+kappa'_a2)/(l+kappa'_j))^{k+1},

    plus a constant term (present only in components with kappa_j = 0); its
    non-holomorphic coefficients are read off the shadow Poincare series
    P_{n2', alpha2} on (chi, rho) through the weight-raising image of the
    incomplete-gamma factor:

        b^-(l, j) = (-1)^k / k! * ((-n2+kappa'_a2)/(m+kappa_j))^{k+1}
                    * conj(a_{n2',alpha2}(m, j)),
        with l + kappa'_j = -(m + kappa_j).

The two families pair off through the antisymmetric coefficient identity
(`verify_duality`), and the operator images `apply_Dk1` / `apply_xi`
reproduce scaled Poincare series, which is what the checks here verify.

Integer weights only, k >= 1, rho(-I) = I.  The half-integer prototype of
the duality (theta multiplier, plus space) and Weil representations are
out of scope; vanishing at cusps other than i-infinity holds for the
built-in construction and is not re-verified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .automorphy import AutomorphyData, conjugate, n_prime
from .poincare import Walk
from .series import FourierSeries, TruncationParams

__all__ = [
    "HarmonicForm",
    "GridPair",
    "build_grid",
    "build_pair",
    "build_f",
    "build_G",
    "verify_duality",
    "apply_Dk1",
    "apply_xi",
    "check_main2_symmetry",
    "DualityReport",
]


@dataclass
class HarmonicForm:
    """Harmonic weak Maass form of weight -k on the conjugate automorphy.

    holo:    FourierSeries of the holomorphic part (leading coefficient 1
             at (-n2, alpha2), constant term included).
    nonholo: map (l, j) -> b^-(l, j) on indices with l + kappa'_j < 0.
    shadow:  the cusp-form Poincare series P_{n2',alpha2} on (chi, rho).
    """

    k: int
    n2: int
    alpha2: int
    holo: FourierSeries
    nonholo: dict
    nonholo_tails: dict
    shadow: FourierSeries

    @property
    def conj_data(self) -> AutomorphyData:
        return self.holo.automorphy

    def b_minus(self, l: int, j: int = 1):
        return self.nonholo.get((l, j), mpmath.mpc(0))


@dataclass
class GridPair:
    f: FourierSeries
    G: HarmonicForm
    duality: "DualityReport"


def build_grid(data: AutomorphyData, k: int, trunc: TruncationParams, f=(), G=(),
               duality=(), lmax: int = 12) -> tuple:
    """([f_{n1,alpha1} per (n1, alpha1) in f], [G_{n2,alpha2} per (n2, alpha2)
    in G], [DualityReport per (n1, alpha1, n2, alpha2) in duality]) from one
    engine walk over c (poincare.Walk), whose boxes and root tables every
    c-sum on (chi, rho) and on (chi-bar, rho-bar) reads.  The duality lhs is
    f's entry at l = idx2, a yp > 0 rhs G+'s at l = idx1 and a yp = 0 rhs
    G+'s constant term: one c-sum each (Walk._add).
    """
    if k < 1:
        raise ValueError("grid weight parameter k must be a positive integer")
    cdata, w, ls = conjugate(data), k + 2, range(0, lmax + 1)
    for n1, alpha1 in [*f, *(p[:2] for p in duality)]:
        if not n1 - data.kappa_of(alpha1) >= 0:
            raise ValueError(f"grid index requires n1 - kappa_alpha1 >= 0, got "
                             f"{n1} - {data.kappa_of(alpha1)}")
    for n2, alpha2 in [*G, *(p[2:] for p in duality)]:
        if not n2 - cdata.kappa_of(alpha2) > 0:
            raise ValueError(f"grid index requires n2 - kappa'_alpha2 > 0, got "
                             f"{n2} - {cdata.kappa_of(alpha2)}")
    walk = Walk(trunc)

    def constant_term(n2, alpha2):  # of G+: it needs only the leading 1 at (-n2, alpha2)
        return walk.constant_term(FourierSeries(w, cdata, coeffs={(-n2, alpha2): mpmath.mpc(1)},
                                                truncation=trunc))

    fs = [walk.series(data, w, [(1, n1, alpha1)], ls) for n1, alpha1 in f]
    Gs = [(n2, alpha2, walk.series(cdata, w, [(1, n2, alpha2)], ls), constant_term(n2, alpha2),
           walk.series(data, w, [(1, n_prime(n2, data.kappa_of(alpha2)), alpha2)], ls))
          for n2, alpha2 in G]
    sides = []
    for n1, alpha1, n2, alpha2 in duality:
        # a(n1; idx2) = -b(n2; idx1), b at yp = idx1 + kappa'_alpha1 = n1 - kappa_alpha1
        idx2 = n2 - int(data.kappa_of(alpha2) + cdata.kappa_of(alpha2))
        idx1 = n1 - int(data.kappa_of(alpha1) + cdata.kappa_of(alpha1))
        yp = idx1 + cdata.kappa_of(alpha1)
        sides.append((walk.coefficient(data, w, n1, alpha1, idx2, alpha2), yp,
                      walk.coefficient(cdata, w, n2, alpha2, idx1, alpha1) if yp
                      else constant_term(n2, alpha2)))
    walk.run()
    reports = []
    for (n1, alpha1, n2, alpha2), (lhs, yp, rhs) in zip(duality, sides):
        lhs, lhs_tail = walk.value(lhs)
        a, tail = walk.value(rhs) if yp else [part[alpha1 - 1] for part in rhs()]
        with trunc.ctx.working():
            b, rhs_tail = _b_plus(k, -n2 + cdata.kappa_of(alpha2), yp, a, tail)
        lhs_c, rhs_c = complex(lhs), complex(-b)
        denom = max(abs(lhs_c), abs(rhs_c), 1.0)
        reports.append(DualityReport(n1, alpha1, n2, alpha2, lhs_c, rhs_c,
                                     abs(lhs_c - rhs_c) / denom, lhs_tail, rhs_tail))
    return ([build() for build in fs],
            [_harmonic_form(k, n2, alpha2, p_conj(), cf(), shadow())
             for n2, alpha2, p_conj, cf, shadow in Gs], reports)


def build_pair(data: AutomorphyData, k: int, n1: int, alpha1: int, n2: int,
               alpha2: int, trunc: TruncationParams, lmax: int = 12) -> GridPair:
    """Both grid members and the checked (not assumed) duality, in one walk."""
    (f,), (G,), (rep,) = build_grid(data, k, trunc, [(n1, alpha1)], [(n2, alpha2)],
                                    [(n1, alpha1, n2, alpha2)], lmax)
    return GridPair(f=f, G=G, duality=rep)


def build_f(data: AutomorphyData, k: int, n1: int, alpha1: int,
            trunc: TruncationParams, lmax: int = 12) -> FourierSeries:
    """f_{n1,alpha1}: the weight-(k+2) Poincare series on (chi, rho)."""
    return build_grid(data, k, trunc, f=[(n1, alpha1)], lmax=lmax)[0][0]


def build_G(data: AutomorphyData, k: int, n2: int, alpha2: int,
            trunc: TruncationParams, lmax: int = 12) -> HarmonicForm:
    """G_{n2,alpha2}: the harmonic partner on the conjugate automorphy."""
    return build_grid(data, k, trunc, G=[(n2, alpha2)], lmax=lmax)[1][0]


def _b_plus(k: int, mu: Fraction, yp: Fraction, a, tail: float):
    """(b, its tail) of G+ at yp = l + kappa'_j: a ratio^(k+1) from the conjugate
    series' a there, ratio = mu/yp, or from its constant term, ratio = mu at
    yp = 0.  Call inside the working context."""
    ratio = mpmath.mpf(mu.numerator) / mu.denominator
    if yp:
        ratio /= mpmath.mpf(yp.numerator) / yp.denominator
    return a * ratio ** (k + 1), tail * abs(float(ratio)) ** (k + 1)


def _harmonic_form(k: int, n2: int, alpha2: int, p_conj: FourierSeries, cf,
                   shadow: FourierSeries) -> HarmonicForm:
    """G_{n2,alpha2} from the conjugate Poincare series P_{n2,alpha2}, its
    constant term (values, tails) and the shadow P_{n2',alpha2}."""
    cdata, data, trunc = p_conj.automorphy, shadow.automorphy, p_conj.truncation
    mu = -n2 + cdata.kappa_of(alpha2)  # = -n2 + kappa'_{alpha2} < 0
    holo = FourierSeries(-k, cdata, truncation=trunc)
    nonholo, nh_tails = {}, {}
    with trunc.ctx.working():
        for (l, j), a in p_conj.items():
            holo.coeffs[(l, j)], holo.tails[(l, j)] = _b_plus(  # 1, 0.0 at (-n2, alpha2)
                k, mu, p_conj.freq(l, j), a, p_conj.tails[(l, j)])
        for j in range(1, cdata.dim + 1):
            if cdata.kappa_of(j) == 0:
                holo.coeffs[(0, j)], holo.tails[(0, j)] = _b_plus(
                    k, mu, Fraction(0), cf[0][j - 1], cf[1][j - 1])
        # non-holomorphic coefficients read off the shadow
        mu_mp = mpmath.mpf(mu.numerator) / mu.denominator
        sign_fact = mpmath.mpf(-1) ** k / mpmath.factorial(k)
        for (m, j), a in shadow.items():
            ym = shadow.freq(m, j)  # = m + kappa_j > 0
            l = -m if data.kappa_of(j) == 0 else -m - 1
            ratio = mu_mp / (mpmath.mpf(ym.numerator) / ym.denominator)
            nonholo[(l, j)] = sign_fact * ratio ** (k + 1) * mpmath.conj(a)
            nh_tails[(l, j)] = shadow.tails[(m, j)] * abs(float(ratio)) ** (k + 1) \
                / math.factorial(k)
    return HarmonicForm(k=k, n2=n2, alpha2=alpha2, holo=holo, nonholo=nonholo,
                        nonholo_tails=nh_tails, shadow=shadow)


@dataclass
class DualityReport:
    """The sides of a(n1; idx2) = -b(n2; idx1), the residual and each side's tail."""

    n1: int
    alpha1: int
    n2: int
    alpha2: int
    lhs: complex
    rhs: complex
    residual: float
    lhs_tail: float
    rhs_tail: float


def verify_duality(data: AutomorphyData, k: int, n1: int, alpha1: int,
                   n2: int, alpha2: int, trunc: TruncationParams) -> DualityReport:
    """Residual of a(n1; idx2) = -b(n2; idx1), idx2 = n2 - (kappa_{a2} +
    kappa'_{a2}) on the f side, idx1 mirrored.  The sides are independent
    c-sums on (chi, rho) and (chi-bar, rho-bar) that share one walk over the
    boxes (build_grid); the rhs is G+'s constant term at n1 = kappa_{a1} = 0.
    Each side carries its tail bound."""
    return build_grid(data, k, trunc, duality=[(n1, alpha1, n2, alpha2)])[2][0]


def apply_Dk1(G: HarmonicForm) -> FourierSeries:
    """(k+1)-fold normalized derivative of G: kills the constant term and
    multiplies a+(l, j) by ((l + kappa'_j)/lambda)^{k+1}."""
    return G.holo.freq_power(G.k + 2, G.k + 1)


def apply_xi(G: HarmonicForm) -> FourierSeries:
    """Anti-linear weight-raising image of G, determined by the b^-(l, j):

        coefficient -conj(b^-(l,j)) (-4 pi (l+kappa'_j)/lambda)^{k+1}
        at the frequency -(l + kappa'_j).

    The result must match the scaled shadow within truncation bounds.
    """
    k = G.k
    cdata = G.conj_data
    data = conjugate(cdata)
    out = FourierSeries(k + 2, data, truncation=G.holo.truncation)
    with G.holo.truncation.ctx.working():
        for (l, j), bm in sorted(G.nonholo.items()):
            fp = l + cdata.kappa_of(j)  # negative
            m = -l if cdata.kappa_of(j) == 0 else -l - 1  # -(l+kappa'_j) = m+kappa_j
            fmp = mpmath.mpf(fp.numerator) / fp.denominator
            val = -mpmath.conj(bm) * (-4 * mpmath.pi * fmp) ** (k + 1)
            out.coeffs[(m, j)] = val
            out.tails[(m, j)] = G.nonholo_tails.get((l, j), 0.0) \
                * float(4 * mpmath.pi * abs(fmp)) ** (k + 1)
    return out


def check_main2_symmetry(G1: HarmonicForm, G2: HarmonicForm) -> float:
    """Residual of the shadow-pairing symmetry between two grid members:

        b1^-(-n2~, a2~) (-n2~ + kappa'_{a2~})^{k+1}
          = conj(b2^-(-n2, a2)) (-n2 + kappa'_{a2})^{k+1}.
    """
    if G1.k != G2.k:
        raise ValueError("grid members must share the same weight")
    k = G1.k
    lhs_b = G1.b_minus(-G2.n2, G2.alpha2)
    rhs_b = G2.b_minus(-G1.n2, G1.alpha2)
    x1 = -G2.n2 + G1.conj_data.kappa_of(G2.alpha2)
    x2 = -G1.n2 + G2.conj_data.kappa_of(G1.alpha2)
    lhs = complex(lhs_b) * float(x1) ** (k + 1)
    rhs = complex(mpmath.conj(rhs_b)) * float(x2) ** (k + 1)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
