"""Fourier coefficients of vector-valued Poincare series of weight >= 3.

The series attached to index (n, alpha) averages the exponential
e^{2 pi i (-n + kappa_alpha) gamma tau / lambda} over cosets; its expansion
at i-infinity is the Kronecker-delta leading term plus, for l + kappa_j > 0,
a sum over the double-coset boxes C+(c):

  x := -n + kappa_alpha,   y := l + kappa_j,
  K_c := sum_{(a b; c d) in C+} chi(g)^{-1} rho(g^{-1})_{j,alpha}
         e^{(2 pi i/(c lambda)) (x a + y d)}                 (Kloosterman layer)

  x > 0:  (2 pi/lambda) i^{-w} (y/x)^{(w-1)/2} sum_c c^{-1} K_c J_{w-1}(4 pi sqrt(xy)/(c lambda))
  x = 0:  (-2 pi i)^w / (Gamma(w) lambda^w)    sum_c c^{-w} K_c y^{w-1}
  x < 0:  (2 pi/lambda) i^{-w} (y/-x)^{(w-1)/2} sum_c c^{-1} K_c I_{w-1}(4 pi sqrt(-xy)/(c lambda))

(w = weight).  One engine computes every c-sum: it walks c once in
ascending order, builds the box C+(c) once (groups.cplus_arrays; boxes are
never cached), asks each effective character for the exact phases of the
whole box (Multiplier.box_phases: integer numerators over one common
denominator; a user subclass that defines only phase() gets them from
phase()), and evaluates the layer of every requested (x, y, j, alpha) from
that one box.  poincare_series and constant_term_cf make one such pass;
poincare_coefficient and kloosterman_layer are the engine on one index.
Terms are summed in ascending c with compensated accumulation; the returned
tail bound majorises the neglected c > c_max terms via |C+(c)| <= c and the
series bounds J_nu(z), I_nu(z) <= (z/2)^nu/nu! * geometric/exponential
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .automorphy import AutomorphyData, DiagonalRepresentation
from .groups import cplus_arrays, cplus_elements
from .precision import compensated_sum, exp2pi
from .series import FourierSeries, TruncationParams
from .specialfn import bessel_i, bessel_j

__all__ = [
    "kloosterman_layer",
    "layer_bits_for",
    "poincare_coefficient",
    "poincare_series",
    "constant_term_cf",
    "coefficient_envelope",
]

TWO_PI = 2 * math.pi


def _exponent_sum(nums: np.ndarray, den: int, bits: int = 53):
    """sum of e^{2 pi i num/den} over an int64 numerator array.

    bits <= 53 evaluates the unit phases in float64 (the exponents are
    already reduced exactly, so each phase is correct to an ulp); larger
    bits evaluate one mpmath exponential per distinct residue, which is
    what removes the layer noise floor in cancellation-heavy regimes.
    """
    if nums.size == 0:
        return 0j
    if bits <= 53:
        angles = (nums % den).astype(np.float64) * (TWO_PI / den)
        return complex(np.sum(np.cos(angles)) + 1j * np.sum(np.sin(angles)))
    # one exact root of unity, advanced along the sorted residues by gap
    # powers: D sequential multiplications cost ~D * 2^-prec accumulated
    # error, far below the context tolerance.
    residues, counts = np.unique(nums % den, return_counts=True)
    with mpmath.workprec(bits + 16):
        omega = exp2pi(Fraction(1, den))
        total = mpmath.mpc(0)
        cur = mpmath.mpc(1)
        prev = 0
        for r, cnt in zip(residues.tolist(), counts.tolist()):
            if r != prev:
                cur = cur * omega ** (r - prev)
                prev = r
            total += cnt * cur
        return +total


# Element budget above which high-precision layers fall back to float64:
# the mp path costs one mp-exponential per box element.
MP_LAYER_ELEMENT_BUDGET = 40_000


def layer_bits_for(ctx, c_max: int, level: int = 1) -> int:
    """Working precision for the Kloosterman layers of one engine pass.

    The layers are unit-modulus sums with exactly reduced rational phases,
    so float64 already gives ~1e-16 relative accuracy per element; that
    floor only matters when a downstream evaluation cancels many digits
    (regularized L-series at split heights away from 1).  When the context
    asks for more than double precision and the total box size
    sum_{c <= c_max} phi(c) ~ 0.31 c_max^2 / level stays within budget, the
    layers run at full context precision; otherwise they stay in float64.
    Deterministic for fixed (ctx, c_max, level).
    """
    if ctx.mantissa_bits <= 64:
        return 53
    est_elements = (31 * c_max * c_max) // (100 * level)
    return ctx.mantissa_bits if est_elements <= MP_LAYER_ELEMENT_BUDGET else 53


def _layers(data: AutomorphyData, c: int, keys, bits: int) -> list:
    """K_c(x, y)_{j,alpha} for every (x, y, j, alpha) in keys, from one box.

    Diagonal rho: the exponent (x a + y d)/c minus the box phases of the
    effective character chi * mu_alpha, reduced exactly over one common
    denominator; None for j != alpha, where the layer is zero by structure.
    A matrix rho has no exact phases and is summed per element.
    """
    a, d = cplus_arrays(data.group, c)
    if not isinstance(data.rho, DiagonalRepresentation):
        elems = cplus_elements(a, d, c)
        out = []
        for x, y, j, alpha in keys:
            total = 0j
            for g in elems:
                w = complex(data.chi.value(g)) ** -1 * data.rho.inv_entry(g, j, alpha)
                total += w * np.exp(2j * np.pi * float((x * g.a + y * g.d) / c))
            out.append(total)
        return out
    phases = {}
    out = []
    for x, y, j, alpha in keys:
        if j != alpha:
            out.append(None)
            continue
        if alpha not in phases:
            phases[alpha] = data.scalar_character(alpha).box_phases(a, d, c)
        chi_num, chi_den = phases[alpha]
        # exponent (x a + y d)/c over D0 = qx qy c (lambda = 1 here)
        qx, qy = x.denominator, y.denominator
        d0 = qx * qy * c
        den = math.lcm(d0, chi_den)
        nums = (x.numerator * qy * a + y.numerator * qx * d) * (den // d0) \
            - chi_num * (den // chi_den)
        out.append(_exponent_sum(nums, den, bits))
    return out


def kloosterman_layer(data: AutomorphyData, c: int, x: Fraction, y: Fraction,
                      j: int = 1, alpha: int = 1, bits: int = 53):
    """Inner sum over C+(c) with exponential weights x on a and y on d.

    For the trivial character and p = 1 this is the classical Kloosterman
    sum S(x, y; c).  Exact zero when rho is diagonal and j != alpha.
    bits selects the phase-evaluation precision (see layer_bits_for).
    """
    layer = _layers(data, c, [(Fraction(x), Fraction(y), j, alpha)], bits)[0]
    return 0j if layer is None else layer


@dataclass
class _CSum:
    """One c-sum: the terms weight(c) * K_c(x, y)_{j,alpha} in ascending c,
    the bound on its c > c_max remainder, and the float64-layer noise bound
    of its terms."""

    key: tuple  # (x, y, j, alpha)
    weight: object  # c -> mp weight of the layer at c
    tail: float
    terms: list = field(default_factory=list)
    noise: float = 0.0


def _run(data: AutomorphyData, sums: list, trunc: TruncationParams):
    """The coefficient engine: one ascending pass over c fills every c-sum.

    Call inside trunc.ctx.working().  float64 layers carry ~phi(c) ulps of
    absolute noise each; each sum folds that into its noise bound so the
    tail stays an honest majorant.  That includes a float64 layer that
    rounds to exactly 0 (a vanishing Ramanujan sum, say); only the
    structural j != alpha zeros of a diagonal rho add neither term nor noise.
    """
    if not sums:
        return
    bits = trunc.layer_bits or layer_bits_for(trunc.ctx, trunc.c_max, data.group.level)
    keys = [s.key for s in sums]
    for c in _c_values(data.group, trunc.c_max):
        for s, layer in zip(sums, _layers(data, c, keys, bits)):
            if layer is None:
                continue
            weight = s.weight(c)
            if bits <= 53:
                # layer error <= phi(c) ulps <= c * 2^-50, times |weight|
                s.noise += float(abs(weight)) * c * 2.0 ** -50
            if layer != 0:
                s.terms.append(weight * mpmath.mpc(layer))


def _c_values(spec, c_max: int):
    return range(spec.level, c_max + 1, spec.level)


def _check_weight(weight: int, trunc: TruncationParams, level: int = 1):
    if weight < 3:
        raise ValueError("Poincare coefficient sums diverge for weight < 3")
    if trunc.c_max < level:
        raise ValueError(
            f"c_max = {trunc.c_max} is below the smallest positive c "
            f"(= level {level}) of the group"
        )
    if weight == 3 and not trunc.allow_slow_convergence:
        raise ValueError(
            "weight 3 converges only conditionally; pass "
            "allow_slow_convergence=True (CLI: --allow-slow-convergence)"
        )


def _bessel_tail(weight: int, zeta: float, c_max: int, rfac: float,
                 lam: float, modified: bool) -> float:
    """Certified bound on the neglected c > c_max Bessel-case terms."""
    nu = weight - 1
    q = (zeta / (c_max + 1)) ** 2 / (nu + 1)
    if q >= 0.5:
        return math.inf
    coef = (TWO_PI / lam) * rfac * zeta**nu / math.factorial(nu) / (1 - q)
    if modified:
        coef *= math.exp(q)
    return coef * c_max ** (1 - nu) / (nu - 1)


def _coefficient_sum(data: AutomorphyData, w: int, x: Fraction, y: Fraction,
                     j: int, alpha: int, trunc: TruncationParams) -> _CSum:
    """The c-sum of one coefficient (see the module docstring); call inside
    trunc.ctx.working()."""
    lam = data.lam
    ctx = trunc.ctx
    lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
    phase = exp2pi(Fraction(-w, 4))  # i^{-w}
    key = (x, y, j, alpha)
    if x == 0:
        pref0 = (2 * mpmath.pi / lam_mp) ** w / mpmath.factorial(w - 1) * phase
        amp = pref0 * (mpmath.mpf(y.numerator) / y.denominator) ** (w - 1)
        a2 = (TWO_PI / float(lam)) ** w / math.factorial(w - 1) * float(y) ** (w - 1)
        return _CSum(key, lambda c: amp * mpmath.mpf(c) ** -w,
                     a2 * trunc.c_max ** (2 - w) / (w - 2))
    modified = x < 0
    xabs = abs(x)
    ratio = mpmath.mpf((y / xabs).numerator) / (y / xabs).denominator
    rfac = ratio ** (mpmath.mpf(w - 1) / 2)
    pref = 2 * mpmath.pi / lam_mp * phase * rfac
    arg_base = 4 * mpmath.pi * mpmath.sqrt(
        mpmath.mpf((xabs * y).numerator) / (xabs * y).denominator) / lam_mp
    bessel = bessel_i if modified else bessel_j
    tail = _bessel_tail(w, float(arg_base) / 2, trunc.c_max, float(rfac),
                        float(lam), modified)
    return _CSum(key, lambda c: pref / c * bessel(w - 1, arg_base / c, ctx), tail)


def _coefficients(data: AutomorphyData, weight: int, n: int, alpha: int,
                  indices, trunc: TruncationParams) -> list:
    """(value, tail_bound) of a_{n,alpha}(l, j) for every (l, j) in indices,
    from one engine pass."""
    x = -n + data.kappa_of(alpha)
    with trunc.ctx.working():
        sums = [_coefficient_sum(data, weight, x, l + data.kappa_of(j), j, alpha,
                                 trunc) for l, j in indices]
        _run(data, sums, trunc)
        return [(compensated_sum(s.terms), s.tail + s.noise) for s in sums]


def poincare_coefficient(data: AutomorphyData, weight: int, n: int, alpha: int,
                         l: int, j: int, trunc: TruncationParams):
    """Coefficient a_{n,alpha}(l, j) of the weight-`weight` Poincare series.

    Returns (value, tail_bound).  The value is the c <= c_max partial sum in
    ascending c with compensated accumulation; tail_bound majorises the
    neglected remainder (math.inf when the bound cannot certify decay yet,
    which callers should treat as unconverged).  The Kronecker-delta leading
    term at (-n, alpha) is *not* included here; poincare_series adds it.
    """
    _check_weight(weight, trunc, data.group.level)
    y = l + data.kappa_of(j)
    if not y > 0:
        raise ValueError(f"need l + kappa_j > 0, got {y}")
    return _coefficients(data, weight, n, alpha, [(l, j)], trunc)[0]


def poincare_series(data: AutomorphyData, weight: int, n: int, alpha: int,
                    l_range, trunc: TruncationParams) -> FourierSeries:
    """Expansion of P_{n,alpha} at i-infinity over the requested l range.

    Includes the delta_{j,alpha} leading term at index (-n, alpha); indices
    with l + kappa_j <= 0 are skipped (they do not occur in the expansion).
    """
    _check_weight(weight, trunc, data.group.level)
    if not 1 <= alpha <= data.dim:
        raise ValueError(f"component alpha={alpha} outside 1..{data.dim}")
    indices = [(l, j) for j in range(1, data.dim + 1) for l in l_range
               if l + data.kappa_of(j) > 0]
    series = FourierSeries(weight, data, truncation=trunc)
    for idx, (val, tail) in zip(indices, _coefficients(data, weight, n, alpha,
                                                       indices, trunc)):
        series.coeffs[idx] = val
        series.tails[idx] = tail
    key = (-n, alpha)
    series.coeffs[key] = series.coeffs.get(key, mpmath.mpc(0)) + 1
    series.tails.setdefault(key, 0.0)
    return series


def constant_term_cf(f: FourierSeries, trunc: TruncationParams):
    """Constant term of the order -(k+1) Eichler primitive of f (weight k+2).

    For f with poles only at i-infinity,

      (c_f)_j = delta_{kappa_j,0} / (lambda (k+1)!) *
                sum_t sum_{l + kappa_t < 0} sum_{C+} a(l,t) (-2 pi i/c)^{k+2}
                chi^{-1}(g) rho(g^{-1})_{j,t} e^{(2 pi i/(c lambda)) (l+kappa_t) a}.

    Returns (values, tails): one complex constant and one tail bound per
    component, the tail including the float64-layer noise when the layers
    run in float64 (trunc.layer_bits, else layer_bits_for).
    """
    data = f.automorphy
    w = f.weight  # = k + 2
    lam = data.lam
    principal = [(n, t) for (n, t) in f.principal_support() if f.coeffs[(n, t)] != 0]
    with trunc.ctx.working():
        lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
        # (-i)^w (2 pi)^w / (lambda (w-1)!); each term is a(n, t) pref c^-w K_c
        pref = exp2pi(Fraction(-w, 4)) * (2 * mpmath.pi) ** w \
            / (lam_mp * mpmath.factorial(w - 1))
        per_comp = [[] for _j in range(data.dim)]
        for j in range(1, data.dim + 1):
            if data.kappa_of(j) != 0:
                continue
            for (n, t) in principal:
                amp = f.coeffs[(n, t)] * pref
                tail = abs(complex(f.coeffs[(n, t)])) * (TWO_PI / float(lam)) ** w \
                    / math.factorial(w - 1) * float(lam) ** (w - 1) \
                    * trunc.c_max ** (2 - w) / (w - 2)
                # x = n + kappa_t < 0 rides on the 'a' entry
                per_comp[j - 1].append(
                    _CSum((f.freq(n, t), Fraction(0), j, t),
                          lambda c, amp=amp: amp * mpmath.mpf(c) ** -w, tail))
        _run(data, [s for sums in per_comp for s in sums], trunc)
        values = [compensated_sum([x for s in sums for x in s.terms]) for sums in per_comp]
    tails = [sum((s.tail + s.noise for s in sums), 0.0) for sums in per_comp]
    return values, tails


def coefficient_envelope(data: AutomorphyData, weight: int, n: int, alpha: int,
                         l: int, j: int) -> float:
    """Certified upper bound on |a_{n,alpha}(l, j)| (all three cases).

    Uses |C+(c)| <= c, |J_nu| <= I_nu and
    I_nu(z) <= (z/2)^nu e^z / nu!, so the c-sum is bounded by
    (2 pi/lambda) rfac (zeta)^nu e^{2 zeta} zeta(nu) / nu! with
    zeta = 2 pi sqrt(|x| y)/lambda.  Used to pick truncation points for
    L-series m-sums; deliberately crude but safe.
    """
    x = float(-n + data.kappa_of(alpha))
    y = float(l + data.kappa_of(j))
    if y <= 0:
        return 0.0
    lam = float(data.lam)
    w = weight
    if x == 0:
        return (TWO_PI / lam) ** w / math.factorial(w - 1) * y ** (w - 1) * 2.0
    nu = w - 1
    zeta = TWO_PI * math.sqrt(abs(x) * y) / lam
    rfac = (y / abs(x)) ** ((w - 1) / 2)
    zeta_nu = 1.7  # > zeta(2) >= zeta(nu) for every nu >= 2
    log_env = (math.log(TWO_PI / lam) + math.log(rfac) + nu * math.log(zeta)
               + 2 * zeta - math.lgamma(nu + 1) + math.log(zeta_nu))
    return math.exp(min(log_env, 700.0)) if log_env < 700 else math.inf
