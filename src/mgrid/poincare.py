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
that one box.  A float64 layer costs one cos/sin per box element; a layer
above 53 bits is an exact fixed-point sum over a table of roots of unity
per denominator, built per box by baby and giant steps from one exp2pi
seed each, and costs one integer multiply-add per box element.
poincare_series and constant_term_cf make one such pass;
poincare_coefficient and kloosterman_layer are the engine on one index.
The terms of a c-sum are added exactly and rounded once (compensated_sum);
the returned tail bound majorises the neglected c > c_max terms via
|C+(c)| <= c and the series bounds J_nu(z), I_nu(z) <= (z/2)^nu/nu! *
geometric/exponential factors.

One kind of c-sum needs no box: on a diagonal rho whose effective
character is trivial, a layer at x = 0 or y = 0 is the Ramanujan sum
c_c(m) = sum_{d | (c, m)} mu(c/d) d with m = |x + y| (Hardy & Wright,
ch. XVI).  These are the x = 0 sums of the trivial-character Eisenstein
series and every constant_term_cf sum there.  Each pass splits them off
and sums them exactly in integers (_ramanujan_csums) from one Moebius
sieve, as one term with a certified rounding bound; layer_bits does not
apply to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .automorphy import AutomorphyData, DiagonalRepresentation, TrivialMultiplier
from .groups import cplus_arrays, cplus_elements
from .precision import compensated_sum, exp2pi
from .series import FourierSeries, TruncationParams
from .specialfn import bessel_series

__all__ = [
    "kloosterman_layer",
    "layer_bits_for",
    "poincare_coefficient",
    "poincare_series",
    "constant_term_cf",
    "coefficient_envelope",
]

TWO_PI = 2 * math.pi


def _exponent_sum(nums: np.ndarray, den: int, bits: int = 53, tables=None):
    """sum of e^{2 pi i num/den} over an int64 numerator array.

    bits <= 53 evaluates the unit phases in float64 (the exponents are
    already reduced exactly, so each phase is correct to an ulp).  Larger
    bits sum exactly in fixed point over the root table of den (see
    _root_table; `tables` maps den to its table and is shared by the
    layers of one box): each residue r = q B + s contributes
    giant[q] * baby[s], the products are summed as exact integers, and the
    sum is rounded once to an mpc of P bits.  The result is deterministic,
    and its error is at most nums.size * (2 isqrt(den) + 3) * 2^-P.
    """
    if nums.size == 0:
        return 0j
    if bits <= 53:
        angles = (nums % den).astype(np.float64) * (TWO_PI / den)
        return complex(np.sum(np.cos(angles)) + 1j * np.sum(np.sin(angles)))
    if tables is None:
        tables = {}
    if den not in tables:
        tables[den] = _root_table(den, bits)
    prec, step, baby, giant = tables[den]
    residues, counts = np.unique(nums % den, return_counts=True)
    inner = {}  # q -> sum of cnt * baby[s] over the residues q B + s
    for r, cnt in zip(residues.tolist(), counts.tolist()):
        q, s = divmod(r, step)
        br, bi = baby[s]
        ir, ii = inner.get(q, (0, 0))
        inner[q] = (ir + cnt * br, ii + cnt * bi)
    re = im = 0
    for q, (ir, ii) in inner.items():
        gr, gi = giant[q]
        re += gr * ir - gi * ii
        im += gr * ii + gi * ir
    with mpmath.workprec(prec):
        return mpmath.mpc(mpmath.ldexp(re, -2 * prec), mpmath.ldexp(im, -2 * prec))


def _root_table(den: int, bits: int):
    """(P, B, baby, giant): e(s/den) for s < B = isqrt(den) and e(q B/den)
    for q <= den // B, as (re, im) integer pairs scaled by 2^P with
    P = bits + 16 + den.bit_length().

    Each step is one fixed-point multiplication rounded to nearest
    (<= 2^-1/2 ulps), by a seed carried 16 bits beyond P, so the k-th power
    is off by under 0.72 k ulps; a product giant[q] * baby[s] is then off by
    under (1.44 B + 0.72) * 2^-P, and rounding the exact sum to P bits adds
    one more ulp per element.
    """
    prec = _table_bits(den, bits)
    step = math.isqrt(den)
    return (prec, step, _fixed_powers(Fraction(1, den), step, prec),
            _fixed_powers(Fraction(step, den), den // step + 1, prec))


def _table_bits(den: int, bits: int) -> int:
    return bits + 16 + den.bit_length()


def _fixed_powers(x: Fraction, count: int, prec: int) -> list:
    """[e(k x) * 2^prec for k < count] as rounded (re, im) integer pairs."""
    shift = prec + 16
    with mpmath.workprec(shift + 16):
        seed = exp2pi(x)
        wr = int(mpmath.nint(mpmath.ldexp(seed.real, shift)))
        wi = int(mpmath.nint(mpmath.ldexp(seed.imag, shift)))
    half = 1 << (shift - 1)
    re, im = 1 << prec, 0
    out = [(re, im)]
    for _k in range(1, count):
        re, im = (re * wr - im * wi + half) >> shift, (re * wi + im * wr + half) >> shift
        out.append((re, im))
    return out


# Element budget above which high-precision layers fall back to float64:
# an mp layer costs one integer multiply-add per box element (plus a root
# table of about 2 sqrt(den) fixed-point steps per denominator and box),
# against one numpy cos/sin per element in float64.
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
    Either way a layer costs O(1) work per box element: a numpy cos/sin in
    float64, one integer multiply-add in exact fixed point.
    Deterministic for fixed (ctx, c_max, level).
    """
    if ctx.mantissa_bits <= 64:
        return 53
    est_elements = (31 * c_max * c_max) // (100 * level)
    return ctx.mantissa_bits if est_elements <= MP_LAYER_ELEMENT_BUDGET else 53


def _layer_error(c: int, den: int, bits: int) -> float:
    """Bound on the rounding error of one layer over C+(c) (|C+(c)| <= c
    elements) with phases over den, evaluated at `bits` (see _exponent_sum)."""
    if bits <= 53:
        return c * 2.0 ** -50  # phi(c) ulps
    return c * (2 * math.isqrt(den) + 3) * 2.0 ** -_table_bits(den, bits)


def _layers(data: AutomorphyData, c: int, keys, bits: int) -> list:
    """(K_c(x, y)_{j,alpha}, error bound) for every (x, y, j, alpha) in keys,
    from one box.

    The exponent (x a + y d)/c minus the box phases of the character is
    reduced exactly over one common denominator.  Diagonal rho: the
    character is chi * mu_alpha, the keys hold no structural zero (j !=
    alpha, see _structural_zero; their callers decide those once), and the
    layers of one box share the root tables of their denominators.  Matrix
    rho: the character is chi, and rho(g^-1)_{j,alpha} e(exponent) is
    summed per element in float64, with rho(g^-1) evaluated once per box
    element for every key.
    """
    a, d = cplus_arrays(data.group, c)
    diagonal = isinstance(data.rho, DiagonalRepresentation)
    if not diagonal:
        rho_inv = np.array([data.rho.matrix(g.inverse()) for g in cplus_elements(a, d, c)],
                           dtype=complex).reshape(-1, data.dim, data.dim)
    phases = {}
    tables = {}
    out = []
    for x, y, j, alpha in keys:
        if alpha not in phases:
            chi = data.scalar_character(alpha) if diagonal else data.chi
            phases[alpha] = chi.box_phases(a, d, c)
        chi_num, chi_den = phases[alpha]
        # exponent (x a + y d)/c over D0 = qx qy c (lambda = 1 here)
        qx, qy = x.denominator, y.denominator
        d0 = qx * qy * c
        den = math.lcm(d0, chi_den)
        nums = (x.numerator * qy * a + y.numerator * qx * d) * (den // d0) \
            - chi_num * (den // chi_den)
        if diagonal:
            out.append((_exponent_sum(nums, den, bits, tables), _layer_error(c, den, bits)))
            continue
        angles = (nums % den).astype(np.float64) * (TWO_PI / den)
        out.append((complex(np.sum(rho_inv[:, j - 1, alpha - 1] * np.exp(1j * angles))),
                    _layer_error(c, c, 53)))
    return out


def kloosterman_layer(data: AutomorphyData, c: int, x: Fraction, y: Fraction,
                      j: int = 1, alpha: int = 1, bits: int = 53):
    """Inner sum over C+(c) with exponential weights x on a and y on d.

    For the trivial character and p = 1 this is the classical Kloosterman
    sum S(x, y; c).  Exact zero when rho is diagonal and j != alpha.
    bits selects the phase-evaluation precision (see layer_bits_for).
    """
    if _structural_zero(data, j, alpha):
        return 0j
    return _layers(data, c, [(Fraction(x), Fraction(y), j, alpha)], bits)[0][0]


def _structural_zero(data: AutomorphyData, j: int, alpha: int) -> bool:
    """Whether the (j, alpha) entry is zero by structure (diagonal rho, j != alpha)."""
    return j != alpha and isinstance(data.rho, DiagonalRepresentation)


@dataclass
class _CSum:
    """One c-sum: the terms weight(c) * K_c(x, y)_{j,alpha} in ascending c,
    the bound on its c > c_max remainder, and the rounding noise bound of
    its terms (see _run)."""

    key: tuple  # (x, y, j, alpha)
    weight: object  # c -> (mp weight of the layer at c, bound on its error)
    tail: float
    terms: list = field(default_factory=list)
    noise: float = 0.0


def _run(data: AutomorphyData, sums: list, trunc: TruncationParams):
    """The coefficient engine: one ascending pass over c fills every c-sum.

    Call inside trunc.ctx.working().  Every computed layer adds to its sum's
    noise its weight's error bound times c >= |K_c|, plus
    |weight| * (layer rounding bound + c 2^(e - wp)).  The layer rounding
    bound is phi(c) * 2^-50 in float64, and phi(c) * (2 isqrt(den) + 3) *
    2^-P for an exact fixed-point layer with phases over den
    (P = bits + 16 + den.bit_length(); see _exponent_sum), with phi(c) <= c.

    The c 2^(e - wp) part covers the roundings at the working precision wp
    (mpmath's: the context's bits plus its guard).  Each is at most 2^-wp
    times its result, and |K_c| <= c:
      - the two steps that finish the weight (amp * c^-w; pref / c times
        the Bessel value): 2 units;
      - the product weight * K_c: 1 unit;
      - compensated_sum: both parts of its bound are at most 2^-wp times
        the sum of |term| in each of the real and imaginary parts (for
        fewer than 2^(wp-1) terms), so 2 sqrt(2) units.
    That is under 6 units; e = 3 leaves room for the second-order terms
    and for the common prefactor of a weight (amp, pref), which is kept at
    _prefactor_prec bits and is off by under 2^-wp/8 relative.

    All of this includes a layer that rounds to exactly 0 (a vanishing
    Ramanujan sum, say).  Structural zeros never reach the engine: their
    callers store an exact 0 with tail 0 and build no c-sum for them.
    """
    if not sums:
        return
    bits = trunc.layer_bits or layer_bits_for(trunc.ctx, trunc.c_max, data.group.level)
    rounding = 2.0 ** (3 - mpmath.mp.prec)
    keys = [s.key for s in sums]
    for c in _c_values(data.group, trunc.c_max):
        for s, (value, error) in zip(sums, _layers(data, c, keys, bits)):
            weight, weight_error = s.weight(c)
            s.noise += float(abs(weight)) * (error + c * rounding) + weight_error * c
            if value != 0:
                s.terms.append(weight * mpmath.mpc(value))


def _c_values(spec, c_max: int):
    return range(spec.level, c_max + 1, spec.level)


@dataclass(frozen=True)
class _Power:
    """The weight amp c^-w of a c-sum at x = 0 or y = 0 (amp kept at
    _prefactor_prec(w) bits)."""

    amp: object
    w: int

    def __call__(self, c):
        return self.amp * mpmath.mpf(c) ** -self.w, 0.0


def _ramanujan_m(data: AutomorphyData, s: _CSum):
    """m if every layer of the c-sum s is the Ramanujan sum c_c(m), else None.

    That holds for a power weight on a diagonal rho whose effective
    character is trivial, at x = 0 (the layer is the sum of e(y d/c)) or
    y = 0 (of e(x a/c)) over the units mod c; kappa = 0 there, so
    m = |x + y| is an integer.
    """
    x, y, _j, alpha = s.key
    if (isinstance(s.weight, _Power) and x * y == 0
            and isinstance(data.rho, DiagonalRepresentation)
            and isinstance(data.scalar_character(alpha), TrivialMultiplier)):
        return int(abs(x + y))
    return None


def _moebius(limit: int) -> np.ndarray:
    """mu(0), ..., mu(limit) as int64, by a sieve over the primes (mu(0) = 0)."""
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if not composite[p]:
            composite[2 * p::p] = True
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
    return mu


def _ramanujan_csums(spec, w: int, ms, c_max: int):
    """The c-sums sum_c c_c(m) c^-w over c in _c_values(spec, c_max), for
    every m in ms, exactly in integers.  Call at the working precision wp.

    Returns (P, [(S, bound) per m]) with S = sum_c c_c(m) floor(2^P / c^w)
    and P = wp + bit_length(c_max) + 8: each floor is off by under one, so
    S 2^-P is within bound = sum_c |c_c(m)| 2^-P of the exact c-sum.  mu is
    sieved and the floors are taken once per call; c_c(m) comes from
    c_c(m) = sum_{d | (c, m)} mu(c/d) d, one array pass per divisor d of m.
    """
    if spec.lam != 1:
        raise NotImplementedError("built-in c-sums require lambda == 1")
    prec = mpmath.mp.prec + c_max.bit_length() + 8
    cs = np.arange(spec.level, c_max + 1, spec.level)
    mu = _moebius(c_max)
    scaled = [(1 << prec) // c ** w for c in cs.tolist()]
    out = []
    for m in ms:
        layers = np.zeros(c_max + 1, dtype=np.int64)
        for d in range(1, min(m, c_max) + 1):
            if m % d == 0:
                layers[d::d] += d * mu[1:c_max // d + 1]
        layers = layers[cs].tolist()
        out.append((sum(k * f for k, f in zip(layers, scaled) if k),
                    math.ldexp(sum(map(abs, layers)), -prec)))
    return prec, out


def _fill(data: AutomorphyData, sums: list, trunc: TruncationParams):
    """Fill every c-sum of one pass; call inside trunc.ctx.working().

    The Ramanujan sums (_ramanujan_m) get one exact term amp S 2^-P each
    (_ramanujan_csums), and the others go to the box engine (_run).  The
    noise of an exact term is |amp| times the bound of S 2^-P, plus
    |amp S 2^-P| 2^(3 - wp) for the roundings at wp: S to wp bits and the
    product by amp, one unit each; amp's 2^-wp/8; compensated_sum's
    2 sqrt(2) units (see _run).
    """
    ms = [_ramanujan_m(data, s) for s in sums]
    _run(data, [s for s, m in zip(sums, ms) if m is None], trunc)
    exact = [(s, m) for s, m in zip(sums, ms) if m is not None]
    rounding = 2.0 ** (3 - mpmath.mp.prec)
    for w in sorted({s.weight.w for s, _m in exact}):
        group = [(s, m) for s, m in exact if s.weight.w == w]
        prec, results = _ramanujan_csums(data.group, w, [m for _s, m in group], trunc.c_max)
        for (s, _m), (total, bound) in zip(group, results):
            value = mpmath.ldexp(mpmath.mpf(total), -prec)
            s.terms.append(s.weight.amp * value)
            s.noise += float(abs(s.weight.amp)) * (bound + float(abs(value)) * rounding)


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


def _prefactor_prec(w: int) -> int:
    """Bits p for the common prefactor (amp, pref) of a weight-w c-sum.  It
    takes under 4 w + 32 roundings of 2^-p relative (the powers ^w and ^(w-1)
    carry their bases' errors w-fold; the phase i^{-w} is off by under 11),
    so at p = wp + 3 + bit_length(4 w + 32) it is off by under 2^-wp/8."""
    return mpmath.mp.prec + 3 + (4 * w + 32).bit_length()


def _coefficient_sum(data: AutomorphyData, w: int, x: Fraction, y: Fraction,
                     j: int, alpha: int, trunc: TruncationParams) -> _CSum:
    """The c-sum of one coefficient (see the module docstring); call inside
    trunc.ctx.working().  Its prefactor is kept at _prefactor_prec(w) bits."""
    lam = data.lam
    key = (x, y, j, alpha)
    with mpmath.workprec(_prefactor_prec(w)):
        two_pi_lam = 2 * mpmath.pi * lam.denominator / lam.numerator
        phase = exp2pi(Fraction(-w, 4))  # i^{-w}
        if x == 0:
            amp = two_pi_lam ** w / math.factorial(w - 1) * phase \
                * (mpmath.mpf(y.numerator) / y.denominator) ** (w - 1)
        else:
            q = y / abs(x)
            rfac = (mpmath.mpf(q.numerator) / q.denominator) ** (mpmath.mpf(w - 1) / 2)
            pref = two_pi_lam * phase * rfac
    if x == 0:
        a2 = (TWO_PI / float(lam)) ** w / math.factorial(w - 1) * float(y) ** (w - 1)
        return _CSum(key, _Power(amp, w), a2 * trunc.c_max ** (2 - w) / (w - 2))
    modified = x < 0
    xy = abs(x) * y
    half = 2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(xy.numerator) / xy.denominator) \
        / (mpmath.mpf(lam.numerator) / lam.denominator)
    cs = _c_values(data.group, trunc.c_max)
    # J or I at 2 half/c for every c, from one kernel call
    values = dict(zip(cs, bessel_series(w - 1, half, cs, trunc.ctx, not modified)))

    def weight(c):
        return pref / c * values[c][0], float(abs(pref)) / c * values[c][1]

    return _CSum(key, weight, _bessel_tail(w, float(half), trunc.c_max, float(rfac),
                                           float(lam), modified))


def _coefficients(data: AutomorphyData, weight: int, n: int, alpha: int,
                  indices, trunc: TruncationParams) -> list:
    """(value, tail_bound) of a_{n,alpha}(l, j) for every (l, j) in indices,
    from one engine pass; a structural zero is an exact 0 with tail 0."""
    x = -n + data.kappa_of(alpha)
    with trunc.ctx.working():
        sums = {(l, j): _coefficient_sum(data, weight, x, l + data.kappa_of(j), j,
                                         alpha, trunc)
                for l, j in indices if not _structural_zero(data, j, alpha)}
        _fill(data, list(sums.values()), trunc)
        return [(compensated_sum(sums[i].terms), sums[i].tail + sums[i].noise)
                if i in sums else (mpmath.mpc(0), 0.0) for i in indices]


def poincare_coefficient(data: AutomorphyData, weight: int, n: int, alpha: int,
                         l: int, j: int, trunc: TruncationParams):
    """Coefficient a_{n,alpha}(l, j) of the weight-`weight` Poincare series.

    Returns (value, tail_bound).  The value is the c <= c_max partial sum,
    added exactly and rounded once; tail_bound majorises the neglected
    remainder (math.inf when the bound cannot certify decay yet, which
    callers should treat as unconverged).  The Kronecker-delta leading
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
    with trunc.ctx.working():
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
    component, the tail including the layer-rounding noise at the layer
    precision (trunc.layer_bits, else layer_bits_for).  On a trivial
    effective character every layer is a Ramanujan sum, and the c-sum is
    exact in integers up to one counted rounding (see _fill).
    """
    data = f.automorphy
    w = f.weight  # = k + 2
    lam = data.lam
    principal = [(n, t) for (n, t) in f.principal_support() if f.coeffs[(n, t)] != 0]
    with trunc.ctx.working():
        with mpmath.workprec(_prefactor_prec(w)):
            # (-i)^w (2 pi)^w / (lambda (w-1)!); each term is a(n, t) pref c^-w K_c
            pref = exp2pi(Fraction(-w, 4)) * (2 * mpmath.pi) ** w * lam.denominator \
                / (lam.numerator * math.factorial(w - 1))
            amps = {key: f.coeffs[key] * pref for key in principal}
        per_comp = [[] for _j in range(data.dim)]
        for j in range(1, data.dim + 1):
            if data.kappa_of(j) != 0:
                continue
            for (n, t) in principal:
                if _structural_zero(data, j, t):
                    continue
                tail = abs(complex(f.coeffs[(n, t)])) * (TWO_PI / float(lam)) ** w \
                    / math.factorial(w - 1) * float(lam) ** (w - 1) \
                    * trunc.c_max ** (2 - w) / (w - 2)
                # x = n + kappa_t < 0 rides on the 'a' entry
                per_comp[j - 1].append(
                    _CSum((f.freq(n, t), Fraction(0), j, t), _Power(amps[(n, t)], w), tail))
        _fill(data, [s for sums in per_comp for s in sums], trunc)
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
