"""Fourier coefficients of vector-valued Poincare series of weight >= 3.

The series attached to index (n, alpha) averages the exponential
e^{2 pi i (-n + kappa_alpha) gamma tau / lambda} over cosets; its expansion
at i-infinity is the Kronecker-delta leading term plus, for l + kappa_j > 0,
a sum over the double-coset boxes C+(c):

  x := -n + kappa_alpha,   y := l + kappa_j,
  K_c := delta_{j,alpha} sum_{(a b; c d) in C+} (chi mu_alpha)(g)^{-1}
         e^{(2 pi i/(c lambda)) (x a + y d)}                 (Kloosterman layer)

  x > 0:  (2 pi/lambda) i^{-w} (y/x)^{(w-1)/2} sum_c c^{-1} K_c J_{w-1}(4 pi sqrt(xy)/(c lambda))
  x = 0:  (-2 pi i)^w / (Gamma(w) lambda^w)    sum_c c^{-w} K_c y^{w-1}
  x < 0:  (2 pi/lambda) i^{-w} (y/-x)^{(w-1)/2} sum_c c^{-1} K_c I_{w-1}(4 pi sqrt(-xy)/(c lambda))

(w = weight; lambda, the cusp width at i-infinity, is 1 on Gamma_0(N)).  rho
= diag(mu_1, ..., mu_p) is diagonal, so chi(g)^{-1} rho(g^{-1})_{j,alpha} is
the effective character's (chi mu_alpha)(g)^{-1} on j = alpha and 0 off it,
where no layer is summed.  One engine computes every c-sum: it walks c
once in ascending order, builds the box C+(c) once (groups.cplus_arrays;
never cached), asks each effective character for the exact phases of the
whole box (Multiplier.box_phases, integer numerators over one denominator,
in lowest terms; a datum's conjugate reads them negated), and evaluates the
layers of every key (x, y, alpha) (j = alpha; structural zeros never reach
it) from that box in one array pass per group of keys sharing alpha and
q = lcm(x.den, y.den), over lcm(q c, the phases' least denominator) (12 c
on eta^2): a (keys x box) numerator array, one root of unity per distinct
residue (a float64 cos/sin, or above 53 bits an exact product of table
roots), gathered and summed per row.
A Walk fills the c-sums of series, constant terms and coefficients on equal
data, a datum and its conjugate in one walk (gridforms.build_grid uses one
per grid, eichler.supplementary and check_supplementary_identity one each);
a series is a combination sum b P_{n,alpha}, each term's c-sum weighted by
amp = b.  poincare_series, poincare_coefficient and constant_term_cf are a
Walk with one request, kloosterman_layer the engine at one c and one index.

Every c-sum, a coefficient's or a constant term's, is built by one
constructor (_coefficient_sum): a common prefactor times one exact integer
sum S = sum_c u_c K_c at the scale 2^-P, rounded once, with one noise rule
(see _run).  u_c is the weight as an integer, and K_c comes from one of
three sources: a float64 or a fixed-point box layer, each as an exact
Gaussian integer, or, with no box, the Ramanujan sum
c_c(m) = sum_{d | (c, m)} mu(c/d) d, m = |x + y| (Hardy & Wright,
ch. XVI), which is every layer at x = 0 or y = 0 whose effective character
is trivial; it has no layer precision, and Moebius inversion makes its S
one divisor pass per walk (_run).  One majorant (_majorant) bounds every
c > c_max tail and coefficient_envelope's whole c-sum; weight 3 converges
absolutely, its terms being O(c^-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import mpmath
import numpy as np
from mpmath.libmp import mpf_shift, to_int

from .automorphy import AutomorphyData, TrivialMultiplier
from .groups import cplus_arrays
from .precision import cos_sin_2pi, exp2pi
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


def _distinct_residues(nums: np.ndarray, den: int):
    """(distinct, at): the distinct residues r of nums mod den, and for each
    of its n elements the index of its r in distinct: through a den-entry
    intp table (den * 8 bytes, nearly all touched) while den <= 64 n, else a sort."""
    flat = (nums % den).ravel()
    if den > 64 * flat.size:
        distinct, at = np.unique(flat, return_inverse=True)
        return distinct, at.reshape(nums.shape)
    index, at = np.empty(den, dtype=np.intp), np.arange(flat.size)  # index read only where written
    index[flat] = at  # one element's index stays per residue
    distinct = flat[index[flat] == at]
    index[distinct] = at[:distinct.size]  # each residue's number
    return distinct, index[flat].reshape(nums.shape)


def _exponent_sums(nums: np.ndarray, den: int, bits: int, tables: dict) -> list:
    """[(re, im, e)] per row of a 2-D int64 numerator array, in one pass: the
    row's sum of e^{2 pi i num/den} as the Gaussian integer (re + i im) 2^-e,
    each element's root e(r/den) formed once per distinct residue r
    (_distinct_residues).  Up to 53 bits: cos and sin of r (2 pi/den), within
    6 pi 2^-53; with numpy's sin and cos within 2 ulps, an element is within
    25.3 2^-53 and a row of n (2^-53 per partial sum, each below n) within
    n (n + 28) 2^-53 (_layer_error), converted exactly (_gaussian).  Larger
    bits: the exact product giant[q] baby[s], r = q B + s, over the root table
    of den (_root_table; `tables` maps (den, bits) to it per box); a row is
    exact at e = 2 P and within row length * (2 isqrt(den) + 3) 2^-P."""
    distinct, at = _distinct_residues(nums, den)
    if bits <= 53:
        angles = distinct * (TWO_PI / den)
        re, im = np.cos(angles)[at].sum(axis=1), np.sin(angles)[at].sum(axis=1)
        return [_gaussian(r, i) for r, i in zip(re.tolist(), im.tolist())]
    if (den, bits) not in tables:
        tables[den, bits] = _root_table(den, bits)
    prec, step, baby, giant = tables[den, bits]
    (gr, gi), (br, bi) = giant[:, distinct // step], baby[:, distinct % step]
    re, im = (gr * br - gi * bi)[at].sum(axis=1), (gr * bi + gi * br)[at].sum(axis=1)
    return [(r, i, 2 * prec) for r, i in zip(re, im)]


def _gaussian(re: float, im: float):
    """(a, b, e) with re + i im = (a + i b) 2^-e exactly (float.as_integer_ratio)."""
    (a, p), (b, q) = re.as_integer_ratio(), im.as_integer_ratio()  # p, q powers of two
    return a * max(q // p, 1), b * max(p // q, 1), max(p, q).bit_length() - 1


def _root_table(den: int, bits: int):
    """(P, B, baby, giant): e(s/den) for s < B = isqrt(den) and e(q B/den)
    for q <= den // B, as integers scaled by 2^P in (re, im) rows of an
    object array, with P = bits + 16 + den.bit_length().

    Each step is one fixed-point multiplication rounded to nearest
    (<= 2^-1/2 ulps), by a seed carried 16 bits beyond P, so the k-th power
    is off by under 0.72 k ulps, and a product giant[q] * baby[s] by under
    (1.44 B + 0.72) * 2^-P.
    """
    prec = bits + 16 + den.bit_length()
    step = math.isqrt(den)
    return (prec, step, _fixed_powers(Fraction(1, den), step, prec),
            _fixed_powers(Fraction(step, den), den // step + 1, prec))


def _fixed_powers(x: Fraction, count: int, prec: int) -> np.ndarray:
    """e(k x) * 2^prec for k < count, rounded to integers, as the (re, im)
    rows of an object array; the seed e(x) 2^(prec + 16) is rounded to
    nearest from cos_sin_2pi at prec + 32 bits."""
    shift = prec + 16
    wr, wi = (to_int(mpf_shift(v, shift), "n") for v in cos_sin_2pi(x, shift + 16))
    half = 1 << (shift - 1)
    out = [(1 << prec, 0)]
    for _k in range(1, count):
        re, im = out[-1]
        out.append(((re * wr - im * wi + half) >> shift, (re * wi + im * wr + half) >> shift))
    return np.array(out, dtype=object).T


# Element budget above which high-precision layers fall back to float64: an
# exact root per distinct residue is a big-integer product over a table of
# about 2 sqrt(den) fixed-point steps per den and box, a float64 one a cos/sin.
MP_LAYER_ELEMENT_BUDGET = 40_000


def layer_bits_for(ctx, c: int, level: int = 1) -> int:
    """Working precision for the Kloosterman layers at c of an engine walk.

    The layers are unit-modulus sums with exactly reduced rational phases,
    so float64 already gives ~1e-16 relative accuracy per element; that
    floor only matters when a downstream evaluation cancels many digits
    (regularized L-series at split heights away from 1).  When the context
    asks for more than double precision and the total box size up to c,
    sum_{c' <= c} phi(c') ~ 0.31 c^2 / level, stays within budget, the
    layers at c run at full context precision; otherwise they stay in
    float64.  A layer's precision depends on its c, not on the walk's c_max,
    so more c never costs the small c (the largest weights) their digits.
    Either way a group of keys is one pass over (keys x box), one root per
    distinct residue.  Deterministic for fixed (ctx, c, level).
    """
    if ctx.mantissa_bits <= 64:
        return 53
    est_elements = (31 * c * c) // (100 * level)
    return ctx.mantissa_bits if est_elements <= MP_LAYER_ELEMENT_BUDGET else 53


def _layer_error(c: int, den: int, bits: int) -> float:
    """Bound on the rounding error of one layer over C+(c) (|C+(c)| <= c
    elements) with phases over den, evaluated at `bits` (see _exponent_sums)."""
    if bits <= 53:
        return c * (c + 28) * 2.0 ** -53
    return _scaled_up(bits + 16 + den.bit_length(), c * (2 * math.isqrt(den) + 3))


def _key_group(keys: list) -> tuple:
    """(alpha, q, xy) of keys (x, y, alpha) sharing alpha and q = lcm(x.den,
    y.den): xy holds their x and y as int64 numerators over q, one column
    per key, built once per walk (_layers scales it per c)."""
    x, y, alpha = keys[0]
    q = math.lcm(x.denominator, y.denominator)
    xy = np.array([(x.numerator * (q // x.denominator), y.numerator * (q // y.denominator))
                   for x, y, _alpha in keys], dtype=np.int64)
    return alpha, q, xy.T


def _layers(data: AutomorphyData, c: int, box, groups, bits: int, tables: dict, sign=1) -> list:
    """[(rows, error bound)] per key group (alpha, q, xy) (_key_group), rows
    holding (re, im, e) of K_c(x, y)_{alpha,alpha} = (re + i im) 2^-e for
    each key of the group, from the box (a, d) = C+(c).

    The box phases of chi * mu_alpha are divided by gcd(den, nums) once per
    c, so any multiplier gives its least den (12 c on eta^2, 1 on eta^24 over
    SL2(Z)), and the exponent (x a + y d)/c minus them reduces exactly over
    lcm(q c, den): one (keys x box) numerator array in one pass
    (_exponent_sums).  `tables` holds, for every datum at this c, root
    tables by (den, bits) and phases by (data, alpha); sign = -1 puts the
    keys on data's conjugate, with data's phases negated (same roots).
    """
    a, d = box
    out = []
    for alpha, q, xy in groups:
        if (data, alpha) not in tables:
            nums, den = data.scalar_character(alpha).box_phases(a, d, c)
            g = math.gcd(den, int(np.gcd.reduce(nums)))
            tables[(data, alpha)] = nums // g, den // g
        chi_num, chi_den = tables[(data, alpha)]
        # exponent (x a + y d)/c over q c (lambda = 1 here), one row per key
        den = math.lcm(q * c, chi_den)
        ca, cd = xy * (den // (q * c))
        nums = ca[:, None] * a + cd[:, None] * d - sign * chi_num * (den // chi_den)
        out.append((_exponent_sums(nums, den, bits, tables), _layer_error(c, den, bits)))
    return out


def kloosterman_layer(data: AutomorphyData, c: int, x: Fraction, y: Fraction,
                      j: int = 1, alpha: int = 1, bits: int = 53):
    """Inner sum over C+(c) with exponential weights x on a and y on d.

    For the trivial character and p = 1 this is the classical Kloosterman
    sum S(x, y; c).  Exact zero when j != alpha (rho is diagonal).
    bits is the phase precision a walk takes at c from layer_bits_for; the
    layer comes at the precision it ran at: a complex at 53 bits, else an
    mpc at the fixed point's P bits.
    """
    if j != alpha:
        data.kappa_of(j), data.kappa_of(alpha)  # ValueError outside 1..dim
        return 0j
    re, im, e = _layers(data, c, cplus_arrays(data.group, c),
                        [_key_group([(Fraction(x), Fraction(y), alpha)])], bits, {})[0][0][0]
    if bits <= 53:
        return complex(re / (1 << e), im / (1 << e))
    with mpmath.workprec(e // 2):
        return mpmath.mpc(mpmath.ldexp(re, -e), mpmath.ldexp(im, -e))


@dataclass
class _CSum:
    """One c-sum pref * sum_c u_c K_c(x, y)_{alpha,alpha} over c = level, ...,
    c_max, accumulated by _run as S = re + i im at the scale 2^-e."""

    key: tuple  # (x, y, alpha)
    pref: object  # common prefactor, at _prefactor_prec bits
    weight: tuple  # (u_c, e, |u_c| 2^-e, du_c), of c^-w or of a Bessel weight
    tail: float  # bound on the c > c_max remainder
    m: int | None = None  # every layer is the Ramanujan sum c_c(m) (_coefficient_sum)
    re: int = 0
    im: int = 0
    e: int = 0
    noise: float = 0.0


def _run(requests: list, trunc: TruncationParams):
    """The coefficient engine: one walk over c fills every c-sum of every
    request (data, sums); the data share one group.  Call inside
    trunc.ctx.working(), at wp bits.

    Each c builds the box C+(c) and one dict of tables once, for every c-sum
    of every datum: root tables by (den, bits), so eta^2 and its conjugate
    share theirs at den = 12 c, and reduced box phases by (datum, alpha),
    which a datum on an earlier datum's conjugate reads negated (one
    dedekind_sum per c for the pair).  A datum's box c-sums with one alpha
    and q = lcm(x.den, y.den) (so one den at every c) are one key group:
    its numerator array is built once (_key_group), it is one _layers pass
    per c, and it keeps one float64 array of layer errors.  No c-sum's value
    or bound depends on which sums share the walk.

    Each c-sum accumulates S = sum_c u_c K_c exactly at the scale 2^-e, and
    _value rounds pref S 2^-e once.  The weight (u_c, e, |u_c| 2^-e, du_c)
    (_coefficient_sum) holds u_c = floor(2^e v_c), the weight v_c as an
    integer, with e = P - top, P = wp + bit_length(c_max) + 8 and 2^top >=
    max |v_c| (P bits below the largest weight), and du_c, the weight's own
    error beyond the floor (0 for c^-w).  K_c = (re + i im) 2^-f is
      - the Ramanujan sum c_c(m) (f = 0) when the c-sum has m set, with no
        box: S = sum_{d | m} d M_d, M_d = sum_t mu(t) u_{d t} built once per
        (weight table, d) and walk, O(c_max sum_d 1/d) (Apostol, 8.3);
      - a box layer (_exponent_sums) at layer_bits_for(ctx, c, level) bits:
        exact in fixed point, or in float64 converted exactly (_gaussian).
    Each product u_c K_c is an integer multiply and a shift by f, rounded to
    nearest (under one unit of 2^-e in modulus, exact at f = 0).

    The one noise rule, with kmax_c >= |K_c| (|c_c(m)|, else c >= |C+(c)|)
    and dK_c the layer's error bound (0 for c_c(m); c (c + 28) 2^-53 in
    float64; phi(c) (2 isqrt(den) + 3) 2^-T in fixed point,
    T = bits + 16 + den.bit_length(); phi(c) <= c):

      |pref| (sum_c ((du_c + 2^-e) kmax_c + |u_c| 2^-e dK_c + 2^-e)
              + 2^(1 - wp) |S| 2^-e).

    The sum runs over every c, so a layer that rounds to 0 still counts; the
    last term covers _value's rounding at wp and the prefactor's 2^-wp/8
    (_prefactor_prec); it and 2^-e round up where they underflow (_ldexp_up).
    For c_c(m) the terms 2^-e (|c_c(m)| + 1) are exact: one integer sum.
    """
    group = requests[0][0].group
    level = group.level
    cs = list(range(level, trunc.c_max + 1, level))

    ramanujan = [s for _data, sums in requests for s in sums if s.m is not None]
    if ramanujan:  # mu, and where it is 1 and -1 as selectors (itertools.compress)
        mu, shared = _moebius(trunc.c_max), {}  # shared: (weight table, d) -> M_d
        plus, minus = (list(map(k.__eq__, mu.tolist())) for k in (1, -1))
    for s in ramanujan:  # S = sum_c u_c c_c(m) = sum_{d | m} d M_d
        u, s.e = s.weight[:2]
        layers = np.zeros(trunc.c_max + 1, dtype=np.int64)  # c_c(m), for the noise rule
        for d in (d for d in range(1, min(s.m, trunc.c_max) + 1) if s.m % d == 0):
            if (id(u), d) not in shared:  # M_d = sum_t mu(t) u_{d t}, d t in lcm(N, d) Z
                step = math.lcm(level, d)
                seg, t = u[step // level - 1::step // level], step // d
                shared[id(u), d] = sum(compress(seg, plus[t::t])) - sum(compress(seg, minus[t::t]))
            s.re += d * shared[id(u), d]
            layers[d::d] += d * mu[1:trunc.c_max // d + 1]
        layers = layers[level::level].tolist()
        s.noise = float(abs(s.pref)) * (_scaled_up(s.e, sum(map(abs, layers)) + len(layers))
                                        + _scaled_up(s.e + mpmath.mp.prec - 1, s.re))
    boxes = []  # (datum whose phases are read, sign, [(c-sums, layer errors)], key groups)
    for data, sums in requests:
        groups = {}  # keys sharing alpha and lcm(x.den, y.den) share den at every c
        for s in sums:
            if s.m is None:
                x, y, alpha = s.key
                groups.setdefault((alpha, math.lcm(x.denominator, y.denominator)), []).append(s)
        if groups:
            try:  # on an earlier datum's conjugate: read its phases negated (_layers)
                source = next((p, -1) for p, _sign, _g, _k in boxes if p.conjugate() == data)
            except (StopIteration, NotImplementedError):  # none, or no conjugate() defined
                source = (data, 1)
            boxes.append((*source, [(g, np.empty(len(cs))) for g in groups.values()],
                          [_key_group([s.key for s in g]) for g in groups.values()]))
    if not boxes:
        return
    for n, c in enumerate(cs):
        arrays, tables, bits = cplus_arrays(group, c), {}, layer_bits_for(trunc.ctx, c, level)
        for source, sign, groups, keys in boxes:
            layers = _layers(source, c, arrays, keys, bits, tables, sign)
            for (g, errors), (rows, error) in zip(groups, layers):
                errors[n] = error
                for s, (re, im, f) in zip(g, rows):
                    u = s.weight[0][n]
                    s.re += (u * re + (1 << f >> 1)) >> f  # to nearest
                    s.im += (u * im + (1 << f >> 1)) >> f
    for _source, _sign, groups, _keys in boxes:
        for g, errors in groups:
            for s in g:  # the noise rule
                _u, s.e, u_abs, du = s.weight
                unit = _ldexp_up(1.0, s.e)
                s.noise = float(abs(s.pref)) * (
                    math.fsum(((du + unit) * np.array(cs, dtype=float) + u_abs * errors
                               + unit).tolist())
                    + _scaled_up(s.e + mpmath.mp.prec - 1, s.re, s.im))


def _value(sums: list):
    """sum of s.pref (s.re + i s.im) 2^-s.e over the c-sums, rounded once per
    part at wp (mpmath.fdot forms exact products; ldexp is exact)."""
    re = mpmath.fdot([(mpmath.ldexp(s.pref.real, -s.e), s.re) for s in sums]
                     + [(mpmath.ldexp(s.pref.imag, -s.e), -s.im) for s in sums])
    im = mpmath.fdot([(mpmath.ldexp(s.pref.real, -s.e), s.im) for s in sums]
                     + [(mpmath.ldexp(s.pref.imag, -s.e), s.re) for s in sums])
    return mpmath.mpc(re, im)


def _scale_bits(c_max: int) -> int:
    """P, the bits a c-sum keeps below its largest weight (see _run), at wp."""
    return mpmath.mp.prec + c_max.bit_length() + 8


def _ldexp_up(x: float, e: int) -> float:
    """x 2^-e, x >= 0: math.ldexp, and where that rounds (below the normal
    doubles) one ulp(0.0) more, so a bound that underflows never becomes 0.0."""
    y = math.ldexp(x, -e)
    return y if math.ldexp(y, e) == x else y + math.ulp(0.0)


def _scaled_up(e: int, *ints) -> float:
    """hypot(ints) 2^-e by _ldexp_up from the ints' top 1000 bits (float overflows)."""
    cut = max(0, max(abs(v).bit_length() for v in ints) - 1000)
    return _ldexp_up(math.hypot(*(v >> cut for v in ints)), e - cut)


def _magnitudes(ints: list, e: int) -> np.ndarray:
    """|v| 2^-e per integer v as float64 (_scaled_up unless all are normal doubles)."""
    if max(map(abs, ints)).bit_length() <= 1000 and e <= 1022:
        return np.array(list(map(abs, ints)), dtype=float) * 2.0 ** -e
    return np.array([_scaled_up(e, v) for v in ints])


def _moebius(limit: int) -> np.ndarray:
    """mu(0), ..., mu(limit) as int64 (mu(0) = 0), sieved by the primes p <=
    sqrt(limit): n's one prime factor above that, if any, flips the sign."""
    mu, small = np.ones(limit + 1, dtype=np.int64), np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(math.isqrt(limit) + 1, dtype=bool)
    for p in range(2, len(composite)):
        if not composite[p]:
            composite[2 * p::p] = True
            mu[p::p] *= -1
            small[p::p] *= p
            mu[p * p::p * p] = 0
    mu[small != np.arange(limit + 1)] *= -1
    return mu


def _majorant(w: int, x, y, group, c0: int, m: int | None = None) -> float:
    """Certified bound on sum_{c >= c0} |term_c| of the weight-w c-sum at
    (x, y) (module docstring) on the group, whose c are the multiples N t of
    its level N, t >= t0 = ceil(c0/N): from |K_c| <= c, or |c_c(m)| <=
    sigma(m) when m > 0; J_nu(z) <= (z/2)^nu/nu! (DLMF 10.14.4), and I_nu(z)
    <= (z/2)^nu/nu! e^min((z/2)^2/(nu+1), z) from its series, at z/2 =
    zeta/c <= zeta/(N t0); and sum_{t >= t0} (N t)^-p <= (N t0)^-p (1 +
    t0/(p-1)).  Every term is then a constant times c^-w |K_c|.  In logs:
    inf only when a double overflows."""
    x, y, nu = float(x), float(y), w - 1
    t0 = -(-c0 // group.level)
    c = group.level * t0  # the smallest c of the sum
    log = math.log(TWO_PI) - math.lgamma(w)
    if x == 0:  # (2 pi)^w y^nu/nu!
        log += nu * math.log(TWO_PI * y)
    else:  # 2 pi (y/|x|)^(nu/2) zeta^nu/nu!, zeta = 2 pi sqrt(|x| y)
        zeta = TWO_PI * math.sqrt(abs(x) * y)
        log += nu * (math.log(y / abs(x)) / 2 + math.log(zeta))
        if x < 0:
            log += min((zeta / c) ** 2 / w, 2 * zeta / c)
    p = w if m else w - 1  # |c_c(m)| <= sigma(m) for m > 0, else |K_c| <= c
    if m:
        log += math.log(sum(d for d in range(1, m + 1) if m % d == 0))
    try:
        return math.exp(log - p * math.log(c) + math.log1p(t0 / (p - 1)))
    except OverflowError:
        return math.inf


def _prefactor_prec(w: int) -> int:
    """Bits p for the common prefactor pref of a weight-w c-sum.  It
    takes under 4 w + 32 roundings of 2^-p relative (the powers ^w and ^(w-1)
    carry their bases' errors w-fold; the phase i^{-w} is off by under 11),
    so at p = wp + 3 + bit_length(4 w + 32) it is off by under 2^-wp/8."""
    return mpmath.mp.prec + 3 + (4 * w + 32).bit_length()


def _coefficient_sum(data: AutomorphyData, w: int, x: Fraction, y: Fraction, alpha: int,
                     trunc: TruncationParams, powers: dict, amp=1) -> _CSum:
    """The c-sum of weight w at (x, y, alpha): a coefficient's (module
    docstring), or at y = 0 a constant term's (constant_term_cf), amp =
    a(n, t) times the x = 0 sum at y = 1 over the layers at (x, 0).  Call
    inside trunc.ctx.working(); amp pref is kept at _prefactor_prec(w) bits,
    and the tail is |amp| times the majorant.  The weight (see _run): c^-w
    is powers[w], built once per walk, u_c = floor(2^e c^-w) with e = P +
    bit_length(level^w) - 1 and du_c = 0.  A Bessel weight v_c = J or
    I(2 half/c)/c = V_c 2^-E/c (bessel_series) enters as u_c = floor(V_c
    2^(e-E)) // c, e = P - top, top = max bit_length(V_c) - E; du_c = V_c's
    bound / c.
    """
    key, m = (x, y, alpha), None
    if x * y == 0 and isinstance(data.scalar_character(alpha), TrivialMultiplier):
        # every layer is the Ramanujan sum c_c(m) over the units mod c, of
        # e(y d/c) at x = 0 and of e(x a/c) at y = 0; kappa = 0, so m is an integer
        m = int(abs(x + y))
    if y == 0:  # a constant term: the x = 0 sum at y = 1
        x, y = Fraction(0), Fraction(1)
    with mpmath.workprec(_prefactor_prec(w)):
        phase = exp2pi(Fraction(-w, 4))  # i^{-w}
        if x == 0:
            pref = (2 * mpmath.pi) ** w / math.factorial(w - 1) * phase \
                * (mpmath.mpf(y.numerator) / y.denominator) ** (w - 1)
        else:
            q = y / abs(x)
            pref = 2 * mpmath.pi * phase * (mpmath.mpf(q.numerator) / q.denominator) \
                ** (mpmath.mpf(w - 1) / 2)
        pref = amp * pref
    tail = abs(complex(amp)) * _majorant(w, x, y, data.group, trunc.c_max + 1, m)
    cs = range(data.group.level, trunc.c_max + 1, data.group.level)
    if x == 0:
        if w not in powers:  # the largest weight is cs[0]^-w, at the level
            e = _scale_bits(trunc.c_max) + (cs[0] ** w).bit_length() - 1
            u = [(1 << e) // c ** w for c in cs]
            powers[w] = u, e, _magnitudes(u, e), 0.0
        return _CSum(key, pref, powers[w], tail, m)
    xy = abs(x) * y
    half = 2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(xy.numerator) / xy.denominator)
    # J or I at 2 half/c for every c, from one kernel call
    values, scale, bounds = bessel_series(w - 1, half, cs, trunc.ctx, x > 0)
    e = scale + _scale_bits(trunc.c_max) - max(v.bit_length() for v in values)
    # floor(floor(X)/c) = floor(X/c); >> floors
    u = [(v << e - scale if e >= scale else v >> scale - e) // c for v, c in zip(values, cs)]
    weight = (u, e, _magnitudes(u, e), bounds / np.array(cs))
    return _CSum(key, pref, weight, tail)


class Walk:
    """C-sums of series, constant terms and coefficients on data of one
    group, filled by one engine walk over c (_run): register, run(), read.
    A series is a combination sum b P_{n,alpha} of one or many terms; each
    term's coefficient is a c-sum with amp = b.  A c-sum asked for twice,
    a coefficient's or a constant term's, is one c-sum (_add), and each
    (datum, weight) is checked once."""

    def __init__(self, trunc: TruncationParams):
        self.trunc, self.requests, self.sums = trunc, {}, {}
        self.checked, self.powers = set(), {}

    def _check(self, data: AutomorphyData, w: int):
        """Once per (data, w): the c-sums converge, chi(-I) = e^{pi i w} at
        the weight computed (not only at data.weight), and c_max reaches the
        level."""
        if (data, w) in self.checked:
            return
        if w < 3:
            raise ValueError("Poincare coefficient sums diverge for weight < 3")
        if not data.chi.nontriviality_ok(w):
            raise ValueError(f"character {data.chi.label()} violates chi(-I) = e^(pi i k) "
                             f"at weight {w}")
        if self.trunc.c_max < data.group.level:
            raise ValueError(f"c_max = {self.trunc.c_max} is below the smallest positive c "
                             f"(= level {data.group.level}) of the group")
        self.checked.add((data, w))

    def _add(self, data: AutomorphyData, w: int, x, y, alpha: int, amp=1) -> _CSum:
        """Registers _coefficient_sum(data, w, x, y, alpha, ..., amp) once for run()."""
        key = (data, w, x, y, alpha, amp)
        if key not in self.sums:
            with self.trunc.ctx.working():
                s = _coefficient_sum(data, w, x, y, alpha, self.trunc, self.powers, amp)
            self.sums[key] = s
            self.requests.setdefault(data, (data, []))[1].append(s)
        return self.sums[key]

    def coefficient(self, data: AutomorphyData, w: int, n: int, alpha: int, l: int, j: int,
                    amp=1) -> list:
        """[the c-sum of amp a_{n,alpha}(l, j) at weight w] for value(), [] for
        a structural zero (j != alpha); l + kappa_j must be positive."""
        y = l + data.kappa_of(j)
        if not y > 0:
            raise ValueError(f"need l + kappa_j > 0, got {y}")
        self._check(data, w)
        x = -n + data.kappa_of(alpha)  # ValueError outside 1..dim, also at a structural zero
        if j != alpha:
            return []  # a structural zero
        return [self._add(data, w, x, y, alpha, amp)]

    def value(self, sums: list) -> tuple:
        """(value, tail_bound) of the c-sums added: one rounding at wp
        (_value), and a tail of sum (tail + noise); [] gives (0, 0.0)."""
        with self.trunc.ctx.working():
            return _value(sums), sum((s.tail + s.noise for s in sums), 0.0)

    def series(self, data: AutomorphyData, w: int, terms, l_range):
        """Registers sum b P_{n,alpha} over terms [(b, n, alpha), ...] at weight
        w, on l_range (see poincare_series); returns the function that builds
        it after run().  Each entry is one value() over its terms' c-sums, plus
        sum b at each (-n, alpha) whose entry is complete: at a frequency
        -n + kappa_alpha <= 0, or where l = -n is asked for.  No terms give an
        empty series."""
        l_range, lead = list(l_range), {}  # lead: (-n, alpha) -> the b of its terms
        for b, n, alpha in terms:
            self._check(data, w)  # also when no l is summed; kappa_of checks alpha
            if -n + data.kappa_of(alpha) <= 0 or -n in l_range:
                lead.setdefault((-n, alpha), []).append(b)
        entries = {(l, j): [s for b, n, alpha in terms
                            for s in self.coefficient(data, w, n, alpha, l, j, b)]
                   for j in range(1, data.dim + 1) for l in l_range
                   if terms and l + data.kappa_of(j) > 0}
        for idx in lead:
            entries.setdefault(idx, [])

        def build() -> FourierSeries:
            series = FourierSeries(w, data, truncation=self.trunc)
            for idx, sums in entries.items():
                series.coeffs[idx], series.tails[idx] = self.value(sums)
            with self.trunc.ctx.working():
                for idx, bs in lead.items():
                    series.coeffs[idx] += sum(bs)
            return series
        return build

    def constant_term(self, f: FourierSeries):
        """Registers constant_term_cf(f); returns the function that gives its
        (values, tails) after run()."""
        data, w = f.automorphy, f.weight  # w = k + 2
        self._check(data, w)
        per_comp = [[] for _j in range(data.dim)]
        for n, t in f.principal_support():
            # a term a(n, t) pref c^-w K_c(x, 0) of component t, when kappa_t = 0
            # (else a structural zero); x = n + kappa_t < 0 rides on the 'a' entry
            if f.coeffs[(n, t)] != 0 and data.kappa_of(t) == 0:
                per_comp[t - 1].append(self._add(data, w, f.freq(n, t), Fraction(0), t,
                                                 f.coeffs[(n, t)]))

        def build():
            parts = [self.value(sums) for sums in per_comp]
            return [v for v, _t in parts], [t for _v, t in parts]
        return build

    def run(self):
        """Fills every registered c-sum in one walk over c."""
        if self.requests:
            with self.trunc.ctx.working():
                _run(list(self.requests.values()), self.trunc)


def poincare_coefficient(data: AutomorphyData, weight: int, n: int, alpha: int,
                         l: int, j: int, trunc: TruncationParams):
    """Coefficient a_{n,alpha}(l, j) of the weight-`weight` Poincare series.

    Returns (value, tail_bound).  The value is the c <= c_max partial sum,
    added exactly and rounded once; tail_bound majorises the neglected
    remainder plus the rounding noise (finite unless the majorant
    overflows a double).  The Kronecker-delta leading term at (-n, alpha)
    is *not* included here; poincare_series adds it.
    """
    walk = Walk(trunc)
    sums = walk.coefficient(data, weight, n, alpha, l, j)
    walk.run()
    return walk.value(sums)


def poincare_series(data: AutomorphyData, weight: int, n: int, alpha: int,
                    l_range, trunc: TruncationParams) -> FourierSeries:
    """Expansion of P_{n,alpha} at i-infinity over the requested l range.

    Indices with l + kappa_j <= 0 are skipped (they do not occur in the
    expansion).  The delta_{j,alpha} leading term is stored at (-n, alpha)
    where that entry is complete: when -n + kappa_alpha <= 0, and else only
    when l = -n is requested, where it adds to the c-sum.
    """
    walk = Walk(trunc)
    series = walk.series(data, weight, [(1, n, alpha)], l_range)
    walk.run()
    return series()


def constant_term_cf(f: FourierSeries, trunc: TruncationParams):
    """Constant term of the order -(k+1) Eichler primitive of f (weight k+2).

    For f with poles only at i-infinity,

      (c_f)_j = delta_{kappa_j,0} / (lambda (k+1)!) *
                sum_t sum_{l + kappa_t < 0} sum_{C+} a(l,t) (-2 pi i/c)^{k+2}
                chi^{-1}(g) rho(g^{-1})_{j,t} e^{(2 pi i/(c lambda)) (l+kappa_t) a}.

    Returns (values, tails): one complex constant and one tail bound per
    component, the tail including the layer-rounding noise at each c's layer
    precision (layer_bits_for).  On a trivial effective character every
    layer is an exact Ramanujan sum (see _run), with |c_c(m)| <= sigma(m)
    in the tail.  Each component is rounded once.
    """
    walk = Walk(trunc)
    constant_term = walk.constant_term(f)
    walk.run()
    return constant_term()


def coefficient_envelope(data: AutomorphyData, weight: int, n: int, alpha: int,
                         l: int, j: int) -> float:
    """Certified upper bound on |a_{n,alpha}(l, j)| (all three cases): the
    whole c-sum's majorant (_majorant from c = 1).  Used to pick truncation
    points for L-series m-sums."""
    y = l + data.kappa_of(j)
    if y <= 0:
        return 0.0
    return _majorant(weight, -n + data.kappa_of(alpha), y, data.group, 1)
