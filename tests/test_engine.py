"""The coefficient engine: exact box phases of every built-in multiplier
against the per-element phase, user multipliers that define only phase(),
one-pass series against single coefficients, the one noise rule of the
c-sum accumulator over float64 and fixed-point layers, the constant term's
layer precision, the exact fixed-point layers against 256-bit sums and
Ramanujan sums, root tables against exp2pi-seeded ones, the distinct-residue
kernel against per-element fixed-point and float64 sums, numpy's sin and
cos within 2 ulps at the kernel's angles, the batched layers
of every key group against per-element sums, passes at the least phase
denominator, a conjugate's layers from negated phases with one Dedekind sum
per c, one array pass per datum and c, the Bessel weights as the
kernel's integers and against 400-bit J and I, the Ramanujan and box layer
sources against each other, the Ramanujan c-sums' sigma(m) tails, passes
that build no box, the leading delta term at context precision, the Bessel
weights' error in the tails, structural zeros with no tail, component
indices outside 1..dim, and the weight prefactors' share of the rounding."""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    CompositeMultiplier,
    DiagonalRepresentation,
    DirichletMultiplier,
    EtaPowerMultiplier,
    Multiplier,
    TrivialMultiplier,
    dedekind_sum,
    frac,
    trivial_representation,
)
from mgrid.gridforms import build_pair
from mgrid.groups import cplus_arrays, enumerate_cplus, gamma0, sl2z
from mgrid.poincare import (
    TWO_PI,
    Walk,
    _bessel_weights,
    _coefficient_sum,
    _exponent_sums,
    _key_group,
    _layer_error,
    _layer,
    _moebius,
    _root_table,
    _run,
    _scale_bits,
    _value,
    constant_term_cf,
    kloosterman_layer,
    poincare_coefficient,
    poincare_series,
)
from mgrid.precision import PrecisionContext, exp2pi
from mgrid.specialfn import bessel_series
from mgrid.series import FourierSeries, TruncationParams

CTX = PrecisionContext(mantissa_bits=113, target_tol=1e-25)

# eta^24, the character of Delta: trivial on SL2(Z), but not a
# TrivialMultiplier, so its x = 0 sums keep the box path
DELTA4 = AutomorphyData(weight=4, chi=EtaPowerMultiplier(24),
                        rho=trivial_representation(), group=sl2z())

DIRICHLET4 = DirichletMultiplier(4, ((1, Fraction(0)), (3, Fraction(1, 2))))
DIRICHLET5 = DirichletMultiplier(5, ((1, Fraction(0)), (2, Fraction(1, 4)),
                                     (3, Fraction(3, 4)), (4, Fraction(1, 2))))

# (multiplier, level of the Gamma_0(N) box it is also checked on)
MULTIPLIERS = [
    (TrivialMultiplier(), 3),
    (DIRICHLET4, 4),
    (DIRICHLET5, 5),
    (EtaPowerMultiplier(2), 2),
    (EtaPowerMultiplier(-2), 3),
    (EtaPowerMultiplier(4), 4),
    (EtaPowerMultiplier(24), 6),
    (CompositeMultiplier((EtaPowerMultiplier(2), DIRICHLET4)), 4),
]


def _assert_box_matches_phase(m, spec, c):
    """box_phases equals phase() mod 1 on every element of the box, and
    raises exactly when phase() does on some element."""
    a, d = cplus_arrays(spec, c)
    elems = enumerate_cplus(spec, c)
    try:
        ref = [m.phase(g) for g in elems]
    except ValueError:
        with pytest.raises(ValueError):
            m.box_phases(a, d, c)
        return
    nums, den = m.box_phases(a, d, c)
    assert nums.dtype == np.int64 and len(nums) == len(elems)
    assert [frac(Fraction(num, den) - q) for num, q in zip(nums.tolist(), ref)] \
        == [0] * len(ref)
    # the base-class default, derived from phase(), is the reference
    ref_nums, ref_den = Multiplier.box_phases(m, a, d, c)
    assert [frac(Fraction(u, den) - Fraction(v, ref_den))
            for u, v in zip(nums.tolist(), ref_nums.tolist())] == [0] * len(ref)


@pytest.mark.parametrize("m,level", MULTIPLIERS, ids=[m.label() for m, _ in MULTIPLIERS])
def test_box_phases_match_phase(m, level):
    for c in range(1, 41):
        _assert_box_matches_phase(m, sl2z(), c)
    for c in range(level, 41, level):
        _assert_box_matches_phase(m, gamma0(level), c)


def test_dirichlet_box_on_sl2z_raises_like_phase():
    a, d = cplus_arrays(sl2z(), 3)  # d = -2 is even
    with pytest.raises(ValueError):
        DIRICHLET4.box_phases(a, d, 3)


@dataclass
class UserEta(Multiplier):
    """A user multiplier that defines only phase(); unhashable (eq, no frozen)."""

    r: int

    def phase(self, gamma):
        return EtaPowerMultiplier(self.r).phase(gamma)

    def label(self):
        return f"user-eta:{self.r}"


def test_user_multiplier_with_only_phase_gives_builtin_layers():
    user = UserEta(2)
    with pytest.raises(TypeError):
        hash(user)
    rep = trivial_representation()
    data_user = AutomorphyData(weight=5, chi=user, rho=rep, group=sl2z())
    data_eta = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2), rho=rep,
                              group=sl2z())
    kap = data_eta.kappa_of(1)
    assert data_user.kappa_of(1) == kap
    for bits in (53, 113):
        for c in range(1, 31):
            for x, y in ((-1 + kap, 2 + kap), (kap, kap), (-2 + kap, 0)):
                got = complex(kloosterman_layer(data_user, c, x, y, bits=bits))
                ref = complex(kloosterman_layer(data_eta, c, x, y, bits=bits))
                assert abs(got - ref) < 1e-12
    trunc = TruncationParams(c_max=20, tail_tol=1.0, ctx=CTX)
    got, got_tail = poincare_coefficient(data_user, 5, 1, 1, 2, 1, trunc)
    ref, ref_tail = poincare_coefficient(data_eta, 5, 1, 1, 2, 1, trunc)
    assert got_tail == ref_tail
    assert abs(complex(got - ref)) <= 1e-20 * max(1.0, abs(complex(ref)))
    # a walk over two user data needs no conjugate(): each computes its phases
    walk = Walk(trunc)
    s = walk.coefficient(data_user, 5, 1, 1, 2, 1)
    walk.coefficient(AutomorphyData(weight=5, chi=UserEta(-2), rho=rep, group=sl2z()),
                     5, 1, 1, 2, 1)
    walk.run()
    assert walk.value(s) == (got, got_tail)


def _two_component():
    rep = DiagonalRepresentation((TrivialMultiplier(), EtaPowerMultiplier(4)))
    return AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=rep, group=sl2z())


@pytest.mark.parametrize("layer_bits", [None, 53])
@pytest.mark.parametrize("case", ["trivial", "eta2", "diag(trivial;eta:4)"])
def test_series_entries_equal_single_coefficients(case, layer_bits, pin_layer_bits):
    if case == "trivial":
        data, weight, n = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                                         rho=trivial_representation(),
                                         group=sl2z()), 12, -1
    elif case == "eta2":
        data, weight, n = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                                         rho=trivial_representation(),
                                         group=sl2z()), 5, 1
    else:
        data, weight, n = _two_component(), 12, -1
    if layer_bits is not None:
        pin_layer_bits(layer_bits)
    trunc = TruncationParams(c_max=25, tail_tol=1.0, ctx=CTX)
    series = poincare_series(data, weight, n, 1, range(-1, 6), trunc)
    checked = 0
    for (l, j), value in series.items():
        if (l, j) == (-n, 1):
            continue  # the leading term is added by the series, not summed
        single, tail = poincare_coefficient(data, weight, n, 1, l, j, trunc)
        assert value == single
        assert series.tails[(l, j)] == tail
        checked += 1
    assert checked >= 4 * data.dim


def test_constant_term_honours_layer_bits_and_counts_float_noise(pin_layer_bits):
    # eta^24 (the character of Delta) is trivial on SL2(Z), but it is not a
    # TrivialMultiplier, so its constant term keeps the box layers; the
    # trivial character's constant term is an exact Ramanujan sum
    data = AutomorphyData(weight=12, chi=EtaPowerMultiplier(24),
                          rho=trivial_representation(), group=sl2z())
    f = poincare_series(data, 12, 1, 1, range(1, 3),
                        TruncationParams(c_max=50, tail_tol=1e-6, ctx=CTX))
    trunc = TruncationParams(c_max=400, tail_tol=1e-8, ctx=CTX)
    pin_layer_bits(53)
    (v53,), (t53,) = constant_term_cf(f, trunc)
    pin_layer_bits(113)
    (v113,), (t113,) = constant_term_cf(f, trunc)
    assert t53 > t113
    assert abs(complex(v53 - v113)) <= t53


def test_float_noise_counts_every_computed_layer_but_no_structural_zero(pin_layer_bits):
    # x = 0 on eta^24 (trivial on SL2(Z), but kept on the box path): the
    # layers are Ramanujan sums, and the vanishing ones (c_475(1),
    # mu(475) = 0) can round to exactly 0 in float64; their error bound
    # still counts
    pin_layer_bits(53)
    trunc = TruncationParams(c_max=475, tail_tol=1.0, ctx=CTX)
    s = _engine_sum(trunc)
    assert s.noise == _noise_rule(s, trunc, lambda c: c * (c + 28) * 2.0 ** -53)
    _assert_structural_zeros_are_exact(trunc, 53)


def _engine_sum(trunc):
    """The x = 0, y = 1 weight-4 c-sum on eta^24, after one engine pass."""
    with CTX.working():
        s = _coefficient_sum(DELTA4, 4, Fraction(0), Fraction(1), 1, trunc, {})
        _run([(DELTA4, s)], trunc)
    return s


def _noise_rule(s, trunc, layer_error):
    """The documented noise of a power-weight c-sum over box layers:
    |pref| (sum_c ((0 + 2^-e) c + |u_c| 2^-e dK_c + 2^-e) + 2^(1-wp) |S| 2^-e),
    u_c = floor(2^e / c^4), e = P = wp + bit_length(c_max) + 8 on SL2(Z)."""
    with CTX.working():
        wp = mpmath.mp.prec
        pref = float(abs(s.pref))
    prec = wp + trunc.c_max.bit_length() + 8
    unit = 2.0 ** -prec
    terms = [unit * c + float((1 << prec) // c ** 4) * unit * layer_error(c) + unit
             for c in range(1, trunc.c_max + 1)]
    return pref * (math.fsum(terms) + math.hypot(s.re, s.im) * unit * 2.0 ** (1 - wp))


def _assert_structural_zeros_are_exact(trunc, bits):
    """The j != alpha block of a diagonal rho is zero by structure: its layers
    (at the pinned bits) and coefficients are an exact 0 with tail 0.0, in
    all three cases."""
    data = _two_component()
    for c in range(1, 31):
        assert kloosterman_layer(data, c, Fraction(-1), 2 + data.kappa_of(2), 2, 1,
                                 bits) == 0
    for n in (-1, 0, 1):
        value, tail = poincare_coefficient(data, 12, n, 1, 2, 2, trunc)
        assert value == 0 and tail == 0.0


def _exact_layer_bound(count, den, bits=113):
    """The documented rounding bound of an exact fixed-point layer."""
    prec = bits + 16 + den.bit_length()
    return count * (2 * math.isqrt(den) + 3) * 2.0 ** -prec


@pytest.mark.parametrize("den", [1, 2, 7, 60, 144 * 37, 144 * 80])
def test_exact_layer_kernel_against_256_bit_sum(den):
    # one pass over a multi-row numerator array: every row within its bound
    # of a 256-bit sum, and equal bit for bit to the row evaluated alone
    rng = np.random.default_rng(den)
    for size in (1, 3, 40, 400):
        nums = rng.integers(-2**62, 2**62, size=(3, size), dtype=np.int64)
        rows = _exponent_sums(nums, den, 113, {})
        assert len(rows) == 3 and rows == _exponent_sums(nums, den, 113, {})  # bit for bit
        for row, (re, im, e) in zip(nums, rows):
            assert [(re, im, e)] == _exponent_sums(row[None, :], den, 113, {})
            with mpmath.workprec(256):
                ref = mpmath.fsum(exp2pi(Fraction(v, den)) for v in row.tolist())
                err = abs(mpmath.mpc(mpmath.ldexp(re, -e), mpmath.ldexp(im, -e)) - ref)
            assert err <= _exact_layer_bound(size, den)


def _exp2pi_powers(x, count, prec):
    """_fixed_powers with its seed from exp2pi at prec + 32 bits, shifted by
    prec + 16 and rounded by mpmath.nint, as a list of (re, im)."""
    shift, out = prec + 16, [(1 << prec, 0)]
    with mpmath.workprec(shift + 16):
        seed = exp2pi(x)
        wr, wi = (int(mpmath.nint(mpmath.ldexp(v, shift))) for v in (seed.real, seed.imag))
    for _k in range(1, count):
        re, im = out[-1]
        out.append(((re * wr - im * wi + (1 << shift >> 1)) >> shift,
                    (re * wi + im * wr + (1 << shift >> 1)) >> shift))
    return out


@pytest.mark.parametrize("bits", [113, 200])
def test_root_tables_equal_exp2pi_seeded_tables(bits):
    # the tables' seeds come from raw mpfs (precision.cos_sin_2pi), not from
    # exp2pi, which is exact at quarter turns (den 1, 2, 4, 8, ...) and
    # reduces x = 1 (den 1): every table equals, bit for bit, the one an
    # exp2pi seed gives, for every den < 2000 and eta^2's 12 c and 144 c
    for den in [*range(1, 2000), *(m * c for m in (12, 144) for c in range(1, 400, 7))]:
        prec, step, baby, giant = _root_table(den, bits)
        assert [tuple(r) for r in baby.T.tolist()] == _exp2pi_powers(Fraction(1, den), step, prec)
        assert [tuple(r) for r in giant.T.tolist()] \
            == _exp2pi_powers(Fraction(step, den), den // step + 1, prec)


def _key_groups(keys):
    """The engine's groups: keys sharing alpha and lcm(x.den, y.den) (see _run)."""
    groups = {}
    for key in keys:
        x, y, alpha = key
        groups.setdefault((alpha, math.lcm(x.denominator, y.denominator)), []).append(key)
    return list(groups.values())


def _element_phases(data, c, key):
    """The e-exponent x a/c + y d/c - phase(g) per element g of C+(c), one
    Fraction at a time, and the layer's denominator: lcm(x.den, y.den) c and
    the least common denominator of the character's phases over the box."""
    x, y, alpha = key
    chi, elements = data.scalar_character(alpha), enumerate_cplus(data.group, c)
    chi_phases = [chi.phase(g) for g in elements]
    out = [x * g.a / c + y * g.d / c - q for g, q in zip(elements, chi_phases)]
    chi_den = math.lcm(*(q.denominator for q in chi_phases))
    return out, math.lcm(math.lcm(x.denominator, y.denominator) * c, chi_den)


def _elementwise_exact_layer(phases, den, bits):
    """A plain per-element Python sum of giant[q] baby[s] over the root table
    of den, r = q B + s the residue of each phase."""
    prec, step, baby, giant = _root_table(den, bits)
    re = im = 0
    for phase in phases:
        r = phase * den % den
        assert r.denominator == 1
        q, s = divmod(int(r), step)
        (gr, gi), (br, bi) = giant[:2, q], baby[:2, s]
        re, im = re + gr * br - gi * bi, im + gr * bi + gi * br
    return re, im, 2 * prec


def _eta2_keys():
    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2), rho=trivial_representation(),
                          group=sl2z())
    kap = data.kappa_of(1)  # 1/12, and 11/12 on the conjugate
    f_keys = [(-1 + kap, l + kap, 1) for l in range(0, 11)] \
        + [(-1 + kap, Fraction(0), 1), (kap, Fraction(0), 1)]  # a second group
    g_keys = [(-kap, l + 1 - kap, 1) for l in range(0, 11)]  # G+ on the conjugate
    return [(data, f_keys), (data.conjugate(), g_keys)], (1, 7, 12, 37)


def _trivial_keys():
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=trivial_representation(),
                          group=sl2z())
    return [(data, [(Fraction(1), Fraction(l), 1) for l in range(1, 61)])], (1, 12, 30)


def _two_component_keys():
    data = _two_component()
    keys = [(-n + data.kappa_of(a), l + data.kappa_of(a), a)
            for a in (1, 2) for n in (-1, 1) for l in range(0, 4)]
    return [(data, keys)], (1, 6, 25)


def _dirichlet_keys():
    data = AutomorphyData(weight=5, chi=DIRICHLET4, rho=trivial_representation(),
                          group=gamma0(4))
    keys = [(Fraction(-n), Fraction(l), 1) for n in (-1, 1) for l in range(1, 6)]
    return [(data, keys)], (4, 12, 28)


LAYER_CASES = {"eta2": _eta2_keys, "trivial": _trivial_keys,
               "diag(trivial;eta:4)": _two_component_keys, "dirichlet4": _dirichlet_keys}


@pytest.mark.parametrize("case", LAYER_CASES)
def test_batched_layers_equal_an_elementwise_sum(case):
    # every row of every group's _layer call against its own key's
    # per-element sum: bit for bit in fixed point at 113 and 200 bits,
    # within c (c + 28) 2^-53 of a 256-bit sum in float64
    data_keys, cs = LAYER_CASES[case]()
    for c in cs:
        box, tables = cplus_arrays(data_keys[0][0].group, c), {}
        for data, keys in data_keys:
            groups = _key_groups(keys)
            for bits in (53, 113, 200):
                layers = [_layer(data, c, box, _key_group(g), bits, tables) for g in groups]
                assert [len(rows) for rows, _error in layers] == [len(g) for g in groups]
                for group, (rows, error) in zip(groups, layers):
                    for key, (re, im, e) in zip(group, rows):
                        phases, den = _element_phases(data, c, key)
                        if bits > 53:
                            assert (re, im, e) == _elementwise_exact_layer(phases, den, bits)
                            assert error == _layer_error(c, den, bits)
                            continue
                        assert error == c * (c + 28) * 2.0 ** -53
                        with mpmath.workprec(256):
                            ref = mpmath.fsum(exp2pi(p) for p in phases)
                            got = mpmath.mpc(mpmath.ldexp(re, -e), mpmath.ldexp(im, -e))
                            assert abs(got - ref) <= error


def _per_element_float64_rows(nums, den):
    """Row sums of one float64 cos and sin per element at the angle
    (num mod den) (2 pi/den), as exact (re, im) Fractions."""
    angles = (nums % den).astype(np.float64) * (2 * math.pi / den)
    parts = np.cos(angles).sum(axis=1), np.sin(angles).sum(axis=1)
    return [(Fraction(re), Fraction(im)) for re, im in zip(*(p.tolist() for p in parts))]


def _sparse_keys():
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=trivial_representation(),
                          group=sl2z())
    return [(data, [(Fraction(-1, 7), Fraction(2, 11), 1)])], (1999,)


# (keys of one datum, the slice of them taken, c, den/c) per case; the
# array is the first key group of the slice: a row per key, over one den
KERNEL_CASES = {"den = c, 60 keys": (_trivial_keys, slice(None), 60, 1),
                "eta2, den = 12 c": (_eta2_keys, slice(None), 37, 12), "one element": None,
                "eta2 row, c = 1999": (_eta2_keys, slice(1), 1999, 12),
                "sparse row, den = 77 c, c = 1999": (_sparse_keys, slice(None), 1999, 77)}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_exact_kernel_equals_a_per_element_sum(case):
    # the kernel forms one root per distinct residue and gathers it per row;
    # every row must equal, bit for bit, the plain sum over its elements,
    # each residue counted as often as elements hit it: in fixed point the
    # sum of table products, in float64 the sum of per-element cos and sin
    if case == "one element":
        den, nums = 144 * 5, np.array([[7], [-3], [7 + 144 * 5]], dtype=np.int64)
    else:
        make, taken, c, ratio = KERNEL_CASES[case]
        (data, keys), = make()[0][:1]
        rows = [_element_phases(data, c, key) for key in _key_groups(keys[taken])[0]]
        den = rows[0][1]
        assert {d for _phases, d in rows} == {den}
        assert den == ratio * c
        nums = np.array([[int(p * den) for p in phases] for phases, _den in rows],
                        dtype=np.int64)
    if case.startswith("den = c"):  # rows that hit one residue more than once
        assert len(nums) == 60 and any(len(set(r)) < len(r) for r in (nums % den).tolist())
    if "c = 1999" in case:  # one row, residues repeated; numbered by a sort when sparse
        assert nums.shape == (1, 1998) and len(set((nums % den).tolist()[0])) < 1998
        assert (den > 64 * nums.size) == ("sparse" in case)
    assert _exponent_sums(nums, den, 113, {}) == [
        _elementwise_exact_layer([Fraction(v, den) for v in row], den, 113)
        for row in nums.tolist()]
    assert [(Fraction(re, 1 << e), Fraction(im, 1 << e))
            for re, im, e in _exponent_sums(nums, den, 53, {})] \
        == _per_element_float64_rows(nums, den)


def test_float64_layer_with_a_large_denominator():
    # x and y over denominators near 10^6 give den = qx qy c near 10^12 c,
    # far beyond the c - 1 box elements: the layer is still the per-element
    # float64 sum, bit for bit
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=trivial_representation(),
                          group=sl2z())
    x, y = Fraction(-1, 10**6), Fraction(2, 10**6 + 3)
    for c in (7, 1999):
        phases, den = _element_phases(data, c, (x, y, 1))
        assert den == 10**6 * (10**6 + 3) * c
        (re, im), = _per_element_float64_rows(
            np.array([[int(p * den) for p in phases]], dtype=np.int64), den)
        assert kloosterman_layer(data, c, x, y, 1, 1, bits=53) == complex(re, im)


def test_float64_row_within_the_layer_bound():
    # one element whose angle k (2 pi/den) rounds three times, k = 10624 at
    # den = 144 * 79, off by 1.45 2^-50 by itself; a row of 78 copies must
    # stay within the bound of a layer at c = 79, which covers the angle,
    # sin/cos and the row sum
    den, k = 144 * 79, 10624
    (re, im, e), = _exponent_sums(np.full((1, 78), k, dtype=np.int64), den, 53, {})
    with mpmath.workprec(256):
        got = mpmath.mpc(mpmath.ldexp(re, -e), mpmath.ldexp(im, -e))
        assert abs(got - 78 * exp2pi(Fraction(k, den))) <= _layer_error(79, den, 53)


def test_numpy_sin_cos_within_2_ulps_at_kernel_angles():
    # the float64 layer bound takes numpy's sin and cos within 2 ulps; check
    # them at angles formed as the kernel forms them, r (2 pi/den) over
    # arrays, for den = c and 12 c (eta^2), c <= 2000, against 200-bit values
    worst = 0.0
    for c in range(1, 2001):
        for den in (c, 12 * c):
            rs = np.arange(den) if den <= 48 else np.unique(np.array(
                [1, 2, den // 4, den // 3, den // 2, den - 1, 7 * c % den, 11 * c // 7 % den]))
            angles = rs * (TWO_PI / den)
            for fn, ref in ((np.cos, mpmath.cos), (np.sin, mpmath.sin)):
                with mpmath.workprec(200):
                    for a, v in zip(angles.tolist(), fn(angles).tolist()):
                        exact = ref(mpmath.mpf(a))
                        err = float(abs(mpmath.mpf(v) - exact)) / math.ulp(float(exact))
                        worst = max(worst, err)
    assert worst <= 2.0, worst


@pytest.mark.parametrize("data, ratio", [(_eta2_keys()[0][0][0], 12), (DELTA4, 1)],
                         ids=["eta2", "eta24"])
def test_layers_run_at_the_least_phase_denominator(data, ratio):
    # box_phases come over 24 c; in lowest terms they leave eta^2 layers at
    # den = 12 c, the denominator of (x a + y d)/c, and eta^24 (trivial on
    # SL2(Z)) at c
    kap = data.kappa_of(1)
    for c in (7, 37):
        _rows, error = _layer(data, c, cplus_arrays(sl2z(), c),
                              _key_group([(-1 + kap, 2 + kap, 1)]), 113, {})
        assert error == _layer_error(c, ratio * c, 113)


def test_conjugate_reads_negated_phases_once_per_c(monkeypatch):
    # G+'s keys on the conjugate of eta^2 through eta^2's phases negated
    # equal, bit for bit, their layers from the conjugate's own phases; so a
    # build_pair walk computes s(-d, c) once per c, not once per datum
    (data, _f_keys), (cdata, g_keys) = _eta2_keys()[0]
    for c in (7, 37):
        box = cplus_arrays(sl2z(), c)
        for bits in (53, 113):
            assert _layer(data, c, box, _key_group(g_keys), bits, {}, -1) \
                == _layer(cdata, c, box, _key_group(g_keys), bits, {})
    calls = []

    def counted(h, k):
        calls.append(k)
        return dedekind_sum(h, k)

    monkeypatch.setattr("mgrid.automorphy.dedekind_sum", counted)
    build_pair(data, 3, 1, 1, 1, 1, TruncationParams(c_max=12, tail_tol=1.0, ctx=CTX), lmax=4)
    assert calls == list(range(1, 13))


def test_eta2_pair_evaluates_one_batch_per_datum_and_c(monkeypatch):
    # eta^2 at c_max 80: f and the shadow on eta^2, G+ on its conjugate, 33
    # keys per c; one array pass per datum and c (80 c x 2 data), where a
    # per-key kernel would make 2,640 evaluations
    calls = []

    def counted(nums, *args):
        calls.append(nums.shape[0])
        return _exponent_sums(nums, *args)

    monkeypatch.setattr("mgrid.poincare._exponent_sums", counted)
    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2), rho=trivial_representation(),
                          group=sl2z())
    build_pair(data, 3, 1, 1, 1, 1, TruncationParams(c_max=80, tail_tol=1.0, ctx=CTX), lmax=10)
    assert len(calls) == 160 and sum(calls) == 2640


@pytest.mark.parametrize("n", [-1, 1], ids=["J", "I"])
@pytest.mark.parametrize("w", [5, 12], ids=["order4", "order11"])
def test_bessel_weights_equal_the_mpf_route(w, n):
    # (u, e) are the kernel's integers V_c 2^-E moved to P bits below the
    # largest and floored by c, bit for bit; each u_c 2^-e lies within
    # du_c + 2^-e of a 400-bit J or I(2 half/c)/c
    chi = EtaPowerMultiplier(2) if w == 5 else TrivialMultiplier()
    data = AutomorphyData(weight=w, chi=chi, rho=trivial_representation(), group=sl2z())
    x, y = -n + data.kappa_of(1), 2 + data.kappa_of(1)
    trunc = TruncationParams(c_max=80, tail_tol=1.0, ctx=CTX)
    cs = range(1, 81)
    with CTX.working():
        s = _coefficient_sum(data, w, x, y, 1, trunc, {})
        _bessel_weights([(data, s)], trunc)
        u, e, u_abs, du = s.weight
        xy = abs(x) * y
        half = 2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(xy.numerator) / xy.denominator)
        (values, scale, bounds), = bessel_series(w - 1, [half], cs, CTX, x > 0)
        ref_e = _scale_bits(80) - max(abs(v).bit_length() for v in values) + scale
    ref_u = [math.floor(Fraction(v, c) * Fraction(2) ** (ref_e - scale))
             for v, c in zip(values, cs)]
    assert e == ref_e and u == ref_u
    assert u_abs.tolist() == [abs(float(v)) * 2.0 ** -e for v in ref_u]
    assert du.tolist() == [b / c for b, c in zip(bounds.tolist(), cs)]
    ref = mpmath.besselj if x > 0 else mpmath.besseli
    with mpmath.workprec(400):
        for c, u_c, du_c in zip(cs, u, du.tolist()):
            assert abs(mpmath.ldexp(u_c, -e) - ref(w - 1, 2 * half / c) / c) <= du_c + 2.0 ** -e


def test_exact_layer_noise_counts_every_computed_layer_but_no_structural_zero(pin_layer_bits):
    pin_layer_bits(113)
    trunc = TruncationParams(c_max=100, tail_tol=1.0, ctx=CTX)
    s = _engine_sum(trunc)
    # x = 0, y = 1 on eta^24, trivial on SL2(Z): box_phases over 24 c reduce
    # to den = c (_layer)
    assert s.noise == _noise_rule(s, trunc, lambda c: _exact_layer_bound(c, c))
    _assert_structural_zeros_are_exact(trunc, 113)


def _trial_mobius(m):
    """mu(m), m >= 1, by trial division."""
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def _ramanujan_sum(c, y):
    """c_c(y) = sum over d | (c, y) of mu(c/d) d."""
    g = math.gcd(c, y)
    return sum(_trial_mobius(c // d) * d for d in range(1, g + 1) if g % d == 0)


def test_moebius_sieve_matches_trial_division():
    # every limit to 400, p^2 - 1, p^2 and p^2 + 1 for the primes p <= 50
    # (the edges of the sieve's primes p <= sqrt(limit)), 2,500 and 10^4
    ref = [0] + [_trial_mobius(n) for n in range(1, 10**4 + 1)]
    primes = [p for p in range(2, 51) if _trial_mobius(p) == -1]
    limits = set(range(1, 401)) | {p * p + k for p in primes for k in (-1, 0, 1)} | {2500, 10**4}
    for limit in sorted(limits):
        mu = _moebius(limit)
        assert mu.dtype == np.int64 and mu.tolist() == ref[:limit + 1], limit


def test_exact_trivial_x0_layers_are_ramanujan_sums():
    data = AutomorphyData(weight=4, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    for c in range(1, 61):
        phi = sum(1 for d in range(1, c + 1) if math.gcd(c, d) == 1)
        for y in range(1, 2 * c + 2):
            layer = kloosterman_layer(data, c, Fraction(0), Fraction(y), bits=113)
            with mpmath.workprec(256):
                err = abs(layer - _ramanujan_sum(c, y))
            assert err <= _exact_layer_bound(phi, c)


# m below and above the c <= 200 of the sums
RAMANUJAN_MS = (1, 2, 7, 12, 60, 210, 360)


@pytest.mark.parametrize("w", [4, 12])
@pytest.mark.parametrize("spec", [sl2z(), gamma0(4)], ids=["sl2z", "gamma0(4)"])
def test_exact_ramanujan_csums_match_box_layers(spec, w):
    # the engine's exact Ramanujan c-sums (value and noise, no truncation
    # tail) against sum_c c^-w K_c over box layers at 53 and 113 bits
    data = AutomorphyData(weight=w, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=spec)
    trunc = TruncationParams(c_max=200, tail_tol=1.0, ctx=CTX)
    cs = range(spec.level, 201, spec.level)
    with CTX.working():
        sums = [_coefficient_sum(data, w, Fraction(0), Fraction(m), 1, trunc, {})
                for m in RAMANUJAN_MS]
        _run([(data, s) for s in sums], trunc)
        exact = [(_value([s]), s.pref, s.noise) for s in sums]
    for bits in (53, 113):
        for m, (value, amp, noise) in zip(RAMANUJAN_MS, exact):
            layers = [kloosterman_layer(data, c, Fraction(0), Fraction(m), bits=bits)
                      for c in cs]
            with mpmath.workprec(256):
                box = amp * mpmath.fsum(mpmath.mpc(k) * mpmath.mpf(c) ** -w
                                        for c, k in zip(cs, layers))
                err = abs(value - box)
            box_bound = float(abs(amp)) * sum(c ** -w * _layer_error(c, c, bits) for c in cs)
            assert err <= noise + box_bound


@pytest.mark.parametrize("w", [4, 12])
@pytest.mark.parametrize("spec", [sl2z(), gamma0(4), gamma0(6)],
                         ids=["sl2z", "gamma0(4)", "gamma0(6)"])
def test_divisor_pass_is_the_per_key_dot_product_bit_for_bit(spec, w):
    # every Ramanujan c-sum of one walk, the x = 0 coefficients at m in
    # RAMANUJAN_MS and the constant term of a principal part 2 q^-1 + 3 q^-2
    # (amp 2 and 3, on the same weight table), against sum_c u_c c_c(m) and
    # the noise rule's fsum per key, rebuilt here
    data = AutomorphyData(weight=w, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=spec)
    trunc = TruncationParams(c_max=200, tail_tol=1.0, ctx=CTX)
    walk = Walk(trunc)
    for m in RAMANUJAN_MS:
        walk.coefficient(data, w, 0, 1, m, 1)
    principal = {(-1, 1): mpmath.mpc(2), (-2, 1): mpmath.mpc(3)}
    walk.constant_term(FourierSeries(w, data, principal, dict.fromkeys(principal, 0.0)))
    walk.run()
    sums = list(walk.sums.values())
    assert sorted(s.m for s in sums) == sorted(RAMANUJAN_MS + (1, 2))
    assert sorted(complex(amp).real for _d, _w, _x, y, _a, amp in walk.sums if y == 0) == [2, 3]
    cs = range(spec.level, 201, spec.level)
    for s in sums:
        u, e, u_abs, du = s.weight
        layers = np.array([_ramanujan_sum(c, s.m) for c in cs])
        re = sum(k * u_c for k, u_c in zip(layers.tolist(), u) if k)
        unit = 2.0 ** -e
        with CTX.working():
            noise = float(abs(s.pref)) * (
                math.fsum(((du + unit) * np.abs(layers) + u_abs * 0.0 + unit).tolist())
                + math.hypot(re, 0) * unit * 2.0 ** (1 - mpmath.mp.prec))
        assert (s.re, s.im, s.e, s.noise) == (re, 0, e, noise), s.key


@pytest.mark.parametrize("w, n, c_max", [(4, 0, 100), (12, -1, 30)])
def test_1100_bit_series_lie_within_the_113_bit_tails(w, n, c_max):
    # past 1,024 bits float(u_c) overflows and 2^-e underflows: the weights'
    # magnitudes come from their top bits, and every bound rounds up
    data = AutomorphyData(weight=w, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    ref = poincare_series(data, w, n, 1, range(1, 4),
                          TruncationParams(c_max=c_max, tail_tol=1.0, ctx=CTX))
    fine = TruncationParams(c_max=c_max, tail_tol=1.0, ctx=PrecisionContext(mantissa_bits=1100))
    walk = Walk(fine)
    build = walk.series(data, w, [(1, n, 1)], range(1, 4))
    walk.run()
    series = build()
    assert all(s.e > 1074 and s.noise > 0 for s in walk.sums.values())
    with fine.ctx.working():
        for l in range(1, 4):
            assert math.isfinite(series.tail_bound(l)) and series.tail_bound(l) > 0
            assert abs(series.coefficient(l) - ref.coefficient(l)) <= ref.tail_bound(l)


@pytest.mark.parametrize("bits", [53, 113, 200])
def test_ramanujan_and_box_sources_agree(bits, pin_layer_bits):
    # the same weight-12 x = 0 sums through the Ramanujan source (trivial
    # character) and through the box (eta^24), within both returned tails;
    # 200-bit layers in a 200-bit context
    args = (12, 0, 1, range(1, 11))
    pin_layer_bits(bits)
    ctx = PrecisionContext(mantissa_bits=max(bits, 113))
    trunc = TruncationParams(c_max=200, tail_tol=1.0, ctx=ctx)
    exact = poincare_series(AutomorphyData(weight=12, chi=TrivialMultiplier(),
                                           rho=trivial_representation(), group=sl2z()),
                            *args, trunc)
    box = poincare_series(AutomorphyData(weight=12, chi=EtaPowerMultiplier(24),
                                         rho=trivial_representation(), group=sl2z()),
                          *args, trunc)
    with ctx.working():
        for l in range(1, 11):
            assert abs(exact.coefficient(l) - box.coefficient(l)) \
                <= exact.tail_bound(l) + box.tail_bound(l)


def test_ramanujan_passes_build_no_box(monkeypatch):
    calls = []

    def counting_cplus_arrays(spec, c):
        calls.append(c)
        return cplus_arrays(spec, c)

    monkeypatch.setattr("mgrid.poincare.cplus_arrays", counting_cplus_arrays)
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=60, tail_tol=1.0, ctx=CTX)
    eisenstein = poincare_series(data, 12, 0, 1, range(0, 6), trunc)
    assert calls == [] and len(eisenstein.coeffs) == 6
    f = poincare_series(data, 12, 1, 1, range(1, 3), trunc)  # I-Bessel sums
    assert calls == list(range(1, 61))
    calls.clear()
    (value,), (tail,) = constant_term_cf(f, trunc)
    assert calls == [] and value != 0 and tail > 0


def test_leading_delta_term_at_context_precision():
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=60, tail_tol=1.0, ctx=CTX)
    series = poincare_series(data, 12, -1, 1, range(1, 3), trunc)
    fine = TruncationParams(c_max=60, tail_tol=1.0,
                            ctx=PrecisionContext(mantissa_bits=200, target_tol=1e-25))
    value, _tail = poincare_coefficient(data, 12, -1, 1, 1, 1, fine)
    with fine.ctx.working():
        err = abs(series.coefficient(1, 1) - (value + 1))
    assert err <= series.tail_bound(1, 1)


@pytest.mark.parametrize("n, l", [(-1, 1), (2, 3)])
def test_tail_covers_the_bessel_truncation(n, l, pin_layer_bits):
    # a coarse target_tol truncates every J/I weight at about 1e-12; the same
    # c <= 30 sum at 200 bits and 1e-60 moves by that much, which the tail
    # must cover through the weights' error bounds
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    coarse = TruncationParams(c_max=30, tail_tol=1.0,
                              ctx=PrecisionContext(mantissa_bits=113, target_tol=1e-12))
    fine = TruncationParams(c_max=30, tail_tol=1.0,
                            ctx=PrecisionContext(mantissa_bits=200, target_tol=1e-60))
    pin_layer_bits(113)
    value, tail = poincare_coefficient(data, 12, n, 1, l, 1, coarse)
    pin_layer_bits(200)
    ref, _tail = poincare_coefficient(data, 12, n, 1, l, 1, fine)
    with fine.ctx.working():
        assert abs(value - ref) <= tail


def test_structural_zeros_cost_no_tail():
    # P_{-1,1} and P_{1,1} on diag(trivial; trivial): component 2 is an exact
    # zero, and component 1 is the scalar series, bit for bit
    pair = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=DiagonalRepresentation(
        (TrivialMultiplier(), TrivialMultiplier())), group=sl2z())
    scalar = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                            rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=40, tail_tol=1.0, ctx=CTX)
    for n in (-1, 1):
        series = poincare_series(pair, 12, n, 1, range(0, 4), trunc)
        ref = poincare_series(scalar, 12, n, 1, range(0, 4), trunc)
        for (l, j), value in series.items():
            if j == 2:
                assert value == 0 and series.tails[(l, j)] == 0.0
            else:
                assert value._mpc_ == ref.coeffs[(l, 1)]._mpc_
                assert series.tails[(l, j)] == ref.tails[(l, 1)]
    f = poincare_series(pair, 12, 1, 1, range(1, 3), trunc)
    (v1, v2), (t1, t2) = constant_term_cf(f, trunc)
    (r1,), (rt1,) = constant_term_cf(poincare_series(scalar, 12, 1, 1, range(1, 3), trunc),
                                     trunc)
    assert v2 == 0 and t2 == 0.0
    assert v1 == r1 and t1 == rt1 and t1 > 0


@pytest.mark.parametrize("j, alpha", [(0, 0), (3, 3), (0, 1), (1, 3)])
def test_component_outside_1_to_dim_raises(j, alpha):
    # on a two-component rho, 0 must not read component 2 (the last) and 3
    # must not end in an IndexError: a layer, a coefficient and a series
    # each raise ValueError naming 1..2
    data = _two_component()
    trunc = TruncationParams(c_max=10, tail_tol=1.0, ctx=CTX)
    with pytest.raises(ValueError, match=r"outside 1\.\.2"):
        kloosterman_layer(data, 7, Fraction(-1), Fraction(2), j, alpha)
    with pytest.raises(ValueError, match=r"outside 1\.\.2"):
        poincare_coefficient(data, 12, -1, alpha, 2, j, trunc)
    if j == alpha:
        for l_range in (range(0, 3), range(0)):
            with pytest.raises(ValueError, match=r"outside 1\.\.2"):
                poincare_series(data, 12, -1, alpha, l_range, trunc)


@pytest.mark.parametrize("x, y", [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(23, 24)),
                                  (Fraction(0), Fraction(59, 24)), (Fraction(-1), Fraction(7)),
                                  (Fraction(1), Fraction(59, 24))])
def test_weight_24_prefactor_within_its_eighth_of_a_unit(x, y):
    # each term's weight is the prefactor times u_c 2^-e: u_c = floor(2^e c^-w)
    # with e = P (x = 0), else a Bessel value over c within du_c + 2^-e; the
    # prefactor may add 2^-wp/8 relative
    data = AutomorphyData(weight=24, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=5, tail_tol=1.0, ctx=CTX)
    with CTX.working():
        wp = mpmath.mp.prec
        s = _coefficient_sum(data, 24, x, y, 1, trunc, {})
        _bessel_weights([(data, s)], trunc)
    u, e, _u_abs, du = s.weight
    if x == 0:
        assert e == wp + 3 + 8 and du == 0.0
        assert u == [(1 << e) // c ** 24 for c in range(1, 6)]
        du = [0.0] * 5
    with mpmath.workprec(400):
        yy = mpmath.mpf(y.numerator) / y.denominator
        for c, u_c, du_c in zip(range(1, 6), u, du):
            if x == 0:
                exact = (2 * mpmath.pi) ** 24 / mpmath.factorial(23) * yy ** 23 / c ** 24
            else:
                bessel = mpmath.besseli if x < 0 else mpmath.besselj
                exact = 2 * mpmath.pi * yy ** mpmath.mpf(11.5) / c \
                    * bessel(23, 4 * mpmath.pi * mpmath.sqrt(yy) / c)
            got = s.pref * mpmath.ldexp(u_c, -e)
            bound = abs(s.pref) * (du_c + 2.0 ** -e) + abs(exact) * 2.0 ** -wp / 8
            assert abs(got - exact) <= bound


def test_ramanujan_tails_use_sigma():
    # |c_c(m)| <= sigma(m) for every c, so the tail of an exact Ramanujan
    # c-sum is |amp| sigma(m) c_max^(1-w)/(w-1): at c_max 2500 it is below
    # 1e-8 and still covers the move out to c_max 10^5
    data = AutomorphyData(weight=4, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    f = FourierSeries(4, data, {(-1, 1): mpmath.mpc(1)}, {(-1, 1): 0.0})
    near, far = (TruncationParams(c_max=c_max, tail_tol=1.0, ctx=CTX)
                 for c_max in (2500, 10 ** 5))
    value, tail = poincare_coefficient(data, 4, 0, 1, 1, 1, near)
    ref, _tail = poincare_coefficient(data, 4, 0, 1, 1, 1, far)
    (cf,), (cf_tail,) = constant_term_cf(f, near)
    (cf_ref,), _tails = constant_term_cf(f, far)
    with CTX.working():
        assert tail < 1e-8 and abs(value - ref) <= tail
        assert cf_tail < 1e-8 and abs(cf - cf_ref) <= cf_tail
