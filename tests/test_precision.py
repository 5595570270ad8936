"""Working precision comes from the series' own TruncationParams: a 200-bit
context carries through the Petersson unfolding, the frequency-power maps
of the Eichler primitive and D^{k+1}, and a combination sum b P, and a
series built without truncation gets the default TruncationParams.
Quarter-turn phases are exact at every precision."""

from fractions import Fraction

import mpmath
import pytest

from mgrid.automorphy import AutomorphyData, TrivialMultiplier, trivial_representation
from mgrid.eichler import check_supplementary_identity, supplementary
from mgrid.groups import S, T, sl2z
from mgrid.lfun import petersson_poincare
from mgrid.poincare import poincare_series
from mgrid.precision import PrecisionContext, exp2pi
from mgrid.series import FourierSeries, TruncationParams

K = 10
CTX200 = PrecisionContext(mantissa_bits=200, target_tol=1e-55)
TR200 = TruncationParams(c_max=20, tail_tol=1e-3, ctx=CTX200)
DATA12 = AutomorphyData(weight=K + 2, chi=TrivialMultiplier(),
                        rho=trivial_representation(), group=sl2z())
REL = mpmath.mpf(2) ** -190


@pytest.fixture(scope="module")
def p_minus1():
    """Weight-12 P_{-1} at a 200-bit context, l = 1..10, c_max 20."""
    return poincare_series(DATA12, K + 2, -1, 1, range(1, 11), TR200)


def _rel_close(a, b):
    with mpmath.workprec(300):
        return abs(a - b) <= REL * abs(b)


def test_series_default_truncation():
    f = FourierSeries(K + 2, DATA12, coeffs={(1, 1): mpmath.mpc(1)})
    assert f.truncation == TruncationParams()


def test_petersson_poincare_at_context_precision(p_minus1):
    val = petersson_poincare(p_minus1, -1, 1, DATA12, K)
    with mpmath.workprec(300):
        # unfolding formula with lambda = 1 and -n + kappa = 1
        ref = (p_minus1.coefficient(1, 1) * (1 / (4 * mpmath.pi)) ** (K + 1)
               * mpmath.factorial(K))
    assert _rel_close(val, ref)


def test_frequency_power_round_trip(p_minus1):
    e = p_minus1.freq_power(-K, -(K + 1))
    back = e.freq_power(K + 2, K + 1)
    assert set(back.coeffs) == set(p_minus1.coeffs)
    for idx, v in p_minus1.coeffs.items():
        assert _rel_close(back.coeffs[idx], v)
        assert back.tails[idx] == pytest.approx(p_minus1.tails[idx], rel=1e-12)


@pytest.mark.parametrize("b2", [0.5j, -0.75])
def test_two_term_combination_rounds_once_at_context_precision(b2):
    # f = P_{-1} + b2 P_{-2}: each entry of f* is its terms' c-sums rounded
    # once at 200 bits, so it matches P_1 + conj(b2) P_2 (each rounded once)
    # to 2^-190 and within the summed tails; the identity holds for f
    combo = [(1, -1, 1), (b2, -2, 1)]
    fstar = supplementary(combo, DATA12, K, TR200, lmax=8)
    f1, f2 = (supplementary([(1, n, 1)], DATA12, K, TR200, lmax=8) for n in (-1, -2))
    assert fstar.truncation is TR200 and set(fstar.coeffs) == set(f1.coeffs) | set(f2.coeffs)
    for idx, v in fstar.coeffs.items():
        a1, a2 = f1.coefficient(*idx), f2.coefficient(*idx)
        with mpmath.workprec(400):
            diff = abs(v - (a1 + mpmath.conj(b2) * a2))
            assert diff <= REL * (abs(a1) + abs(a2))
        assert diff <= fstar.tails[idx] + f1.tail_bound(*idx) + abs(b2) * f2.tail_bound(*idx)
    assert check_supplementary_identity(combo, DATA12, K, S, TR200, lmax=20) < 1e-5
    assert check_supplementary_identity(combo, DATA12, K, T, TR200, lmax=20) == 0


@pytest.mark.parametrize("bits", [53, 133, 250])
def test_exp2pi_quarter_turns_are_exact(bits):
    with mpmath.workprec(bits):
        for k in range(-8, 9):
            z = exp2pi(Fraction(k, 4))
            assert (z.real, z.imag) == ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]


@pytest.mark.parametrize("bits", [53, 113, 200])
def test_exp2pi_equals_separate_cos_and_sin(bits):
    # exp2pi takes cos and sin of 2 pi x from one cos_sin_2pi call: bit for
    # bit mpc(cos(arg), sin(arg)) of the same angle, for eta^2 denominators
    # 12 c, large ones 144 c, and small ones
    dens = list(range(2, 40)) + [m * c for m in (12, 144) for c in (1, 7, 37, 79, 80)] \
        + [144 * 80 - 1]
    with mpmath.workprec(bits):
        for den in dens:
            for k in sorted({1, den - 1, *range(1, den, max(1, den // 25)), den // 3 + 1}):
                x = Fraction(k, den)
                if (4 * x).denominator == 1:
                    continue
                arg = 2 * mpmath.mp.pi * mpmath.mpf(x.numerator) / x.denominator
                z = exp2pi(x)
                assert (z.real, z.imag) == (mpmath.cos(arg), mpmath.sin(arg))
