"""Property tests of the Kloosterman layers S(m, n; c) of the trivial
character at both layer precisions: symmetry in (m, n) and the Weil bound
|S(m, n; c)| <= tau(c) gcd(m, n, c)^{1/2} c^{1/2} (Weil, PNAS 34 (1948);
Iwaniec-Kowalski, Analytic Number Theory, ch. 11)."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mgrid.automorphy import AutomorphyData, TrivialMultiplier, trivial_representation
from mgrid.groups import sl2z
from mgrid.poincare import kloosterman_layer

DATA = AutomorphyData(weight=4, chi=TrivialMultiplier(),
                      rho=trivial_representation(), group=sl2z())

# fixed examples, no example database: the tier-1 run stays deterministic
SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
MODULI = st.integers(min_value=1, max_value=200)
INDICES = st.integers(min_value=-10**6, max_value=10**6)
BITS = st.sampled_from([53, 113])


def _layer_error(c, bits):
    """The documented rounding bound of one layer over at most c elements."""
    if bits <= 53:
        return c * 2.0 ** -50
    return c * (2 * math.isqrt(c) + 3) * 2.0 ** -(bits + 16 + c.bit_length())


def _kloosterman(m, n, c, bits):
    return complex(kloosterman_layer(DATA, c, Fraction(m), Fraction(n), bits=bits))


@SETTINGS
@given(m=INDICES, n=INDICES, c=MODULI, bits=BITS)
def test_kloosterman_symmetry(m, n, c, bits):
    diff = abs(_kloosterman(m, n, c, bits) - _kloosterman(n, m, c, bits))
    assert diff <= 2 * _layer_error(c, bits)


@SETTINGS
@given(m=INDICES, n=INDICES, c=MODULI, bits=BITS)
def test_kloosterman_weil_bound(m, n, c, bits):
    tau = sum(1 for d in range(1, c + 1) if c % d == 0)
    weil = tau * math.sqrt(math.gcd(m, n, c)) * math.sqrt(c)
    assert abs(_kloosterman(m, n, c, bits)) <= weil + _layer_error(c, bits)
