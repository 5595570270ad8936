"""Double-coset box enumeration against sieve and brute-force oracles."""

import numpy as np
import pytest

from mgrid.groups import (
    S,
    T,
    GroupElement,
    enumerate_cplus,
    gamma0,
    generators,
    moebius,
    sl2z,
)


def phi_sieve(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # prime
            for q in range(p, limit + 1, p):
                phi[q] -= phi[q] // p
    return phi


def brute_force_box(c, bound):
    """All integer matrices with det 1, lower-left c, 0 <= a < c, 0 <= -d < c."""
    out = []
    for a in range(0, c):
        for d in range(-c + 1, 1):
            if (a * d - 1) % c == 0:
                out.append((a, (a * d - 1) // c, c, d))
    if c == 1:
        out = [(0, -1, 1, 0)]
    return sorted(out, key=lambda t: -t[3])


def test_cplus_small_exact():
    assert [g.as_tuple() for g in enumerate_cplus(sl2z(), 1)] == [(0, -1, 1, 0)]
    assert [g.as_tuple() for g in enumerate_cplus(sl2z(), 2)] == [(1, -1, 2, -1)]


def test_cplus_level_filter():
    assert enumerate_cplus(gamma0(2), 1) == []
    assert len(enumerate_cplus(gamma0(2), 2)) == 1
    assert enumerate_cplus(gamma0(3), 5) == []


@pytest.mark.parametrize("c", [1, 2, 3, 5, 8, 12, 30])
def test_cplus_matches_brute_force(c):
    got = [g.as_tuple() for g in enumerate_cplus(sl2z(), c)]
    assert got == brute_force_box(c, c)


def test_cplus_cardinality_is_phi():
    phi = phi_sieve(200)
    for c in range(1, 201):
        assert len(enumerate_cplus(sl2z(), c)) == phi[c]


def test_cplus_box_invariants():
    for c in range(1, 51):
        for g in enumerate_cplus(sl2z(), c):
            assert 0 <= g.a < c or c == 1
            assert 0 <= -g.d < c or c == 1
            assert g.a * g.d - g.b * g.c == 1
            assert g.c == c


def test_cplus_deterministic():
    a = [g.as_tuple() for g in enumerate_cplus(sl2z(), 60)]
    b = [g.as_tuple() for g in enumerate_cplus(sl2z(), 60)]
    assert a == b


def test_moebius_values():
    ident = GroupElement(1, 0, 0, 1)
    assert moebius(ident, 0.3 + 0.8j) == 0.3 + 0.8j
    assert abs(moebius(S, 1j) - 1j) < 1e-15
    assert moebius(T, 0.25 + 1j) == 1.25 + 1j
    with pytest.raises(ValueError):
        moebius(S, 0.5 - 1j)


def test_moebius_preserves_upper_half_plane():
    rng = np.random.default_rng(11)
    for _ in range(50):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4))
        g = S * T if rng.random() < 0.5 else T * S * T
        assert moebius(g, tau).imag > 0


def test_generators_sl2z_relations():
    gens = generators(sl2z())
    assert [g.as_tuple() for g in gens] == [(0, -1, 1, 0), (1, 1, 0, 1)]
    s, t = gens
    minus_i = GroupElement(-1, 0, 0, -1)
    assert (s * s).as_tuple() == minus_i.as_tuple()
    st = s * t
    assert (st * st * st).as_tuple() == minus_i.as_tuple()


def test_generators_user_supplied():
    gens = (GroupElement(1, 1, 0, 1), GroupElement(1, 0, 4, 1))
    spec = gamma0(4, gens)
    assert generators(spec) == list(gens)
    with pytest.raises(ValueError):
        generators(gamma0(4))


def test_group_element_determinant_validated():
    with pytest.raises(ValueError):
        GroupElement(1, 0, 0, 2)  # det 2
    with pytest.raises(ValueError):
        gamma0(4, (GroupElement(1, 0, 1, 1),))  # c not divisible by 4

