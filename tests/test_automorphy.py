"""Multiplier systems: Dedekind sums, the eta-power character against the
eta-product quotient, cusp parameters and conjugation."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from mgrid.automorphy import (
    AutomorphyData,
    DiagonalRepresentation,
    DirichletMultiplier,
    EtaPowerMultiplier,
    TrivialMultiplier,
    chi_eval,
    conjugate,
    dedekind_sum,
    kappa_vector,
    n_prime,
    trivial_representation,
)
from mgrid.groups import S, T, GroupElement, sl2z


def dedekind_direct(h, k):
    """Defining sawtooth sum, exact rationals."""
    def saw(x):
        if x.denominator == 1:
            return Fraction(0)
        return x - Fraction(x.numerator // x.denominator) - Fraction(1, 2)
    return sum((saw(Fraction(r, k)) * saw(Fraction(h * r, k))
                for r in range(1, k)), Fraction(0))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 12, 13, 25])
def test_dedekind_sum_against_direct(k):
    for h in range(1, k):
        if np.gcd(h, k) == 1:
            assert dedekind_sum(h, k) == dedekind_direct(h, k)
    # the array call, over coprime h in [-k, 2k), in int64 and in Python ints
    hs = [h for h in range(-k, 2 * k) if np.gcd(h, k) == 1]
    direct = [dedekind_direct(h, k) for h in hs]
    for dtype in (np.int64, object):
        nums, den = dedekind_sum(np.array(hs, dtype=dtype), k)
        assert den == 12 * k
        assert [Fraction(int(n), den) for n in nums] == direct


def test_dedekind_sum_rejects_bad_arguments():
    for h, k in ((1, 0), (1, -3), (2, 4), (0, 5), (6, 9)):
        with pytest.raises(ValueError):
            dedekind_sum(h, k)
    with pytest.raises(ValueError):
        dedekind_sum(np.array([1, 2, 3]), 4)


def eta_product(tau, terms=900):
    q = cmath.exp(2j * cmath.pi * tau)
    v = cmath.exp(1j * cmath.pi * tau / 12)
    for n in range(1, terms):
        v *= 1 - q**n
    return v


@pytest.mark.parametrize("gamma", [
    S, GroupElement(1, 0, 1, 1), GroupElement(1, -1, 2, -1),
    GroupElement(2, -1, 5, -2), GroupElement(3, -1, 7, -2), -S,
    GroupElement(0, 1, -1, 0), GroupElement(1, 3, 0, 1), GroupElement(-1, 2, 0, -1),
])
@pytest.mark.parametrize("r", [2, 4, 24, -2])
def test_eta_power_matches_quotient(gamma, r):
    # chi_r(gamma) = (eta(gamma tau) / ((c tau + d)^{1/2} eta(tau)))^r with the
    # principal square root; for even r the sign ambiguity cancels.
    tau = 0.21 + 1.1j
    gt = (gamma.a * tau + gamma.b) / (gamma.c * tau + gamma.d)
    quot = (eta_product(gt) / (cmath.sqrt(gamma.c * tau + gamma.d)
                               * eta_product(tau))) ** r
    closed = complex(chi_eval(EtaPowerMultiplier(r), gamma))
    assert abs(quot - closed) < 1e-9


def test_eta_power_T_values():
    assert abs(complex(chi_eval(EtaPowerMultiplier(24), T)) - 1) < 1e-30
    expected = cmath.exp(1j * cmath.pi / 6)
    assert abs(complex(chi_eval(EtaPowerMultiplier(2), T)) - expected) < 1e-15


def test_eta_power_requires_even():
    with pytest.raises(ValueError):
        EtaPowerMultiplier(3)


def test_trivial_multiplier():
    for g in (S, T, S * T, -T):
        assert complex(chi_eval(TrivialMultiplier(), g)) == 1


def random_words(rng, count, length=6):
    base = [S, T, T.inverse()]
    for _ in range(count):
        g = GroupElement(1, 0, 0, 1)
        for _ in range(int(rng.integers(1, length))):
            g = g * base[int(rng.integers(0, 3))]
        yield g


@pytest.mark.parametrize("chi", [
    TrivialMultiplier(), EtaPowerMultiplier(2), EtaPowerMultiplier(24),
    EtaPowerMultiplier(-4),
])
def test_multiplier_homomorphism(chi):
    rng = np.random.default_rng(5)
    words = list(random_words(rng, 25))
    for g1 in words[:10]:
        for g2 in words[10:20]:
            lhs = complex(chi.value(g1 * g2))
            rhs = complex(chi.value(g1)) * complex(chi.value(g2))
            assert abs(lhs - rhs) < 1e-12


def test_dirichlet_multiplier_mod4():
    # the nontrivial character mod 4: chi(1) = 1, chi(3) = -1
    chi = DirichletMultiplier(4, ((1, Fraction(0)), (3, Fraction(1, 2))))
    g = GroupElement(1, 0, 4, 1)
    h = GroupElement(3, 2, 4, 3)
    assert complex(chi.value(g)) == pytest.approx(1)
    assert complex(chi.value(h)) == pytest.approx(-1)
    rng = np.random.default_rng(9)
    elems = [g, h, g * h, h * h * g]
    for g1 in elems:
        for g2 in elems:
            lhs = complex(chi.value(g1 * g2))
            rhs = complex(chi.value(g1) * chi.value(g2))
            assert abs(lhs - rhs) < 1e-12


def test_dirichlet_rejects_bad_tables_and_arguments():
    with pytest.raises(ValueError):
        DirichletMultiplier(4, ((1, Fraction(0)),))  # missing unit 3
    with pytest.raises(ValueError):
        DirichletMultiplier(4, ((1, Fraction(0)), (3, Fraction(1, 3))))
    chi = DirichletMultiplier(4, ((1, Fraction(0)), (3, Fraction(1, 2))))
    with pytest.raises(ValueError):
        chi.phase(GroupElement(1, 1, 1, 2))  # d = 2 shares a factor with 4
    with pytest.raises(ValueError):
        chi.box_phases(np.array([1, 1]), np.array([-1, -6]), 4)
    # phase is box_phases on a one-element box, d reduced mod N first, so
    # that a d past int64 is exact
    big = GroupElement(3, 2**71, 4, (1 + 2**73) // 3)
    assert big.d % 4 == 3 and chi.phase(big) == Fraction(1, 2)
    nums, den = chi.box_phases(np.array([3, 1]), np.array([-1, -3]), 4)
    assert [Fraction(int(x), den) for x in nums] == [
        chi.phase(GroupElement(3, -1, 4, -1)), chi.phase(GroupElement(1, -1, 4, -3))]


def test_kappa_vector_examples():
    assert kappa_vector(TrivialMultiplier(), trivial_representation()) == (0,)
    assert kappa_vector(EtaPowerMultiplier(2), trivial_representation()) \
        == (Fraction(1, 12),)
    mixed = DiagonalRepresentation((TrivialMultiplier(), EtaPowerMultiplier(2)))
    assert kappa_vector(TrivialMultiplier(), mixed) == (0, Fraction(1, 12))


def test_conjugate_kappa_and_involution():
    data = AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                          rho=trivial_representation(), group=sl2z())
    assert data.kappa == (Fraction(1, 12),)
    cd = conjugate(data)
    assert cd.kappa == (Fraction(11, 12),)
    assert conjugate(cd).kappa == data.kappa
    triv = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    assert conjugate(triv).kappa == (0,)


def test_n_prime_cases():
    assert n_prime(3, 0) == -3
    assert n_prime(3, Fraction(1, 12)) == -2
    assert n_prime(0, 0) == 0


def test_supplementary_index_identity():
    # -n' + kappa' = n - kappa for both kappa cases
    for kappa in (Fraction(0), Fraction(1, 12), Fraction(5, 8)):
        kp = Fraction(0) if kappa == 0 else 1 - kappa
        for n in range(-4, 5):
            npr = n_prime(n, kappa)
            assert -npr + kp == n - kappa


def test_nontriviality_validation():
    with pytest.raises(ValueError):
        AutomorphyData(weight=11, chi=TrivialMultiplier(),
                       rho=trivial_representation(), group=sl2z())
    AutomorphyData(weight=12, chi=TrivialMultiplier(),
                   rho=trivial_representation(), group=sl2z())
    # eta^2 pairs with odd weights
    AutomorphyData(weight=5, chi=EtaPowerMultiplier(2),
                   rho=trivial_representation(), group=sl2z())
    with pytest.raises(ValueError):
        AutomorphyData(weight=6, chi=EtaPowerMultiplier(2),
                       rho=trivial_representation(), group=sl2z())


def test_rho_minus_identity_enforced_in_data():
    bad = DiagonalRepresentation((EtaPowerMultiplier(2),))
    with pytest.raises(ValueError):
        AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=bad, group=sl2z())
    good = DiagonalRepresentation((EtaPowerMultiplier(4), EtaPowerMultiplier(-4)))
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=good,
                          group=sl2z())
    assert data.kappa == (Fraction(1, 6), Fraction(5, 6))


def test_only_a_diagonal_rho_is_accepted():
    # any other rho is rejected where the datum is built, so the engine
    # never asks what rho is
    class Permutation:
        dim = 2

    with pytest.raises(ValueError, match="only a diagonal rho"):
        AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=Permutation(), group=sl2z())


def test_component_index_outside_1_to_dim_raises():
    # 0 must not wrap to the last component, nor dim + 1 raise IndexError
    rho = DiagonalRepresentation((TrivialMultiplier(), EtaPowerMultiplier(4)))
    data = AutomorphyData(weight=12, chi=TrivialMultiplier(), rho=rho, group=sl2z())
    assert data.kappa_of(2) == Fraction(1, 6) and rho.component(2) == EtaPowerMultiplier(4)
    for j in (0, 3, -1):
        for read in (rho.component, data.kappa_of, data.scalar_character):
            with pytest.raises(ValueError, match=r"outside 1\.\.2"):
                read(j)
