"""Multiplier systems, diagonal unitary representations and cusp parameters.

A multiplier here is a unitary character chi of the group satisfying the
non-triviality condition chi(-I) = e^{pi i k} at the weight k in use.  All
built-in multipliers (trivial, powers of the eta multiplier, Dirichlet
characters on Gamma_0(N)) have *rational* phases: chi(gamma) = e^{2 pi i q}
with q an exact Fraction.  That exactness is what keeps the Kloosterman-type
layer sums reproducible, and it makes the cusp parameters

    chi(T) rho(T) = diag(e^{2 pi i kappa_1}, ..., e^{2 pi i kappa_p}),
    0 <= kappa_j < 1,

exact rationals as well.  The eta-power multiplier is evaluated through the
closed Dedekind-sum formula for c > 0, with gamma replaced by -gamma for
c < 0 and chi(-I) = e^{pi i k} folding the sign back in.  Its phases over a
box C+(c) take one dedekind_sum call: exact integer reciprocity, in int64
for c < 2^21.  Nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .groups import GroupElement, GroupSpec, T, cplus_elements
from .precision import exp2pi

__all__ = [
    "dedekind_sum",
    "Multiplier",
    "TrivialMultiplier",
    "EtaPowerMultiplier",
    "DirichletMultiplier",
    "CompositeMultiplier",
    "DiagonalRepresentation",
    "AutomorphyData",
    "chi_eval",
    "kappa_vector",
    "conjugate",
    "n_prime",
    "frac",
]


def frac(x: Fraction) -> Fraction:
    """Reduce a rational into [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def dedekind_sum(h, k: int):
    """Dedekind sum s(h, k) for k >= 1 and h coprime to k.

    Works on the integer S(h, k) = 12 k s(h, k) by reciprocity,
    h S(h, k) + k S(k mod h, h) = h^2 + k^2 + 1 - 3 h k with S(0, 1) = 0,
    running the Euclid chain forward and the recurrence backward,
    elementwise over an array of h: in int64 for k < 2^21 (|S(h, k)| <=
    (k - 1)(k - 2), so every term stays under k^3), else in Python ints, as
    for an object array.  An integer h returns the Fraction s(h, k); an
    array returns (numerators, 12 k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    scalar = not isinstance(h, np.ndarray)
    hs = np.array([h % k]) if scalar else h
    dtype = np.int64 if k < 2**21 and hs.dtype != object else object
    hs, ks = hs.astype(dtype) % k, np.full(hs.shape, k, dtype=dtype)
    if np.any(np.gcd(hs, k) != 1):
        raise ValueError(f"h must be coprime to k = {k}")
    chain = []  # per step: which entries are still live, and their (h, k)
    while hs.size:
        live = hs != 0
        hs, ks = hs[live], ks[live]
        chain.append((live, hs, ks))
        hs, ks = ks % hs, hs
    s = np.zeros(0, dtype=dtype)
    for live, hs, ks in reversed(chain):
        full = np.zeros(live.shape, dtype=dtype)
        full[live] = (hs * hs + ks * ks + 1 - 3 * hs * ks - ks * s) // hs
        s = full
    return Fraction(int(s[0]), 12 * k) if scalar else (s, 12 * k)


class Multiplier:
    """Base class: a unitary character with exact rational phase."""

    def phase(self, gamma: GroupElement) -> Fraction:
        raise NotImplementedError

    def value(self, gamma: GroupElement) -> mpmath.mpc:
        return exp2pi(self.phase(gamma))

    def box_phases(self, a, d, c: int):
        """Exact phases over one C+ box as (nums, den): integer numerators over
        one common denominator, phase(g) = nums/den mod 1 elementwise.

        a and d are the box arrays of groups.cplus_arrays at lower-left
        entry c.  This default evaluates phase() per element, so a subclass
        needs to define only phase(); the built-ins override it.
        """
        qs = [self.phase(g) for g in cplus_elements(a, d, c)]
        den = math.lcm(*(q.denominator for q in qs))
        return np.array([q.numerator * (den // q.denominator) for q in qs],
                        dtype=np.int64), den

    def conjugate(self) -> "Multiplier":
        raise NotImplementedError

    def nontriviality_ok(self, weight: int) -> bool:
        """chi(-I) = e^{pi i weight}; at weight 0, chi(-I) = 1."""
        minus_i = GroupElement(-1, 0, 0, -1)
        return frac(self.phase(minus_i) - Fraction(weight, 2)) == 0

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class TrivialMultiplier(Multiplier):
    def phase(self, gamma: GroupElement) -> Fraction:
        return Fraction(0)

    def box_phases(self, a, d, c: int):
        return np.zeros(len(d), dtype=np.int64), 1

    def conjugate(self):
        return self

    def label(self):
        return "trivial"


@dataclass(frozen=True)
class EtaPowerMultiplier(Multiplier):
    """The eta multiplier raised to an even power r: the character of eta^r.

    For c > 0 the closed formula is

        chi_r(gamma) = exp( pi i r [ (a+d)/(12c) + s(-d, c) - 1/4 ] ),

    and chi_r(T) = e^{pi i r / 12}, chi_r(-I) = e^{pi i r / 2}.
    """

    r: int

    def __post_init__(self):
        if self.r % 2 != 0:
            raise ValueError("eta power must be even for an integer-weight character")

    def phase(self, gamma: GroupElement) -> Fraction:
        a, b, c, d = gamma.as_tuple()
        shift = 0
        if c < 0 or (c == 0 and a < 0):
            # chi(gamma) = chi(-I)^{-1} chi(-gamma)
            a, b, c, d, shift = -a, -b, -c, -d, Fraction(self.r, 4)
        if c == 0:  # gamma = T^b
            return frac(Fraction(self.r * b, 24) - shift)
        # the one-element box, in Python ints so that any c is exact
        nums, den = self.box_phases(np.array([a], dtype=object),
                                    np.array([d], dtype=object), c)
        return frac(Fraction(int(nums[0]), den) - shift)

    def box_phases(self, a, d, c: int):
        # 24c times the c > 0 phase: r (a + d) + 12 r c s(-d, c) - 3 r c
        s12, _den = dedekind_sum(-d, c)
        return self.r * (a + d + s12 - 3 * c), 24 * c

    def conjugate(self):
        return EtaPowerMultiplier(-self.r)

    def label(self):
        return f"eta:{self.r}"


@dataclass(frozen=True)
class DirichletMultiplier(Multiplier):
    """chi(gamma) = chi_D(d mod N) on Gamma_0(N), chi_D given by a phase table.

    table maps each unit u mod N to the exact exponent q_u with
    chi_D(u) = e^{2 pi i q_u}; it must be multiplicative with q_1 = 0.
    """

    modulus: int
    table: tuple  # ((unit, Fraction), ...) covering all units mod modulus

    def __post_init__(self):
        n = self.modulus
        tab = dict(self.table)
        units = [u for u in range(n) if np.gcd(u, n) == 1]
        if sorted(tab) != units:
            raise ValueError(f"phase table must cover exactly the units mod {n}")
        if frac(tab[1 % n]) != 0:
            raise ValueError("chi(1) must equal 1")
        for u in units:
            for v in units:
                if frac(tab[u * v % n] - tab[u] - tab[v]) != 0:
                    raise ValueError("phase table is not multiplicative")

    def phase(self, gamma: GroupElement) -> Fraction:
        # the one-element box; d reduced first, so that any d fits int64
        nums, den = self.box_phases(None, np.array([gamma.d % self.modulus]), gamma.c)
        return Fraction(int(nums[0]), den)

    def box_phases(self, a, d, c: int):
        n = self.modulus
        u = d % n
        if np.any(np.gcd(u, n) != 1):
            raise ValueError(f"a d entry of the box at c = {c} is not coprime "
                             f"to the modulus {n}")
        tab = [(v, frac(q)) for v, q in self.table]
        den = math.lcm(*(q.denominator for _v, q in tab))
        lut = np.zeros(n, dtype=np.int64)
        for v, q in tab:
            lut[v] = q.numerator * (den // q.denominator)
        return lut[u], den

    def conjugate(self):
        return DirichletMultiplier(self.modulus, tuple((u, frac(-q)) for u, q in self.table))

    def label(self):
        return f"dirichlet:{self.modulus}"


@dataclass(frozen=True)
class CompositeMultiplier(Multiplier):
    """Pointwise product of multipliers (used for per-component characters)."""

    parts: tuple

    def phase(self, gamma: GroupElement) -> Fraction:
        return frac(sum((p.phase(gamma) for p in self.parts), Fraction(0)))

    def box_phases(self, a, d, c: int):
        parts = [p.box_phases(a, d, c) for p in self.parts]
        den = math.lcm(*(pd for _n, pd in parts))
        return sum((nums * (den // pd) for nums, pd in parts),
                   np.zeros(len(d), dtype=np.int64)), den

    def conjugate(self):
        return CompositeMultiplier(tuple(p.conjugate() for p in self.parts))

    def label(self):
        return "*".join(p.label() for p in self.parts)


def chi_eval(m: Multiplier, gamma: GroupElement) -> mpmath.mpc:
    """Unit-modulus value of a multiplier at a group element."""
    return m.value(gamma)


@dataclass(frozen=True)
class DiagonalRepresentation:
    """Direct sum of multipliers: rho(gamma) = diag(mu_1, ..., mu_p)(gamma).

    Components are 1-indexed in the public API.  rho(-I) = I is required
    when the representation enters an AutomorphyData, not here, so that
    diagonal phase reads (kappa_vector) work on any multiplier stack.
    """

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("representation must have positive dimension")

    @property
    def dim(self) -> int:
        return len(self.components)

    def component(self, j: int) -> Multiplier:
        """mu_j; every 1-indexed read of rho or of its data comes through here."""
        if not 1 <= j <= self.dim:
            raise ValueError(f"component {j} outside 1..{self.dim}")
        return self.components[j - 1]

    def conjugate(self):
        return DiagonalRepresentation(tuple(mu.conjugate() for mu in self.components))

    def label(self):
        return "diag(" + ",".join(mu.label() for mu in self.components) + ")"


def trivial_representation(p: int = 1) -> DiagonalRepresentation:
    return DiagonalRepresentation((TrivialMultiplier(),) * p)


def kappa_vector(chi: Multiplier, rho: DiagonalRepresentation) -> tuple:
    """Exact cusp parameters kappa_j in [0,1) from the diagonal of chi(T) rho(T)."""
    return tuple(frac(chi.phase(T) + rho.component(j).phase(T)) for j in range(1, rho.dim + 1))


@dataclass(frozen=True)
class AutomorphyData:
    """Weight, character, representation and group, with derived kappa vector.
    rho must be diagonal: the engine reads it only through its components."""

    weight: int
    chi: Multiplier
    rho: DiagonalRepresentation
    group: GroupSpec
    kappa: tuple = field(init=False)

    def __post_init__(self):
        if not self.chi.nontriviality_ok(self.weight):
            raise ValueError(
                f"character {self.chi.label()} violates chi(-I) = e^(pi i k) "
                f"at weight {self.weight}"
            )
        if not isinstance(self.rho, DiagonalRepresentation):
            raise ValueError("only a diagonal rho (DiagonalRepresentation) is supported")
        if not all(mu.nontriviality_ok(0) for mu in self.rho.components):
            raise ValueError("rho(-I) must be the identity matrix")
        object.__setattr__(self, "kappa", kappa_vector(self.chi, self.rho))

    def __hash__(self):
        """On fields every datum can hash, as a user multiplier may not, so that
        equal data (compared field by field) are one key of a Walk."""
        return hash((self.weight, self.group, self.kappa))

    @property
    def dim(self) -> int:
        return self.rho.dim

    def kappa_of(self, j: int) -> Fraction:
        self.rho.component(j)  # ValueError outside 1..dim
        return self.kappa[j - 1]

    def scalar_character(self, j: int = 1) -> Multiplier:
        """Effective character chi * mu_j of the j-th component."""
        mu = self.rho.component(j)
        if isinstance(mu, TrivialMultiplier):
            return self.chi
        return CompositeMultiplier((self.chi, mu))

    def conjugate(self) -> "AutomorphyData":
        return AutomorphyData(self.weight, self.chi.conjugate(),
                              self.rho.conjugate(), self.group)


def conjugate(data: AutomorphyData) -> AutomorphyData:
    """Conjugate automorphy (chi-bar, rho-bar); kappa turns into kappa'."""
    return data.conjugate()


def n_prime(n: int, kappa_alpha) -> int:
    """Index map n -> n' pairing a form with its supplementary partner:
    -n when kappa_alpha = 0, else 1 - n."""
    return -n if frac(Fraction(kappa_alpha)) == 0 else 1 - n
