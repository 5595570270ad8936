"""Integer matrix groups Gamma_0(N) and their double-coset boxes.

The coefficient formulas sum over the set

    C+ = { (a b; c d) in Gamma : c > 0, 0 <= -d < c, 0 <= a < c },

a transversal of <T>\\Gamma/<T> restricted to positive lower-left entry
(the paper's bounds are c*lambda; lambda, the cusp width at i-infinity, is
1 on Gamma_0(N), and every formula in mgrid is for lambda = 1).  The box at
fixed c is parametrised by the units d in (-c, 0]: a is the inverse of d
mod c lifted into [0, c) and b = (a d - 1)/c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupElement",
    "GroupSpec",
    "sl2z",
    "gamma0",
    "S",
    "T",
    "cplus_arrays",
    "cplus_elements",
    "enumerate_cplus",
    "units_mod",
    "moebius",
    "generators",
]


@dataclass(frozen=True)
class GroupElement:
    """Unimodular integer matrix (a b; c d)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant of {self.as_tuple()} is not 1")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d)


S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)


@dataclass(frozen=True)
class GroupSpec:
    """Gamma_0(N) of level N (cusp width 1 at i-infinity).

    For N > 1 the generator list must be supplied by the caller.
    """

    level: int = 1
    gens: tuple = field(default=())

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        for g in self.gens:
            if not isinstance(g, GroupElement):
                raise ValueError("generators must be GroupElement instances")
            if not self.contains(g):
                raise ValueError(f"generator {g.as_tuple()} is not in Gamma_0({self.level})")

    def contains(self, g: GroupElement) -> bool:
        """Whether g lies in Gamma_0(level): c = 0 mod N."""
        return g.c % self.level == 0


def sl2z() -> GroupSpec:
    return GroupSpec(level=1)


def gamma0(n: int, gens=()) -> GroupSpec:
    return GroupSpec(level=n, gens=tuple(gens))


def cplus_arrays(spec: GroupSpec, c: int):
    """(a, d) int64 arrays of the C+ box at this c, ordered by -d ascending.

    d runs through (-c, 0] coprime to c and a = d^{-1} mod c lifted to
    [0, c); the arrays are empty when N does not divide c.  Built afresh on
    every call: callers that walk c once need no cache.
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    if c % spec.level != 0:
        e = np.array([], dtype=np.int64)
        return e, e
    nd = np.arange(c, dtype=np.int64)  # nd = -d
    nd = nd[np.gcd(nd, c) == 1]
    # a = d^(phi(c) - 1) mod c (Euler), by vectorised square-and-multiply;
    # every product stays below c^2 < 2^63
    base = -nd % c
    a = np.full_like(nd, 1 % c)
    e = len(nd) - 1
    while e:
        if e & 1:
            a = a * base % c
        base = base * base % c
        e >>= 1
    return a, -nd


def units_mod(c: int):
    """Units of Z/cZ in [0, c), ascending (c = 1 gives [0])."""
    return -cplus_arrays(GroupSpec(), c)[1]


def cplus_elements(a, d, c: int):
    """The GroupElements of one C+ box from its (a, d) arrays."""
    return [GroupElement(ai, (ai * di - 1) // c, c, di)
            for ai, di in zip(a.tolist(), d.tolist())]


def enumerate_cplus(spec: GroupSpec, c: int):
    """The elements of C+ with lower-left entry c, ordered by -d ascending."""
    return cplus_elements(*cplus_arrays(spec, c), c)


def moebius(gamma: GroupElement, tau):
    """(a tau + b)/(c tau + d); maps the upper half-plane to itself."""
    if not (tau.imag > 0):
        raise ValueError("tau must lie in the upper half-plane")
    return (gamma.a * tau + gamma.b) / (gamma.c * tau + gamma.d)


def generators(spec: GroupSpec):
    """Generator list: [S, T] for SL2(Z); the validated user list for N > 1."""
    if spec.level == 1 and not spec.gens:
        return [S, T]
    if not spec.gens:
        raise ValueError(f"no generator list supplied for Gamma_0({spec.level})")
    return list(spec.gens)
