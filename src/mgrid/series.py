"""Vector-valued q-expansions at i-infinity and their truncation metadata.

A FourierSeries stores complex coefficients indexed by (n, j) where j is the
1-based component index and the attached exponential is

    e^{2 pi i (n + kappa_j) tau / lambda},   lambda = 1 on Gamma_0(N).

Every stored coefficient carries a tail bound (the certified error of the
c-sum that produced it, finite unless its majorant overflows a double;
exact coefficients carry 0.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .automorphy import AutomorphyData
from .precision import DEFAULT_CONTEXT, PrecisionContext

__all__ = ["TruncationParams", "FourierSeries"]


@dataclass(frozen=True)
class TruncationParams:
    """Cutoff of the c-sums, working precision (prefactors, accumulation),
    and tail_tol, which no c-sum reads: FourierSeries.unconverged_entries
    compares the tails with it, for the CLI's exit rule.

    Each walk takes the phase-evaluation precision of its Kloosterman box
    layers at c from poincare.layer_bits_for(ctx, c, level), whatever c_max.
    Float64 and fixed-point layers feed the same exact c-sum accumulator,
    and their rounding bounds enter its one noise rule.
    """

    c_max: int = 5000
    tail_tol: float = 1e-8
    ctx: PrecisionContext = DEFAULT_CONTEXT

    def __post_init__(self):
        if self.c_max < 1:
            raise ValueError("c_max must be >= 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


class FourierSeries:
    """Indexed coefficient table a(n, j) of a vector-valued expansion.

    truncation is never None (it defaults to TruncationParams()): its
    tail_tol decides which entries count as converged, and its ctx is the
    working precision of every operation on the coefficients.
    """

    def __init__(self, weight: int, automorphy: AutomorphyData, coeffs=None,
                 tails=None, truncation: TruncationParams = TruncationParams()):
        self.weight = weight
        self.automorphy = automorphy
        self.coeffs: dict = dict(coeffs or {})
        self.tails: dict = dict(tails or {})
        self.truncation = truncation
        for _n, j in self.coeffs:
            automorphy.kappa_of(j)  # ValueError outside 1..dim

    def freq(self, n: int, j: int) -> Fraction:
        """n + kappa_j (the frequency in units of 1/lambda)."""
        return n + self.automorphy.kappa_of(j)

    def coefficient(self, n: int, j: int = 1):
        return self.coeffs.get((n, j), mpmath.mpc(0))

    def tail_bound(self, n: int, j: int = 1) -> float:
        return self.tails.get((n, j), 0.0)

    def items(self):
        """Deterministic iteration order: by component, then by n."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def principal_support(self):
        """Indices with n + kappa_j < 0 (exponential growth at i-infinity)."""
        return [(n, j) for (n, j) in sorted(self.coeffs) if self.freq(n, j) < 0]

    def has_zero_constant_term(self) -> bool:
        return all(v == 0 for (n, j), v in self.coeffs.items() if self.freq(n, j) == 0)

    def is_cusp_form(self) -> bool:
        """No principal part and no constant term (all frequencies positive)."""
        return all(
            self.freq(n, j) > 0 or self.coeffs[(n, j)] == 0
            for (n, j) in self.coeffs
        )

    def unconverged_entries(self):
        tol = self.truncation.tail_tol
        return [idx for idx in sorted(self.tails) if not self.tails[idx] <= tol]

    def freq_power(self, weight: int, power: int) -> "FourierSeries":
        """Weight-`weight` series with a(n, j) ((n + kappa_j)/lambda)^power
        at every nonzero frequency (zero frequencies are dropped), tails
        scaled by |(n + kappa_j)/lambda|^power.

        power = -(k+1) is the Eichler primitive, power = k+1 the (k+1)-fold
        normalized derivative D^{k+1}.
        """
        out = FourierSeries(weight, self.automorphy, truncation=self.truncation)
        with self.truncation.ctx.working():
            for (n, j), a in self.items():
                fr = self.freq(n, j)
                if fr == 0:
                    continue
                fmp = mpmath.mpf(fr.numerator) / fr.denominator
                out.coeffs[(n, j)] = a * fmp ** power
                out.tails[(n, j)] = self.tail_bound(n, j) * abs(float(fmp)) ** power
        return out

    def __repr__(self):
        rng = sorted(n for (n, _) in self.coeffs)
        span = f"{rng[0]}..{rng[-1]}" if rng else "empty"
        return (f"FourierSeries(weight={self.weight}, p={self.automorphy.dim}, "
                f"n={span}, {len(self.coeffs)} coefficients)")
