"""Independent oracles and the pass/fail checks the benchmark applies.

Every oracle here is exact integer arithmetic that shares no code with
mgrid: divisor sums for the Eisenstein series E_4, the product
q prod (1 - q^n)^24 for Ramanujan's tau, and the product
eta^2 E_4 for the weight-5 eta-multiplier cusp form.  The bounds of the
relational checks are the acceptance-suite constants, copied here and never
loosened; smoke mode passes its own, separately named bounds.

Each check takes plain Python numbers and returns one boolean per checked
output, so the benchmark's tests can feed it perturbed outputs.
"""

from __future__ import annotations

# Acceptance-suite bounds (tests/test_acceptance.py), full-size workloads.
DUALITY_RESIDUAL_BOUND = 1e-5  # criterion 03, eta^2 multiplier
PERIOD_REL_BOUND = 1e-6  # criterion 07, r^H against conjugated r^N
LVALUE_REL_BOUND = 1e-6  # criterion 08, series against integral L-values


def sigma(power: int, n: int) -> int:
    """Divisor power sum sigma_power(n) for n >= 1."""
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def _truncated_product(exponent: int, terms: int) -> list[int]:
    """Coefficients of prod_{n >= 1} (1 - q^n)^exponent up to q^(terms-1)."""
    coeffs = [1] + [0] * (terms - 1)
    for n in range(1, terms):
        for _ in range(exponent):
            for i in range(terms - 1, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def ramanujan_tau(l_max: int) -> dict[int, int]:
    """tau(l) for l = 1..l_max from Delta = q prod (1 - q^n)^24."""
    prod = _truncated_product(24, l_max)
    return {l: prod[l - 1] for l in range(1, l_max + 1)}


def eta2_e4(m_max: int) -> dict[int, int]:
    """[eta^2 E_4]_m for m = 0..m_max, the q^(m + 1/12) coefficients.

    eta^2 = q^(1/12) prod (1 - q^n)^2 and E_4 = 1 + 240 sum sigma_3(n) q^n;
    S_5(SL2(Z), eta^2 multiplier) is spanned by their product.
    """
    terms = m_max + 1
    eta = _truncated_product(2, terms)
    e4 = [1] + [240 * sigma(3, n) for n in range(1, terms)]
    return {m: sum(eta[i] * e4[m - i] for i in range(m + 1)) for m in range(terms)}


def check_eisenstein(values: dict[int, complex], tails: dict[int, float]) -> list[bool]:
    """|a(l) - [E_4]_l| <= tail(l): the weight-4, n = 0 Poincare series is
    E_4 = 1 + 240 sum sigma_3(l) q^l."""
    return [abs(values[l] - (240 * sigma(3, l) if l else 1)) <= tails[l]
            for l in sorted(values)]


def check_tau(values: dict[int, complex], tails: dict[int, float]) -> list[bool]:
    """|a(l) - a(1) tau(l)| <= tail(l) + |tau(l)| tail(1): S_12 is spanned by Delta."""
    tau = ramanujan_tau(max(values))
    a1, t1 = values[1], tails[1]
    return [abs(values[l] - a1 * tau[l]) <= tails[l] + abs(tau[l]) * t1
            for l in sorted(values)]


def check_eta2_e4(values: dict[int, complex], tails: dict[int, float]) -> list[bool]:
    """|b(m) - b(0) c(m)| <= tail(m) + |c(m)| tail(0) with c = eta^2 E_4."""
    ref = eta2_e4(max(values))
    b0, t0 = values[0], tails[0]
    return [abs(values[m] - b0 * ref[m]) <= tails[m] + abs(ref[m]) * t0
            for m in sorted(values)]


def check_relative(series: dict, reference: dict, bound: float) -> list[bool]:
    """|x - ref| / |ref| <= bound for each key (L-values by two routes)."""
    return [abs(series[k] - reference[k]) / abs(reference[k]) <= bound
            for k in sorted(reference)]


def check_polynomial(lhs: list[complex], rhs: list[complex], bound: float) -> bool:
    """max |lhs - rhs| / max |lhs| <= bound over sample points (criterion 07 form)."""
    scale = max(abs(v) for v in lhs)
    return max(abs(a - b) for a, b in zip(lhs, rhs)) / scale <= bound


def check_residual(residual: float, bound: float) -> bool:
    """residual < bound (criterion 03 form)."""
    return residual < bound


def check_converged(tails: dict, tail_tol: float) -> list[bool]:
    """tail <= tail_tol for every entry (FourierSeries.unconverged_entries is empty)."""
    return [tails[k] <= tail_tol for k in sorted(tails)]
