"""The value ledger: sha256 digests of the values and tails of fixed cases,
which test_ledger.py recomputes and compares with ledger.json, so a change
that moves one bit of one value fails tier-1.

A change that moves values by design regenerates the ledger:

    PYTHONPATH=src python tests/make_ledger.py

Each case gives two digests: of its values, as exact mpf tuples (sign,
mantissa, exponent, bit count) or float.hex, and of its tails' float.hex.
The tails of Bessel c-sums carry numpy's exp (specialfn.bessel_series'
bound), so they are hashed apart from the values.  Outputs whose bits
depend on numpy's sin, cos and exp in the values are left out: float64
box layers (every 53-bit walk but a Ramanujan-only one, and c > 359 at
113 bits, so c_max stays small here), quadrature._ray (lvalue_integral,
period_r_quadrature, period_rN), eval_component_grid, and the pairing fit,
which is numpy's least squares.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import mpmath

from mgrid.automorphy import (
    AutomorphyData,
    DiagonalRepresentation,
    DirichletMultiplier,
    EtaPowerMultiplier,
    TrivialMultiplier,
    trivial_representation,
)
from mgrid.cli import main
from mgrid.eichler import period_rH, supplementary
from mgrid.gridforms import build_grid
from mgrid.groups import GroupElement, gamma0, sl2z
from mgrid.lfun import TwistSpec, lvalue_series
from mgrid.poincare import constant_term_cf, poincare_series
from mgrid.precision import PrecisionContext
from mgrid.series import TruncationParams

LEDGER = Path(__file__).with_name("ledger.json")
README = Path(__file__).resolve().parent.parent / "README.md"
S, T = GroupElement(0, -1, 1, 0), GroupElement(1, 1, 0, 1)


def _exact(v):
    """v as exact JSON: an mpf's tuple, a float's or a complex's hex."""
    if isinstance(v, mpmath.mpc):
        return [_exact(v.real), _exact(v.imag)]
    if isinstance(v, mpmath.mpf):
        return [int(part) for part in v._mpf_]
    if isinstance(v, complex):
        return [v.real.hex(), v.imag.hex()]
    return float(v).hex()


def _trunc(bits: int, c_max: int = 30) -> TruncationParams:
    return TruncationParams(c_max=c_max, tail_tol=1.0,
                            ctx=PrecisionContext(mantissa_bits=bits, target_tol=1e-25))


def _data(name: str, weight: int) -> AutomorphyData:
    chi, group, rho = TrivialMultiplier(), sl2z(), trivial_representation()
    if name.startswith("eta:"):
        chi = EtaPowerMultiplier(int(name[4:]))
    elif name == "dirichlet:4":
        chi, group = DirichletMultiplier(4, ((1, Fraction(0)), (3, Fraction(1, 2)))), gamma0(4)
    elif name == "diag(trivial;eta:4)":
        rho = DiagonalRepresentation((TrivialMultiplier(), EtaPowerMultiplier(4)))
    return AutomorphyData(weight=weight, chi=chi, rho=rho, group=group)


def _series(series) -> tuple:
    """(values, tails) of a FourierSeries, in index order."""
    keys = sorted(series.coeffs)
    return ([[n, j, _exact(series.coeffs[n, j])] for n, j in keys],
            [[n, j, _exact(series.tail_bound(n, j))] for n, j in keys])


def _poincare(name, weight, indices, bits):
    def case():
        data, values, tails = _data(name, weight), [], []
        for n, alpha in indices:
            v, t = _series(poincare_series(data, weight, n, alpha, range(-1, 6), _trunc(bits)))
            values.append(v)
            tails.append(t)
        return values, tails
    return case


def _grid(name, k, bits):
    def case():
        data = _data(name, k + 2)
        fs, gs, reports = build_grid(data, k, _trunc(bits), f=[(1, 1), (2, 1)], G=[(1, 1), (2, 1)],
                                     duality=[(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1)], lmax=4)
        parts = [_series(f) for f in fs]
        for g in gs:
            parts += [_series(g.holo), _series(g.shadow),
                      ([[*key, _exact(v)] for key, v in sorted(g.nonholo.items())],
                       [[*key, _exact(t)] for key, t in sorted(g.nonholo_tails.items())])]
        parts += [([_exact(r.lhs), _exact(r.rhs), _exact(r.residual)],
                   [_exact(r.lhs_tail), _exact(r.rhs_tail)]) for r in reports]
        return [v for v, _t in parts], [t for _v, t in parts]
    return case


def _constant_term(name, weight, bits):
    def case():
        f = poincare_series(_data(name, weight), weight, 1, 1, range(-1, 3), _trunc(bits))
        values, tails = constant_term_cf(f, _trunc(bits))
        return _exact_all(values), _exact_all(tails)
    return case


def _exact_all(vs):
    return [_exact(v) for v in vs]


def _supplementary(bits):
    def case():
        data, trunc = _data("trivial", 12), _trunc(bits)
        fstar = supplementary([(1, -1, 1), (0.5j, -2, 1)], data, 10, trunc, lmax=6)
        values, tails = _series(fstar)
        for g in (S, T, GroupElement(1, 0, 1, 1)):
            p = period_rH(fstar, g, 10, trunc)
            values.append(_exact_all(p.coeffs))
        return values, tails
    return case


def _lvalues(bits):
    def case():
        trunc = _trunc(bits, 40)
        f = poincare_series(_data("trivial", 12), 12, -1, 1, range(0, 41), trunc)
        lvs = lvalue_series(f, TwistSpec.from_element(S), [1, 6, 11, 12, 13], trunc=trunc)
        return ([[_exact(lv.value), _exact(lv.lstar)] for lv in lvs], [_exact(lv.err) for lv in lvs])
    return case


def _readme_cli(line: list):
    """One of README's command lines, its JSON report as the value (the
    report's tails are among its floats, so no tails are kept apart)."""
    def case():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            argv = [str(out) if a == "table.json" else a for a in line]
            code = main(argv if "--json" in argv else [*argv, "--json", str(out)])
            return [code, out.read_text()], []
    return case


def _readme_lines() -> list:
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("mgrid ")]


def cases() -> dict:
    """name -> a function giving (values, tails) as JSON-ready lists."""
    out = {"series/trivial/P0/53": _poincare("trivial", 12, [(0, 1)], 53)}
    for bits in (113, 200):
        for name, weight, indices in [
                ("trivial", 12, [(-1, 1), (0, 1), (1, 1)]),
                ("eta:2", 5, [(0, 1), (1, 1)]),
                ("eta:24", 12, [(-1, 1), (0, 1), (1, 1)]),
                ("dirichlet:4", 5, [(-1, 1), (1, 1)]),
                ("diag(trivial;eta:4)", 12, [(-1, 1), (0, 2), (1, 2)])]:
            out[f"series/{name}/{bits}"] = _poincare(name, weight, indices, bits)
    for name, k in [("trivial", 2), ("trivial", 10), ("eta:2", 3)]:
        out[f"grid/{name}/k{k}/113"] = _grid(name, k, 113)
    for name, weight in [("trivial", 12), ("dirichlet:4", 5)]:
        out[f"constant_term_cf/{name}/113"] = _constant_term(name, weight, 113)
    out["supplementary+period_rH/113"] = _supplementary(113)
    out["lvalue_series/113"] = _lvalues(113)
    for line in _readme_lines():
        if line[0] != "pairing":
            out[f"cli/{line[0]}"] = _readme_cli(line)
    return out


def digest(case) -> dict:
    """{"values": sha256, "tails": sha256} of one case's output."""
    values, tails = case()
    return {part: hashlib.sha256(json.dumps(obj).encode()).hexdigest()
            for part, obj in (("values", values), ("tails", tails))}


if __name__ == "__main__":
    ledger = {name: digest(case) for name, case in cases().items()}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"{len(ledger)} cases written to {LEDGER}", file=sys.stderr)
