"""Batch command-line front end with machine-readable JSON/CSV output.

Subcommands: coeffs, grid, duality, lvalue, period, pairing.
Exit codes: 0 success, 1 usage/configuration error (gamma outside the
group, t0 not finite and positive, --bits too few to certify a series, or
another arithmetic error), 2 computed but with something unconverged.
One rule: a bound is unconverged when not bound <= --tol (so a NaN bound
is).  Each subcommand checks: coeffs, the series' tails; grid, the tails
of f, G+, G- and the shadow and both duality sides'; duality, both sides'
tails of every pair; lvalue, every err; period, the tails of the series
it integrates; pairing, the fit's relative residual (its prediction
carries no bound yet).
Float fields are emitted as shortest round-trip decimals plus a parallel
hex-float field, so identical configurations produce byte-identical
reports; a non-finite float is the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .automorphy import (
    AutomorphyData,
    DiagonalRepresentation,
    DirichletMultiplier,
    EtaPowerMultiplier,
    TrivialMultiplier,
)
from .groups import GroupElement, GroupSpec
from .precision import PrecisionContext
from .series import TruncationParams


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_entry(out: dict, key: str, x: float):
    x = float(x)
    out[key] = x
    out[key + "_hex"] = x.hex()


def _complex_entry(out: dict, value, prefix_re="re", prefix_im="im") -> dict:
    z = complex(value)
    _float_entry(out, prefix_re, z.real)
    _float_entry(out, prefix_im, z.imag)
    return out


def parse_character(spec: str):
    if spec == "trivial":
        return TrivialMultiplier()
    if spec.startswith("eta:"):
        return EtaPowerMultiplier(int(spec.split(":", 1)[1]))
    if spec.startswith("dirichlet:"):
        _, n, table = spec.split(":", 2)
        n = int(n)
        entries = []
        for item in table.split(","):
            u, q = item.split("=")
            entries.append((int(u), Fraction(q)))
        return DirichletMultiplier(n, tuple(sorted(entries)))
    raise ValueError(f"unknown character spec {spec!r}")


def parse_rep(spec: str) -> DiagonalRepresentation:
    if not (spec.startswith("diag(") and spec.endswith(")")):
        raise ValueError("representation spec must look like diag(<char>,...)")
    inner = spec[5:-1]
    parts = [parse_character(p.strip()) for p in inner.split(";")] if inner else []
    if not parts:
        raise ValueError("empty representation")
    return DiagonalRepresentation(tuple(parts))


def parse_gamma(spec: str) -> GroupElement:
    vals = [int(v) for v in spec.split(",")]
    if len(vals) != 4:
        raise ValueError("gamma must be four comma-separated integers a,b,c,d")
    return GroupElement(*vals)


def _add_common(p: _Parser, *flags: str):
    p.add_argument("--group", type=int, default=1, metavar="N",
                   help="level N of Gamma_0(N) (default 1)")
    p.add_argument("--generators", default="",
                   help="semicolon-separated a,b,c,d tuples (required for N>1 commands "
                        "that use generators); write --generators=-1,... when a < 0")
    p.add_argument("--character", default="trivial",
                   help="trivial | eta:r | dirichlet:N:u=p/q,...")
    p.add_argument("--rep", default="diag(trivial)",
                   help="diag(<character>;...) componentwise characters")
    p.add_argument("--cmax", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-8, help="tail tolerance")
    p.add_argument("--bits", type=int, default=113, help="mantissa bits")
    if "t0" in flags:
        p.add_argument("--t0", type=float, default=1.0)
    if "k" in flags:
        p.add_argument("--k", type=int, required=True)
    if "index" in flags:  # P_{n,alpha} at l = lmin..lmax
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", type=int, default=1)
        p.add_argument("--lmin", type=int, default=0)
    if "gamma" in flags:
        p.add_argument("--gamma", default="0,-1,1,0",
                       help="a,b,c,d (default S); write --gamma=-1,-1,-2,-3 when a < 0")
    p.add_argument("--json", dest="json_path", default="-",
                   help="output path for the JSON report ('-' = stdout)")
    if "csv" in flags:
        p.add_argument("--csv", dest="csv_path", default="",
                       help="optional CSV path for flat entry tables")


def build_config(args, weight: int):
    gens = tuple(parse_gamma(g) for g in args.generators.split(";") if g)
    group = GroupSpec(level=args.group, gens=gens)
    chi = parse_character(args.character)
    rho = parse_rep(args.rep)
    data = AutomorphyData(weight=weight, chi=chi, rho=rho, group=group)
    ctx = PrecisionContext(mantissa_bits=args.bits,
                           target_tol=min(1e-25, args.tol * 1e-8))
    trunc = TruncationParams(c_max=args.cmax, tail_tol=args.tol, ctx=ctx)
    return data, trunc


def _entries(items, tails, index="n") -> list:
    entries = []
    for (n, j), v in items:
        e = _complex_entry({index: n, "j": j}, v)
        _float_entry(e, "tail_bound", tails.get((n, j), 0.0))
        entries.append(e)
    return entries


def _series_json(series, data, args) -> dict:
    return {
        "weight": series.weight,
        "character": data.chi.label(),
        "rep": data.rho.label(),
        "lambda": "1",  # the cusp width of Gamma_0(N)
        "kappa": [str(k) for k in data.kappa],
        "entries": _entries(series.items(), series.tails),
        "c_max": args.cmax,
        "tail_tol": args.tol,
        "bits": args.bits,
    }


def _emit(args, payload: dict, unconverged=(), table=(), header=()) -> int:
    """Writes the JSON report, strict JSON (a non-finite float as its str),
    and, with --csv, the header columns of each row dict of table (the
    report's own table); the exit code: 2 if anything is unconverged, else 0."""
    text = json.dumps(json.loads(json.dumps(payload), parse_constant=lambda c: str(float(c))),
                      indent=2)
    if args.json_path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    if header and args.csv_path:
        with open(args.csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([row[h] for h in header] for row in table)
    return 2 if unconverged else 0


def _build_sform(args, data, trunc):
    from .poincare import poincare_series

    return poincare_series(data, data.weight, args.n, args.alpha,
                           range(args.lmin, args.lmax + 1), trunc)


def cmd_coeffs(args) -> int:
    data, trunc = build_config(args, weight=args.weight)
    series = _build_sform(args, data, trunc)
    payload = _series_json(series, data, args)
    bad = series.unconverged_entries()
    payload["unconverged"] = [{"n": n, "j": j} for (n, j) in bad]
    return _emit(args, payload, bad, payload["entries"], ("n", "j", "re", "im", "tail_bound"))


def _duality_row(rep) -> dict:
    row = {"n1": rep.n1, "a1": rep.alpha1, "n2": rep.n2, "a2": rep.alpha2}
    _complex_entry(row, rep.lhs, "lhs_re", "lhs_im")
    _complex_entry(row, rep.rhs, "rhs_re", "rhs_im")
    for key in ("residual", "lhs_tail", "rhs_tail"):
        _float_entry(row, key, getattr(rep, key))
    return row


def cmd_grid(args) -> int:
    from .gridforms import build_pair

    data, trunc = build_config(args, weight=args.k + 2)
    pair = build_pair(data, args.k, args.n1, args.alpha1, args.n2, args.alpha2,
                      trunc, lmax=args.lmax)
    f, G, pair_row = pair.f, pair.G, _duality_row(pair.duality)
    payload = {
        "k": args.k,
        "f": _series_json(f, data, args),
        "G_plus": _series_json(G.holo, data.conjugate(), args),
        "G_minus": _entries(sorted(G.nonholo.items()), G.nonholo_tails, "l"),
        "shadow": _series_json(G.shadow, data, args),
        "duality": {"pairs": [pair_row]},
    }
    parts = {"f": f.unconverged_entries(), "G_plus": G.holo.unconverged_entries(),
             "G_minus": [key for key, t in sorted(G.nonholo_tails.items()) if not t <= args.tol],
             "shadow": G.shadow.unconverged_entries()}
    bad = [{"part": part, "n": n, "j": j} for part, keys in parts.items() for (n, j) in keys]
    bad += [{"part": "duality", "side": side} for side in ("lhs", "rhs")
            if not pair_row[side + "_tail"] <= args.tol]
    payload["unconverged"] = bad
    return _emit(args, payload, bad)


def cmd_duality(args) -> int:
    from .gridforms import build_grid

    data, trunc = build_config(args, weight=args.k + 2)
    reports = build_grid(data, args.k, trunc, duality=[(n1, args.alpha1, n2, args.alpha2)
                                                       for n1 in args.n1 for n2 in args.n2])[2]
    pairs = [_duality_row(rep) for rep in reports]
    bad = [r for r in pairs if not (r["lhs_tail"] <= args.tol and r["rhs_tail"] <= args.tol)]
    return _emit(args, {"k": args.k, "pairs": pairs}, bad, pairs,
                 ("n1", "a1", "n2", "a2", "lhs_re", "lhs_im", "residual"))


def cmd_lvalue(args) -> int:
    from .lfun import TwistSpec, lvalue_integral, lvalue_series

    data, trunc = build_config(args, weight=args.weight)
    twist = TwistSpec.from_element(parse_gamma(args.gamma))
    f = _build_sform(args, data, trunc)
    values = []
    for lv in lvalue_series(f, twist, args.s, t0=args.t0, trunc=trunc):
        integral = [lvalue_integral(f, twist, lv.s, t0=args.t0)] if args.method == "both" else []
        for res in [lv, *integral]:
            row = {"s": lv.s, "twist": dict(zip("abcd", twist.gamma.as_tuple())),
                   "t0": args.t0, "method": res.method}
            _complex_entry(row, res.value)
            _float_entry(row, "err", res.err)
            values.append(row)
    payload = {"weight": args.weight, "n": args.n, "alpha": args.alpha,
               "values": values}
    return _emit(args, payload, [r for r in values if not r["err"] <= args.tol], values,
                 ("s", "method", "re", "im", "err"))


def cmd_period(args) -> int:
    from .eichler import period_r, period_rH, period_rN

    data, trunc = build_config(args, weight=args.k + 2)
    gamma = parse_gamma(args.gamma)
    f = _build_sform(args, data, trunc)
    if args.kind == "rN":
        poly = period_rN(f, gamma, args.k, t0=args.t0)
    else:
        poly = (period_r if args.kind == "r" else period_rH)(f, gamma, args.k, trunc, t0=args.t0)
    coeffs = [_complex_entry({"i": i}, cval) for i, cval in enumerate(poly.coeffs)]
    payload = {
        "kind": args.kind,
        "generator": dict(zip("abcd", gamma.as_tuple())),
        "basis": "tau+d/c" if gamma.c != 0 else "tau",
        "k": args.k,
        "coeffs": coeffs,
    }
    return _emit(args, payload, f.unconverged_entries(), coeffs, ("i", "re", "im"))


def cmd_pairing(args) -> int:
    from .eichler import period_rH, supplementary
    from .lfun import fit_pairing, petersson_poincare, predict_gram
    from .poincare import poincare_series

    data, trunc = build_config(args, weight=args.k + 2)
    basis = [(int(n), 1) for n in args.basis.split(",")]
    pm = fit_pairing(basis, data, args.k, trunc, t0=args.t0, lmax=args.lmax)
    payload = {"k": args.k, "basis": [n for (n, _a) in basis]}
    _float_entry(payload, "fit_residual", pm.residual)
    payload["rank"] = pm.rank
    if args.predict:
        n1, n2 = (int(v) for v in args.predict.split(","))
        rh = []
        for n in (n1, n2):
            fstar = supplementary([(1, n, 1)], data, args.k, trunc,
                                  lmax=args.lmax)
            rh.append([period_rH(fstar, g, args.k, trunc, t0=args.t0)
                       for g in pm.gens])
        pred = predict_gram(pm, rh[0], rh[1])
        p1 = poincare_series(data, args.k + 2, n1, 1, [-n2], trunc)
        truth = complex(petersson_poincare(p1, n2, 1, data, args.k))
        row = {"n1": n1, "n2": n2}
        _complex_entry(row, pred, "pred_re", "pred_im")
        _complex_entry(row, truth, "unfold_re", "unfold_im")
        _float_entry(row, "rel_error", abs(pred - truth) / abs(truth))
        payload["prediction"] = row
    return _emit(args, payload, [] if pm.residual <= args.tol else ["fit_residual"])


def make_parser() -> _Parser:
    parser = _Parser(prog="mgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="Poincare series coefficient table")
    _add_common(p, "csv", "index")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--lmax", type=int, default=10)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("grid", help="one dual pair f_{n1}, G_{n2} plus report")
    _add_common(p, "k")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--alpha1", type=int, default=1)
    p.add_argument("--alpha2", type=int, default=1)
    p.add_argument("--lmax", type=int, default=10)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("duality", help="duality residual matrix")
    _add_common(p, "csv", "k")
    p.add_argument("--n1", type=int, action="append", required=True)
    p.add_argument("--n2", type=int, action="append", required=True)
    p.add_argument("--alpha1", type=int, default=1)
    p.add_argument("--alpha2", type=int, default=1)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("lvalue", help="twisted L-values of P_{n}")
    _add_common(p, "csv", "t0", "index", "gamma")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--s", type=int, action="append", required=True)
    p.add_argument("--method", choices=("series", "both"), default="series")
    p.add_argument("--lmax", type=int, default=60)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("period", help="period polynomial of P_{n} (weight k+2)")
    _add_common(p, "csv", "t0", "k", "index", "gamma")
    p.add_argument("--kind", choices=("r", "rH", "rN"), default="rH")
    p.add_argument("--lmax", type=int, default=60)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("pairing", help="fit the period pairing and predict")
    _add_common(p, "t0", "k")
    p.add_argument("--basis", required=True,
                   help="comma-separated cusp indices; write --basis=-1,-2 if the first is < 0")
    p.add_argument("--predict", default="",
                   help="pair 'n1,n2' to predict from L-values; write --predict=-1,-2 if n1 < 0")
    p.add_argument("--lmax", type=int, default=60)
    p.set_defaults(func=cmd_pairing)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, ArithmeticError) as exc:
        print(f"mgrid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
