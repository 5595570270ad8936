"""Batch command-line front end with machine-readable JSON/CSV output.

Subcommands: coeffs, grid, duality, lvalue, period, pairing, selfcheck.
Exit codes: 0 success, 1 usage/configuration error, 2 computed but with
unconverged tails (duality: either side's), an L-value err above --tol, or
a failed selfcheck.
Float fields are emitted as shortest round-trip decimals plus a parallel
hex-float field, so identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

import mpmath
import numpy as np

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


def _complex_entry(out: dict, value, prefix_re="re", prefix_im="im"):
    z = complex(value)
    _float_entry(out, prefix_re, z.real)
    _float_entry(out, prefix_im, z.imag)


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


def _add_common(p: _Parser):
    p.add_argument("--group", type=int, default=1, metavar="N",
                   help="level N of Gamma_0(N) (default 1)")
    p.add_argument("--lambda", dest="lam", default="1",
                   help="cusp width at i-infinity (built-ins require 1)")
    p.add_argument("--generators", default="",
                   help="semicolon-separated a,b,c,d tuples (required for N>1 "
                        "commands that use generators)")
    p.add_argument("--character", default="trivial",
                   help="trivial | eta:r | dirichlet:N:u=p/q,...")
    p.add_argument("--rep", default="diag(trivial)",
                   help="diag(<character>;...) componentwise characters")
    p.add_argument("--cmax", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-8, help="tail tolerance")
    p.add_argument("--bits", type=int, default=113, help="mantissa bits")
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--json", dest="json_path", default="-",
                   help="output path for the JSON report ('-' = stdout)")
    p.add_argument("--csv", dest="csv_path", default="",
                   help="optional CSV path for flat entry tables")
    p.add_argument("--allow-slow-convergence", action="store_true")


def build_config(args, weight: int):
    lam = Fraction(args.lam)
    gens = tuple(parse_gamma(g) for g in args.generators.split(";") if g)
    group = GroupSpec(level=args.group, lam=lam, gens=gens)
    chi = parse_character(args.character)
    rho = parse_rep(args.rep)
    data = AutomorphyData(weight=weight, chi=chi, rho=rho, group=group)
    ctx = PrecisionContext(mantissa_bits=args.bits,
                           target_tol=min(1e-25, args.tol * 1e-8))
    trunc = TruncationParams(c_max=args.cmax, tail_tol=args.tol, ctx=ctx,
                             allow_slow_convergence=args.allow_slow_convergence)
    return data, trunc


def _series_json(series, data, args) -> dict:
    entries = []
    for (n, j), v in series.items():
        e = {"n": n, "j": j}
        _complex_entry(e, v)
        _float_entry(e, "tail_bound", series.tails.get((n, j), 0.0))
        entries.append(e)
    return {
        "weight": series.weight,
        "character": data.chi.label(),
        "rep": data.rho.label(),
        "lambda": str(data.lam),
        "kappa": [str(k) for k in data.kappa],
        "entries": entries,
        "c_max": args.cmax,
        "tail_tol": args.tol,
        "bits": args.bits,
    }


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    text = json.dumps(payload, indent=2)
    if args.json_path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    if args.csv_path and csv_rows is not None:
        with open(args.csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)


def cmd_coeffs(args) -> int:
    from .poincare import poincare_series

    data, trunc = build_config(args, weight=args.weight)
    series = poincare_series(data, args.weight, args.n, args.alpha,
                             range(args.lmin, args.lmax + 1), trunc)
    payload = _series_json(series, data, args)
    bad = series.unconverged_entries()
    payload["unconverged"] = [{"n": n, "j": j} for (n, j) in bad]
    rows = [(n, j, repr(complex(v).real), repr(complex(v).imag),
             repr(series.tails.get((n, j), 0.0))) for (n, j), v in series.items()]
    _emit(args, payload, rows, ("n", "j", "re", "im", "tail_bound"))
    return 2 if bad else 0


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
    nonholo = []
    for (l, j), v in sorted(G.nonholo.items()):
        e = {"l": l, "j": j}
        _complex_entry(e, v)
        _float_entry(e, "tail_bound", G.nonholo_tails.get((l, j), 0.0))
        nonholo.append(e)
    payload = {
        "k": args.k,
        "f": _series_json(f, data, args),
        "G_plus": _series_json(G.holo, data.conjugate(), args),
        "G_minus": nonholo,
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
    _emit(args, payload)
    return 2 if bad else 0


def cmd_duality(args) -> int:
    from .gridforms import build_grid

    data, trunc = build_config(args, weight=args.k + 2)
    reports = build_grid(data, args.k, trunc, duality=[(n1, args.alpha1, n2, args.alpha2)
                                                       for n1 in args.n1 for n2 in args.n2])[2]
    pairs = [_duality_row(rep) for rep in reports]
    payload = {"k": args.k, "pairs": pairs}
    rows = [(r["n1"], r["a1"], r["n2"], r["a2"], repr(r["lhs_re"]),
             repr(r["lhs_im"]), repr(r["residual"])) for r in pairs]
    _emit(args, payload, rows, ("n1", "a1", "n2", "a2", "lhs_re", "lhs_im",
                                "residual"))
    return 2 if any(max(r["lhs_tail"], r["rhs_tail"]) > args.tol for r in pairs) else 0


def _build_sform(args, data, trunc):
    from .poincare import poincare_series

    return poincare_series(data, args.weight, args.n, args.alpha,
                           range(args.lmin, args.lmax + 1), trunc)


def cmd_lvalue(args) -> int:
    from .lfun import TwistSpec, lvalue_integral, lvalue_series

    data, trunc = build_config(args, weight=args.weight)
    gamma = parse_gamma(args.gamma)
    if gamma.c == 0:
        raise ValueError("lvalue needs a group element with c != 0")
    if gamma.c % data.group.level != 0:
        raise ValueError("gamma is not in the configured group")
    f = _build_sform(args, data, trunc)
    twist = TwistSpec.from_element(gamma, data.lam)
    values = []
    for lv in lvalue_series(f, twist, args.s, t0=args.t0, trunc=trunc):
        row = {"s": lv.s,
               "twist": {"a": twist.gamma.a, "b": twist.gamma.b,
                         "c": twist.gamma.c, "d": twist.gamma.d},
               "t0": args.t0, "method": lv.method}
        _complex_entry(row, lv.value)
        _float_entry(row, "err", lv.err)
        values.append(row)
        if args.method == "both":
            li = lvalue_integral(f, twist, lv.s, t0=args.t0)
            row2 = dict(row)
            row2["method"] = li.method
            _complex_entry(row2, li.value)
            _float_entry(row2, "err", li.err)
            values.append(row2)
    payload = {"weight": args.weight, "n": args.n, "alpha": args.alpha,
               "values": values}
    rows = [(r["s"], r["method"], repr(r["re"]), repr(r["im"]), repr(r["err"]))
            for r in values]
    _emit(args, payload, rows, ("s", "method", "re", "im", "err"))
    return 2 if any(r["err"] > args.tol for r in values) else 0


def cmd_period(args) -> int:
    from .eichler import period_r, period_rH, period_rN

    data, trunc = build_config(args, weight=args.k + 2)
    gamma = parse_gamma(args.gamma)
    args.weight = args.k + 2
    f = _build_sform(args, data, trunc)
    kind = args.kind
    if kind == "r":
        poly = period_r(f, gamma, args.k, trunc, t0=args.t0)
    elif kind == "rH":
        poly = period_rH(f, gamma, args.k, trunc, t0=args.t0)
    elif kind == "rN":
        poly = period_rN(f, gamma, args.k, t0=args.t0)
    else:
        raise ValueError(f"unknown period kind {kind!r}")
    coeffs = []
    for i, cval in enumerate(poly.coeffs):
        e = {"i": i}
        _complex_entry(e, cval)
        coeffs.append(e)
    payload = {
        "kind": kind,
        "generator": {"a": gamma.a, "b": gamma.b, "c": gamma.c, "d": gamma.d},
        "basis": "tau+d/c" if gamma.c != 0 else "tau",
        "k": args.k,
        "coeffs": coeffs,
    }
    _emit(args, payload,
          [(c["i"], repr(c["re"]), repr(c["im"])) for c in coeffs],
          ("i", "re", "im"))
    return 0


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
        p1 = poincare_series(data, args.k + 2, n1, 1, range(1, abs(n2) + 2),
                             trunc)
        truth = complex(petersson_poincare(p1, n2, 1, data, args.k))
        row = {"n1": n1, "n2": n2}
        _complex_entry(row, pred, "pred_re", "pred_im")
        _complex_entry(row, truth, "unfold_re", "unfold_im")
        _float_entry(row, "rel_error", abs(pred - truth) / abs(truth))
        payload["prediction"] = row
    _emit(args, payload)
    return 0


def cmd_selfcheck(args) -> int:
    import math

    from .groups import S, cplus_arrays, enumerate_cplus, sl2z
    from .lfun import TwistSpec, lvalue_series
    from .poincare import Walk, _layers, kloosterman_layer, poincare_series
    from .precision import exp2pi
    from .specialfn import bessel_i, bessel_j, gamma_upper

    _data, trunc = build_config(args, weight=4)  # validates the configuration
    ctx = trunc.ctx
    checks = []

    ok = all(len(enumerate_cplus(sl2z(), c)) == sum(math.gcd(d, c) == 1 for d in range(c))
             for c in range(1, 61))
    checks.append(("cplus-cardinality-phi", ok))

    def scalar(chi, weight=4):
        return AutomorphyData(weight=weight, chi=chi, group=sl2z(),
                              rho=DiagonalRepresentation((TrivialMultiplier(),)))

    trivial = scalar(TrivialMultiplier())
    ok = True
    for c in range(1, 21):
        direct = 0j
        for d in range(c):
            if math.gcd(d, c) != 1:
                continue
            a = pow(d, -1, c)
            direct += np.exp(2j * np.pi * (a + (-d % c)) / c)
        lay = kloosterman_layer(trivial, c, Fraction(1), Fraction(-1))
        ok = ok and abs(direct - lay) < 1e-9
    checks.append(("kloosterman-layer-direct", ok))
    # the exact x = 0 weight-4 Ramanujan c-sums against the same sums
    # through the box layers of eta^24 (trivial on SL2(Z), but not a
    # TrivialMultiplier), within both noise bounds (the c <= 60 sums agree)
    walk = Walk(TruncationParams(c_max=60, tail_tol=1.0, ctx=ctx))
    sides = [[walk.coefficient(data, 4, 0, 1, y, 1) for y in (1, 2, 3)]
             for data in (trivial, scalar(EtaPowerMultiplier(24)))]
    walk.run()
    with ctx.working():
        ok = all(abs(walk.value(s1)[0] - walk.value(s2)[0]) <= s1.noise + s2.noise
                 for s1, s2 in zip(*sides))
    checks.append(("ramanujan-csum", ok))
    # one multi-key eta^2 box in one pass at the context's bits, each row
    # against a per-element sum of its phases, within the layer bound
    eta2, c = scalar(EtaPowerMultiplier(2), 5), 37
    keys = [(-1 + eta2.kappa[0], l + eta2.kappa[0], 1, 1) for l in range(11)]
    (rows, error), = _layers(eta2, c, cplus_arrays(sl2z(), c), [keys], ctx.mantissa_bits, {})
    with mpmath.workprec(ctx.mantissa_bits + 40):
        ok = all(abs(mpmath.mpc(mpmath.ldexp(re, -e), mpmath.ldexp(im, -e)) - mpmath.fsum(
            exp2pi(x * g.a / c + y * g.d / c - eta2.chi.phase(g)) for g in enumerate_cplus(
                sl2z(), c))) <= error for (x, y, _j, _a), (re, im, e) in zip(keys, rows))
    checks.append(("layers-batched", ok))
    # one fixed-point series L-value (weight 12, S, s = 6: both sides alike)
    # against the per-term mp sum of its coefficients, within its err
    tr = TruncationParams(c_max=20, tail_tol=1.0, ctx=ctx)
    f = poincare_series(scalar(TrivialMultiplier(), 12), 12, -1, 1, range(1, 21), tr)
    lv = lvalue_series(f, TwistSpec.from_element(S, 1), 6, trunc=tr)
    with mpmath.workprec(ctx.mantissa_bits + 60):
        ref = 2 * mpmath.fsum(a * mpmath.gammainc(6, 2 * mpmath.pi * m) / (2 * mpmath.pi * m) ** 6
                              for (m, _j), a in f.items())
    checks.append(("lvalue-fixed-point", abs(lv.lstar - ref) <= lv.err))
    with ctx.working():
        # Gamma(3, z) = 2 Gamma(2, z) + z^2 e^-z, to the context's bits
        g1 = gamma_upper(3, 2.0, ctx)
        g2 = 2 * gamma_upper(2, 2.0, ctx) + 4 * mpmath.exp(-2)
        ok = abs(g1 - g2) < mpmath.ldexp(abs(g1), 8 - ctx.mantissa_bits)
    checks.append(("gamma-recurrence", ok))
    jq = sum(math.cos(3 * t - 7.0 * math.sin(t)) for t in
             np.linspace(0, math.pi, 20001)[1:-1]) * math.pi / 20000 \
        + (math.cos(0.0) + math.cos(3 * math.pi)) * math.pi / 40000
    checks.append(("bessel-quadrature",
                   abs(float(bessel_j(3, 7.0, ctx)) - jq / math.pi) < 1e-8))
    checks.append(("bessel-i-positive", float(bessel_i(2, 1.5, ctx)) > 0))
    payload = {"checks": [{"name": n, "pass": bool(v)} for n, v in checks]}
    _emit(args, payload)
    return 0 if all(v for _n, v in checks) else 2


def make_parser() -> _Parser:
    parser = _Parser(prog="mgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="Poincare series coefficient table")
    _add_common(p)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--lmin", type=int, default=0)
    p.add_argument("--lmax", type=int, default=10)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("grid", help="one dual pair f_{n1}, G_{n2} plus report")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--alpha1", type=int, default=1)
    p.add_argument("--alpha2", type=int, default=1)
    p.add_argument("--lmax", type=int, default=10)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("duality", help="duality residual matrix")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n1", type=int, action="append", required=True)
    p.add_argument("--n2", type=int, action="append", required=True)
    p.add_argument("--alpha1", type=int, default=1)
    p.add_argument("--alpha2", type=int, default=1)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("lvalue", help="twisted L-values of P_{n}")
    _add_common(p)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--s", type=int, action="append", required=True)
    p.add_argument("--gamma", default="0,-1,1,0")
    p.add_argument("--method", choices=("series", "both"), default="series")
    p.add_argument("--lmin", type=int, default=0)
    p.add_argument("--lmax", type=int, default=60)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("period", help="period polynomial of P_{n} (weight k+2)")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--gamma", default="0,-1,1,0")
    p.add_argument("--kind", choices=("r", "rH", "rN"), default="rH")
    p.add_argument("--lmin", type=int, default=0)
    p.add_argument("--lmax", type=int, default=60)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("pairing", help="fit the period pairing and predict")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--basis", required=True,
                   help="comma-separated cusp indices, e.g. '-1'")
    p.add_argument("--predict", default="",
                   help="pair 'n1,n2' to predict from L-values")
    p.add_argument("--lmax", type=int, default=60)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("selfcheck", help="run the standalone property suite")
    _add_common(p)
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as exc:
        print(f"mgrid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
