"""The three benchmark workloads: fixed inputs, one solve, oracle checks.

Each workload has a setup step (import mgrid, build the inputs, parse the
CLI arguments where there is a CLI), a compute step (every mgrid call) and
a check step (every output against its oracle).  The child process times
setup apart from compute plus check.  The seed only permutes the order of
independent calls; it never changes the amount of work.  Smoke sizes are
for the benchmark's own tests and are never reported as results.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass, field

import oracles

BITS = 113
TARGET_TOL = 1e-25

# Sizes are fixed; "smoke" keeps every code path and check at a few seconds
# (eisenstein-cli smoke still selects float64 layers: c_max 400 is above the
# mp element budget of poincare.layer_bits_for).
SIZES = {
    "eisenstein-cli": {
        "full": {"cmax": 2500, "lmax": 10, "tol": 0.05},
        "smoke": {"cmax": 400, "lmax": 3, "tol": 0.05},
    },
    "cusp-periods": {
        "full": {"cmax": 60, "lmax": 60, "smax": 11, "k": 10},
        "smoke": {"cmax": 8, "lmax": 60, "smax": 11, "k": 10},
    },
    "eta-grid": {
        "full": {"cmax": 80, "lmax": 10},
        "smoke": {"cmax": 12, "lmax": 3},
    },
}

# Relational bounds per size.  The full bounds are the acceptance-suite
# constants; smoke truncates at c_max 12, so its duality residual is larger.
BOUNDS = {
    "full": {"lvalue": oracles.LVALUE_REL_BOUND, "period": oracles.PERIOD_REL_BOUND,
             "duality": oracles.DUALITY_RESIDUAL_BOUND},
    "smoke": {"lvalue": oracles.LVALUE_REL_BOUND, "period": oracles.PERIOD_REL_BOUND,
              "duality": 1e-3},
}


@dataclass
class Outcome:
    """One solve: a pass flag per checked output, and every value and tail
    (real and imaginary parts) for the checksum."""

    checks: list = field(default_factory=list)
    values: list = field(default_factory=list)


def _flatten(items) -> list:
    out = []
    for v in items:
        z = complex(v)
        out.extend((z.real, z.imag))
    return out


def _order(seed: int, items) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _context():
    from mgrid import PrecisionContext

    return PrecisionContext(mantissa_bits=BITS, target_tol=TARGET_TOL)


class Workload:
    name = ""

    def __init__(self, size: dict, bounds: dict, scratch: str):
        self.size = size
        self.bounds = bounds
        self.scratch = scratch

    def outputs(self) -> int:
        """Number of checked outputs; all count as failed if compute raises."""
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def compute(self, st: dict) -> dict:
        raise NotImplementedError

    def check(self, res: dict) -> Outcome:
        raise NotImplementedError

    def solve(self, st: dict) -> Outcome:
        return self.check(self.compute(st))


class EisensteinCli(Workload):
    """`mgrid coeffs` for the weight-4 Eisenstein series, JSON read back.

    The CLI fixes the order of l, so the seed has nothing to permute here.
    """

    name = "eisenstein-cli"

    def outputs(self) -> int:
        # l = 1..lmax plus the leading constant term at l = 0
        return self.size["lmax"] + 1

    def setup(self, seed: int) -> dict:
        import mgrid.cli

        fd, path = tempfile.mkstemp(suffix=".json", dir=self.scratch)
        os.close(fd)
        s = self.size
        argv = ["coeffs", "--weight", "4", "--n", "0", "--lmin", "1",
                "--lmax", str(s["lmax"]), "--cmax", str(s["cmax"]),
                "--tol", str(s["tol"]), "--json", path]
        mgrid.cli.make_parser().parse_args(argv)
        return {"cli": mgrid.cli, "argv": argv, "path": path}

    def compute(self, st: dict) -> dict:
        entries = []
        try:
            if st["cli"].main(st["argv"]) == 0:
                with open(st["path"]) as fh:
                    entries = json.load(fh)["entries"]
        finally:
            os.unlink(st["path"])
        return {"values": {e["n"]: complex(e["re"], e["im"]) for e in entries},
                "tails": {e["n"]: e["tail_bound"] for e in entries}}

    def check(self, res: dict) -> Outcome:
        values, tails = res["values"], res["tails"]
        if not values:  # nonzero exit code: no output is certified
            return Outcome(checks=[False] * self.outputs())
        return Outcome(oracles.check_eisenstein(values, tails),
                       _flatten(x for l in sorted(values) for x in (values[l], tails[l])))


class CuspPeriods(Workload):
    """Weight-12 cusp form P_{-1}: coefficients, 11 L-values two ways, periods."""

    name = "cusp-periods"

    def outputs(self) -> int:
        return self.size["lmax"] + self.size["smax"] + 1

    def setup(self, seed: int) -> dict:
        import mgrid

        data = mgrid.AutomorphyData(weight=12, chi=mgrid.TrivialMultiplier(),
                                    rho=mgrid.trivial_representation(),
                                    group=mgrid.sl2z())
        trunc = mgrid.TruncationParams(c_max=self.size["cmax"], tail_tol=1e-9,
                                       ctx=_context())
        return {
            "mgrid": mgrid, "data": data, "trunc": trunc,
            "twist": mgrid.TwistSpec.from_element(mgrid.S, 1),
            "l_order": _order(seed, range(1, self.size["lmax"] + 1)),
            "s_order": _order(seed + 1, range(1, self.size["smax"] + 1)),
        }

    def compute(self, st: dict) -> dict:
        mg, trunc, tw, k = st["mgrid"], st["trunc"], st["twist"], self.size["k"]
        f = mg.poincare_series(st["data"], k + 2, -1, 1, st["l_order"], trunc)
        by_series, by_integral = {}, {}
        for s in st["s_order"]:
            by_series[s] = complex(mg.lvalue_series(f, tw, s, t0=1.0, trunc=trunc).value)
            by_integral[s] = complex(mg.lvalue_integral(f, tw, s, t0=1.0).value)
        rh = mg.period_rH(f, mg.S, k, trunc)
        rn = mg.period_rN(f, mg.S, k, t0=1.0).conjugate_reflected()
        return {
            "values": {l: complex(f.coefficient(l, 1)) for l in st["l_order"]},
            "tails": {l: f.tail_bound(l, 1) for l in st["l_order"]},
            "lseries": by_series, "lintegral": by_integral,
            "rh": [rh(t) for t in mg.SAMPLE_POINTS],
            "rn": [rn(t) for t in mg.SAMPLE_POINTS],
            "poly_coeffs": list(rh.coeffs) + list(rn.coeffs),
        }

    def check(self, res: dict) -> Outcome:
        values, tails = res["values"], res["tails"]
        checks = (oracles.check_tau(values, tails)
                  + oracles.check_relative(res["lseries"], res["lintegral"],
                                           self.bounds["lvalue"])
                  + [oracles.check_polynomial(res["rh"], res["rn"], self.bounds["period"])])
        flat = [x for l in sorted(values) for x in (values[l], tails[l])]
        flat += [x for s in sorted(res["lseries"])
                 for x in (res["lseries"][s], res["lintegral"][s])]
        return Outcome(checks, _flatten(flat + res["poly_coeffs"]))


class EtaGrid(Workload):
    """One Zagier-duality pair on the eta^2 multiplier at weight 5."""

    name = "eta-grid"

    def outputs(self) -> int:
        # duality residual, G+ entries l = -1..lmax, shadow entries m = 0..lmax
        return 1 + (self.size["lmax"] + 2) + (self.size["lmax"] + 1)

    def setup(self, seed: int) -> dict:
        import mgrid

        data = mgrid.AutomorphyData(weight=5, chi=mgrid.EtaPowerMultiplier(2),
                                    rho=mgrid.trivial_representation(),
                                    group=mgrid.sl2z())
        trunc = mgrid.TruncationParams(c_max=self.size["cmax"], tail_tol=1.0,
                                       ctx=_context())
        return {"mgrid": mgrid, "data": data, "trunc": trunc}

    def compute(self, st: dict) -> dict:
        pair = st["mgrid"].build_pair(st["data"], 3, 1, 1, 1, 1, st["trunc"],
                                      lmax=self.size["lmax"])
        G, rep = pair.G, pair.duality
        flat = [x for series in (pair.f, G.holo, G.shadow)
                for key, v in series.items() for x in (v, series.tails[key])]
        flat += [x for key in sorted(G.nonholo)
                 for x in (G.nonholo[key], G.nonholo_tails[key])]
        return {
            "residual": rep.residual,
            "tail_tol": st["trunc"].tail_tol,
            "holo_tails": dict(G.holo.tails),
            "shadow": {m: complex(v) for (m, _j), v in G.shadow.items()},
            "shadow_tails": {m: t for (m, _j), t in G.shadow.tails.items()},
            "all_values": flat + [rep.lhs, rep.rhs, rep.residual],
        }

    def check(self, res: dict) -> Outcome:
        checks = ([oracles.check_residual(res["residual"], self.bounds["duality"])]
                  + oracles.check_converged(res["holo_tails"], res["tail_tol"])
                  + oracles.check_eta2_e4(res["shadow"], res["shadow_tails"]))
        return Outcome(checks, _flatten(res["all_values"]))


WORKLOADS = {w.name: w for w in (EisensteinCli, CuspPeriods, EtaGrid)}


def make(name: str, smoke: bool, scratch: str) -> Workload:
    """The named workload at full or smoke size."""
    mode = "smoke" if smoke else "full"
    return WORKLOADS[name](SIZES[name][mode], BOUNDS[mode], scratch)
