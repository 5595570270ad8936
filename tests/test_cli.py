"""Command-line front end: exit codes, JSON shape and determinism."""

import csv
import json
import math
from pathlib import Path

import pytest

from mgrid.cli import main, make_parser, parse_character, parse_gamma, parse_rep
from mgrid.groups import cplus_arrays


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_coeffs_eisenstein(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    rc, out, _err = run_cli(capsys, [
        "coeffs", "--weight", "4", "--n", "0", "--lmax", "5",
        "--cmax", "3000", "--tol", "1e-2", "--csv", str(csv_path),
    ])
    assert rc == 0
    doc = json.loads(out)
    entry = next(e for e in doc["entries"] if e["n"] == 1)
    assert entry["re"] == pytest.approx(240.0, rel=1e-5)
    assert entry["j"] == 1
    assert "re_hex" in entry and entry["re_hex"] == float(entry["re"]).hex()
    assert doc["kappa"] == ["0"]
    assert doc["lambda"] == "1"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "n,j,re,im,tail_bound"


def test_coeffs_missing_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--n", "0"])
    assert exc.value.code == 1


def test_coeffs_unreachable_tolerance_exits_2(capsys):
    rc, out, _err = run_cli(capsys, [
        "coeffs", "--weight", "4", "--n", "0", "--lmax", "2",
        "--cmax", "10", "--tol", "1e-10",
    ])
    assert rc == 2
    doc = json.loads(out)
    assert doc["unconverged"]


# each subcommand's required flags, and the subcommands that read --csv / --t0
_REQUIRED = {"coeffs": ["--weight", "4", "--n", "0"],
             "grid": ["--k", "2", "--n1", "1", "--n2", "1"],
             "duality": ["--k", "2", "--n1", "1", "--n2", "1"],
             "lvalue": ["--weight", "12", "--n", "-1", "--s", "1"],
             "period": ["--k", "10", "--n", "-1"], "pairing": ["--k", "10", "--basis=-1"]}
_READERS = {("--csv", "csv_path", "out.csv"): {"coeffs", "duality", "lvalue", "period"},
            ("--t0", "t0", 2.0): {"lvalue", "period", "pairing"}}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_csv_and_t0_only_where_read(command, capsys):
    # a flag that a subcommand ignores is a usage error (exit 1), not a no-op;
    # _REQUIRED names every subcommand, so none drops out of this test
    parser = make_parser()
    assert set(_REQUIRED) == set(next(a.choices for a in parser._actions if a.dest == "command"))
    for (flag, dest, value), readers in _READERS.items():
        argv = [command, *_REQUIRED[command], flag, str(value)]
        if command in readers:
            assert getattr(parser.parse_args(argv), dest) == value
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 1


def test_json_byte_determinism(capsys):
    argv = ["coeffs", "--weight", "4", "--n", "0", "--lmax", "3",
            "--cmax", "500", "--tol", "1.0"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_duality_report(capsys):
    rc, out, _err = run_cli(capsys, [
        "duality", "--k", "10", "--n1", "1", "--n1", "2", "--n2", "1",
        "--n2", "2", "--cmax", "250", "--tol", "1e-2",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 4
    assert all(row["residual"] < 1e-6 for row in doc["pairs"])


def test_duality_tails_above_tol_exit_2(capsys):
    rc, out, _err = run_cli(capsys, [
        "duality", "--k", "10", "--n1", "1", "--n2", "1", "--cmax", "5",
        "--tol", "1e-30",
    ])
    assert rc == 2
    (row,) = json.loads(out)["pairs"]
    assert max(row["lhs_tail"], row["rhs_tail"]) > 1e-30


# each --csv subcommand, and the JSON table its CSV rows come from
_CSV_TABLES = {
    "coeffs": (["coeffs", "--weight", "12", "--n", "-1", "--lmax", "5"], "entries"),
    "duality": (["duality", "--k", "10", "--n1", "1", "--n1", "2", "--n2", "1"], "pairs"),
    "lvalue": (["lvalue", "--weight", "12", "--n", "-1", "--s", "1", "--s", "6",
                "--lmax", "20", "--method", "both"], "values"),
    "period": (["period", "--k", "10", "--n", "-1", "--kind", "rH", "--lmax", "8"], "coeffs"),
}


@pytest.mark.parametrize("command", sorted(_CSV_TABLES))
def test_csv_rows_are_the_header_columns_of_the_json_table(command, capsys, tmp_path):
    argv, table = _CSV_TABLES[command]
    csv_path = tmp_path / "table.csv"
    _rc, out, _err = run_cli(capsys, argv + ["--cmax", "40", "--tol", "1.0",
                                             "--csv", str(csv_path)])
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    doc_rows = json.loads(out)[table]
    assert doc_rows and rows == [[str(r[h]) for h in header] for r in doc_rows]


def test_nan_duality_tail_exits_2(capsys, monkeypatch):
    # a NaN bound is unconverged: not tail <= tol, whichever side it is on
    from mgrid import gridforms

    build_grid = gridforms.build_grid

    def nan_rhs_tails(*args, **kwargs):
        f, G, reports = build_grid(*args, **kwargs)
        for rep in reports:
            rep.rhs_tail = math.nan
        return f, G, reports

    monkeypatch.setattr(gridforms, "build_grid", nan_rhs_tails)
    rc, _out, _err = run_cli(capsys, ["duality", "--k", "10", "--n1", "1", "--n2", "1",
                                      "--cmax", "40", "--tol", "1.0"])
    assert rc == 2


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nan_lvalue_err_exits_2(capsys, monkeypatch):
    from mgrid import lfun

    lvalue_series = lfun.lvalue_series

    def nan_errs(*args, **kwargs):
        values = lvalue_series(*args, **kwargs)
        for lv in values:
            lv.err = math.nan
        return values

    monkeypatch.setattr(lfun, "lvalue_series", nan_errs)
    rc, out, _err = run_cli(capsys, ["lvalue", "--weight", "12", "--n", "-1", "--s", "6",
                                     "--lmax", "20", "--cmax", "40", "--tol", "1.0"])
    assert rc == 2
    # strict JSON: the NaN is the string "nan", and no bare NaN/Infinity token is written
    assert json.loads(out, parse_constant=_reject_constant)["values"][0]["err"] == "nan"


def test_grid_pair_report(capsys):
    rc, out, _err = run_cli(capsys, [
        "grid", "--k", "10", "--n1", "1", "--n2", "1", "--lmax", "3",
        "--cmax", "150", "--tol", "1e-2",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["f"]["weight"] == 12
    assert doc["G_plus"]["weight"] == -10
    assert doc["duality"]["pairs"][0]["residual"] < 1e-6
    assert doc["G_minus"]
    assert all("tail_bound" in e for e in doc["G_minus"])
    assert doc["unconverged"] == []


def test_grid_unconverged_shadow_exits_2(capsys):
    # at c_max 20 the E_12-like f and the G+ entries are within 1e-7, the
    # shadow P_{-2} is not: only the shadow rows may make the run fail
    rc, out, _err = run_cli(capsys, [
        "grid", "--k", "10", "--n1", "0", "--n2", "2", "--lmax", "3",
        "--cmax", "20", "--tol", "1e-7",
    ])
    doc = json.loads(out)
    assert rc == 2
    assert doc["unconverged"]
    assert {e["part"] for e in doc["unconverged"]} == {"shadow"}
    tails = [e["tail_bound"] for part in ("f", "G_plus") for e in doc[part]["entries"]]
    assert max(tails + [e["tail_bound"] for e in doc["G_minus"]]) <= 1e-7


def test_grid_unconverged_duality_exits_2(capsys):
    # lmax 0: f, G+ and the shadow hold no entry at l = 1, where both duality
    # sides live; at c_max 10 only the sides' tails (1.0e-9) exceed 1e-10
    rc, out, _err = run_cli(capsys, [
        "grid", "--k", "10", "--n1", "1", "--n2", "1", "--lmax", "0",
        "--cmax", "10", "--tol", "1e-10",
    ])
    doc = json.loads(out)
    assert rc == 2
    (row,) = doc["duality"]["pairs"]
    assert min(row["lhs_tail"], row["rhs_tail"]) > 1e-10
    assert doc["unconverged"] == [{"part": "duality", "side": "lhs"},
                                  {"part": "duality", "side": "rhs"}]


def test_duality_grid_makes_one_walk(capsys, monkeypatch):
    from mgrid import poincare

    calls = []

    def counting_cplus_arrays(spec, c):
        calls.append(c)
        return cplus_arrays(spec, c)

    monkeypatch.setattr(poincare, "cplus_arrays", counting_cplus_arrays)
    rc, out, _err = run_cli(capsys, [
        "duality", "--k", "10", "--n1", "1", "--n1", "2", "--n2", "1",
        "--n2", "2", "--cmax", "40", "--tol", "1.0",
    ])
    assert rc == 0 and len(json.loads(out)["pairs"]) == 4
    assert calls == list(range(1, 41))


def test_odd_weight_trivial_character_exits_1(capsys):
    rc, _out, err = run_cli(capsys, [
        "coeffs", "--weight", "5", "--n", "0", "--lmax", "2",
    ])
    assert rc == 1
    assert "chi(-I)" in err or "nontrivial" in err or "violates" in err


def test_period_of_an_element_outside_the_group_exits_1(capsys):
    # S is not in Gamma_0(4): no period polynomial of it is printed
    rc, out, err = run_cli(capsys, [
        "period", "--group", "4", "--k", "10", "--n", "-1", "--gamma", "0,-1,1,0",
        "--cmax", "40", "--lmax", "8", "--tol", "1",
    ])
    assert rc == 1 and out == ""
    assert "(0, -1, 1, 0) is not in Gamma_0(4)" in err


@pytest.mark.parametrize("command, t0", [("period", "0"), ("period", "-1"), ("period", "nan"),
                                         ("lvalue", "nan"), ("lvalue", "inf")])
def test_a_t0_that_is_not_finite_and_positive_exits_1(capsys, command, t0):
    # period --kind rN once ended in a ZeroDivisionError traceback at 0 and
    # exited 2 with coefficients near 1e116 at -1 and nan
    head = ["period", "--k", "10", "--kind", "rN"] if command == "period" else \
        ["lvalue", "--weight", "12", "--s", "6"]
    rc, out, err = run_cli(capsys, [*head, "--n", "-1", "--lmax", "10", "--cmax", "20",
                                    "--tol", "1", f"--t0={t0}"])
    assert rc == 1 and out == ""
    assert err.startswith("mgrid: t0 must be finite and positive, got ")


@pytest.mark.parametrize("head", [["period", "--k", "10", "--kind", "rN"],
                                  ["lvalue", "--weight", "12", "--s", "6", "--method", "both"]],
                         ids=["period", "lvalue"])
def test_an_arithmetic_error_exits_1_with_a_message(capsys, head):
    # t0 = 1e-300 overflows the ray integrals: an OverflowError, once a
    # traceback, is an ArithmeticError like ConvergenceError
    rc, out, err = run_cli(capsys, [*head, "--n", "-1", "--lmax", "10", "--cmax", "20",
                                    "--t0", "1e-300"])
    assert rc == 1 and out == "" and err.startswith("mgrid: ")


@pytest.mark.parametrize("alpha", ["0", "3"])
def test_duality_component_outside_the_rep_exits_1(capsys, alpha):
    # 0 used to report component 2's pair with exit 0, and 3 ended in an
    # IndexError traceback
    rc, out, err = run_cli(capsys, [
        "duality", "--k", "10", "--n1", "1", "--n2", "1", "--alpha1", alpha,
        "--alpha2", alpha, "--rep", "diag(trivial;eta:4)", "--cmax", "10", "--tol", "1",
    ])
    assert rc == 1 and out == ""
    assert err.startswith("mgrid: component") and "outside 1..2" in err


def test_convergence_error_exits_1(capsys):
    # 53 bits cannot certify this Bessel series: a configuration error, no traceback
    rc, out, err = run_cli(capsys, [
        "coeffs", "--weight", "12", "--n", "10", "--lmin", "250", "--lmax", "250",
        "--bits", "53", "--cmax", "1", "--tol", "1",
    ])
    assert rc == 1 and out == ""
    assert err.startswith("mgrid: Bessel series did not certify") and "mantissa_bits" in err


def test_lvalue_parabolic_gamma_exits_1(capsys):
    rc, _out, err = run_cli(capsys, [
        "lvalue", "--weight", "12", "--n", "-1", "--s", "6",
        "--gamma", "1,1,0,1", "--cmax", "50",
    ])
    assert rc == 1


def test_negative_gamma_is_normalised_to_c_positive(capsys):
    # -gamma twists as gamma; a negative first entry needs the = form, since
    # with a space argparse reads -1,... as an option
    argv = ["lvalue", "--weight", "12", "--n", "-1", "--s", "6", "--lmax", "20", "--cmax", "20"]
    rc_neg, out_neg, _err = run_cli(capsys, argv + ["--gamma=-1,-1,-2,-3"])
    rc_pos, out_pos, _err = run_cli(capsys, argv + ["--gamma=1,1,2,3"])
    assert rc_neg == rc_pos and out_neg == out_pos
    assert json.loads(out_pos)["values"][0]["twist"] == {"a": 1, "b": 1, "c": 2, "d": 3}
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--gamma", "-1,-1,-2,-3"])
    assert exc.value.code == 1 and "--gamma" in capsys.readouterr().err


def test_lvalue_series_output_matches_library(capsys):
    rc, out, _err = run_cli(capsys, [
        "lvalue", "--weight", "12", "--n", "-1", "--s", "6", "--lmax", "40",
        "--cmax", "50", "--tol", "1e-6",
    ])
    assert rc == 0
    doc = json.loads(out)
    row = doc["values"][0]
    assert row["s"] == 6
    assert row["twist"] == {"a": 0, "b": -1, "c": 1, "d": 0}
    assert row["method"] == "series"
    # pass-through: the CLI value is the library call, bit for bit
    from mgrid import (AutomorphyData, PrecisionContext, TrivialMultiplier,
                       TruncationParams, TwistSpec, lvalue_series,
                       poincare_series, sl2z, trivial_representation)
    from mgrid.groups import S

    data = AutomorphyData(weight=12, chi=TrivialMultiplier(),
                          rho=trivial_representation(), group=sl2z())
    trunc = TruncationParams(c_max=50, tail_tol=1e-6,
                             ctx=PrecisionContext(113, min(1e-25, 1e-6 * 1e-8)))
    f = poincare_series(data, 12, -1, 1, range(0, 41), trunc)
    lv = lvalue_series(f, TwistSpec.from_element(S), 6, t0=1.0, trunc=trunc)
    assert row["re"] == float(complex(lv.value).real)
    assert row["im"] == float(complex(lv.value).imag)


def test_lvalue_err_above_tol_exits_2(capsys):
    rc, out, _err = run_cli(capsys, [
        "lvalue", "--weight", "12", "--n", "-1", "--s", "6", "--lmax", "40",
        "--cmax", "50", "--tol", "1e-20",
    ])
    assert rc == 2
    assert json.loads(out)["values"][0]["err"] > 1e-20


def test_period_output(capsys):
    # l <= 8: every tail of the series is below 1e-6 at c_max 50
    rc, out, _err = run_cli(capsys, [
        "period", "--k", "10", "--n", "-1", "--kind", "rH", "--lmax", "8",
        "--cmax", "50", "--tol", "1e-6",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["basis"] == "tau+d/c"
    assert len(doc["coeffs"]) == 11


PERIOD_L40 = ["period", "--k", "10", "--n", "-1", "--kind", "rH", "--lmax", "40",
              "--cmax", "50"]


def test_period_tails_above_tol_exit_2(capsys):
    # at c_max 50 the tails of l = 9..40 run from 3.1e-6 up to 43
    rc, out, _err = run_cli(capsys, PERIOD_L40 + ["--tol", "1e-6"])
    assert rc == 2
    assert len(json.loads(out)["coeffs"]) == 11


def test_period_tails_within_tol_exit_0(capsys):
    # the same report as at --tol 1e-6 (both work at target_tol 1e-25); only
    # the exit code follows the tolerance
    rc, out, _err = run_cli(capsys, PERIOD_L40 + ["--tol", "50"])
    assert rc == 0
    assert run_cli(capsys, PERIOD_L40 + ["--tol", "1e-6"])[1] == out


def test_pairing_fit_and_predict(capsys):
    rc, out, _err = run_cli(capsys, [
        "pairing", "--k", "10", "--basis=-1", "--predict=-1,-2",
        "--lmax", "50", "--cmax", "50", "--tol", "1e-6",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["prediction"]["rel_error"] < 1e-4


def test_pairing_exits_2_on_a_fit_that_reproduces_nothing(capsys):
    # the Gram targets are themselves ~8e-6 here: the fit's relative residual
    # is ~1 and fails --tol, where its absolute residual passed
    rc, out, _err = run_cli(capsys, [
        "pairing", "--k", "10", "--basis=-1,-3", "--lmax", "2", "--cmax", "20",
        "--tol", "1e-6",
    ])
    assert rc == 2
    assert json.loads(out)["fit_residual"] > 0.99


def test_coeffs_omits_a_leading_term_outside_the_l_range(capsys):
    # P_{-1}'s a(1) needs l = 1: at --lmin 2 the leading 1 alone is not an entry
    argv = ["coeffs", "--weight", "12", "--n", "-1", "--lmax", "3", "--cmax", "60",
            "--tol", "1e-6"]
    rc, out, _err = run_cli(capsys, argv + ["--lmin", "2"])
    assert rc == 0
    assert [e["n"] for e in json.loads(out)["entries"]] == [2, 3]
    rc, out, _err = run_cli(capsys, argv + ["--lmin", "1"])
    entry = next(e for e in json.loads(out)["entries"] if e["n"] == 1)
    assert rc == 0 and entry["re"] == pytest.approx(2.8402873751675006) and entry["tail_bound"] > 0


def _readme_command_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("mgrid ")]


def test_readme_command_lines_exit_as_documented(capsys, tmp_path):
    # README's six examples, table.json written under tmp_path; the period
    # line exits 2 (its series' tails exceed --tol at c_max 60), the rest 0
    lines = _readme_command_lines()
    assert [argv[0] for argv in lines] == ["coeffs", "grid", "duality", "lvalue", "period",
                                           "pairing"]
    for argv in lines:
        argv = [str(tmp_path / a) if a == "table.json" else a for a in argv]
        assert run_cli(capsys, argv)[0] == (2 if argv[0] == "period" else 0), argv
    assert json.loads((tmp_path / "table.json").read_text())["entries"]


@pytest.mark.parametrize("argv", [
    ["coeffs", "--weight", "4", "--n", "0", "--lmin", "1", "--lmax", "3", "--cmax", "100",
     "--tol", "1e-2", "--bits", "1000"],
    ["coeffs", "--weight", "12", "--n", "-1", "--lmax", "3", "--cmax", "30", "--bits", "1000"],
    ["lvalue", "--weight", "12", "--n", "-1", "--s", "6", "--gamma", "0,-1,1,0", "--lmax", "10",
     "--cmax", "20", "--tol", "1e-6", "--bits", "1100"],
], ids=["eisenstein", "bessel", "lvalue"])
def test_bits_past_the_double_range_exit_0(argv, capsys):
    # u_1 = 2^e with e > 1023 once overflowed float(); every tail stays finite
    rc, out, _err = run_cli(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    bounds = [e["tail_bound"] for e in doc["entries"]] if "entries" in doc \
        else [v["err"] for v in doc["values"]]
    assert bounds and all(math.isfinite(b) for b in bounds)


def test_character_and_rep_parsers():
    assert parse_character("trivial").label() == "trivial"
    assert parse_character("eta:2").label() == "eta:2"
    chi = parse_character("dirichlet:4:1=0,3=1/2")
    assert chi.label() == "dirichlet:4"
    rep = parse_rep("diag(trivial;eta:4)")
    assert rep.dim == 2
    with pytest.raises(ValueError):
        parse_rep("trivial")
    with pytest.raises(ValueError):
        parse_gamma("1,2,3")
    g = parse_gamma("0,-1,1,0")
    assert g.as_tuple() == (0, -1, 1, 0)


def test_nonunit_lambda_exits_1(capsys):
    # the built-ins need lambda = 1, so the CLI has no --lambda flag
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--weight", "4", "--n", "0", "--lmax", "2", "--lambda", "2"])
    assert exc.value.code == 1
    assert "lambda" in capsys.readouterr().err


def test_structural_zeros_are_converged(capsys):
    # the j = 2 entries of P_{1,1} on a diagonal rho are exact zeros with tail 0
    rc, out, _err = run_cli(capsys, [
        "coeffs", "--weight", "12", "--n", "1", "--rep", "diag(eta:4;eta:-4)",
        "--cmax", "120", "--tol", "1e-14", "--lmin", "0", "--lmax", "3",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["unconverged"] == []
    zeros = [e for e in doc["entries"] if e["j"] == 2]
    assert len(zeros) == 4
    assert all(e["re"] == e["im"] == e["tail_bound"] == 0.0 for e in zeros)
