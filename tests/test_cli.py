"""Command-line front end: exit codes, JSON shape and determinism."""

import json

import pytest

from mgrid.cli import main, parse_character, parse_gamma, parse_rep
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


def test_lvalue_parabolic_gamma_exits_1(capsys):
    rc, _out, err = run_cli(capsys, [
        "lvalue", "--weight", "12", "--n", "-1", "--s", "6",
        "--gamma", "1,1,0,1", "--cmax", "50",
    ])
    assert rc == 1


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
    lv = lvalue_series(f, TwistSpec.from_element(S, 1), 6, t0=1.0, trunc=trunc)
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
    rc, out, _err = run_cli(capsys, [
        "period", "--k", "10", "--n", "-1", "--kind", "rH", "--lmax", "40",
        "--cmax", "50", "--tol", "1e-6",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["basis"] == "tau+d/c"
    assert len(doc["coeffs"]) == 11


def test_pairing_fit_and_predict(capsys):
    rc, out, _err = run_cli(capsys, [
        "pairing", "--k", "10", "--basis=-1", "--predict=-1,-2",
        "--lmax", "50", "--cmax", "50", "--tol", "1e-6",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["prediction"]["rel_error"] < 1e-4


def test_selfcheck(capsys):
    # every check builds its own data, so a configured character or group
    # does not make one fail
    for flags in (["--bits", "53"], ["--bits", "113"], ["--bits", "200"],
                  ["--character", "eta:4"], ["--group", "4"]):
        rc, out, _err = run_cli(capsys, ["selfcheck", *flags])
        assert rc == 0
        doc = json.loads(out)
        assert all(c["pass"] for c in doc["checks"])
        assert {"ramanujan-csum", "layers-batched", "lvalue-fixed-point"} <= {
            c["name"] for c in doc["checks"]}


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
    rc, _out, err = run_cli(capsys, [
        "coeffs", "--weight", "4", "--n", "0", "--lmax", "2", "--lambda", "2",
    ])
    assert rc == 1
    assert "lambda" in err


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
