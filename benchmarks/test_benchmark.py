"""Tests of the benchmark harness (smoke sizes only).

    PYTHONPATH=src python -m pytest -q benchmarks

The oracle checks must fail on perturbed outputs, the smoke run must
produce every metric name, and tracing must neither change the values nor
produce counts that differ between two runs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import oracles
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Compute every smoke workload once, in process; checks are re-run on copies."""
    scratch = str(tmp_path_factory.mktemp("scratch"))
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, smoke=True, scratch=scratch)
        out[name] = (wl, wl.compute(wl.setup(seed=3)))
    return out


def _perturbed(res: dict, key: str, index, value) -> dict:
    copy = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
            for k, v in res.items()}
    if index is None:
        copy[key] = value
    else:
        copy[key][index] = value
    return copy


def test_smoke_outputs_pass_every_check(smoke_outputs):
    for name, (wl, res) in smoke_outputs.items():
        outcome = wl.check(res)
        assert len(outcome.checks) == wl.outputs(), name
        assert all(outcome.checks), name


def _allowed_error(name: str, res: dict, index: int) -> float:
    """The error the check grants one coefficient: its tail, plus the
    propagated tail of the normalising coefficient where there is one."""
    if name == "eisenstein-cli":
        return res["tails"][index]
    if name == "cusp-periods":
        tau = oracles.ramanujan_tau(index)[index]
        return res["tails"][index] + abs(tau) * res["tails"][1]
    ref = oracles.eta2_e4(index)[index]
    return res["shadow_tails"][index] + abs(ref) * res["shadow_tails"][0]


@pytest.mark.parametrize("name,key,index", [
    ("eisenstein-cli", "values", 2),
    ("cusp-periods", "values", 7),
    ("eta-grid", "shadow", 2),
])
def test_coefficient_moved_by_twice_its_tail_fails(smoke_outputs, name, key, index):
    wl, res = smoke_outputs[name]
    moved = res[key][index] + 2 * _allowed_error(name, res, index)
    outcome = wl.check(_perturbed(res, key, index, moved))
    assert outcome.checks.count(False) == 1


def test_lvalue_just_above_bound_fails(smoke_outputs):
    wl, res = smoke_outputs["cusp-periods"]
    ref = res["lintegral"][4]
    bad = _perturbed(res, "lseries", 4, ref * (1 + 1.01 * oracles.LVALUE_REL_BOUND))
    assert wl.check(bad).checks.count(False) == 1


def test_period_polynomial_just_above_bound_fails(smoke_outputs):
    wl, res = smoke_outputs["cusp-periods"]
    scale = max(abs(v) for v in res["rh"])
    bad = _perturbed(res, "rn", 1, res["rh"][1] + 1.01 * oracles.PERIOD_REL_BOUND * scale)
    assert wl.check(bad).checks == [True] * (wl.outputs() - 1) + [False]


def test_duality_residual_just_above_bound_fails(smoke_outputs):
    wl, res = smoke_outputs["eta-grid"]
    bad = _perturbed(res, "residual", None, 1.01 * wl.bounds["duality"])
    assert wl.check(bad).checks[0] is False
    assert not oracles.check_residual(1.01 * oracles.DUALITY_RESIDUAL_BOUND,
                                      oracles.DUALITY_RESIDUAL_BOUND)


def test_unconverged_holomorphic_entry_fails(smoke_outputs):
    wl, res = smoke_outputs["eta-grid"]
    key = sorted(res["holo_tails"])[-1]
    bad = _perturbed(res, "holo_tails", key, 2 * res["tail_tol"])
    assert wl.check(bad).checks.count(False) == 1


def test_cli_failure_fails_every_output(smoke_outputs):
    wl, _res = smoke_outputs["eisenstein-cli"]
    outcome = wl.check({"values": {}, "tails": {}})
    assert outcome.checks == [False] * wl.outputs()


def test_oracles_match_known_values():
    assert [oracles.ramanujan_tau(6)[l] for l in range(1, 7)] == \
        [1, -24, 252, -1472, 4830, -6048]
    assert oracles.sigma(3, 6) == 1 + 8 + 27 + 216
    # eta^2 E_4 = q^(1/12) (1 - 2q - q^2 + ...)(1 + 240 q + 2160 q^2 + ...)
    assert [oracles.eta2_e4(2)[m] for m in range(3)] == [1, 238, 1679]


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer("t")
    tracer.spans[:] = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("a", 5.0, 7.0, 0)]
    s = tracer.summary()
    assert s["a.calls"] == 2 and s["b.calls"] == 1
    assert s["a.self_s"] == pytest.approx(5.0 + 2.0)
    assert s["b.self_s"] == pytest.approx(3.0)
    assert s["a.total_s"] == pytest.approx(10.0)  # the nested a is inside the outer one


def test_speed_probe_samples_during_work():
    with child.SpeedProbe() as probe:
        end = run.time.perf_counter() + 0.3
        while run.time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert probe.speed() > 0
    assert child.SpeedProbe().speed() == 1.0


def _child(spec: dict) -> dict:
    return run.spawn(spec, deadline=run.time.monotonic() + 120)


def test_traced_runs_repeat_counts_and_keep_values(tmp_path):
    base = {"workload": "eta-grid", "seed": 5, "smoke": True, "scratch": str(tmp_path),
            "run_id": "test", "trace_path": ""}
    plain = _child(base)
    traced = [_child(dict(base, trace_path=str(tmp_path / f"spans{i}.jsonl")))
              for i in range(2)]
    assert all(t["checksum"] == plain["checksum"] for t in traced)
    assert plain["solve_s"] == pytest.approx(plain["solve_wall_s"] * plain["speed"])
    counts = [{k: v for k, v in t["layers"].items() if k.endswith(run.COUNT_SUFFIXES)}
              for t in traced]
    assert counts[0] == counts[1]
    assert counts[0]["automorphy.dedekind_sum.calls"] > 0
    lines = (tmp_path / "spans0.jsonl").read_text().splitlines()
    assert len(lines) == sum(v for k, v in traced[0]["layers"].items() if k.endswith(".calls"))
    assert set(json.loads(lines[0])) == {"run", "id", "name", "start", "end", "parent"}


def test_tracer_patches_from_imports(tmp_path):
    spec = {"workload": "eisenstein-cli", "seed": 0, "smoke": True,
            "scratch": str(tmp_path), "run_id": "test",
            "trace_path": str(tmp_path / "spans.jsonl")}
    layers = _child(spec)["layers"]
    # poincare.py calls units_mod through its own `from .groups import` binding
    assert layers["groups.units_mod.calls"] == 3 * layers["groups.units_mod.distinct_c"]
    assert layers["groups.box_elements"] > 0
    assert layers["cli.main.calls"] == 1


def _smoke_run(*extra) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                           "--workload", "all", "--seed", "2", "--seconds", "0",
                           "--smoke", *extra],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_reports_every_metric():
    untraced = _smoke_run("--trace", "0")
    traced = _smoke_run("--trace", "1")
    for res in (untraced, traced):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    for name in workloads.WORKLOADS:
        for metric, unit in run.END_TO_END.items():
            assert untraced["metrics"][f"{name}.{metric}"]["unit"] == unit
        for metric, spec in run.LAYER_MAP["per_layer"].items():
            assert traced["metrics"][f"{name}.{metric}"]["unit"] == spec["unit"]


def test_benchmark_json_matches_layer_map():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == run.LAYER_MAP["workloads"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in run.LAYER_MAP["per_layer"].items()}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "eta-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
