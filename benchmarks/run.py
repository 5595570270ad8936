"""mgrid benchmark: cold-process runs of three certified workloads.

    python3 benchmarks/run.py --workload eisenstein-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(benchmarks/child.py) with BLAS/OpenMP threads pinned to 1, started only
after the previous one ended: mgrid keeps process-global caches, so a warm
in-process repetition would time cache hits instead of the work.
Repetitions start until --seconds have passed (at least one).

--trace 0 reports the end-to-end metrics, medians over repetitions:
solve_s (compute plus checks, in seconds at a fixed reference speed; see
child.py), setup_s (wall seconds from spawn until the inputs are built) and
peak_rss_mb.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of layer_map.json (times in wall seconds of
the traced repetitions) plus the tracing overhead.  --workload
all runs every workload in turn.  --smoke runs reduced sizes for the
benchmark's own tests; its numbers are not benchmark results.

Every output is checked against an independent oracle; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics.  A record with every sample, the environment and the values
checksum goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_SUFFIXES = (".calls", ".distinct_c", ".box_elements", ".mp_calls", ".terms")
# Stay inside the 180 s a run may take, whatever --seconds asks for.
RUN_DEADLINE_S = 170
SINGLE_THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed output)."""


def quartiles(xs: list) -> dict:
    xs = sorted(xs)
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.machine(),
            "loadavg_before": os.getloadavg()[0]}


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion; returns its result plus set-up time."""
    env = dict(os.environ, **SINGLE_THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"repetition exceeded the {RUN_DEADLINE_S} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start
    if result["error"]:
        sys.stderr.write(result["error"])
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    out_dir = ROOT / ".bench_out"
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = environment()
    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    children = []
    while True:
        traced = trace and len(children) % 2 == 1
        spec = {"workload": name, "seed": seed, "smoke": smoke, "scratch": str(scratch),
                "run_id": f"{name}-seed{seed}-{len(children)}",
                "trace_path": str(out_dir / f"spans-{name}.jsonl") if traced else ""}
        result = spawn(spec, deadline)
        result["traced"] = traced
        children.append(result)
        enough = not trace or len(children) >= 2
        if enough and time.monotonic() - begin >= seconds:
            break
    env.update(children[0]["env"], loadavg_after=os.getloadavg()[0])
    return summarize(name, seed, trace, smoke, env, children)


def summarize(name, seed, trace, smoke, env, children) -> dict:
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    stats = {m: quartiles([c[m] for c in plain]) for m in END_TO_END}
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke, "env": env,
        "attempted": sum(len(c["checks"]) for c in children),
        "failed": sum(c["checks"].count(False) for c in children),
        "checksum": plain[0]["checksum"],
        "checksums_agree": len({c["checksum"] for c in children}) == 1,
        "stats": stats,
        "solve_wall_s": quartiles([c["solve_wall_s"] for c in plain]),
        "children": [{k: c[k] for k in ("traced", "setup_s", "solve_s", "solve_wall_s",
                                         "speed", "peak_rss_mb", "checksum", "error")}
                     for c in children],
    }
    if trace:
        layers = [c["layers"] for c in traced]
        record["counts_repeat"] = all(
            {k: v for k, v in layer.items() if k.endswith(COUNT_SUFFIXES)}
            == {k: v for k, v in layers[0].items() if k.endswith(COUNT_SUFFIXES)}
            for layer in layers)
        per_layer = {}
        for metric in LAYER_MAP["per_layer"]:
            vals = [layer.get(metric, 0) for layer in layers]
            per_layer[metric] = vals[0] if metric.endswith(COUNT_SUFFIXES) else \
                statistics.median(vals)
        per_layer["trace.overhead_s"] = (statistics.median(c["solve_s"] for c in traced)
                                         - stats["solve_s"]["median"])
        record["layers"] = per_layer
        metrics = {m: {"value": per_layer[m], "unit": LAYER_MAP["per_layer"][m]["unit"]}
                   for m in LAYER_MAP["per_layer"]}
    else:
        metrics = {m: {"value": stats[m]["median"], "unit": u} for m, u in END_TO_END.items()}
    # Traced and untraced repetitions must compute the same values.
    record["correct"] = record["failed"] == 0 and record["checksums_agree"]
    record["metrics"] = metrics
    return record


def report(rec: dict) -> None:
    env = rec["env"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
          f"{'  SMOKE (not a result)' if rec['smoke'] else ''}"
          f"  repetitions {len(rec['children'])}")
    for m, unit in END_TO_END.items():
        s = rec["stats"][m]
        print(f"  {m:<12} median {s['median']:.4f} {unit}  (q1 {s['q1']:.4f}, "
              f"q3 {s['q3']:.4f}, n={s['n']})")
    s = rec["solve_wall_s"]
    print(f"  {'(wall)':<12} median {s['median']:.4f} s  (q1 {s['q1']:.4f}, q3 {s['q3']:.4f};"
          f" solve_s is this rescaled to the reference speed)")
    print(f"  failed {rec['failed']} of {rec['attempted']} checked outputs")
    print(f"  values checksum {rec['checksum'][:16]}  "
          f"(all repetitions agree: {rec['checksums_agree']})")
    if rec["trace"]:
        print(f"  per-layer (traced; counts repeat exactly: {rec['counts_repeat']})")
        for m, v in rec["layers"].items():
            hint = LAYER_MAP["per_layer"][m]
            moved = ", ".join(hint["on"])
            print(f"    {m:<42} {v:>14.6g} {hint['unit']:<5}  -> {hint['moves']} on {moved}")
    print(f"  env python {env['python']}, numpy {env['numpy']}, mpmath {env['mpmath']}"
          f" ({env['mpmath_backend']} backend), nproc {env['nproc']}, {env['cpu_model']},"
          f" loadavg {env['loadavg_before']:.2f} -> {env['loadavg_after']:.2f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mgrid" / "__init__.py").is_file():
        print(f"run.py: no mgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.smoke))
            report(records[-1])
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        if not rec["smoke"]:
            path = ROOT / ".bench_out" / (f"{rec['workload']}-seed{rec['seed']}"
                                          f"-trace{rec['trace']}.json")
            path.write_text(json.dumps(rec, indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    result = {"correct": all(r["correct"] for r in records),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
