"""One cold repetition of one workload, in a fresh interpreter.

Invoked by run.py as `python child.py '<json spec>'` with the checkout's
src/ on PYTHONPATH.  Prints one JSON line: the monotonic time at which set-up
ended, the solve time, the peak RSS, the pass flag of every checked output,
the values checksum, and with tracing on, the per-layer summary.  The
parent measures set-up from its own monotonic clock at spawn, which is
shared across processes on Linux.

The solve time is reported twice.  `solve_wall_s` is the wall time.
`solve_s` is that wall time rescaled to a fixed reference speed: on a shared
host, neighbours change this process's single-thread speed by up to 2x
within seconds, which moves wall time between runs far more than any
regression worth catching.  A SIGALRM handler times a fixed pure-Python
probe loop PROBE_HZ times a second during the solve; the mean of
REF_PROBE_S / probe_time is the share of reference speed the solve ran at.
The probe shares no code with mgrid, so a change to mgrid moves solve_s as
it moves wall time at a fixed machine speed.  Contention slows the probe
and the workloads by similar but not equal factors, so the rescaling
removes most of the host noise, not all of it.
"""

import hashlib
import json
import resource
import signal
import sys
import time
import traceback

import workloads

PROBE_HZ = 20
# Probe duration at the reference speed: the probe's duration on the 2-vCPU
# Xeon VM of the first baseline when no neighbour slowed it, so solve_s
# reads as uncontended wall seconds there.
REF_PROBE_S = 1.25e-4


def _probe_loop():
    x, d = 1, {}
    for i in range(400):
        x = (x * 0x5DEECE66D + i) % (1 << 89)
        d[i & 63] = x


class SpeedProbe:
    """Samples the probe loop's duration on a wall-clock timer."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1 / PROBE_HZ, 1 / PROBE_HZ)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Mean speed relative to the reference (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return sum(REF_PROBE_S / t for t in self.samples) / len(self.samples)


def checksum(values) -> str:
    """sha256 over the hex form of every output value and tail."""
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


def main(spec: dict) -> dict:
    wl = workloads.make(spec["workload"], spec["smoke"], spec["scratch"])
    state = wl.setup(spec["seed"])
    ready = time.monotonic()
    tracer = None
    if spec["trace_path"]:
        import spans

        tracer = spans.install(spec["run_id"])
    error = None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            outcome = wl.solve(state)
        except Exception:  # every output of the run counts as failed
            error = traceback.format_exc()
            outcome = workloads.Outcome(checks=[False] * wl.outputs())
        solve_wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "ready": ready,
        "solve_s": solve_wall_s * probe.speed(),
        "solve_wall_s": solve_wall_s,
        "speed": probe.speed(),
        "peak_rss_mb": peak_rss_mb,
        "checks": outcome.checks,
        "checksum": checksum(outcome.values),
        "error": error,
        "env": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(spec["trace_path"])
    return result


def _versions() -> dict:
    import mpmath
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
