"""Span tracing of mgrid's public functions, applied from outside the library.

`install` wraps each traced function in every mgrid module namespace that
binds it.  `from .x import y` copies a function into the importing module,
so patching only the defining module would miss, for example,
`mgrid.poincare.units_mod`; function-local imports resolve at call time
from the defining module, which is patched too.  Spans stay in memory as
(name, start, end, parent) and are written out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; a name's total time counts only its outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Module -> public functions wrapped as "<module>.<function>" spans.  These
# are the modules' __all__ functions plus groups.cplus_arrays, the box
# accessor every layer uses.  Left out: the per-element helpers
# automorphy.frac and precision.{exp2pi, mpc_from, ensure_finite}, which
# would add more span overhead than the work they do; their time stays in
# the caller's self time.
TRACED = {
    "specialfn": ("bessel_j", "bessel_i", "gamma_upper", "h_function"),
    "groups": ("sl2z", "gamma0", "units_mod", "cplus_arrays", "enumerate_cplus",
               "moebius", "generators"),
    "automorphy": ("dedekind_sum", "chi_eval", "kappa_vector", "conjugate", "n_prime"),
    "poincare": ("kloosterman_layer", "layer_bits_for", "poincare_coefficient",
                 "poincare_series", "constant_term_cf", "coefficient_envelope"),
    "precision": ("compensated_sum",),
    "lfun": ("lvalue_series", "lvalue_integral", "petersson_poincare", "fit_pairing",
             "predict_gram", "period_feature_vector"),
    "quadrature": ("vertical_poly_integral", "regularized_moment",
                   "eval_component_grid"),
    "eichler": ("c_weight", "eichler_E", "eichler_EH", "eichler_EN", "supplementary",
                "period_r", "period_r_parabolic", "period_rH", "period_r_quadrature",
                "period_rN", "slash_poly_value", "check_supplementary_identity"),
    "gridforms": ("build_pair", "build_f", "build_G", "verify_duality", "apply_Dk1",
                  "apply_xi", "check_main2_symmetry"),
    "cli": ("main",),
}

# Every Multiplier subclass's phase method records under this one name.
PHASE_SPAN = "automorphy.phase"


class Tracer:
    """In-memory span recorder plus the exact counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # index -> (name, start, end, parent index or -1)
        self._stack: list = []
        self.counts: dict = defaultdict(int)
        self.distinct_c: set = set()

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # counters recorded at the layer boundaries -------------------------

    def _count_units(self, args, kwargs, result):
        self.distinct_c.add(args[0] if args else kwargs["c"])
        self.counts["groups.box_elements"] += len(result)

    def _count_box(self, args, kwargs, result):
        self.counts["groups.box_elements"] += len(result[0])

    def _count_layer(self, args, kwargs, result):
        bits = args[6] if len(args) > 6 else kwargs.get("bits", 53)
        if bits > 53:
            self.counts["poincare.kloosterman_layer.mp_calls"] += 1

    def _count_terms(self, args, kwargs, result):
        # every caller in mgrid passes a list
        self.counts["precision.compensated_sum.terms"] += len(args[0] if args
                                                              else kwargs["terms"])

    def summary(self) -> dict:
        """calls, self_s and total_s per span name, plus the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + dur
        out.update(self.counts)
        out["groups.units_mod.distinct_c"] = len(self.distinct_c)
        return out

    def write(self, path: str):
        """One JSON line per span: run id, name, start, end, parent."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def _rebind(old, new):
    """Point every mgrid module attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mgrid" or mod_name.startswith("mgrid.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(run_id: str) -> Tracer:
    """Wrap every traced function and phase method; returns the recorder."""
    tracer = Tracer(run_id)
    counters = {
        "groups.units_mod": tracer._count_units,
        "groups.cplus_arrays": tracer._count_box,
        "poincare.kloosterman_layer": tracer._count_layer,
        "precision.compensated_sum": tracer._count_terms,
    }
    for module, names in TRACED.items():
        mod = importlib.import_module("mgrid." + module)
        for fname in names:
            span = f"{module}.{fname}"
            orig = getattr(mod, fname)
            _rebind(orig, tracer.wrap(span, orig, counters.get(span)))
    stack = [importlib.import_module("mgrid.automorphy").Multiplier]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "phase" in vars(cls):
            cls.phase = tracer.wrap(PHASE_SPAN, vars(cls)["phase"])
    return tracer
