"""Every function the benchmark's span tracer wraps still exists.

`benchmarks/spans.py` calls getattr on each name in its TRACED table, so a
deleted or renamed function crashes every traced benchmark run.  The file is
loaded by path and only read; nothing is installed or patched.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("_mgrid_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_names_resolve():
    missing = [f"{module}.{name}"
               for module, names in _traced_table().items()
               for name in names
               if not callable(getattr(importlib.import_module("mgrid." + module),
                                       name, None))]
    assert missing == []
