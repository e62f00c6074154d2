"""The benchmark harness looks up its trace targets by name, so a rename
or deletion in attninv would only surface as a failed traced bench run."""
import importlib.util
import sys
from pathlib import Path

import attninv

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_bench_trace_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    assert run.TRACE_TARGETS
    missing = [(module, fn) for module, fn, _ in run.TRACE_TARGETS
               if not callable(getattr(getattr(attninv, module, None), fn, None))]
    assert not missing, missing
