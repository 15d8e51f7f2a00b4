"""Names that code outside the package looks up at run time: everything in
procure.__all__, and every function the benchmark's tracer wraps
(perfbench/tracer.py, imported read-only). A missing one would otherwise
show only when the benchmark runs."""
import importlib
import inspect
from pathlib import Path

import procure
from procure import mechanism

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_exported_and_traced_names_resolve(monkeypatch):
    missing = [name for name in procure.__all__ if not hasattr(procure, name)]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    targets = [(module, attr) for module, attr, *_ in tracer.TARGETS]
    targets.append(("procure.scenario", "make_model"))
    missing += [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing
    # the tracer reads the admissible subset from solve's keyword arguments
    assert "admissible" in inspect.signature(mechanism.solve).parameters
