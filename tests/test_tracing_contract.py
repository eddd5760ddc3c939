"""Every name the benchmark's tracer wraps still exists in cclab.

The tracer (perfbench/tracer.py) replaces functions, generators and
methods by name; a name that is gone breaks a traced benchmark run while
the rest of the suite stays green.  The tracer module is only read here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_cclab(monkeypatch):
    tracer = _tracer(monkeypatch)
    missing = []
    for mod, attr in [*tracer.FUNCTIONS, *tracer.GENERATORS]:
        if not callable(getattr(importlib.import_module(f"cclab.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"cclab.{mod}"), cls_name, None)
        if not (inspect.isclass(cls) and callable(getattr(cls, method, None))):
            missing.append(f"{mod}.{cls_name}.{method}")
    assert tracer.FUNCTIONS and tracer.GENERATORS and tracer.METHODS
    assert missing == []
