"""The benchmark's tracer rebinds names that polarlink's modules import.

perfbench/tracer.py lists them in _BINDINGS as (module, name, span).  A
refactor that drops one of those imports would otherwise break only the
traced benchmark run, so each pair is checked to resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._BINDINGS
    missing = [
        f"polarlink.{module}.{name}"
        for module, name, _ in tracer._BINDINGS
        if not hasattr(importlib.import_module(f"polarlink.{module}"), name)
    ]
    assert missing == []
