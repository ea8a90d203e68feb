"""The benchmark's tracer rebinds names that polarlink's modules import.

perfbench/tracer.py lists them in _BINDINGS as (module, name, span).  A
refactor that drops one of those imports would otherwise break only the
traced benchmark run, so each pair is checked to resolve here, and one
request is run traced, as the benchmark's traced pass runs it.
"""

import importlib
import importlib.util
from pathlib import Path

from helpers import record_calls
from polarlink.report import RunConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_resolves():
    tracer = load_tracer()
    assert tracer._BINDINGS
    missing = [
        f"polarlink.{module}.{name}"
        for module, name, _ in tracer._BINDINGS
        if not hasattr(importlib.import_module(f"polarlink.{module}"), name)
    ]
    assert missing == []


def test_a_traced_request_counts_one_round_per_saturation_exponent(monkeypatch):
    # x*y in (x, y, z) has s = 1, so every frame saturates its first polar
    # ideal.  Each rebound name is set through monkeypatch first, so that
    # the names install() rebinds are restored after this test.
    tracer_module = load_tracer()
    modules = {
        name: importlib.import_module(f"polarlink.{name}")
        for name in ("ideals", "link", "oracle", "parse", "polar", "report")
    }
    for module, name, _ in tracer_module._BINDINGS:
        monkeypatch.setattr(modules[module], name, getattr(modules[module], name))
    saturations = record_calls(monkeypatch, modules["polar"], "saturate")
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    run_compute, canonical_json = tracer.entry_points
    tracer.start_request(0)
    doc, code = run_compute(RunConfig("x*y", ("x", "y", "z"), seed=0))
    canonical_json(doc)
    calls = tracer.summary()["calls"]
    assert code == 0
    assert calls["report.run_compute"] == calls["report.canonical_json"] == 1
    assert calls["ideals.saturate"] == len(saturations) > 0
    assert tracer.counters["ideals.saturate.rounds"] == sum(e + 1 for _, (_, e) in saturations)
