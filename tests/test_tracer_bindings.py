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


def install_tracer(monkeypatch):
    """A tracer installed on polarlink's modules, as the benchmark's traced
    pass installs it, and its traced run_compute and canonical_json.  Each
    rebound name is set through monkeypatch first, so that the names
    install() rebinds are restored after the test."""
    tracer_module = load_tracer()
    modules = {
        name: importlib.import_module(f"polarlink.{name}")
        for name in ("ideals", "link", "oracle", "parse", "polar", "report")
    }
    for module, name, _ in tracer_module._BINDINGS:
        monkeypatch.setattr(modules[module], name, getattr(modules[module], name))
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    return tracer, tracer.entry_points


def test_a_traced_request_counts_one_round_per_saturation_exponent(monkeypatch):
    # x*y in (x, y, z) has s = 1, so every frame saturates its first polar
    # ideal: 5 frames, and one witness ideal for k = 2.  Each frame counts
    # the colength of that ideal's cut, and the gate and the cuts build 6
    # local standard bases in all.
    saturations = record_calls(monkeypatch, importlib.import_module("polarlink.polar"), "saturate")
    tracer, (run_compute, canonical_json) = install_tracer(monkeypatch)
    tracer.start_request(0)
    doc, code = run_compute(RunConfig("x*y", ("x", "y", "z"), seed=0))
    canonical_json(doc)
    calls = tracer.summary()["calls"]
    assert code == 0
    assert calls["report.run_compute"] == calls["report.canonical_json"] == 1
    assert calls["ideals.saturate"] == len(saturations) > 0
    assert calls["polar.polar_ideal"] == 6
    assert calls["ideals.local_colength"] == 5
    assert calls["ideals.mora_standard_basis"] == 6
    assert tracer.counters["ideals.saturate.rounds"] == sum(e + 1 for _, (_, e) in saturations)


def test_a_traced_isolated_request_shows_its_teissier_meet(monkeypatch):
    # x^2+y^3+z^3 has s = 0, so the report checks Teissier's identity, and
    # the check counts its meet with ideals.local_colength.
    tracer, (run_compute, _) = install_tracer(monkeypatch)
    tracer.start_request(0)
    _, code = run_compute(RunConfig("x^2+y^3+z^3", ("x", "y", "z"), seed=0))
    spans = tracer.spans
    meets = [
        s for s in spans if s[0] == "ideals.local_colength" and s[3] >= 0 and spans[s[3]][0] == "oracle.teissier_check"
    ]
    assert code == 0
    assert len(meets) == tracer.summary()["calls"]["oracle.teissier_check"] == 1
