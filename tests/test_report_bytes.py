"""Report bytes pinned across changes that must not alter a report.

The benchmark's requests (perfbench/workloads.py, loaded by path as the
tracer test loads the tracer) and a few slow inputs outside them keep the
SHA-256 of their canonical JSON and their exit code.  A change of how the
engine computes must leave every one of them as it is; a change that is
meant to alter reports updates the digests on purpose.  The same inputs,
typed in a dense frame, keep the invariants a report prints: a linear
change of coordinates changes none of them.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from helpers import time_limit
from polarlink.cli import main
from polarlink.parse import parse_polynomial
from polarlink.polar import check_excluded, gamma_profile, sample_frames
from polarlink.report import RunConfig, canonical_json, run_compute

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"

# Every distinct request of the three workloads at workload seeds 1 and 2,
# keyed as perfbench keys its digests: json.dumps(Request.key()).
WORKLOAD_DIGESTS = HERE / "workload_digests.json"
WORKLOAD_SEEDS = (1, 2)

V4 = ("x", "y", "z", "w")

# Four-variable inputs that took up to 1.8 s a report while polar ideals
# were saturated in the frame's coordinates, at frame seed 0.
FOUR_VARIABLE_SHA256 = {
    "x^4+y^4+z^4+w^4": ("42266d6fc5fbbd96c15b0226df67ca29ca6c2a0605aff14252fcf43d684b6fcd", 0),
    "x^2*y^2+z^2*w": ("d9ffc1f300b66765eca5d8e0499c458d4a596dd6803dc4bcf91b62389441d282", 0),
    "x*y*z*(x+y+z+w)": ("0db6911831fd4205ba6bd6819392ff37e62aa0710f89bd3161ff5d660fe4ed0b", 0),
    "x^2+y^3+z^5+w^2": ("03c2167516ecb7df41255bbc434f656a9060e72b1b88861b989df56495238927", 0),
    "x^3+y^3+z^3+w^3": ("e61943af9fdfd38e126327913ce73c3fc5620e577e1b6102ca7cafbd5b7d1b6b", 0),
}


# The isolated surfaces that stalled the Teissier check (one of them is
# drawn into each isolated run), at workloads.ISOLATED_FRAME_SEED = 0.
HARD_SURFACE_SHA256 = {
    "x^2*y+y^4+z^2": ("c5e0a49d55569eaecc431160083b63de81c94ab7c0f3054503f88c0f08f808c5", 0),
    "x^2*y+y^5+z^2": ("158e483fc1f95d2c4c2fd561907050c8984c5b256ba17919ac7d78e3be7a7110", 0),
    "x^3+y^4+z^2": ("f2a564798fae5350ba1e57ad10a1060c6cc692b49bf17922ff2b409afce4f78c", 0),
    "x^3+x*y^3+z^2": ("67afd4b3bcabac9f34c579b67263f160145a621eda234a07cc08748d20949886", 0),
    "x^3+y^5+z^2": ("77972b32a6cff0f66f74f7fb6934323505f6d6eba12ec4cf1767d3cd7889a557", 0),
    "x^2+y^4+z^4": ("ba2e45c8511a1e193b0b1c4bd51ca95c9a387ee90ecb1c86425f3b722ca6c0e0", 0),
    "x^2+y^4+z^5": ("931643b2f111b508a15faca094e29bd79c5148bd9f1d7483d789359d28fec701", 0),
    "x^3+y^4+z^4": ("e14568f6a74463dc3bad2effb5eadb341d81c6ead1dd7575b1380c177f35a826", 0),
}


# CLI output that no workload digest covers: the text rendering of the
# n = 1 sequence and of the feasibility checks (among them the check that
# the component count forces s), and the stdout of the Teissier oracle,
# whose json.dumps keeps the key order it is given.
CLI_SHA256 = {
    ("compute", "--poly", "x^2+y^3", "--vars", "x,y", "--betti", "0,1", "--components", "1", "--text"): (
        "4f2814150100aa2b5f0408415cbdf026cf7d14f641467219295061b5420f1041",
        0,
    ),
    ("compute", "--poly", "x*y*z", "--vars", "x,y,z", "--seed", "3", "--betti", "0,1,3,3", "--text"): (
        "cfd4626f7aa7bd1ca93a4e45fffd50565c5ff6aa7e2df3b6a858d1c2cd760c8a",
        2,
    ),
    ("compute", "--poly", "x*y*(x+y)", "--vars", "x,y", "--components", "3", "--text"): (
        "8aa54135bf417749cb8d93a346a261c1d38943197191c8dd7848e9156cdc0379",
        0,
    ),
    ("oracle", "teissier", "--poly", "x^2*y+y^4+z^2", "--vars", "x,y,z", "--frames", "2"): (
        "a442e48ccf98346d6d0208a537aea2dabdf9ad504c4081a9cf9c98b8eaa3f9d3",
        0,
    ),
}


def load_workloads(monkeypatch):
    """perfbench/workloads.py as a module; it is registered while the test
    runs, as its dataclass needs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def digest(cfg):
    doc, code = run_compute(cfg)
    return [hashlib.sha256(canonical_json(doc).encode()).hexdigest(), code]


def test_every_workload_request_keeps_its_report_bytes(monkeypatch):
    workloads = load_workloads(monkeypatch)
    requests = {}
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for req in workloads.build(name, seed):
                requests.setdefault(json.dumps(req.key()), req)
    expected = json.loads(WORKLOAD_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(requests) == sorted(expected)
    for key, req in requests.items():
        cfg = RunConfig(
            poly_text=req.poly,
            varnames=req.varnames,
            trials=req.trials,
            seed=req.seed,
            bound=req.bound,
            betti=req.betti,
            components=req.components,
        )
        assert digest(cfg) == expected[key], key


def test_every_hard_surface_keeps_its_report_bytes(monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert sorted(workloads.HARD_SURFACES) == sorted(HARD_SURFACE_SHA256)
    for text in workloads.HARD_SURFACES:
        cfg = RunConfig(text, workloads.V3, seed=workloads.ISOLATED_FRAME_SEED)
        assert tuple(digest(cfg)) == HARD_SURFACE_SHA256[text], text


@pytest.mark.parametrize("text", FOUR_VARIABLE_SHA256)
def test_four_variable_inputs_keep_their_report_bytes(text):
    assert tuple(digest(RunConfig(text, V4, seed=0))) == FOUR_VARIABLE_SHA256[text]


def test_five_coordinate_hyperplanes_finish_with_every_oracle_passing():
    # Saturated in the frame's coordinates, where x*y*z*w*v is a dense
    # quintic, this report ran for more than 1000 s.
    with time_limit(30):
        doc, code = run_compute(RunConfig("x*y*z*w*v", ("x", "y", "z", "w", "v"), seed=0))
    assert code == 0
    assert doc["gamma"] == [0, 1, 4, 6, 4, 1]
    assert doc["oracles"]["all_passed"] is True
    assert all(v["passed"] for v in doc["oracles"]["verdicts"])


@pytest.mark.parametrize("argv", CLI_SHA256, ids=" ".join)
def test_cli_output_keeps_its_bytes(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == CLI_SHA256[argv]


# Its profile is stable in both forms, but as typed a frame whose planes are
# not prepolar wins the minimum with a wrong gamma^2 = 2; the dense form
# reads 3 (ROADMAP item 10).
NOT_PREPOLAR = "x*y*z*(x+y+z+w)"


def invariants(f):
    """(mu, s, mult) from the gate, and gamma at frame seed 0 where the
    profile is stable (None where it is not)."""
    mu, s = check_excluded(f)
    profile = gamma_profile(f, s, seed=0)
    return (mu, s, f.order_of_vanishing()), profile.gamma if profile.stable else None


def assert_coordinate_invariant(text, varnames):
    f = parse_polynomial(text, varnames)
    dense = sample_frames(len(varnames), 1, 99)[0].restrict(f, 0)
    (gate, gamma), (dense_gate, dense_gamma) = invariants(f), invariants(dense)
    assert gate == dense_gate, text
    if gamma is not None and dense_gamma is not None:
        assert gamma == dense_gamma, text


def test_the_gate_and_a_stable_gamma_do_not_depend_on_coordinates(monkeypatch):
    workloads = load_workloads(monkeypatch)
    inputs = dict.fromkeys(
        [(req.poly, req.varnames) for name in workloads.WORKLOADS for req in workloads.build(name, 1)]
        + [(text, workloads.V3) for text in workloads.HARD_SURFACES]
        + [(text, V4) for text in FOUR_VARIABLE_SHA256]
    )
    checked = [key for key in inputs if key[0] != NOT_PREPOLAR]
    assert len(checked) == 53
    with time_limit(30):
        for text, varnames in checked:
            assert_coordinate_invariant(text, varnames)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10: a frame that is not prepolar")
def test_a_frame_that_is_not_prepolar_changes_a_stable_gamma():
    with time_limit(10):
        assert_coordinate_invariant(NOT_PREPOLAR, V4)
