"""Acceptance gate.

One test function per criterion, so `pytest -v` prints one pass/fail
line for each.  Every comparison here is exact (integers, byte strings);
there are no tolerances to tune.
"""

import hashlib
import json

import pytest

from helpers import gated_profile
from polarlink.cli import main
from polarlink.ideals import Ideal
from polarlink.oracle import bezout_gamma, teissier_check
from polarlink.parse import parse_polynomial
from polarlink.polar import check_excluded, milnor_number, polar_ideal, sample_frames
from polarlink.report import (
    RunConfig,
    bundled_corpus_path,
    canonical_json,
    run_compute,
    run_corpus,
)


def load_corpus():
    with open(bundled_corpus_path(), "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def corpus_entries():
    return load_corpus()


@pytest.fixture(scope="module")
def corpus_reports():
    summary, reports, code = run_corpus(bundled_corpus_path())
    assert code == 0, summary
    return reports


# SHA-256 of canonical_json for each bundled corpus report.  Reports are a
# function of the input alone, so a change of the engine's internal
# representation must leave every one of them byte-identical; a change that
# is meant to alter reports updates these digests on purpose.
CORPUS_REPORT_SHA256 = {
    "two-lines": "4652b254fe317571123eaa505e12ac904c615b9b02d0b24ea2e16f7b348fa970",
    "cusp": "e5d636866a3801a783f0dcf017e6b1ad3c40f702070b5f9152c22bec65378f9d",
    "three-lines": "8d931c191e264f2eb1979083afb7adb130131b634a4f430469454c721d1a3fdd",
    "three-real-lines": "415cfb234d1ec87e24a3335906a1be8baa530ff76666b37cc70f39c2a73fbd62",
    "conjugate-lines": "53c71ea571c2cc887e6eff61484cff448e12b9c03bebc5e39342cc1bc573789a",
    "two-lines-rotated": "4f6ab40cfa4fb8a17484331725c91c0ece3c50a51f3ca9e95cd16a5065fa6434",
    "whitney-umbrella": "b03e5f6160840573fd9642dd790deab0e63c3639e92ebf61a01a63e4f136261f",
    "a2-surface": "eb5a4639697b3391207393c209dddbef921e4abb2f178ffc745ad89bd78cc029",
    "a1-surface": "314f43fbe32daae2615f532fd438313f380d728acbb6b1e6c6fb33906b98d484",
    "three-planes": "8b8009f11a87d2976477cc24fa150d16e6ed708b9f4fb236e9645666b98ddcb3",
    "pinch-plus-square": "38d06357231d696325103b213e78ca7df9fb5db9e7bd627d8f930fdbf7256447",
    "fermat-cubic-surface": "545d09219190ca07060adf1ddd9c704c4889e28a3ea3fa2f0d72fbd8a87ee444",
    "fermat-quartic-surface": "92bec2f2d0eb15f6a49eb64af4e218b898477645036c3cdbbfc27d5bb7553ee3",
    "a1-threefold": "20b16972c23385a5d0297a1170e4b3e2eecb5128f60629f9bfc1acbb33100dd3",
}


def accepted_docs(reports):
    return [(name, doc) for name, doc, code in reports if "error" not in doc]


def test_criterion_1_fermat_family():
    cases = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4)]
    names = ("x", "y", "z", "w")
    for n, d in cases:
        varnames = names[: n + 1]
        poly = " + ".join(f"{v}^{d}" for v in varnames)
        profile = gated_profile(parse_polynomial(poly, varnames))
        assert profile.stable, (n, d)
        for k in range(n + 2):
            assert profile.gamma[k] == bezout_gamma(n, d, k), (n, d, k)


def test_criterion_2_identity_audit_on_corpus(corpus_entries, corpus_reports):
    required = [
        ("x*y", ("x", "y")),
        ("x^2 + y^3", ("x", "y")),
        ("x^3 + y^3", ("x", "y")),
        ("y^2 - x^2*z", ("x", "y", "z")),
        ("x^2 + y^2 + z^3", ("x", "y", "z")),
        ("x*y*z", ("x", "y", "z")),
        ("x^2*y + z^2", ("x", "y", "z")),
        ("(x + y)*(x - y)*x", ("x", "y")),
    ]
    assert len(corpus_entries) >= 10
    parsed = [
        parse_polynomial(e["poly"], tuple(e["vars"])) for e in corpus_entries
    ]
    for text, varnames in required:
        wanted = parse_polynomial(text, varnames)
        assert any(p == wanted for p in parsed), f"corpus lacks {text}"

    docs = accepted_docs(corpus_reports)
    assert docs
    for name, doc in docs:
        gamma = doc["gamma"]
        n = doc["n"]
        assert gamma[0] == 0, name
        assert gamma[n + 1] == 1, name
        assert gamma[n] == doc["mult"] - 1, name


def test_criterion_3_telescope_identities(corpus_reports):
    for name, doc in accepted_docs(corpus_reports):
        gamma = doc["gamma"]
        lam = doc["lambda"]
        n = doc["n"]
        for p in range(n + 1):
            bottom = sum((-1) ** k * lam[k] for k in range(p + 1))
            assert bottom == (-1) ** p * gamma[p + 1], (name, p)
            top = sum((-1) ** k * lam[n - k] for k in range(p + 1))
            assert top == 1 + (-1) ** p * gamma[n - p], (name, p)


def test_criterion_4_engine_matches_truncation_oracle(corpus_reports):
    seen = 0
    for name, doc in accepted_docs(corpus_reports):
        for v in doc["oracles"]["verdicts"]:
            if v["name"].startswith("colength_oracle"):
                seen += 1
                assert v["passed"], (name, v)
                assert v["expected"] == v["actual"], (name, v)
    assert seen >= 10


def test_criterion_5_teissier_on_isolated_members(corpus_entries):
    checked = 0
    for entry in corpus_entries:
        varnames = tuple(entry["vars"])
        f = parse_polynomial(entry["poly"], varnames)
        mu, s = check_excluded(f)
        if s != 0:
            continue
        passed_frames = []
        for frame in sample_frames(len(varnames), 60, seed=7):
            mu_slice = milnor_number(frame.restrict(f, 1))
            assert mu_slice is not None, (entry["name"], frame.matrix)
            v = teissier_check(polar_ideal(f, frame, 1), mu, mu_slice)
            assert v["passed"], (entry["name"], frame.matrix, v)
            passed_frames.append(frame.matrix)
            if len(passed_frames) == 3:
                break
        assert len(set(passed_frames)) == 3, entry["name"]
        checked += 1
    assert checked >= 5


def test_criterion_6_n1_exact_sequence_for_two_lines():
    doc, code = run_compute(RunConfig("x*y", ("x", "y"), betti=(1, 2)))
    assert code == 0
    assert doc["n1_exact_sequence"]["ranks"][1:3] == [1, 2]
    assert doc["feasibility"]["all_passed"] is True
    by_name = {c["name"]: c["passed"] for c in doc["feasibility"]["checks"]}
    assert by_name["difference_is_one"] is True

    doc, code = run_compute(RunConfig("x*y", ("x", "y"), betti=(2, 3)))
    assert code == 0
    by_name = {c["name"]: c["passed"] for c in doc["feasibility"]["checks"]}
    assert by_name["morse_family1_p0"] is False


def test_criterion_7_morse_rows_for_fermat_cubic():
    doc, code = run_compute(RunConfig("x^3+y^3+z^3", ("x", "y", "z")))
    assert code == 0
    assert doc["gamma"] == [0, 4, 2, 1]
    rows = {
        (b["family"], b["p"]): b for b in doc["morse_bounds"]
    }
    assert rows[(1, 0)]["terms"] == [[1, 1]]
    assert rows[(1, 0)]["rhs"] == 4
    assert rows[(2, 0)]["terms"] == [[1, 3]]
    assert rows[(2, 0)]["rhs"] == 3
    assert rows[(1, 1)]["terms"] == [[-1, 1], [1, 2]]
    assert rows[(1, 1)]["rhs"] == 2


def test_criterion_8_determinism_and_seed_stability(corpus_reports):
    _, again, code = run_corpus(bundled_corpus_path())
    assert code == 0
    for (name_a, doc_a, _), (name_b, doc_b, _) in zip(corpus_reports, again):
        assert name_a == name_b
        assert canonical_json(doc_a) == canonical_json(doc_b), name_a

    _, other_seed, code = run_corpus(bundled_corpus_path(), seed=1)
    assert code == 0
    for (name_a, doc_a, _), (name_b, doc_b, _) in zip(corpus_reports, other_seed):
        assert name_a == name_b
        if "error" in doc_a:
            assert doc_a["error"] == doc_b["error"]
            continue
        assert doc_a["stability"]["stable"] and doc_b["stability"]["stable"]
        assert doc_a["gamma"] == doc_b["gamma"], name_a


def test_criterion_9_excluded_cases(capsys):
    result_keys = {"gamma", "lambda", "mult", "s", "morse_bounds", "telescope"}
    reasons = []
    for poly in ("x^2 + y^2 + z^2 + 1", "x + y", "0"):
        code = main(["compute", "--poly", poly, "--vars", "x,y,z"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3, poly
        assert doc["error"]["kind"] == "excluded"
        assert not result_keys & set(doc), poly
        reasons.append(doc["error"]["reason"])
    assert reasons[0] == "f(0) != 0"
    assert len(set(reasons)) == 3


def test_corpus_report_bytes_are_pinned(corpus_reports):
    digests = {
        name: hashlib.sha256(canonical_json(doc).encode()).hexdigest()
        for name, doc, _ in corpus_reports
    }
    assert digests == CORPUS_REPORT_SHA256


# SHA-256 of canonical_json and the exit code of requests the corpus does
# not cover: unstable profiles (exit 2), among them the six-line curve with
# its Betti hypothesis, and rational coefficients.
SIX_LINES = "x*y*(x+y)*(x-y)*(x+2*y)*(2*x+y)"
EXTRA_REPORTS = (
    (
        RunConfig("x*y*z", ("x", "y", "z"), seed=3),
        "194942838c157e09ccd7ac5d4aeb5b69bfec7fcbd504caf172fed06405583433",
        2,
    ),
    (
        RunConfig("y^2-x^2*z", ("x", "y", "z"), seed=5),
        "b707adf4cecdbb866d332b0c58ebd3fed567a99c1e948481ed95b70d746f0180",
        2,
    ),
    (
        RunConfig("(x^2-y^2)*z", ("x", "y", "z"), seed=2),
        "094b9b624851547c540598fe115b28dec42a104fe01e8fdef7cb5c6b24fb0aae",
        2,
    ),
    (
        RunConfig("x*y*(x+y)*(x-y)", ("x", "y", "z"), seed=2),
        "119319f45d024f11966d9c6368859da6453ee2926d1232b3e0443b4e9191a118",
        0,
    ),
    (
        RunConfig(SIX_LINES, ("x", "y"), seed=56, betti=(5, 6), components=6),
        "4c522c0c634e9f133971d592a2cbd793e607193d18c349223d88ff6240ce9197",
        2,
    ),
    (
        RunConfig("1/2*x^2+3/4*y^3", ("x", "y")),
        "277eecf8b291bf1fc397e8514943ac2548f4cc36c6b9c5c0ec284762264f0939",
        0,
    ),
    (
        RunConfig("2/3*x^2-5/7*y^2+1/2*z^3", ("x", "y", "z")),
        "7ce7a22e92f7caa546996be7ec94d957c749273d6b8a3ed213acd4288ec469b7",
        0,
    ),
)


@pytest.mark.parametrize(
    "config, digest, exit_code",
    EXTRA_REPORTS,
    ids=[f"{c.poly_text}@{c.seed}" for c, _, _ in EXTRA_REPORTS],
)
def test_report_bytes_beyond_the_corpus_are_pinned(config, digest, exit_code):
    doc, code = run_compute(config)
    assert (hashlib.sha256(canonical_json(doc).encode()).hexdigest(), code) == (digest, exit_code)


def test_witness_polar_ideal_missing_the_origin_gets_no_colength_oracle():
    # At frame seed 3, frame 2 saturates the first polar ideal of x*y*z to
    # the unit ideal, so gamma^1 = 0 wins the minimum and the colength
    # oracle has nothing to count for k = 1.
    doc, code = run_compute(RunConfig("x*y*z", ("x", "y", "z"), seed=3))
    assert code == 2
    assert doc["gamma"] == [0, 0, 2, 1]
    assert doc["stability"]["witness_trials"] == [2, 0]
    names = [v["name"] for v in doc["oracles"]["verdicts"]]
    assert "colength_oracle_k2" in names
    assert "colength_oracle_k1" not in names
