"""End-to-end CLI behaviour: output formats, determinism, exit codes."""

import json
import re
from pathlib import Path

import pytest

from helpers import record_calls, time_limit
from polarlink import cli, report
from polarlink.cli import main
from polarlink.oracle import ELIMINATION_SIZE
from polarlink.orders import DEGREE_LIMIT
from polarlink.parse import COEFFICIENT_DIGITS, parse_polynomial
from polarlink.polar import CoordinateFrame, sample_frames


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compute_doc(capsys, *extra):
    code, out, err = run_cli(capsys, "compute", *extra)
    return code, json.loads(out), err


def test_compute_two_lines_stdout(capsys):
    code, doc, _ = compute_doc(
        capsys, "--poly", "x*y", "--vars", "x,y", "--trials", "3"
    )
    assert code == 0
    assert doc["gamma"] == [0, 1, 1]
    assert doc["lambda"] == [1, 2]
    assert doc["mult"] == 2
    assert doc["s"] == 0
    assert doc["stability"]["stable"] is True
    assert doc["oracles"]["all_passed"] is True
    assert doc["chain_complex"]["ranks"] == [1, 2]
    assert doc["n1_exact_sequence"]["ranks"] == [None, 1, 2, None]


def test_compute_output_is_byte_identical(capsys):
    args = ("compute", "--poly", "x^2+y^3", "--vars", "x,y", "--trials", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_gamma_independent_of_seed(capsys):
    base = ("--poly", "x^3+y^3+z^3", "--vars", "x,y,z", "--trials", "3")
    _, doc0, _ = compute_doc(capsys, *base, "--seed", "0")
    _, doc9, _ = compute_doc(capsys, *base, "--seed", "99")
    assert doc0["gamma"] == doc9["gamma"] == [0, 4, 2, 1]
    assert doc0["lambda"] == doc9["lambda"]


def test_compute_json_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    args = ("compute", "--poly", "x*y", "--vars", "x,y", "--trials", "3")
    code, out, _ = run_cli(capsys, *args)
    code_f, out_f, _ = run_cli(capsys, *args, "--json", str(target))
    assert code == code_f == 0
    assert out_f == ""
    assert target.read_text(encoding="utf-8") == out


def test_compute_refuses_a_json_path_it_cannot_write_before_the_engine_runs(capsys, monkeypatch, tmp_path):
    runs = record_calls(monkeypatch, cli, "run_compute")
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "compute", "--poly", "x*y", "--vars", "x,y", "--json", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write report: ") and str(target) in err
    assert runs == []


def test_text_rendering_carries_the_same_numbers(capsys):
    args = ("--poly", "x^3+y^3+z^3", "--vars", "x,y,z", "--trials", "3")
    _, doc, _ = compute_doc(capsys, *args)
    code, text, _ = run_cli(capsys, "compute", *args, "--text")
    assert code == 0
    assert f"gamma: {doc['gamma']}" in text
    assert f"lambda: {doc['lambda']}" in text
    for value in doc["gamma"] + doc["lambda"] + [doc["mult"], doc["s"]]:
        assert str(value) in text
    assert doc["poly_canonical"] in text


def test_betti_hypothesis_is_reported_not_fatal(capsys):
    base = ("--poly", "x*y", "--vars", "x,y", "--trials", "3")
    code, doc, _ = compute_doc(
        capsys, *base, "--betti", "1,2", "--components", "2"
    )
    assert code == 0
    assert doc["feasibility"]["all_passed"] is True
    assert doc["input"]["betti_source"] == "user-supplied"

    code, doc, _ = compute_doc(capsys, *base, "--betti", "2,3")
    assert code == 0
    assert doc["feasibility"]["all_passed"] is False
    failed = {
        c["name"] for c in doc["feasibility"]["checks"] if not c["passed"]
    }
    assert "morse_family1_p0" in failed


def test_betti_of_wrong_length_is_an_input_error(capsys):
    code, doc, _ = compute_doc(
        capsys, "--poly", "x*y", "--vars", "x,y", "--betti", "1,2,3"
    )
    assert code == 1
    assert doc["error"]["kind"] == "input"


def test_betti_must_be_integers(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--poly", "x*y", "--vars", "x,y", "--betti", "1,a"
    )
    assert code == 1
    assert "integers" in err


def test_excluded_inputs_exit_3_with_distinct_reasons(capsys):
    reasons = {}
    for poly in ("x + 1", "x", "0"):
        code, doc, _ = compute_doc(capsys, "--poly", poly, "--vars", "x,y")
        assert code == 3
        assert doc["error"]["kind"] == "excluded"
        assert "gamma" not in doc
        assert "mult" not in doc
        reasons[poly] = doc["error"]["reason"]
    assert len(set(reasons.values())) == 3


def test_parse_error_exits_1(capsys):
    code, doc, _ = compute_doc(capsys, "--poly", "2x", "--vars", "x,y")
    assert code == 1
    assert doc["error"]["kind"] == "input"


def test_a_character_outside_ascii_exits_1_with_its_position(capsys):
    code, doc, _ = compute_doc(capsys, "--poly", "x^\u00b2+y^3", "--vars", "x,y")
    assert code == 1
    assert doc["error"] == {"kind": "input", "reason": "unexpected character '\u00b2' (at position 2)"}


def test_an_empty_betti_is_refused_not_dropped(capsys):
    code, out, err = run_cli(capsys, "compute", "--poly", "x*y", "--vars", "x,y", "--betti", "")
    assert (code, out, err) == (1, "", "error: --betti must be a comma-separated list of integers\n")


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "compute", "--poly", "x*y", "--nope")
    assert code == 1
    assert err != ""


def test_version_flag_exits_0(capsys):
    # The version is stated twice, in the report engine and the project
    # metadata; both must agree with what the flag prints.
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    (declared,) = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert out == f"polarlink {report.ENGINE_VERSION}\n"
    assert declared == report.ENGINE_VERSION


def test_corpus_bundled_all_audits_pass(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--trials", "3")
    assert code == 0
    assert "all audits passed" in out
    assert "two-lines" in out
    assert "FAIL" not in out
    assert "betti-INFEASIBLE" not in out


def test_corpus_bad_json_names_the_line(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"name": "ok", "poly": "x*y", "vars": ["x", "y"]}\n{oops\n',
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "corpus", str(path))
    assert code == 1
    assert "line 2" in out


def test_corpus_missing_fields_rejected(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"name": "halfbaked", "poly": "x*y"}\n', encoding="utf-8")
    code, out, _ = run_cli(capsys, "corpus", str(path))
    assert code == 1
    assert "line 1" in out


@pytest.mark.parametrize(
    "field, value",
    [
        ("components", "2"),
        ("betti", "01"),
        ("poly", 5),
        ("expect_gamma", 5),
        ("vars", "xy"),
        ("betti", [0, 1.5]),
    ],
)
def test_corpus_mistyped_field_names_the_line_and_the_field(capsys, tmp_path, field, value):
    path = tmp_path / "c.jsonl"
    good = {"name": "cusp", "poly": "x^2 + y^3", "vars": ["x", "y"]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "corpus", str(path), "--trials", "1")
    assert code == 1
    assert out == f"error: corpus line 2 has a {field} field of the wrong type\n"
    assert "Traceback" not in err


def test_corpus_empty_file_passes_vacuously(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "corpus", str(path))
    assert code == 0
    assert "0 entries" in out


@pytest.mark.parametrize(
    "option, reason", [("--trials", "trials must be at least 1"), ("--bound", "bound must be at least 1")]
)
@pytest.mark.parametrize("corpus", ["bundled", "empty"])
def test_corpus_judges_its_options_before_reading_the_file(capsys, monkeypatch, tmp_path, option, reason, corpus):
    # The option is at fault, not a line of the corpus, and an empty corpus
    # does not pass it vacuously.
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    argv = () if corpus == "bundled" else (str(path),)
    computed = record_calls(monkeypatch, report, "run_compute")
    code, out, err = run_cli(capsys, "corpus", *argv, option, "0")
    assert (code, out, err) == (1, f"error: {reason}\n", "")
    assert computed == []


def test_a_corpus_that_is_not_utf8_is_unreadable(capsys, tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"name": "caf\xe9", "poly": "x*y", "vars": ["x", "y"]}\n')
    code, out, err = run_cli(capsys, "corpus", str(path))
    assert code == 1
    assert out.startswith("error: cannot read corpus: 'utf-8' codec can't decode byte 0xe9")
    assert err == ""


def test_corpus_gamma_mismatch_fails_audit(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    entry = {
        "name": "wrong-expectation",
        "poly": "x*y",
        "vars": ["x", "y"],
        "expect_gamma": [0, 5, 1],
    }
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "corpus", str(path), "--trials", "3")
    assert code == 2
    assert "expect_gamma" in out


def test_corpus_excluded_entries_are_listed_not_failed(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    entry = {"name": "unit-at-origin", "poly": "x + 1", "vars": ["x", "y"]}
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "corpus", str(path))
    assert code == 0
    assert "excluded" in out


def test_oracle_truncated_colength_stable(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "truncated-colength", "--gens", "x; y^2", "--vars", "x,y"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"value": 2, "stable": True, "cap": payload["cap"]}


def test_oracle_truncated_colength_unstable_exits_2(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "truncated-colength", "--gens", "x*y", "--vars", "x,y"
    )
    assert code == 2
    assert json.loads(out)["stable"] is False


def test_oracle_truncated_colength_bad_input(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "truncated-colength", "--gens", "x +", "--vars", "x,y"
    )
    assert code == 1
    assert err != ""


def test_oracle_teissier_cusp(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", "teissier",
        "--poly", "x^2+y^3", "--vars", "x,y", "--frames", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["checks"]) == 2
    assert all(c["passed"] for c in payload["checks"])


def test_oracle_teissier_needs_isolated_singularity(capsys):
    code, out, err = run_cli(
        capsys,
        "oracle", "teissier",
        "--poly", "y^2 - x^2*z", "--vars", "x,y,z", "--frames", "1",
    )
    assert code == 2
    assert "usable frames" in err


def test_oracle_teissier_excluded_input(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "teissier", "--poly", "x + 1", "--vars", "x,y"
    )
    assert code == 3


BOTH = ("compute", "teissier")

# One row per refused request: its name, options laid over a valid request,
# the entry points that take them, the documented exit code and the reason.
EDGES = (
    ("trials-0", ("--trials", "0"), ("compute",), 1, "trials must be at least 1"),
    ("bound-0", ("--bound", "0"), BOTH, 1, "bound must be at least 1"),
    ("one-var", ("--poly", "x^2", "--vars", "x"), BOTH, 1, "need at least two variables"),
    ("components-0", ("--components", "0"), ("compute",), 1, "component count must be positive"),
    ("betti-negative", ("--betti", "1,-2"), ("compute",), 1, "Betti numbers must be non-negative"),
    ("betti-length", ("--betti", "1,2,3"), ("compute",), 1, "expected 2 Betti numbers for n=1, got 3"),
    ("duplicate-var", ("--vars", "x,x"), BOTH, 1, "duplicate variable name"),
    ("parse-error", ("--poly", "x +"), BOTH, 1, "unexpected end of input"),
    ("unit-at-origin", ("--poly", "x + 1"), BOTH, 3, "f(0) != 0"),
    ("zero", ("--poly", "0"), BOTH, 3, "f is locally constant"),
    ("smooth-origin", ("--poly", "x + y^2"), BOTH, 3, "origin is a smooth point of V(f)"),
    ("non-reduced", ("--poly", "x^2*y"), BOTH, 3, "f is not reduced at the origin"),
    ("frames-0", ("--frames", "0"), ("teissier",), 1, "--frames must be at least 1"),
    # Every option is judged before the input is read.
    ("betti-before-parse", ("--poly", "x +", "--betti", "1,2,3"), ("compute",), 1, "expected 2 Betti numbers"),
    ("frames-before-parse", ("--poly", "x +", "--frames", "0"), ("teissier",), 1, "--frames must be at least 1"),
)
ENTRY = {"compute": ("compute",), "teissier": ("oracle", "teissier")}


@pytest.mark.parametrize(
    "command, options, exit_code, reason",
    [
        pytest.param(command, options, code, reason, id=f"{command}-{name}")
        for name, options, commands, code, reason in EDGES
        for command in commands
    ],
)
def test_both_entry_points_refuse_a_request_at_the_gate(capsys, command, options, exit_code, reason):
    code, out, err = run_cli(capsys, *ENTRY[command], "--poly", "x^2+y^3", "--vars", "x,y", *options)
    assert code == exit_code
    assert reason in out + err
    assert "Traceback" not in err


def test_degree_cap_default(capsys):
    # a start cap too small to see the colength stabilize is doubled, up to
    # the hard degree cap, until it does
    code, out, _ = run_cli(
        capsys,
        "oracle", "truncated-colength",
        "--gens", "x^9; y", "--vars", "x,y", "--cap", "2",
    )
    assert code == 0
    assert json.loads(out)["value"] == 9


def test_module_entry_point_runs():
    import os
    import subprocess
    import sys

    import polarlink

    # The child finds the package where this process did, installed or not.
    source = str(Path(polarlink.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "polarlink", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0


def test_the_colength_oracle_refuses_an_elimination_past_its_size_bound(capsys):
    # (x) in three variables never stabilizes; doubled toward the cap, the
    # elimination below degree 257 would hold 2.8 M rows, refused before
    # any is built.  The default cap stops at degree 41.
    with time_limit(5):
        code, out, err = run_cli(
            capsys, "oracle", "truncated-colength", "--gens", "x", "--vars", "x,y,z", "--cap", "100000"
        )
    assert (code, out) == (1, "")
    assert err == f"error: an oracle elimination below degree 257 passes {ELIMINATION_SIZE} rows or monomials\n"


def test_the_colength_oracle_still_certifies_a_high_colength(capsys):
    # x^500, y: the default cap 1004 is reached by doubling to 512, whose
    # elimination (131 k rows) stays under the bound.
    with time_limit(5):
        code, out, _ = run_cli(capsys, "oracle", "truncated-colength", "--gens", "x^500; y", "--vars", "x,y")
    assert code == 0
    assert json.loads(out) == {"value": 500, "stable": True, "cap": 1004}


def _count_frames(monkeypatch):
    """A spy on frame construction: the list it fills has one entry per
    CoordinateFrame built, drawn or not."""
    return record_calls(monkeypatch, CoordinateFrame, "__post_init__")


def test_compute_refuses_degrees_past_the_order_limit(capsys, monkeypatch):
    # Refused by the parser: no frame is drawn, so nothing expands the power.
    calls = _count_frames(monkeypatch)
    code, doc, _ = compute_doc(capsys, "--poly", f"x^{DEGREE_LIMIT} + y^2", "--vars", "x,y")
    assert code == 1
    assert doc["error"]["kind"] == "input"
    assert "limit" in doc["error"]["reason"]
    assert calls == []


def test_oracle_teissier_refuses_degrees_past_the_order_limit(capsys, monkeypatch):
    calls = _count_frames(monkeypatch)
    code, _, err = run_cli(
        capsys, "oracle", "teissier", "--poly", f"x^{DEGREE_LIMIT} + y^2", "--vars", "x,y"
    )
    assert code == 1
    assert "limit" in err
    assert calls == []


# (x+y)^70000 expands to 70001 terms of degree 70000 before the degree of
# the whole expression is known; the power is refused before it expands.
POWER_PAST_THE_LIMIT = "(x+y)^70000"
LIMIT_REASON = f"monomial degree 70000 reaches the limit {DEGREE_LIMIT}"


def test_every_command_refuses_a_power_past_the_limit_before_expanding_it(capsys):
    with time_limit(5):
        code, doc, _ = compute_doc(capsys, "--poly", POWER_PAST_THE_LIMIT, "--vars", "x,y")
        assert (code, doc["error"]) == (1, {"kind": "input", "reason": LIMIT_REASON})
        for argv in (
            ("oracle", "teissier", "--poly", POWER_PAST_THE_LIMIT, "--vars", "x,y"),
            ("oracle", "truncated-colength", "--gens", POWER_PAST_THE_LIMIT, "--vars", "x,y"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: {LIMIT_REASON}\n")


COEFFICIENT_REASON = f"a coefficient needs more than {COEFFICIENT_DIGITS} decimal digits"


# Each is refused before its power is taken; left to run, the first two
# would fail only when the report prints the coefficient.
@pytest.mark.parametrize("poly", ["2^400000*x^2+y^3", "(2*x)^20000+y^2", "2^16000000*x^2+y^2"])
def test_every_command_refuses_a_coefficient_past_the_limit(capsys, poly):
    with time_limit(5):
        code, doc, _ = compute_doc(capsys, "--poly", poly, "--vars", "x,y")
        assert (code, doc["error"]) == (1, {"kind": "input", "reason": COEFFICIENT_REASON})
        for argv in (
            ("oracle", "teissier", "--poly", poly, "--vars", "x,y"),
            ("oracle", "truncated-colength", "--gens", poly, "--vars", "x,y"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: {COEFFICIENT_REASON}\n")


@pytest.mark.parametrize("betti", ["1,2,3", "0,-1"])
def test_compute_refuses_a_malformed_betti_before_any_frame(capsys, monkeypatch, betti):
    # x^2 in (x, y) is refused at the gate as not reduced; the Betti vector
    # is judged first.
    calls = _count_frames(monkeypatch)
    code, doc, _ = compute_doc(capsys, "--poly", "x^2", "--vars", "x,y", "--betti", betti)
    assert code == 1
    assert doc["error"]["kind"] == "input"
    assert calls == []


def test_oracle_teissier_draws_no_frame_when_mu_is_infinite(capsys, monkeypatch):
    # y^2 - x^2*z is not isolated, so no frame can be usable: none is drawn.
    draws = record_calls(monkeypatch, cli, "sample_frames")
    code, out, err = run_cli(
        capsys, "oracle", "teissier", "--poly", "y^2 - x^2*z", "--vars", "x,y,z", "--frames", "1"
    )
    assert code == 2
    assert json.loads(out) == {"checks": [], "requested": 1}
    assert err == (
        "error: no usable frames: the singularity is not isolated (s=1), so no frame is drawn\n"
    )
    assert draws == []


def test_oracle_teissier_on_a_dense_nonisolated_input_exits_at_once(capsys):
    # x^2*y^2+z^2*w typed in a random frame: the gate's s ran past 25 s in
    # Mora's uncut loop, and Lazard's basis reads it at once.  mu is not
    # finite, so no frame is usable.
    (frame,) = sample_frames(4, 1, 0)
    V4 = ("x", "y", "z", "w")
    poly = frame.restrict(parse_polynomial("x^2*y^2+z^2*w", V4), 0).to_str(V4)
    with time_limit(10):
        code, out, err = run_cli(
            capsys, "oracle", "teissier", "--poly", poly, "--vars", ",".join(V4), "--frames", "1"
        )
    assert code == 2
    assert json.loads(out) == {"checks": [], "requested": 1}
    assert err == (
        "error: no usable frames: the singularity is not isolated (s=2), so no frame is drawn\n"
    )


def test_oracle_teissier_builds_no_polar_ideal_in_an_unusable_frame(capsys, monkeypatch):
    # At seed 4 and bound 1 the first frame puts x*y to 0 on z_0 = 0; the
    # slice's Milnor number rules it out before its polar ideal is built.
    built = record_calls(monkeypatch, cli, "polar_ideal")
    code, out, _ = run_cli(
        capsys, "oracle", "teissier", "--poly", "x*y", "--vars", "x,y",
        "--frames", "3", "--seed", "4", "--bound", "1",
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 3
    assert checks[0]["frame"] != [[-1, 0], [-1, 1]]
    assert [list(map(list, args[1].matrix)) for args, _ in built] == [c["frame"] for c in checks]
