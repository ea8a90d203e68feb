"""Report assembly, canonical serialization, and the corpus runner.

A report is a plain dict of JSON-safe values; canonical_json renders it
with sorted keys so identical (input, config) pairs are byte-identical.
The link and oracle blocks are placed in it as link and oracle return
them.  The text rendering carries the same numbers for human reading.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import (
    EXIT_EXCLUDED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNSTABLE,
    ExcludedCaseError,
    NoValidFrame,
    ParseError,
)
# unused; perfbench/tracer.py rebinds them (ROADMAP item 5)
from .ideals import dimension, local_colength, mora_standard_basis
from .link import (
    allowed_degrees,
    betti_feasibility,
    chain_complex,
    lambda_from_gamma,
    morse_bounds,
    n1_exact_sequence,
    telescope_table,
)
from .oracle import (
    default_cap,
    gamma_identity_audit,
    stable_colength,
    teissier_check,
    verdict,
)
from .parse import parse_polynomial
from .polar import check_excluded, gamma_profile, jacobian_ideal, plane_cut
from .polar import polar_ideal  # unused; perfbench/tracer.py rebinds it (ROADMAP item 5)

SCHEMA_VERSION = 1
ENGINE_VERSION = "0.1.0"


def check_sampling(trials, bound):
    """Refuse a trial count or a frame entry bound below 1."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    poly_text: str
    varnames: tuple
    trials: int = 5
    seed: int = 0
    bound: int = 10
    betti: object = None
    components: object = None

    def validate(self):
        check_sampling(self.trials, self.bound)
        if len(self.varnames) < 2:
            raise ValueError("need at least two variables")
        if self.components is not None and self.components < 1:
            raise ValueError("component count must be positive")
        if self.betti is not None:
            n = len(self.varnames) - 1
            if len(self.betti) != 2 * n:
                raise ValueError(
                    f"expected {2 * n} Betti numbers for n={n}, got {len(self.betti)}"
                )
            if any(v < 0 for v in self.betti):
                raise ValueError("Betti numbers must be non-negative")


def _oracle_diagnostics(f, profile, mu):
    """Cross-checks recorded with every report: the boundary identities,
    the truncated-colength oracle against each accepted gamma value and
    against the Milnor number mu, and the Teissier sum when f is isolated.
    Also collects the saturation exponents seen at the witness frames.
    gamma^k = 0 exactly when the witness polar ideal misses the origin,
    which leaves nothing for the colength oracle to count."""
    verdicts = gamma_identity_audit(profile)
    start = default_cap(f)
    exponents = []
    for k in range(1, profile.n + 1):
        pol = profile.polar_ideals[k - 1]
        exponents.append(pol.saturation_exponent)
        if profile.gamma[k] == 0:
            continue
        r = stable_colength(plane_cut(pol), start)
        verdicts.append(
            verdict(
                f"colength_oracle_k{k}",
                profile.gamma[k],
                r.value if r.stable else "unstable",
                context=f"cap={r.cap}",
            )
        )
    if profile.s == 0:
        r = stable_colength(jacobian_ideal(f), start)
        verdicts.append(
            verdict(
                "colength_oracle_milnor",
                mu,
                r.value if r.stable else "unstable",
                context=f"cap={r.cap}",
            )
        )
        # gamma^1 is the Milnor number of the slice z_0 = 0 at its witness frame.
        verdicts.append(teissier_check(profile.polar_ideals[0], mu, profile.gamma[1]))
    return verdicts, exponents


def _error_document(cfg, kind, reason):
    return {
        "schema_version": SCHEMA_VERSION,
        "engine": {"name": "polarlink", "version": ENGINE_VERSION},
        "input": _input_echo(cfg),
        "error": {"kind": kind, "reason": reason},
    }


def _input_echo(cfg):
    return {
        "poly": cfg.poly_text,
        "vars": list(cfg.varnames),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "bound": cfg.bound,
        "betti": list(cfg.betti) if cfg.betti is not None else None,
        "betti_source": "user-supplied" if cfg.betti is not None else None,
        "components": cfg.components,
    }


def build_report(cfg):
    """Judge the whole request, then run the pipeline; raises the typed errors."""
    cfg.validate()
    f = parse_polynomial(cfg.poly_text, cfg.varnames)
    n = f.nvars - 1
    mu, s = check_excluded(f)
    profile = gamma_profile(f, s, cfg.trials, cfg.seed, cfg.bound)

    lam = lambda_from_gamma(profile)
    complex_spec = chain_complex(lam)
    telescope = telescope_table(profile, lam)
    bounds = morse_bounds(profile, cfg.betti)
    oracles, exponents = _oracle_diagnostics(f, profile, mu)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": {"name": "polarlink", "version": ENGINE_VERSION},
        "input": _input_echo(cfg),
        "poly_canonical": f.to_str(cfg.varnames),
        "n": n,
        "mult": profile.mult,
        "s": profile.s,
        "gamma": list(profile.gamma),
        "lambda": list(lam),
        "chain_complex": complex_spec,
        "stability": {
            "stable": profile.stable,
            "threshold": profile.threshold,
            "agreement": list(profile.agreement),
            "per_trial": [list(row) for row in profile.per_trial],
            "witness_trials": list(profile.witness),
            "frames": [
                [list(r) for r in fr.matrix] for fr in profile.frames
            ],
            "saturation_exponents": exponents,
        },
        "telescope": telescope,
        "morse_bounds": bounds,
        "vanishing_window": {
            "allowed_degrees": list(allowed_degrees(n, profile.s)),
            "s": profile.s,
        },
        "oracles": {
            "verdicts": oracles,
            "all_passed": all(v["passed"] for v in oracles),
        },
    }

    seq = n1_exact_sequence(profile, cfg.betti) if n == 1 else None
    doc["n1_exact_sequence"] = seq

    checks = betti_feasibility(cfg.betti, cfg.components, profile, bounds)
    checks += seq["checks"] if seq else []
    doc["feasibility"] = None if not checks else {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "note": "rank-level checks only; torsion is invisible to them",
    }

    if not profile.stable or not doc["oracles"]["all_passed"]:
        code = EXIT_UNSTABLE
    else:
        code = EXIT_OK
    return doc, code


def run_compute(cfg):
    """build_report with the documented error-to-exit-code mapping."""
    try:
        return build_report(cfg)
    except ExcludedCaseError as e:
        return _error_document(cfg, "excluded", e.reason), EXIT_EXCLUDED
    except NoValidFrame as e:
        return _error_document(cfg, "engine", str(e)), EXIT_UNSTABLE
    except (ParseError, ValueError) as e:
        return _error_document(cfg, "input", str(e)), EXIT_INPUT_ERROR


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt_term(sign, deg, first):
    op = "+" if sign > 0 else "-"
    if first and sign > 0:
        return f"b~^{deg}"
    return f"{op} b~^{deg}"


def render_text(doc):
    """Human rendering; every number in the JSON body appears here too."""
    lines = []
    eng = doc["engine"]
    lines.append(f"polarlink report (engine {eng['version']}, schema {doc['schema_version']})")
    inp = doc["input"]
    lines.append(f"input: {inp['poly']} in variables {', '.join(inp['vars'])}")
    lines.append(
        f"config: trials={inp['trials']} seed={inp['seed']} bound={inp['bound']}"
    )
    if "error" in doc:
        err = doc["error"]
        lines.append(f"error ({err['kind']}): {err['reason']}")
        return "\n".join(lines) + "\n"
    lines.append(f"canonical form: {doc['poly_canonical']}")
    lines.append(f"n={doc['n']} mult={doc['mult']} s={doc['s']}")
    st = doc["stability"]
    flag = "stable" if st["stable"] else "UNSTABLE"
    lines.append(
        f"gamma: {doc['gamma']}  ({flag}; agreement {st['agreement']} of "
        f"{inp['trials']}, threshold {st['threshold']})"
    )
    lines.append(f"lambda: {doc['lambda']}")
    lines.append(f"saturation exponents at witness frames: {st['saturation_exponents']}")
    cc = doc["chain_complex"]
    lines.append("chain complex (rank -> cohomology degree of the link):")
    for k, (r, d) in enumerate(zip(cc["ranks"], cc["cohomology_degrees"])):
        lines.append(f"  term {k}: rank {r} -> degree {d}")
    lines.append("telescope checks:")
    for row in doc["telescope"]:
        lines.append(
            f"  p={row['p']}: bottom {row['from_bottom']} == "
            f"{row['from_bottom_expected']}, top {row['from_top']} == "
            f"{row['from_top_expected']}"
        )
    lines.append("morse bounds:")
    for b in doc["morse_bounds"]:
        terms = " ".join(
            _fmt_term(s, d, i == 0) for i, (s, d) in enumerate(b["terms"])
        )
        tail = ""
        if b["lhs"] is not None:
            mark = "ok" if b["satisfied"] else "VIOLATED"
            tail = f"   [lhs={b['lhs']} {mark}]"
        lines.append(f"  family {b['family']}, p={b['p']}: {terms} <= {b['rhs']}{tail}")
    vw = doc["vanishing_window"]
    lines.append(f"vanishing window: nonzero reduced degrees allowed at {vw['allowed_degrees']}")
    if doc["n1_exact_sequence"] is not None:
        seq = doc["n1_exact_sequence"]
        r = seq["ranks"]
        b0 = "b~^0" if r[0] is None else str(r[0])
        b1 = "b~^1" if r[3] is None else str(r[3])
        lines.append(
            f"n=1 sequence ranks: {b0} -> {r[1]} -> {r[2]} -> {b1}"
        )
        for c in seq["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']}: {mark} ({c['detail']})")
    if doc["feasibility"] is not None:
        fz = doc["feasibility"]
        lines.append(
            f"feasibility of user-supplied Betti data ({fz['note']}):"
        )
        for c in fz["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']}: {mark} ({c['detail']})")
        lines.append(f"  all passed: {'yes' if fz['all_passed'] else 'no'}")
    orc = doc["oracles"]
    lines.append("oracle verdicts:")
    for v in orc["verdicts"]:
        mark = "pass" if v["passed"] else "FAIL"
        ctx = f" ({v['context']})" if v["context"] else ""
        lines.append(f"  {v['name']}: {mark} expected {v['expected']}, got {v['actual']}{ctx}")
    lines.append(f"oracles all passed: {'yes' if orc['all_passed'] else 'no'}")
    return "\n".join(lines) + "\n"


# --- corpus -------------------------------------------------------------


def bundled_corpus_path():
    return os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")


def _failed_audits(entry, doc):
    """Names of the audits a corpus entry fails; any makes the run exit 2."""
    if "error" in doc:
        return ["run"]
    audits = {
        "stable": doc["stability"]["stable"],
        "oracles": doc["oracles"]["all_passed"],
        "expect_gamma": entry.get("expect_gamma") in (None, doc["gamma"]),
    }
    return [name for name, ok in audits.items() if not ok]


def _corpus_entry(raw):
    """The entry on one line of a corpus; raises ValueError saying what is
    wrong with it.  A JSON true or false is not an int."""
    try:
        entry = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"is not valid JSON: {e}") from None
    if not isinstance(entry, dict) or not {"name", "poly", "vars"} <= set(entry):
        raise ValueError("needs name, poly and vars fields")

    def listed(v, kind):
        return type(v) is list and all(type(x) is kind for x in v)

    for field, ok in (
        ("name", type(entry["name"]) is str),
        ("poly", type(entry["poly"]) is str),
        ("vars", listed(entry["vars"], str)),
        ("betti", entry.get("betti") is None or listed(entry["betti"], int)),
        ("components", entry.get("components") is None or type(entry["components"]) is int),
        ("expect_gamma", entry.get("expect_gamma") is None or listed(entry["expect_gamma"], int)),
    ):
        if not ok:
            raise ValueError(f"has a {field} field of the wrong type")
    return entry


def run_corpus(path, trials=5, seed=0, bound=10):
    """Run every corpus entry, audit it, and build a summary table.

    Returns (summary text, reports, exit code).  Exit 1 flags options out
    of range (before the file is read), a file not readable as UTF-8, and
    unreadable input naming the offending line; exit 2 flags audit
    failures; exit 0 means every audit passed (vacuously for an empty
    corpus).
    """
    try:
        check_sampling(trials, bound)
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        return f"error: cannot read corpus: {e}\n", [], EXIT_INPUT_ERROR
    except ValueError as e:
        return f"error: {e}\n", [], EXIT_INPUT_ERROR

    lines = []
    reports = []
    failed = False
    for lineno, raw in enumerate(raw_lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            entry = _corpus_entry(raw)
            cfg = RunConfig(
                poly_text=entry["poly"],
                varnames=tuple(entry["vars"]),
                trials=trials,
                seed=seed,
                bound=bound,
                betti=tuple(entry["betti"]) if entry.get("betti") is not None else None,
                components=entry.get("components"),
            )
            doc, code = run_compute(cfg)
            if code == EXIT_INPUT_ERROR:
                raise ValueError(f"({entry['name']}): {doc['error']['reason']}")
        except ValueError as e:
            return f"error: corpus line {lineno} {e}\n", [], EXIT_INPUT_ERROR
        reports.append((entry["name"], doc, code))
        if code == EXIT_EXCLUDED:
            lines.append(f"{entry['name']:24s} excluded: {doc['error']['reason']}")
            continue
        bad = _failed_audits(entry, doc)
        if bad:
            failed = True
        gamma = doc.get("gamma", "-")
        feas = ""
        if doc.get("feasibility") is not None:
            feas = (
                " betti-ok"
                if doc["feasibility"]["all_passed"]
                else " betti-INFEASIBLE"
            )
        status = "ok" if not bad else "FAIL(" + ",".join(bad) + ")"
        lines.append(f"{entry['name']:24s} gamma={gamma} {status}{feas}")

    total = len(reports)
    lines.append(f"{total} entries, " + ("audit failures present" if failed else "all audits passed"))
    summary = "\n".join(lines) + "\n"
    return summary, reports, (EXIT_UNSTABLE if failed else EXIT_OK)
