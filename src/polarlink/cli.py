"""Command-line entry points.

Exit codes: 0 success with a stable profile, 1 input errors, 2 unstable
profiles or failed audits (results are still emitted), 3 excluded cases
(f(0) != 0, smooth origin, locally constant f, f not reduced at 0).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    EXIT_EXCLUDED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNSTABLE,
    ExcludedCaseError,
    ParseError,
)
from .ideals import Ideal
from .oracle import HARD_DEGREE_CAP, default_cap, stable_colength, teissier_check
from .parse import parse_polynomial
from .polar import check_excluded, polar_ideal, sample_frames, section_multiplicities
from .report import (
    ENGINE_VERSION,
    RunConfig,
    bundled_corpus_path,
    canonical_json,
    render_text,
    run_compute,
    run_corpus,
)


def _split_vars(text):
    names = tuple(v.strip() for v in text.split(","))
    if any(not v for v in names):
        raise ValueError("empty variable name in --vars")
    return names


def _split_ints(text, what):
    try:
        return tuple(int(v.strip()) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polarlink",
        description="Polar multiplicities and rank bounds for links of "
        "hypersurface singularities.",
    )
    parser.add_argument(
        "--version", action="version", version=f"polarlink {ENGINE_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="full report for one polynomial")
    comp.add_argument("--poly", required=True, help="polynomial expression")
    comp.add_argument(
        "--vars", required=True, help="comma-separated variable names, z_0 first"
    )
    comp.add_argument("--trials", type=int, default=5)
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--bound", type=int, default=10)
    comp.add_argument(
        "--betti", default=None, help="hypothesized reduced Betti numbers b~^0..b~^(2n-1)"
    )
    comp.add_argument("--components", type=int, default=None)
    out = comp.add_mutually_exclusive_group()
    out.add_argument("--json", dest="json_path", default=None, metavar="PATH")
    out.add_argument("--text", action="store_true")

    corp = sub.add_parser("corpus", help="run and audit a JSONL corpus")
    corp.add_argument(
        "path", nargs="?", default=None, help="corpus file; bundled corpus if omitted"
    )
    corp.add_argument("--trials", type=int, default=5)
    corp.add_argument("--seed", type=int, default=0)
    corp.add_argument("--bound", type=int, default=10)

    orc = sub.add_parser("oracle", help="run a single cross-check directly")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)

    trunc = orc_sub.add_parser(
        "truncated-colength", help="degree-truncated colength of an ideal"
    )
    trunc.add_argument(
        "--gens", required=True, help="semicolon-separated generator polynomials"
    )
    trunc.add_argument("--vars", required=True)
    trunc.add_argument("--cap", type=int, default=None)

    teis = orc_sub.add_parser(
        "teissier", help="polar-curve intersection number against mu + mu'"
    )
    teis.add_argument("--poly", required=True)
    teis.add_argument("--vars", required=True)
    teis.add_argument("--seed", type=int, default=0)
    teis.add_argument("--bound", type=int, default=10)
    teis.add_argument("--frames", type=int, default=3)
    return parser


def _cmd_compute(args):
    try:
        betti = _split_ints(args.betti, "--betti") if args.betti is not None else None
        cfg = RunConfig(
            poly_text=args.poly,
            varnames=_split_vars(args.vars),
            trials=args.trials,
            seed=args.seed,
            bound=args.bound,
            betti=betti,
            components=args.components,
        )
        target = open(args.json_path, "w", encoding="utf-8") if args.json_path else None
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    doc, code = run_compute(cfg)
    if args.text:
        sys.stdout.write(render_text(doc))
    elif target:
        with target:
            target.write(canonical_json(doc))
    else:
        sys.stdout.write(canonical_json(doc))
    return code


def _cmd_corpus(args):
    path = args.path if args.path is not None else bundled_corpus_path()
    summary, _, code = run_corpus(
        path, trials=args.trials, seed=args.seed, bound=args.bound
    )
    sys.stdout.write(summary)
    return code


def _cmd_oracle_truncated(args):
    try:
        varnames = _split_vars(args.vars)
        gens = [
            parse_polynomial(chunk.strip(), varnames)
            for chunk in args.gens.split(";")
            if chunk.strip()
        ]
        if not gens:
            raise ValueError("no generators given")
        ideal = Ideal(gens, len(varnames))
        start = args.cap
        if start is None:
            start = max(default_cap(g) for g in gens)
        r = stable_colength(ideal, start, max(HARD_DEGREE_CAP, start))
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(json.dumps({"value": r.value, "stable": r.stable, "cap": r.cap}))
    return EXIT_OK if r.stable else EXIT_UNSTABLE


def _cmd_oracle_teissier(args):
    try:
        varnames = _split_vars(args.vars)
        RunConfig(args.poly, varnames, seed=args.seed, bound=args.bound).validate()
        wanted = args.frames
        if wanted < 1:
            raise ValueError("--frames must be at least 1")
        f = parse_polynomial(args.poly, varnames)
        mu, s = check_excluded(f)
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ExcludedCaseError as e:
        print(f"error: {e.reason}", file=sys.stderr)
        return EXIT_EXCLUDED
    results = []
    budget = 20 * wanted
    # No frame is usable when mu is not finite, so none is drawn.
    pool = [] if mu is None else sample_frames(len(varnames), budget, args.seed, args.bound)
    for fr in pool:
        if len(results) == wanted:
            break
        mu_slice = next(section_multiplicities(f, fr, 0))
        if mu_slice is None:
            continue  # an unusable frame: no polar ideal is built for it
        v = teissier_check(polar_ideal(f, fr, 1), mu, mu_slice)
        del v["name"]  # the rest keeps the verdict's key order, which json.dumps prints
        results.append({"frame": [list(r) for r in fr.matrix], **v})
    print(json.dumps({"checks": results, "requested": wanted}, indent=2))
    if len(results) < wanted:
        if mu is None:
            cause = f"no usable frames: the singularity is not isolated (s={s}), so no frame is drawn"
        else:
            cause = f"only {len(results)} usable frames in {budget} draws"
        print(f"error: {cause}", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_UNSTABLE


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_INPUT_ERROR
    if args.command == "compute":
        return _cmd_compute(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "oracle":
        if args.oracle_command == "truncated-colength":
            return _cmd_oracle_truncated(args)
        return _cmd_oracle_teissier(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
