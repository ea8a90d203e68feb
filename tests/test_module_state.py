"""No module of the package holds state that outlives a request or reads
settings from outside the request, and every name it defines has a caller.

A module-level dict, list or set would be state that outlives a request: a
cache or registry that one report fills and the next one reads.  Work a
request needs twice is passed along inside the request instead.  The same
holds for the environment: a report depends only on its input and options,
so no module reads an environment variable.  And the package keeps only
what a report, the CLI or the benchmark runs: a function that only tests
call is not part of it, nor a field that only tests read.  A request is
judged once, at its entry point: the standing assumptions on f are decided
in one function, which only the entry points call, and the Betti hypothesis
in RunConfig.validate.
"""

import ast
import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import polarlink
from polarlink import errors, report

PACKAGE = Path(polarlink.__file__).parent
ROOT = PACKAGE.parent.parent
BENCHMARK = ROOT / "perfbench"


def test_no_module_level_mutable_containers():
    found = []
    for info in pkgutil.iter_modules(polarlink.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"polarlink.{info.name}")
        for name, value in vars(module).items():
            if not (name.startswith("__") and name.endswith("__")) and isinstance(
                value, (dict, list, set)
            ):
                found.append(f"polarlink.{info.name}.{name}")
    assert found == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{path.name}:{node.lineno} from os import {alias.name}"
                    for alias in node.names
                    if alias.name in ENVIRONMENT
                ]
    assert found == []


def sources():
    """(path, syntax tree) of the package's modules and the benchmark's
    scripts, its tests left out."""
    benchmark = [p for p in BENCHMARK.glob("*.py") if not p.name.startswith("test_")]
    for path in sorted(PACKAGE.glob("*.py")) + sorted(benchmark):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_the_package_module_binds_only_its_docstring():
    # Every caller imports the submodules, so a re-export in __init__.py
    # would be a name no caller reads, and one the scans below count as a
    # caller of what it re-exports.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [type(node).__name__ for node in tree.body] == ["Expr"]
    assert ast.get_docstring(tree)


def test_every_package_name_has_a_caller():
    # Callers are the package's modules and the benchmark's, which call the
    # package from outside; its tests are not callers.  A top-level
    # function or class counts as called when its name is read, a method
    # when it is read as an attribute.
    defined, names, attributes = [], set(), set()
    for path, tree in sources():
        if path.parent == PACKAGE:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((f"{path.stem}.{node.name}", node.name, False))
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (f"{path.stem}.{node.name}.{m.name}", m.name, True)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                    ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    uncalled = [
        full
        for full, name, method in defined
        if name not in attributes and (method or name not in names)
    ]
    assert uncalled == []


def test_every_package_field_is_read():
    # The same callers; an annotated field of a package class counts as
    # used when one of them reads it as an attribute.  Passing it to the
    # constructor does not count.  Fields are matched by name alone, so a
    # field that shares its name with an attribute read elsewhere escapes.
    fields, reads = [], set()
    for path, tree in sources():
        if path.parent == PACKAGE:
            fields += [
                (f"{path.stem}.{node.name}.{field.target.id}", field.target.id)
                for node in tree.body
                if isinstance(node, ast.ClassDef)
                for field in node.body
                if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            ]
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    assert [full for full, name in fields if name not in reads] == []


def callers(name):
    """The package's top-level functions and classes, as module.name, whose
    bodies call name."""
    found = set()
    for path, tree in sources():
        if path.parent == PACKAGE:
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None),
                    ):
                        found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_the_excluded_cases_are_decided_at_the_gate_alone():
    assert callers("ExcludedCaseError") == {"polar.check_excluded"}
    assert callers("check_excluded") == {"report.build_report", "cli._cmd_oracle_teissier"}


def test_the_frame_rule_is_decided_in_one_place():
    assert callers("NoValidFrame") == {"polar.decide"}
    assert callers("decide") == {"polar.gamma_profile"}


def test_the_betti_hypothesis_is_judged_in_validate_alone():
    # Each refusal of a Betti vector or a component count is raised in one
    # method; link reads only what it has passed.
    raisers = {
        f"{path.stem}.{fn.name}"
        for path, tree in sources()
        if path.parent == PACKAGE
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and re.search("Betti|component", ast.unparse(node))
    }
    assert raisers == {"report.validate"}


def test_every_excluded_reason_is_documented():
    # A report's error reason for an excluded input is the string literal
    # the gate passes to ExcludedCaseError; each is listed verbatim in the
    # README's exit codes and in the report schema.
    reasons = [
        node.args[0].value
        for path, tree in sources()
        if path.parent == PACKAGE
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExcludedCaseError"
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    exit_codes = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    schema = (ROOT / "docs" / "report_schema.md").read_text(encoding="utf-8")
    assert len(reasons) == 4
    assert [r for r in reasons if r not in exit_codes or r not in schema] == []


def test_every_error_type_is_mapped_by_run_compute():
    # An error class that run_compute does not catch, directly or through a
    # base or subclass, is one that some caller swallows on its own or one
    # that escapes as a traceback.  The caught types are read from the
    # except clauses of run_compute's source.
    tree = ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))
    (run_compute,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_compute"
    ]
    caught = []
    for handler in ast.walk(run_compute):
        if isinstance(handler, ast.ExceptHandler):
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught += [getattr(report, k.id, None) or getattr(builtins, k.id) for k in kinds]
    assert caught
    unmapped = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and value.__module__ == errors.__name__
        and not any(issubclass(value, c) or issubclass(c, value) for c in caught)
    ]
    assert unmapped == []
