"""No module of the package holds state that outlives a request or reads
settings from outside the request.

A module-level dict, list or set would be state that outlives a request: a
cache or registry that one report fills and the next one reads.  Work a
request needs twice is passed along inside the request instead.  The same
holds for the environment: a report depends only on its input and options,
so no module reads an environment variable.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import polarlink


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
    for path in sorted(Path(polarlink.__file__).parent.glob("*.py")):
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
