"""No module of the package holds a mutable container at module level.

Such a dict, list or set would be state that outlives a request: a cache
or registry that one report fills and the next one reads.  Work a request
needs twice is passed along inside the request instead.
"""

import importlib
import pkgutil

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
