"""Source hygiene: every name a program module imports is used there, and
the third-party modules it imports are exactly the declared dependencies."""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nanocorona"


def unused_imports(source: str) -> list[str]:
    """Imported names never referenced in `source`; `from __future__`
    imports and names listed in a module-level `__all__` count as used."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import xml.dom\n"
              "from json import dumps, loads as parse\n"
              "__all__ = ['dumps']\n"
              "print(np.zeros(1), xml.dom)\n")
    assert unused_imports(source) == ["os", "parse"]


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_third_party_imports_are_the_declared_dependencies():
    # an undeclared import breaks a clean install; a declared one nothing
    # imports costs an install, and its import time comes back unnoticed
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {SRC.name}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert third_party == declared
