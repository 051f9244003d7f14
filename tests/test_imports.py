"""Source hygiene: every name a program module imports is used there."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nanocorona"


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
