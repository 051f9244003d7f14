"""Source hygiene: every name a program module imports is used there, the
third-party modules it imports are exactly the declared dependencies,
every parameter a function takes is read, and every top-level function or
class is named somewhere besides its own definition."""

from __future__ import annotations

import ast
import collections
import os
import pathlib
import re
import subprocess
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


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter, other than self and cls,
    that its function's body never reads; a body that only raises
    NotImplementedError (after any docstring) is exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [stmt for stmt in node.body
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))]
        if len(body) == 1 and isinstance(body[0], ast.Raise):
            exc = body[0].exc
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if arg is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        found.extend(f"{node.name}({param})" for param in params
                     if param not in ("self", "cls") and param not in read)
    return found


def test_unread_parameter_detector():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    '''doc'''\n    b = a\n    return args, kw\n"
              "class P:\n    def embed(self, text):\n"
              "        '''doc'''\n        raise NotImplementedError\n"
              "    def size(self, unit):\n        return 1\n"
              "    @classmethod\n    def make(cls, n):\n"
              "        def inner():\n            return n\n"
              "        return inner\n")
    assert unread_parameters(source) == ["f(b)", "f(c)", "size(unit)"]


def test_every_parameter_is_read():
    # a parameter that is passed around but never read is a knob with no
    # effect; abstract stubs that only raise NotImplementedError are exempt
    unread = {path.name: unread_parameters(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in unread.items() if params} == {}


def unnamed_definitions(modules: dict, others: list) -> list[str]:
    """`module.name` for each top-level function or class in the sources of
    `modules` (name -> source) whose name, as a word, appears in no source
    of `modules` or `others` outside the lines that define it."""
    words = collections.Counter(
        word for text in [*modules.values(), *others]
        for word in re.findall(r"\w+", text))
    found = []
    for module, source in modules.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = "\n".join(lines[node.lineno - 1:node.end_lineno])
                if words[node.name] == re.findall(r"\w+", own).count(
                        node.name):
                    found.append(f"{module}.{node.name}")
    return found


def test_unnamed_definition_detector():
    modules = {"a": ("def used():\n    return 1\n"
                     "def dead(n):\n    '''dead() calls dead.'''\n"
                     "    return dead(n - 1)\n"
                     "class Box:\n    def method(self):\n        pass\n"),
               "b": "from a import used\nx = used()\n"}
    assert unnamed_definitions(modules, ["Box()"]) == ["a.dead"]
    assert unnamed_definitions(modules, []) == ["a.dead", "a.Box"]


def test_every_definition_is_named_elsewhere():
    # a function or class that nothing in the program, its tests or its
    # benchmark names is dead code
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for folder in ("tests", "bench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unnamed_definitions(modules, others) == []


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


def opens_for_writing(source: str) -> list[str]:
    """Qualified name of the function around each `open()` call in `source`
    whose mode writes, appends, creates or updates; a mode that is not a
    string literal counts as writing."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Name) \
                    and child.func.id == "open":
                mode = child.args[1] if len(child.args) > 1 else next(
                    (kw.value for kw in child.keywords if kw.arg == "mode"),
                    ast.Constant("r"))
                if not isinstance(mode, ast.Constant) \
                        or set(str(mode.value)) & set("wax+"):
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_write_detector_names_the_enclosing_function():
    source = ("def read(p):\n    return open(p).read()\n"
              "class Log:\n    def put(self, p, m):\n"
              "        open(p, 'ab').close()\n        open(p, mode=m)\n"
              "def save(p):\n    with open(p, 'r+b'):\n        pass\n")
    assert opens_for_writing(source) == ["Log.put", "Log.put", "save"]


def test_files_are_written_only_through_the_one_writer():
    # every file but the embedding store's append-only log reaches disk
    # through schema.write_atomic, whole or not at all
    writers = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
               for name in opens_for_writing(path.read_text(encoding="utf-8"))}
    assert writers == {"schema.write_atomic", "cache.EmbeddingStore.put"}


def test_importing_the_program_leaves_the_http_client_unloaded():
    # the remote client imports http.client, which pulls in email and ssl,
    # when it builds its first connection: a run that never dials a service
    # does not pay for those imports at start-up
    modules = sorted(path.stem for path in SRC.glob("*.py")
                     if path.stem != "__init__")
    script = ("import importlib, sys\n"
              "for name in sys.argv[1:]:\n"
              "    importlib.import_module('nanocorona.' + name)\n"
              "print(' '.join(m for m in ('http.client', 'email', 'ssl')\n"
              "               if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run([sys.executable, "-c", script, *modules],
                            env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    assert result.stdout.strip() == ""
