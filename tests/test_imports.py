"""Every imported name is read somewhere in its module, every module-level
function and class of the package is read somewhere in the package or the
tests, only the listed ones are read by the tests alone, and no
module-level function of the package keeps a process-wide cache.

No linter ships with the project, so these scans keep unused imports,
dead definitions, test-only helpers and caches that outlive a command out
of the code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sabcorr").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` and never read in it;
    `from __future__ import ...` is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nfrom json import dumps, loads\n"
              "print(dumps, os)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "loads")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _reads(node) -> set:
    """Names read under node, as a bare name or as an attribute."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def dead_definitions(package: dict, readers: list) -> list:
    """(module, name) for each module-level function or class of the
    `package` sources (module name -> source) that no source in
    `package` or `readers` reads; a definition reading itself, as a
    recursive function does, does not count."""
    defined, read = [], set()
    for source in readers:
        read |= _reads(ast.parse(source))
    for module, source in package.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, stmt.name))
                read |= _reads(stmt) - {stmt.name}
            else:
                read |= _reads(stmt)
    return sorted((module, name) for module, name in defined
                  if name not in read)


def test_scan_finds_a_dead_definition():
    package = {"a": "def used():\n    return helper()\n"
                    "def helper():\n    return 1\n"
                    "def loop(n):\n    return loop(n - 1)\n"
                    "class Dead:\n    pass\n",
               "b": "def main():\n    return 0\n"}
    readers = ["from a import used\nused()\nimport b\nb.main()\n"]
    assert dead_definitions(package, readers) == [("a", "Dead"), ("a", "loop")]


def test_no_dead_definitions():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = [path.read_text(encoding="utf-8") for path in MODULES
               if path not in PACKAGE]
    assert dead_definitions(package, readers) == []


def _qualified_reads(module: str, node) -> set:
    """(module, name) pairs read under node, in the source of `module`:
    each bare name read, and each name imported from another module by
    `from .m import name` or `from sabcorr.m import name`, under an alias
    too.  An attribute read, `x.name`, may be on any module, so it reads
    (None, name)."""
    reads = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads.add((module, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads.add((None, n.attr))
        elif isinstance(n, ast.ImportFrom) and n.module:
            reads |= {(n.module.split(".")[-1], alias.name)
                      for alias in n.names}
    return reads


def read_only_by_tests(package: dict, readers: dict) -> list:
    """(module, name) for each module-level function or class of the
    `package` sources (module name -> source) that neither the package nor
    the `readers` (module name -> source) read; bare names and imports are
    matched by module.  A definition reading itself does not count."""
    defined, read = [], set()
    for module, source in readers.items():
        read |= _qualified_reads(module, ast.parse(source))
    for module, source in package.items():
        for stmt in ast.parse(source).body:
            reads = _qualified_reads(module, stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, stmt.name))
                reads.discard((module, stmt.name))
            read |= reads
    return sorted((module, name) for module, name in defined
                  if (module, name) not in read and (None, name) not in read)


# Definitions only tests read, each kept on purpose.
READ_ONLY_BY_TESTS = {}


def test_scan_finds_a_definition_only_tests_read():
    package = {"a": "def used():\n    return helper()\n"
                    "def helper():\n    return 1\n"
                    "def loop(n):\n    return loop(n - 1)\n"
                    "def closure():\n    pass\n"
                    "def method():\n    pass\n",
               "b": "def closure():\n    pass\n"}
    readers = {"run": "from a import used\n"
                      "from .b import closure as close\n"
                      "used(close)\nmods['a'].method()\n"}
    assert read_only_by_tests(package, readers) == [("a", "closure"),
                                                    ("a", "loop")]


def test_no_definitions_only_tests_read():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = {path.stem: path.read_text(encoding="utf-8")
               for path in (ROOT / "bench").glob("*.py")}
    assert read_only_by_tests(package, readers) == sorted(READ_ONLY_BY_TESTS)


def cached_functions(source: str) -> list:
    """(line, name) for each module-level function of `source` decorated
    with functools.lru_cache or functools.cache, called or bare, reached
    through the module or imported by name.  Such a cache lives as long as
    the process, so it outlives the command that filled it."""
    out = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in stmt.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name in ("lru_cache", "cache"):
                out.append((stmt.lineno, stmt.name))
    return out


def test_scan_finds_a_process_wide_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=8)\ndef a():\n    pass\n"
              "@lru_cache\ndef b():\n    pass\n"
              "@cache\ndef c():\n    pass\n"
              "@functools.cache\ndef d():\n    pass\n"
              "@functools.wraps(d)\ndef e():\n    pass\n"
              "class K:\n    @functools.cached_property\n"
              "    def f(self):\n        pass\n")
    assert cached_functions(source) == [(4, "a"), (7, "b"), (10, "c"),
                                        (13, "d")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_process_wide_caches(path):
    assert cached_functions(path.read_text(encoding="utf-8")) == []


# ALBA's statements and their printer.  `syntax` defines them, where every
# module that reads them can import them; `semantics`, the modal check,
# takes an inequality as its two sides and so needs none of them.
STATEMENT_NAMES = {"Statement", "Ineq", "MegaGuard", "UQIneq", "QuasiUQ",
                   "print_statement"}


def statement_layering(package: dict) -> list:
    """(module, name, fault) for each of STATEMENT_NAMES that the `package`
    sources (module name -> source) place wrongly: 'missing' from the
    module-level definitions of `syntax`, 'defined' at module level
    anywhere else, or 'used' (imported, or read as a name or an attribute)
    by `semantics`."""
    faults = []
    for module, source in package.items():
        tree = ast.parse(source)
        defined = {stmt.name for stmt in tree.body
                   if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))}
        if module == "syntax":
            faults += [(module, n, "missing")
                       for n in STATEMENT_NAMES - defined]
        else:
            faults += [(module, n, "defined")
                       for n in STATEMENT_NAMES & defined]
        if module == "semantics":
            used = _reads(tree) | {
                alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
            faults += [(module, n, "used") for n in STATEMENT_NAMES & used]
    return sorted(faults)


def test_scan_finds_misplaced_statements():
    package = {"syntax": "class Statement:\n    pass\nclass Ineq:\n    pass\n"
                         "class MegaGuard:\n    pass\n",
               "semantics": "from .syntax import Ineq as I\n"
                            "from . import syntax\nI, syntax.UQIneq\n"
                            "def print_statement(s):\n    pass\n",
               "alba": "class QuasiUQ:\n    pass\n"}
    assert statement_layering(package) == [
        ("alba", "QuasiUQ", "defined"),
        ("semantics", "Ineq", "used"),
        ("semantics", "UQIneq", "used"),
        ("semantics", "print_statement", "defined"),
        ("syntax", "QuasiUQ", "missing"),
        ("syntax", "UQIneq", "missing"),
        ("syntax", "print_statement", "missing")]


def test_statements_live_in_syntax_alone():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert statement_layering(package) == []
