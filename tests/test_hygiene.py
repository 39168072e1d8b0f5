"""Dead-code checks on the package source, with the standard library only.

A deletion that leaves an import or a private helper behind fails here:
every name a module imports is used in that module, and every private
top-level function or class is referenced somewhere in src/ outside its
own body.  The package __init__ only re-exports, and from __future__
imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twodist"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def used_names(nodes):
    """The names loaded in the given trees and the attributes read."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def imported(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = parse(path)
    body = [node for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))]
    used = used_names(body)
    assert [name for name in imported(tree) if name not in used] == []


def test_every_private_definition_is_referenced():
    trees = {path.stem: parse(path) for path in MODULES}
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            others = [other for s, t in trees.items() for other in t.body
                      if not (s == stem and other is node)]
            names = used_names(others)
            names.update(alias.name for other in others
                         if isinstance(other, ast.ImportFrom)
                         for alias in other.names)
            if node.name not in names:
                unused.append("%s.%s" % (stem, node.name))
    assert unused == []


def test_float_spectra_have_one_lapack_entry_point():
    # every eigendecomposition in src/ goes through linalg._eigh or
    # linalg._eigvalsh: no numpy eigh or eigvalsh, wrapper or gufunc, is
    # named anywhere else, and only they read numpy's _umath_linalg
    helpers = {"_eigh", "_eigvalsh"}
    banned = {"eigh", "eigvalsh", "eigh_lo", "eigh_up", "eigvalsh_lo",
              "eigvalsh_up", "_umath_linalg"}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        inside = set()
        if path.stem == "linalg":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name in helpers:
                    inside.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names
                         if alias.name != "_umath_linalg"]
            else:
                continue
            if banned.intersection(names):
                stray.append("%s:%d" % (path.stem, node.lineno))
    assert stray == []
