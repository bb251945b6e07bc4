"""Source hygiene: no module under src/ or tests/ imports a name it never
reads, unless `__all__` exports it; and no module under src/ other than
`geom` imports a private name of `geom`, so the homogeneous-triple kernel
stays behind geom's public functions."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_unused_import_scan():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import re\nfrom x import a, b as c, d\n"
                     "__all__ = ['a']\nprint(re, d)\n")
    assert _unused_imports(tree) == ["c", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _private_geom_imports(tree: ast.Module) -> list[str]:
    return sorted(a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[-1] == "geom"
                  for a in node.names if a.name.startswith("_"))


def test_private_geom_import_scan():
    tree = ast.parse("from .geom import Point, _hmid\n"
                     "from topogallery.geom import _ibox as box\n"
                     "from .geometry import _x\nfrom . import geom\n")
    assert _private_geom_imports(tree) == ["_hmid", "_ibox"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "geom.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_geom_imports(path):
    assert _private_geom_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
