"""Source hygiene: no module under src/ or tests/ imports a name it never
reads, unless `__all__` exports it; and no module under src/ other than
`geom` imports a private name of `geom` or reads a private slot of a
`SimplePolygon`, so the homogeneous-triple kernel stays behind geom's
public functions and properties; and no private function or class
defined under src/ goes unreferenced there; and every code name that
README.md puts in backticks still resolves in the package."""

import ast
import importlib
import re
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import topogallery
from topogallery.geom import SimplePolygon

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


def _private_slots(tree: ast.Module) -> set[str]:
    """The names in `SimplePolygon.__slots__` that start with "_"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SimplePolygon":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets):
                    return {n for n in ast.literal_eval(stmt.value)
                            if n.startswith("_")}
    return set()


def _private_slot_reads(tree: ast.Module, slots: set[str]) -> list[str]:
    return sorted(node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in slots)


def test_private_slot_scan():
    geom = ast.parse("class SimplePolygon:\n"
                     "    __slots__ = ('_h', 'open', '_bbox')\n"
                     "class Other:\n    __slots__ = ('_x',)\n")
    slots = _private_slots(geom)
    assert slots == {"_h", "_bbox"}
    tree = ast.parse("x0 = poly._bbox[0]\nh = g.polygon._h\n"
                     "b = poly.bbox\nq = other._x\nr = poly.open\n")
    assert _private_slot_reads(tree, slots) == ["_bbox", "_h"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "geom.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_slot_reads(path):
    slots = _private_slots(ast.parse(
        (ROOT / "src" / "topogallery" / "geom.py").read_text(encoding="utf-8")))
    assert slots
    assert _private_slot_reads(ast.parse(path.read_text(encoding="utf-8")),
                               slots) == []


def _unreferenced_private_defs(trees: list[ast.Module]) -> list[str]:
    """The private functions, methods and classes (named with a leading
    "_", dunders excepted) defined in trees whose name is read nowhere in
    them, as a name or an attribute, outside their own body."""
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]

    def reads(root):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(root)
                       if isinstance(node, (ast.Name, ast.Attribute)))

    total = sum(map(reads, trees), Counter())
    own = Counter()
    for node in defs:
        own[node.name] += reads(node)[node.name]
    return sorted({node.name for node in defs
                   if total[node.name] == own[node.name]})


def test_unreferenced_private_def_scan():
    trees = [ast.parse("def _used():\n    pass\n"
                       "def _dead():\n    _used()\n"
                       "def _recursive(k):\n    return _recursive(k - 1)\n"
                       "class _Gone:\n    pass\n"),
             ast.parse("class P:\n"
                       "    def __init__(self):\n        self._m()\n"
                       "    def _m(self):\n        pass\n"
                       "    def _n(self):\n        pass\n")]
    assert _unreferenced_private_defs(trees) == ["_Gone", "_dead", "_n",
                                                 "_recursive"]


def test_no_unreferenced_private_defs():
    assert _unreferenced_private_defs(
        [ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE]) == []


# README's backticked names that are no attribute of the package: CLI
# commands, the clearance environment variable, and a BENCH file key
NOT_ATTRIBUTES = {"compile", "verify", "TOPOGALLERY_EPSILON", "notes"}


def _readme_code_names(text: str) -> list[str]:
    """The backticked spans of text that are Python names or dotted
    paths, a trailing "()" dropped."""
    return sorted(set(re.findall(r"`([A-Za-z_][\w.]*?)(?:\(\))?`", text)))


# the package and its modules by name, and every dataclass field in them
NAMESPACE = {"topogallery": topogallery} | {
    p.stem: importlib.import_module(f"topogallery.{p.stem}")
    for p in PACKAGE if p.stem != "__init__"}
FIELDS = {f.name for m in NAMESPACE.values() for v in vars(m).values()
          if isinstance(v, type) and is_dataclass(v) for f in fields(v)}


def _resolves(name: str) -> bool:
    """True iff name, after an optional "topogallery." prefix, is the
    package or one of its modules, or an attribute of one of them or of
    `SimplePolygon`, followed by attributes of that; or a dataclass field
    of the package."""
    head, *rest = name.removeprefix("topogallery.").split(".")
    if head in NAMESPACE:
        obj = NAMESPACE[head]
    else:
        owner = next((o for o in [*NAMESPACE.values(), SimplePolygon]
                      if hasattr(o, head)), None)
        if owner is None:
            return not rest and head in FIELDS
        obj = getattr(owner, head)
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_code_name_scan():
    text = ("`geom._cut_window` and `_locate_h`, `covers()`, "
            "`topogallery.verifier`, `witness_count`, `--epsilon`, "
            "`tests/test_rooms.py`, `geom._gone`, `SimplePolygon.nothing`, "
            "`_gone()`")
    names = _readme_code_names(text)
    assert names == ["SimplePolygon.nothing", "_gone", "_locate_h", "covers",
                     "geom._cut_window", "geom._gone", "topogallery.verifier",
                     "witness_count"]
    assert [n for n in names if not _resolves(n)] == [
        "SimplePolygon.nothing", "_gone", "geom._gone"]


def test_readme_code_names_resolve():
    names = _readme_code_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert NOT_ATTRIBUTES <= set(names)
    assert [n for n in names if n not in NOT_ATTRIBUTES and not _resolves(n)] == []
