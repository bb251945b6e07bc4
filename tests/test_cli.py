"""Tests for file formats and the command line front end."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from topogallery.cli import main
from topogallery.complexes import (
    circle_complex,
    mobius_complex,
    projective_plane_complex,
    torus_complex,
)
from topogallery.compiler import (
    canonical_removed_faces,
    compile_gallery,
    compile_surface,
    surface_formula,
)
from topogallery.files import (
    FileFormatError,
    read_cnf,
    read_complex,
    read_gallery,
    render_svg,
    write_cnf,
    write_complex,
    write_gallery,
)
from topogallery.formulas import cnf


def mobius_eq1():
    return cnf(4, [
        [(0, 0), (1, 0), (2, 1)],
        [(1, 0), (2, 1), (3, 0)],
        [(0, 0), (1, 0), (3, 1)],
        [(2, 0), (2, 1), (3, 0), (3, 1)],
        [(0, 0), (2, 0), (3, 0), (3, 1)],
    ])


def test_complex_roundtrip():
    k = mobius_complex()
    text = write_complex(k)
    k2 = read_complex(text)
    assert k2.faces == k.faces
    assert write_complex(k2) == text


def test_cnf_roundtrip():
    f = mobius_eq1()
    text = write_cnf(f)
    f2 = read_cnf(text)
    assert f2 == f


def test_cnf_roundtrip_with_bands():
    f = cnf(2, [[("band", 0), (1, 1)], [(0, 0)]],
            band_constants=[0, Fraction(1, 3), 1])
    assert read_cnf(write_cnf(f)) == f


def test_gallery_roundtrip_exact():
    g = compile_gallery(mobius_eq1())
    text = write_gallery(g)
    g2 = read_gallery(text)
    assert g2.polygon.vertices == g.polygon.vertices
    assert [r.segment for r in g2.segments] == [r.segment for r in g.segments]
    assert write_gallery(g2) == text


def _edit_first(key, edit):
    """Apply edit to the first record whose key is `key`."""
    def apply(text):
        lines = text.splitlines()
        i = next(i for i, l in enumerate(lines) if l.split(" ")[0] == key)
        lines[i] = edit(lines[i])
        return "\n".join(lines) + "\n"
    return apply


def _swap_first_formula_clauses(text):
    lines = text.splitlines()
    i = next(i for i, l in enumerate(lines) if l.startswith("formula clause"))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n"


MISMATCH = r"gallery record \d+ does not match the recompilation"

# (record type, tamper, expected message) for one edit of each record type
TAMPER_CASES = [
    ("epsilon", lambda t: t.replace("epsilon 1/4", "epsilon 1/8"), MISMATCH),
    ("v", _edit_first("v", lambda l: "v 0/1 0/1"), MISMATCH),
    ("segment", _edit_first("segment", lambda l: l.replace(" pos 0 ", " pos 1 ")),
     MISMATCH),
    ("column", _edit_first("column", lambda l: l.replace("column 0 ", "column 9 ")),
     MISMATCH),
    ("clause-witness",
     _edit_first("clause-witness", lambda l: l.replace(" 0 ", " 1 ", 1)),
     MISMATCH),
    ("metadata", _edit_first("metadata", lambda l: l + " (edited)"), MISMATCH),
    ("vertices", _edit_first("vertices", lambda l: "vertices 3"),
     r"record 9 .*expected 'vertices \d+', found 'vertices 3'"),
    ("formula order", _swap_first_formula_clauses, MISMATCH),
    ("unknown record", lambda t: t + "colour red\n",
     r"expected end of file, found 'colour red'"),
]


def test_gallery_tamper_detected():
    text = write_gallery(compile_gallery(mobius_eq1()))
    for name, tamper, message in TAMPER_CASES:
        bad = tamper(text)
        assert bad != text, name
        with pytest.raises(FileFormatError, match=message):
            read_gallery(bad)


def test_bad_headers():
    with pytest.raises(FileFormatError):
        read_complex("nonsense\n")
    with pytest.raises(FileFormatError):
        read_cnf("nonsense\n")
    with pytest.raises(FileFormatError):
        read_gallery("nonsense\n")


def test_svg_render():
    g = compile_gallery(mobius_eq1())
    svg = render_svg(g)
    assert svg.startswith("<?xml")
    assert "<polygon" in svg
    assert svg.count("<line") == g.k
    assert "authoritative exact data" in svg


# --- CLI ---------------------------------------------------------------------

def test_cli_compile_stats_roundtrip(tmp_path, capsys):
    cpath = tmp_path / "mobius.complex"
    gpath = tmp_path / "mobius.gallery"
    cpath.write_text(write_complex(mobius_complex()))
    assert main(["compile", str(cpath), "-o", str(gpath)]) == 0
    assert main(["stats", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "guards 17" in out
    assert "clauses 5" in out


def test_cli_compile_deterministic(tmp_path):
    cpath = tmp_path / "mobius.complex"
    cpath.write_text(write_complex(mobius_complex()))
    g1 = tmp_path / "a.gallery"
    g2 = tmp_path / "b.gallery"
    main(["compile", str(cpath), "-o", str(g1)])
    main(["compile", str(cpath), "-o", str(g2)])
    assert g1.read_bytes() == g2.read_bytes()


def test_cli_verify_deterministic(tmp_path):
    cpath = tmp_path / "mobius.complex"
    gpath = tmp_path / "mobius.gallery"
    cpath.write_text(write_complex(mobius_complex()))
    main(["compile", str(cpath), "-o", str(gpath)])
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    code1 = main(["verify", str(gpath), "--complex", str(cpath), "--seed", "7",
                  "--on-samples", "4", "--off-samples", "4",
                  "--pair-samples", "4", "-o", str(r1)])
    code2 = main(["verify", str(gpath), "--complex", str(cpath), "--seed", "7",
                  "--on-samples", "4", "--off-samples", "4",
                  "--pair-samples", "4", "-o", str(r2)])
    assert code1 == 0 and code2 == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_classify_complex(tmp_path, capsys):
    cpath = tmp_path / "mobius.complex"
    cpath.write_text(write_complex(mobius_complex()))
    assert main(["classify", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "1 boundary circle" in out
    assert "non-orientable" in out


def test_cli_compile_surface_and_classify(tmp_path, capsys):
    gpath = tmp_path / "g2.gallery"
    assert main(["compile-surface", "--genus", "2", "--orientable",
                 "-o", str(gpath)]) == 0
    g = read_gallery(gpath.read_text())
    fpath = tmp_path / "g2.cnf"
    fpath.write_text(write_cnf(g.formula))
    assert main(["classify", str(fpath)]) == 0
    out = capsys.readouterr().out
    assert "closed orientable genus 2 (chi = -2)" in out


def test_cli_render(tmp_path):
    cpath = tmp_path / "mobius.complex"
    gpath = tmp_path / "mobius.gallery"
    spath = tmp_path / "mobius.svg"
    cpath.write_text(write_complex(mobius_complex()))
    main(["compile", str(cpath), "-o", str(gpath)])
    assert main(["render", str(gpath), "-o", str(spath)]) == 0
    assert spath.read_text().startswith("<?xml")


def test_cli_bad_input_exit_code(tmp_path):
    bad = tmp_path / "bad.complex"
    bad.write_text("garbage\n")
    assert main(["compile", str(bad)]) == 2


def _gallery_text():
    return write_gallery(compile_gallery(cnf(1, [[(0, 0)]])))


@pytest.mark.parametrize("suffix, command, make_text", [
    (".cnf", "compile",
     lambda: write_cnf(cnf(1, [[(0, 0)]])).replace("nvars 1", "nvars two")),
    (".cnf", "compile",
     lambda: write_cnf(cnf(1, [[(0, 0)]])).replace("x0=0", "xq=0")),
    (".cnf", "compile",
     lambda: write_cnf(cnf(1, [[(0, 0)]])).replace("x0=0", "x0=0=1")),
    (".complex", "compile",
     lambda: write_complex(circle_complex()).replace("dimension 2",
                                                     "dimension x")),
    (".gallery", "stats",
     lambda: _gallery_text().replace("formula clause x0=0",
                                     "formula clause bandz")),
    (".gallery", "stats",
     lambda: _gallery_text().replace("formula nvars 1", "formula nvars two")),
    (".gallery", "stats",
     lambda: _edit_first("v", lambda l: l + " 0/1")(_gallery_text())),
    (".gallery", "stats",
     lambda: _gallery_text().replace("epsilon 1/4", "epsilon -1/4")),
], ids=["nvars", "literal-var", "literal-equals", "dimension", "band-index",
        "formula-nvars", "v-three-tokens", "negative-epsilon"])
def test_cli_malformed_input_exit_code(tmp_path, capsys, suffix, command,
                                       make_text):
    path = tmp_path / ("bad" + suffix)
    path.write_text(make_text())
    assert main([command, str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_verify_dimension_mismatch(tmp_path, capsys):
    gpath = tmp_path / "one.gallery"
    cpath = tmp_path / "mobius.complex"
    gpath.write_text(_gallery_text())
    cpath.write_text(write_complex(mobius_complex()))
    assert main(["verify", str(gpath), "--complex", str(cpath)]) == 2
    assert "input error: complex dimension does not match gallery formula" \
        in capsys.readouterr().err


def test_cli_verify_audits_once(tmp_path, capsys, monkeypatch):
    # read_gallery's recompilation already audits the gallery; verify must
    # not audit it a second time
    import topogallery.compiler as compiler
    gpath = tmp_path / "one.gallery"
    gpath.write_text(_gallery_text())
    calls = []
    audit = compiler._audit
    monkeypatch.setattr(compiler, "_audit",
                        lambda g: calls.append(g) or audit(g))
    assert main(["verify", str(gpath)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        "PASS structural audit", "RESULT PASS"]


@pytest.mark.parametrize("args, message", [
    (["--genus", "-1", "--orientable"], "genus must be nonnegative"),
    (["--genus", "0", "--non-orientable"],
     "there is no non-orientable surface of genus 0"),
])
def test_cli_compile_surface_impossible_genus(capsys, args, message):
    assert main(["compile-surface"] + args) == 2
    assert f"input error: {message}" in capsys.readouterr().err


def test_cli_compile_banded_cnf(tmp_path):
    torus = torus_complex()
    f1, f2 = canonical_removed_faces(torus)
    fpath = tmp_path / "torus2.cnf"
    gpath = tmp_path / "torus2.gallery"
    fpath.write_text(write_cnf(surface_formula(torus, f1, f2, 2)))
    assert main(["compile", str(fpath), "-o", str(gpath)]) == 0
    assert gpath.read_bytes() == \
        write_gallery(compile_surface(2, True)).encode("utf-8")


# Two square cells glued along all four edges, each with corners a, b, a, d:
# consecutive edges share both endpoints, so only the rule "shared with the
# previous edge, not with the next" fixes each edge's start corner.
_HASHSEED_SCRIPT = """
import sys
from fractions import Fraction
from topogallery import circle_complex, compile_gallery, covers, embed
from topogallery.cli import main
from topogallery.complexes import complex_to_dnf
from topogallery.formulas import cnf_of_dnf_pruned
from topogallery.verifier import CellComplex2, _orientable
main(["compile", sys.argv[1]])
main(["classify", sys.argv[2]])
g = compile_gallery(cnf_of_dnf_pruned(complex_to_dnf(circle_complex())))
print("exact", covers(g, embed(g, [Fraction(1, 2)] * 2), mode="exact"))
bnd1 = {"e0": ("a", "b"), "e1": ("b", "a"), "e2": ("a", "d"), "e3": ("d", "a")}
bnd2 = {"f": ("e0", "e1", "e2", "e3"), "g": ("e3", "e2", "e1", "e0")}
c = CellComplex2(("a", "b", "d"), tuple(bnd1), ("f", "g"), bnd1, bnd2)
print("pinched cells orientable", _orientable(c, {e: ["f", "g"] for e in bnd1}))
"""


def test_output_independent_of_hash_seed(tmp_path):
    cpath = tmp_path / "mobius.complex"
    cpath.write_text(write_complex(mobius_complex()))
    rp2 = projective_plane_complex()
    f1, f2 = canonical_removed_faces(rp2)
    fpath = tmp_path / "n2.cnf"
    fpath.write_text(write_cnf(surface_formula(rp2, f1, f2, 2)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT, str(cpath), str(fpath)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0] == "topogallery gallery v1"
    assert lines[-3] == "closed non-orientable genus 2 (chi = 0)"
    assert lines[-2].startswith("exact CoverageReport(covered=False, ")
    assert lines[-1] == "pinched cells orientable True"


def test_cli_unsat_exit_code(tmp_path):
    fpath = tmp_path / "unsat.cnf"
    fpath.write_text(write_cnf(cnf(1, [[(0, 0)], [(0, 1)]])))
    assert main(["compile", str(fpath), "-o", "-"]) == 3


def test_cli_epsilon_env_default(tmp_path, monkeypatch):
    from topogallery.files import read_gallery as rg
    cpath = tmp_path / "tiny.cnf"
    gpath = tmp_path / "tiny.gallery"
    cpath.write_text(write_cnf(cnf(1, [[(0, 0)]])))
    monkeypatch.setenv("TOPOGALLERY_EPSILON", "1/8")
    assert main(["compile", str(cpath), "-o", str(gpath)]) == 0
    g = rg(gpath.read_text())
    assert g.epsilon == Fraction(1, 8)
