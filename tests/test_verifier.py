"""Tests for coverage checking, gadget verification, brute force search,
solution-space sampling, and surface classification."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from topogallery import verifier
from topogallery.complexes import (
    circle_complex,
    mobius_complex,
    projective_plane_complex,
    sphere_complex,
    torus_complex,
)
from topogallery.compiler import (
    GuardConfig,
    canonical_removed_faces,
    compile_gallery,
    embed,
    surface_fixture,
    surface_formula,
)
from topogallery.formulas import Band, CnfFormula, cnf, eval_formula
from topogallery.gadgets import CopyStrip, Niche, assemble_room, build_copy_strip
from topogallery.geom import Point, SimplePolygon, pt, visible
from topogallery.verifier import (
    CellComplex2,
    VerifyError,
    brute_force_min_guards,
    build_cell_complex,
    classify_surface,
    complex_to_cell_complex,
    covers,
    off_samples_for,
    sample_solution_space,
    verify_copy_gadget,
    _orientable,
)


def square(side=4):
    return SimplePolygon([pt(0, 0), pt(side, 0), pt(side, side), pt(0, side)])


def l_shape():
    return SimplePolygon(
        [pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def comb_polygon():
    # three prongs of width 1 on a base of height 1; needs three guards
    return SimplePolygon([
        pt(0, 0), pt(5, 0), pt(5, 2), pt(4, 2), pt(4, 1), pt(3, 1),
        pt(3, 2), pt(2, 2), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def mobius_eq1():
    return cnf(4, [
        [(0, 0), (1, 0), (2, 1)],
        [(1, 0), (2, 1), (3, 0)],
        [(0, 0), (1, 0), (3, 1)],
        [(2, 0), (2, 1), (3, 0), (3, 1)],
        [(0, 0), (2, 0), (3, 0), (3, 1)],
    ])


# --- covers -----------------------------------------------------------------

def test_covers_convex_single_guard():
    assert covers(square(), GuardConfig((pt(1, 1),))).covered


def test_covers_l_shape():
    poly = l_shape()
    good = GuardConfig((pt(Fraction(1, 2), Fraction(1, 2)),))
    bad = GuardConfig((pt(Fraction(7, 4), Fraction(1, 2)),))
    assert covers(poly, good).covered
    rep = covers(poly, bad)
    assert not rep.covered
    # the exact witness is certified: strictly inside and seen by no guard
    w = rep.uncovered_witness
    assert poly.locate(w) == "in"
    assert not any(visible(poly, g, w) for g in bad.guards)


def test_covers_guard_outside_raises():
    with pytest.raises(VerifyError):
        covers(square(), GuardConfig((pt(10, 10),)))


def test_covers_no_guards_is_uncovered():
    # with no guard there is no window to test; nothing is seen, and a
    # polygon vertex is the witness
    rep = covers(square(), GuardConfig(()))
    assert not rep.covered
    assert rep.uncovered_witness in square().vertices
    assert rep.witness_count == 0


def test_covers_mode_is_exact_only():
    config = GuardConfig((pt(1, 1),))
    assert covers(square(), config, "exact") == covers(square(), config)
    with pytest.raises(VerifyError):
        covers(square(), config, "witness")


def test_covers_monotone_in_guards():
    poly = l_shape()
    g1 = GuardConfig((pt(Fraction(7, 4), Fraction(1, 2)),))
    g2 = GuardConfig((pt(Fraction(7, 4), Fraction(1, 2)),
                      pt(Fraction(1, 4), Fraction(7, 4))))
    assert not covers(poly, g1).covered
    assert covers(poly, g2).covered


def test_covers_boundary_sliver_detected():
    # two guards in the prongs of a 2-prong comb cover all area except a
    # sliver of the base floor? build a simpler case: one guard deep in one
    # prong of the comb leaves the far prong uncovered
    poly = comb_polygon()
    rep = covers(poly, GuardConfig((pt(Fraction(1, 2), Fraction(3, 2)),)))
    assert not rep.covered


# --- gallery coverage ---------------------------------------------------------

def test_gallery_on_off_coverage():
    g = compile_gallery(mobius_eq1())
    x_on = [Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)]
    x_off = [Fraction(1, 2)] * 4
    assert covers(g, embed(g, x_on)).covered
    rep = covers(g, embed(g, x_off))
    assert not rep.covered


def test_gallery_sample_solution_space():
    g = compile_gallery(mobius_eq1())
    k = mobius_complex()
    rep = sample_solution_space(g, k, on_count=18, off_count=20, seed=7,
                                pair_count=20)
    assert rep.passed, rep.lines


def test_sample_checks_each_distinct_off_cell_once(monkeypatch):
    # at seed 2 two of the 8 off-cell draws hit one cell: each distinct
    # cell is checked once, in the order of its first draw, and the report
    # counts distinct cells, out of the formula's 45 off cells
    g = compile_gallery(mobius_eq1())
    k = mobius_complex()
    draws = off_samples_for(g.formula, 8, random.Random(2))
    distinct = [list(x) for x in dict.fromkeys(map(tuple, draws))]
    assert len(distinct) == 7
    checked = []
    cover = verifier.covers
    monkeypatch.setattr(verifier, "covers", lambda gal, guards:
                        checked.append(guards) or cover(gal, guards))
    rep = sample_solution_space(g, k, on_count=0, off_count=8, seed=2,
                                pair_count=0)
    assert rep.passed, rep.lines
    assert checked == [embed(g, x) for x in distinct]
    assert rep.off_checked == 7
    assert "PASS off-cell non-coverage (7 distinct cells of 45)" in rep.lines


def test_sample_catches_a_guard_off_its_segment(monkeypatch):
    # one guard lifted off its row by x_var / 2048 of its column: the
    # metric check, on the row-sorted Hausdorff walk, reports the pairs in
    # which that guard's variable moves most
    g = compile_gallery(mobius_eq1())
    k = mobius_complex()
    rec = g.segments[0]

    def lifted(gal, x):
        guards = list(embed(gal, x).guards)
        p = guards[0]
        guards[0] = Point(p.x, p.y + Fraction(x[rec.var])
                          * gal.segment_width(rec.var) / 2048)
        return GuardConfig(tuple(guards))

    monkeypatch.setattr(verifier, "embed", lifted)
    rep = sample_solution_space(g, k, on_count=0, off_count=0, seed=7,
                                pair_count=50)
    assert not rep.passed
    assert any(l.startswith("FAIL embed metric") for l in rep.lines), rep.lines


def test_sample_report_deterministic():
    g = compile_gallery(mobius_eq1())
    k = mobius_complex()
    r1 = sample_solution_space(g, k, on_count=6, off_count=6, seed=3,
                               pair_count=5)
    r2 = sample_solution_space(g, k, on_count=6, off_count=6, seed=3,
                               pair_count=5)
    assert r1.to_text() == r2.to_text()


# --- copy gadget verification -------------------------------------------------

def test_verify_copy_gadget_canonical():
    strip = build_copy_strip()
    report = verify_copy_gadget(strip, seed=5, samples=8, grid=(12, 10))
    assert report.passed


@pytest.mark.parametrize("mouth, message", [
    ("widened", "unexpectedly covered"),   # mismatched pairs now see AB
    ("narrowed", "equal parameters"),      # equal pairs leave a gap on AB
])
def test_verify_copy_gadget_rejects_tampered_mouth(mouth, message):
    strip = build_copy_strip()
    cg = strip.copy
    dy = (cg.C.y - cg.D.y) / 4
    c, d = ((cg.C, Point(cg.D.x, cg.D.y - dy)) if mouth == "widened"
            else (Point(cg.C.x, cg.C.y - dy), cg.D))
    tampered = replace(cg, C=c, D=d,
                       slit_AB=Niche("left", (c, cg.B, cg.A, d), "AB"))
    niches = tampered.niches() + strip.upper.niches() + strip.lower.niches()
    poly = assemble_room(0, 14, cg.T.y - 2, cg.A.y + 2, niches)
    with pytest.raises(VerifyError, match=message):
        verify_copy_gadget(CopyStrip(poly, strip.upper, strip.lower, tampered),
                           seed=5, samples=8, grid=(12, 10))


def test_copy_strip_brute_force_two_guards():
    strip = build_copy_strip()
    ends = [strip.copy.upper_segment.a, strip.copy.upper_segment.b,
            strip.copy.lower_segment.a, strip.copy.lower_segment.b]
    result = brute_force_min_guards(strip.polygon, 2, grid=(6, 6),
                                    extra_candidates=ends)
    assert result == 2


# --- brute force ---------------------------------------------------------------

def test_brute_force_convex():
    assert brute_force_min_guards(square(), 2, grid=(2, 2)) == 1
    quad = SimplePolygon([pt(0, 0), pt(3, 1), pt(4, 4), pt(1, 3)])
    assert brute_force_min_guards(quad, 2, grid=(2, 2)) == 1


def test_brute_force_comb_needs_three():
    res = brute_force_min_guards(comb_polygon(), 3, grid=(10, 4))
    assert res == 3


def test_brute_force_budget():
    with pytest.raises(VerifyError):
        brute_force_min_guards(comb_polygon(), 3, grid=(30, 30), budget=10)


# --- classification ------------------------------------------------------------

def test_classify_fixtures():
    t = classify_surface(complex_to_cell_complex(torus_complex()))
    assert (t.closed, t.orientable, t.chi, t.genus) == (True, True, 0, 1)
    p = classify_surface(complex_to_cell_complex(projective_plane_complex()))
    assert (p.closed, p.orientable, p.chi) == (True, False, 1)
    m = classify_surface(complex_to_cell_complex(mobius_complex()))
    assert (m.closed, m.orientable, m.chi, m.boundary_circles) == \
        (False, False, 0, 1)
    s = classify_surface(complex_to_cell_complex(sphere_complex()))
    assert (s.closed, s.orientable, s.chi, s.genus) == (True, True, 2, 0)


def test_classify_circle_rejected():
    # a 1-dimensional complex has no 2-cells to classify
    with pytest.raises(VerifyError):
        classify_surface(complex_to_cell_complex(circle_complex()))


def test_surface_formula_classification_small():
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    for n in (2, 3):
        f = surface_formula(fixture, f1, f2, n)
        st = classify_surface(build_cell_complex(f))
        assert st.closed and st.orientable
        assert st.chi == 2 - 2 * n
        assert st.genus == n


def test_surface_formula_band_count_independent_of_n():
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    counts = {n: len(surface_formula(fixture, f1, f2, n).clauses)
              for n in (2, 3, 4, 5)}
    assert len(set(counts.values())) == 1


def test_cap_slice_classification():
    # the x0=0 slice of the surface formula is a once-punctured torus:
    # chi -1, one boundary circle
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    from topogallery.complexes import remove_face
    c1 = remove_face(fixture, f1)
    st = classify_surface(complex_to_cell_complex(c1))
    assert not st.closed
    assert st.boundary_circles == 1
    assert st.chi == -1


def test_orientable_rejects_ambiguous_corner():
    # corners a, b, a, b: every edge shares both endpoints with both
    # neighbours, so no start corner can be read off the cycle
    bnd1 = {"e0": ("a", "b"), "e1": ("b", "a"), "e2": ("a", "b"),
            "e3": ("b", "a")}
    bnd2 = {"f": ("e0", "e1", "e2", "e3"), "g": ("e3", "e2", "e1", "e0")}
    c = CellComplex2(("a", "b"), tuple(bnd1), ("f", "g"), bnd1, bnd2)
    with pytest.raises(VerifyError, match="ambiguous corner"):
        _orientable(c, {e: ["f", "g"] for e in bnd1})


def _pinched_strip():
    # three squares in a row, the first one's top-left corner glued to the
    # last one's bottom-right corner p: connected through edges, but p's
    # link is two separate arcs
    bnd1 = {"a0": ("v0", "v1"), "a1": ("v1", "w1"), "a2": ("w1", "p"),
            "a3": ("p", "v0"), "b0": ("v1", "v2"), "b1": ("v2", "w2"),
            "b2": ("w2", "w1"), "c0": ("v2", "p"), "c1": ("p", "w3"),
            "c2": ("w3", "w2")}
    bnd2 = {"A": ("a0", "a1", "a2", "a3"), "B": ("b0", "b1", "b2", "a1"),
            "C": ("c0", "c1", "c2", "b1")}
    return CellComplex2(("v0", "v1", "v2", "w1", "w2", "w3", "p"),
                        tuple(bnd1), tuple(bnd2), bnd1, bnd2)


def test_classify_rejects_pinched_vertex():
    with pytest.raises(VerifyError, match="pinched vertex p"):
        classify_surface(_pinched_strip())


def test_classify_rejects_isolated_vertex():
    c = complex_to_cell_complex(torus_complex())
    lonely = CellComplex2(c.cells0 + ("lonely",), c.cells1, c.cells2,
                          c.bnd1, c.bnd2)
    with pytest.raises(VerifyError, match="isolated vertex lonely"):
        classify_surface(lonely)


def test_build_cell_complex_empty_slice():
    # an x0-only clause false above x0 = 1/2 empties the slice at x0 = 1
    # and the band below it; every slice still equals the full formula's
    torus = torus_complex()
    f1, f2 = canonical_removed_faces(torus)
    base = surface_formula(torus, f1, f2, 3)
    f = CnfFormula(base.n, base.clauses + ((Band(0),),), base.band_constants)
    c = build_cell_complex(f)
    cells = c.cells0 + c.cells1 + c.cells2
    ks = f.band_constants
    slices = {("pt", b): k for b, k in enumerate(ks)}
    slices.update({("band", b): (ks[b] + ks[b + 1]) / 2
                   for b in range(len(ks) - 1)})
    for key, x0 in slices.items():
        found = {cell[2] for cell in cells if cell[:2] == key}
        expected = {face for face in product((0, 1, None), repeat=f.n - 1)
                    if eval_formula(f, [x0] + [Fraction(1, 2) if v is None
                                               else v for v in face])}
        assert found == expected, key
        assert bool(found) == (key not in {("pt", 2), ("band", 1)}), key


def test_build_cell_complex_rejects_bandless():
    with pytest.raises(VerifyError):
        build_cell_complex(mobius_eq1())


# --- additional spec examples ---------------------------------------------------

def test_gallery_copy_pair_mismatch_detected():
    # start from a satisfying point whose clauses do not depend on the
    # displaced guard, then shift one chain guard by 1/8: the only failure
    # is a certified witness in the mismatched pair's chamber
    g = compile_gallery(mobius_eq1())
    x = [Fraction(0), Fraction(0), Fraction(1), Fraction(1)]
    base = list(embed(g, x).guards)
    pair = next(p for p in g.copy_pairs if p.var == 3)
    rec = g.segments[pair.upper]
    base[pair.upper] = rec.segment.point_at(Fraction(7, 8))
    rep = covers(g, GuardConfig(tuple(base)))
    assert not rep.covered
    w = rep.uncovered_witness
    cp = pair.gadget
    assert cp.A.x <= w.x <= cp.B.x and cp.U.y <= w.y <= cp.A.y
    assert g.polygon.locate(w) == "in"
    for gp in base:
        assert not visible(g.polygon, gp, w)


def test_covers_exact_symmetric_in_guard_order():
    poly = l_shape()
    g1 = pt(Fraction(7, 4), Fraction(1, 2))
    g2 = pt(Fraction(1, 4), Fraction(7, 4))
    a = covers(poly, GuardConfig((g1, g2))).covered
    b = covers(poly, GuardConfig((g2, g1))).covered
    assert a == b is True


def test_build_cell_complex_rejects_solid_band():
    # a band whose slice is 2-dimensional (a solid square times an
    # interval) is not a surface formula
    f = cnf(3, [[("band", 0)]], band_constants=[0, 1])
    with pytest.raises(VerifyError, match="dimension above 1"):
        build_cell_complex(f)


# build_cell_complex's output for genus 2..32 in both families, pinned as
# the sha256 of a canonical text (cells in order, boundaries sorted) taken
# when each slice was still tested face by face with eval_formula

CELL_COMPLEX_DIGESTS = {
    True: "9854a9de1eabd02c6329fe52f04f0461f74d685be4eaca72542898e58f582d1c",
    False: "5a90a5d927e558e2315793b034cc5a50cc33c55bc639b6022b1c7dab94c2d761",
}


@pytest.mark.parametrize("orientable", [True, False],
                         ids=["orientable", "non-orientable"])
def test_build_cell_complex_pinned(orientable):
    fixture = surface_fixture(orientable)
    f1, f2 = canonical_removed_faces(fixture)
    h = hashlib.sha256()
    for n in range(2, 33):
        c = build_cell_complex(surface_formula(fixture, f1, f2, n))
        h.update(repr((c.cells0, c.cells1, c.cells2,
                       sorted(c.bnd1.items(), key=repr),
                       sorted(c.bnd2.items(), key=repr))).encode())
    assert h.hexdigest() == CELL_COMPLEX_DIGESTS[orientable]


@pytest.mark.parametrize("orientable", [True, False],
                         ids=["orientable", "non-orientable"])
def test_build_cell_complex_builds_each_distinct_slice_once(orientable, monkeypatch):
    # the 2n - 1 slices of genus n restrict the clauses to few distinct
    # sets, and each set is filtered and validated once
    validated = []
    validate = verifier.validate_complex
    monkeypatch.setattr(verifier, "validate_complex",
                        lambda k: validated.append(k) or validate(k))
    fixture = surface_fixture(orientable)
    f1, f2 = canonical_removed_faces(fixture)
    for n, want in ((2, 2), (3, 5), (8, 4), (32, 4)):
        validated.clear()
        c = build_cell_complex(surface_formula(fixture, f1, f2, n))
        assert len(validated) == want
        assert len(set(validated)) == want
        assert classify_surface(c).genus == n


def _cell_complex_reference(f):
    """build_cell_complex's cells and boundaries as it assembled them slice
    by slice before the face plans: each slice's faces (those whose centre
    satisfies f at the slice's x0) in str order, each face's boundary
    found again in every slice."""
    ks = f.band_constants
    half = Fraction(1, 2)
    faces = list(product((0, 1, None), repeat=f.n - 1))

    def slice_faces(x0):
        return {face for face in faces if eval_formula(
            f, (x0,) + tuple(half if v is None else v for v in face))}

    def subfaces(face):
        return [face[:i] + (c,) + face[i + 1:]
                for i, v in enumerate(face) if v is None for c in (0, 1)]

    def square_cycle(face, tagged_edges):
        i, j = [k for k, v in enumerate(face) if v is None]
        by_fix = {}
        for e, tag in tagged_edges:
            by_fix[("i", e[i]) if e[i] is not None else ("j", e[j])] = tag
        return (by_fix[("j", 0)], by_fix[("i", 1)], by_fix[("j", 1)], by_fix[("i", 0)])

    cells, bnd1, bnd2 = ([], [], []), {}, {}
    points = [slice_faces(k) for k in ks]
    for b, slice_ in enumerate(points):
        def tag(face, b=b):
            return ("pt", b, face)
        for face in sorted(slice_, key=str):
            d = sum(v is None for v in face)
            cells[d].append(tag(face))
            edges = sorted(set(subfaces(face)), key=str)
            if d == 1:
                bnd1[tag(face)] = tuple(tag(e) for e in edges)
            elif d == 2:
                bnd2[tag(face)] = square_cycle(face, [(e, tag(e)) for e in edges])
    for b in range(len(ks) - 1):
        for face in sorted(slice_faces((ks[b] + ks[b + 1]) / 2), key=str):
            tag = ("band", b, face)
            if all(v is not None for v in face):
                cells[1].append(tag)
                bnd1[tag] = (("pt", b, face), ("pt", b + 1, face))
            else:
                cells[2].append(tag)
                subs = sorted(set(subfaces(face)), key=str)
                bnd2[tag] = (("pt", b, face), ("band", b, subs[1]),
                             ("pt", b + 1, face), ("band", b, subs[0]))
    return cells, bnd1, bnd2


@pytest.mark.parametrize("orientable", [True, False],
                         ids=["orientable", "non-orientable"])
def test_build_cell_complex_matches_the_per_slice_reference(orientable):
    # one face plan per distinct slice gives the cells, boundaries and
    # their order that assembling every slice on its own gave
    fixture = surface_fixture(orientable)
    f1, f2 = canonical_removed_faces(fixture)
    for n in range(2, 9):
        f = surface_formula(fixture, f1, f2, n)
        c = build_cell_complex(f)
        cells, bnd1, bnd2 = _cell_complex_reference(f)
        assert (list(c.cells0), list(c.cells1), list(c.cells2)) == cells
        assert list(c.bnd1.items()) == list(bnd1.items())
        assert list(c.bnd2.items()) == list(bnd2.items())
