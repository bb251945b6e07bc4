"""Tests for gallery compilation, embedding, and surface formulas."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from topogallery.complexes import (
    circle_complex,
    complex_to_dnf,
    mobius_complex,
    sphere_complex,
    torus_complex,
)
from topogallery.compiler import (
    CompileError,
    Gallery,
    canonical_removed_faces,
    compile_gallery,
    compile_surface,
    embed,
    surface_formula,
    vertex_count,
)
from topogallery.formulas import (
    Band,
    VarEq,
    cnf,
    dnf_to_cnf,
    eval_formula,
    simplify_cnf,
)
from topogallery.geom import Point, Segment, hausdorff_distance_sq_max, visible


def mobius_eq1():
    return cnf(4, [
        [(0, 0), (1, 0), (2, 1)],
        [(1, 0), (2, 1), (3, 0)],
        [(0, 0), (1, 0), (3, 1)],
        [(2, 0), (2, 1), (3, 0), (3, 1)],
        [(0, 0), (2, 0), (3, 0), (3, 1)],
    ])


# --- compile -----------------------------------------------------------------

def test_compile_mobius_guard_count():
    g = compile_gallery(mobius_eq1())
    assert g.k == 17
    # vertex count is layout-dependent; the paper's hand drawing has 183
    assert 100 < vertex_count(g) < 600


def test_compile_single_literal():
    g = compile_gallery(cnf(1, [[(0, 0)]]))
    assert g.k == 1
    assert g.segments[0].designation == "left"


def test_compile_rejects_unsat():
    with pytest.raises(CompileError, match="unsatisfiable"):
        compile_gallery(cnf(1, [[(0, 0)], [(0, 1)]]))


def test_compile_rejects_bands():
    f = cnf(1, [[("band", 0)]], band_constants=[0, 1])
    with pytest.raises(CompileError):
        compile_gallery(f)


def test_compile_bad_epsilon():
    with pytest.raises(CompileError):
        compile_gallery(mobius_eq1(), epsilon=0)


def test_vertex_count_monotone_in_literals():
    base = cnf(2, [[(0, 0)], [(1, 1)]])
    bigger = cnf(2, [[(0, 0)], [(1, 1), (0, 1)]])
    assert vertex_count(compile_gallery(bigger)) > \
        vertex_count(compile_gallery(base))


def test_audit_rerunnable():
    g = compile_gallery(mobius_eq1())
    g.audit()  # no exception


# --- embed -------------------------------------------------------------------

def test_embed_left_endpoints():
    g = compile_gallery(mobius_eq1())
    gc = embed(g, [Fraction(0)] * 4)
    for rec, guard in zip(g.segments, gc.guards):
        assert guard == rec.segment.a


def test_embed_dimension_checks():
    g = compile_gallery(mobius_eq1())
    with pytest.raises(CompileError):
        embed(g, [Fraction(0)] * 3)
    with pytest.raises(CompileError):
        embed(g, [Fraction(2), 0, 0, 0])


def test_embed_metric_equality():
    g = compile_gallery(mobius_eq1())
    rng = random.Random(31)
    sep_sq = g.separation_sq()
    widths = {v: g.segment_width(v) for v in g.columns}
    checked = 0
    while checked < 40:
        x = [Fraction(rng.randint(0, 64), 64) for _ in range(4)]
        x2 = [min(Fraction(1), max(Fraction(0),
                                   xi + Fraction(rng.randint(-8, 8), 1024)))
              for xi in x]
        if x == x2:
            continue
        expected = max(widths[v] * abs(x[v] - x2[v]) for v in range(4)) ** 2
        if expected == 0 or expected > sep_sq:
            continue
        d2 = hausdorff_distance_sq_max(embed(g, x).guards, embed(g, x2).guards)
        assert d2 == expected
        assert d2 > 0
        checked += 1


def test_embedded_on_face_point_sees_designated_witnesses():
    g = compile_gallery(mobius_eq1())
    x = [Fraction(0), Fraction(0), Fraction(1), Fraction(1)]
    assert eval_formula(g.formula, x)
    gc = embed(g, x)
    for cg in g.clause_gadgets:
        assert any(visible(g.polygon, p, cg.witness_point) for p in gc.guards)


# --- surface formulas ----------------------------------------------------------

def test_surface_formula_validation():
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    with pytest.raises(CompileError):
        surface_formula(fixture, f1, f1, 3)
    with pytest.raises(CompileError):
        surface_formula(fixture, f1, f2, 1)
    vertex_face = next(f for f in fixture.faces if f.count(None) == 0)
    with pytest.raises(CompileError):
        surface_formula(fixture, f1, vertex_face, 3)


def test_surface_formula_clause_count_constant():
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    sizes = {n: len(surface_formula(fixture, f1, f2, n).clauses)
             for n in range(2, 7)}
    assert len(set(sizes.values())) == 1


def test_surface_formula_band_terms():
    # every band appears somewhere, and the number of x0 terms grows by a
    # constant per genus step (this is what keeps vertex counts affine)
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    totals = {}
    for n in (2, 3, 4, 5):
        f = surface_formula(fixture, f1, f2, n)
        totals[n] = sum(
            1 for cl in f.clauses for lit in cl
            if isinstance(lit, Band) or (isinstance(lit, VarEq) and lit.var == 0))
        bands_used = {lit.index for cl in f.clauses for lit in cl
                      if isinstance(lit, Band)}
        assert bands_used == set(range(n - 1))
    diffs = {totals[n + 1] - totals[n] for n in (2, 3, 4)}
    assert len(diffs) == 1


def test_surface_formula_solution_matches_bands():
    # on an interior band, membership alternates between the two rims
    fixture = torus_complex()
    f1, f2 = canonical_removed_faces(fixture)
    f = surface_formula(fixture, f1, f2, 3)
    ks = f.band_constants
    mid0 = (ks[0] + ks[1]) / 2
    # a point of the f1 boundary stays in the solution set on band 1
    from topogallery.complexes import face_with_boundary
    b1 = face_with_boundary(fixture, f1)
    rim_face = next(fc for fc in b1.faces if fc.count(None) == 1)
    x = [Fraction(1, 2) if v is None else Fraction(v) for v in rim_face]
    assert eval_formula(f, [mid0] + x)
    # while the open face interior of f1 is not
    x_int = [Fraction(1, 2) if v is None else Fraction(v) for v in f1]
    assert not eval_formula(f, [mid0] + x_int)
    # at the cap x0 = 0 the f2 disk is present and f1's interior is not
    x2_int = [Fraction(1, 2) if v is None else Fraction(v) for v in f2]
    assert eval_formula(f, [Fraction(0)] + x2_int)
    assert not eval_formula(f, [Fraction(0)] + x_int)


def test_compile_surface_small():
    g = compile_surface(2, True)
    assert g.formula.band_constants[0] == 0
    assert g.formula.band_constants[-1] == 1
    # band rulers exist for variable 0
    rulers = [r for r in g.segments if r.designation == "band"]
    assert rulers
    for r in rulers:
        assert r.var == 0


def test_compile_surface_genus0_and_1():
    g0 = compile_surface(0, True)
    assert g0.k > 0
    with pytest.raises(CompileError):
        compile_surface(0, False)
    g1 = compile_surface(1, False)
    assert g1.k > 0


def test_surface_gallery_band_coverage():
    # a guard configuration inside band 0 covers the gallery iff the point
    # satisfies the formula there
    g = compile_surface(2, True)
    f = g.formula
    ks = f.band_constants
    from topogallery.complexes import face_with_boundary, torus_complex
    from topogallery.verifier import covers
    fixture = torus_complex()
    fc1, fc2 = canonical_removed_faces(fixture)
    b1 = face_with_boundary(fixture, fc1)
    rim_face = next(fcx for fcx in b1.faces if fcx.count(None) == 1)
    x_rim = [Fraction(1, 2) if v is None else Fraction(v) for v in rim_face]
    mid = (ks[0] + ks[1]) / 2
    x = [mid] + x_rim
    assert eval_formula(f, x)
    assert covers(g, embed(g, x)).covered
    x_bad = [mid] + [Fraction(1, 2) if v is None else Fraction(v) for v in fc1]
    assert not eval_formula(f, x_bad)
    assert not covers(g, embed(g, x_bad)).covered


# --- the sampling checks against their all-pairs references --------------------

SAMPLED = ["circle", "sphere", "mobius", "orientable-2", "non-orientable-2"]


@lru_cache(maxsize=None)
def _sampled_gallery(name):
    """A gallery the sampling checks run on, compiled once per session."""
    makers = {"circle": circle_complex, "sphere": sphere_complex,
              "mobius": mobius_complex}
    if name in makers:
        return compile_gallery(simplify_cnf(dnf_to_cnf(complex_to_dnf(
            makers[name]()))))
    return compile_surface(2, name == "orientable-2")


def _separation_sq_reference(g):
    """Every pair of rows, on integers over one common denominator."""
    segs = [r.segment for r in g.segments]
    assert all(s.a.y == s.b.y and s.a.x < s.b.x for s in segs)
    den = lcm(*(v.denominator for s in segs for v in (s.a.x, s.b.x, s.a.y)))
    rows = [(int(s.a.x * den), int(s.b.x * den), int(s.a.y * den))
            for s in segs]
    best = min(max(lo2 - hi1, lo1 - hi2, 0) ** 2 + (y1 - y2) ** 2
               for (lo1, hi1, y1), (lo2, hi2, y2) in combinations(rows, 2))
    return Fraction(best, 4 * den * den)


@pytest.mark.parametrize("name", SAMPLED)
def test_embed_matches_point_at_on_every_segment(name):
    g = _sampled_gallery(name)
    n = g.formula.n
    rng = random.Random(27)
    xs = [[Fraction(0)] * n, [Fraction(1)] * n] + [
        [Fraction(rng.randint(0, 2048), 2048) for _ in range(n)]
        for _ in range(4)]
    for x in xs:
        assert embed(g, x).guards == tuple(
            rec.segment.point_at(x[rec.var]) for rec in g.segments), x


_row = st.builds(
    lambda lo, length, y: (Fraction(lo, 4), Fraction(lo + length, 4),
                           Fraction(y, 10)),
    st.integers(0, 12), st.integers(1, 6), st.integers(0, 24))


@settings(max_examples=200)
# the nearest pair is not adjacent in height, and its dy exceeds the
# distance of the adjacent pair but not its square root
@example([(Fraction(0), Fraction(1), Fraction(0)),
          (Fraction(3, 2), Fraction(2), Fraction(1, 10)),
          (Fraction(0), Fraction(1), Fraction(3, 10))])
@given(st.lists(_row, min_size=2, max_size=12))
def test_separation_sq_matches_all_pairs_on_random_rows(rows):
    # rows (lo, hi, y) in a stand-in with the one attribute the sweep reads
    g = SimpleNamespace(segments=[
        SimpleNamespace(segment=Segment(Point(lo, y), Point(hi, y)))
        for lo, hi, y in rows])
    assert Gallery.separation_sq(g) == _separation_sq_reference(g)


@pytest.mark.parametrize("name", SAMPLED[:-1])
def test_separation_sq_matches_all_pairs(name):
    # non-orientable genus 2 is checked by the scaling test below
    g = _sampled_gallery(name)
    assert g.separation_sq() == _separation_sq_reference(g)


def test_sampling_checks_scale_to_non_orientable_genus_2():
    # 446 guards: the row sweep gives the all-pairs separation, and ten
    # embedded pairs below it give the Hausdorff distance max(width * dx)^2
    # exactly, as `sample_solution_space` checks them
    g = _sampled_gallery("non-orientable-2")
    assert g.k == 446
    sep_sq = g.separation_sq()
    assert sep_sq == _separation_sq_reference(g)
    widths = {v: g.segment_width(v) for v in g.columns}
    rng = random.Random(27)
    checked = 0
    while checked < 10:
        x = [Fraction(rng.randint(1, 63), 64) for _ in range(g.formula.n)]
        x2 = [a + Fraction(rng.randint(-16, 16), 2048) for a in x]
        expected = max(w * abs(x[v] - x2[v]) for v, w in widths.items()) ** 2
        if expected == 0 or expected > sep_sq:
            continue
        d2 = hausdorff_distance_sq_max(embed(g, x).guards, embed(g, x2).guards)
        assert d2 == expected, (x, x2)
        checked += 1
