"""Exact coverage by the window test, checked against the triangle-subtraction
check it replaced, against dense rational sampling, and on the degenerate
configurations the window argument has to get right."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topogallery import geom, verifier
from topogallery.complexes import (
    circle_complex,
    complex_to_dnf,
    mobius_complex,
    sphere_complex,
)
from topogallery.compiler import GuardConfig, compile_gallery, embed
from topogallery.formulas import dnf_to_cnf, simplify_cnf
from topogallery.gadgets import build_copy_strip
from topogallery.geom import (
    Point,
    SimplePolygon,
    convex_minus_triangle,
    pt,
    triangulate,
    visibility_fan,
    visible,
)
from topogallery.verifier import (
    _exact_boundary_cover,
    brute_force_min_guards,
    covers,
    off_samples_for,
    on_face_samples,
)


def _fragment_cover(poly, gpts):
    """The exact check that the window test replaced: subtract every fan
    triangle from a triangulation of the polygon; a leftover piece's
    centroid is uncovered, else the boundary edges are interval-checked.
    Returns (covered, witness)."""
    fans = [visibility_fan(poly, g) for g in gpts]
    pieces = [list(t) for t in triangulate(poly)]
    for g, fan in zip(gpts, fans):
        for pc in fan:
            tri = (g, pc.start, pc.end)
            bx0 = min(p.x for p in tri)
            bx1 = max(p.x for p in tri)
            by0 = min(p.y for p in tri)
            by1 = max(p.y for p in tri)
            nxt = []
            for piece in pieces:
                px0 = min(p.x for p in piece)
                px1 = max(p.x for p in piece)
                py0 = min(p.y for p in piece)
                py1 = max(p.y for p in piece)
                if px1 <= bx0 or bx1 <= px0 or py1 <= by0 or by1 <= py0:
                    nxt.append(piece)
                    continue
                nxt.extend(convex_minus_triangle(piece, tri))
            pieces = nxt
        if not pieces:
            break
    for piece in pieces:
        return False, Point(sum(p.x for p in piece) / len(piece),
                            sum(p.y for p in piece) / len(piece))
    boundary = _exact_boundary_cover(poly, gpts, fans)
    return boundary.covered, boundary.uncovered_witness


def _assert_certified(poly, gpts, w):
    assert poly.locate(w) == "in"
    assert not any(visible(poly, g, w) for g in gpts)


def _agree(poly, gpts):
    """Exact covers and the reference give the same verdict; an uncovered
    report carries a certified witness."""
    rep = covers(poly, GuardConfig(tuple(gpts)), mode="exact")
    assert rep.method == "exact-union"
    assert rep.covered == _fragment_cover(poly, gpts)[0]
    if not rep.covered:
        _assert_certified(poly, gpts, rep.uncovered_witness)
    return rep


def square(side=4):
    return SimplePolygon([pt(0, 0), pt(side, 0), pt(side, side), pt(0, side)])


def l_shape():
    return SimplePolygon(
        [pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def comb_polygon():
    return SimplePolygon([
        pt(0, 0), pt(5, 0), pt(5, 2), pt(4, 2), pt(4, 1), pt(3, 1),
        pt(3, 2), pt(2, 2), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def _q(a, b):
    return Fraction(a, b)


# --- differential against the triangle-subtraction reference ---------------

@pytest.mark.parametrize("poly, gpts, covered", [
    (square(), [pt(1, 1)], True),
    (l_shape(), [pt(_q(1, 2), _q(1, 2))], True),
    (l_shape(), [pt(_q(7, 4), _q(1, 2))], False),
    (l_shape(), [pt(_q(7, 4), _q(1, 2)), pt(_q(1, 4), _q(7, 4))], True),
    (l_shape(), [pt(_q(1, 4), _q(7, 4)), pt(_q(7, 4), _q(1, 2))], True),
    (comb_polygon(), [pt(_q(1, 2), _q(3, 2))], False),
], ids=["square", "l-good", "l-bad", "l-two", "l-two-swapped", "comb-one"])
def test_window_test_matches_reference_on_small_polygons(poly, gpts, covered):
    assert _agree(poly, gpts).covered == covered


def test_window_test_matches_reference_in_brute_force(monkeypatch):
    # criterion 8's searches: every exact check they make (guards at
    # polygon vertices, grid points and segment ends) agrees
    checked = []

    def both(poly, config, mode="witness", **kw):
        assert mode == "exact"
        checked.append(config)
        return _agree(poly, list(config.guards))

    monkeypatch.setattr(verifier, "covers", both)
    convex = SimplePolygon([pt(0, 0), pt(3, 1), pt(4, 4), pt(1, 3)])
    assert brute_force_min_guards(convex, 2, grid=(3, 3)) == 1
    assert brute_force_min_guards(comb_polygon(), 3, grid=(10, 4)) == 3
    strip = build_copy_strip()
    ends = [strip.copy.upper_segment.a, strip.copy.upper_segment.b,
            strip.copy.lower_segment.a, strip.copy.lower_segment.b]
    assert brute_force_min_guards(strip.polygon, 2, grid=(6, 6),
                                  extra_candidates=ends) == 2
    assert len(checked) >= 3


def _gallery(k):
    return compile_gallery(simplify_cnf(dnf_to_cnf(complex_to_dnf(k))))


@pytest.mark.parametrize("make_complex", [circle_complex, sphere_complex],
                         ids=["circle", "sphere"])
def test_window_test_matches_reference_on_galleries(make_complex):
    k = make_complex()
    g = _gallery(k)
    rng = random.Random(7)
    for x in on_face_samples(k, 3, rng):
        assert _agree(g.polygon, list(embed(g, x).guards)).covered
    for x in off_samples_for(g.formula, 3, rng):
        assert not _agree(g.polygon, list(embed(g, x).guards)).covered


def test_window_test_matches_reference_on_mobius():
    k = mobius_complex()
    g = _gallery(k)
    rng = random.Random(7)
    x_on = on_face_samples(k, 1, rng)[0]
    x_off = off_samples_for(g.formula, 1, rng)[0]
    assert _agree(g.polygon, list(embed(g, x_on).guards)).covered
    assert not _agree(g.polygon, list(embed(g, x_off).guards)).covered


# --- dense rational sampling -------------------------------------------------

@st.composite
def histograms(draw):
    """An orthogonal histogram of unit columns over [0, w] and 1-3 rational
    guards in its closed columns."""
    heights = draw(st.lists(st.integers(1, 4), min_size=3, max_size=6))
    w = len(heights)
    verts = [pt(0, 0), pt(w, 0)]
    for c in range(w - 1, -1, -1):
        for v in (pt(c + 1, heights[c]), pt(c, heights[c])):
            if v != verts[-1]:
                verts.append(v)
    poly = SimplePolygon(verts)
    gpts = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(0, w - 1))
        den = draw(st.integers(1, 7))
        x = c + Fraction(draw(st.integers(0, den)), den)
        y = Fraction(draw(st.integers(0, den * heights[c])), den)
        gpts.append(Point(x, y))
    return poly, gpts


@settings(max_examples=200)
@given(histograms())
def test_window_test_against_dense_sampling(case):
    poly, gpts = case
    rep = _agree(poly, gpts)
    if rep.covered:
        x1, y1 = poly._bbox[2], poly._bbox[3]
        grid = [Point(Fraction(i, 8), Fraction(j, 8))
                for i in range(int(8 * x1) + 1) for j in range(int(8 * y1) + 1)]
        for p in list(poly.vertices) + grid:
            if poly.locate(p) != "out":
                assert any(visible(poly, g, p) for g in gpts), p


# --- degenerate configurations ------------------------------------------------

def test_collinear_windows_with_facing_hidden_sides():
    # two rooms overlapping along y = 1 for 1 <= x <= 3; the guard at (0, 1)
    # sees exactly the lower room and the guard at (4, 1) the upper one, so
    # their windows lie on one segment and run in opposite directions, and
    # only the opposite-direction rule can cover that segment's sides
    poly = SimplePolygon([pt(0, 0), pt(3, 0), pt(3, 1), pt(4, 1), pt(4, 2),
                          pt(1, 2), pt(1, 1), pt(0, 1)])
    gpts = [pt(0, 1), pt(4, 1)]
    windows = [geom._visibility(poly, g)[2] for g in gpts]
    assert windows == [[(pt(3, 1), pt(1, 1))], [(pt(1, 1), pt(3, 1))]]
    rep = _agree(poly, gpts)
    assert rep.covered and rep.witness_count == 2
    assert not covers(poly, GuardConfig((gpts[0],)), mode="exact").covered


def test_pinhole_whisker_is_not_coverage():
    # the guard at (1, 1) sees the far room (x >= 4) only along y = 1,
    # which grazes the corridor corners (2, 1) and (4, 1)
    poly = SimplePolygon([
        pt(0, 0), pt(2, 0), pt(2, 1), pt(4, 0), pt(4, -1), pt(6, -1),
        pt(6, 2), pt(4, 2), pt(4, 1), pt(2, 2), pt(2, 3), pt(0, 3)])
    g = pt(1, 1)
    assert visible(poly, g, pt(5, 1))
    assert geom.visibility_polygon(poly, g).locate(pt(5, 1)) == "out"
    rep = _agree(poly, [g])
    assert not rep.covered
    assert rep.uncovered_witness.y != 1


@pytest.mark.parametrize("poly, gpts, covered", [
    (l_shape(), [pt(1, 1)], True),
    (l_shape(), [pt(1, 0)], True),
    (l_shape(), [pt(2, _q(1, 2))], False),
    (comb_polygon(), [pt(1, 1), pt(3, 1), pt(4, 1)], True),
    (comb_polygon(), [pt(1, 1), pt(2, 1)], False),
    (comb_polygon(), [pt(_q(1, 2), 2), pt(3, 1), pt(_q(9, 2), 2)], True),
    (comb_polygon(), [pt(_q(1, 2), 2), pt(_q(5, 2), 2), pt(_q(9, 2), 2)], False),
], ids=["l-reflex", "l-edge", "l-edge-uncovered", "comb-reflex",
        "comb-reflex-uncovered", "comb-mixed", "comb-tops-uncovered"])
def test_boundary_viewpoints(poly, gpts, covered):
    # guards at reflex vertices and inside edges look into an exterior cone
    assert _agree(poly, gpts).covered == covered


def test_one_sweep_per_guard(monkeypatch):
    calls = []
    sweep = geom._sweep
    monkeypatch.setattr(geom, "_sweep",
                        lambda poly, p: calls.append(p) or sweep(poly, p))
    poly = l_shape()
    two = GuardConfig((pt(_q(7, 4), _q(1, 2)), pt(_q(1, 4), _q(7, 4))))
    assert covers(poly, two, mode="exact").covered
    assert calls == list(two.guards)
    calls.clear()
    three = GuardConfig((pt(1, 1), pt(2, 1), pt(_q(1, 2), _q(1, 2))))
    assert not covers(comb_polygon(), three, mode="exact").covered
    assert calls == list(three.guards)


def test_cut_windows_at_crossings_touches_and_overlap_ends():
    from topogallery.verifier import _cut_windows
    windows = [
        (0, pt(0, 0), pt(4, 0)),
        (1, pt(3, 0), pt(1, 0)),   # collinear, opposite, inside window 0
        (2, pt(2, 1), pt(2, -1)),  # crosses windows 0 and 1 at (2, 0)
        (2, pt(5, 0), pt(3, 0)),   # collinear, opposite, overlaps [3, 4]
        (3, pt(0, 0), pt(4, 0)),   # collinear, same direction
        (0, pt(_q(1, 2), 1), pt(_q(1, 2), -1)),  # same guard as window 0
    ]
    cut = _cut_windows(windows)
    assert cut[0][0] == [pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0), pt(4, 0)]
    assert cut[1][0] == [pt(3, 0), pt(2, 0), pt(1, 0)]
    assert cut[2][0] == [pt(2, 1), pt(2, 0), pt(2, -1)]
    assert cut[3][0] == [pt(5, 0), pt(4, 0), pt(3, 0)]
    assert cut[4][0] == [pt(0, 0), pt(_q(1, 2), 0)] + cut[0][0][1:]
    assert cut[5][0] == [pt(_q(1, 2), 1), pt(_q(1, 2), 0), pt(_q(1, 2), -1)]
    hs = [(geom.hpoint(a), geom.hpoint(b)) for _, a, b in windows]
    assert cut[0][1] == [hs[1], hs[3]]
    assert cut[1][1] == [hs[0], hs[4]]
    assert cut[4][1] == [hs[1], hs[3]]
