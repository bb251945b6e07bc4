"""Tests for the exact geometry kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topogallery.geom import (
    GeometryError,
    Point,
    SimplePolygon,
    hausdorff_distance_sq_max,
    intersect_lines,
    invert_through,
    orient,
    polygon_area2,
    pt,
    triangulate,
    visibility_fan,
    visibility_polygon,
    visible,
)


def square(side=1):
    return SimplePolygon([pt(0, 0), pt(side, 0), pt(side, side), pt(0, side)])


def l_shape():
    # L-shaped hexagon with reflex corner at (1,1)
    return SimplePolygon(
        [pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def rand_frac(rng, lo=-8, hi=8, den=16):
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_point(rng, lo=-8, hi=8):
    return Point(rand_frac(rng, lo, hi), rand_frac(rng, lo, hi))


# --- orient ---------------------------------------------------------------

def test_orient_examples():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1


def test_orient_antisymmetry():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_point(rng) for _ in range(3))
        o = orient(a, b, c)
        assert orient(b, a, c) == -o
        assert orient(a, c, b) == -o
        assert orient(c, b, a) == -o


# --- intersect_lines ------------------------------------------------------

def test_intersect_axes():
    p = intersect_lines(pt(-1, 0), pt(1, 0), pt(0, -1), pt(0, 1))
    assert p == pt(0, 0)


def test_intersect_known():
    p = intersect_lines(pt(0, 1), pt(1, 1), pt(0, 0), pt(1, 2))
    assert p == pt(Fraction(1, 2), 1)


def test_intersect_parallel_raises():
    with pytest.raises(GeometryError):
        intersect_lines(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))
    with pytest.raises(GeometryError):
        intersect_lines(pt(0, 0), pt(0, 0), pt(0, 1), pt(1, 1))


def test_intersect_random_residual_zero():
    # the intersection must satisfy both line equations exactly
    rng = random.Random(2)
    done = 0
    while done < 100:
        p1, p2, q1, q2 = (rand_point(rng) for _ in range(4))
        if p1 == p2 or q1 == q2:
            continue
        try:
            x = intersect_lines(p1, p2, q1, q2)
        except GeometryError:
            continue
        assert orient(p1, p2, x) == 0
        assert orient(q1, q2, x) == 0
        done += 1


# --- invert_through -------------------------------------------------------

def test_invert_point_reflection():
    assert invert_through(pt(0, 0), pt(3, 1), Fraction(-1)) == pt(-3, -1)


def test_invert_ratio_identity_fixed():
    z = pt(0, -1)
    a, b, c = pt(0, 1), pt(1, 1), pt(2, 1)
    fa = invert_through(z, a, Fraction(-3))
    fb = invert_through(z, b, Fraction(-3))
    fc = invert_through(z, c, Fraction(-3))
    lhs = (b.x - a.x) / (c.x - a.x)
    rhs = (fb.x - fa.x) / (fc.x - fa.x)
    assert lhs == rhs


def test_invert_matches_line_intersection():
    rng = random.Random(3)
    for _ in range(100):
        zx = rand_frac(rng)
        zy = Fraction(rng.randint(1, 19), 20) * 5  # strictly inside (0, 5)
        if zy == 0 or zy == 5:
            continue
        z = Point(zx, zy)
        p = Point(rand_frac(rng), Fraction(0))
        img = invert_through(z, p, Fraction(5))
        via_lines = intersect_lines(p, z, pt(-10, 5), pt(10, 5))
        assert img == via_lines


def test_invert_involution():
    rng = random.Random(4)
    for _ in range(100):
        z = Point(rand_frac(rng), Fraction(1))
        p = Point(rand_frac(rng), Fraction(0))
        fwd = invert_through(z, p, Fraction(3))
        back = invert_through(z, fwd, Fraction(0))
        assert back == p


def test_invert_preconditions():
    with pytest.raises(GeometryError):
        invert_through(pt(0, 0), pt(1, 0), Fraction(1))  # pivot on source line
    with pytest.raises(GeometryError):
        invert_through(pt(0, 3), pt(1, 0), Fraction(2))  # pivot not between


# --- hausdorff ------------------------------------------------------------

def test_hausdorff_examples():
    a = [pt(0, 0), pt(1, 1)]
    assert hausdorff_distance_sq_max(a, a) == 0
    assert hausdorff_distance_sq_max([pt(0, 0)], [pt(3, 4)]) == 25
    assert hausdorff_distance_sq_max([pt(0, 0)], [pt(0, 0), pt(1, 0)]) == 1


def test_hausdorff_empty_raises():
    with pytest.raises(GeometryError):
        hausdorff_distance_sq_max([], [pt(0, 0)])


def _hausdorff_reference(a, b):
    """The Fraction definition: max over both directions of the largest
    nearest-point squared distance."""
    def dist_sq(p, q):
        return (p.x - q.x) ** 2 + (p.y - q.y) ** 2

    def directed(src, dst):
        return max(min(dist_sq(p, q) for q in dst) for p in src)

    return max(directed(a, b), directed(b, a))


rational_points = st.builds(
    Point,
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.fractions(min_value=-8, max_value=8, max_denominator=12))


@settings(max_examples=200)
@given(st.lists(rational_points, min_size=1, max_size=6),
       st.lists(rational_points, min_size=1, max_size=6))
def test_hausdorff_matches_fraction_definition(a, b):
    d = hausdorff_distance_sq_max(a, b)
    assert type(d) is Fraction
    assert d == _hausdorff_reference(a, b)
    assert d == hausdorff_distance_sq_max(b, a)


# --- polygon basics -------------------------------------------------------

def test_polygon_rejects_cw():
    with pytest.raises(GeometryError):
        SimplePolygon([pt(0, 0), pt(0, 1), pt(1, 0)])


def test_polygon_rejects_self_intersection():
    with pytest.raises(GeometryError):
        SimplePolygon([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])


def test_polygon_rejects_repeated_vertex():
    with pytest.raises(GeometryError):
        SimplePolygon([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 0), pt(-1, 1)])


@pytest.mark.parametrize("verts, message", [
    ([pt(0, 0), pt(4, 0), pt(4, 2), pt(2, 2), pt(3, 2), pt(0, 2)],
     "fold-back at vertex (2, 2)"),
    ([pt(0, 0), pt(Fraction(1, 2), 0), pt(Fraction(1, 3), 0), pt(1, 1),
      pt(0, 1)],
     "fold-back at vertex (1/2, 0)"),
    # (3, 0) touches edge 0 from edges 3 and 4; the first pair is named
    ([pt(0, 0), pt(6, 0), pt(6, 4), pt(3, 4), pt(3, 0), pt(0, 4)],
     "edges 0 and 3 of polygon intersect"),
    # three spikes cross edge 0
    ([pt(0, 0), pt(5, 0), pt(5, 3), pt(Fraction(7, 2), Fraction(-1, 3)),
      pt(Fraction(5, 2), 3), pt(Fraction(3, 2), Fraction(-1, 2)),
      pt(Fraction(1, 2), 3), pt(0, 3)],
     "edges 0 and 2 of polygon intersect"),
])
def test_polygon_rejection_names_the_fault(verts, message):
    with pytest.raises(GeometryError) as err:
        SimplePolygon(verts)
    assert str(err.value) == message


def test_polygon_allows_straight_vertex():
    p = SimplePolygon([pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 1), pt(0, 1)])
    assert len(p) == 5


def test_locate():
    p = l_shape()
    assert p.locate(pt(Fraction(1, 2), Fraction(1, 2))) == "in"
    assert p.locate(pt(1, 1)) == "on"
    assert p.locate(pt(Fraction(3, 2), Fraction(3, 2))) == "out"
    assert p.locate(pt(0, 0)) == "on"
    assert p.locate(pt(Fraction(1, 2), 0)) == "on"


# --- visible --------------------------------------------------------------

def test_visible_convex_everywhere():
    rng = random.Random(5)
    poly = square(4)
    for _ in range(50):
        p = Point(Fraction(rng.randint(0, 16), 4), Fraction(rng.randint(0, 16), 4))
        q = Point(Fraction(rng.randint(0, 16), 4), Fraction(rng.randint(0, 16), 4))
        assert visible(poly, p, q)


def test_visible_blocked_by_reflex():
    poly = l_shape()
    # enters the open exterior notch past the reflex corner (1,1)
    assert not visible(poly, pt(Fraction(3, 2), Fraction(1, 2)),
                       pt(Fraction(1, 2), Fraction(7, 4)))
    # exactly on the line x+y=2 the segment only grazes the corner, which
    # closed-region semantics counts as visible
    assert visible(poly, pt(Fraction(3, 2), Fraction(1, 2)),
                   pt(Fraction(1, 2), Fraction(3, 2)))


def test_visible_self():
    poly = l_shape()
    p = pt(Fraction(1, 2), Fraction(1, 2))
    assert visible(poly, p, p)


def test_visible_symmetry():
    rng = random.Random(6)
    poly = l_shape()
    pts = []
    while len(pts) < 12:
        c = Point(Fraction(rng.randint(0, 8), 4), Fraction(rng.randint(0, 8), 4))
        if poly.locate(c) != "out":
            pts.append(c)
    for a in pts:
        for b in pts:
            assert visible(poly, a, b) == visible(poly, b, a)


def test_visible_grazing_through_corner():
    # sight along the reflex corner (1,1) grazes it: closed semantics => visible
    poly = l_shape()
    assert visible(poly, pt(2, 0), pt(0, 2))  # passes exactly through (1,1)


def test_visible_outside_raises():
    poly = l_shape()
    with pytest.raises(GeometryError):
        visible(poly, pt(Fraction(3, 2), Fraction(3, 2)), pt(0, 0))


# --- visibility polygon ---------------------------------------------------

def test_visibility_polygon_convex_interior():
    poly = square(2)
    vp = visibility_polygon(poly, pt(1, 1))
    assert set(vp.vertices) == set(poly.vertices)
    assert vp.area2 == poly.area2


def test_visibility_polygon_convex_vertex_viewpoint():
    poly = square(2)
    vp = visibility_polygon(poly, pt(0, 0))
    assert vp.area2 == poly.area2
    assert set(poly.vertices) <= set(vp.vertices)


def test_visibility_polygon_boundary_viewpoint():
    poly = square(2)
    vp = visibility_polygon(poly, pt(1, 0))
    assert vp.area2 == poly.area2


def test_visibility_polygon_l_inner_corner_sees_all():
    # from the inner square the whole L is visible: the reflex shadow
    # falls outside the polygon
    poly = l_shape()
    vp = visibility_polygon(poly, pt(Fraction(1, 2), Fraction(1, 2)))
    assert vp.area2 == poly.area2


def test_visibility_polygon_l_clipped():
    # from the right arm, the upper arm is clipped by the ray through (1,1)
    poly = l_shape()
    vp = visibility_polygon(poly, pt(Fraction(3, 2), Fraction(1, 2)))
    expect = SimplePolygon([pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(0, 2)])
    assert vp.area2 == expect.area2
    assert set(vp.vertices) == set(expect.vertices)


def test_visibility_polygon_matches_monte_carlo():
    rng = random.Random(7)
    poly = l_shape()
    for view in (pt(Fraction(3, 2), Fraction(1, 2)), pt(Fraction(1, 4), Fraction(7, 4))):
        vp = visibility_polygon(poly, view)
        for _ in range(200):
            q = Point(Fraction(rng.randint(0, 32), 16), Fraction(rng.randint(0, 32), 16))
            if poly.locate(q) == "out":
                continue
            assert (vp.locate(q) != "out") == visible(poly, view, q)


def test_visibility_polygon_kernel_and_containment():
    poly = l_shape()
    view = pt(Fraction(3, 2), Fraction(1, 2))
    vp = visibility_polygon(poly, view)
    assert vp.locate(view) != "out"
    for v in vp.vertices:
        assert poly.locate(v) != "out"
        assert visible(poly, view, v)


def test_fan_area_matches_polygon():
    poly = l_shape()
    view = pt(Fraction(3, 2), Fraction(1, 2))
    vp = visibility_polygon(poly, view)
    fan = visibility_fan(poly, view)
    total = sum(polygon_area2([view, pc.start, pc.end]) for pc in fan)
    assert total == vp.area2


# --- triangulation --------------------------------------------------------

def test_triangulate_area_preserved():
    for poly in (square(3), l_shape()):
        tris = triangulate(poly)
        assert len(tris) == len(poly) - 2
        total = sum(polygon_area2(list(t)) for t in tris)
        assert total == poly.area2


def test_triangulate_with_straight_vertex():
    poly = SimplePolygon([pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
    tris = triangulate(poly)
    total = sum(polygon_area2(list(t)) for t in tris)
    assert total == poly.area2

