"""Tests for variable, copying, and clause gadget geometry."""

import random
from fractions import Fraction

import pytest

from topogallery.gadgets import (
    GadgetError,
    Wedge,
    assemble_room,
    build_copy_strip,
    make_clause_gadget,
    make_copy_gadget,
    make_variable_gadget,
    make_wedge_segments,
    variable_gadget_harness,
)
from topogallery.geom import (
    Point,
    Segment,
    intersect_lines,
    invert_through,
    orient,
    pt,
    visible,
)


def unit_gadget():
    return make_variable_gadget(Segment(pt(0, 0), pt(1, 0)))


# --- variable gadget --------------------------------------------------------

def test_variable_gadget_guard_covers_apexes():
    vg = unit_gadget()
    room = variable_gadget_harness(vg)
    guard = pt(Fraction(1, 2), 0)
    for apex in (vg.F, vg.I, vg.J):
        assert visible(room, guard, apex)


def test_variable_gadget_endpoints_cover_apexes():
    vg = unit_gadget()
    room = variable_gadget_harness(vg)
    for guard in (pt(0, 0), pt(1, 0)):
        for apex in (vg.F, vg.I, vg.J):
            assert visible(room, guard, apex)


def test_variable_gadget_off_segment_misses_J():
    vg = unit_gadget()
    room = variable_gadget_harness(vg)
    off = pt(Fraction(1, 2), Fraction(1, 10))
    assert not visible(room, off, vg.J)


def test_variable_gadget_off_line_misses_F_or_I():
    vg = unit_gadget()
    room = variable_gadget_harness(vg)
    # below the line: in the F sliver but not the I sliver
    below = pt(Fraction(1, 2), -Fraction(1, 10))
    assert not (visible(room, below, vg.F) and visible(room, below, vg.I))


def test_variable_gadget_notch_interior_covered_from_any_parameter():
    vg = unit_gadget()
    room = variable_gadget_harness(vg)
    rng = random.Random(21)
    notch_points = []
    for niche in vg.niches():
        a, apex, b = niche.points
        notch_points.append(apex)
        notch_points.append(Point((a.x + apex.x + b.x) / 3, (a.y + apex.y + b.y) / 3))
    for _ in range(8):
        t = Fraction(rng.randint(0, 16), 16)
        guard = Point(t, Fraction(0))
        for q in notch_points:
            assert visible(room, guard, q)


def test_variable_gadget_forced_zone_orientation():
    vg = unit_gadget()
    f, i, k = vg.forced_zone
    e, f2, i2 = vg.sliver_above
    assert orient(f, i, k) < 0
    assert orient(f2, i2, e) > 0


def test_variable_gadget_degenerate_segment():
    with pytest.raises(Exception):
        make_variable_gadget(Segment(pt(0, 0), pt(0, 0)))


def test_variable_gadget_bad_scale():
    with pytest.raises(GadgetError):
        make_variable_gadget(Segment(pt(0, 0), pt(1, 0)), scale=0)


# --- copy gadget -------------------------------------------------------------

def default_copy():
    gh = Segment(pt(10, 10), pt(11, 10))
    no = Segment(pt(10, 0), pt(11, 0))
    return make_copy_gadget(gh, no, 0, 2)


def test_copy_gadget_occluder_definitions():
    cg = default_copy()
    g, h = cg.upper_segment.a, cg.upper_segment.b
    n, o = cg.lower_segment.a, cg.lower_segment.b
    assert cg.C == intersect_lines(g, cg.B, h, cg.A)
    assert cg.D == intersect_lines(n, cg.B, o, cg.A)
    assert cg.S == intersect_lines(g, cg.V, h, cg.U)
    assert cg.T == intersect_lines(n, cg.V, o, cg.U)


def test_copy_gadget_orderings():
    cg = default_copy()
    yu = cg.upper_segment.a.y
    yl = cg.lower_segment.a.y
    assert yu < cg.C.y < cg.A.y
    assert yl < cg.D.y < cg.A.y
    assert cg.U.y < cg.S.y < yu
    assert cg.U.y < cg.T.y < yl
    # razor mouths clear the rows
    assert cg.D.y > yu and cg.S.y < yl
    assert cg.D.y < cg.C.y and cg.T.y < cg.S.y


def test_copy_gadget_endpoint_correspondence():
    cg = default_copy()
    g, h = cg.upper_segment.a, cg.upper_segment.b
    n, o = cg.lower_segment.a, cg.lower_segment.b
    y_ab, y_uv = cg.A.y, cg.U.y
    assert invert_through(cg.C, g, y_ab) == cg.B
    assert invert_through(cg.C, h, y_ab) == cg.A
    assert invert_through(cg.D, n, y_ab) == cg.B
    assert invert_through(cg.D, o, y_ab) == cg.A
    assert invert_through(cg.S, g, y_uv) == cg.V
    assert invert_through(cg.S, h, y_uv) == cg.U
    assert invert_through(cg.T, n, y_uv) == cg.V
    assert invert_through(cg.T, o, y_uv) == cg.U


def test_copy_gadget_two_paths_agree():
    # alpha_bar via inversion equals the direct line intersection with AB
    rng = random.Random(22)
    cg = default_copy()
    g, h = cg.upper_segment.a, cg.upper_segment.b
    for _ in range(32):
        t = Fraction(rng.randint(0, 64), 64)
        alpha = cg.upper_segment.point_at(t)
        via_inv = invert_through(cg.C, alpha, cg.A.y)
        via_lines = intersect_lines(alpha, cg.C, cg.A, cg.B)
        assert via_inv == via_lines
        assert via_inv == cg.ab_image(t)


def test_copy_gadget_vertical_mirror_symmetry():
    # with symmetric parameters the AB and UV slits are mirror images
    # about the horizontal midline between the rows
    cg = default_copy()
    mid = (cg.upper_segment.a.y + cg.lower_segment.a.y) / 2

    def mirror(p):
        return Point(p.x, 2 * mid - p.y)

    assert mirror(cg.C) == cg.T
    assert mirror(cg.D) == cg.S
    assert mirror(cg.A) == cg.U
    assert mirror(cg.B) == cg.V


def test_copy_gadget_misaligned_rejected():
    gh = Segment(pt(10, 10), pt(11, 10))
    no = Segment(pt(10, 0), pt(Fraction(23, 2), 0))
    with pytest.raises(GadgetError, match="misaligned"):
        make_copy_gadget(gh, no, 0, 2)


def test_copy_gadget_bad_gap_rejected():
    gh = Segment(pt(10, 10), pt(11, 10))
    no = Segment(pt(10, 0), pt(11, 0))
    with pytest.raises(GadgetError):
        make_copy_gadget(gh, no, 0, 0)


# --- copy strip --------------------------------------------------------------

def test_strip_assembles():
    strip = build_copy_strip()
    assert strip.polygon.area2 > 0
    for apex in strip.apexes.values():
        assert strip.polygon.locate(apex) == "on"


def test_strip_equal_parameters_cover_chambers():
    strip = build_copy_strip()
    poly = strip.polygon
    cg = strip.copy
    rng = random.Random(23)
    for _ in range(6):
        t = Fraction(rng.randint(0, 8), 8)
        up, lo = strip.guards_at(t)
        for apex in strip.apexes.values():
            assert visible(poly, up, apex) or visible(poly, lo, apex)
        # the meeting point on AB is grazed by both guards
        meet = cg.ab_image(t)
        assert visible(poly, up, meet) and visible(poly, lo, meet)
        # sample the chamber edges on both sides of the meeting point
        for k in range(9):
            q = cg.ab_image(Fraction(k, 8))
            assert visible(poly, up, q) or visible(poly, lo, q)
            q2 = cg.uv_image(Fraction(k, 8))
            assert visible(poly, up, q2) or visible(poly, lo, q2)


def test_strip_mismatched_parameters_leave_witness():
    strip = build_copy_strip()
    poly = strip.polygon
    cg = strip.copy
    t, t2 = Fraction(1, 4), Fraction(3, 4)
    up, lo = strip.guards_at(t, t2)
    # gap on UV since t < t2
    a = cg.uv_image(t)
    b = cg.uv_image(t2)
    witness = Point((a.x + b.x) / 2, a.y)
    assert not visible(poly, up, witness)
    assert not visible(poly, lo, witness)
    # and mirrored: t > t2 leaves a gap on AB
    up, lo = strip.guards_at(t2, t)
    a = cg.ab_image(t2)
    b = cg.ab_image(t)
    witness = Point((a.x + b.x) / 2, a.y)
    assert not visible(poly, up, witness)
    assert not visible(poly, lo, witness)


def test_strip_single_guard_cannot_see_all_four():
    strip = build_copy_strip()
    poly = strip.polygon
    targets = [strip.apexes[k] for k in ("F", "I", "M", "P")]
    rng = random.Random(24)
    x0, y0, x1, y1 = poly._bbox
    for _ in range(200):
        p = Point(x0 + Fraction(rng.randint(0, 56), 4),
                  y0 + Fraction(rng.randint(0, 72), 4))
        if poly.locate(p) == "out":
            continue
        assert not all(visible(poly, p, q) for q in targets)


# --- clause gadget -----------------------------------------------------------

def test_clause_gadget_region_membership():
    g = make_clause_gadget(pt(20, 30), 0, 1, Fraction(1, 8))
    w = g.witness_point
    # the strip's upper-left boundary passes through the mouth's upper corner
    online = intersect_lines(w, g.mouth_hi, pt(5, 0), pt(5, 1))
    assert g.region_contains(online)
    assert not g.region_contains(Point(online.x, online.y + 1))
    # at depth 15 the strip is 15/8 tall; 3 below the top edge is outside
    assert not g.region_contains(Point(online.x, online.y - 3))
    assert g.region_contains(Point(online.x, online.y - 1))


def test_clause_gadget_witness_visibility():
    room = assemble_room(0, 20, 0, 40, [make_clause_gadget(pt(20, 30), 0, 1, Fraction(1, 2)).notch])
    g = make_clause_gadget(pt(20, 30), 0, 1, Fraction(1, 2))
    inside = intersect_lines(g.witness_point, g.mouth_hi, pt(10, 0), pt(10, 1))
    assert g.region_contains(inside)
    assert visible(room, inside, g.witness_point)
    off = Point(inside.x, inside.y + Fraction(1, 2))
    assert not visible(room, off, g.witness_point)


def test_clause_gadget_zero_width_rejected():
    with pytest.raises(GadgetError):
        make_clause_gadget(pt(20, 30), 0, 1, 0)


# --- wedge family ------------------------------------------------------------

def make_test_wedge():
    apex = pt(20, 30)
    return Wedge(apex, pt(19, 29), Point(Fraction(19), Fraction(29) - Fraction(1, 4)))


def test_wedge_n2():
    family = make_wedge_segments(2, make_test_wedge(), 5)
    assert family.constants == (0, 1)
    assert len(family.segments) == 1


def test_wedge_n4_constants_increase_and_close():
    wedge = make_test_wedge()
    family = make_wedge_segments(4, wedge, 5)
    ks = family.constants
    assert ks[0] == 0 and ks[-1] == 1
    assert all(a < b for a, b in zip(ks, ks[1:]))
    # independent re-derivation from exact line intersections
    for i, seg in enumerate(family.segments, start=1):
        y = seg.a.y
        lo = intersect_lines(wedge.apex, wedge.low_pt, seg.a, seg.b)
        up = intersect_lines(wedge.apex, wedge.up_pt, seg.a, seg.b)
        s = seg.b.x - seg.a.x
        assert (lo.x - seg.a.x) / s == ks[i - 1]
        assert (up.x - seg.a.x) / s == ks[i]


def test_wedge_n1_rejected():
    with pytest.raises(GadgetError):
        make_wedge_segments(1, make_test_wedge(), 5)


def test_clause_family_regions_disjoint_exact():
    from topogallery.gadgets import clause_family_disjoint
    from topogallery.geom import clip_convex, convex_disjoint

    g1 = make_clause_gadget(pt(40, 60), 0, 2, Fraction(1, 16))
    g2 = make_clause_gadget(pt(40, 56), 1, 2, Fraction(1, 16))
    assert clause_family_disjoint([g1, g2], span=40)

    # exact convex-region check: clip each wedge to the room box and test
    # disjointness of the resulting convex regions
    box = [pt(0, 0), pt(40, 0), pt(40, 70), pt(0, 70)]

    def clipped(g):
        # region_contains keeps the left of (w, mouth_hi) and the right of
        # (w, mouth_lo)
        region = list(box)
        w = g.witness_point
        region = clip_convex(region, w, g.mouth_hi, keep_left=True)
        region = clip_convex(region, w, g.mouth_lo, keep_left=False)
        return region

    r1, r2 = clipped(g1), clipped(g2)
    assert len(r1) >= 3 and len(r2) >= 3
    assert convex_disjoint(r1, r2)

    # too-wide mouths make consecutive regions collide within the span
    wide1 = make_clause_gadget(pt(40, 60), 0, 2, 2)
    wide2 = make_clause_gadget(pt(40, 56), 1, 2, 2)
    assert not clause_family_disjoint([wide1, wide2], span=40)
