"""Tests for variable, copying, and clause gadget geometry."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topogallery import compiler
from topogallery.compiler import compile_gallery, compile_surface
from topogallery.complexes import complex_to_dnf, mobius_complex
from topogallery.formulas import cnf_of_dnf_pruned
from topogallery.gadgets import (
    CopyGadget,
    GadgetError,
    Niche,
    VariableGadget,
    _check_copy_gadget,
    _check_variable_gadget,
    Wedge,
    assemble_room,
    build_copy_strip,
    make_clause_gadget,
    make_copy_gadget,
    make_variable_gadget,
    make_wedge_segments,
    variable_frame,
    variable_gadget_harness,
)
from topogallery.geom import (
    GeometryError,
    Point,
    Segment,
    hpoint,
    intersect_lines,
    invert_through,
    orient,
    orient_h,
    pt,
    visible,
    x_at,
    y_at,
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


_FLANK = "forced triangles FIK and EFI must flank line FI"


@pytest.mark.parametrize("f_x", [None, 3, 1], ids=["F-left", "F-right", "F-on-I"])
@pytest.mark.parametrize("k_dy", [-1, 0, 1])
@pytest.mark.parametrize("e_dy", [-1, 0, 1])
def test_variable_gadget_flank_check_matches_the_orientations(f_x, k_dy, e_dy):
    # K and E on, above or below the row of F and I, with F left of, right
    # of or level with I: the flank message fires iff orient(F, I, K) < 0
    # < orient(F, I, E) fails
    vg = unit_gadget()
    f, i = vg.F, vg.I
    g, h = vg.guard_segment.a, vg.guard_segment.b
    if f_x is not None:
        # I at x = 1, and a guard segment that still passes the
        # containment test (F.x < G.x, H.x < I.x)
        f, i = pt(f_x, 0), pt(1, 0)
        g, h = pt(4, 0), pt(0, 0)
    k, e = pt(5, k_dy), pt(-5, e_dy)
    tampered = replace(vg, F=f, I=i, K=k, E=e, guard_segment=Segment(g, h))
    try:
        _check_variable_gadget(tampered)
        message = None
    except GadgetError as exc:
        message = str(exc)
    assert (message == _FLANK) == (not (orient(f, i, k) < 0 < orient(f, i, e)))


@pytest.mark.parametrize("args, message", [
    ((Segment(pt(0, 0), pt(1, 1)),), "guard segment must be horizontal"),
    ((Segment(pt(0, 0), pt(1, 0)), 0), "scale must be positive"),
    ((Segment(pt(0, 0), pt(1, 0)), 1, 0), "walls must strictly flank the guard segment"),
    ((Segment(pt(0, 0), pt(1, 0)), 1, -1, 1), "walls must strictly flank the guard segment"),
    ((Segment(pt(0, 0), pt(1, 0)), 1, -1, 2, 0), "sliver_drop and forcing_rise must be positive"),
    ((Segment(pt(0, 0), pt(1, 0)), 1, -1, 2, 1, -1), "sliver_drop and forcing_rise must be positive"),
], ids=["sloped", "scale", "left-wall", "right-wall", "drop", "rise"])
def test_variable_gadget_names_each_bad_argument(args, message):
    with pytest.raises(GadgetError) as exc:
        make_variable_gadget(*args)
    assert str(exc.value) == message


def test_variable_frame_needs_a_column_of_positive_length():
    # a Segment is never a point, so make_variable_gadget cannot get here
    with pytest.raises(GadgetError, match="^guard segment must have positive length$"):
        variable_frame(Fraction(1), Fraction(1), Fraction(1, 4))


def test_variable_gadget_of_a_reversed_segment_is_the_same():
    assert make_variable_gadget(Segment(pt(1, 0), pt(0, 0))) == unit_gadget()


def _variable_gadget_per_row(seg, depth, lw, rw, drop, rise, label):
    """The variable gadget of one row built from its own points, each J
    mouth corner on the line through J and G or H."""
    g, h = seg.a, seg.b
    y0 = g.y
    f, i = Point(lw - depth, y0), Point(rw + depth, y0)
    m = drop * depth / (rw - lw + depth)
    j = Point(lw - depth, y0 + rise)
    k, e = Point(rw, y0 - drop), Point(lw, y0 + drop)
    tag = label + "."
    return VariableGadget(
        guard_segment=seg, F=f, I=i, J=j, E=e, K=k,
        notch_F=Niche("left", (Point(lw, y0), f, Point(lw, y0 - m)), tag + "F"),
        notch_I=Niche("right", (Point(rw, y0), i, Point(rw, y0 + m)), tag + "I"),
        notch_J=Niche("left", (Point(lw, y_at(j, h, lw)), j,
                               Point(lw, y_at(j, g, lw))), tag + "J"),
        forced_zone=(f, i, k), sliver_above=(e, f, i))


@pytest.mark.parametrize("make", [
    lambda: compile_gallery(cnf_of_dnf_pruned(complex_to_dnf(mobius_complex()))),
    lambda: compile_surface(2, True), lambda: compile_surface(2, False)],
    ids=["mobius", "orientable-2", "non-orientable-2"])
def test_framed_variable_gadgets_match_the_per_row_construction(make):
    # each row's walls, drop and rise read off its gadget; every other
    # point recomputed from them
    g = make()
    for idx, (rec, vg) in enumerate(zip(g.segments, g.variable_gadgets)):
        y0 = rec.segment.a.y
        ref = _variable_gadget_per_row(
            rec.segment, Fraction(1, 4), vg.notch_F.points[0].x,
            vg.notch_I.points[0].x, vg.E.y - y0, vg.J.y - y0, f"row{idx}")
        assert vg == ref, idx


def test_compile_builds_one_frame_per_column(monkeypatch):
    built = []

    def counted(gx, hx, *args):
        built.append((gx, hx))
        return variable_frame(gx, hx, *args)
    monkeypatch.setattr(compiler, "variable_frame", counted)
    g = compile_surface(8, False)
    assert sorted(built) == sorted(g.columns.values())
    assert len(g.variable_gadgets) == len(g.segments) > len(built)


@pytest.mark.parametrize("field", ["c_g", "c_h"])
def test_variable_gadget_check_catches_a_slipped_frame(field):
    # a J mouth factor off by one part in 2^20 puts that corner off its
    # ray, and the row's check says which one
    frame = variable_frame(Fraction(4), Fraction(5), Fraction(1, 4),
                           Fraction(-30), Fraction(40))
    seg = Segment(pt(4, 10), pt(5, 10))
    assert frame.gadget(seg, Fraction(1, 8), Fraction(1, 16)).guard_segment == seg
    slipped = replace(frame, **{field: getattr(frame, field) * (1 + Fraction(1, 2 ** 20))})
    ray = "J->G" if field == "c_g" else "J->H"
    with pytest.raises(GadgetError, match=f"J mouth corner not on ray {ray}"):
        slipped.gadget(seg, Fraction(1, 8), Fraction(1, 16))


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


_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
_positive = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4))


@settings(max_examples=60, deadline=None)
@given(gx=_fractions, width=_positive, yl=_fractions, gap=_positive,
       setback=_positive, row_gap=_positive)
def test_copy_gadget_closed_form_occluders_meet_the_sightlines(
        gx, width, yl, gap, setback, row_gap):
    # C, D, S and T come in closed form; each must be the meet of its two
    # sightlines, for any aligned rows, wall and clearance
    gh = Segment(Point(gx, yl + gap), Point(gx + width, yl + gap))
    no = Segment(Point(gx, yl), Point(gx + width, yl))
    cg = make_copy_gadget(gh, no, gx - setback, row_gap)
    g, h, n, o = gh.a, gh.b, no.a, no.b
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


def _tamper_copy(**fields):
    """default_copy() with the named fields replaced, as _check_copy_gadget
    sees it on wall x = 0."""
    return replace(default_copy(), **fields)


def _copy_tampers():
    cg = default_copy()
    a, b, c, d, s, t = cg.A, cg.B, cg.C, cg.D, cg.S, cg.T
    yu, yl = cg.upper_segment.a.y, cg.lower_segment.a.y
    return [
        ("A", Point(b.x + 1, a.y), "chamber deep edges must run left to right"),
        ("C", Point(c.x + 1, c.y), "occluders must land exactly on the wall plane"),
        ("C", Point(c.x, a.y), "C not strictly between line GH and line AB"),
        ("D", Point(d.x, yl), "D not strictly between line NO and line AB"),
        ("S", Point(s.x, yu), "S not strictly between line GH and line UV"),
        ("T", Point(t.x, yl), "T not strictly between line NO and line UV"),
        ("D", Point(d.x, yu),
         "insufficient vertical gap: AB mouth does not clear the upper row"),
        ("S", Point(s.x, yl),
         "insufficient vertical gap: UV mouth does not clear the lower row"),
    ]


@pytest.mark.parametrize("field, value, message", _copy_tampers())
def test_copy_gadget_check_names_each_broken_relation(field, value, message):
    with pytest.raises(GadgetError) as err:
        _check_copy_gadget(_tamper_copy(**{field: value}), Fraction(0))
    assert str(err.value) == message


def test_copy_gadget_check_names_the_inversion_mismatch():
    cg = default_copy()
    h, y_ab = cg.upper_segment.b, cg.A.y
    # A slid along its row: inversion through C still maps H to the old A
    a2 = Point(cg.A.x - Fraction(1, 1000), y_ab)
    with pytest.raises(GadgetError) as err:
        _check_copy_gadget(_tamper_copy(A=a2), Fraction(0))
    assert str(err.value) == \
        f"inversion through {cg.C} maps {h} to {cg.A}, expected {a2}"
    # B moved along line GC off row AB: collinear with G and C, but the
    # image lies on row AB, so it is still a mismatch
    g = cg.upper_segment.a
    b2 = Point(x_at(g, cg.C, y_ab + Fraction(1, 100)), y_ab + Fraction(1, 100))
    assert orient(g, cg.C, b2) == 0
    with pytest.raises(GadgetError) as err:
        _check_copy_gadget(_tamper_copy(B=b2), Fraction(0))
    assert str(err.value) == \
        f"inversion through {cg.C} maps {g} to {cg.B}, expected {b2}"


def test_copy_gadget_check_keeps_the_inversion_preconditions():
    cg = default_copy()
    g = cg.upper_segment.a
    # H raised to C's height: the inversion through C has no image
    h2 = Point(cg.upper_segment.b.x, cg.C.y)
    with pytest.raises(GeometryError, match="pivot lies on the source line"):
        _check_copy_gadget(_tamper_copy(upper_segment=Segment(g, h2)), Fraction(0))
    # H moved along line AC, off row GH: its image through C is still A,
    # and the mismatch is found at the inversion through S
    h3 = Point(x_at(cg.A, cg.C, cg.C.y - 1), cg.C.y - 1)
    assert invert_through(cg.C, h3, cg.A.y) == cg.A
    with pytest.raises(GadgetError) as err:
        _check_copy_gadget(_tamper_copy(upper_segment=Segment(g, h3)), Fraction(0))
    assert str(err.value) == (f"inversion through {cg.S} maps {h3} to "
                              f"{invert_through(cg.S, h3, cg.U.y)}, expected {cg.U}")


def test_copy_gadget_check_names_a_non_convex_slit():
    cg = default_copy()
    c, b, a, d = cg.slit_AB.points
    bent = replace(cg.slit_AB, points=(c, a, b, d))
    with pytest.raises(GadgetError) as err:
        _check_copy_gadget(_tamper_copy(slit_AB=bent), Fraction(0))
    assert str(err.value) == "slit AB is not strictly convex"


def _strictly_convex(quad) -> bool:
    hq = [hpoint(p) for p in quad]
    return all(orient_h(hq[i - 1], hq[i], hq[(i + 1) % len(hq)]) > 0
               for i in range(len(hq)))


def test_copy_gadget_check_names_a_reordered_uv_slit():
    # a slit not walked through the named points is tested corner by corner
    cg = default_copy()
    s, u, v, t = cg.slit_UV.points
    for points in ((s, v, u, t), (u, s, v, t), (s, u, t, v)):
        assert not _strictly_convex(points)
        with pytest.raises(GadgetError) as err:
            _check_copy_gadget(_tamper_copy(slit_UV=replace(cg.slit_UV, points=points)),
                               Fraction(0))
        assert str(err.value) == "slit UV is not strictly convex"


def _chambers_beyond_the_wall():
    """A copy gadget whose rows lie left of the wall x = 3 and whose
    chambers lie right of it.  Every relation before the convexity test
    holds (the occluders meet their sightlines on the wall at 11/12 of
    their rise, and the razor mouths clear the rows), but B.x and V.x
    exceed the wall, so the slits are walked through the named points
    and fail the shape condition."""
    g, h, n, o = pt(0, 10), pt(1, 10), pt(0, 0), pt(1, 0)
    b, a = pt(Fraction(36, 11), 12), pt(Fraction(35, 11), 12)
    v, u = pt(Fraction(36, 11), -2), pt(Fraction(35, 11), -2)
    c = intersect_lines(g, b, h, a)
    d = intersect_lines(n, b, o, a)
    s = intersect_lines(g, v, h, u)
    t = intersect_lines(n, v, o, u)
    return CopyGadget(Segment(g, h), Segment(n, o), a, b, c, d, u, v, s, t,
                      Niche("left", (c, b, a, d), "AB"),
                      Niche("left", (s, u, v, t), "UV"))


def test_copy_gadget_check_names_a_slit_failing_the_shape_condition():
    cg = _chambers_beyond_the_wall()
    assert cg.B.x > 3 and cg.C.x == cg.D.x == cg.S.x == cg.T.x == 3
    assert not _strictly_convex(cg.slit_AB.points)
    assert not _strictly_convex(cg.slit_UV.points)
    with pytest.raises(GadgetError) as err:
        _check_copy_gadget(cg, Fraction(3))
    assert str(err.value) == "slit AB is not strictly convex"


@settings(max_examples=40, deadline=None)
@given(gx=_fractions, width=_positive, yl=_fractions, gap=_positive,
       setback=_positive, row_gap=_positive)
def test_copy_gadget_slits_are_strictly_convex_corner_by_corner(
        gx, width, yl, gap, setback, row_gap):
    # the shape condition accepts the constructed slits; the corner test
    # agrees
    gh = Segment(Point(gx, yl + gap), Point(gx + width, yl + gap))
    no = Segment(Point(gx, yl), Point(gx + width, yl))
    cg = make_copy_gadget(gh, no, gx - setback, row_gap)
    assert _strictly_convex(cg.slit_AB.points)
    assert _strictly_convex(cg.slit_UV.points)


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
    x0, y0, x1, y1 = poly.bbox
    for _ in range(200):
        p = Point(x0 + Fraction(rng.randint(0, 56), 4),
                  y0 + Fraction(rng.randint(0, 72), 4))
        if poly.locate(p) == "out":
            continue
        assert not all(visible(poly, p, q) for q in targets)


# --- assemble_room -----------------------------------------------------------

def _mouth(wall_x, lo, hi, label, depth=1, wall="left"):
    """A triangular niche on the wall at x = wall_x with mouth [lo, hi],
    walked as assemble_room walks that wall."""
    lo, hi = Fraction(lo), Fraction(hi)
    out = -depth if wall == "left" else depth
    apex = Point(Fraction(wall_x + out), (lo + hi) / 2)
    ends = (Point(Fraction(wall_x), hi), Point(Fraction(wall_x), lo))
    if wall == "right":
        ends = ends[::-1]
    return Niche(wall, (ends[0], apex, ends[1]), label)


@pytest.mark.parametrize("niches, message", [
    ([_mouth(0, -1, 2, "low")], "niche 'low' mouth outside wall span"),
    ([_mouth(0, 8, 10, "high")], "niche 'high' mouth outside wall span"),
    ([_mouth(20, 1, 2, "flush", wall="right"), _mouth(20, 0, 2, "floor", wall="right")],
     "niche 'floor' mouth outside wall span"),
    ([Niche("left", (pt(0, 2), pt(-1, 3), pt(Fraction(1, 10**30), 4)), "off")],
     "niche 'off' mouth not on wall plane"),
    ([Niche("right", (pt(20, 2), pt(21, 3), pt(19, 4)), "off")],
     "niche 'off' mouth not on wall plane"),
    ([Niche("left", (pt(0, 4), pt(1, 3), pt(0, 2)), "in")],
     "niche 'in' does not point outward"),
    ([Niche("left", (pt(0, 4), pt(0, 3), pt(0, 2)), "flat")],
     "niche 'flat' does not point outward"),
    ([Niche("right", (pt(20, 2), pt(20 - Fraction(1, 2**80), 3), pt(20, 4)), "in")],
     "niche 'in' does not point outward"),
    ([Niche("top", (pt(0, 2), pt(-1, 3), pt(0, 4)), "t")],
     "only left/right wall niches are supported"),
    # the mouths are sorted by (lo, hi, label), and the first
    # consecutive pair that overlaps is named
    ([_mouth(0, 2, 4, "b"), _mouth(0, Fraction(1, 4), Fraction(1, 2), "c"), _mouth(0, 1, 3, "a")],
     "niche mouths 'a' and 'b' overlap"),
    ([_mouth(0, 1, 3, "z"), _mouth(0, 1, 2, "y")], "niche mouths 'y' and 'z' overlap"),
    ([_mouth(0, 1, 2, "z"), _mouth(0, 1, 2, "y")], "niche mouths 'y' and 'z' overlap"),
    ([_mouth(0, 2, 3, "q"), _mouth(0, 1, 2, "p")], "niche mouths 'p' and 'q' overlap"),
    # closer than 2^-64: equal integer keys, decided exactly
    ([_mouth(20, 1 + Fraction(1, 2**80), 2, "q", wall="right"),
      _mouth(20, 1, 1 + Fraction(1, 2**70), "p", wall="right")],
     "niche mouths 'p' and 'q' overlap"),
    ([_mouth(0, 1 + Fraction(1, 2**90), 3, "s"), _mouth(0, 1, 3, "r"),
      _mouth(0, 4, 5, "t")],
     "niche mouths 'r' and 's' overlap"),
])
def test_assemble_room_names_each_broken_niche(niches, message):
    with pytest.raises(GadgetError) as err:
        assemble_room(0, 20, 0, 8, niches)
    assert str(err.value) == message


def test_assemble_room_orders_mouths_closer_than_the_keys():
    # mouths apart by less than 2^-64 on both walls, given out of order
    eps = Fraction(1, 2**70)
    left = [_mouth(0, 1 + 2 * eps, 2, "l2"), _mouth(0, 1, 1 + eps, "l1"),
            _mouth(0, 3, 4, "l3")]
    right = [_mouth(20, 3, 4, "r3", wall="right"),
             _mouth(20, 1, 1 + eps, "r1", wall="right"),
             _mouth(20, 1 + 2 * eps, 2, "r2", wall="right")]
    room = assemble_room(0, 20, 0, 8, left + right)
    by = {n.label: n for n in left + right}
    want = [pt(0, 0), pt(20, 0)]
    for label in ("r1", "r2", "r3"):
        want += by[label].points
    want += [pt(20, 8), pt(0, 8)]
    for label in ("l3", "l2", "l1"):
        want += by[label].points
    assert room.vertices == tuple(want)


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
