"""Tests for the compiler's structural audit.

The pruned row checks (clause strips, J wedges, chamber mouths) test only
the rows a monotonicity bound cannot clear.  Here they are checked against
all-pairs loops over the same exact per-pair tests, on compiled galleries
and on galleries whose row heights are perturbed, and each one is shown to
catch a tampered gallery with its own message.
"""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from topogallery.complexes import complex_to_dnf, mobius_complex
from topogallery.compiler import (
    CompileError,
    _audit,
    _audit_chambers,
    _audit_j_wedges,
    _audit_strips,
    _check_chamber_blocked,
    _check_j_wedge,
    _check_strip,
    _clause_lines,
    _rows_by_height,
    _strip_heights,
    compile_gallery,
    compile_surface,
)
from topogallery.formulas import dnf_to_cnf, simplify_cnf
from topogallery.geom import Point, Segment, intersect_lines, y_at


@cache
def _gallery(name):
    if name == "mobius":
        return compile_gallery(
            simplify_cnf(dnf_to_cnf(complex_to_dnf(mobius_complex()))))
    return compile_surface(2, name == "orientable-2")


# --- all-pairs references ------------------------------------------------


def _all_pairs_strips(g):
    lines = _clause_lines(g)
    for rec in g.segments:
        for cg, cl in zip(g.clause_gadgets, lines):
            _check_strip(g, cg, rec, cl)


def _all_pairs_j_wedges(g):
    for idx, vg in enumerate(g.variable_gadgets):
        for rec in g.segments:
            if rec.index != idx and rec.segment.a.y < vg.J.y:
                _check_j_wedge(vg, idx, rec)


def _all_pairs_chambers(g):
    for pair in g.copy_pairs:
        for rec in g.segments:
            if rec.index not in (pair.upper, pair.lower):
                _check_chamber_blocked(pair.gadget, rec, "AB")
                _check_chamber_blocked(pair.gadget, rec, "UV")


def _outcome(check, *args):
    try:
        check(*args)
    except CompileError as exc:
        return str(exc)
    return None


def _assert_pruned_checks_agree(g):
    rows = _rows_by_height(g.segments)
    far_right = max(rec.segment.b.x for rec in g.segments)
    lines = _clause_lines(g)
    pairs = [
        ((_audit_strips, g, rows, _strip_heights(g, lines), lines),
         (_all_pairs_strips, g)),
        ((_audit_j_wedges, g, rows, far_right), (_all_pairs_j_wedges, g)),
        ((_audit_chambers, g, rows, far_right), (_all_pairs_chambers, g)),
    ]
    for fast, reference in pairs:
        assert _outcome(*fast) == _outcome(*reference), fast[0].__name__


@pytest.mark.parametrize("name", ["mobius", "orientable-2",
                                  "non-orientable-2"])
def test_pruned_checks_match_all_pairs_on_compiled_galleries(name):
    _assert_pruned_checks_agree(_gallery(name))


def _with_row_heights(g, heights):
    segs = list(g.segments)
    for i, y in heights.items():
        s = segs[i].segment
        segs[i] = replace(segs[i], segment=Segment(Point(s.a.x, y),
                                                   Point(s.b.x, y)))
    return replace(g, segments=tuple(segs))


@st.composite
def _critical_height(draw, g, rec):
    """A height for rec where a pruned check's verdict, or the bound it
    prunes with, can change."""
    lo, hi = g.columns[rec.var]
    kind = draw(st.sampled_from(("strip", "wedge", "chamber", "row")))
    if kind == "strip":
        return draw(st.sampled_from(draw(st.sampled_from(
            _strip_heights(g, _clause_lines(g))[rec.var]))))
    if kind == "wedge":
        vg = draw(st.sampled_from(g.variable_gadgets))
        j = vg.J
        target = draw(st.sampled_from((vg.guard_segment.a,
                                       vg.guard_segment.b, None)))
        if target is None:
            return j.y
        # where the ray crosses one of rec's ends
        x = draw(st.sampled_from((lo, hi)))
        return j.y + (x - j.x) * (target.y - j.y) / (target.x - j.x)
    if kind == "chamber":
        far_right = max(r.segment.b.x for r in g.segments)
        cg = draw(st.sampled_from(g.copy_pairs)).gadget
        mu = cg.C.x - cg.B.x
        psi = mu / (far_right - cg.C.x + mu)
        return draw(st.sampled_from((
            cg.A.y, cg.A.y - (cg.A.y - cg.D.y) / psi,
            cg.U.y, cg.U.y + (cg.S.y - cg.U.y) / psi)))
    return draw(st.sampled_from(g.segments)).segment.a.y


@st.composite
def _perturbed_mobius(draw):
    """The Moebius gallery with one to three rows moved: onto a critical
    height, a hair above or below it, or by a random offset."""
    g = _gallery("mobius")
    moves = {}
    for i in draw(st.lists(st.integers(0, len(g.segments) - 1),
                           min_size=1, max_size=3, unique=True)):
        rec = g.segments[i]
        if draw(st.integers(0, 4)) == 0:
            moves[i] = rec.segment.a.y + \
                Fraction(draw(st.integers(-960, 960)), 64)
        else:
            nudge = draw(st.sampled_from((0, 0, -1, 1)))
            moves[i] = draw(_critical_height(g, rec)) + Fraction(nudge, 10 ** 9)
    return _with_row_heights(g, moves)


@settings(max_examples=200, deadline=None)
@given(_perturbed_mobius())
def test_pruned_checks_match_all_pairs_on_perturbed_rows(g):
    _assert_pruned_checks_agree(g)


_HAIR = Fraction(1, 2 ** 80)   # below the 2^-64 resolution of the row keys


def _sights_chamber(cg, rec, which):
    """_check_chamber_blocked's verdict from the four crossing heights
    with the wall, each computed with y_at."""
    edge, lo, hi = ((cg.A, cg.B), cg.D.y, cg.C.y) if which == "AB" \
        else ((cg.U, cg.V), cg.T.y, cg.S.y)
    crossings = [y_at(p, q, cg.C.x) for p in (rec.segment.a, rec.segment.b)
                 for q in edge]
    return not (max(crossings) <= lo or min(crossings) >= hi)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chamber_check_matches_the_crossing_heights(data):
    # rows moved to where one sightline meets a mouth corner exactly, a
    # hair (also below 2^-64) or a step away, or anywhere near the mouth
    g = _gallery("mobius")
    cg = data.draw(st.sampled_from(g.copy_pairs)).gadget
    which = data.draw(st.sampled_from(("AB", "UV")))
    rec = data.draw(st.sampled_from(g.segments))
    wall = cg.C.x
    s = rec.segment
    # now and then the row is also moved left of the deep edge, where the
    # sightlines run from the row rightward to the wall
    dx = data.draw(st.sampled_from((0, 0, 0, cg.A.x - 1 - s.b.x)))
    if data.draw(st.booleans()):
        px = data.draw(st.sampled_from((s.a.x, s.b.x))) + dx
        q = data.draw(st.sampled_from((cg.A, cg.B) if which == "AB" else (cg.U, cg.V)))
        m = data.draw(st.sampled_from((cg.C.y, cg.D.y) if which == "AB" else (cg.S.y, cg.T.y)))
        y = q.y + (m - q.y) * (px - q.x) / (wall - q.x)
        y += data.draw(st.sampled_from((0, 0, 1, -1, _HAIR, -_HAIR, Fraction(1, 2 ** 30))))
    else:
        y = cg.A.y - Fraction(data.draw(st.integers(0, 4000)), 1000) if which == "AB" \
            else cg.U.y + Fraction(data.draw(st.integers(0, 4000)), 1000)
    moved = replace(rec, segment=Segment(Point(s.a.x + dx, y), Point(s.b.x + dx, y)))
    assert (_outcome(_check_chamber_blocked, cg, moved, which) is not None) == \
        _sights_chamber(cg, moved, which)


@pytest.mark.parametrize("which", ["AB", "UV"])
@pytest.mark.parametrize("nudge", [0, _HAIR, -_HAIR])
def test_pruned_chambers_match_all_pairs_at_the_interval_ends(which, nudge):
    # three foreign rows moved onto one end of a chamber's sighting
    # interval, or a hair past it, closer than the 2^-64 keys resolve
    g = _gallery("orientable-2")
    far_right = max(rec.segment.b.x for rec in g.segments)
    for pair in g.copy_pairs[:6]:
        cg = pair.gadget
        mu = cg.C.x - cg.B.x
        psi = mu / (far_right - cg.C.x + mu)
        y = cg.A.y - (cg.A.y - cg.D.y) / psi if which == "AB" \
            else cg.U.y + (cg.S.y - cg.U.y) / psi
        foreign = [i for i, rec in enumerate(g.segments)
                   if rec.index not in (pair.upper, pair.lower)]
        moved = _with_row_heights(g, {i: y + nudge for i in foreign[:3]})
        rows = _rows_by_height(moved.segments)
        assert _outcome(_audit_chambers, moved, rows, far_right) == \
            _outcome(_all_pairs_chambers, moved)


# --- tampered galleries --------------------------------------------------


def test_audit_rejects_foreign_row_in_clause_strip():
    g = _gallery("mobius")
    rec = next(r for r in g.segments if r.clause > 0)
    # moved to where clause 0's lower strip boundary crosses mid-column
    xm = (rec.segment.a.x + rec.segment.b.x) / 2
    y = intersect_lines(*g.clause_gadgets[0].low_line(),
                        Point(xm, 0), Point(xm, 1)).y
    bad = _with_row_heights(g, {rec.index: y})
    with pytest.raises(CompileError,
                       match=rf"strip of clause 0 meets segment {rec.index} "
                             r".*\(designation foreign\)"):
        _audit(bad)


def _retargeted_wedge(g, shift):
    """Row 0's forcing apex raised far above the room and its wedge aimed
    at [lo + shift, hi + shift]: nearly vertical, it runs down row 0's
    column across every other row of that variable."""
    vg = g.variable_gadgets[0]
    lo, hi = g.columns[g.segments[0].var]
    y0 = vg.guard_segment.a.y
    vg2 = replace(vg, J=Point(vg.J.x, vg.J.y + 10 ** 9),
                  guard_segment=Segment(Point(lo + shift, y0),
                                        Point(hi + shift, y0)))
    return replace(g, variable_gadgets=(vg2,) + g.variable_gadgets[1:])


def test_audit_rejects_segment_endpoint_in_j_wedge():
    bad = _retargeted_wedge(_gallery("mobius"), Fraction(1, 2))
    with pytest.raises(CompileError,
                       match=r"forcing wedge of row 0 reaches segment"):
        _audit(bad)


def test_audit_rejects_j_ray_crossing_segment():
    g = _gallery("mobius")
    lo, hi = g.columns[g.segments[0].var]
    narrow = _retargeted_wedge(g, Fraction(0))
    vg = narrow.variable_gadgets[0]
    y0 = vg.guard_segment.a.y
    w = hi - lo
    vg = replace(vg, guard_segment=Segment(Point(lo + w / 4, y0),
                                           Point(hi - w / 4, y0)))
    bad = replace(narrow, variable_gadgets=(vg,) + g.variable_gadgets[1:])
    with pytest.raises(CompileError,
                       match=r"forcing wedge boundary of row 0 crosses segment"):
        _audit(bad)


def _with_chamber(g, which, points):
    """The topmost copy pair's AB chamber, or the bottommost pair's UV
    chamber (each has foreign rows on its mouth's side), moved."""
    pairs = list(g.copy_pairs)
    k = max(range(len(pairs)), key=lambda k: pairs[k].gadget.A.y) \
        if which == "AB" else \
        min(range(len(pairs)), key=lambda k: pairs[k].gadget.U.y)
    pairs[k] = replace(pairs[k], gadget=replace(pairs[k].gadget, **points(
        pairs[k].gadget)))
    return replace(g, copy_pairs=tuple(pairs))


@pytest.mark.parametrize("which", ["AB", "UV"])
def test_audit_rejects_row_sighting_chamber(which):
    # both deep edges moved beyond the room's leftmost vertex and one
    # mouth opened by 1000 toward the rows
    g = _gallery("mobius")
    x = g.polygon.bbox[0] - 1000

    def moved(cg):
        points = dict(A=Point(x - 1, cg.A.y), B=Point(x, cg.B.y),
                      U=Point(x - 1, cg.U.y), V=Point(x, cg.V.y))
        if which == "AB":
            points["D"] = Point(cg.D.x, cg.D.y - 1000)
        else:
            points["S"] = Point(cg.S.x, cg.S.y + 1000)
        return points

    with pytest.raises(CompileError, match=rf"can sight chamber {which}"):
        _audit(_with_chamber(g, which, moved))


@pytest.mark.parametrize("which", ["AB", "UV"])
def test_audit_rejects_row_sighting_widened_mouth(which):
    # only the mouth opened: the deep edge stays where it was compiled
    g = _gallery("mobius")
    if which == "AB":
        bad = _with_chamber(g, which,
                            lambda cg: dict(D=Point(cg.D.x, cg.D.y - 1000)))
    else:
        bad = _with_chamber(g, which,
                            lambda cg: dict(S=Point(cg.S.x, cg.S.y + 1000)))
    with pytest.raises(CompileError, match=rf"can sight chamber {which}"):
        _audit(bad)


def test_audit_rejects_strip_sloping_down():
    g = _gallery("mobius")
    cg = g.clause_gadgets[0]
    flipped = replace(cg, witness_point=Point(cg.witness_point.x,
                                              cg.mouth_lo.y - 1))
    bad = replace(g, clause_gadgets=(flipped,) + g.clause_gadgets[1:])
    with pytest.raises(CompileError,
                       match=r"strip of clause 0 does not rise to the right"):
        _audit(bad)


def test_audit_rejects_slivers_with_equal_spans():
    # a second gadget with row 0's sliver span but another J: the sliver
    # order ties on the span, and the overlap is reported, not a failed
    # comparison of the gadgets
    g = _gallery("mobius")
    vg0 = g.variable_gadgets[0]
    twin = replace(vg0, J=Point(vg0.J.x - 1, vg0.J.y))
    bad = replace(g, variable_gadgets=g.variable_gadgets + (twin,))
    with pytest.raises(CompileError,
                       match=r"forced slivers of two rows overlap in y"):
        bad.audit()
