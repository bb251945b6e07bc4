"""Exact coverage by the window test, checked against the triangle-subtraction
check it replaced, against dense rational sampling, and on the degenerate
configurations the window argument has to get right; the visibility
sweep, which stabs each cone with only its spanning edges, against the
sweep that scanned every edge for every cone, whose ray probe
(`_ray_edge_hits`, `_nearer_on_ray`) lives only here; and the integer point
location, edge buckets, window cutting and `visible` against their
Fraction versions; the window test, which dismisses a window whole
when a guard with no window near it covers it, against the eager test
that cut every window; and the one walk of `_visibility`, which tells
window parts by their ends, against the two walks it replaced, which
located each part's midpoint and tested every vertex for straight-through;
and the room view and `visible` from a room's open rectangle, against the
sweep and the segment cutter they bypass; and the pocket test, which
decides a room guarded from its open rectangle with no view at all,
against the window test."""

import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor

import pytest
from hypothesis import assume, given, settings, strategies as st

from topogallery import geom, verifier
from topogallery.complexes import (
    circle_complex,
    complex_to_dnf,
    face_with_boundary,
    mobius_complex,
    sphere_complex,
    torus_complex,
)
from topogallery.compiler import (
    GuardConfig,
    canonical_removed_faces,
    compile_gallery,
    compile_surface,
    embed,
)
from topogallery.formulas import dnf_to_cnf, eval_formula, grid_axes, simplify_cnf
from topogallery.gadgets import build_copy_strip
from topogallery.geom import (
    FanPiece,
    GeometryError,
    Point,
    SimplePolygon,
    _dir_cmp,
    _hline,
    _hmeet,
    _on_segment_collinear,
    _ray_line,
    _reduce_dir,
    _sign,
    convex_minus_triangle,
    hpoint,
    hpoint_to_point,
    intersect_lines,
    midpoint,
    orient,
    orient_h,
    pt,
    rational_key,
    triangulate,
    visibility_fan,
    visible,
)
from topogallery.verifier import (
    CoverageReport,
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


def _ray_edge_hits(hp, d, lray, ha, hb, ledge):
    """Intersections of ray(p, d) with closed edge ab, as homogeneous points:
    the probe of the full-scan sweep, which meets the ray with every edge.

    lray is `_ray_line(hp, d)` and ledge is `_hline(ha, hb)`.  Returns a
    list of hit points with strictly positive ray parameter.  Collinear
    overlaps return both in-range endpoints.
    """
    # sides of a and b relative to the ray's supporting line
    sa = _sign(lray[0] * ha[0] + lray[1] * ha[1] + lray[2] * ha[2])
    sb = _sign(lray[0] * hb[0] + lray[1] * hb[1] + lray[2] * hb[2])
    if sa * sb > 0:
        return []
    if sa == 0 and sb == 0:
        return [h for h in (ha, hb) if d[0] * (h[0] * hp[2] - hp[0] * h[2])
                + d[1] * (h[1] * hp[2] - hp[1] * h[2]) > 0]
    if sa == 0:
        cand = ha
    elif sb == 0:
        cand = hb
    else:
        cand = _hmeet(lray, ledge)
        if cand[2] == 0:
            return []
    # forward test: dot(d, cand - p) > 0
    if d[0] * (cand[0] * hp[2] - hp[0] * cand[2]) \
            + d[1] * (cand[1] * hp[2] - hp[1] * cand[2]) > 0:
        return [cand]
    return []


def _nearer_on_ray(hp, d, h1, h2) -> bool:
    """True iff h1 is strictly nearer to p along direction d than h2."""
    f1 = d[0] * (h1[0] * hp[2] - hp[0] * h1[2]) + d[1] * (h1[1] * hp[2] - hp[1] * h1[2])
    f2 = d[0] * (h2[0] * hp[2] - hp[0] * h2[2]) + d[1] * (h2[1] * hp[2] - hp[1] * h2[2])
    # f_i / (w_i * wp) are the comparable ray coordinates
    return f1 * h2[2] < f2 * h1[2]


def _nearest_hit_on_edge(hp, d, poly: SimplePolygon, e: int) -> Point:
    """The hit of ray(p, d) on edge e of poly nearest to p, from the full
    list of the ray's hits on the edge.  A hit at an end of the edge is
    that vertex of poly itself, not a copy."""
    k = (e + 1) % len(poly._h)
    ha, hb = poly._h[e], poly._h[k]
    hits = _ray_edge_hits(hp, d, _ray_line(hp, d), ha, hb, _hline(ha, hb))
    if not hits:
        raise GeometryError("sweep invariant violated: event ray misses its edge")
    best = hits[0]
    for h in hits[1:]:
        if _nearer_on_ray(hp, d, h, best):
            best = h
    if best is ha or best is hb:
        return poly.vertices[e if best is ha else k]
    return hpoint_to_point(best)


def _sweep_reference(poly: SimplePolygon, p: Point) -> list[FanPiece | None]:
    """The O(n*m) sweep that `geom._sweep` replaced: every cone's
    representative ray is intersected with every edge, and each visible
    cone's ends are the nearest hits of its boundary rays on its edge."""
    if poly.locate(p) == "out":
        raise GeometryError("viewpoint outside polygon")
    hp = hpoint(p)
    hv = poly._h
    n = len(hv)

    dirs = set()
    for h in hv:
        dx = h[0] * hp[2] - hp[0] * h[2]
        dy = h[1] * hp[2] - hp[1] * h[2]
        if dx == 0 and dy == 0:
            continue
        dirs.add(_reduce_dir(dx, dy))
    sorted_dirs = sorted(dirs, key=cmp_to_key(_dir_cmp))
    m = len(sorted_dirs)
    if m < 2:
        raise GeometryError("degenerate direction set in visibility sweep")

    raw: list[FanPiece | None] = []
    for i in range(m):
        u = sorted_dirs[i]
        w = sorted_dirs[(i + 1) % m]
        cr = u[0] * w[1] - u[1] * w[0]
        if cr > 0:
            rep = (u[0] + w[0], u[1] + w[1])  # strictly inside a salient cone
        elif cr == 0:
            rep = (-u[1], u[0])  # cone of angle exactly pi
        else:
            rep = (-u[0], -u[1])  # reflex cone: the antipode of u is inside
        best = None
        best_edge = -1
        for e in range(n):
            ha, hb = hv[e], hv[(e + 1) % n]
            for cand in _ray_edge_hits(hp, rep, _ray_line(hp, rep), ha, hb,
                                       _hline(ha, hb)):
                if best is None or _nearer_on_ray(hp, rep, cand, best):
                    best = cand
                    best_edge = e
        if best is None:
            raw.append(None)
            continue
        mid = midpoint(p, hpoint_to_point(best))
        if poly.locate(mid) == "out":
            raw.append(None)
            continue
        qs = _nearest_hit_on_edge(hp, u, poly, best_edge)
        qe = _nearest_hit_on_edge(hp, w, poly, best_edge)
        raw.append(FanPiece(best_edge, qs, qe))
    return raw


def _cut_windows(windows):
    """Every window (guard index, a, b), ends as hpoint triples, cut by
    `geom._cut_window` against its candidates: the cuts a window test
    that cut every window would make."""
    _, cand = geom._window_candidates(windows)
    return [geom._cut_window(ha, hb, c) for (_, ha, hb), c in zip(windows, cand)]


def _window_test_eager(poly, guards):
    """`geom.window_test` as it was before whole windows were dismissed:
    cut every window, then decide each piece in turn at its midpoint
    against every other guard, with the same run rule.  Returns the
    number of pieces tested and the first uncovered piece as a pair of
    Points, or None."""
    views = [geom._visibility(poly, hpoint(g)) for g in guards]
    vps = [vp for vp, _ in views]
    windows = [(gi, ha, hb) for gi, (_, ws) in enumerate(views) for ha, hb in ws]
    tested = 0
    for (gi, _, _), (hs, masks, opposite) in zip(windows, _cut_windows(windows)):
        carried = -1
        for k in range(len(hs) - 1):
            tested += 1
            if carried >= 0 and not masks[k] >> carried & 1:
                continue
            carried = -1
            hm = geom._hmid(hs[k], hs[k + 1])
            if any(_on_segment_collinear(hc, hd, hm) for hc, hd in opposite):
                continue
            carried = next((j for j in range(len(vps))
                            if j != gi and vps[j]._locate_h(hm) == "in"), -1)
            if carried < 0:
                return tested, (hpoint_to_point(hs[k]), hpoint_to_point(hs[k + 1]))
    return tested, None


def _cut_windows_reference(windows):
    """The window cutting before it ran on the homogeneous triples:
    boxes, cut points and their sort keys on Fractions."""
    hs = [(hpoint(a), hpoint(b)) for _, a, b in windows]
    boxes = [(floor(min(a.x, b.x)), floor(min(a.y, b.y)),
              ceil(max(a.x, b.x)), ceil(max(a.y, b.y)))
             for _, a, b in windows]
    cuts = [[a, b] for _, a, b in windows]
    opposite: list[list] = [[] for _ in windows]
    active: list[int] = []
    for i in sorted(range(len(windows)), key=lambda i: boxes[i][0]):
        gi, a, b = windows[i]
        x0, y0, _, y1 = boxes[i]
        active = [j for j in active if boxes[j][2] >= x0]
        for j in active:
            gj, c, d = windows[j]
            if gj == gi or boxes[j][3] < y0 or y1 < boxes[j][1]:
                continue
            (ha, hb), (hc, hd) = hs[i], hs[j]
            o1, o2 = orient_h(ha, hb, hc), orient_h(ha, hb, hd)
            if o1 == 0 and o2 == 0:
                cuts[i] += [q for q, hq in ((c, hc), (d, hd))
                            if _on_segment_collinear(ha, hb, hq)]
                cuts[j] += [q for q, hq in ((a, ha), (b, hb))
                            if _on_segment_collinear(hc, hd, hq)]
                if (b.x - a.x) * (d.x - c.x) + (b.y - a.y) * (d.y - c.y) < 0:
                    opposite[i].append(hs[j])
                    opposite[j].append(hs[i])
                continue
            o3, o4 = orient_h(hc, hd, ha), orient_h(hc, hd, hb)
            if o1 * o2 > 0 or o3 * o4 > 0:
                continue
            # an endpoint on the other line is the unique crossing
            x = (c if o1 == 0 else d if o2 == 0 else a if o3 == 0
                 else b if o4 == 0 else intersect_lines(a, b, c, d))
            cuts[i].append(x)
            cuts[j].append(x)
        active.append(i)
    out = []
    for (_, a, b), pts, opp in zip(windows, cuts, opposite):
        dx, dy = b.x - a.x, b.y - a.y
        stops = sorted(dict.fromkeys(pts),
                       key=lambda q: (q.x - a.x) * dx + (q.y - a.y) * dy)
        out.append((stops, opp))
    return out


def _projection_param(a: Point, b: Point, p: Point) -> Fraction:
    """Parameter t of the projection of p onto line ab (p assumed on the line)."""
    dx, dy = b.x - a.x, b.y - a.y
    return ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)


def _crossing_param(a: Point, b: Point, p: Point, q: Point) -> Fraction:
    """Parameter along pq of its proper crossing with line ab."""
    num = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    den = (b.x - a.x) * (p.y - q.y) - (b.y - a.y) * (p.x - q.x)
    return num / den


def _visible_reference(poly: SimplePolygon, p: Point, q: Point) -> bool:
    """`geom.visible` before it cut pq on the homogeneous triples: cut
    parameters and piece midpoints on Fractions."""
    lp = poly.locate(p)
    lq = poly.locate(q)
    if lp == "out" or lq == "out":
        raise GeometryError("visibility query endpoint outside polygon")
    if p == q:
        return True
    hp_, hq_ = hpoint(p), hpoint(q)
    params = {Fraction(0), Fraction(1)}
    minx, maxx = min(p.x, q.x), max(p.x, q.x)
    miny, maxy = min(p.y, q.y), max(p.y, q.y)
    verts = poly.vertices
    hv = poly._h
    n = len(verts)
    boxes = _edge_bboxes_reference(poly)
    for i in range(n):
        bx = boxes[i]
        if bx[2] < minx or maxx < bx[0] or bx[3] < miny or maxy < bx[1]:
            continue
        a, b = verts[i], verts[(i + 1) % n]
        ha, hb = hv[i], hv[(i + 1) % n]
        oa = orient_h(hp_, hq_, ha)
        ob = orient_h(hp_, hq_, hb)
        if oa == 0 and ob == 0:
            # collinear edge: overlap endpoints subdivide pq
            for e in (a, b):
                t = _projection_param(p, q, e)
                if 0 < t < 1:
                    params.add(t)
            continue
        if oa == 0:
            if _on_segment_collinear(hp_, hq_, ha):
                params.add(_projection_param(p, q, a))
            continue
        if ob == 0:
            if _on_segment_collinear(hp_, hq_, hb):
                params.add(_projection_param(p, q, b))
            continue
        if oa * ob < 0:
            op_ = orient_h(ha, hb, hp_)
            oq_ = orient_h(ha, hb, hq_)
            if op_ * oq_ < 0:
                params.add(_crossing_param(a, b, p, q))
            # op_ == 0 or oq_ == 0 would add t=0 or t=1, already present
    ts = sorted(params)
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        m = Point(p.x + tm * (q.x - p.x), p.y + tm * (q.y - p.y))
        if poly.locate(m) == "out":
            return False
    return True


# `SimplePolygon.locate` and its y-buckets before they ran on the
# homogeneous triples: edge boxes, bucket indices and the side tests on
# Fractions

def _edge_bboxes_reference(poly):
    boxes = []
    n = len(poly.vertices)
    for i in range(n):
        a = poly.vertices[i]
        b = poly.vertices[(i + 1) % n]
        boxes.append((min(a.x, b.x), min(a.y, b.y),
                      max(a.x, b.x), max(a.y, b.y)))
    return boxes


def _ybucket_reference(scale, y: Fraction) -> int:
    nb, n0, d0, k, m = scale
    yd = y.denominator
    return max(0, min(nb - 1, (y.numerator * d0 - n0 * yd) * k // (yd * m)))


def _bucket_edges_reference(poly, nb: int):
    boxes = _edge_bboxes_reference(poly)
    y0, y1 = poly.bbox[1], poly.bbox[3]
    span = y1 - y0
    scale = (nb, y0.numerator, y0.denominator,
             nb * span.denominator, y0.denominator * span.numerator)
    buckets: list[list[int]] = [[] for _ in range(nb)]
    for i in range(len(boxes)):
        for b in range(_ybucket_reference(scale, boxes[i][1]),
                       _ybucket_reference(scale, boxes[i][3]) + 1):
            buckets[b].append(i)
    return scale, buckets


def _locate_index_reference(poly):
    return (_edge_bboxes_reference(poly),
            *_bucket_edges_reference(poly, min(len(poly), 4096)))


def _locate_reference(poly, p: Point, index) -> str:
    """`index` is (edge boxes, scale, buckets) of the polygon, built once
    by `_locate_index_reference`."""
    x0, y0, x1, y1 = poly.bbox
    if p.x < x0 or p.x > x1 or p.y < y0 or p.y > y1:
        return "out"
    hp = hpoint(p)
    hv = poly._h
    n = len(hv)
    boxes, scale, buckets = index
    inside = False
    for i in buckets[_ybucket_reference(scale, p.y)]:
        bx = boxes[i]
        if bx[1] > p.y or bx[3] < p.y:
            continue
        a = hv[i]
        b = hv[(i + 1) % n]
        # boundary test
        if bx[0] <= p.x <= bx[2]:
            if orient_h(a, b, hp) == 0 and _on_segment_collinear(a, b, hp):
                return "on"
        a_above = a[1] * hp[2] > hp[1] * a[2]
        b_above = b[1] * hp[2] > hp[1] * b[2]
        if a_above != b_above:
            o = orient_h(a, b, hp)
            if b_above:  # edge going up: count crossings strictly right
                if o > 0:
                    inside = not inside
            else:
                if o < 0:
                    inside = not inside
    return "in" if inside else "out"


# the reference's own boundary pass, an interval cover of every edge; exact
# covers needs none (see its docstring), so this lives only here

def _exact_boundary_cover(poly: SimplePolygon, gpts, fans=None) -> CoverageReport:
    """Every boundary edge must be covered by visible sub-intervals."""
    if fans is None:
        fans = [visibility_fan(poly, g) for g in gpts]
    verts = poly.vertices
    n = len(verts)
    intervals: dict[int, list[tuple[Fraction, Fraction]]] = {i: [] for i in range(n)}
    for fan in fans:
        for pc in fan:
            a = verts[pc.edge_index]
            b = verts[(pc.edge_index + 1) % n]
            t1 = _projection_param(a, b, pc.start)
            t2 = _projection_param(a, b, pc.end)
            lo, hi = min(t1, t2), max(t1, t2)
            intervals[pc.edge_index].append((lo, hi))
    # collinear grazing runs (sight along the edge's own line)
    for g in gpts:
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            if orient(a, b, g) == 0:
                for lo, hi in _grazing_intervals(poly, g, a, b):
                    intervals[i].append((lo, hi))
    for i in range(n):
        gap = _interval_gap(intervals[i])
        if gap is not None:
            a = verts[i]
            b = verts[(i + 1) % n]
            w = Point(a.x + gap * (b.x - a.x), a.y + gap * (b.y - a.y))
            if all(not visible(poly, g, w) for g in gpts):
                return CoverageReport(False, w, n)
            intervals[i].append((gap, gap))
            gap2 = _interval_gap(intervals[i])
            if gap2 is not None:
                w = Point(a.x + gap2 * (b.x - a.x), a.y + gap2 * (b.y - a.y))
                if all(not visible(poly, g, w) for g in gpts):
                    return CoverageReport(False, w, n)
    return CoverageReport(True, None, n)


def _grazing_intervals(poly, g, a, b):
    """Sub-intervals of edge ab visible from a collinear guard g."""
    cuts = {Fraction(0), Fraction(1)}
    for v in poly.vertices:
        if orient(a, b, v) == 0:
            t = _projection_param(a, b, v)
            if 0 < t < 1:
                cuts.add(t)
    ts = sorted(cuts)
    out = []
    for lo, hi in zip(ts, ts[1:]):
        tm = (lo + hi) / 2
        p = Point(a.x + tm * (b.x - a.x), a.y + tm * (b.y - a.y))
        try:
            if visible(poly, g, p):
                out.append((lo, hi))
        except GeometryError:
            pass
    return out


def _interval_gap(ivs) -> Fraction | None:
    """Midpoint of the first gap in [0,1] not covered by the intervals."""
    reach = Fraction(0)
    for lo, hi in sorted(ivs):
        if lo > reach:
            return (reach + lo) / 2
        reach = max(reach, hi)
    if reach < 1:
        return (reach + 1) / 2
    return None


def _assert_certified(poly, gpts, w):
    assert poly.locate(w) == "in"
    assert not any(visible(poly, g, w) for g in gpts)


def _agree(poly, gpts):
    """Exact covers, the window test and the reference give the same
    verdict; an uncovered report carries a certified witness."""
    rep = covers(poly, GuardConfig(tuple(gpts)))
    assert rep.covered == _fragment_cover(poly, gpts)[0]
    assert rep.covered == (geom.window_test(poly, gpts)[1] is None)
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

    def both(poly, config):
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


@pytest.mark.parametrize("make_complex",
                         [circle_complex, sphere_complex, mobius_complex],
                         ids=["circle", "sphere", "mobius"])
def test_clause_certificate_agrees_with_window_test(make_complex):
    # a gallery is first screened at its clause witness points; the plain
    # polygon goes straight to the pocket test, whose verdict the window
    # test shares
    k = make_complex()
    g = _gallery(k)
    rng = random.Random(3)
    configs = on_face_samples(k, 3, rng) + off_samples_for(g.formula, 3, rng)
    for x, on in zip(configs, [True] * 3 + [False] * 3):
        cfg = embed(g, x)
        rep_g, rep_p = covers(g, cfg), covers(g.polygon, cfg)
        assert rep_g.covered == rep_p.covered == on, x
        assert (geom.window_test(g.polygon, cfg.guards)[1] is None) == on, x
        if on:
            assert rep_g.witness_count == \
                len(g.clause_gadgets) + rep_p.witness_count
            continue
        _assert_certified(g.polygon, cfg.guards, rep_p.uncovered_witness)
        w = rep_g.uncovered_witness
        assert g.polygon.locate(w) != "out"
        assert not any(visible(g.polygon, q, w) for q in cfg.guards)


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
        x1, y1 = poly.bbox[2], poly.bbox[3]
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
    windows = [geom._visibility(poly, hpoint(g))[1] for g in gpts]
    assert windows == [[(hpoint(pt(3, 1)), hpoint(pt(1, 1)))],
                       [(hpoint(pt(1, 1)), hpoint(pt(3, 1)))]]
    rep = _agree(poly, gpts)
    assert rep.covered and rep.witness_count == 2
    assert not covers(poly, GuardConfig((gpts[0],))).covered


def test_uncovered_region_bounded_only_by_windows():
    # the region no guard sees is bounded by windows alone, so every piece
    # that borders it follows a covered piece on its own window: a guard
    # carried along a window must be dropped at the cuts its windows make
    poly = SimplePolygon([pt(x, y) for x, y in (
        (0, 0), (12, 0), (15, 5), (14, 0), (20, 0), (20, 13), (16, 14),
        (20, 15), (20, 20), (18, 20), (8, 10), (16, 20), (0, 20))])
    gpts = [pt(18, _q(33, 2)), pt(16, _q(5, 2)), pt(4, 12)]
    rep = _agree(poly, gpts)
    assert not rep.covered and rep.witness_count == 3


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


BOUNDARY_CASES = [
    (l_shape(), [pt(1, 1)], True),
    (l_shape(), [pt(1, 0)], True),
    (l_shape(), [pt(2, _q(1, 2))], False),
    (comb_polygon(), [pt(1, 1), pt(3, 1), pt(4, 1)], True),
    (comb_polygon(), [pt(1, 1), pt(2, 1)], False),
    (comb_polygon(), [pt(_q(1, 2), 2), pt(3, 1), pt(_q(9, 2), 2)], True),
    (comb_polygon(), [pt(_q(1, 2), 2), pt(_q(5, 2), 2), pt(_q(9, 2), 2)], False),
]
BOUNDARY_IDS = ["l-reflex", "l-edge", "l-edge-uncovered", "comb-reflex",
                "comb-reflex-uncovered", "comb-mixed", "comb-tops-uncovered"]


@pytest.mark.parametrize("poly, gpts, covered", BOUNDARY_CASES,
                         ids=BOUNDARY_IDS)
def test_boundary_viewpoints(poly, gpts, covered):
    # guards at reflex vertices and inside edges look into an exterior cone
    assert _agree(poly, gpts).covered == covered


def test_one_sweep_per_guard(monkeypatch):
    calls = []
    sweep = geom._sweep
    monkeypatch.setattr(geom, "_sweep",
                        lambda poly, hp, *vdirs:
                        calls.append(hpoint_to_point(hp))
                        or sweep(poly, hp, *vdirs))
    poly = l_shape()
    two = GuardConfig((pt(_q(7, 4), _q(1, 2)), pt(_q(1, 4), _q(7, 4))))
    assert covers(poly, two).covered
    assert calls == list(two.guards)
    calls.clear()
    three = GuardConfig((pt(1, 1), pt(2, 1), pt(_q(1, 2), _q(1, 2))))
    assert not covers(comb_polygon(), three).covered
    assert calls == list(three.guards)


def test_sample_solution_space_views_no_guard_point(monkeypatch):
    # every guard of a gallery lies in the room's open rectangle, so the
    # pocket test decides each configuration: no guard point is viewed
    # and no window is tested
    calls = []
    monkeypatch.setattr(geom, "_visibility",
                        lambda poly, hp: calls.append("view"))
    monkeypatch.setattr(verifier, "window_test",
                        lambda poly, guards: calls.append("window_test"))
    k = mobius_complex()
    g = _gallery(k)
    report = verifier.sample_solution_space(g, k, on_count=6, off_count=6,
                                            seed=3, pair_count=0)
    assert report.passed
    assert calls == []


def test_window_layer_makes_points_only_at_the_edge(monkeypatch):
    # one Moebius on-face configuration: each guard is made a triple once,
    # and the sweeps, windows, cuts and piece tests of a covered
    # configuration make no Point; a visibility polygon makes its Points
    # when they are first read
    k = mobius_complex()
    g = _gallery(k)
    guards = list(embed(g, on_face_samples(k, 1, random.Random(7))[0]).guards)
    calls = Counter()
    for name in ("hpoint", "hpoint_to_point"):
        def counted(h, _name=name, _orig=getattr(geom, name)):
            calls[_name] += 1
            return _orig(h)
        monkeypatch.setattr(geom, name, counted)
    built = []
    init = Point.__init__
    monkeypatch.setattr(Point, "__init__",
                        lambda self, x, y: built.append(1) or init(self, x, y))
    tested, bad = geom.window_test(g.polygon, guards)
    assert bad is None and tested > 0
    assert calls == {"hpoint": len(guards)} and built == []
    vp = geom.visibility_polygon(g.polygon, guards[0])
    assert built == []
    verts = vp.vertices
    assert len(built) == len(verts) == len(vp) and vp.vertices is verts


def test_visibility_polygons_take_the_linear_validation(monkeypatch):
    # every visibility polygon of one Moebius window test and of three
    # orientable genus-2 guards is accepted by `_star_simple`: full
    # validation, made to fail here, never runs on them
    k = mobius_complex()
    g = _gallery(k)
    guards = list(embed(g, on_face_samples(k, 1, random.Random(7))[0]).guards)
    g2 = compile_surface(2, True)
    rng = random.Random(7)
    x = [Fraction(rng.randint(1, 63), 64) for _ in range(g2.formula.n)]
    guards2 = rng.sample(embed(g2, x).guards, 3)
    built = []
    star_simple = geom._star_simple
    monkeypatch.setattr(geom, "_star_simple",
                        lambda hp, hv: built.append(hp) or star_simple(hp, hv))

    def refuse(self):
        raise AssertionError("full validation of a visibility polygon")

    monkeypatch.setattr(SimplePolygon, "_validate", refuse)
    tested, bad = geom.window_test(g.polygon, guards)
    assert bad is None and tested > 0
    for q in guards2:
        geom.visibility_polygon(g2.polygon, q)
    assert built == [hpoint(q) for q in guards + guards2]


CROSS_TOUCH_OVERLAP = [
    (0, pt(0, 0), pt(4, 0)),
    (1, pt(3, 0), pt(1, 0)),   # collinear, opposite, inside window 0
    (2, pt(2, 1), pt(2, -1)),  # crosses windows 0 and 1 at (2, 0)
    (2, pt(5, 0), pt(3, 0)),   # collinear, opposite, overlaps [3, 4]
    (3, pt(0, 0), pt(4, 0)),   # collinear, same direction
    (0, pt(_q(1, 2), 1), pt(_q(1, 2), -1)),  # same guard as window 0
]


def test_cut_windows_at_crossings_touches_and_overlap_ends():
    windows = CROSS_TOUCH_OVERLAP
    cut = _cut_windows(_hwindows(windows))
    stops = [[geom.hpoint_to_point(h) for h in hs] for hs, _, _ in cut]
    assert stops[0] == [pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0), pt(4, 0)]
    assert stops[1] == [pt(3, 0), pt(2, 0), pt(1, 0)]
    assert stops[2] == [pt(2, 1), pt(2, 0), pt(2, -1)]
    assert stops[3] == [pt(5, 0), pt(4, 0), pt(3, 0)]
    assert stops[4] == [pt(0, 0), pt(_q(1, 2), 0)] + stops[0][1:]
    assert stops[5] == [pt(_q(1, 2), 1), pt(_q(1, 2), 0), pt(_q(1, 2), -1)]
    # the stops are hpoint's triples
    assert [hs for hs, _, _ in cut] == [[geom.hpoint(p) for p in ps] for ps in stops]
    assert _stops_and_opposite(cut) == _hpoint_stops(_cut_windows_reference(windows))
    hs = [(geom.hpoint(a), geom.hpoint(b)) for _, a, b in windows]
    assert sorted(cut[0][2]) == sorted([hs[1], hs[3]])
    assert sorted(cut[1][2]) == sorted([hs[0], hs[4]])
    assert sorted(cut[4][2]) == sorted([hs[1], hs[3]])
    # the guards (bit gi for guard gi) whose windows pass through each cut;
    # a collinear window sets its bit along the whole overlap
    b0, b1, b2, b3 = 1, 2, 4, 8
    assert cut[0][1] == [b3, b1 | b3, b1 | b2 | b3, b1 | b2 | b3, b2 | b3]
    assert cut[2][1] == [0, b0 | b1 | b3, 0]
    assert cut[4][1] == [b0, b0, b0 | b1, b0 | b1 | b2, b0 | b1 | b2, b0 | b2]


def test_cut_windows_on_a_falling_line():
    # on a falling line the sweep over y meets windows in the reverse of
    # their x order; window 2 runs against 0 and 1 and lists both, in no
    # set order, and every window has the reference's stops
    windows = [
        (1, pt(0, 0), pt(2, -2)),
        (2, pt(1, -1), pt(3, -3)),
        (0, pt(3, -3), pt(1, -1)),
    ]
    cut = _cut_windows(_hwindows(windows))
    hs = [(geom.hpoint(a), geom.hpoint(b)) for _, a, b in windows]
    assert sorted(cut[2][2]) == sorted([hs[0], hs[1]])
    assert _stops_and_opposite(cut) == _hpoint_stops(_cut_windows_reference(windows))


# --- the stabbing sweep against the full scan ----------------------------------

def _same_sweep(poly, gpts):
    # the reference's FanPieces with their ends mapped through hpoint
    for g in gpts:
        assert geom._sweep(poly, hpoint(g)) == [
            None if pc is None
            else (pc.edge_index, hpoint(pc.start), hpoint(pc.end))
            for pc in _sweep_reference(poly, g)], g


@pytest.mark.parametrize("make_complex", [circle_complex, sphere_complex],
                         ids=["circle", "sphere"])
def test_sweep_matches_reference_on_galleries(make_complex):
    # the benchmark's exact-coverage draws: 3 on-face and 3 off-cell points
    k = make_complex()
    g = _gallery(k)
    rng = random.Random(7)
    for x in on_face_samples(k, 3, rng) + off_samples_for(g.formula, 3, rng):
        _same_sweep(g.polygon, embed(g, x).guards)


def test_sweep_matches_reference_on_mobius_and_genus_2():
    k = mobius_complex()
    g = _gallery(k)
    rng = random.Random(7)
    x_on = on_face_samples(k, 1, rng)[0]
    x_off = off_samples_for(g.formula, 1, rng)[0]
    for x in (x_on, x_off):
        _same_sweep(g.polygon, embed(g, x).guards)
    g2 = compile_surface(2, True)
    x = [Fraction(rng.randint(1, 63), 64) for _ in range(g2.formula.n)]
    _same_sweep(g2.polygon, rng.sample(embed(g2, x).guards, 3))


@pytest.mark.parametrize("poly, gpts, covered", BOUNDARY_CASES,
                         ids=BOUNDARY_IDS)
def test_sweep_matches_reference_at_boundary_viewpoints(poly, gpts, covered):
    _same_sweep(poly, gpts)


def test_sweep_matches_reference_collinear_with_far_edges():
    # (1/2, 1) and (1/2, 2) lie on the lines of edges they do not touch
    _same_sweep(comb_polygon(), [pt(_q(1, 2), 1), pt(_q(1, 2), 2),
                                 pt(_q(5, 2), 1)])
    _same_sweep(l_shape(), [pt(_q(1, 2), 1), pt(1, _q(1, 2))])


@st.composite
def histogram_viewpoints(draw):
    """A histogram with viewpoints at its vertices, on its edges and in
    its closed columns."""
    poly, gpts = draw(histograms())
    verts = poly.vertices
    n = len(verts)
    for _ in range(draw(st.integers(0, 2))):
        gpts.append(verts[draw(st.integers(0, n - 1))])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        den = draw(st.integers(2, 7))
        t = Fraction(draw(st.integers(1, den - 1)), den)
        gpts.append(geom.Segment(verts[i], verts[(i + 1) % n]).point_at(t))
    return poly, gpts


@settings(max_examples=200)
@given(histogram_viewpoints())
def test_sweep_matches_reference_on_histograms(case):
    _same_sweep(*case)


# --- the integer fast paths against their Fraction references ----------------

def _windows_of(poly, gpts):
    """The windows `covers` cuts: (guard index, a, b) for every guard,
    with the ends as Points, as the reference takes them."""
    views = [geom._visibility(poly, hpoint(g)) for g in gpts]
    return [(gi, hpoint_to_point(a), hpoint_to_point(b))
            for gi, (_, ws) in enumerate(views) for a, b in ws]


def _hwindows(windows):
    """Windows (guard index, a, b) with Point ends as `_cut_windows` takes
    them: the ends as hpoint triples."""
    return [(gi, hpoint(a), hpoint(b)) for gi, a, b in windows]


def _stops_and_opposite(cut):
    """`_cut_windows`'s stops and its `opposite` lists, sorted (they
    carry no order), without the guard masks."""
    return [(stops, sorted(opp)) for stops, _, opp in cut]


def _hpoint_stops(cut):
    """The reference's cut lists with each stop Point mapped through
    hpoint, which is injective, so equal lists mean equal stops, and its
    `opposite` lists sorted."""
    return [([geom.hpoint(p) for p in stops], sorted(opp)) for stops, opp in cut]


@pytest.mark.parametrize("make_complex", [circle_complex, sphere_complex],
                         ids=["circle", "sphere"])
def test_cut_windows_matches_reference_on_galleries(make_complex):
    # the benchmark's exact-coverage draws: 3 on-face and 3 off-cell points
    k = make_complex()
    g = _gallery(k)
    rng = random.Random(7)
    for x in on_face_samples(k, 3, rng) + off_samples_for(g.formula, 3, rng):
        windows = _windows_of(g.polygon, embed(g, x).guards)
        assert _stops_and_opposite(_cut_windows(_hwindows(windows))) == \
            _hpoint_stops(_cut_windows_reference(windows))


def test_cut_windows_matches_reference_on_mobius():
    k = mobius_complex()
    g = _gallery(k)
    for x in on_face_samples(k, 2, random.Random(7)):
        windows = _windows_of(g.polygon, embed(g, x).guards)
        assert _stops_and_opposite(_cut_windows(_hwindows(windows))) == \
            _hpoint_stops(_cut_windows_reference(windows))


def _brute_force_masks(windows, cut):
    """For each cut point of each window, the bitmask of the other guards
    that have a window through it: every window of another guard whose
    integer box meets the window's box is tested at every cut point."""
    ends = [(hpoint_to_point(ha), hpoint_to_point(hb)) for _, ha, hb in windows]
    boxes = [(floor(min(a.x, b.x)), floor(min(a.y, b.y)),
              ceil(max(a.x, b.x)), ceil(max(a.y, b.y))) for a, b in ends]
    out = []
    for (gi, _, _), bi, (stops, _, _) in zip(windows, boxes, cut):
        near = [(gj, hc, hd) for (gj, hc, hd), bj in zip(windows, boxes)
                if gj != gi and bj[0] <= bi[2] and bi[0] <= bj[2]
                and bj[1] <= bi[3] and bi[1] <= bj[3]]
        out.append([sum({1 << gj for gj, hc, hd in near
                         if orient_h(hc, hd, h) == 0
                         and _on_segment_collinear(hc, hd, h)})
                    for h in stops])
    return out


def _provenance_configs():
    """(name, windows): the hand-built crossings, touches and overlaps, and
    the windows of on-face and off-cell configurations of the circle,
    sphere and Moebius galleries."""
    yield "hand", CROSS_TOUCH_OVERLAP + [
        (1, pt(4, 0), pt(4, 2)),   # touches window 0 at its end
        (3, pt(2, 2), pt(2, 1)),   # stops on window 2's end
    ]
    for make_complex, n in ((circle_complex, 2), (sphere_complex, 2),
                            (mobius_complex, 1)):
        k = make_complex()
        g = _gallery(k)
        rng = random.Random(7)
        for x in on_face_samples(k, n, rng) + off_samples_for(g.formula, 1, rng):
            yield make_complex.__name__, _windows_of(g.polygon, embed(g, x).guards)


def test_cut_windows_records_the_guards_through_each_cut():
    # every cut point of every window, ends included, carries exactly the
    # guards other than its own whose windows pass through it: the window
    # test's run rule is sound only if no such guard is missing
    seen = Counter()
    for name, windows in _provenance_configs():
        cut = _cut_windows(_hwindows(windows))
        masks = [m for _, m, _ in cut]
        assert masks == _brute_force_masks(_hwindows(windows), cut), name
        seen[name] += sum(len(m) - 2 for m in masks)
    assert all(seen[name] > 0 for name in
               ("hand", "circle_complex", "sphere_complex", "mobius_complex"))


@st.composite
def star_polygons(draw):
    """A polygon star-shaped around a rational centre: vertices at rational
    distances along integer directions, every angular gap below pi."""
    dirs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2))
                         .filter(lambda d: d != (0, 0)),
                         min_size=3, max_size=10))
    dirs = sorted({_reduce_dir(*d) for d in dirs}, key=cmp_to_key(_dir_cmp))
    m = len(dirs)
    assume(m >= 3 and all(
        dirs[i][0] * dirs[(i + 1) % m][1] - dirs[i][1] * dirs[(i + 1) % m][0] > 0
        for i in range(m)))
    cx = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 5)))
    cy = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 5)))
    verts = []
    for dx, dy in dirs:
        r = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        verts.append(Point(cx + r * dx, cy + r * dy))
    try:
        return SimplePolygon(verts)
    except GeometryError:
        assume(False)


def _locate_queries(poly):
    """Vertices, edge midpoints, and the points of the 1/8 grid over the
    bounding box grown by 1/2 on every side."""
    x0, y0, x1, y1 = poly.bbox
    gx0, gy0 = floor(8 * x0) - 4, floor(8 * y0) - 4
    gx1, gy1 = ceil(8 * x1) + 4, ceil(8 * y1) + 4
    return (list(poly.vertices) + [midpoint(a, b) for a, b in poly.edges()]
            + [Point(Fraction(i, 8), Fraction(j, 8))
               for i in range(gx0, gx1 + 1) for j in range(gy0, gy1 + 1)])


def _same_locate(poly):
    index = _locate_index_reference(poly)
    for q in _locate_queries(poly):
        want = _locate_reference(poly, q, index)
        assert poly.locate(q) == want, q
        # directly on the triple, also unreduced and outside the box
        x, y, w = hpoint(q)
        assert poly._locate_h((x, y, w)) == want, q
        assert poly._locate_h((3 * x, 3 * y, 3 * w)) == want, q


def _same_buckets(poly):
    """`_bucket_edges(nb)` for several nb: every vertex height falls in a
    bucket in [0, nb - 1], the bucket of a height never falls as the
    height rises, and each edge is listed, in index order, in exactly the
    buckets between its two ends' buckets."""
    n = len(poly)
    ys = [v.y for v in poly.vertices]
    # the vertex heights, the heights between them, and two outside
    heights = sorted(set(ys))
    heights = sorted(heights + [(a + b) / 2 for a, b in zip(heights, heights[1:])]
                     + [heights[0] - 1, heights[-1] + 1])
    for nb in (1, 2, 3, n, min(4 * n, 4096)):
        y0, d, buckets = poly._bucket_edges(nb)
        assert len(buckets) == nb

        def bucket(y):
            return (rational_key(y) - y0) * nb // d

        assert all(0 <= bucket(y) < nb for y in ys)
        seen = [bucket(y) for y in heights]
        assert seen == sorted(seen)
        spans = [sorted((bucket(ys[i]), bucket(ys[(i + 1) % n]))) for i in range(n)]
        assert buckets == [[i for i, (lo, hi) in enumerate(spans) if lo <= b <= hi]
                           for b in range(nb)]


@settings(max_examples=60)
@given(histograms())
def test_locate_matches_reference_on_histograms(case):
    poly, _ = case
    _same_locate(poly)
    _same_buckets(poly)


@settings(max_examples=60)
@given(star_polygons())
def test_locate_matches_reference_on_star_polygons(poly):
    _same_locate(poly)
    _same_buckets(poly)


# --- visible against its Fraction reference ------------------------------------

def _same_visible(poly, pairs):
    for p, q in pairs:
        try:
            want = _visible_reference(poly, p, q)
        except GeometryError:
            with pytest.raises(GeometryError):
                visible(poly, p, q)
            continue
        assert visible(poly, p, q) == want, (p, q)


def _visible_pairs(poly, rnd):
    """Every pair of vertices and edge midpoints, and 200 pairs drawn from
    those and the 1/8 grid of `_locate_queries` (outside points included)."""
    pts = _locate_queries(poly)
    ends = pts[:2 * len(poly)]
    return ([(p, q) for p in ends for q in ends]
            + [(rnd.choice(pts), rnd.choice(pts)) for _ in range(200)])


@settings(max_examples=40)
@given(histograms(), st.randoms(use_true_random=False))
def test_visible_matches_reference_on_histograms(case, rnd):
    poly, gpts = case
    _same_visible(poly, _visible_pairs(poly, rnd)
                  + [(g, q) for g in gpts for q in poly.vertices])


@settings(max_examples=40)
@given(star_polygons(), st.randoms(use_true_random=False))
def test_visible_matches_reference_on_star_polygons(poly, rnd):
    _same_visible(poly, _visible_pairs(poly, rnd))


@pytest.mark.parametrize("make_complex", [circle_complex, mobius_complex],
                         ids=["circle", "mobius"])
def test_visible_matches_reference_on_galleries(make_complex):
    # the queries `covers` and `verify` make: embedded guards against
    # clause witnesses and vertices, and vertex against vertex
    k = make_complex()
    g = _gallery(k)
    verts = g.polygon.vertices
    n = len(verts)
    rng = random.Random(5)
    xs = on_face_samples(k, 2, rng) + off_samples_for(g.formula, 2, rng)
    gpts = [q for x in xs for q in embed(g, x).guards]
    targets = [cg.witness_point for cg in g.clause_gadgets] + list(verts[::9])
    pairs = [(q, w) for q in gpts for w in targets]
    pairs += [(verts[i], verts[(i + s) % n]) for i in range(n) for s in (2, 7)]
    _same_visible(g.polygon, pairs)


# --- whole-window dismissal against the eager window test ---------------------

def _same_as_eager(poly, gpts):
    """`window_test` returns the eager test's uncovered piece, or None
    with it, and tests no more pieces."""
    tested, bad = geom.window_test(poly, gpts)
    eager_tested, eager_bad = _window_test_eager(poly, gpts)
    assert bad == eager_bad
    assert tested <= eager_tested
    return bad


@settings(max_examples=200)
@given(histograms())
def test_window_test_matches_eager_on_histograms(case):
    _same_as_eager(*case)


@st.composite
def star_polygon_guards(draw):
    """A star polygon and 1-3 guards among its vertices, edge midpoints
    and 1/8 grid points that are not outside it."""
    poly = draw(star_polygons())
    pts = [p for p in _locate_queries(poly) if poly.locate(p) != "out"]
    return poly, draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))


@settings(max_examples=100)
@given(star_polygon_guards())
def test_window_test_matches_eager_on_star_polygons(case):
    _same_as_eager(*case)


@pytest.mark.parametrize("make_complex, n",
                         [(circle_complex, 3), (sphere_complex, 3),
                          (mobius_complex, 1)],
                         ids=["circle", "sphere", "mobius"])
def test_window_test_matches_eager_on_galleries(make_complex, n):
    k = make_complex()
    g = _gallery(k)
    rng = random.Random(11)
    for x in on_face_samples(k, n, rng):
        assert _same_as_eager(g.polygon, list(embed(g, x).guards)) is None
    for x in off_samples_for(g.formula, n, rng):
        assert _same_as_eager(g.polygon, list(embed(g, x).guards)) is not None


def test_window_test_matches_eager_on_genus_2():
    # a point of band 0 on the orientable genus-2 surface, as in
    # test_compiler's band coverage test
    g = compile_surface(2, True)
    fc1, _ = canonical_removed_faces(torus_complex())
    rim = next(f for f in face_with_boundary(torus_complex(), fc1).faces
               if f.count(None) == 1)
    ks = g.formula.band_constants
    x = [(ks[0] + ks[1]) / 2] + [_q(1, 2) if v is None else Fraction(v) for v in rim]
    assert _same_as_eager(g.polygon, list(embed(g, x).guards)) is None


def test_near_guard_holding_the_midpoint_does_not_dismiss():
    # histogram of column heights 5, 4, 1, 2.  Guard a sees past the reflex
    # corner (3, 1) along its window w to (0, 0); guard b's visibility
    # polygon holds w's midpoint (3/2, 1/2), but b's window from (2, 1)
    # crosses w at (5/2, 5/6), and the stretch of w between (3, 1) and that
    # point has no guard on its hidden side.  b is near w, so w is cut and
    # its pieces are decided one by one.
    poly = SimplePolygon([pt(x, y) for x, y in (
        (0, 0), (4, 0), (4, 2), (3, 2), (3, 1), (2, 1), (2, 4), (1, 4),
        (1, 5), (0, 5))])
    gpts = [pt(_q(15, 4), _q(5, 4)), pt(_q(1, 2), _q(3, 2))]
    views = [geom._visibility(poly, hpoint(g)) for g in gpts]
    windows = [(gi, ha, hb) for gi, (_, ws) in enumerate(views) for ha, hb in ws]
    w = windows.index((0, hpoint(pt(3, 1)), hpoint(pt(0, 0))))
    assert views[1][0].locate(pt(_q(3, 2), _q(1, 2))) == "in"
    near, _ = geom._window_candidates(windows)
    assert near[w] == 0b10
    stops = [hpoint_to_point(h) for h in _cut_windows(windows)[w][0]]
    assert stops == [pt(3, 1), pt(_q(5, 2), _q(5, 6)), pt(0, 0)]
    assert _same_as_eager(poly, gpts) == (pt(3, 1), pt(_q(5, 2), _q(5, 6)))


def test_most_moebius_windows_are_dismissed_whole(monkeypatch):
    # the on-face configurations `verify --seed 1 --on-samples 4` draws
    counts = Counter()
    candidates, cut = geom._window_candidates, geom._cut_window
    monkeypatch.setattr(geom, "_window_candidates",
                        lambda ws: counts.update(windows=len(ws)) or candidates(ws))
    monkeypatch.setattr(geom, "_cut_window",
                        lambda ha, hb, c: counts.update(cut=1) or cut(ha, hb, c))
    k = mobius_complex()
    g = _gallery(k)
    for x in on_face_samples(k, 4, random.Random(1)):
        assert geom.window_test(g.polygon, embed(g, x).guards)[1] is None
    assert 0 < counts["cut"] < counts["windows"] / 4


# --- the one-walk visibility polygon and windows against the two walks ---------

def _star_polygon_reference(hp, raw):
    """The visibility polygon traced by the sweep `raw`: every cone end,
    p once per gap, then every straight-through vertex removed by
    `orient_h` and `_dot_h`."""
    if all(pc is None for pc in raw):
        raise GeometryError("no visible area from viewpoint")
    start = next(i for i, pc in enumerate(raw) if pc is not None)
    out = []
    for pc in raw[start:] + raw[:start]:
        for h in (hp,) if pc is None else pc[1:]:
            if not out or out[-1] != h:
                out.append(h)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    cleaned = []
    nn = len(out)
    for i in range(nn):
        a, b, c = out[i - 1], out[i], out[(i + 1) % nn]
        if orient_h(a, b, c) == 0 and geom._dot_h(a, b, c) > 0:
            continue
        cleaned.append(b)
    return SimplePolygon._of_h(cleaned, hp)


def _windows_reference(poly, hp, raw, vdirs):
    """The windows of the sweep `raw`: each run between two cones split at
    the polygon vertices on it, and the parts whose midpoint is inside."""
    hv = poly._h
    on_ray = {}
    for v, d in enumerate(vdirs):
        if d is not None:
            on_ray.setdefault(d, []).append(v)
    out = []
    k = len(raw)
    for i in range(k):
        cur, nxt = raw[i], raw[(i + 1) % k]
        ha = hp if cur is None else cur[2]
        hb = hp if nxt is None else nxt[1]
        if ha == hb:
            continue
        hf = hb if ha == hp else ha
        d = _reduce_dir(hf[0] * hp[2] - hp[0] * hf[2],
                        hf[1] * hp[2] - hp[1] * hf[2])
        stops = {ha, hb}
        for v in on_ray.get(d, ()):
            if _on_segment_collinear(ha, hb, hv[v]):
                stops.add(hv[v])
        hs = geom._order_along(ha, hb, stops)
        out += [(h0, h1) for h0, h1 in zip(hs, hs[1:])
                if poly._locate_h(geom._hmid(h0, h1)) == "in"]
    return out


def _same_visibility(poly, pts):
    """`_visibility` gives the two walks' vertex triples and windows, in
    their order, or raises where they raise."""
    for q in pts:
        hp = hpoint(q)
        vdirs = geom._vertex_dirs(poly, hp)
        try:
            raw = geom._sweep(poly, hp, vdirs)
            want = (_star_polygon_reference(hp, raw)._h,
                    _windows_reference(poly, hp, raw, vdirs))
        except GeometryError:
            with pytest.raises(GeometryError):
                geom._visibility(poly, hp)
            continue
        vp, windows = geom._visibility(poly, hp)
        assert (vp._h, windows) == want, q


def _vertices_and_midpoints(poly, step=1):
    verts = poly.vertices
    n = len(verts)
    return list(verts[::step]) + [midpoint(verts[i], verts[(i + 1) % n])
                                  for i in range(0, n, step)]


@settings(max_examples=100)
@given(histograms())
def test_visibility_matches_two_walks_on_histograms(case):
    poly, gpts = case
    _same_visibility(poly, gpts + _vertices_and_midpoints(poly))


@settings(max_examples=100)
@given(star_polygons())
def test_visibility_matches_two_walks_on_star_polygons(poly):
    inside = [p for p in _locate_queries(poly)[2 * len(poly):]
              if poly.locate(p) == "in"]
    _same_visibility(poly, inside[::7] + _vertices_and_midpoints(poly))


@pytest.mark.parametrize("make_complex",
                         [circle_complex, sphere_complex, mobius_complex],
                         ids=["circle", "sphere", "mobius"])
def test_visibility_matches_two_walks_on_galleries(make_complex):
    # on-face guards, and every third vertex and edge midpoint
    k = make_complex()
    g = _gallery(k)
    gpts = [q for x in on_face_samples(k, 3, random.Random(7))
            for q in embed(g, x).guards]
    _same_visibility(g.polygon, gpts + _vertices_and_midpoints(g.polygon, 3))


def test_visibility_matches_two_walks_on_genus_2():
    g2 = compile_surface(2, True)
    rng = random.Random(7)
    x = [Fraction(rng.randint(1, 63), 64) for _ in range(g2.formula.n)]
    _same_visibility(g2.polygon, rng.sample(embed(g2, x).guards, 3))


def test_visibility_walk_locates_no_point(monkeypatch):
    # the window parts are told apart by their ends: at Moebius gallery
    # vertices and edge midpoints, boundary viewpoints that still take the
    # sweep, `_visibility` locates exactly the points `_sweep` does
    poly = _gallery(mobius_complex()).polygon
    calls = []
    locate_h = SimplePolygon._locate_h
    monkeypatch.setattr(SimplePolygon, "_locate_h",
                        lambda self, hq: calls.append(hq) or locate_h(self, hq))
    with_windows = 0
    for q in _vertices_and_midpoints(poly, 5):
        hp = hpoint(q)
        geom._sweep(poly, hp)
        swept = len(calls)
        calls.clear()
        _, windows = geom._visibility(poly, hp)
        assert len(calls) == swept, q
        with_windows += bool(windows)
        calls.clear()
    assert with_windows > 0


# --- the room view and `visible` on rooms against the sweep and the cutter -----

_ROOM_GALLERIES = {}


def _room_gallery(name):
    """The gallery of one fixture and the guards of its on-face samples
    (three configurations; for orientable genus 2, one seeded point),
    built once."""
    if name not in _ROOM_GALLERIES:
        if name == "orientable-2":
            g = compile_surface(2, True)
            rng = random.Random(7)
            xs = [[Fraction(rng.randint(1, 63), 64) for _ in range(g.formula.n)]]
        else:
            k = {"circle": circle_complex, "sphere": sphere_complex,
                 "mobius": mobius_complex}[name]()
            g = _gallery(k)
            xs = on_face_samples(k, 3, random.Random(7))
        guards = list(dict.fromkeys(q for x in xs for q in embed(g, x).guards))
        _ROOM_GALLERIES[name] = g, guards
    return _ROOM_GALLERIES[name]


def _without_room(poly):
    """poly as a polygon that is not read as a room: its views take the
    sweep and `visible` the segment cutter."""
    ref = SimplePolygon._of_h(poly._h)
    ref._room = False
    return ref


@st.composite
def _room_points(draw, poly):
    """A rational point of the room's open rectangle: at a free height, at
    the height of a vertex (so that vertex lies at angle 0 or pi), or on
    the line of an edge (so that edge lies along a ray from the point)."""
    room = geom._room_of(poly)
    lo, hi = hpoint_to_point(room.lo), hpoint_to_point(room.hi)
    x = lo.x + (hi.x - lo.x) * Fraction(draw(st.integers(1, 1023)), 1024)
    mode = draw(st.sampled_from(["free", "vertex", "edge"]))
    if mode == "free":
        y = lo.y + (hi.y - lo.y) * Fraction(draw(st.integers(1, 1023)), 1024)
    elif mode == "vertex":
        y = draw(st.sampled_from(poly.vertices)).y
    else:
        a, b = draw(st.sampled_from(list(poly.edges())))
        assume(a.x != b.x)
        y = a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)
    assume(lo.y < y < hi.y)
    return Point(x, y)


@pytest.mark.parametrize("name", ["circle", "sphere", "mobius", "orientable-2"])
def test_room_view_matches_sweep_on_galleries(name):
    # every on-face guard lies in the open rectangle and takes the room
    # view; it and drawn points give the sweep's polygon and windows
    g, guards = _room_gallery(name)
    poly = g.polygon
    room = geom._room_of(poly)
    assert room is not None and all(room.holds(hpoint(q)) for q in guards)
    _same_visibility(poly, guards)

    @settings(max_examples=25 if name == "orientable-2" else 60, deadline=None)
    @given(st.lists(_room_points(poly), min_size=1, max_size=3))
    def drawn(pts):
        _same_visibility(poly, pts)

    drawn()


def test_room_is_recognised_on_the_first_view_only():
    # compiling, assembling and validating the room leave it unread
    g = _gallery(circle_complex())
    assert g.polygon._room is None
    geom.visibility_polygon(g.polygon, embed(g, [_q(1, 2)] * g.formula.n).guards[0])
    assert isinstance(g.polygon._room, geom._Room)


@pytest.mark.parametrize("name", ["circle", "sphere", "mobius"])
def test_room_visible_matches_segment_cutter(name):
    # from the guards of one configuration and the rectangle's centre, to
    # every vertex, edge midpoint and clause witness
    g, guards = _room_gallery(name)
    poly = g.polygon
    ref = _without_room(poly)
    room = geom._room_of(poly)
    lo, hi = hpoint_to_point(room.lo), hpoint_to_point(room.hi)
    ps = guards[:len(embed(g, [_q(1, 2)] * g.formula.n).guards)]
    ps.append(midpoint(lo, hi))
    qs = (_vertices_and_midpoints(poly)
          + [cg.witness_point for cg in g.clause_gadgets])
    seen = Counter()
    for p in ps:
        for q in qs:
            want = visible(ref, p, q)
            assert visible(poly, p, q) == want, (p, q)
            seen[want] += 1
    assert seen[True] and seen[False]


@st.composite
def rooms(draw):
    """A room [0, w] x [0, 12] with pockets through both walls: triangles,
    trapezoids and triangles with a straight-through vertex on an edge,
    apexes up to two units past their mouth's heights but off the floor
    and the ceiling lines (else the floor or ceiling would be two edges,
    which `_room_of` refuses); wall vertices
    between two wall edges run straight on.  Returns the polygon and
    1-3 points of its open rectangle."""
    w = draw(st.integers(2, 6))
    h = 12

    def wall(x, out):
        """The wall's vertices from y = 0 to y = 12, pockets included."""
        ys = [0] + sorted(draw(st.sets(st.integers(1, h - 1), max_size=6))) + [h]
        verts = [pt(x, 0)]
        mouth = False
        for y0, y1 in zip(ys, ys[1:]):
            mouth = not mouth and draw(st.booleans())
            if mouth:
                d = draw(st.integers(1, 3))
                a, b = sorted(draw(st.integers(max(1, y0 - 2), min(h - 1, y1 + 2)))
                              for _ in range(2))
                shape = draw(st.sampled_from(["tri", "trap", "straight"]))
                if shape == "trap" and a < b:
                    chain = [pt(x + out * d, a), pt(x + out * d, b)]
                else:
                    apex = pt(x + out * d, a)
                    chain = [apex]
                    if shape == "straight" and draw(st.booleans()):
                        chain.insert(0, midpoint(pt(x, y0), apex))
                    elif shape == "straight":
                        chain.append(midpoint(apex, pt(x, y1)))
                verts += chain
            verts.append(pt(x, y1))
        return verts

    right = wall(w, 1)
    left = wall(0, -1)
    verts = [pt(0, 0)] + right + left[::-1][:-1]
    try:
        poly = SimplePolygon(verts)
    except GeometryError:
        assume(False)
    pts = [Point(Fraction(draw(st.integers(1, 8 * w - 1)), 8),
                 draw(st.sampled_from([Fraction(draw(st.integers(1, 8 * h - 1)), 8),
                                       Fraction(draw(st.integers(1, h - 1)))])))
           for _ in range(draw(st.integers(1, 3)))]
    return poly, pts


@settings(max_examples=150, deadline=None)
@given(rooms())
def test_room_paths_match_sweep_and_cutter_on_random_rooms(case):
    poly, pts = case
    assert geom._room_of(poly) is not None
    _same_visibility(poly, pts)
    ref = _without_room(poly)
    for p in pts:
        for q in _vertices_and_midpoints(poly):
            assert visible(poly, p, q) == visible(ref, p, q), (p, q)


def _reflex_pocket_room():
    # the right wall's pocket turns right at (5, 2)
    return SimplePolygon([pt(x, y) for x, y in (
        (0, 0), (4, 0), (4, 1), (6, 1), (5, 2), (6, 3), (4, 3), (4, 4), (0, 4))])


def _pocket_below_floor_room():
    # the pocket's apex (6, 0) lies below the floor y = 1
    return SimplePolygon([pt(x, y) for x, y in (
        (0, 1), (4, 1), (4, 2), (6, 0), (4, 3), (4, 5), (0, 5))])


def _shared_mouth_corner_room():
    # two pockets meet at the mouth corner (4, 3)
    return SimplePolygon([pt(x, y) for x, y in (
        (0, 0), (4, 0), (4, 1), (5, 2), (4, 3), (5, 4), (4, 5), (4, 6), (0, 6))])


@pytest.mark.parametrize("poly, p", [
    (l_shape(), pt(_q(1, 2), _q(1, 2))),
    (comb_polygon(), pt(_q(5, 2), _q(1, 2))),
    (_reflex_pocket_room(), pt(2, 2)),
    (_pocket_below_floor_room(), pt(2, 3)),
    (_shared_mouth_corner_room(), pt(2, 3)),
], ids=["l-shape", "comb", "reflex-pocket", "pocket-below-floor",
        "shared-mouth-corner"])
def test_recogniser_negatives_take_the_sweep(monkeypatch, poly, p):
    swept = []
    sweep = geom._sweep
    monkeypatch.setattr(geom, "_sweep",
                        lambda poly, hp, *vdirs:
                        swept.append(hp) or sweep(poly, hp, *vdirs))
    assert geom._room_of(poly) is None
    geom._visibility(poly, hpoint(p))
    assert swept == [hpoint(p)]


# --- the pocket test against the window test ----------------------------------

def _pocket_test_index_order(poly, gpts):
    """`geom.pocket_test` with its pre-pass trying the guards in index
    order: the reference for the nearest-row-first order."""
    room = geom._room_of(poly)
    hgs = [hpoint(g) for g in gpts]
    if room is None or not all(room.holds(h) for h in hgs):
        return None
    checked = 0
    for _, pockets in room.walls:
        for _, _, pocket in pockets:
            checked += 1
            hs = [poly._h[v] for v in pocket]
            m0, m1, inner = hs[0], hs[-1], hs[1:-1]
            lines = [(_hline(hg, m0), _hline(hg, m1), hg) for hg in hgs]
            if any(all(geom._dot(l0, h) >= 0 >= geom._dot(l1, h)
                       for h in inner) for l0, l1, _ in lines):
                continue
            lines.sort(key=cmp_to_key(lambda a, b: geom._dot(a[0], b[2])))
            cut = None
            for l0, l1, hg in lines:
                clip = geom._clip_h(hs, (-l0[0], -l0[1], -l0[2]))
                w = geom._inner_point(
                    clip if cut is None else geom._clip_h(clip, cut))
                if w is not None:
                    return checked, hpoint_to_point(w)
                if cut is None or geom._dot(cut, hg) < 0:
                    cut = l1
            w = geom._inner_point(geom._clip_h(hs, cut))
            if w is not None:
                return checked, hpoint_to_point(w)
    return checked, None


def _same_as_window_test(poly, gpts):
    """The pocket test runs on poly and gives the window test's verdict
    and the index-order reference's result; its witness is inside poly and
    seen by no guard.  Returns the verdict."""
    found = geom.pocket_test(poly, gpts)
    assert found is not None
    assert found == _pocket_test_index_order(poly, gpts)
    _, w = found
    assert (w is None) == (geom.window_test(poly, gpts)[1] is None)
    if w is not None:
        _assert_certified(poly, gpts, w)
    return w is None


@pytest.mark.parametrize("make_complex",
                         [circle_complex, sphere_complex, mobius_complex],
                         ids=["circle", "sphere", "mobius"])
def test_pocket_test_matches_window_test_on_galleries(make_complex):
    # three on-face and three off-cell configurations, on the gallery and
    # on a plain copy of its polygon
    k = make_complex()
    g = _gallery(k)
    plain = SimplePolygon(g.polygon.vertices)
    rng = random.Random(5)
    configs = on_face_samples(k, 3, rng) + off_samples_for(g.formula, 3, rng)
    for x, on in zip(configs, [True] * 3 + [False] * 3):
        cfg = embed(g, x)
        assert _same_as_window_test(plain, cfg.guards) == on, x
        assert covers(g, cfg).covered == covers(plain, cfg).covered == on, x


def test_pocket_test_matches_window_test_on_genus_2():
    # a point of band 0 on the orientable genus-2 surface that satisfies
    # the formula and one that does not, as in test_compiler
    g = compile_surface(2, True)
    fc1, _ = canonical_removed_faces(torus_complex())
    rim = next(f for f in face_with_boundary(torus_complex(), fc1).faces
               if f.count(None) == 1)
    ks = g.formula.band_constants
    mid = (ks[0] + ks[1]) / 2
    x_on = [mid] + [_q(1, 2) if v is None else Fraction(v) for v in rim]
    x_off = [mid] + [_q(1, 2) if v is None else Fraction(v) for v in fc1]
    assert _same_as_window_test(g.polygon, embed(g, x_on).guards)
    assert not _same_as_window_test(g.polygon, embed(g, x_off).guards)


@st.composite
def _pocket_rooms(draw):
    """A room of `rooms` and its points, with up to three more guards on the
    line through a mouth corner and its neighbour on the pocket's chain
    (a wedge side then runs along that pocket edge)."""
    poly, pts = draw(rooms())
    room = geom._room_of(poly)
    pockets = [pocket for _, ps in room.walls for _, _, pocket in ps]
    hv = poly._h
    for _ in range(draw(st.integers(0, 3) if pockets else st.just(0))):
        pocket = draw(st.sampled_from(pockets))
        m, c = draw(st.sampled_from([pocket[:2], pocket[:-3:-1]]))
        a, b = hpoint_to_point(hv[m]), hpoint_to_point(hv[c])
        t = Fraction(draw(st.integers(1, 16)), 8)
        g = Point(a.x + t * (a.x - b.x), a.y + t * (a.y - b.y))
        if room.holds(hpoint(g)):
            pts.append(g)
    return poly, pts


@settings(max_examples=300, deadline=None)
@given(_pocket_rooms())
def test_pocket_test_matches_window_test_on_random_rooms(case):
    _same_as_window_test(*case)


def _one_wedge_room():
    # the square [0, 8]^2 with the pocket (8, 3), (12, 4), (8, 5)
    return SimplePolygon([pt(x, y) for x, y in (
        (0, 0), (8, 0), (8, 3), (12, 4), (8, 5), (8, 8), (0, 8))])


def test_pocket_missed_between_two_guards_is_one_wedge():
    # the guard at (4, 1) sees the pocket above the line from it through
    # (8, 3), the guard at (4, 7) below the line from it through (8, 5):
    # the missed part is the one staircase wedge between those lines,
    # around the apex; a guard at (4, 4) sees the whole pocket
    poly = _one_wedge_room()
    low, high = pt(4, 1), pt(4, 7)
    assert not _same_as_window_test(poly, [low, high])
    checked, w = geom.pocket_test(poly, [low, high])
    assert checked == 1
    assert orient(low, pt(8, 3), w) < 0 < orient(high, pt(8, 5), w)
    assert _same_as_window_test(poly, [low, high, pt(4, 4)])
    # a wedge side along the edge (8, 3)-(12, 4), or at the lower mouth
    # corner's height, still lets one guard see the whole pocket
    assert _same_as_window_test(poly, [pt(4, 2)])
    assert _same_as_window_test(poly, [pt(4, 3)])


def test_pocket_test_matches_window_test_on_a_moved_guard():
    # each guard of one Moebius configuration moved off its segment, by a
    # step within the open rectangle
    k = mobius_complex()
    g = _gallery(k)
    room = geom._room_of(g.polygon)
    guards = list(embed(g, on_face_samples(k, 1, random.Random(7))[0]).guards)
    verdicts = Counter()
    for i, q in enumerate(guards):
        moved = Point(q.x + _q(1, 16), q.y - _q(1, 16))
        assert room.holds(hpoint(moved))
        verdicts[_same_as_window_test(
            g.polygon, guards[:i] + [moved] + guards[i + 1:])] += 1
    assert verdicts[False]


def test_pocket_test_matches_window_test_on_a_widened_copy_mouth():
    # the lower mouth corner D of a copy chamber moved down the left wall,
    # halfway to the next wall vertex: the chamber stays convex and opens
    # toward the rows
    k = mobius_complex()
    g = _gallery(k)
    verts = list(g.polygon.vertices)
    for pair in g.copy_pairs[:2]:
        i = verts.index(pair.gadget.D)
        wide = SimplePolygon(verts[:i] + [midpoint(verts[i], verts[i + 1])]
                             + verts[i + 1:])
        assert geom._room_of(wide) is not None
        for x in on_face_samples(k, 2, random.Random(7)):
            _same_as_window_test(wide, embed(g, x).guards)


@pytest.mark.parametrize("poly, gpts", [
    (square(), [pt(1, 0)]),
    (square(), [pt(2, 2), pt(4, 4)]),
    (_one_wedge_room(), [pt(4, 4), pt(10, 4)]),
    (_one_wedge_room(), [pt(8, 4)]),
    (comb_polygon(), [pt(_q(1, 2), _q(3, 2))]),
    (l_shape(), [pt(_q(1, 2), _q(1, 2))]),
], ids=["square-edge", "square-corner", "in-pocket", "in-mouth", "comb",
        "l-shape"])
def test_pocket_test_falls_back_to_window_test(monkeypatch, poly, gpts):
    # a guard on the rectangle's boundary or beyond it, or a polygon that
    # is not a room, takes the window test
    called = []
    window_test = verifier.window_test
    monkeypatch.setattr(verifier, "window_test", lambda poly, guards:
                        called.append(1) or window_test(poly, guards))
    assert geom.pocket_test(poly, gpts) is None
    covers(poly, GuardConfig(tuple(gpts)))
    assert called == [1]


def test_exact_coverage_at_non_orientable_genus_2():
    # 7,764 vertices and 446 guards: one on-cell configuration, found by a
    # seeded search over the grid representatives, is covered; one
    # off-cell configuration is not, with a certified witness
    g = compile_surface(2, False)
    f = g.formula
    rng = random.Random(0)
    cells = [[rng.choice(axis) for axis in grid_axes(f)] for _ in range(64)]
    x_on = next(x for x in cells if eval_formula(f, x))
    x_off = next(x for x in cells if not eval_formula(f, x))
    assert covers(g, embed(g, x_on)).covered
    cfg = embed(g, x_off)
    rep = covers(g.polygon, cfg)
    assert not rep.covered
    _assert_certified(g.polygon, cfg.guards, rep.uncovered_witness)
    # the nearest-row-first pre-pass checks the same pockets and finds the
    # same witness as the index-order reference
    for x in (x_on, x_off):
        gpts = embed(g, x).guards
        assert geom.pocket_test(g.polygon, gpts) == \
            _pocket_test_index_order(g.polygon, gpts)
