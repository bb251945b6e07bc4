"""Exact rational plane geometry: predicates, intersections, visibility.

Everything is computed over Python Fractions; no floating point is used
anywhere.  Hot predicates run on homogeneous integer triples (X, Y, W) so
the inner loops do integer multiplication instead of repeated Fraction
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence


class GeometryError(ValueError):
    """Degenerate input or violated precondition."""


Rat = Fraction


def rat(v) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def pt(x, y) -> Point:
    return Point(rat(x), rat(y))


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def dist_sq(a: Point, b: Point) -> Fraction:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise GeometryError(f"degenerate segment at {self.a}")

    def point_at(self, t: Fraction) -> Point:
        return Point(self.a.x + t * (self.b.x - self.a.x),
                     self.a.y + t * (self.b.y - self.a.y))


# Homogeneous integer coordinates: (X, Y, W) with W > 0 represents (X/W, Y/W).

def hpoint(p: Point) -> tuple[int, int, int]:
    xd = p.x.denominator
    yd = p.y.denominator
    return (p.x.numerator * yd, p.y.numerator * xd, xd * yd)


def hpoint_to_point(h: tuple[int, int, int]) -> Point:
    return Point(Fraction(h[0], h[2]), Fraction(h[1], h[2]))


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def orient_h(a, b, c) -> int:
    """Sign of the signed area of triangle abc, on homogeneous points."""
    ux = b[0] * a[2] - a[0] * b[2]
    uy = b[1] * a[2] - a[1] * b[2]
    vx = c[0] * a[2] - a[0] * c[2]
    vy = c[1] * a[2] - a[1] * c[2]
    # common factor aw^2 * bw * cw > 0
    return _sign(ux * vy - uy * vx)


def orient(p: Point, q: Point, r: Point) -> int:
    """Orientation of the triple (p, q, r): +1 ccw, -1 cw, 0 collinear."""
    return orient_h(hpoint(p), hpoint(q), hpoint(r))


def _hline(a, b) -> tuple[int, int, int]:
    """Projective line through two homogeneous points (cross product)."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _hmeet(l1, l2) -> tuple[int, int, int]:
    """Intersection of two projective lines; W == 0 means parallel."""
    x = l1[1] * l2[2] - l1[2] * l2[1]
    y = l1[2] * l2[0] - l1[0] * l2[2]
    w = l1[0] * l2[1] - l1[1] * l2[0]
    if w < 0:
        return (-x, -y, -w)
    return (x, y, w)


def intersect_lines(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    """Exact intersection of line(p1,p2) with line(q1,q2).

    Raises GeometryError for coincident defining points or parallel lines.
    """
    if p1 == p2 or q1 == q2:
        raise GeometryError("degenerate line: defining points coincide")
    m = _hmeet(_hline(hpoint(p1), hpoint(p2)), _hline(hpoint(q1), hpoint(q2)))
    if m[2] == 0:
        raise GeometryError("parallel lines do not intersect")
    return hpoint_to_point(m)


def invert_through(z: Point, p: Point, target_y) -> Point:
    """Image of p under inversion through z onto the horizontal line y=target_y.

    Requires z.y strictly between p.y and target_y (so z is an interior
    pivot between the two parallel lines).
    """
    target_y = rat(target_y)
    if p.y == z.y:
        raise GeometryError("pivot lies on the source line")
    if not ((p.y < z.y < target_y) or (target_y < z.y < p.y)):
        raise GeometryError("pivot not strictly between source and target lines")
    t = (target_y - p.y) / (z.y - p.y)
    return Point(p.x + t * (z.x - p.x), target_y)


def hausdorff_distance_sq_max(g0: Iterable[Point], g1: Iterable[Point]) -> Fraction:
    """Squared Hausdorff distance between two finite nonempty point sets."""
    a = list(g0)
    b = list(g1)
    if not a or not b:
        raise GeometryError("hausdorff distance of an empty set")

    def directed(src, dst):
        return max(min(dist_sq(p, q) for q in dst) for p in src)

    return max(directed(a, b), directed(b, a))


def _between_1d(an, aw, bn, bw, pn, pw) -> bool:
    """min(a,b) <= p <= max(a,b) for rationals an/aw etc., all w > 0."""
    lo_ok = (an * pw <= pn * aw) or (bn * pw <= pn * bw)
    hi_ok = (pn * aw <= an * pw) or (pn * bw <= bn * pw)
    return lo_ok and hi_ok


def _on_segment_collinear(a, b, p) -> bool:
    """p on closed segment ab given that a, b, p are collinear (homogeneous)."""
    return _between_1d(a[0], a[2], b[0], b[2], p[0], p[2]) and \
        _between_1d(a[1], a[2], b[1], b[2], p[1], p[2])


def segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd share at least one point."""
    ha, hb, hc, hd = hpoint(a), hpoint(b), hpoint(c), hpoint(d)
    o1 = orient_h(ha, hb, hc)
    o2 = orient_h(ha, hb, hd)
    o3 = orient_h(hc, hd, ha)
    o4 = orient_h(hc, hd, hb)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    if o1 == 0 and _on_segment_collinear(ha, hb, hc):
        return True
    if o2 == 0 and _on_segment_collinear(ha, hb, hd):
        return True
    if o3 == 0 and _on_segment_collinear(hc, hd, ha):
        return True
    if o4 == 0 and _on_segment_collinear(hc, hd, hb):
        return True
    return False


def _floor(f: Fraction) -> int:
    return f.numerator // f.denominator


def _ceil(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def polygon_area2(vertices: Sequence[Point]) -> Fraction:
    """Twice the signed area (positive for ccw)."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


class SimplePolygon:
    """Simple polygon with ccw vertex order, validated on construction.

    Validation rejects repeated vertices, clockwise or self-touching
    boundaries, and fold-backs; collinear straight-through vertices are
    allowed (they occur naturally in assembled galleries).
    """

    __slots__ = ("vertices", "_h", "_bbox", "_edge_bboxes", "_ybuckets",
                 "_int_edge_bboxes")

    def __init__(self, vertices: Sequence[Point], validate: bool = True):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        self.vertices = verts
        self._h = [hpoint(v) for v in verts]
        xs = [v.x for v in verts]
        ys = [v.y for v in verts]
        self._bbox = (min(xs), min(ys), max(xs), max(ys))
        self._edge_bboxes = None
        self._ybuckets = None
        self._int_edge_bboxes = None
        if validate:
            self._validate()

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, SimplePolygon) and self.vertices == other.vertices

    def __repr__(self):
        return f"SimplePolygon({len(self.vertices)} vertices)"

    @property
    def area2(self) -> Fraction:
        return polygon_area2(self.vertices)

    def edges(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def edge_bboxes(self):
        if self._edge_bboxes is None:
            boxes = []
            n = len(self.vertices)
            for i in range(n):
                a = self.vertices[i]
                b = self.vertices[(i + 1) % n]
                boxes.append((min(a.x, b.x), min(a.y, b.y),
                              max(a.x, b.x), max(a.y, b.y)))
            self._edge_bboxes = boxes
        return self._edge_bboxes

    def int_edge_bboxes(self):
        """Outward-rounded integer edge boxes: an exact, conservative
        prefilter that avoids Fraction comparisons in hot loops."""
        if self._int_edge_bboxes is None:
            self._int_edge_bboxes = [
                (_floor(b[0]), _floor(b[1]), _ceil(b[2]), _ceil(b[3]))
                for b in self.edge_bboxes()]
        return self._int_edge_bboxes

    def _validate(self):
        verts = self.vertices
        n = len(verts)
        if len(set(verts)) != n:
            raise GeometryError("repeated vertex in polygon")
        if polygon_area2(verts) <= 0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        # fold-backs at shared vertices
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if orient(a, b, c) == 0:
                dot = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
                if dot <= 0:
                    raise GeometryError(f"fold-back at vertex {b}")
        # pairwise edge disjointness; candidate pairs found by bucketing the
        # edges' y-intervals so large polygons stay near-linear in practice
        boxes = self.edge_bboxes()
        buckets = self._ybucket_index()[3]
        checked = set()
        for bucket in buckets:
            for a in range(len(bucket)):
                i = bucket[a]
                bx = boxes[i]
                ai, bi = verts[i], verts[(i + 1) % n]
                for b in range(a + 1, len(bucket)):
                    j = bucket[b]
                    if (i, j) in checked:
                        continue
                    checked.add((i, j))
                    lo_, hi_ = (i, j) if i < j else (j, i)
                    if hi_ == lo_ + 1 or (lo_ == 0 and hi_ == n - 1):
                        continue
                    by = boxes[j]
                    if bx[2] < by[0] or by[2] < bx[0] or bx[3] < by[1] or by[3] < bx[1]:
                        continue
                    if segments_touch(ai, bi, verts[j], verts[(j + 1) % n]):
                        raise GeometryError(
                            f"edges {i} and {j} of polygon intersect")

    # --- point location -------------------------------------------------

    def _ybucket_index(self):
        """Edges bucketed by their y-interval; both the boundary test and
        the horizontal crossing count only involve edges whose y-interval
        contains the query height."""
        if self._ybuckets is None:
            n = len(self.vertices)
            boxes = self.edge_bboxes()
            y0, y1 = self._bbox[1], self._bbox[3]
            span = y1 - y0
            nb = max(1, min(4 * n, 4096))
            buckets: list[list[int]] = [[] for _ in range(nb)]
            for i in range(n):
                lo = int((boxes[i][1] - y0) * nb / span) if span else 0
                hi = int((boxes[i][3] - y0) * nb / span) if span else 0
                lo = max(0, min(nb - 1, lo))
                hi = max(0, min(nb - 1, hi))
                for b in range(lo, hi + 1):
                    buckets[b].append(i)
            self._ybuckets = (nb, y0, span, buckets)
        return self._ybuckets

    def _edges_near_y(self, y: Fraction):
        nb, y0, span, buckets = self._ybucket_index()
        b = int((y - y0) * nb / span) if span else 0
        b = max(0, min(nb - 1, b))
        return buckets[b]

    def locate(self, p: Point) -> str:
        """'in', 'on', or 'out' for the closed polygon."""
        x0, y0, x1, y1 = self._bbox
        if p.x < x0 or p.x > x1 or p.y < y0 or p.y > y1:
            return "out"
        hp = hpoint(p)
        hv = self._h
        n = len(hv)
        boxes = self.edge_bboxes()
        inside = False
        for i in self._edges_near_y(p.y):
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


def _projection_param(a: Point, b: Point, p: Point) -> Fraction:
    """Parameter t of the projection of p onto line ab (p assumed on the line)."""
    dx, dy = b.x - a.x, b.y - a.y
    return ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)


def visible(poly: SimplePolygon, p: Point, q: Point) -> bool:
    """True iff the closed segment pq lies inside the closed polygon.

    Grazing contact with the boundary counts as visible.  Raises
    GeometryError if either endpoint is outside the polygon (distinct
    from a plain 'not visible' answer).
    """
    lp = poly.locate(p)
    lq = poly.locate(q)
    if lp == "out" or lq == "out":
        raise GeometryError("visibility query endpoint outside polygon")
    if p == q:
        return True
    hp_, hq_ = hpoint(p), hpoint(q)
    params = {Fraction(0), Fraction(1)}
    minx = _floor(min(p.x, q.x))
    maxx = _ceil(max(p.x, q.x))
    miny = _floor(min(p.y, q.y))
    maxy = _ceil(max(p.y, q.y))
    verts = poly.vertices
    hv = poly._h
    n = len(verts)
    boxes = poly.int_edge_bboxes()
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


def _crossing_param(a: Point, b: Point, p: Point, q: Point) -> Fraction:
    """Parameter along pq of its proper crossing with line ab."""
    num = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    den = (b.x - a.x) * (p.y - q.y) - (b.y - a.y) * (p.x - q.x)
    return num / den


# --- visibility fan / polygon -------------------------------------------


@dataclass(frozen=True)
class FanPiece:
    """One angular cone of the visibility fan: a visible portion of an edge."""
    edge_index: int
    start: Point
    end: Point


def _dir_half(d: tuple[int, int]) -> int:
    dx, dy = d
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


def _dir_cmp(d1, d2) -> int:
    h1, h2 = _dir_half(d1), _dir_half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


def _reduce_dir(dx: int, dy: int) -> tuple[int, int]:
    from math import gcd
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def _ray_edge_hits(hp, d, ha, hb):
    """Intersections of ray(p, d) with closed edge ab, as homogeneous points.

    Returns a list of hit points with strictly positive ray parameter.
    Collinear overlaps return both in-range endpoints.
    """
    # sides of a and b relative to the ray's supporting line
    ax = ha[0] * hp[2] - hp[0] * ha[2]
    ay = ha[1] * hp[2] - hp[1] * ha[2]
    bx = hb[0] * hp[2] - hp[0] * hb[2]
    by = hb[1] * hp[2] - hp[1] * hb[2]
    sa = _sign(d[0] * ay - d[1] * ax)
    sb = _sign(d[0] * by - d[1] * bx)
    hits = []
    if sa == 0 and sb == 0:
        for h, fx, fy in ((ha, ax, ay), (hb, bx, by)):
            if d[0] * fx + d[1] * fy > 0:
                hits.append(h)
        return hits
    if sa * sb > 0:
        return []
    if sa == 0:
        cand = ha
    elif sb == 0:
        cand = hb
    else:
        lray = _hline(hp, (hp[0] + d[0] * hp[2], hp[1] + d[1] * hp[2], hp[2]))
        cand = _hmeet(lray, _hline(ha, hb))
        if cand[2] == 0:
            return []
    # forward test: dot(d, cand - p) > 0
    fx = cand[0] * hp[2] - hp[0] * cand[2]
    fy = cand[1] * hp[2] - hp[1] * cand[2]
    if d[0] * fx + d[1] * fy > 0:
        hits.append(cand)
    return hits


def _nearer_on_ray(hp, d, h1, h2) -> bool:
    """True iff h1 is strictly nearer to p along direction d than h2."""
    f1 = d[0] * (h1[0] * hp[2] - hp[0] * h1[2]) + d[1] * (h1[1] * hp[2] - hp[1] * h1[2])
    f2 = d[0] * (h2[0] * hp[2] - hp[0] * h2[2]) + d[1] * (h2[1] * hp[2] - hp[1] * h2[2])
    # f_i / (w_i * wp) are the comparable ray coordinates
    return f1 * h2[2] < f2 * h1[2]


def _nearest_hit_on_edge(hp, d, ha, hb) -> Point:
    hits = _ray_edge_hits(hp, d, ha, hb)
    if not hits:
        raise GeometryError("sweep invariant violated: event ray misses its edge")
    best = hits[0]
    for h in hits[1:]:
        if _nearer_on_ray(hp, d, h, best):
            best = h
    return hpoint_to_point(best)


def _sweep(poly: SimplePolygon, p: Point) -> list[FanPiece | None]:
    """Angular sweep around p.  One entry per cone between consecutive
    vertex directions: a FanPiece for visible cones, None for cones that
    point into the exterior (possible only for boundary viewpoints)."""
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
            for cand in _ray_edge_hits(hp, rep, ha, hb):
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
        ha = hv[best_edge]
        hb = hv[(best_edge + 1) % n]
        qs = _nearest_hit_on_edge(hp, u, ha, hb)
        qe = _nearest_hit_on_edge(hp, w, ha, hb)
        raw.append(FanPiece(best_edge, qs, qe))
    return raw


def visibility_fan(poly: SimplePolygon, p: Point) -> list[FanPiece]:
    """Angular decomposition of the region of poly visible from p.

    The triangles (p, piece.start, piece.end) tile the 2-dimensional
    visible region; measure-zero grazing lines are piece boundaries.
    """
    return [pc for pc in _sweep(poly, p) if pc is not None]


def visibility_polygon(poly: SimplePolygon, p: Point) -> SimplePolygon:
    """Region of poly visible from p, as a star-shaped simple polygon.

    p is in the kernel of the result.  Zero-width lines of sight (pinhole
    whiskers) are dropped: the result is the closure of the 2-dimensional
    visible region.
    """
    return _star_polygon(p, _sweep(poly, p))


def _star_polygon(p: Point, raw: list[FanPiece | None]) -> SimplePolygon:
    """The visibility polygon traced by the sweep `raw` around p."""
    if all(pc is None for pc in raw):
        raise GeometryError("no visible area from viewpoint")

    out: list[Point] = []

    def push(v: Point):
        if not out or out[-1] != v:
            out.append(v)

    start = next(i for i, pc in enumerate(raw) if pc is not None)
    prev_was_gap = False
    k = len(raw)
    for off in range(k + 1):
        pc = raw[(start + off) % k]
        if pc is None:
            prev_was_gap = True
            continue
        if off == k:
            # wrapped around to the first piece: close up
            if prev_was_gap:
                push(p)
            break
        if prev_was_gap:
            push(p)
            prev_was_gap = False
        push(pc.start)
        push(pc.end)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()

    # remove straight-through vertices introduced at cone boundaries
    cleaned: list[Point] = []
    nn = len(out)
    for i in range(nn):
        a = out[i - 1]
        b = out[i]
        c = out[(i + 1) % nn]
        if orient(a, b, c) == 0:
            dot = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
            if dot > 0:
                continue
        cleaned.append(b)
    return SimplePolygon(cleaned)


def _visibility(poly: SimplePolygon, p: Point):
    """One sweep around p, read three ways for exact coverage: the fan,
    the visibility polygon, and that polygon's windows."""
    raw = _sweep(poly, p)
    fan = [pc for pc in raw if pc is not None]
    return fan, _star_polygon(p, raw), _windows(poly, p, raw)


def _windows(poly: SimplePolygon, p: Point,
             raw: list[FanPiece | None]) -> list[tuple[Point, Point]]:
    """The windows of the visibility polygon traced by `raw`: the parts of
    its boundary inside poly's interior, each directed so that the visible
    side is on its left.

    Between two consecutive cones the boundary runs along the ray from p
    through their shared vertex direction, from one cone's far end (or p,
    at a gap) to the next cone's near end.  Each such run is split at the
    polygon vertices on it; the parts whose midpoint is inside poly are
    windows, the rest lie on poly's boundary.
    """
    hp = hpoint(p)
    on_ray: dict[tuple[int, int], list[Point]] = {}
    for v, h in zip(poly.vertices, poly._h):
        dx = h[0] * hp[2] - hp[0] * h[2]
        dy = h[1] * hp[2] - hp[1] * h[2]
        if dx or dy:
            on_ray.setdefault(_reduce_dir(dx, dy), []).append(v)
    out = []
    k = len(raw)
    for i in range(k):
        cur, nxt = raw[i], raw[(i + 1) % k]
        a = p if cur is None else cur.end
        b = p if nxt is None else nxt.start
        if a == b:
            continue
        hf = hpoint(b if a == p else a)
        d = _reduce_dir(hf[0] * hp[2] - hp[0] * hf[2],
                        hf[1] * hp[2] - hp[1] * hf[2])

        def along(q: Point) -> Fraction:
            return (q.x - p.x) * d[0] + (q.y - p.y) * d[1]

        lo, hi = sorted((along(a), along(b)))
        cuts = sorted((q for q in on_ray.get(d, ()) if lo < along(q) < hi),
                      key=along, reverse=along(b) < along(a))
        stops = [a, *cuts, b]
        for c0, c1 in zip(stops, stops[1:]):
            if poly.locate(midpoint(c0, c1)) == "in":
                out.append((c0, c1))
    return out


# --- triangulation and convex clipping ------------------------------------


def point_in_triangle(a: Point, b: Point, c: Point, p: Point) -> bool:
    """Closed-triangle containment (abc in ccw or cw order)."""
    o1 = orient(a, b, p)
    o2 = orient(b, c, p)
    o3 = orient(c, a, p)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


def triangulate(poly: SimplePolygon) -> list[tuple[Point, Point, Point]]:
    """Ear-clipping triangulation; handles straight-through vertices.

    Exact coverage no longer triangulates.  This stays because the
    coverage tests' triangle-subtraction reference is built on it, and
    the benchmark's per-layer tracer (perfbench/tracing.py) wraps it by
    name.
    """
    idx = list(range(len(poly.vertices)))
    verts = poly.vertices
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(poly.vertices) ** 2:
            raise GeometryError("triangulation failed to make progress")
        n = len(idx)
        clipped = False
        for k in range(n):
            ia, ib, ic = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = verts[ia], verts[ib], verts[ic]
            o = orient(a, b, c)
            if o == 0:
                dot = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
                if dot > 0:
                    idx.pop(k)  # straight vertex, no area
                    clipped = True
                    break
                continue
            if o < 0:
                continue
            ear = True
            for j in idx:
                if j in (ia, ib, ic):
                    continue
                q = verts[j]
                if point_in_triangle(a, b, c, q):
                    ear = False
                    break
            if ear:
                tris.append((a, b, c))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise GeometryError("no ear found; polygon not simple?")
    a, b, c = (verts[i] for i in idx)
    if orient(a, b, c) > 0:
        tris.append((a, b, c))
    return tris


def clip_convex(piece: Sequence[Point], a: Point, b: Point, keep_left: bool) -> list[Point]:
    """Sutherland-Hodgman clip of a convex polygon against line ab."""
    want = 1 if keep_left else -1
    out: list[Point] = []
    n = len(piece)
    if n == 0:
        return out
    sides = [orient(a, b, v) for v in piece]
    for i in range(n):
        cur, nxt = piece[i], piece[(i + 1) % n]
        sc, sn = sides[i], sides[(i + 1) % n]
        if sc * want >= 0:
            out.append(cur)
        if sc * sn < 0:
            out.append(intersect_lines(a, b, cur, nxt))
    # dedup consecutive
    dedup: list[Point] = []
    for v in out:
        if not dedup or dedup[-1] != v:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def convex_minus_triangle(piece: Sequence[Point], tri: tuple[Point, Point, Point]) -> list[list[Point]]:
    """Convex piece minus a ccw triangle, as a list of convex pieces.

    Exact coverage now tests windows instead.  This and `clip_convex`
    stay for the same reasons as `triangulate`: the coverage tests'
    reference subtracts fan triangles with them, and the benchmark's
    tracer wraps them by name.
    """
    a, b, c = tri
    remainder = list(piece)
    outs: list[list[Point]] = []
    for p1, p2 in ((a, b), (b, c), (c, a)):
        if len(remainder) < 3:
            break
        outside = clip_convex(remainder, p1, p2, keep_left=False)
        if len(outside) >= 3 and polygon_area2(outside) != 0:
            outs.append(outside)
        remainder = clip_convex(remainder, p1, p2, keep_left=True)
    return outs


def convex_disjoint(p1: Sequence[Point], p2: Sequence[Point]) -> bool:
    """True iff two convex polygons (ccw) have disjoint closed regions."""
    for poly_pts, other in ((p1, p2), (p2, p1)):
        n = len(poly_pts)
        for i in range(n):
            a, b = poly_pts[i], poly_pts[(i + 1) % n]
            if all(orient(a, b, q) < 0 for q in other):
                return True
    return False
