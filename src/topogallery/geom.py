"""Exact rational plane geometry: predicates, intersections, visibility.

Points hold Python Fractions; no floating point is used anywhere.  Hot
predicates, point location, polygon validation and the visibility layer
(sweep, visibility polygons, windows and their cuts) run on homogeneous
integer triples (X, Y, W) so the inner loops do integer multiplication
instead of repeated Fraction normalization.  One walk of a sweep gives a
visibility polygon and its windows, with no point location; a room (a
rectangle with convex pockets through its side walls, as every gallery
is) seen from its open rectangle gets them pocket by pocket instead.
Exact coverage of a room guarded from its open rectangle needs no views
at all (`pocket_test`); every other case takes the window test, which
cuts every window at the other guards' windows and tests each piece at
its midpoint (`window_test`).

Every integer prefilter rounds on one scale: the keys floor(coordinate *
2^_BOX_BITS), which never decrease as the coordinate grows.  Edge and
window boxes, the y-buckets of point location, and the keyed orientation
filter all use them, and one sweep over y (`_box_pairs`) finds the boxes
that meet, both for polygon validation and for cutting windows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Sequence


class GeometryError(ValueError):
    """Degenerate input or violated precondition."""


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


def _hcanon(h) -> tuple[int, int, int]:
    """`hpoint(hpoint_to_point(h))` without the Fractions: the triple of
    (X, Y, W), W != 0, in hpoint's form (xn * yd, yn * xd, xd * yd) for
    the reduced X / W = xn / xd and Y / W = yn / yd, so equal points give
    equal triples.  xd and yd take the sign of W, which therefore cancels
    in each product."""
    x, y, w = h
    gx, gy = gcd(x, w), gcd(y, w)
    xd, yd = w // gx, w // gy
    return (x // gx * yd, y // gy * xd, xd * yd)


def _hmid(a, b) -> tuple[int, int, int]:
    """The midpoint of two homogeneous points, as an unreduced triple."""
    return (a[0] * b[2] + b[0] * a[2], a[1] * b[2] + b[1] * a[2], 2 * a[2] * b[2])


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


def _dot_dirs(ha, hb, hc, hd) -> int:
    """A positive multiple of (b - a) . (d - c), on homogeneous points."""
    # the dropped factor aw * bw * cw * dw is positive
    return ((hb[0] * ha[2] - ha[0] * hb[2]) * (hd[0] * hc[2] - hc[0] * hd[2])
            + (hb[1] * ha[2] - ha[1] * hb[2]) * (hd[1] * hc[2] - hc[1] * hd[2]))


def _dot_h(a, b, c) -> int:
    """A positive multiple of (b - a) . (c - b), on homogeneous points;
    for collinear a, b, c it is positive iff b is strictly between."""
    return _dot_dirs(a, b, b, c)


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


def line_through(p: Point, q: Point) -> tuple[int, int, int]:
    """The line through p and q as integers (a, b, c) with a*x + b*y + c
    = 0 on it, for `x_on_line` and `y_on_line`: build a line once and read
    many points from it.  (0, 0, 0) when p == q."""
    return _hline(hpoint(p), hpoint(q))


def x_on_line(line, y) -> Fraction:
    """Exact x of the line (a, b, c) from `line_through` at height y.

    Raises GeometryError when the line is horizontal or degenerate.
    """
    a, b, c = line
    if a == 0:
        raise GeometryError("horizontal or degenerate line has no x at a height")
    y = rat(y)
    return Fraction(-(b * y.numerator + c * y.denominator), a * y.denominator)


def y_on_line(line, x) -> Fraction:
    """Exact y of the line (a, b, c) from `line_through` at abscissa x.

    Raises GeometryError when the line is vertical or degenerate.
    """
    a, b, c = line
    if b == 0:
        raise GeometryError("vertical or degenerate line has no y at an abscissa")
    x = rat(x)
    return Fraction(-(a * x.numerator + c * x.denominator), b * x.denominator)


def x_at(p: Point, q: Point, y) -> Fraction:
    """Exact x of the line through p and q at height y.

    Raises GeometryError when the line is horizontal or p == q.
    """
    line = line_through(p, q)
    if line[0] == 0:
        raise GeometryError(f"line through {p} and {q} is horizontal or degenerate")
    return x_on_line(line, y)


def y_at(p: Point, q: Point, x) -> Fraction:
    """Exact y of the line through p and q at abscissa x.

    Raises GeometryError when the line is vertical or p == q.
    """
    line = line_through(p, q)
    if line[1] == 0:
        raise GeometryError(f"line through {p} and {q} is vertical or degenerate")
    return y_on_line(line, x)


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
    return Point(x_at(p, z, target_y), target_y)


def hausdorff_distance_sq_max(g0: Iterable[Point], g1: Iterable[Point]) -> Fraction:
    """Squared Hausdorff distance between two finite nonempty point sets.

    Distances are compared on homogeneous triples: the squared distance of
    (X, Y, W) and (U, V, Z) is (num, den) = ((XZ - UW)^2 + (YZ - VW)^2,
    (WZ)^2), and one Fraction is made for the result.

    The nearest point of one set to a point p of the other is found by a
    walk over that set in the order of the y keys floor(y * 2^_BOX_BITS),
    from p's place in that order up, then down.  A side's walk stops at a
    point whose key differs from p's by k where g = k - 1 > 0 and
    (g^2 * den) >> 2 _BOX_BITS >= num, for (num, den) the nearest distance
    so far.  The stop is exact: each key is off from the scaled y by less
    than 1, so that point's |dy| * 2^_BOX_BITS exceeds g, and its squared
    distance is at least dy^2 > g^2 / 2^(2 _BOX_BITS) >= num / den; the
    keys never decrease along the order, so g only grows further along
    the side, and no point there is nearer."""
    a = [hpoint(p) for p in g0]
    b = [hpoint(q) for q in g1]
    if not a or not b:
        raise GeometryError("hausdorff distance of an empty set")
    shift = 2 * _BOX_BITS

    def directed(src, dst):
        dst = sorted(((y << _BOX_BITS) // w, x, y, w) for x, y, w in dst)
        keys = [d[0] for d in dst]
        worst = (0, 1)
        for px, py, pw in src:
            kp = (py << _BOX_BITS) // pw
            i = bisect_left(keys, kp)
            near = None
            for side in (range(i, len(dst)), range(i - 1, -1, -1)):
                for j in side:
                    k, qx, qy, qw = dst[j]
                    if near is not None:
                        g = abs(k - kp) - 1
                        if g > 0 and (g * g * near[1]) >> shift >= near[0]:
                            break
                    dx = px * qw - qx * pw
                    dy = py * qw - qy * pw
                    d = (dx * dx + dy * dy, (pw * qw) ** 2)
                    if near is None or d[0] * near[1] < near[0] * d[1]:
                        near = d
            if worst[0] * near[1] < near[0] * worst[1]:
                worst = near
        return worst

    d0, d1 = directed(a, b), directed(b, a)
    return Fraction(*(d1 if d0[0] * d1[1] < d1[0] * d0[1] else d0))


def _on_segment_collinear(a, b, p) -> bool:
    """p on closed segment ab, for collinear a, b, p: (p-a).(b-p) >= 0."""
    return _dot_h(a, p, b) >= 0


def _segments_touch_h(ha, hb, hc, hd) -> bool:
    """True iff the closed segments ab and cd, given as homogeneous
    points, share at least one point."""
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


# Integer keys round coordinates and angles down to multiples of
# 2^-_BOX_BITS: the edge, window and polygon boxes, the y-buckets and the
# sort keys.
_BOX_BITS = 64


def _keys_orient(ax, ay, bx, by, cx, cy) -> int:
    """The orientation of abc decided on the keys floor(coordinate *
    2^_BOX_BITS) of its points, or 0 when they cannot decide it.

    Each key difference is off from the scaled exact one by less than 1,
    so d = ux vy - uy vx, taken on the key differences, is off from the
    scaled exact cross product by less than |ux| + |uy| + |vx| + |vy| + 2;
    a d at least that far from zero has the exact sign."""
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    d = ux * vy - uy * vx
    if abs(d) < abs(ux) + abs(uy) + abs(vx) + abs(vy) + 2:
        return 0
    return 1 if d > 0 else -1


def _key_box(hs) -> tuple[int, int, int, int]:
    """The box (x0, y0, x1, y1) of the keys of the homogeneous points hs.
    The keys never decrease, so two sets whose exact boxes meet have key
    boxes that meet."""
    kx = [(x << _BOX_BITS) // w for x, _, w in hs]
    ky = [(y << _BOX_BITS) // w for _, y, w in hs]
    return min(kx), min(ky), max(kx), max(ky)


def _edge_boxes(fx, fy) -> list[tuple[int, int, int, int]]:
    """The key box (x0, y0, x1, y1) of each edge of the polygon whose
    vertices have the keys fx, fy; edge i runs from vertex i to the next."""
    gx, gy = fx[1:] + fx[:1], fy[1:] + fy[:1]
    return list(zip(map(min, fx, gx), map(min, fy, gy),
                    map(max, fx, gx), map(max, fy, gy)))


def _box_pairs(boxes) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of the closed boxes (x0, y0, x1, y1) that
    meet, by a sweep over y: the boxes are taken in order of their least
    y, each drops from the active list the boxes that end below it, and
    meets those left whose x ranges meet its own."""
    pairs = []
    active: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda i: boxes[i][1]):
        x0, y0, x1, _ = boxes[i]
        active = [j for j in active if boxes[j][3] >= y0]
        pairs += [(j, i) if j < i else (i, j) for j in active
                  if boxes[j][0] <= x1 and x0 <= boxes[j][2]]
        active.append(i)
    return pairs


def rational_key(v: Fraction) -> int:
    """floor(v * 2^_BOX_BITS): an integer key that never decreases as v
    grows, so a strictly smaller key means a strictly smaller v; only
    equal keys leave the order of two values open."""
    return (v.numerator << _BOX_BITS) // v.denominator


def _order_along(ha, hb, pts) -> list:
    """The homogeneous points pts, all on segment ab, a and b among them,
    ordered from a to b.

    The dominant coordinate of b - a (x if |dx| >= |dy|, else y) is
    strictly monotone along ab, so the points between the ends are
    sorted by it, negated if the segment runs towards smaller values."""
    inner = [h for h in pts if h != ha and h != hb]
    if not inner:
        return [ha, hb]
    dx = hb[0] * ha[2] - ha[0] * hb[2]
    dy = hb[1] * ha[2] - ha[1] * hb[2]
    c = 0 if abs(dx) >= abs(dy) else 1
    s = -1 if (dx, dy)[c] < 0 else 1
    return [ha, *sorted(inner, key=cmp_to_key(
        lambda h, k: s * (h[c] * k[2] - k[c] * h[2]))), hb]


def polygon_area2(vertices: Sequence[Point]) -> Fraction:
    """Twice the signed area (positive for ccw)."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _sum_sign(terms: dict[int, int]) -> int:
    """The sign of the sum of t / d over the items (d, t) of terms, d > 0.

    Each term is rounded down to a multiple of 2^-_BOX_BITS in integers,
    so the sum lies in [lo, lo + len(terms)) in those units; only a sum
    that close to zero is added up exactly.  One common denominator for
    all terms would be their product, thousands of bits per term on the
    larger galleries, and Fraction addition reduces by a gcd of that size
    at every step."""
    lo = sum((t << _BOX_BITS) // d for d, t in terms.items())
    if lo > 0:
        return 1
    if lo + len(terms) <= 0:
        return -1
    return _sign(sum(Fraction(t, d) for d, t in terms.items()).numerator)


def _star_simple(hp, hv) -> bool:
    """True if the polygon with vertex triples hv (in `hpoint`'s form) is
    simple and ccw by a linear test around the point p (triple hp): p is
    strictly inside and sees the whole boundary.  False proves nothing;
    the caller then validates in full.  The test asks that

    - no vertex equals p;
    - every edge ab has orient(p, a, b) >= 0;
    - every radial edge (orient(p, a, b) == 0) has two distinct ends on
      one ray from p;
    - no two radial edges are consecutive;
    - the boundary winds around p exactly once: among the edges with
      orient(p, a, b) > 0, exactly one runs from a direction of the
      lower half (`_dir_half` 1) to one of the upper half (0).

    Proof.  Lift the direction of each vertex from p to an angle.  Along
    the boundary the angle never falls: a positive edge turns it ccw by
    less than pi, a radial edge keeps it.  A positive edge passes angle 0
    iff it runs from the lower half to the upper one, so the total turn is
    2 pi times that count: exactly 2 pi.  Hence the open angular arcs of
    the positive edges are disjoint and cover the circle but for the
    vertex directions, and the vertices on one direction form one run of
    consecutive vertices; with no two radial edges in a row a run has one
    vertex, or two distinct ones joined by a radial edge.  A ray from p in
    a direction of no vertex meets the boundary once, on the one positive
    edge whose arc holds it; a ray on a vertex direction meets it only in
    that run, where the positive edges into and out of the run end at its
    first and last vertex.  So two edges meet only at the vertex they
    share, no vertex repeats, and p is on no edge.  No vertex b folds back
    (c on the line ab, on a's side of b): from a direction of ab, c would
    turn the angle back; from a positive ab, by pi or more.  Twice the
    area is the sum over the edges of cross(a - p, b - p), positive.  Each
    check is one cross or dot product of the vectors from p to the
    vertices, so the cost is linear."""
    X, Y, W = hp
    # the vector from p to each vertex, times the positive W * w
    vs = [(x * W - X * w, y * W - Y * w) for x, y, w in hv]
    if (0, 0) in vs:
        return False
    half = list(map(_dir_half, vs))
    radial = []
    turns = 0
    for i in range(len(vs)):
        (ax, ay), (bx, by) = vs[i - 1], vs[i]
        cr = ax * by - ay * bx
        if cr < 0:
            return False
        if cr == 0 and (ax * bx + ay * by <= 0 or hv[i - 1] == hv[i]):
            return False
        radial.append(cr == 0)
        turns += cr > 0 and half[i - 1] > half[i]
    if any(r and s for r, s in zip(radial, radial[1:] + radial[:1])):
        return False
    return turns == 1


class SimplePolygon:
    """Simple polygon with ccw vertex order, validated on construction.

    Validation rejects repeated vertices, clockwise or self-touching
    boundaries, and fold-backs; collinear straight-through vertices are
    allowed (they occur naturally in assembled galleries).

    The polygon is held as the `hpoint` triples of its vertices (`_h`).
    `vertices`, the Points, is made on first read for a polygon built
    from triples (`_of_h`, as the visibility layer builds them), so
    polygons that are only located in never make a Point.  A polygon
    built from points is first read as a room (`_room_plan`), one pass
    over its vertex cycle that also proves it simple and ccw; only what
    that pass refuses is validated in full.  `_room` holds the `_Room`, or
    False once the pass has refused; a view built around a kernel leaves
    it None until `_room_of` asks.
    """

    __slots__ = ("_vertices", "_h", "_fx", "_fy", "_ybuckets", "_boxes",
                 "_edge_lines", "_room")

    def __init__(self, vertices: Sequence[Point]):
        self._vertices = tuple(vertices)
        self._init_h([hpoint(v) for v in self._vertices])

    @classmethod
    def _of_h(cls, hv, kernel=None) -> SimplePolygon:
        """The polygon with vertex triples hv, each in `hpoint`'s form,
        validated as `SimplePolygon(points)` is.  kernel, if given, is the
        triple of a point the polygon should be star-shaped around (the
        viewpoint of a visibility polygon): `_star_simple` then accepts
        the polygon in linear time, and only what it refuses is validated
        in full."""
        poly = cls.__new__(cls)
        poly._vertices = None
        poly._init_h(list(hv), kernel)
        return poly

    def _init_h(self, hv, kernel=None):
        """Set up and validate the polygon on its vertex triples hv,
        around the point kernel if given (see `_of_h`).  Without a kernel
        the room pass `_room_plan` runs first: a polygon it reads as a room
        is simple and ccw (see `_room_of`), so it skips `_validate`; any
        other polygon gets `_validate`, with its messages, and `_room`
        False."""
        if len(hv) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        self._h = hv
        # floor(coordinate * 2^_BOX_BITS) of each vertex: integer keys
        # that never decrease as the coordinate grows
        self._fx = [(x << _BOX_BITS) // w for x, _, w in hv]
        self._fy = [(y << _BOX_BITS) // w for _, y, w in hv]
        self._ybuckets = None
        self._boxes = None
        self._edge_lines = None
        self._room = None
        if kernel is None:
            self._room = _room_plan(hv, self._fx, self._fy) or False
            if not self._room:
                self._validate()
        elif not _star_simple(kernel, hv):
            self._validate()

    @property
    def vertices(self) -> tuple[Point, ...]:
        if self._vertices is None:
            self._vertices = tuple(map(hpoint_to_point, self._h))
        return self._vertices

    @property
    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The exact bounding box (min x, min y, max x, max y), computed
        when read."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def __len__(self):
        return len(self._h)

    def __eq__(self, other):
        return isinstance(other, SimplePolygon) and self._h == other._h

    def __repr__(self):
        return f"SimplePolygon({len(self._h)} vertices)"

    @property
    def area2(self) -> Fraction:
        return polygon_area2(self.vertices)

    def edges(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def edge_lines(self):
        """The line `_hline(a, b)` of each edge ab, built on first use."""
        if self._edge_lines is None:
            hv = self._h
            self._edge_lines = [_hline(a, b) for a, b in zip(hv, hv[1:] + hv[:1])]
        return self._edge_lines

    def _validate(self):
        """Raise GeometryError unless the polygon is simple and ccw.

        Orientations are first decided on the vertices' integer keys
        (`_keys_orient`); `orient_h` runs only where they cannot decide.
        The candidate edge pairs are those whose key boxes meet
        (`_box_pairs`), tested in increasing (i, j) order, so a
        self-touching polygon names its least touching pair."""
        hv, fx, fy = self._h, self._fx, self._fy
        n = len(hv)
        # hpoint is injective on reduced Fractions
        if len(set(hv)) != n:
            raise GeometryError("repeated vertex in polygon")
        # twice the area: the cross terms of edges with equal denominators
        # are summed in integers, then over the distinct denominators
        terms: dict[int, int] = {}
        for i in range(n):
            a, b = hv[i - 1], hv[i]
            den = a[2] * b[2]
            terms[den] = terms.get(den, 0) + a[0] * b[1] - b[0] * a[1]
        if _sum_sign(terms) <= 0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        # fold-backs at shared vertices
        for i in range(n):
            k = i + 1 if i + 1 < n else 0
            if _keys_orient(fx[i - 1], fy[i - 1], fx[i], fy[i], fx[k], fy[k]):
                continue
            a, b, c = hv[i - 1], hv[i], hv[k]
            if orient_h(a, b, c) == 0 and _dot_h(a, b, c) <= 0:
                raise GeometryError(
                    f"fold-back at vertex {hpoint_to_point(b)}")
        # pairwise edge disjointness.  The keys never decrease, so every
        # pair whose exact boxes meet has key boxes that meet; on galleries
        # with long coordinates the key boxes reject nearly as many pairs as
        # the exact ones.  A pair with both ends of one edge strictly on one
        # side of the other's line, by the keys, cannot touch.
        for i, j in sorted(_box_pairs(_edge_boxes(fx, fy))):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            i1, j1 = i + 1, j + 1 if j + 1 < n else 0
            ax, ay, bx, by = fx[i], fy[i], fx[i1], fy[i1]
            cx, cy, dx, dy = fx[j], fy[j], fx[j1], fy[j1]
            if _keys_orient(ax, ay, bx, by, cx, cy) \
                    * _keys_orient(ax, ay, bx, by, dx, dy) > 0 \
                    or _keys_orient(cx, cy, dx, dy, ax, ay) \
                    * _keys_orient(cx, cy, dx, dy, bx, by) > 0:
                continue
            if _segments_touch_h(hv[i], hv[i1], hv[j], hv[j1]):
                raise GeometryError(f"edges {i} and {j} of polygon intersect")

    # --- point location -------------------------------------------------

    def _bucket_edges(self, nb: int):
        """(y0, d, buckets): edge indices bucketed by their y-intervals over
        nb equal slices of the vertices' y keys.  A height with key k falls
        in bucket (k - y0) * nb // d, where y0 is the least y key and d the
        span of the y keys plus 1, so every vertex falls in [0, nb - 1].
        The bucket never falls as the height rises, so an edge spans the
        buckets between those of its two ends."""
        fy = self._fy
        y0 = min(fy)
        d = max(fy) - y0 + 1
        vb = [(k - y0) * nb // d for k in fy]
        buckets: list[list[int]] = [[] for _ in range(nb)]
        for i in range(len(vb)):
            b0, b1 = vb[i], vb[i + 1 if i + 1 < len(vb) else 0]
            if b1 < b0:
                b0, b1 = b1, b0
            for b in range(b0, b1 + 1):
                buckets[b].append(i)
        return y0, d, buckets

    def _ybucket_index(self):
        """The edges near each height, built on first use: both the boundary
        test and the horizontal crossing count only involve edges whose
        y-interval contains the query height."""
        if self._ybuckets is None:
            self._ybuckets = self._bucket_edges(min(len(self._h), 4096))
        return self._ybuckets

    def locate(self, p: Point) -> str:
        """'in', 'on', or 'out' for the closed polygon."""
        return self._locate_h(hpoint(p))

    def _locate_h(self, hp) -> str:
        """`locate` for the homogeneous point hp = (X, Y, W), W > 0, in
        integer arithmetic only.  The query is bucketed on its y key, and
        the bucket index is clamped, so the answer is right for any point,
        also one outside the bounding box: below or above the polygon every
        edge of the end bucket is skipped, and at any height within it the
        bucket holds every edge whose y-interval contains that height.

        The vertex keys skip an edge first when both its ends are strictly
        above or strictly below hp, or both strictly left of it: such an
        edge neither holds hp nor crosses the ray from hp to the right.  A
        strictly greater key means a strictly greater coordinate.

        A polygon whose `_room` is already known answers "in" for a point
        of the room's open rectangle without the buckets: that rectangle
        lies in the polygon's interior (the first point of `_visibility`'s
        room proof).  The room is never recognised here."""
        room = self._room
        if room and room.holds(hp):
            return "in"
        X, Y, W = hp
        hv, fx, fy = self._h, self._fx, self._fy
        n = len(hv)
        qx, qy = (X << _BOX_BITS) // W, (Y << _BOX_BITS) // W
        y0, d, buckets = self._ybucket_index()
        nb = len(buckets)
        inside = False
        for i in buckets[max(0, min(nb - 1, (qy - y0) * nb // d))]:
            k = i + 1 if i + 1 < n else 0
            ya, yb = fy[i], fy[k]
            if (ya > qy and yb > qy) or (ya < qy and yb < qy) \
                    or (fx[i] < qx and fx[k] < qx):
                continue
            a = hv[i]
            b = hv[k]
            # the sign of sa (sb) is the side of a (b) relative to height Y/W
            sa = a[1] * W - Y * a[2]
            sb = b[1] * W - Y * b[2]
            if (sa > 0 and sb > 0) or (sa < 0 and sb < 0):
                continue
            o = orient_h(a, b, hp)
            if o == 0 and _on_segment_collinear(a, b, hp):
                return "on"
            if (sa > 0) != (sb > 0):
                if sb > 0:  # edge going up: count crossings strictly right
                    if o > 0:
                        inside = not inside
                else:
                    if o < 0:
                        inside = not inside
        return "in" if inside else "out"


# --- rooms ------------------------------------------------------------------


class _Room:
    """A polygon read as a room: the rectangle [xl, xr] x [yb, yt] with
    convex pockets cut out through its side walls x = xr and x = xl, the
    shape `gadgets.assemble_room` gives every gallery.

    - `lo` and `hi`: the triples of the corners (xl, yb) and (xr, yt);
    - `walls`: for the right wall, then the left, the triple of the corner
      where the boundary enters it, (xr, yb) and (xl, yt), and its pockets
      as (lower corner, upper corner, pocket), in order of height.  A
      pocket is the tuple of its vertex indices in boundary order, from
      one mouth corner to the other, both included; a mouth corner may be
      a corner of the room."""

    __slots__ = ("lo", "hi", "walls")

    def holds(self, hp) -> bool:
        """True iff the point hp lies in the open rectangle."""
        X, Y, W = hp
        lo, hi = self.lo, self.hi
        return (lo[0] * W < X * lo[2] and X * hi[2] < hi[0] * W
                and lo[1] * W < Y * lo[2] and Y * hi[2] < hi[1] * W)


def _room_of(poly: SimplePolygon) -> _Room | None:
    """The room structure of poly, kept in `poly._room`: read by
    `_room_plan` when poly is built from points, and here on first use
    for a view built around a kernel; None if poly is not a room.

    `_room_plan` reads a polygon as a room when
    - exactly one edge, the bottom, has both ends at the least y of any
      vertex, running from (xl, yb) to (xr, yb) with xl < xr, and exactly
      one, the top, has both at the greatest, from (xr, yt) to (xl, yt);
    - from (xr, yb) to (xr, yt) every vertex has x >= xr and those on the
      wall line x = xr, the wall vertices, rise strictly; from (xl, yt) to
      (xl, yb) every vertex has x <= xl and those on x = xl fall strictly;
    - each maximal run of vertices strictly beyond a wall is a pocket,
      whose mouth joins the wall vertices m0 and m1 before and after the
      run.  Along m0, the run, m1 the chain turns left or runs straight on
      at every run vertex, with no fold-back, and the sign of its x steps,
      taken away from the wall, never grows;
    - two pockets of one wall whose y key ranges meet have a chain edge of
      one with every vertex of the other strictly on its right.
    Each comparison and orientation is taken on the keys floor(coordinate
    * 2^_BOX_BITS) first, exactly only where they tie.

    Proof that such a polygon is simple and ccw.  Take the right wall;
    the left one is the same turned by pi.  A pocket P, its chain closed
    by the mouth from m1 down to m0, turns left at m0 and at m1, as m0
    lies below m1 and the run beyond the wall.  Lift the direction of each
    chain edge to an angle, the first in (-pi/2, pi/2): as the run turns
    left or runs straight on, it never falls and grows by less than pi per
    step.  Its x step is positive below
    pi/2, zero at pi/2 and negative from there to 3 pi/2, so it reaches
    3 pi/2 or more only from (pi/2, 3 pi/2), with a zero or positive x
    step after a negative one, which the sign rule refuses.  So the last
    angle lies in (pi/2, 3 pi/2), the turns of P sum to 2 pi, and P, which
    turns left or runs straight on at every vertex, bounds a convex
    region: P is simple and convex, and meets the wall line only in its
    mouth.  Two closed convex polygons are disjoint iff one has an edge
    with all of the other strictly on its outer side (the origin lies
    outside their Minkowski difference iff it is strictly outside one of
    that polygon's edges, each parallel to an edge of one of them); a
    mouth has both pockets on its inner side, so only chain edges can
    separate.  Pockets whose exact y ranges meet have key ranges that
    meet, so the pockets of one wall are pairwise disjoint (in particular
    no wall vertex is a mouth corner of two), and those of different
    walls lie on different sides of xl < xr.

    The boundary is then the bottom and top edges, on y = yb and y = yt
    within [xl, xr]; the wall edges and mouths, which tile each wall
    segment from corner to corner without overlap, as the wall vertices
    run strictly; and the chains, each beyond its wall but for its mouth
    corners.  A chain meets its wall line only at its mouth corners,
    which no other pocket shares and which lie on no edge of poly but
    their neighbours; the bottom and top edges meet the walls only at the
    corners; the chains of one wall are apart.  So two edges meet only at
    a vertex they share, and no vertex repeats.  No vertex folds back:
    between two wall edges the boundary runs straight on; at a corner or
    a mouth corner it turns, as its neighbours lie on different lines (a
    pocket vertex at a corner's height next to it would make a second
    bottom or top edge); and the pockets check their runs.  The bottom
    edge runs towards +x at the least y, with the polygon above it, so
    the polygon is ccw.

    On a simple ccw polygon the rule reads a room iff the levels and
    walls are as above, no two pockets share a mouth corner, and each run
    turns left or runs straight on: the rest then holds (a wall whose
    vertices stepped back would meet an earlier edge or pocket, and a
    pocket, simple and convex, winds once)."""
    room = poly._room
    if room is None:
        room = poly._room = _room_plan(poly._h, poly._fx, poly._fy) or False
    return room or None


def _room_plan(hv, fx, fy) -> _Room | None:
    """The `_Room` of the polygon with vertex triples hv and keys fx, fy,
    or None if the rule of `_room_of` does not read it as a room."""
    n = len(hv)

    def cmp(i, j, f, c) -> int:
        """The sign of coordinate c (0 for x, 1 for y), with keys f, of
        vertex i minus that of vertex j."""
        if f[i] != f[j]:
            return 1 if f[i] > f[j] else -1
        a, b = hv[i], hv[j]
        return _sign(a[c] * b[2] - b[c] * a[2])

    def turn(u, v, w) -> int:
        """orient(u, v, w), on the keys first."""
        return (_keys_orient(fx[u], fy[u], fx[v], fy[v], fx[w], fy[w])
                or orient_h(hv[u], hv[v], hv[w]))

    def level(k, s):
        """The edges with both ends at the least (s = 1) or greatest
        (s = -1) y of any vertex, whose key is k."""
        ids = [i for i in range(n) if fy[i] == k]
        e = ids[0]
        for i in ids:
            if s * cmp(i, e, fy, 1) < 0:
                e = i
        on = {i for i in ids if not cmp(i, e, fy, 1)}
        return [i for i in on if (i + 1) % n in on]

    def apart(p, q) -> bool:
        """A chain edge of pocket p has every vertex of q strictly on its
        right."""
        return any(all(turn(u, v, w) < 0 for w in q) for u, v in zip(p, p[1:]))

    floor, ceiling = level(min(fy), 1), level(max(fy), -1)
    if len(floor) != 1 or len(ceiling) != 1:
        return None
    a, c = floor[0], ceiling[0]
    b, d = (a + 1) % n, (c + 1) % n
    if cmp(a, b, fx, 0) >= 0 or cmp(a, d, fx, 0) or cmp(b, c, fx, 0):
        return None
    walls = []
    for start, end, side in ((b, c, 1), (d, a, -1)):
        pockets = []
        i = start
        while i != end:
            j = i + 1 if i + 1 < n else 0
            s = side * cmp(j, start, fx, 0)  # > 0 beyond the wall
            if s < 0:
                return None
            if s == 0:
                if side * cmp(j, i, fy, 1) <= 0:
                    return None
                i = j
                continue
            run = [i]
            while s > 0:
                run.append(j)
                j = j + 1 if j + 1 < n else 0
                s = side * cmp(j, start, fx, 0)
            run.append(j)
            if s < 0 or side * cmp(j, i, fy, 1) <= 0:
                return None
            step = 1
            for u, v, w in zip(run, run[1:], run[2:]):
                o = turn(u, v, w)
                if o < 0 or o == 0 and _dot_h(hv[u], hv[v], hv[w]) <= 0:
                    return None
                dx = side * cmp(w, v, fx, 0)
                if dx > step:
                    return None
                step = dx
            pocket = tuple(run)
            m0, m1 = hv[i], hv[j]
            pockets.append((m0, m1, pocket) if side > 0 else (m1, m0, pocket))
            i = j
        # the pockets in order of their least y key, each against those
        # before it whose greatest y key is not below that
        active: list = []  # (greatest y key, pocket)
        for lo, hi, p in sorted((min(map(fy.__getitem__, p)),
                                 max(map(fy.__getitem__, p)), p)
                                for _, _, p in pockets):
            active = [(top, q) for top, q in active if top >= lo]
            if not all(apart(p, q) or apart(q, p) for _, q in active):
                return None
            active.append((hi, p))
        walls.append((hv[start], pockets if side > 0 else pockets[::-1]))
    room = _Room()
    room.lo, room.hi = hv[a], hv[c]
    room.walls = walls
    return room


def _room_view(poly: SimplePolygon, room: _Room, hp):
    """`_visibility(poly, hp)` for a viewpoint hp in the room's open
    rectangle, pocket by pocket: the rectangle and each pocket clipped to
    its mouth's wedge, ccw from the corner (xr, yb), with the windows in
    that walk's order; see `_visibility` for the proof."""
    hv = poly._h
    lines = poly.edge_lines()
    vs: list = []  # the view's boundary from the corner (xr, yb), ccw
    windows = []
    # the pockets in boundary order: up the right wall, down the left
    for (corner, pockets), end, step in zip(room.walls, (room.hi, room.lo), (1, -1)):
        vs.append(corner)
        for _, _, pocket in pockets[::step]:
            # the pocket from its mouth corner m0 to m1, clipped to the
            # wedge from p through its mouth: a point is kept when
            # l0 . h >= 0 >= l1 . h
            hs = [hv[v] for v in pocket]
            if hs[0] != vs[-1]:  # a mouth may start at a corner
                vs.append(hs[0])
            l0, l1 = _hline(hp, hs[0]), _hline(hp, hs[-1])
            s0 = [l0[0] * h[0] + l0[1] * h[1] + l0[2] * h[2] for h in hs]
            s1 = [l1[0] * h[0] + l1[1] * h[1] + l1[2] * h[2] for h in hs]
            first = len(vs)
            k = len(hs) - 1
            for t in range(1, k + 1):
                if s0[t - 1] < 0 < s0[t]:
                    vs.append(_hcanon(_hmeet(l0, lines[pocket[t - 1]])))
                if s1[t - 1] < 0 < s1[t]:
                    vs.append(_hcanon(_hmeet(l1, lines[pocket[t - 1]])))
                if t < k and s0[t] >= 0 >= s1[t]:
                    vs.append(hs[t])
            if s0[1] < 0:
                windows.append((hs[0], vs[first]))
            if s1[k - 1] > 0:
                windows.append((vs[-1], hs[-1]))
            vs.append(hs[-1])
        if vs[-1] != end:  # a mouth may end at a corner
            vs.append(end)
    return SimplePolygon._of_h(vs, hp), windows


def _room_sees(poly: SimplePolygon, room: _Room, hp, hq) -> bool:
    """`visible` for p (triple hp) in the room's open rectangle and q
    (triple hq) in poly; see `visible` for the proof."""
    X, Y, W = hq
    lo, hi = room.lo, room.hi
    right = X * hi[2] > hi[0] * W
    if not right and X * lo[2] >= lo[0] * W:
        return True
    corner, pockets = room.walls[0 if right else 1]
    # where pq crosses the wall line
    m = _hmeet(_hline(hp, hq), (corner[2], 0, -corner[0]))
    # the last pocket whose lower mouth corner is not above that crossing
    i, j = 0, len(pockets)
    while i < j:
        k = (i + j) // 2
        if pockets[k][0][1] * m[2] <= m[1] * pockets[k][0][2]:
            i = k + 1
        else:
            j = k
    if i == 0:
        return False
    _, top, pocket = pockets[i - 1]
    if m[1] * top[2] > top[1] * m[2]:
        return False
    lines = poly.edge_lines()
    return all(lines[e][0] * X + lines[e][1] * Y + lines[e][2] * W >= 0
               for e in pocket[:-1])


def _dot(l, h) -> int:
    """l . h, which has the sign of orient(a, b, h) for l = `_hline`(a, b)."""
    return l[0] * h[0] + l[1] * h[1] + l[2] * h[2]


def _clip_h(hs, l) -> list:
    """The convex polygon hs (ccw triples, W > 0) clipped to the closed
    half-plane l . h >= 0."""
    s = [_dot(l, h) for h in hs]
    out = []
    for i, h in enumerate(hs):
        if s[i - 1] * s[i] < 0:
            x = _hmeet(l, _hline(hs[i - 1], h))
            out.append(x if x[2] > 0 else (-x[0], -x[1], -x[2]))
        if s[i] >= 0:
            out.append(h)
    return out


def _inner_point(hs):
    """The mean of the first vertex of the convex polygon hs and two
    consecutive others not collinear with it, a point of its interior;
    None if hs has no area."""
    for b, c in zip(hs[1:], hs[2:]):
        if orient_h(hs[0], b, c):
            (ax, ay, aw), (bx, by, bw), (cx, cy, cw) = hs[0], b, c
            return (ax * bw * cw + bx * aw * cw + cx * aw * bw,
                    ay * bw * cw + by * aw * cw + cy * aw * bw, 3 * aw * bw * cw)
    return None


def _pocket_miss(hs, hgs, order, keys, k):
    """A point (triple) inside the pocket hs, its vertex triples from one
    mouth corner to the other, that no guard hgs sees; None if they see
    all of it.  order lists the guards' indices by y key, keys holds
    those keys in that order, and k is the mouth's mid key.  See
    `pocket_test` for the proof and the order in which the guards are
    tried."""
    m0, m1, inner = hs[0], hs[-1], hs[1:-1]
    lines = [None] * len(hgs)
    up = bisect_left(keys, k)
    down = up - 1
    while up < len(keys) or down >= 0:
        if down < 0 or (up < len(keys) and keys[up] - k <= k - keys[down]):
            i = order[up]
            up += 1
        else:
            i = order[down]
            down -= 1
        hg = hgs[i]
        l0, l1 = _hline(hg, m0), _hline(hg, m1)
        if all(_dot(l0, h) >= 0 >= _dot(l1, h) for h in inner):
            return None
        lines[i] = (l0, l1, hg)
    # A_a lies in A_b iff l0_a . g_b >= 0
    lines.sort(key=cmp_to_key(lambda a, b: _dot(a[0], b[2])))
    cut = None  # the line l1 of the least B so far
    for l0, l1, hg in lines:
        clip = _clip_h(hs, (-l0[0], -l0[1], -l0[2]))
        w = _inner_point(clip if cut is None else _clip_h(clip, cut))
        if w is not None:
            return w
        if cut is None or _dot(cut, hg) < 0:
            cut = l1
    return _inner_point(_clip_h(hs, cut))


def pocket_test(poly: SimplePolygon, guards: Sequence[Point]
                ) -> tuple[int, Point | None] | None:
    """Exact coverage of a room by guards in its open rectangle: None if
    poly is not a room (`_room_of`) or a guard lies elsewhere; otherwise
    the number of pockets checked and a point of the first pocket that no
    guard sees, or None if the guards (at least one) see all of poly.

    Every guard sees the closed rectangle, which is convex and lies in
    poly, and sees a point q of a pocket Q beyond it iff q lies in the
    closed wedge l0 . q >= 0 >= l1 . q, with l0 and l1 the lines from the
    guard through the mouth corners m0 and m1, the first and last vertices
    of the pocket (see `_visibility` and `visible`).  So poly is covered
    iff every Q lies in the union of the guards' wedges.  A pocket whose
    vertices all lie in one wedge is covered.  Otherwise guard g misses q
    iff q is in A_g = {l0 . q < 0} or in B_g = {l1 . q > 0}; beyond the
    wall line the A_g are wedges at m0 between the wall and the ray from
    g through m0, so they are nested, and so are the B_g at m1.  Sort the
    guards so that A grows: q is missed by all iff, for the first k with
    q in A_k, q lies in the least B_j of the guards j before k.  The missed
    part of Q is thus a staircase, the union of Q meet A_k meet that
    least B over k (and of Q meet the least B of all guards).  It is
    relatively open in Q, so it is empty iff no such piece has area, which
    clipping Q to the pieces' closed half-planes decides; the mean of
    three vertices of a clip with area, not collinear, lies in Q's
    interior and in no wedge.  All of this runs on the triples.

    Guard order: the guards are sorted once per call by their y keys
    floor(y * 2^_BOX_BITS).  The one-wedge pre-pass tries them, for each
    pocket, outward from the key halfway between its mouth corners' keys,
    the nearer key first: a pocket that one guard sees whole is mostly
    seen from the row at its own height.  The order decides only how
    soon a covering guard is found, not whether: every guard is tried
    before the staircase runs.  The staircase sorts the guards from index
    order, so its comparator's ties, and with them the witness, do not
    depend on the pre-pass."""
    room = _room_of(poly)
    hgs = [hpoint(g) for g in guards]
    if room is None or not all(room.holds(h) for h in hgs):
        return None
    hv, fy = poly._h, poly._fy
    ky = [(y << _BOX_BITS) // w for _, y, w in hgs]
    order = sorted(range(len(hgs)), key=ky.__getitem__)
    keys = [ky[i] for i in order]
    checked = 0
    for _, pockets in room.walls:
        for _, _, pocket in pockets:
            checked += 1
            w = _pocket_miss([hv[v] for v in pocket], hgs, order, keys,
                             (fy[pocket[0]] + fy[pocket[-1]]) >> 1)
            if w is not None:
                return checked, hpoint_to_point(w)
    return checked, None


def visible(poly: SimplePolygon, p: Point, q: Point) -> bool:
    """True iff the closed segment pq lies inside the closed polygon.

    Grazing contact with the boundary counts as visible.  Raises
    GeometryError if either endpoint is outside the polygon (distinct
    from a plain 'not visible' answer).

    Both endpoints are located first.  For p in the open rectangle of a
    room (`_room_of`), the answer is read off the room: True for q in the
    closed rectangle; for q beyond a wall, True iff pq crosses the wall
    line inside the closed mouth of a pocket that holds q, a binary search
    over that wall's mouths and one side test per edge of that pocket
    (`_room_sees`).  Proof: pq runs in the rectangle up to the wall line,
    which it crosses at one point w.  If w lies in the closed mouth of
    the convex pocket Q holding q, wq lies in Q, which lies in the
    polygon (see `_visibility`).  Otherwise pq leaves the polygon: just
    beyond w if w is on a wall edge or at a wall vertex that is no mouth
    corner, and through the chain of the pocket it enters if that pocket
    is not Q, since two pockets meet at most on the wall line.

    Any other p, and any polygon that is not a room, takes the segment
    cutter `_cut_window`: pq is cut where it meets the boundary, at the
    polygon vertices on it and at its proper crossings with edges.  Each
    piece between two cuts lies on one side of every edge, so its
    midpoint decides it.  All of this runs on the homogeneous triples.
    """
    hp, hq = hpoint(p), hpoint(q)
    if poly._locate_h(hp) == "out" or poly._locate_h(hq) == "out":
        raise GeometryError("visibility query endpoint outside polygon")
    if hp == hq:
        return True
    room = _room_of(poly)
    if room is not None and room.holds(hp):
        return _room_sees(poly, room, hp, hq)
    # every edge that meets pq has a key box that meets pq's
    x0, y0, x1, y1 = _key_box((hp, hq))
    hv = poly._h
    n = len(hv)
    # the edges' key boxes, built on first use
    boxes = poly._boxes
    if boxes is None:
        boxes = poly._boxes = _edge_boxes(poly._fx, poly._fy)
    stops, _ = _cut_window(hp, hq, [
        (hv[i], hv[i + 1 if i + 1 < n else 0])
        for i, bx in enumerate(boxes)
        if not (bx[2] < x0 or x1 < bx[0] or bx[3] < y0 or y1 < bx[1])])
    return all(poly._locate_h(_hmid(h0, h1)) != "out"
               for h0, h1 in zip(stops, stops[1:]))


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
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def _ray_line(hp, d) -> tuple[int, int, int]:
    """The line through p (homogeneous hp) in direction d, oriented as
    `_hline(p, p + d)`: l . h has the sign of cross(d, h - p)."""
    return (-d[1] * hp[2], d[0] * hp[2], hp[0] * d[1] - hp[1] * d[0])


def _cone_side_hit(poly: SimplePolygon, hp, vdirs, e: int, d):
    """Where the ray from p (homogeneous hp) in direction d meets edge e
    of poly, for an edge that spans a cone with d on its boundary, as a
    triple in `hpoint`'s form.  The edge is not on a line through p and
    spans the closed cone, so the ray meets it exactly once: at the end
    vertex in direction d (that vertex's triple in poly), or else where
    the two lines meet."""
    k = e + 1 if e + 1 < len(vdirs) else 0
    if vdirs[e] == d:
        return poly._h[e]
    if vdirs[k] == d:
        return poly._h[k]
    m = _hmeet(_ray_line(hp, d), poly.edge_lines()[e])
    # ahead of p: dot(d, m - p) > 0
    if m[2] == 0 or d[0] * (m[0] * hp[2] - hp[0] * m[2]) \
            + d[1] * (m[1] * hp[2] - hp[1] * m[2]) <= 0:
        raise GeometryError("sweep invariant violated: event ray misses its edge")
    return _hcanon(m)


def _vertex_dirs(poly: SimplePolygon, hp) -> list[tuple[int, int] | None]:
    """The reduced integer direction from p (homogeneous hp) to each vertex
    of poly, in vertex order; None for a vertex equal to p."""
    out: list[tuple[int, int] | None] = []
    for h in poly._h:
        dx = h[0] * hp[2] - hp[0] * h[2]
        dy = h[1] * hp[2] - hp[1] * h[2]
        out.append(_reduce_dir(dx, dy) if dx or dy else None)
    return out


def _sweep(poly: SimplePolygon, hp,
           vdirs: list[tuple[int, int] | None] | None = None) -> list:
    """Angular sweep around the viewpoint p, given as its `hpoint` triple
    hp.  One entry per cone between consecutive vertex directions: for a
    visible cone the triple (edge index, start, end), the ends in
    `hpoint`'s form, as a `FanPiece` holds them; None for a cone that
    points into the exterior (possible only for boundary viewpoints).
    `vdirs` is `_vertex_dirs(poly, hp)`, computed here if not given.

    Each cone is probed by one representative ray strictly inside it, and
    tests only the edges that span it.  An edge ab with orient(p, a, b) > 0
    is seen from p under the ccw angular interval from dir(a) to dir(b),
    which is less than pi, so it spans exactly the cones from the index of dir(a) up
    to, not including, the index of dir(b), cyclically (from b to a if the
    orientation is negative).  A representative ray lies on no vertex
    direction, so it meets such an edge at a positive parameter exactly
    when its cone lies in that interval; this holds for the pi cone and
    for reflex cones too, whose rays are perpendicular to, or opposite,
    the cone's first direction.  An edge with orient(p, a, b) == 0 lies on
    a line through p or ends at p: every point of it other than p lies on
    a vertex direction, so no representative ray meets it and it is
    skipped.

    The directions are sorted by `_dir_cmp`, exactly, in O(n log n)
    comparisons.  Since the representative ray r meets every edge
    that spans its cone exactly once, ahead of p, the nearest edge is the
    one with the least ray parameter t: p + t r lies on the edge's line l
    where t = -(l . hp) / ((l_x r_x + l_y r_y) W), and the common factor
    1 / W > 0 is dropped, so each stabbed edge costs one
    cross-multiplication and no meet.  The sides of a and b relative to
    the ray (from the vertex directions) and t > 0 are still checked per
    edge, and a failure raises instead of skipping the edge.  Each cone
    keeps its edges in index order, so ties resolve as in a scan of all
    edges.  A probe point is made only for a boundary viewpoint, on the
    nearest edge, to test whether the cone looks into the exterior.  A
    visible cone's piece runs between the points where its two boundary
    rays meet the nearest edge, one meet each (`_cone_side_hit`); a cone
    whose nearest edge is that of the visible cone just before it starts
    at that cone's end, the same ray on the same edge.  Cost:
    O(n log n) for the directions plus the total number of (cone,
    spanning edge) pairs, instead of n per cone.
    """
    where = poly._locate_h(hp)
    if where == "out":
        raise GeometryError("viewpoint outside polygon")
    hv = poly._h
    lines = poly.edge_lines()
    n = len(hv)
    if vdirs is None:
        vdirs = _vertex_dirs(poly, hp)

    sorted_dirs = sorted({d for d in vdirs if d is not None},
                         key=cmp_to_key(_dir_cmp))
    m = len(sorted_dirs)
    if m < 2:
        raise GeometryError("degenerate direction set in visibility sweep")
    index = {d: i for i, d in enumerate(sorted_dirs)}

    # l . hp for each edge line l: its sign is orient(p, a, b)
    side = [l[0] * hp[0] + l[1] * hp[1] + l[2] * hp[2] for l in lines]
    stabbed: list[list[int]] = [[] for _ in range(m)]
    for e in range(n):
        if side[e] == 0:
            continue
        i, j = index[vdirs[e]], index[vdirs[e + 1 if e + 1 < n else 0]]
        if side[e] < 0:
            i, j = j, i
        while i != j:
            stabbed[i].append(e)
            i = i + 1 if i + 1 < m else 0

    raw: list = []
    for i in range(m):
        u = sorted_dirs[i]
        w = sorted_dirs[(i + 1) % m]
        cr = u[0] * w[1] - u[1] * w[0]
        if cr > 0:
            rx, ry = u[0] + w[0], u[1] + w[1]  # strictly inside a salient cone
        elif cr == 0:
            rx, ry = -u[1], u[0]  # cone of angle exactly pi
        else:
            rx, ry = -u[0], -u[1]  # reflex cone: the antipode of u is inside
        best_edge = -1
        for e in stabbed[i]:
            da, db = vdirs[e], vdirs[e + 1 if e + 1 < n else 0]
            sa = rx * da[1] - ry * da[0]
            sb = rx * db[1] - ry * db[0]
            l = lines[e]
            num, den = -side[e], l[0] * rx + l[1] * ry
            if den < 0:
                num, den = -num, -den
            if not (sa < 0 < sb or sb < 0 < sa) or num <= 0:
                raise GeometryError(
                    "sweep invariant violated: a cone's ray misses an edge that spans it")
            if best_edge < 0 or num * best_den < best_num * den:
                best_edge, best_num, best_den = e, num, den
        if best_edge < 0:
            raw.append(None)
            continue
        # from an interior p the open segment to the first hit is interior;
        # only a boundary viewpoint can look into the exterior
        if where == "on" and poly._locate_h(_hmid(hp, _hmeet(
                _ray_line(hp, (rx, ry)), lines[best_edge]))) == "out":
            raw.append(None)
            continue
        prev = raw[-1] if raw else None
        # the last cone's end lies on this cone's first ray: on the same
        # edge it is this cone's start
        start = (prev[2] if prev is not None and prev[0] == best_edge
                 else _cone_side_hit(poly, hp, vdirs, best_edge, u))
        raw.append((best_edge, start, _cone_side_hit(poly, hp, vdirs, best_edge, w)))
    return raw


def visibility_fan(poly: SimplePolygon, p: Point) -> list[FanPiece]:
    """Angular decomposition of the region of poly visible from p.

    The triangles (p, piece.start, piece.end) tile the 2-dimensional
    visible region; measure-zero grazing lines are piece boundaries.
    One `_sweep`: each cone between consecutive vertex directions is
    stabbed only by the edges whose angular span contains it, so the cost
    is O(n log n) plus the number of (cone, spanning edge) pairs.
    Exact coverage does not read the fan; the coverage tests' reference
    does, and the benchmark's tracer wraps this function by name.
    """
    return [FanPiece(e, hpoint_to_point(a), hpoint_to_point(b))
            for e, a, b in filter(None, _sweep(poly, hpoint(p)))]


def visibility_polygon(poly: SimplePolygon, p: Point) -> SimplePolygon:
    """Region of poly visible from p, as a star-shaped simple polygon.

    p is in the kernel of the result.  Zero-width lines of sight (pinhole
    whiskers) are dropped: the result is the closure of the 2-dimensional
    visible region.  A viewpoint in the open rectangle of a room, as every
    guard of a gallery is, gets it pocket by pocket in linear time; any
    other viewpoint or polygon gets the angular sweep (`_visibility`).
    """
    return _visibility(poly, hpoint(p))[0]


def _visibility(poly: SimplePolygon, hp):
    """The visibility polygon of poly around p (the `hpoint` triple hp)
    and its windows: the parts of its boundary inside poly's interior, as
    pairs of triples with the visible side on their left, in the order of
    the walk that found them.

    A room (`_room_of`) seen from its open rectangle takes the room view
    (`_room_view`), which walks the room's boundary ccw from (xr, yb).
    Every other viewpoint, including a room's boundary points and points
    beyond its walls, and every polygon that is not a room, takes the
    sweep, whose polygon starts at its first visible cone's start.  From
    a point of the open rectangle both walks give the same region and the
    same windows; the room view may start at another vertex and keeps
    the pocket vertices where poly runs straight on.

    The room view.  Let R be the closed rectangle and p a point of its
    open interior; a pocket Q means the convex polygon of its vertices,
    closed by its mouth M from m0 to m1 (in boundary order).
    - The open rectangle lies inside poly: the bottom and top edges lie on
      the lines y = yb and y = yt and every other edge in x >= xr or
      x <= xl, so no edge meets it, and it lies left of the bottom edge.
    - A pocket meets its wall line only in its mouth, and the mouths of
      one wall are disjoint, so no two pockets overlap and no edge enters
      a pocket's interior; as its open mouth borders the open rectangle,
      each Q lies in poly.
    - A ray from p through M runs in R up to M and then stays in the
      convex Q until it meets Q's chain; a point q beyond the wall is
      seen iff pq crosses M and q lies in Q (see `visible`).  So the view
      is R together with each Q clipped to the closed wedge W from p
      through M, on the triples: a point h of Q is kept when
      orient(p, m0, h) >= 0 >= orient(p, m1, h).
    - Q and W are convex, and Q meets W in a set with interior (it holds
      a half-disc beyond the middle of M, which lies inside W), as R has
      interior: the view is the closure of its interior, with no
      whiskers, the region whose boundary the sweep walks.
    The view's boundary, ccw from (xr, yb), runs along R, through the
    room's corners and mouth corners, and, at each mouth, through the
    clipped pocket: m0; where the chain's first edge lies right of the
    ray from p through m0, that ray's far end A in Q; the chain vertices
    in W; where the chain leaves W across the ray through m1, its far end
    B; then m1.  The windows are (m0, A) and (B, m1): on a wedge line and
    not edges of poly (when the chain runs along the ray, the pair is an
    edge of poly instead).  A and B turn, and so do the corners and m0
    and m1; every other view vertex has its neighbours on the edges of
    poly at it, so the view runs straight on only at pocket vertices
    where poly does.

    The sweep.  One walk over the junctions of consecutive cones of one
    `_sweep` reads off the polygon and its windows.

    A junction's ends are the two cones' ends, or p at a gap (a run of
    exterior cones).  Cones on one edge share an end inside it, which is
    dropped; an end next to a run (below) is kept, as its cone's edge is
    not on a line through p; other shared ends, and p, are tested.

    A run goes along the ray from p between two different ends.  It lies
    in the closed poly, and no edge crosses it: that edge would span the
    cone with the farther end, nearer than its nearest edge.  Split at
    the vertices on it, a part holds no vertex or crossing inside, so it
    is either inside poly or along one edge, whose ends are its own or p
    (no vertex or cone end lies inside an edge).  So a part is a window
    unless its ends are adjacent vertices or one is p: a gap's run leaves
    p along the edge through p.  No point is located."""
    room = _room_of(poly)
    if room is not None and room.holds(hp):
        return _room_view(poly, room, hp)
    vdirs = _vertex_dirs(poly, hp)
    raw = _sweep(poly, hp, vdirs)
    if all(pc is None for pc in raw):
        raise GeometryError("no visible area from viewpoint")
    hv = poly._h
    n = len(hv)
    on_ray: dict = {}  # the vertices on each direction from p
    for v, d in enumerate(vdirs):
        on_ray.setdefault(d, []).append(v)
    k = len(raw)
    start = next(i for i, pc in enumerate(raw) if pc is not None)
    last = next(pc[2] for pc in reversed(raw) if pc)  # the far end before a gap
    verts, windows, first = [], [], 0
    for i in range(k):
        cur, nxt = raw[i], raw[(i + 1) % k]
        if cur is None:
            if nxt is None:
                continue
            ha, hb = hp, nxt[1]
            if not (orient_h(last, hp, hb) == 0 and _dot_h(last, hp, hb) > 0):
                verts.append(hp)
        else:
            last = ha = cur[2]
            hb = hp if nxt is None else nxt[1]
            if ha != hb:
                verts.append(ha)
        if (i + 1) % k == start:
            first = len(verts)
        if ha == hb:
            # two visible cones meet: on one edge the shared end is dropped
            if cur[0] != nxt[0] and not (orient_h(cur[1], ha, nxt[2]) == 0
                                         and _dot_h(cur[1], ha, nxt[2]) > 0):
                verts.append(ha)
            continue
        if nxt is not None:
            verts.append(hb)
        # the run's stops, each with its vertex index or -1
        hf = hb if ha == hp else ha
        d = _reduce_dir(hf[0] * hp[2] - hp[0] * hf[2],
                        hf[1] * hp[2] - hp[1] * hf[2])
        stops = {ha: -1, hb: -1}
        for v in on_ray.get(d, ()):
            if _on_segment_collinear(ha, hb, hv[v]):
                stops[hv[v]] = v
        hs = _order_along(ha, hb, stops)
        for h0, h1 in zip(hs, hs[1:]):
            i0, i1 = stops[h0], stops[h1]
            if hp != h0 and hp != h1 and (
                    i0 < 0 or i1 < 0 or (i1 - i0) % n not in (1, n - 1)):
                windows.append((h0, h1))
    return SimplePolygon._of_h(verts[first:] + verts[:first], hp), windows


def window_test(poly: SimplePolygon, guards: Sequence[Point]
                ) -> tuple[int, tuple[Point, Point] | None]:
    """The window test of exact coverage: the number of window pieces
    tested, and the first piece whose hidden side no other guard covers,
    or None if there is no such piece.

    Each guard g has a visibility polygon VP(g), closed and star-shaped;
    its windows are the edges, or parts of edges, that run through the
    polygon's interior, with VP(g) on their left.  Let U be the part of
    the polygon P outside every VP(g).  The union of the closed VP(g) is
    closed, so U is relatively open in P; if U is not empty it therefore
    meets the interior of P, and there its frontier lies on windows: some
    stretch of some window has U on its right (hidden) side.  A gap on
    the boundary of P alone cannot exist, so testing every window piece
    decides coverage of all of P, given at least one guard (with none, U
    is all of P and has no frontier).

    A window's relative interior lies in P's interior, where the boundary
    of VP(j) runs only along windows of j; so membership in VP(j) changes
    along a window only where a window of j meets it.  Each window is cut
    at every point where another guard's window crosses, touches or stops
    on it (`_window_candidates`, `_cut_window`).  Along one piece, which
    other guard covers the right side cannot change, so the midpoint m
    decides it: the side is covered iff m is inside another VP(j), or m
    lies on a window of another guard that runs along the piece in the
    opposite direction.

    Each guard is turned into its `hpoint` triple once; the views, the
    windows, the cuts and the piece tests all run on triples, and Points
    are made only for the uncovered piece returned.  A guard in a room's
    open rectangle gets its view pocket by pocket; any other guard, or a
    polygon that is not a room, is swept (`_visibility`); both give the
    same region and windows.
    """
    vps = []
    windows = []
    for gi, g in enumerate(guards):
        vp, ws = _visibility(poly, hpoint(g))
        vps.append(vp)
        windows += [(gi, ha, hb) for ha, hb in ws]
    tested = 0
    for (gi, ha, hb), cand in zip(windows, _window_candidates(windows)):
        hs, opposite = _cut_window(ha, hb, cand)
        for h0, h1 in zip(hs, hs[1:]):
            tested += 1
            hm = _hmid(h0, h1)
            if any(_on_segment_collinear(hc, hd, hm) for hc, hd in opposite):
                continue
            if not any(j != gi and vp._locate_h(hm) == "in"
                       for j, vp in enumerate(vps)):
                return tested, (hpoint_to_point(h0), hpoint_to_point(h1))
    return tested, None


def _window_candidates(windows) -> list[list]:
    """For the windows (guard index, a, b), a and b triples in `hpoint`'s
    form: per window, its candidates, the windows (c, d) of other guards
    whose key boxes meet its own.

    Every window of another guard that meets a window is among its
    candidates; the sweep over y of `_box_pairs` finds the pairs.  The
    pairs of one guard's windows are dropped: they never cross (they are
    edges of one simple polygon)."""
    cand: list[list] = [[] for _ in windows]
    for i, j in _box_pairs([_key_box(w[1:]) for w in windows]):
        if windows[i][0] != windows[j][0]:
            cand[i].append(windows[j][1:])
            cand[j].append(windows[i][1:])
    return cand


def _cut_window(ha, hb, cand):
    """For the segment from a to b (`hpoint` triples) and the candidate
    segments cand, pairs (c, d) of triples, the pair (stops, opposite):
    the cut points, triples in `hpoint`'s form ordered from a to b, ends
    included; and the candidates that lie along ab in the opposite
    direction.  `window_test` cuts a window against the windows of other
    guards (`_window_candidates`); `visible` cuts its segment against the
    polygon edges near it.

    Cuts are the crossings and touches with the candidates and the ends
    of collinear overlaps.  The stops are ordered along the segment by
    `_order_along` and `opposite` is only searched, so nothing depends on
    the order of cand.  A crossing is put in hpoint's form (`_hcanon`),
    which names a point uniquely, so the set of cuts holds each point
    once.
    """
    cuts = {ha, hb}
    # l . h has the sign of orient_h(a, b, h) for the line l through a, b
    li = _hline(ha, hb)
    opposite = []
    for hc, hd in cand:
        s1 = li[0] * hc[0] + li[1] * hc[1] + li[2] * hc[2]
        s2 = li[0] * hd[0] + li[1] * hd[1] + li[2] * hd[2]
        if (s1 > 0 and s2 > 0) or (s1 < 0 and s2 < 0):
            continue
        if s1 == 0 and s2 == 0:
            cuts.update(h for h in (hc, hd) if _on_segment_collinear(ha, hb, h))
            if _dot_dirs(ha, hb, hc, hd) < 0:
                opposite.append((hc, hd))
            continue
        lj = _hline(hc, hd)
        s3 = lj[0] * ha[0] + lj[1] * ha[1] + lj[2] * ha[2]
        s4 = lj[0] * hb[0] + lj[1] * hb[1] + lj[2] * hb[2]
        if (s3 > 0 and s4 > 0) or (s3 < 0 and s4 < 0):
            continue
        # an endpoint on the other line is the unique crossing
        cuts.add(hc if s1 == 0 else hd if s2 == 0 else ha if s3 == 0
                 else hb if s4 == 0 else _hcanon(_hmeet(li, lj)))
    return _order_along(ha, hb, cuts), opposite


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
