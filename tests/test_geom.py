"""Tests for the exact geometry kernel."""

import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from topogallery import geom
from topogallery.complexes import complex_to_dnf, mobius_complex
from topogallery.compiler import compile_gallery, compile_surface
from topogallery.formulas import dnf_to_cnf, simplify_cnf
from topogallery.geom import (
    GeometryError,
    Point,
    SimplePolygon,
    _BOX_BITS,
    _box_pairs,
    _dir_cmp,
    _dir_half,
    _dot_dirs,
    _dot_h,
    _hcanon,
    _keys_orient,
    _on_segment_collinear,
    _order_along,
    _reduce_dir,
    _segments_touch_h,
    _star_simple,
    _sum_sign,
    hpoint,
    hpoint_to_point,
    hausdorff_distance_sq_max,
    intersect_lines,
    invert_through,
    orient,
    orient_h,
    polygon_area2,
    pt,
    rational_key,
    triangulate,
    visibility_fan,
    visibility_polygon,
    visible,
    x_at,
    y_at,
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


# --- homogeneous triples ----------------------------------------------------

COORD = st.one_of(st.just(0), st.integers(-10**30, 10**30))


@settings(max_examples=300)
@given(COORD, COORD, COORD.filter(bool), st.integers(1, 10**6))
@example(0, 0, -7, 1)
@example(6, -4, -2, 12)
@example(0, 5, 10, 3)
def test_hcanon_is_hpoint_of_the_point(x, y, w, f):
    # a common factor f and a negative w give other triples of one point
    for h in ((x, y, w), (x * f, y * f, w * f), (-x * f, -y * f, -w * f)):
        assert _hcanon(h) == hpoint(hpoint_to_point(h))


@settings(max_examples=300)
@given(st.dictionaries(st.integers(1, 2**90), st.integers(-2**90, 2**90),
                       min_size=1, max_size=6))
@example({3: 1, 6: -2})        # zero
@example({2**80: 1})           # below the 2^-64 step: summed exactly
@example({2**80: -1})
@example({3: 2**70, 7: -(2**70 * 7 // 3)})
def test_sum_sign_matches_fraction_sum(terms):
    total = sum(Fraction(t, d) for d, t in terms.items())
    assert _sum_sign(terms) == (total > 0) - (total < 0)


FRACS = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def _triple(x, y, f):
    """A homogeneous triple of (x, y), scaled by the positive factor f."""
    return tuple(c * f for c in hpoint(Point(x, y)))


def _fdot(a, b, c, d):
    """(b - a) . (d - c) on Fraction points (x, y)."""
    return (b[0] - a[0]) * (d[0] - c[0]) + (b[1] - a[1]) * (d[1] - c[1])


@settings(max_examples=300)
@given(FRACS, FRACS, FRACS, FRACS, FRACS, FRACS,
       st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
@example(1, 2, 3, -1, 0, 0, 1, 1, 1)         # a == b == p
@example(1, 2, 3, -1, 1, 0, 2, 3, 1)         # a == b, p elsewhere
@example(0, 0, 1, 2, 0, 1, 1, 2, 3)          # p at a
@example(0, 0, 1, 2, 1, 1, 3, 1, 2)          # p at b
@example(0, 0, 1, 2, -1, 1, 1, 1, 1)         # p beyond a
@example(0, 0, 1, 2, 3, 1, 1, 1, 1)          # p beyond b
@example(0, 0, 1, 0, Fraction(1, 2), 1, 1, 1, 1)  # p strictly between
def test_collinear_predicates_match_fraction_definitions(
        ax, ay, dx, dy, t, s, fa, fb, fp):
    # a, b = a + s*d and p = a + t*d are collinear; each triple carries
    # its own positive factor, which the predicates must not depend on
    a = (Fraction(ax), Fraction(ay))
    b = (a[0] + s * dx, a[1] + s * dy)
    p = (a[0] + t * dx, a[1] + t * dy)
    ha, hb, hp = _triple(*a, fa), _triple(*b, fb), _triple(*p, fp)
    on = all(min(u, v) <= w <= max(u, v) for u, v, w in zip(a, b, p))
    assert _on_segment_collinear(ha, hb, hp) == on
    # the dropped factors are the products of the triples' w
    wa, wb, wp = ha[2], hb[2], hp[2]
    assert _dot_h(ha, hp, hb) == _fdot(a, p, p, b) * wa * wp * wp * wb
    assert _dot_h(hp, ha, hb) == _fdot(p, a, a, b) * wp * wa * wa * wb
    named = {"a": (a, ha), "b": (b, hb), "p": (p, hp)}
    for names in ("abpb", "paba", "apab", "bbap"):
        fs, hs = zip(*(named[c] for c in names))
        assert _dot_dirs(*hs) == \
            _fdot(*fs) * hs[0][2] * hs[1][2] * hs[2][2] * hs[3][2]


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


@st.composite
def _clustered_point_sets(draw):
    """Two sets of up to 40 points over one denominator beyond 2^64, so
    numerators run beyond 64 bits.  Their xs come from a few columns and
    their ys from a few heights next to multiples of 2^-64, where the y
    keys step; each coordinate is nudged by up to two steps of 1/den, less
    than 2^-64, so many points share a y, and points whose ys differ by
    less than 2^-64 share a y key or lie on the two sides of a step."""
    den = draw(st.sampled_from([2 ** 72, 3 ** 47, 5 * 2 ** 70 + 1]))
    columns = draw(st.lists(st.integers(-8 * den, 8 * den), min_size=1,
                            max_size=3))
    heights = draw(st.lists(st.integers(-3 << 64, 3 << 64), min_size=1,
                            max_size=4))
    nudge = st.integers(-2, 2)
    point = st.builds(
        lambda x, dx, h, dy: Point(Fraction(x + dx, den),
                                   Fraction((h * den >> 64) + dy, den)),
        st.sampled_from(columns), nudge, st.sampled_from(heights), nudge)
    return (draw(st.lists(point, min_size=1, max_size=40)),
            draw(st.lists(point, min_size=1, max_size=40)))


@settings(max_examples=100)
@given(_clustered_point_sets())
def test_hausdorff_matches_fraction_definition_on_clustered_rows(sets):
    a, b = sets
    d = hausdorff_distance_sq_max(a, b)
    assert d == _hausdorff_reference(a, b)
    assert d == hausdorff_distance_sq_max(b, a)


# --- x_at / y_at ---------------------------------------------------------

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@settings(max_examples=300)
@given(rational_points, rational_points, rationals)
def test_x_at_y_at_match_axis_parallel_intersection(p, q, c):
    zero, one = Fraction(0), Fraction(1)
    if p.y != q.y:
        x = x_at(p, q, c)
        assert type(x) is Fraction
        assert x == intersect_lines(p, q, Point(zero, c), Point(one, c)).x
        assert orient(p, q, Point(x, c)) == 0
    if p.x != q.x:
        y = y_at(p, q, c)
        assert type(y) is Fraction
        assert y == intersect_lines(p, q, Point(c, zero), Point(c, one)).y
        assert orient(p, q, Point(c, y)) == 0


@given(rational_points, rationals, rationals)
def test_x_at_y_at_reject_axis_parallel_lines(p, other, c):
    # `other == p.x` or `p.y` makes the two points coincide
    with pytest.raises(GeometryError):
        x_at(p, Point(other, p.y), c)
    with pytest.raises(GeometryError):
        y_at(p, Point(p.x, other), c)


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
    # (3, 0) touches edge 0 from edges 3 and 4; the least pair is named
    ([pt(0, 0), pt(6, 0), pt(6, 4), pt(3, 4), pt(3, 0), pt(0, 4)],
     "edges 0 and 3 of polygon intersect"),
    # three spikes cross edge 0
    ([pt(0, 0), pt(5, 0), pt(5, 3), pt(Fraction(7, 2), Fraction(-1, 3)),
      pt(Fraction(5, 2), 3), pt(Fraction(3, 2), Fraction(-1, 2)),
      pt(Fraction(1, 2), 3), pt(0, 3)],
     "edges 0 and 2 of polygon intersect"),
    # (3, 4) touches the top edge 0 from edges 3 and 4, and (5, 0) the
    # bottom edge 5 from edges 7 and 8: the least pair is named, not the
    # lowest
    ([pt(6, 4), pt(0, 4), pt(0, 0), pt(2, 0), pt(3, 4), pt(4, 0), pt(6, 0),
      pt(6, 1), pt(5, 0)],
     "edges 0 and 3 of polygon intersect"),
])
def test_polygon_rejection_names_the_fault(verts, message):
    with pytest.raises(GeometryError) as err:
        SimplePolygon(verts)
    assert str(err.value) == message


# small coordinates, so that boxes share edges and least y often, and
# some are points
key_boxes = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h),
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300)
@given(st.lists(key_boxes, max_size=12))
@example([])
@example([(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 2, 2), (2, 2, 2, 2), (2, 3, 4, 3)])
@example([(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2), (2, 2, 3, 3)])
def test_box_pairs_are_the_meeting_pairs(boxes):
    # closed boxes meet iff their x ranges and their y ranges meet
    want = [(i, j) for i in range(len(boxes)) for j in range(i + 1, len(boxes))
            if boxes[i][0] <= boxes[j][2] and boxes[j][0] <= boxes[i][2]
            and boxes[i][1] <= boxes[j][3] and boxes[j][1] <= boxes[i][3]]
    assert sorted(_box_pairs(boxes)) == want


# --- validation against an all-pairs reference ---------------------------

def _validate_reference(verts):
    """`SimplePolygon` validation without keys or a sweep: every pair of
    edges (i, j), i < j, in that order, so the first touching pair met is
    the least.  The pair filter compares edge boxes rounded outwards to
    multiples of 2^-32.  Returns the Fraction bounding box."""
    if len(verts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    hv = [hpoint(v) for v in verts]
    n = len(verts)
    if len(set(hv)) != n:
        raise GeometryError("repeated vertex in polygon")
    terms = {}
    for i in range(n):
        a, b = hv[i - 1], hv[i]
        den = a[2] * b[2]
        terms[den] = terms.get(den, 0) + a[0] * b[1] - b[0] * a[1]
    if sum(Fraction(t, den) for den, t in terms.items()) <= 0:
        raise GeometryError("polygon must be counterclockwise with positive area")
    for i in range(n):
        a, b, c = hv[i - 1], hv[i], hv[(i + 1) % n]
        if orient_h(a, b, c) == 0 and _dot_h(a, b, c) <= 0:
            raise GeometryError(f"fold-back at vertex {verts[i]}")
    boxes = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        boxes.append((min(a.x, b.x) * 2 ** 32 // 1, min(a.y, b.y) * 2 ** 32 // 1,
                      -(max(a.x, b.x) * -2 ** 32 // 1),
                      -(max(a.y, b.y) * -2 ** 32 // 1)))
    for i, (x0, y0, x1, y1) in enumerate(boxes):
        # edges i and j share a vertex if j == i + 1, or i == 0 and j == n - 1
        for j in [j for j in range(i + 2, n - (i == 0))
                  if boxes[j][0] <= x1 and x0 <= boxes[j][2]
                  and boxes[j][1] <= y1 and y0 <= boxes[j][3]]:
            if _segments_touch_h(hv[i], hv[i + 1], hv[j], hv[(j + 1) % n]):
                raise GeometryError(f"edges {i} and {j} of polygon intersect")
    xs = [v.x for v in verts]
    ys = [v.y for v in verts]
    return min(xs), min(ys), max(xs), max(ys)


def _same_verdict(verts):
    """SimplePolygon accepts verts iff the reference does, rejects them
    with the same message, and has the Fraction bounding box."""
    try:
        want = _validate_reference(verts)
    except GeometryError as err:
        with pytest.raises(GeometryError) as got:
            SimplePolygon(verts)
        assert str(got.value) == str(err)
        return False
    assert SimplePolygon(verts).bbox == want
    return True


grid_points = st.builds(
    Point,
    st.fractions(min_value=0, max_value=4, max_denominator=2),
    st.fractions(min_value=0, max_value=4, max_denominator=2))

# integer directions in ccw order, for star-shaped polygons around 0
STAR_DIRS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1),
             (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1),
             (1, -2), (1, -1), (2, -1)]


@st.composite
def star_polygons(draw):
    """Vertices r * d over a ccw subset of STAR_DIRS: simple when no two
    consecutive directions are pi or more apart, and one vertex may be
    moved onto another edge, or onto another vertex, to make it touch."""
    dirs = draw(st.lists(st.sampled_from(STAR_DIRS), min_size=3,
                         max_size=10, unique=True))
    dirs.sort(key=STAR_DIRS.index)
    verts = []
    for dx, dy in dirs:
        r = draw(st.fractions(min_value=Fraction(1, 4), max_value=4,
                              max_denominator=4))
        verts.append(Point(r * dx, r * dy))
    if draw(st.booleans()):
        n = len(verts)
        k = draw(st.integers(0, n - 1))
        e = draw(st.integers(0, n - 1))
        t = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]))
        a, b = verts[e], verts[(e + 1) % n]
        verts[k] = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return verts


@st.composite
def orthogonal_polygons(draw):
    """Histograms over unit columns; a column of height 0 touches the
    base, and the tops may also be cut by a step of one half."""
    heights = draw(st.lists(st.integers(0, 4), min_size=2, max_size=7))
    w = len(heights)
    half = draw(st.booleans())
    verts = [pt(0, 0), pt(w, 0)]
    for c in range(w - 1, -1, -1):
        h = heights[c] + (Fraction(1, 2) if half and c % 2 else 0)
        for v in (pt(c + 1, h), pt(c, h)):
            if v != verts[-1]:
                verts.append(v)
    if verts[-1] == verts[0]:
        verts.pop()
    return verts


@st.composite
def long_rooms(draw):
    """A long, thin room with coordinates of 60 to 200 bits: a wall rising
    from the floor, a spike from the left side that stops short of the
    wall, and a spike from the ceiling that stops short of the floor.  The
    gaps are below 2^-64, zero or negative, so the integer boxes meet
    where the exact boxes may not."""
    den = 3 ** draw(st.integers(0, 80))

    def coord(lo, hi):
        return Fraction(draw(st.integers(lo * den, hi * den)), den)

    def gap():
        return Fraction(draw(st.integers(-2, 3)), 2 ** draw(st.integers(64, 90)))

    length = coord(10 ** 8, 2 * 10 ** 8)
    height = coord(2000, 3000)
    a = coord(10 ** 6, 10 ** 7)
    w = coord(1, 100)
    wall = coord(1000, 1900)
    y1 = coord(10, 400)
    y2 = y1 + coord(1, 500)
    c = coord(10 ** 7, 9 * 10 ** 7)
    w2 = coord(1, 10 ** 6)
    verts = [Point(Fraction(0), Fraction(0)), Point(a, Fraction(0)),
             Point(a, wall), Point(a + w, wall), Point(a + w, Fraction(0)),
             Point(length, Fraction(0)), Point(length, height),
             Point(c + w2, height), Point(c, gap()), Point(c - w2, height),
             Point(Fraction(0), height), Point(Fraction(0), y2),
             Point(a - gap(), (y1 + y2) / 2), Point(Fraction(0), y1)]
    return verts


@settings(max_examples=300)
@given(st.lists(grid_points, min_size=3, max_size=9, unique=True))
def test_validation_matches_reference_on_random_vertex_lists(verts):
    _same_verdict(verts)


def _same_of_h(verts):
    """`SimplePolygon._of_h` on the vertices' hpoint triples builds the
    polygon that SimplePolygon builds on the triples' Points (same
    vertices, box and ==), or rejects them with the same message."""
    hv = [hpoint(v) for v in verts]
    try:
        want = SimplePolygon([hpoint_to_point(h) for h in hv])
    except GeometryError as err:
        with pytest.raises(GeometryError) as got:
            SimplePolygon._of_h(hv)
        assert str(got.value) == str(err)
        return
    got = SimplePolygon._of_h(hv)
    assert got.vertices == want.vertices
    assert got.bbox == want.bbox
    assert got == want


@settings(max_examples=300)
@given(star_polygons())
def test_validation_matches_reference_on_star_polygons(verts):
    _same_verdict(verts)
    _same_of_h(verts)


@settings(max_examples=200)
@given(orthogonal_polygons())
def test_validation_matches_reference_on_orthogonal_polygons(verts):
    _same_verdict(verts)


@settings(max_examples=200)
@given(long_rooms())
def test_validation_matches_reference_on_long_rooms(verts):
    _same_verdict(verts)


def test_long_room_gaps_below_integer_box_resolution():
    # floor 0 and a ceiling spike whose tip is 2^-70 above it: the integer
    # boxes meet, the segments do not; at gap 0 the tip touches the floor
    def room(tip):
        return [pt(0, 0), pt(10 ** 8, 0), pt(10 ** 8, 3000), pt(6, 3000),
                Point(Fraction(5), tip), pt(4, 3000), pt(0, 3000)]

    assert _same_verdict(room(Fraction(1, 2 ** 70)))
    assert not _same_verdict(room(Fraction(0)))
    assert not _same_verdict(room(Fraction(-1, 2 ** 70)))


@lru_cache(maxsize=None)
def _gallery_polygon(name):
    if name == "mobius":
        k = mobius_complex()
        return compile_gallery(simplify_cnf(dnf_to_cnf(complex_to_dnf(k)))).polygon
    genus, orientable = {"orientable 2": (2, True),
                         "non-orientable 8": (8, False)}[name]
    return compile_surface(genus, orientable).polygon


@pytest.mark.parametrize("name", ["mobius", "orientable 2", "non-orientable 8"])
def test_validation_matches_reference_on_galleries(name):
    assert _same_verdict(list(_gallery_polygon(name).vertices))


@settings(max_examples=60)
@given(st.data())
def test_validation_matches_reference_on_damaged_mobius(data):
    # one vertex of the Moebius gallery moved onto another edge or vertex
    verts = list(_gallery_polygon("mobius").vertices)
    n = len(verts)
    k = data.draw(st.integers(0, n - 1))
    e = data.draw(st.integers(0, n - 1))
    t = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))
    a, b = verts[e], verts[(e + 1) % n]
    verts[k] = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    _same_verdict(verts)


def test_construction_makes_no_fraction_comparison(monkeypatch):
    polys = [_gallery_polygon("mobius"), _gallery_polygon("orientable 2")]
    counts = dict.fromkeys(("__lt__", "__le__", "__gt__", "__ge__"), 0)
    for name in counts:
        def counted(a, b, _name=name, _orig=getattr(Fraction, name)):
            counts[_name] += 1
            return _orig(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    for poly in polys:
        SimplePolygon(poly.vertices)
    assert counts == dict.fromkeys(counts, 0)
    assert Fraction(1, 2) < Fraction(2, 3)
    assert counts["__lt__"] == 1  # the counters are live


# --- the key filters: integer keys first, exact where they cannot decide ---

def _keys(h):
    """The keys floor(coordinate * 2^_BOX_BITS) of a homogeneous point."""
    return ((h[0] << _BOX_BITS) // h[2], (h[1] << _BOX_BITS) // h[2])


def _keyed_orient(a, b, c):
    """orient_h(a, b, c) as the key filter gives it: on the keys, else exactly."""
    return _keys_orient(*_keys(a), *_keys(b), *_keys(c)) or orient_h(a, b, c)


# denominators of up to about 2,000 bits, as at genus 32
LONG_DEN = st.one_of(st.integers(1, 10 ** 6), st.builds(lambda k: 3 ** k, st.integers(0, 1300)))
TINY = st.builds(lambda k, e: Fraction(k, 2 ** e), st.integers(-3, 3), st.integers(62, 90))


@st.composite
def long_fractions(draw):
    den = draw(LONG_DEN)
    return Fraction(draw(st.integers(-4 * den, 4 * den)), den)


@st.composite
def near_degenerate_triples(draw):
    """Homogeneous triples (a, b, c) on which the keys may not decide:
    points at most a few 2^-64 apart, exactly collinear points with long
    denominators, such points moved off their line by as little, and
    points with equal keys."""
    kind = draw(st.sampled_from(("close", "collinear", "nudged", "same-keys")))
    a = Point(draw(long_fractions()), draw(long_fractions()))
    if kind == "close":
        b = Point(a.x + draw(TINY), a.y + draw(TINY))
        c = Point(a.x + draw(TINY), a.y + draw(TINY))
    elif kind in ("collinear", "nudged"):
        b = Point(draw(long_fractions()), draw(long_fractions()))
        t = draw(st.one_of(long_fractions(), TINY))
        c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        if kind == "nudged":
            c = Point(c.x + draw(TINY), c.y + draw(TINY))
    else:
        # three points in one 2^-64 cell
        cell = [Fraction(draw(st.integers(-2 ** 70, 2 ** 70)), 2 ** _BOX_BITS)
                for _ in range(2)]
        a, b, c = (Point(cell[0] + Fraction(draw(st.integers(0, 2 ** 20 - 1)), 2 ** 84),
                         cell[1] + Fraction(draw(st.integers(0, 2 ** 20 - 1)), 2 ** 84))
                   for _ in range(3))
    return kind, hpoint(a), hpoint(b), hpoint(c)


@settings(max_examples=400)
@given(near_degenerate_triples())
@example(("same-keys", (0, 0, 1), (1, 2 ** 65, 2 ** 130), (2, 1, 2 ** 130)))
def test_keyed_orientation_matches_orient_h(case):
    kind, a, b, c = case
    exact = orient_h(a, b, c)
    keyed = _keys_orient(*_keys(a), *_keys(b), *_keys(c))
    # a sign from the keys is the exact sign; a collinear triple never
    # gets one, so its zero always comes from orient_h
    assert keyed in (0, exact)
    if exact == 0 or kind == "same-keys":
        assert keyed == 0
    assert _keyed_orient(a, b, c) == exact


def test_keyed_orientation_decides_and_falls_back():
    # both paths of the filter run on the kinds of input above
    rng = random.Random(16)
    decided = fallback = 0
    for _ in range(300):
        den = 3 ** rng.randint(600, 1300)
        a = Point(Fraction(rng.randint(-den, den), den), Fraction(rng.randint(-den, den), den))
        b = Point(Fraction(rng.randint(-den, den), den), Fraction(rng.randint(-den, den), den))
        t = Fraction(rng.randint(-den, den), den)
        c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        if rng.random() < 0.5:
            c = Point(c.x + Fraction(rng.randint(-3, 3), 2 ** rng.randint(40, 80)), c.y)
        ha, hb, hc = hpoint(a), hpoint(b), hpoint(c)
        keyed = _keys_orient(*_keys(ha), *_keys(hb), *_keys(hc))
        decided += keyed != 0
        fallback += keyed == 0
        assert _keyed_orient(ha, hb, hc) == orient_h(ha, hb, hc)
    assert decided > 50 and fallback > 50


@given(long_fractions(), long_fractions())
def test_rational_key_orders_like_the_values(u, v):
    ku, kv = rational_key(u), rational_key(v)
    assert ku == (u.numerator << _BOX_BITS) // u.denominator
    if ku < kv:
        assert u < v
    if u <= v:
        assert ku <= kv


@st.composite
def tiny_polygons(draw):
    """A star-shaped or orthogonal polygon from the strategies above,
    shrunk by 2^-66 to 2^-90 around a point with long coordinates, so that
    its vertices are closer than 2^-64 and most of their keys are equal."""
    verts = draw(st.one_of(star_polygons(), orthogonal_polygons()))
    s = Fraction(1, 2 ** draw(st.integers(66, 90)))
    ox, oy = draw(long_fractions()), draw(long_fractions())
    return [Point(ox + s * v.x, oy + s * v.y) for v in verts]


@settings(max_examples=200)
@given(tiny_polygons())
def test_validation_matches_reference_on_tiny_polygons(verts):
    _same_verdict(verts)


def _count_orient_h(monkeypatch):
    """Count the calls of geom.orient_h from here on."""
    calls = [0]

    def counted(a, b, c, _orig=geom.orient_h):
        calls[0] += 1
        return _orig(a, b, c)
    monkeypatch.setattr(geom, "orient_h", counted)
    return calls


def test_validation_of_tiny_polygons_falls_back_to_orient_h(monkeypatch):
    # a square with a notch, 2^-70 across: the keys cannot decide, and
    # validation still tells the simple polygon from the touching one
    s = Fraction(1, 2 ** 70)
    simple = [pt(0, 0), pt(4, 0), pt(4, 4), pt(3, 4), pt(2, 1), pt(1, 4), pt(0, 4)]
    touching = simple[:4] + [pt(2, 0)] + simple[5:]
    calls = _count_orient_h(monkeypatch)
    assert [_same_verdict([Point(Fraction(1, 3) + s * v.x, s * v.y) for v in verts])
            for verts in (simple, touching)] == [True, False]
    assert calls[0] > 0


def _locate_h_reference(poly, hp):
    """`_locate_h` without its key filter or its bucket index: every edge,
    exactly."""
    X, Y, W = hp
    hv = poly._h
    inside = False
    for a, b in zip(hv, hv[1:] + hv[:1]):
        sa, sb = a[1] * W - Y * a[2], b[1] * W - Y * b[2]
        if (sa > 0 and sb > 0) or (sa < 0 and sb < 0):
            continue
        o = geom.orient_h(a, b, hp)
        if o == 0 and _on_segment_collinear(a, b, hp):
            return "on"
        if (sa > 0) != (sb > 0) and (o > 0 if sb > 0 else o < 0):
            inside = not inside
    return "in" if inside else "out"


def _near_edge_queries(poly, eps):
    """The vertices, and points at 0, 1/3 and 1/2 along each edge, each
    also moved by eps in x, in y, and in both."""
    out = []
    for a, b in poly.edges():
        for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            p = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            out += [p] + [Point(p.x + dx, p.y + dy) for dx, dy in
                          ((eps, 0), (-eps, 0), (0, eps), (0, -eps), (eps, eps), (-eps, -eps))]
    return out


def _same_locate_h(poly, eps):
    for q in _near_edge_queries(poly, eps):
        h = hpoint(q)
        assert poly._locate_h(h) == _locate_h_reference(poly, h), q


@settings(max_examples=100)
@given(st.one_of(tiny_polygons(), star_polygons(), orthogonal_polygons(), long_rooms()),
       st.sampled_from([Fraction(1, 2 ** 60), Fraction(1, 2 ** 66), Fraction(1, 2 ** 95)]))
def test_locate_h_matches_filter_free_reference_near_edges(verts, eps):
    try:
        poly = SimplePolygon(verts)
    except GeometryError:
        assume(False)
    _same_locate_h(poly, eps)


def test_locate_h_near_edges_falls_back_to_orient_h(monkeypatch):
    # on the Moebius gallery, 2^-70 off its edges: the keys skip some
    # edges, and the exact test decides the rest
    poly = _gallery_polygon("mobius")
    queries = [hpoint(q) for q in _near_edge_queries(poly, Fraction(1, 2 ** 70))]
    calls = _count_orient_h(monkeypatch)
    got = [poly._locate_h(h) for h in queries]
    filtered, calls[0] = calls[0], 0
    assert got == [_locate_h_reference(poly, h) for h in queries]
    assert 0 < filtered <= calls[0]


def test_validation_of_the_largest_room_stays_on_the_keys(monkeypatch):
    # the non-orientable genus-32 room (9,804 vertices): without the key
    # filter its validation makes 25,852 exact orientation tests
    verts = compile_surface(32, False).polygon.vertices
    assert len(verts) == 9804
    calls = _count_orient_h(monkeypatch)
    SimplePolygon(verts)
    assert 0 < calls[0] <= 3000


# --- linear validation of star-shaped polygons ---------------------------

TAMPERS = ("repeat", "zero-radial", "two-radial", "double", "through-p",
           "p-on-boundary")


@st.composite
def star_cases(draw):
    """(kind, p, vertices) to test `_star_simple` around p on: a random
    vertex list ("random"); a polygon star-shaped around p ("star"), its
    vertices on distinct integer directions in ccw order, some of them
    doubled into a radial edge; or such a polygon tampered in one of the
    ways of TAMPERS."""
    p = Point(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))),
              Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
    kind = draw(st.sampled_from(("random", "star") + TAMPERS))
    if kind == "random":
        return kind, p, draw(st.lists(grid_points, min_size=3, max_size=9))
    dirs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                         .filter(lambda d: d != (0, 0)), min_size=3, max_size=9))
    dirs = sorted({_reduce_dir(*d) for d in dirs}, key=cmp_to_key(_dir_cmp))
    assume(len(dirs) >= 3)
    radius = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)

    ring = []   # (direction, radius) of each vertex
    for d in dirs:
        ring.append((d, draw(radius)))
        if draw(st.integers(0, 3)) == 0:   # a radial edge, outwards or in
            ring.append((d, draw(radius.filter(lambda r, r0=ring[-1][1]: r != r0))))
    n = len(ring)
    i = draw(st.integers(0, n - 1))
    d = ring[i][0]
    if kind == "repeat":
        ring.insert((i + draw(st.integers(2, max(2, n - 2)))) % n, ring[i])
    elif kind == "zero-radial":
        ring.insert(i, ring[i])
    elif kind == "two-radial":
        ring[i + 1:i + 1] = [(d, draw(radius)), (d, draw(radius))]
    elif kind == "double":
        ring += [(e, draw(radius)) for e, _ in ring]
    elif kind == "through-p":
        ring[(i + 1) % n] = ((-d[0], -d[1]), ring[i][1])
    elif kind == "p-on-boundary":
        ring.insert(i, (d, 0))
    verts = [Point(p.x + r * e[0], p.y + r * e[1]) for e, r in ring]
    return kind, p, verts


def _gaps_below_pi(p, verts):
    """Every pair of consecutive distinct vertex directions from p turns
    ccw by less than pi."""
    dirs = [hpoint(Point(v.x - p.x, v.y - p.y)) for v in verts]
    return all(orient_h((0, 0, 1), a, b) > 0
               for a, b in zip(dirs, dirs[1:] + dirs[:1])
               if orient_h((0, 0, 1), a, b) or a[0] * b[0] + a[1] * b[1] <= 0)


@settings(max_examples=600)
@given(star_cases())
def test_star_simple_accepts_only_simple_polygons(case):
    # the linear test is sound: what it accepts, full validation and its
    # Fraction reference accept; it accepts every untampered star-shaped
    # polygon whose directions turn by less than pi, and refuses each
    # tampering, since each breaks one of its conditions
    kind, p, verts = case
    hv = [hpoint(v) for v in verts]
    if len(hv) >= 3 and _star_simple(hpoint(p), hv):
        assert _validate_reference(verts)
        SimplePolygon(verts)
    if kind == "star" and _gaps_below_pi(p, verts):
        assert _star_simple(hpoint(p), hv)
        assert SimplePolygon._of_h(hv, hpoint(p)) == SimplePolygon(verts)
    if kind in TAMPERS:
        assert not _star_simple(hpoint(p), hv)


def test_star_simple_refusal_keeps_the_full_message():
    # a bow tie around its crossing point: the linear test refuses it, and
    # full validation names the fault as it does without a kernel
    verts = [pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)]
    hv = [hpoint(v) for v in verts]
    assert not _star_simple(hpoint(pt(1, 1)), hv)
    with pytest.raises(GeometryError) as want:
        SimplePolygon(verts)
    with pytest.raises(GeometryError) as got:
        SimplePolygon._of_h(hv, hpoint(pt(1, 1)))
    assert str(got.value) == str(want.value)


# --- exact orders against independent oracles ---------------------------

NEAR_BASES = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
              (0, -1), (1, -1), (1, -2)]


@st.composite
def direction_sets(draw):
    """Distinct reduced integer directions: small ones, and ones of 1,500
    bits or more that differ from a few base directions by a small
    offset, so their angles differ by far less than 2^-64."""
    small = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5))
                          .filter(lambda d: d != (0, 0)), max_size=12))
    big = 2 ** draw(st.integers(1500, 1600)) + draw(st.integers(0, 99))
    near = [(bx * big + draw(st.integers(-3, 3)), by * big + draw(st.integers(-3, 3)))
            for bx, by in draw(st.lists(st.sampled_from(NEAR_BASES), max_size=8))]
    return list({_reduce_dir(*d) for d in small + near})


def _diamond_angle(d):
    """The exact oracle for the sweep's direction order: the half, then
    the diamond angle as a Fraction, which grows ccw within each half:
    -dx / (|dx| + |dy|) on the upper half, dx / (|dx| + |dy|) on the
    lower."""
    dx, dy = d
    half, s = _dir_half(d), Fraction(dx, abs(dx) + abs(dy))
    return (half, -s if half == 0 else s)


@settings(max_examples=300)
@given(direction_sets())
@example([(2 ** 1500 + 1, 2 ** 1500), (2 ** 1500 + 2, 2 ** 1500 + 1),
          (2 ** 1500, 2 ** 1500 + 1), (1, 0), (-1, 0)])
def test_dir_key_sort_matches_comparator(dirs):
    # the sweep sorts its directions by cmp_to_key(_dir_cmp)
    want = sorted(dirs, key=_diamond_angle)
    assert sorted(dirs, key=cmp_to_key(_dir_cmp)) == want


def test_dir_keys_tie_on_long_directions():
    # two 1,500-bit directions whose angles differ by far less than
    # 2^-64, so any fixed-width key ties on them: the sweep's sort key
    # still tells them apart, in the oracle's order
    a, b = (2 ** 1500 + 1, 2 ** 1500), (2 ** 1500 + 2, 2 ** 1500 + 1)
    assert _diamond_angle(a) != _diamond_angle(b)
    assert _dir_cmp(a, b) == (-1 if _diamond_angle(a) < _diamond_angle(b) else 1)
    assert sorted([b, a], key=cmp_to_key(_dir_cmp)) == \
        sorted([a, b], key=_diamond_angle)


def _order_along_reference(ha, hb, pts):
    """pts by their exact parameter along a -> b: the projection of
    p - a onto b - a, over |b - a|^2."""
    a, b = hpoint_to_point(ha), hpoint_to_point(hb)
    dx, dy = b.x - a.x, b.y - a.y

    def t(h):
        p = hpoint_to_point(h)
        return ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)

    return sorted(pts, key=t)


@st.composite
def points_along(draw):
    """(a, b, points): the ends of a segment and points on it, a and b
    among them, as triples; coordinates of up to 1,500 bits and points
    closer than 2^-64 along the segment, some as unreduced triples."""
    scale = 2 ** draw(st.sampled_from([0, 70, 1500]))
    a, b = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                         min_size=2, max_size=2, unique=True))
    ha = (a[0] * scale, a[1] * scale, 1)
    hb = (b[0] * scale, b[1] * scale, 1)
    pts = {ha, hb}
    step = 2 ** draw(st.sampled_from([1, 80, 1600]))
    for t in draw(st.lists(st.integers(1, step - 1) if step > 2 else st.just(1),
                           max_size=10)):
        f = draw(st.integers(1, 3))
        pts.add(((ha[0] * (step - t) + hb[0] * t) * f,
                 (ha[1] * (step - t) + hb[1] * t) * f, step * f))
    return ha, hb, list(pts)


@settings(max_examples=300)
@given(points_along())
def test_order_along_matches_comparator(case):
    ha, hb, pts = case
    got = _order_along(ha, hb, pts)
    assert got[0] == ha and got[-1] == hb
    # unreduced copies of one point may come in either order
    assert [hpoint_to_point(h) for h in got] == \
        [hpoint_to_point(h) for h in _order_along_reference(ha, hb, pts)]


def test_order_along_splits_key_ties_exactly():
    # points 1/2 + k / 2^1500 on the unit segment share one key
    ha, hb = (0, 0, 1), (1, 0, 1)
    near = [(2 ** 1499 + k, 0, 2 ** 1500) for k in (3, 1, 2, 5)]
    assert len({(h[0] << _BOX_BITS) // h[2] for h in near}) == 1
    assert _order_along(ha, hb, near + [hb, ha]) == \
        [ha] + sorted(near) + [hb]
    assert _order_along(hb, ha, near + [ha, hb]) == \
        [hb] + sorted(near, reverse=True) + [ha]


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

