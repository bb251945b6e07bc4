"""The room pass `_room_plan`, which reads a polygon built from points as a
room and, when it does, proves it simple and ccw in place of `_validate`:
against `_validate` itself on every fixture gallery, on random room-shaped
vertex lists (valid or not) and on named negatives; and the fast path of
`locate` for points of a known room's open rectangle, against the bucket
walk it skips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topogallery import geom
from topogallery.complexes import (
    circle_complex,
    complex_to_dnf,
    mobius_complex,
    projective_plane_complex,
    sphere_complex,
    torus_complex,
)
from topogallery.compiler import compile_gallery, compile_surface, embed
from topogallery.formulas import cnf_of_dnf_pruned, dnf_to_cnf, simplify_cnf
from topogallery.geom import (
    GeometryError,
    Point,
    SimplePolygon,
    hpoint,
    hpoint_to_point,
    midpoint,
    pt,
)

from helpers import _without_room

COMPLEXES = {"circle": circle_complex, "sphere": sphere_complex,
             "mobius": mobius_complex, "torus": torus_complex,
             "rp2": projective_plane_complex}
SURFACES = [(n, o) for o in (True, False) for n in range(2, 9)]
_GALLERIES: dict = {}


def _gallery(name):
    """The fixture gallery of that name ("circle", ..., "o2", "n8"),
    compiled once."""
    if name not in _GALLERIES:
        if name in COMPLEXES:
            _GALLERIES[name] = compile_gallery(cnf_of_dnf_pruned(
                complex_to_dnf(COMPLEXES[name]())))
        else:
            _GALLERIES[name] = compile_surface(int(name[1:]), name[0] == "o")
    return _GALLERIES[name]


GALLERY_NAMES = list(COMPLEXES) + [f"{'o' if o else 'n'}{n}" for n, o in SURFACES]


def _keys(hv):
    return ([(x << geom._BOX_BITS) // w for x, _, w in hv],
            [(y << geom._BOX_BITS) // w for _, y, w in hv])


def _room_plan(verts):
    hv = [hpoint(v) for v in verts]
    return geom._room_plan(hv, *_keys(hv))


def _validate(verts):
    """`SimplePolygon._validate` run on verts directly, with no room
    pass before it."""
    poly = SimplePolygon.__new__(SimplePolygon)
    poly._h = [hpoint(v) for v in verts]
    poly._fx, poly._fy = _keys(poly._h)
    poly._validate()


def _same_verdict(verts):
    """The room pass accepts verts only if `_validate` does, and
    `SimplePolygon(verts)` gives `_validate`'s verdict: the polygon, with
    the pass's room or False, or `_validate`'s exact message.  Returns
    "room", "simple" (not a room) or "invalid"."""
    room = _room_plan(verts)
    try:
        _validate(verts)
    except GeometryError as err:
        assert room is None, verts
        with pytest.raises(GeometryError) as got:
            SimplePolygon(verts)
        assert str(got.value) == str(err)
        return "invalid"
    poly = SimplePolygon(verts)
    if room is None:
        assert poly._room is False
        return "simple"
    assert isinstance(poly._room, geom._Room)
    return "room"


# --- fixture galleries ----------------------------------------------------

@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_room_pass_reads_every_fixture_gallery(name):
    g = _gallery(name)
    verts = g.polygon.vertices
    assert isinstance(g.polygon._room, geom._Room)
    assert _same_verdict(verts) == "room"
    room = g.polygon._room
    assert room.walls and all(pockets for _, pockets in room.walls)


def test_compiling_runs_no_full_validation_and_no_buckets(monkeypatch):
    # every guard endpoint `_audit` locates lies in the room's open
    # rectangle, and the room pass stands in for `_validate`
    calls = []
    for name in ("_validate", "_bucket_edges"):
        orig = getattr(SimplePolygon, name)
        monkeypatch.setattr(SimplePolygon, name,
                            lambda self, *a, _n=name, _o=orig:
                            calls.append(_n) or _o(self, *a))
    compile_gallery(simplify_cnf(dnf_to_cnf(complex_to_dnf(mobius_complex()))))
    compile_surface(2, True)
    assert calls == []


def test_room_is_read_at_construction_and_views_on_request():
    # a polygon built from points carries its room, or False; a view built
    # around a kernel is read only when `_room_of` asks, never by locate
    g = _gallery("circle")
    assert isinstance(g.polygon._room, geom._Room)
    assert SimplePolygon([pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2),
                          pt(0, 2)])._room is False
    guard = embed(g, [Fraction(1, 2)] * g.formula.n).guards[0]
    vp = geom.visibility_polygon(g.polygon, guard)
    assert vp._room is None
    assert vp.locate(guard) == "in" and vp._room is None
    geom._room_of(vp)
    assert vp._room is not None


# --- random room-shaped vertex lists --------------------------------------

@st.composite
def rough_rooms(draw):
    """The vertex list of a room [0, w] x [0, 10] with runs of vertices
    beyond both walls.  A tidy run is a triangle or a trapezoid, maybe with
    a straight-through vertex, within two units of its mouth's heights; a
    rough run is up to three points anywhere beyond its wall, at heights
    from -1 to 11.  Wall vertices may repeat a height or step back.  Many
    of these polygons are rooms, many are simple but not rooms, and many
    are not simple."""
    w, h = draw(st.integers(2, 5)), 10
    rough = draw(st.booleans())

    def wall(x):
        """A right wall at x, from (x, 0) up to (x, 10)."""
        ys = [0] + sorted(draw(st.lists(st.integers(1, h - 1), max_size=5))) + [h]
        if len(ys) > 3 and draw(st.integers(0, 4)) == 0:
            k = draw(st.integers(1, len(ys) - 3))
            ys[k], ys[k + 1] = ys[k + 1], ys[k]
        verts = [pt(x, 0)]
        for y0, y1 in zip(ys, ys[1:]):
            run = draw(st.sampled_from(["none", "rough" if rough else "tidy"]))
            if run == "rough":
                verts += [pt(x + Fraction(draw(st.integers(1, 8)), 2),
                             draw(st.integers(-1, h + 1)))
                          for _ in range(draw(st.integers(1, 3)))]
            elif run == "tidy":
                lo, hi = min(y0, y1), max(y0, y1)
                d = draw(st.integers(1, 3))
                a, b = sorted(draw(st.integers(max(1, lo - 2), min(h - 1, hi + 2)))
                              for _ in range(2))
                chain = [pt(x + d, a)]
                if a < b and draw(st.booleans()):
                    chain.append(pt(x + d, b))
                if draw(st.booleans()):
                    chain.insert(0, midpoint(pt(x, y0), chain[0]))
                verts += chain
            verts.append(pt(x, y1))
        return verts

    # the left wall is a right wall at 0 turned by pi about (0, 5)
    return wall(w) + [Point(-v.x, h - v.y) for v in wall(0)]


@settings(max_examples=1500)
@given(rough_rooms())
def test_room_pass_accepts_only_what_validation_accepts(verts):
    _same_verdict(verts)


def test_random_rooms_reach_every_verdict():
    # the generator above makes rooms, simple non-rooms and invalid
    # polygons, so the differential test sees all three
    seen = set()

    @settings(max_examples=300)
    @given(rough_rooms())
    def tally(verts):
        seen.add(_same_verdict(verts))

    tally()
    assert seen == {"room", "simple", "invalid"}


# --- named negatives --------------------------------------------------------

NEGATIVES = {  # each with its verdict from `_validate`
    # triangles through mouths [1, 3] and [5, 6] that cross beyond the wall
    "crossing-pockets": ("invalid", (0, 0), (4, 0), (4, 1), (8, 7), (4, 3),
                         (4, 5), (9, 4), (4, 6), (4, 10), (0, 10)),
    # the wall runs up to (4, 5), then back down to (4, 4)
    "wall-steps-back": ("invalid", (0, 0), (4, 0), (4, 3), (5, 4), (4, 5),
                        (4, 4), (4, 8), (0, 8)),
    # the pocket turns right at (5, 2)
    "reflex-pocket": ("simple", (0, 0), (4, 0), (4, 1), (6, 1), (5, 2), (6, 3),
                      (4, 3), (4, 4), (0, 4)),
    # two pockets share the mouth corner (4, 3)
    "shared-mouth-corner": ("simple", (0, 0), (4, 0), (4, 1), (5, 2), (4, 3),
                            (5, 4), (4, 5), (4, 6), (0, 6)),
    # the pocket's apex (6, 0) lies below the floor y = 1
    "pocket-below-floor": ("simple", (0, 1), (4, 1), (4, 2), (6, 0), (4, 3),
                           (4, 5), (0, 5)),
    # a pocket that turns left at every vertex but winds twice
    "spiral-pocket": ("invalid", (-6, -2), (0, -2), (0, 0), (10, 0), (10, 10),
                      (2, 10), (2, 2), (8, 2), (8, 8), (0, 8), (0, 12), (-6, 12)),
    # a rectangle walked clockwise
    "clockwise": ("invalid", (0, 0), (0, 4), (4, 4), (4, 0)),
    # the chain runs up to (6, 5), back down to (6, 3), up again to (6, 4)
    "pocket-folds-back": ("invalid", (0, 0), (4, 0), (4, 1), (6, 1), (6, 5),
                          (6, 3), (6, 4), (4, 6), (4, 8), (0, 8)),
}


@pytest.mark.parametrize("name", NEGATIVES)
def test_room_pass_refuses_named_negatives(name):
    verdict, *corners = NEGATIVES[name]
    verts = [pt(x, y) for x, y in corners]
    assert _room_plan(verts) is None
    assert _same_verdict(verts) == verdict


POSITIVES = {
    # a tall pocket through [1, 2] beside a short one through [5, 6]: only
    # an edge of the tall one, the lower by y key, has the other on its
    # right
    "tall-pocket-below": ((0, 0), (4, 0), (4, 1), (10, 8), (4, 2), (4, 5),
                          (5, Fraction(27, 5)), (4, 6), (4, 10), (0, 10)),
    # a short pocket through [1, 2] under a long one through [3, 4]: only
    # an edge of the long one, the upper by y key, has the other on its
    # right
    "short-pocket-under-a-long-one": (
        (0, 0), (4, 0), (4, 1), (7, Fraction(5, 2)), (4, 2), (4, 3),
        (12, Fraction(12, 5)), (4, 4), (4, 10), (0, 10)),
    # the pocket's lower mouth corner is the corner (4, 0)
    "mouth-at-the-corner": ((0, 0), (4, 0), (6, 2), (4, 3), (4, 5), (0, 5)),
    # straight on at wall vertices (4, 2), (0, 3) and pocket vertex (6, 5)
    "straight-runs": ((0, 0), (4, 0), (4, 2), (4, 4), (6, 5), (8, 6), (8, 7),
                      (4, 8), (4, 10), (0, 10), (0, 7), (-2, 6), (0, 5),
                      (0, 3)),
}


@pytest.mark.parametrize("name", POSITIVES)
def test_room_pass_reads_named_rooms(name):
    assert _same_verdict([pt(x, y) for x, y in POSITIVES[name]]) == "room"


# --- locate from a known room's open rectangle ------------------------------

LOCATE_GALLERIES = ["circle", "sphere", "mobius", "o2"]


@st.composite
def _room_points(draw, poly):
    """A point of the room's open rectangle, on the rectangle's boundary,
    on a pocket's mouth, inside a pocket, or anywhere near the polygon."""
    room = poly._room
    lo, hi = hpoint_to_point(room.lo), hpoint_to_point(room.hi)

    def between(a, b):
        return a + (b - a) * Fraction(draw(st.integers(0, 1024)), 1024)

    mode = draw(st.sampled_from(["open", "boundary", "mouth", "pocket", "near"]))
    if mode == "open":
        return Point(between(lo.x, hi.x), between(lo.y, hi.y))
    if mode == "boundary":
        side = draw(st.integers(0, 3))
        if side < 2:
            return Point(between(lo.x, hi.x), (lo.y, hi.y)[side])
        return Point((lo.x, hi.x)[side - 2], between(lo.y, hi.y))
    _, pockets = room.walls[draw(st.integers(0, 1))]
    m0, m1, pocket = draw(st.sampled_from(pockets))
    if mode == "mouth":
        m0, m1 = hpoint_to_point(m0), hpoint_to_point(m1)
        return Point(m0.x, between(m0.y, m1.y))
    if mode == "pocket":
        weights = [draw(st.integers(1, 9)) for _ in pocket]
        vs = [poly.vertices[v] for v in pocket]
        total = sum(weights)
        return Point(sum(c * v.x for c, v in zip(weights, vs)) / total,
                     sum(c * v.y for c, v in zip(weights, vs)) / total)
    x0, y0, x1, y1 = poly.bbox
    return Point(between(x0 - 1, x1 + 1), between(y0 - 1, y1 + 1))


@pytest.mark.parametrize("name", LOCATE_GALLERIES)
def test_locate_fast_path_matches_bucket_walk(name):
    g = _gallery(name)
    poly = g.polygon
    ref = _without_room(poly)
    verts = poly.vertices
    n = len(verts)
    qs = (list(verts) + [midpoint(verts[i], verts[(i + 1) % n]) for i in range(n)]
          + [cg.witness_point for cg in g.clause_gadgets]
          + [p for rec in g.segments for p in (rec.segment.a, rec.segment.b)])
    got = [poly.locate(q) for q in qs]
    assert got == [ref.locate(q) for q in qs]
    assert {"in", "on", "out"} >= set(got) >= {"in", "on"}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_room_points(poly), min_size=1, max_size=8))
    def drawn(pts):
        assert [poly.locate(p) for p in pts] == [ref.locate(p) for p in pts]

    drawn()
