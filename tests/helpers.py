"""Fixtures shared by several test modules: the Moebius strip's formula,
small polygons, and a copy of a polygon that is not read as a room."""

from topogallery.formulas import cnf
from topogallery.geom import SimplePolygon, pt


def mobius_eq1():
    """The Moebius strip's formula in CNF, over four variables."""
    return cnf(4, [
        [(0, 0), (1, 0), (2, 1)],
        [(1, 0), (2, 1), (3, 0)],
        [(0, 0), (1, 0), (3, 1)],
        [(2, 0), (2, 1), (3, 0), (3, 1)],
        [(0, 0), (2, 0), (3, 0), (3, 1)],
    ])


def square(side=4):
    return SimplePolygon([pt(0, 0), pt(side, 0), pt(side, side), pt(0, side)])


def l_shape():
    # L-shaped hexagon with reflex corner at (1,1)
    return SimplePolygon(
        [pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def comb_polygon():
    # three prongs of width 1 on a base of height 1; needs three guards
    return SimplePolygon([
        pt(0, 0), pt(5, 0), pt(5, 2), pt(4, 2), pt(4, 1), pt(3, 1),
        pt(3, 2), pt(2, 2), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])


def _without_room(poly):
    """poly as a polygon that is not read as a room: its views take the
    sweep, `visible` takes the segment cutter, and every point is located
    by the bucket walk."""
    ref = SimplePolygon._of_h(poly._h)
    ref._room = False
    return ref
