"""Gadget geometry: variable, copying, and clause gadgets, plus the wedge
family of band-encoding guard segments.

All gadgets are convex niches carved outward through a straight wall of an
axis-aligned room.  Constructors compute every auxiliary point exactly and
re-check the defining collinearity and ordering relations before returning;
a violated relation is a constructor error, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geom import (
    Point,
    Segment,
    SimplePolygon,
    hpoint,
    invert_through,
    orient,
    orient_h,
    rat,
    rational_key,
    x_at,
    y_at,
)


class GadgetError(ValueError):
    pass


@dataclass(frozen=True)
class Niche:
    """Convex niche carved outward through a wall.

    points are in polygon boundary-walk order: first and last lie on the
    wall plane (the mouth corners), the rest are beyond it.  Left-wall
    niches are walked top to bottom, right-wall niches bottom to top.
    """
    wall: str
    points: tuple[Point, ...]
    label: str = ""

    def mouth_interval(self) -> tuple[Fraction, Fraction]:
        a = self.points[0].y
        b = self.points[-1].y
        return (min(a, b), max(a, b))


def assemble_room(x_left, x_right, y_bottom, y_top, niches) -> SimplePolygon:
    """Axis-aligned room with niches spliced into its side walls.

    The wall checks and the mouth order compare coordinates as (integer
    key, value) pairs (`rational_key`), so the exact values are compared
    only where two keys are equal."""
    x_left, x_right = rat(x_left), rat(x_right)
    y_bottom, y_top = rat(y_bottom), rat(y_top)
    left = [n for n in niches if n.wall == "left"]
    right = [n for n in niches if n.wall == "right"]
    if len(left) + len(right) != len(niches):
        raise GadgetError("only left/right wall niches are supported")

    def keyed(v: Fraction) -> tuple[int, Fraction]:
        return (rational_key(v), v)

    bottom, top = keyed(y_bottom), keyed(y_top)

    def check_wall(group, wall_x, inward_sign):
        """The niches of one wall, checked, in order of their mouths."""
        wall = keyed(wall_x)
        ivs = []
        for n in group:
            lo, hi = keyed(n.points[0].y), keyed(n.points[-1].y)
            if hi < lo:
                lo, hi = hi, lo
            if not (bottom < lo and hi < top):
                raise GadgetError(f"niche {n.label!r} mouth outside wall span")
            if n.points[0].x != wall_x or n.points[-1].x != wall_x:
                raise GadgetError(f"niche {n.label!r} mouth not on wall plane")
            for q in n.points[1:-1]:
                qx = keyed(q.x)
                if not (qx < wall if inward_sign > 0 else wall < qx):
                    raise GadgetError(f"niche {n.label!r} does not point outward")
            ivs.append((lo, hi, n.label, n))
        ivs.sort(key=lambda iv: iv[:3])
        for (_, h1, a, _), (l2, _, b, _) in zip(ivs, ivs[1:]):
            if l2 <= h1:
                raise GadgetError(f"niche mouths {a!r} and {b!r} overlap")
        return [iv[3] for iv in ivs]

    # the checked mouths are disjoint, so in order of their low ends they
    # are also in order of their high ends
    left = check_wall(left, x_left, +1)[::-1]
    right = check_wall(right, x_right, -1)

    verts: list[Point] = [Point(x_left, y_bottom), Point(x_right, y_bottom)]
    for n in right:
        verts.extend(n.points)
    verts.append(Point(x_right, y_top))
    verts.append(Point(x_left, y_top))
    for n in left:
        verts.extend(n.points)
    return SimplePolygon(verts)


# --- variable gadget --------------------------------------------------------


@dataclass(frozen=True)
class VariableGadget:
    """Three slits forcing one guard onto guard_segment.

    F and I are slit apexes on the guard line flanking the room; any guard
    seeing both must lie on segment FI (the forced triangles FIK below the
    line and EFI above it meet exactly in FI).  The J slit's visibility
    wedge meets line FI exactly in guard_segment.
    """
    guard_segment: Segment
    F: Point
    I: Point
    J: Point
    E: Point
    K: Point
    notch_F: Niche
    notch_I: Niche
    notch_J: Niche
    forced_zone: tuple[Point, Point, Point]  # closed triangle F I K
    sliver_above: tuple[Point, Point, Point]  # closed triangle E F I

    def niches(self) -> list[Niche]:
        return [self.notch_F, self.notch_I, self.notch_J]

    def j_wedge_contains(self, p: Point) -> bool:
        """p inside the closed visibility cone of J (rays J->G and J->H)."""
        g, h = self.guard_segment.a, self.guard_segment.b
        return orient(self.J, g, p) >= 0 and orient(self.J, h, p) <= 0


def make_variable_gadget(guard_segment: Segment, scale=Fraction(1, 2),
                         left_wall_x=None, right_wall_x=None,
                         sliver_drop=None, forcing_rise=None,
                         label: str = "") -> VariableGadget:
    """Variable gadget for a horizontal guard segment.

    scale bounds the slit depth beyond the walls.  sliver_drop is the
    half-height of the forced slivers at the far wall; forcing_rise the
    height of the J apex above the guard line.  Walls default to a small
    standalone harness around the segment.  The gadget is the row of a
    one-off `VariableFrame` (`variable_frame`), so it is built exactly as
    a compiled gallery builds each row of a column.
    """
    g, h = guard_segment.a, guard_segment.b
    if g.y != h.y:
        raise GadgetError("guard segment must be horizontal")
    if g.x > h.x:
        g, h = h, g
    frame = variable_frame(g.x, h.x, scale, left_wall_x, right_wall_x)
    drop = rat(sliver_drop) if sliver_drop is not None else frame.depth
    rise = rat(forcing_rise) if forcing_rise is not None else frame.depth / 2
    return frame.gadget(Segment(g, h), drop, rise, label)


@dataclass(frozen=True)
class VariableFrame:
    """What every variable gadget of one column shares.

    The column runs from gx to hx; lw < gx and hx < rw are the walls and
    depth the slit depth beyond them.  A row at height y0, with sliver
    half-height drop and forcing rise rise, puts F and I at (fx, y0) and
    (ix, y0), fx = lw - depth and ix = rw + depth, and gives the F and I
    mouths the half-height drop * mouth, mouth = depth / (rw - lw + depth),
    so that the slivers reach exactly +-drop at the opposite wall.  J is
    (fx, y0 + rise).  The ray from J through G = (gx, y0) runs right by
    gx - lw + depth and falls by rise; it meets the left wall after depth
    of that run, at y0 + rise * c_g with c_g = (gx - lw) / (gx - lw +
    depth), and the ray through H = (hx, y0) at y0 + rise * c_h.  As
    t / (t + depth) grows with t > 0, lw < gx < hx gives 0 < c_g < c_h, so
    the J mouth corners are in order on every row with rise > 0.
    `_check_variable_gadget` tests each row's J corners for collinearity
    with J and G or H, so a slip in these factors cannot pass.
    """
    lw: Fraction
    rw: Fraction
    depth: Fraction
    fx: Fraction
    ix: Fraction
    mouth: Fraction
    c_g: Fraction
    c_h: Fraction

    def gadget(self, guard_segment: Segment, drop: Fraction, rise: Fraction,
               label: str = "") -> VariableGadget:
        """The gadget of the row guard_segment, running left to right
        from (gx, y0) to (hx, y0)."""
        if drop <= 0 or rise <= 0:
            raise GadgetError("sliver_drop and forcing_rise must be positive")
        y0 = guard_segment.a.y
        lw, rw = self.lw, self.rw
        f = Point(self.fx, y0)
        i = Point(self.ix, y0)
        m = drop * self.mouth
        tag = (label + ".") if label else ""
        notch_f = Niche("left", (Point(lw, y0), f, Point(lw, y0 - m)),
                        tag + "F")
        notch_i = Niche("right", (Point(rw, y0), i, Point(rw, y0 + m)),
                        tag + "I")
        j = Point(self.fx, y0 + rise)
        notch_j = Niche("left", (Point(lw, y0 + rise * self.c_h), j,
                                 Point(lw, y0 + rise * self.c_g)), tag + "J")
        k = Point(rw, y0 - drop)
        e = Point(lw, y0 + drop)
        gadget = VariableGadget(
            guard_segment=guard_segment,
            F=f, I=i, J=j, E=e, K=k,
            notch_F=notch_f, notch_I=notch_i, notch_J=notch_j,
            forced_zone=(f, i, k), sliver_above=(e, f, i))
        _check_variable_gadget(gadget)
        return gadget


def variable_frame(gx, hx, depth, left_wall_x=None,
                   right_wall_x=None) -> VariableFrame:
    """The frame of the column from gx to hx, gx <= hx, with slit depth
    depth; walls default to a small standalone harness around it."""
    if gx >= hx:
        raise GadgetError("guard segment must have positive length")
    depth = rat(depth)
    if depth <= 0:
        raise GadgetError("scale must be positive")
    margin = 2 * (hx - gx + depth)
    lw = rat(left_wall_x) if left_wall_x is not None else gx - margin
    rw = rat(right_wall_x) if right_wall_x is not None else hx + margin
    if not (lw < gx and hx < rw):
        raise GadgetError("walls must strictly flank the guard segment")
    dg, dh = gx - lw, hx - lw
    c_g, c_h = dg / (dg + depth), dh / (dh + depth)
    if not (0 < c_g < c_h):
        raise GadgetError("J mouth corners out of order")
    return VariableFrame(lw, rw, depth, lw - depth, rw + depth,
                         depth / (rw - lw + depth), c_g, c_h)


def _check_variable_gadget(vg: VariableGadget):
    g, h = vg.guard_segment.a, vg.guard_segment.b
    f, i, k, e, j = vg.F, vg.I, vg.K, vg.E, vg.J
    if not (f.y == i.y == g.y == h.y):
        raise GadgetError("F, I and the guard segment must share a line")
    if not (f.x < g.x and h.x < i.x):
        raise GadgetError("guard segment not strictly inside segment FI")
    # F and I share a row, so orient(F, I, P) is the sign of (I.x - F.x)
    # * (P.y - F.y): orient(F, I, K) < 0 < orient(F, I, E) iff K and E lie
    # below and above the row when F.x < I.x, and the other way round
    # when F.x > I.x
    if f.x < i.x:
        flank = k.y < f.y < e.y
    else:
        flank = i.x < f.x and e.y < f.y < k.y
    if not flank:
        raise GadgetError("forced triangles FIK and EFI must flank line FI")
    if not (j.y > g.y):
        raise GadgetError("J apex must sit strictly above the guard line")
    # J's wedge meets the guard line exactly in [G, H]: its rays pass
    # through the endpoints by construction; assert the collinearity
    hj = hpoint(j)
    if orient_h(hj, hpoint(vg.notch_J.points[-1]), hpoint(g)) != 0:
        raise GadgetError("J mouth corner not on ray J->G")
    if orient_h(hj, hpoint(vg.notch_J.points[0]), hpoint(h)) != 0:
        raise GadgetError("J mouth corner not on ray J->H")


def variable_gadget_harness(vg: VariableGadget) -> SimplePolygon:
    """Minimal standalone room exposing one variable gadget for testing."""
    lw = vg.notch_F.points[0].x
    rw = vg.notch_I.points[0].x
    y0 = vg.guard_segment.a.y
    top_need = max(vg.E.y, vg.notch_J.mouth_interval()[1])
    bottom_need = vg.K.y
    top = y0 + 2 * (top_need - y0)
    bottom = y0 - 2 * (y0 - bottom_need)
    return assemble_room(lw, rw, bottom, top, vg.niches())


# --- copying gadget ----------------------------------------------------------


@dataclass(frozen=True)
class CopyGadget:
    """Two chamber slits forcing aligned guards to share an x-coordinate.

    The AB chamber sits just above the upper row and the UV chamber just
    below the lower row, each opening through a razor mouth in the left
    wall whose corners are the occluders of Lemma-3 type: C and D for AB,
    S and T for UV.  Inversion through C maps GH onto BA endpoint to
    endpoint (and D: NO onto BA; S: GH onto VU; T: NO onto VU).
    """
    upper_segment: Segment
    lower_segment: Segment
    A: Point
    B: Point
    C: Point
    D: Point
    U: Point
    V: Point
    S: Point
    T: Point
    slit_AB: Niche
    slit_UV: Niche

    def niches(self) -> list[Niche]:
        return [self.slit_AB, self.slit_UV]

    def ab_image(self, t: Fraction) -> Point:
        """Point of AB covered boundary at parameter t (both f_C and f_D)."""
        t = rat(t)
        return Point(self.B.x + t * (self.A.x - self.B.x), self.A.y)

    def uv_image(self, t: Fraction) -> Point:
        t = rat(t)
        return Point(self.V.x + t * (self.U.x - self.V.x), self.U.y)

    def guard_pair(self, t, t2=None) -> tuple[Point, Point]:
        t = rat(t)
        t2 = t if t2 is None else rat(t2)
        gu, gl = self.upper_segment, self.lower_segment
        return (gu.point_at(t), gl.point_at(t2))


def make_copy_gadget(gh: Segment, no: Segment, wall_x, row_gap) -> CopyGadget:
    """Copy gadget for two vertically aligned horizontal guard segments.

    wall_x is the left wall plane; row_gap is the vertical clearance used
    above the upper row and below the lower row for the chamber slits.

    The occluders C, D, S and T are computed in closed form: each is the
    meet of two sightlines that cross the wall plane at the same share of
    their rise (derivation below).  `_check_copy_gadget` then checks them
    by the eight inversion collinearity tests, and decides the slits'
    strict convexity from their shape when the slits are walked through
    the named points.
    """
    g, h = gh.a, gh.b
    n, o = no.a, no.b
    if g.y != h.y or n.y != o.y:
        raise GadgetError("guard segments must be horizontal")
    if g.x > h.x:
        g, h = h, g
    if n.x > o.x:
        n, o = o, n
    if n.x != g.x or o.x != h.x:
        raise GadgetError("segments misaligned: need N.x = G.x and O.x = H.x")
    if n.y >= g.y:
        raise GadgetError("lower segment must lie strictly below the upper")
    wall_x = rat(wall_x)
    if wall_x >= g.x:
        raise GadgetError("wall must lie strictly left of the segments")
    delta = rat(row_gap)
    if delta <= 0:
        raise GadgetError("insufficient vertical gap for the chamber slits")

    yu, yl = g.y, n.y
    w = h.x - g.x
    gap = yu - yl
    d0 = g.x - wall_x
    # chamber setback: small enough that the razor mouth clears both rows
    ratio = delta / (2 * gap)
    mu = d0 * ratio
    length = w * ratio   # = w * mu / d0

    y_ab = yu + delta
    b = Point(wall_x - mu, y_ab)
    a = Point(b.x - length, y_ab)
    y_uv = yl - delta
    v = Point(b.x, y_uv)
    u = Point(a.x, y_uv)

    # The sightline G->B runs left by d0 + mu and meets the wall after d0
    # of it, at the share d0 / (d0 + mu) of its rise.  H->A runs left by
    # w + d0 + mu + length = (d0 + mu)(d0 + w) / d0, as length = w*mu/d0,
    # and meets the wall after d0 + w of it: the same share.  Both rise
    # by delta, from row yu to row y_ab, so both cross the wall at height
    # yu + delta*share, and that point is C (the two lines differ, since
    # G and H lie on another row than B and A).  N and O share G's and
    # H's x, and V and U share B's and A's, so D (N->B, O->A), S (G->V,
    # H->U) and T (N->V, O->U) lie on the wall at the same share of their
    # rises: gap + delta, -(gap + delta) and -delta.  As mu = d0 * ratio,
    # the share is 1 / (1 + ratio).
    share = 1 / (1 + ratio)
    lift, rise = delta * share, (gap + delta) * share
    c = Point(wall_x, yu + lift)
    d = Point(wall_x, yl + rise)
    s = Point(wall_x, yu - rise)
    t = Point(wall_x, yl - lift)

    slit_ab = Niche("left", (c, b, a, d), "AB")
    slit_uv = Niche("left", (s, u, v, t), "UV")
    gadget = CopyGadget(Segment(g, h), Segment(n, o), a, b, c, d, u, v, s, t,
                        slit_ab, slit_uv)
    _check_copy_gadget(gadget, wall_x)
    return gadget


def _check_copy_gadget(cg: CopyGadget, wall_x):
    """Every relation the copying lemma needs, checked exactly.

    Slit convexity.  When a slit is walked through the named points,
    (C, B, A, D) or (S, U, V, T), with its deep edge horizontal (B.y ==
    A.y, U.y == V.y), the checks before it have established: C, D, S, T
    lie on the wall x = W; D.y < C.y < A.y; T.y < S.y and U.y < T.y;
    A.x < B.x and U.x < V.x.  The corner cross products orient(prev,
    cur, next) are then
      at C: (C.y - D.y)(W - B.x)    at S: (S.y - T.y)(W - U.x)
      at B: (A.y - C.y)(B.x - A.x)  at U: (S.y - U.y)(V.x - U.x)
      at A: (B.x - A.x)(A.y - D.y)  at V: (V.x - U.x)(T.y - U.y)
      at D: (C.y - D.y)(W - A.x)    at T: (S.y - T.y)(W - V.x)
    so (C, B, A, D) is strictly convex iff B.x < W, and (S, U, V, T) iff
    V.x < W (A.x < B.x and U.x < V.x give the remaining corners).  Any
    other slit is tested corner by corner with `orient_h`.
    """
    g, h = cg.upper_segment.a, cg.upper_segment.b
    n, o = cg.lower_segment.a, cg.lower_segment.b
    a, b, c, d = cg.A, cg.B, cg.C, cg.D
    u, v, s, t = cg.U, cg.V, cg.S, cg.T
    yu, yl, y_ab, y_uv = g.y, n.y, a.y, u.y

    if not (a.x < b.x and u.x < v.x):
        raise GadgetError("chamber deep edges must run left to right")
    if c.x != wall_x or d.x != wall_x or s.x != wall_x or t.x != wall_x:
        raise GadgetError("occluders must land exactly on the wall plane")
    # Fig. 3 ordering relations
    if not (yu < c.y < y_ab):
        raise GadgetError("C not strictly between line GH and line AB")
    if not (yl < d.y < y_ab):
        raise GadgetError("D not strictly between line NO and line AB")
    if not (y_uv < s.y < yu):
        raise GadgetError("S not strictly between line GH and line UV")
    if not (y_uv < t.y < yl):
        raise GadgetError("T not strictly between line NO and line UV")
    # razor mouths must clear both rows so foreign sightlines stay blocked
    if not (yu < d.y < c.y):
        raise GadgetError("insufficient vertical gap: AB mouth does not clear the upper row")
    if not (t.y < s.y < yl):
        raise GadgetError("insufficient vertical gap: UV mouth does not clear the lower row")
    # endpoint correspondence of the four inversions.  The relations above
    # put each pivot strictly between the row of its source and the row of
    # its target, so for a source on that row and an expected image on the
    # target row, the inversion maps the one to the other iff the three
    # points are collinear; anything else goes through invert_through
    hg, hh, hn, ho, ha, hb, hc, hd, hs, ht, hu, hv = map(
        hpoint, (g, h, n, o, a, b, c, d, s, t, u, v))
    checks = [
        (c, hc, g, hg, yu, y_ab, b, hb), (c, hc, h, hh, yu, y_ab, a, ha),
        (d, hd, n, hn, yl, y_ab, b, hb), (d, hd, o, ho, yl, y_ab, a, ha),
        (s, hs, g, hg, yu, y_uv, v, hv), (s, hs, h, hh, yu, y_uv, u, hu),
        (t, ht, n, hn, yl, y_uv, v, hv), (t, ht, o, ho, yl, y_uv, u, hu),
    ]
    for z, hz, src, hsrc, row_y, target_y, expect, hexp in checks:
        if src.y == row_y and expect.y == target_y:
            ok = orient_h(hsrc, hz, hexp) == 0
        else:
            ok = invert_through(z, src, target_y) == expect
        if not ok:
            got = invert_through(z, src, target_y)
            raise GadgetError(
                f"inversion through {z} maps {src} to {got}, expected {expect}")
    for quad, named, deep, name in ((cg.slit_AB.points, (c, b, a, d), b, "AB"),
                                    (cg.slit_UV.points, (s, u, v, t), v, "UV")):
        if quad == named and named[1].y == named[2].y:
            convex = deep.x < wall_x
        else:
            hq = [hpoint(p) for p in quad]
            convex = all(orient_h(hq[idx - 1], hq[idx], hq[(idx + 1) % len(hq)]) > 0
                         for idx in range(len(hq)))
        if not convex:
            raise GadgetError(f"slit {name} is not strictly convex")


# --- copy strip: a standalone Lemma-3 harness -------------------------------


@dataclass(frozen=True)
class CopyStrip:
    """One copy gadget plus both rows' variable gadgets in a closed strip."""
    polygon: SimplePolygon
    upper: VariableGadget
    lower: VariableGadget
    copy: CopyGadget

    @property
    def apexes(self) -> dict[str, Point]:
        return {"F": self.upper.F, "I": self.upper.I, "J": self.upper.J,
                "M": self.lower.F, "P": self.lower.I, "Q": self.lower.J}

    def guards_at(self, t, t2=None) -> tuple[Point, Point]:
        return self.copy.guard_pair(t, t2)


def build_copy_strip(gx=Fraction(10), width=Fraction(1), yu=Fraction(10),
                     yl=Fraction(0), wall_x=Fraction(0), right_x=Fraction(14),
                     row_gap=Fraction(2)) -> CopyStrip:
    """Standalone strip realizing the hypotheses of the copying lemma."""
    gx, width, yu, yl = rat(gx), rat(width), rat(yu), rat(yl)
    wall_x, right_x, row_gap = rat(wall_x), rat(right_x), rat(row_gap)
    gh = Segment(Point(gx, yu), Point(gx + width, yu))
    no = Segment(Point(gx, yl), Point(gx + width, yl))
    cg = make_copy_gadget(gh, no, wall_x, row_gap)

    gap = yu - yl
    drop = gap / 8
    rise_u = (cg.D.y - yu) / 2
    rise_l = gap / 8
    upper = make_variable_gadget(gh, scale=drop,
                                 left_wall_x=wall_x, right_wall_x=right_x,
                                 sliver_drop=drop, forcing_rise=rise_u,
                                 label="upper")
    lower = make_variable_gadget(no, scale=drop,
                                 left_wall_x=wall_x, right_wall_x=right_x,
                                 sliver_drop=drop, forcing_rise=rise_l,
                                 label="lower")
    # the lower row's forcing notch must stay below the upper row's F mouth
    if lower.notch_J.mouth_interval()[1] >= upper.notch_F.mouth_interval()[0]:
        raise GadgetError("strip too cramped: forcing notch collides with F mouth")

    niches = cg.niches() + upper.niches() + lower.niches()
    y_bottom = cg.T.y - row_gap
    y_top = cg.A.y + row_gap
    poly = assemble_room(wall_x, right_x, y_bottom, y_top, niches)
    return CopyStrip(poly, upper, lower, cg)


# --- clause gadget -----------------------------------------------------------


@dataclass(frozen=True)
class ClauseGadget:
    """Narrow diagonal slit whose deep end is seen exactly from a thin
    triangular strip extending down-left from its mouth."""
    index: int
    witness_point: Point
    mouth_hi: Point
    mouth_lo: Point
    notch: Niche

    def region_contains(self, p: Point) -> bool:
        """p inside the closed visibility wedge of the witness point."""
        w = self.witness_point
        lo = orient(w, self.mouth_hi, p)   # low line: through the upper corner
        up = orient(w, self.mouth_lo, p)
        return lo >= 0 and up <= 0

    def low_line(self) -> tuple[Point, Point]:
        """Boundary line carrying right-endpoint (x=1) designations."""
        return (self.witness_point, self.mouth_hi)

    def up_line(self) -> tuple[Point, Point]:
        """Boundary line carrying left-endpoint (x=0) designations."""
        return (self.witness_point, self.mouth_lo)

    def wedge(self) -> "Wedge":
        return Wedge(self.witness_point, self.mouth_hi, self.mouth_lo)


def make_clause_gadget(anchor: Point, index: int, slope, width) -> ClauseGadget:
    """Clause slit on the right wall at the anchor (its upper mouth corner).

    The witness apex sits one unit beyond the wall, so the region beyond the
    mouth diverges vertically at rate width per unit of horizontal depth;
    keeping width small relative to the room span keeps sibling regions
    disjoint.
    """
    slope, width = rat(slope), rat(width)
    if slope <= 0 or width <= 0:
        raise GadgetError("slope and width must be positive")
    tau = Fraction(1)
    apex = Point(anchor.x + tau, anchor.y + slope * tau)
    mouth_hi = anchor
    mouth_lo = Point(anchor.x, anchor.y - width)
    notch = Niche("right", (mouth_lo, apex, mouth_hi), f"clause{index}")
    gadget = ClauseGadget(index, apex, mouth_hi, mouth_lo, notch)
    if orient(apex, mouth_hi, mouth_lo) <= 0:
        raise GadgetError("clause slit degenerate")
    return gadget


def clause_family_disjoint(gadgets: list[ClauseGadget], span) -> bool:
    """The diverging wedges of translated clause gadgets stay disjoint over
    a horizontal span.  Consecutive wedges meet where the vertical spread
    (depth * width / tau) catches up with the translation."""
    span = rat(span)
    gs = sorted(gadgets, key=lambda g: -g.mouth_hi.y)
    for g1, g2 in zip(gs, gs[1:]):
        translation = g1.mouth_lo.y - g2.mouth_hi.y
        if translation <= 0:
            return False
        w = g1.mouth_hi.y - g1.mouth_lo.y
        tau = g1.witness_point.x - g1.mouth_hi.x
        spread = w * span / tau
        if spread >= translation:
            return False
    return True


# --- wedge family for x0 bands ----------------------------------------------


@dataclass(frozen=True)
class Wedge:
    """Two rays from a clause apex bounding its visibility strip."""
    apex: Point
    low_pt: Point   # on the lower boundary line (crosses rulers first)
    up_pt: Point

    def __post_init__(self):
        if self.apex.y <= self.low_pt.y or self.apex.y <= self.up_pt.y:
            raise GadgetError("wedge apex must sit above both ray points")

    def x_up(self, y) -> Fraction:
        return x_at(self.apex, self.up_pt, y)


@dataclass(frozen=True)
class WedgeFamily:
    """n-1 aligned horizontal guard segments crossing a wedge.

    Segment i meets the lower wedge line at parameter k_{i-1} of its own
    length and the upper line at k_i; the common segment length is solved
    from the fixed wedge so that k_{n-1} = 1 exactly in rationals.
    """
    wedge: Wedge
    segments: tuple[Segment, ...]
    constants: tuple[Fraction, ...]


def make_wedge_segments(n: int, wedge: Wedge, left_x) -> WedgeFamily:
    """Solve for the common segment length and place the n-1 rulers.

    The y-positions are derived, not chosen: alignment of all segments at
    left_x together with the crossing recurrence pins them uniquely.
    """
    if n < 2:
        raise GadgetError("need n >= 2 for a wedge family")
    left_x = rat(left_x)
    apex = wedge.apex
    if apex.x <= left_x:
        raise GadgetError("wedge apex must lie right of the segments")
    r1 = (apex.x - wedge.low_pt.x) / (apex.y - wedge.low_pt.y)
    r2 = (apex.x - wedge.up_pt.x) / (apex.y - wedge.up_pt.y)
    if r1 <= 0 or r2 <= 0:
        raise GadgetError("wedge rays must descend leftward")
    ratio = r2 / r1
    if not (0 < ratio < 1):
        raise GadgetError("no terminating segment length for this wedge")

    denom = 1 - ratio ** (n - 1)
    s = (apex.x - left_x) * denom
    ks = [(1 - ratio ** i) / denom for i in range(n)]

    segments = []
    for i in range(1, n):
        # lower line crosses at parameter k_{i-1}
        y_i = y_at(apex, wedge.low_pt, left_x + ks[i - 1] * s)
        if wedge.x_up(y_i) != left_x + ks[i] * s:
            raise GadgetError("wedge recurrence failed to close")
        segments.append(Segment(Point(left_x, y_i), Point(left_x + s, y_i)))
    ys = [seg.a.y for seg in segments]
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise GadgetError("ruler rows out of order")
    if ks[0] != 0 or ks[-1] != 1:
        raise GadgetError("band constants must run from 0 to 1")
    return WedgeFamily(wedge, tuple(segments), tuple(ks))
