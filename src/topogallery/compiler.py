"""Assemble gadgets into complete art galleries.

The gallery is a tall rectangle.  Clause slits sit on the right wall near
the top; their visibility strips run down-left across the variable columns.
Every literal of every clause gets one horizontal guard segment spanning
its variable's column, placed at the exact height where the designated
endpoint (left for x=0, right for x=1) lands on the strip boundary, or
where a band ruler crosses the strip.  Variable gadgets pin one guard to
each segment; copying gadgets chain the segments of each variable so all
its guards share an x-coordinate.  Every clearance the construction needs
is computed and audited, never assumed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .complexes import (
    CubicalComplex,
    complex_to_dnf,
    face_dim,
    face_with_boundary,
    projective_plane_complex,
    remove_face,
    sphere_complex,
    torus_complex,
)
from .formulas import (
    Band,
    CnfFormula,
    VarEq,
    cnf_of_dnf_pruned,
    eval_formula,
    grid_axes,
)
from .gadgets import (
    ClauseGadget,
    CopyGadget,
    GadgetError,
    Niche,
    VariableGadget,
    assemble_room,
    clause_family_disjoint,
    make_clause_gadget,
    make_copy_gadget,
    make_wedge_segments,
    variable_frame,
)
from .geom import (
    GeometryError,
    Point,
    Segment,
    SimplePolygon,
    hpoint,
    line_through,
    orient_h,
    rat,
    rational_key,
    x_at,
    x_on_line,
    y_at,
    y_on_line,
)


class CompileError(ValueError):
    pass


class GenusError(CompileError):
    """No closed surface has the requested genus: an input error."""


SAT_SCREEN_LIMIT = 250_000
DEFAULT_EPSILON = Fraction(1, 4)


@dataclass(frozen=True)
class GuardSegmentRecord:
    """One guard segment: which clause literal it realizes and where."""
    index: int
    clause: int
    literal_pos: int
    var: int
    designation: str            # 'left' | 'right' | 'band'
    band: int | None
    segment: Segment


@dataclass(frozen=True)
class GuardConfig:
    guards: tuple[Point, ...]

    def __len__(self):
        return len(self.guards)


@dataclass(frozen=True)
class CopyPair:
    var: int
    upper: int   # segment indexes
    lower: int
    gadget: CopyGadget


@dataclass(frozen=True)
class Gallery:
    polygon: SimplePolygon
    formula: CnfFormula
    columns: dict
    segments: tuple[GuardSegmentRecord, ...]
    clause_gadgets: tuple[ClauseGadget, ...]
    variable_gadgets: tuple[VariableGadget, ...]
    copy_pairs: tuple[CopyPair, ...]
    epsilon: Fraction
    metadata: dict

    @property
    def k(self) -> int:
        return len(self.segments)

    def audit(self):
        _audit(self)

    def segment_width(self, var: int) -> Fraction:
        lo, hi = self.columns[var]
        return hi - lo

    def separation_sq(self) -> Fraction:
        """Squared half-distance between the two closest distinct segments.

        The segments (horizontal rows) are sorted by height once, and each
        is compared only with the rows above it, in that order, until one
        has dy^2 >= best, the least squared distance so far.  The stop is
        exact: every squared distance is at least dy^2, and dy only grows
        further up, so no later pair is nearer; every pair not compared is
        such a later pair, so best is the all-pairs minimum."""
        best = None
        segs = sorted((r.segment for r in self.segments), key=lambda s: s.a.y)
        for i, s in enumerate(segs):
            y = s.a.y
            for t in segs[i + 1:]:
                dy = t.a.y - y
                if best is not None and dy * dy >= best:
                    break
                d = _segment_dist_sq(s, t)
                if best is None or d < best:
                    best = d
        return best / 4 if best is not None else Fraction(0)


def _segment_dist_sq(s1: Segment, s2: Segment) -> Fraction:
    """Squared distance between two horizontal segments."""
    dy = s1.a.y - s2.a.y
    lo1, hi1 = s1.a.x, s1.b.x
    lo2, hi2 = s2.a.x, s2.b.x
    if hi1 < lo2:
        dx = lo2 - hi1
    elif hi2 < lo1:
        dx = lo1 - hi2
    else:
        dx = Fraction(0)
    return dx * dx + dy * dy


def vertex_count(g: Gallery) -> int:
    return len(g.polygon.vertices)


def embed(g: Gallery, x) -> GuardConfig:
    """One guard per segment, at affine parameter x_var along it.  Every
    row is horizontal and spans its column (`_audit`), so the guard is
    its column's x at the row's y."""
    xs = [rat(v) for v in x]
    if len(xs) != g.formula.n:
        raise CompileError(
            f"point has dimension {len(xs)}, gallery formula has {g.formula.n}")
    if any(v < 0 or v > 1 for v in xs):
        raise CompileError("coordinates must lie in [0, 1]")
    xcol = {v: lo + xs[v] * (hi - lo) for v, (lo, hi) in g.columns.items()}
    return GuardConfig(tuple(Point(xcol[rec.var], rec.segment.a.y)
                             for rec in g.segments))


# --- layout -------------------------------------------------------------


def compile_gallery(f: CnfFormula, epsilon=DEFAULT_EPSILON) -> Gallery:
    """Compile a plain CNF formula (no band literals) into a gallery."""
    if f.band_constants:
        raise CompileError("compile_gallery takes band-free formulas; "
                           "use compile_surface for the x0 extension")
    return _assemble(f, rat(epsilon))


def _used_vars(f: CnfFormula) -> list[int]:
    used = set()
    for cl in f.clauses:
        for lit in cl:
            used.add(0 if isinstance(lit, Band) else lit.var)
    return sorted(used)


def _sat_screen(f: CnfFormula) -> tuple[bool | None, str]:
    axes = grid_axes(f)
    total = 1
    for ax in axes:
        total *= len(ax)
    if total > SAT_SCREEN_LIMIT:
        return None, f"satisfiability screen skipped: grid of {total} points"
    for xs in product(*axes):
        if eval_formula(f, xs):
            return True, "satisfiable on screen grid"
    return False, "unsatisfiable on screen grid"


def _assemble(f: CnfFormula, epsilon: Fraction) -> Gallery:
    if epsilon <= 0:
        raise CompileError("epsilon must be positive")
    if not f.clauses:
        raise CompileError("empty formula")

    metadata: dict = {}
    sat, note = _sat_screen(f)
    metadata["satisfiability"] = note
    if sat is False:
        raise CompileError("formula is unsatisfiable on the cube")

    has_bands = any(isinstance(l, Band) for cl in f.clauses for l in cl)
    n_bands = len(f.band_constants) - 1 if f.band_constants else 0
    m = len(f.clauses)
    used = _used_vars(f)
    if has_bands and 0 not in used:
        used = [0] + used
    ordinary = [v for v in used if not (has_bands and v == 0)]

    # Column frame: ordinary variables left to right, the band variable
    # (x0) rightmost so its ruler length stays short.  Strips descending
    # from vertically stacked clause mouths shift horizontally by
    # d_cl / sigma per clause; that shift must exceed the column width so
    # a strip meets foreign rows outside their segments, and the column
    # pitch must exceed the per-variable band of row heights.
    w_col = Fraction(1)
    gap_col = max(Fraction(4), Fraction(2 * m + 2))
    x = Fraction(4)
    col: dict[int, tuple[Fraction, Fraction]] = {}
    for v in ordinary:
        col[v] = (x, x + w_col)
        x += w_col + gap_col
    x0_left = None
    if has_bands:
        x0_left = x
        x += 2 + gap_col
    gw = x + 2

    sigma = Fraction(2)
    tau = Fraction(1)
    d_cl = 2 * (w_col + 1)
    mouth_w = epsilon * sigma / (8 * (gw + 2))
    mouth_base = sigma * (gw + tau) + 2
    mouth_y = {j: mouth_base + (m - 1 - j) * d_cl for j in range(m)}
    top = mouth_y[0] + sigma * tau + 2

    gadgets = tuple(
        make_clause_gadget(Point(gw, mouth_y[j]), j, sigma, mouth_w)
        for j in range(m))

    # band constants and ruler rows from the shared wedge shape
    ks: tuple[Fraction, ...] = f.band_constants
    x0_span = None
    ruler_offsets = {}
    if has_bands:
        family = make_wedge_segments(n_bands + 1, gadgets[0].wedge(), x0_left)
        ks = family.constants
        if ks != f.band_constants:
            f = CnfFormula(f.n, f.clauses, ks)
        x0_span = family.segments[0].b.x - family.segments[0].a.x
        if x0_span >= 2:
            raise CompileError("x0 ruler length exceeds its reserved column")
        col[0] = (x0_left, x0_left + x0_span)
        for i, seg in enumerate(family.segments, start=1):
            ruler_offsets[i] = seg.a.y - mouth_y[0]

    # rows: one per clause literal
    records: list[GuardSegmentRecord] = []
    for j, clause in enumerate(f.clauses):
        cg = gadgets[j]
        for pos, lit in enumerate(clause):
            if isinstance(lit, Band):
                v, designation, band = 0, "band", lit.index
                y = mouth_y[j] + ruler_offsets[lit.index + 1]
            else:
                v, band = lit.var, None
                if lit.const == 1:
                    designation, x, line = "right", col[v][1], cg.low_line()
                else:
                    designation, x, line = "left", col[v][0], cg.up_line()
                y = y_at(*line, x)
            lo, hi = col[v]
            records.append(GuardSegmentRecord(
                index=len(records), clause=j, literal_pos=pos, var=v,
                designation=designation, band=band,
                segment=Segment(Point(lo, y), Point(hi, y))))

    order, ys, _ = _rows_by_height(records)
    if any(y0 == y1 for y0, y1 in zip(ys, ys[1:])):
        raise CompileError("clearance infeasible: two rows share a height; "
                           "retry with a different epsilon")
    # clause strips cross x=0 at height 2 + sigma*tau and terminate on the
    # floor just left of it, clear of every left-wall mouth
    floor_sentinel = 2 + sigma * tau + 2
    if ys[0] <= floor_sentinel + 1:
        raise CompileError("layout error: rows leave no floor margin")
    ceil_sentinel = min(mouth_y.values()) - 1
    if ys[-1] >= ceil_sentinel:
        raise CompileError("rows collide with the clause zone")

    # neighbour gaps from the global row order (sentinels at the margins)
    bounds = [floor_sentinel] + ys + [ceil_sentinel]
    gap_below = {idx: ys[k] - bounds[k] for k, idx in enumerate(order)}
    gap_above = {idx: bounds[k + 2] - ys[k] for k, idx in enumerate(order)}

    # copy chains per variable (top to bottom)
    chains: dict[int, list[int]] = {}
    for idx in reversed(order):
        chains.setdefault(records[idx].var, []).append(idx)

    # The left wall must sit far enough left that chamber mouths accept
    # only the sight slopes of their own two rows: a foreign row one gap
    # further away must overshoot the razor mouth.  The margin scales with
    # the widest chain gap relative to the tightest row gap.
    min_gap = min(min(gap_above[i], gap_below[i]) for i in range(len(records)))
    max_pair_gap = Fraction(0)
    for v, chain in chains.items():
        for ui, li in zip(chain, chain[1:]):
            max_pair_gap = max(max_pair_gap,
                               records[ui].segment.a.y - records[li].segment.a.y)
    base = 2 * (max_pair_gap + min_gap + 1) * gw / min_gap + gw + 4
    wall_x = -base

    copy_pairs: list[CopyPair] = []
    ab_mouth_floor: dict[int, Fraction] = {}
    for v, chain in chains.items():
        for upper_idx, lower_idx in zip(chain, chain[1:]):
            up = records[upper_idx].segment
            dn = records[lower_idx].segment
            delta = min(gap_above[upper_idx], gap_below[lower_idx]) / 4
            cg = make_copy_gadget(up, dn, wall_x, delta)
            copy_pairs.append(CopyPair(v, upper_idx, lower_idx, cg))
            ab_mouth_floor[upper_idx] = cg.D.y

    # variable gadgets per row, from one frame per column; the forcing
    # apex J must sit low enough that its wedge exits the right wall
    # before descending to the next row: rise <= gap_min * (col_l -
    # wall_x) / (2 (gw - col_l)), whose factor is the column's
    depth = Fraction(1, 4)
    frames = {v: (variable_frame(lo, hi, depth, wall_x, gw),
                  (lo - wall_x) / (2 * (gw - lo)))
              for v, (lo, hi) in col.items()}
    var_gadgets: list[VariableGadget] = []
    for idx, rec in enumerate(records):
        frame, rise_factor = frames[rec.var]
        gap_min = min(gap_above[idx], gap_below[idx])
        drop = gap_min / 8
        rise = gap_above[idx] / 8
        if idx in ab_mouth_floor:
            rise = min(rise, (ab_mouth_floor[idx] - rec.segment.a.y) / 2)
        rise = min(rise, gap_min * rise_factor)
        var_gadgets.append(frame.gadget(rec.segment, drop, rise, f"row{idx}"))

    niches: list[Niche] = []
    for cg in gadgets:
        niches.append(cg.notch)
    for vg in var_gadgets:
        niches.extend(vg.niches())
    for pair in copy_pairs:
        niches.extend(pair.gadget.niches())

    try:
        polygon = assemble_room(wall_x, gw, Fraction(0), top, niches)
    except (GadgetError, GeometryError) as exc:
        raise CompileError(f"clearance infeasible at epsilon={epsilon}: {exc}") from exc

    gallery = Gallery(
        polygon=polygon, formula=f, columns=col, segments=tuple(records),
        clause_gadgets=gadgets, variable_gadgets=tuple(var_gadgets),
        copy_pairs=tuple(copy_pairs), epsilon=epsilon, metadata=metadata)
    _audit(gallery)
    return gallery


# --- audit --------------------------------------------------------------


def _clause_lines(g: Gallery) -> list[tuple]:
    """Per clause gadget, in order: its low and up boundary lines as
    `line_through` triples, built once for all the rows they are read at."""
    return [(line_through(*cg.low_line()), line_through(*cg.up_line()))
            for cg in g.clause_gadgets]


def _strip_interval_on_row(lines, seg: Segment):
    """Parameters along a horizontal segment cut by a clause strip, given
    the strip's (low, up) lines."""
    y = seg.a.y
    w = seg.b.x - seg.a.x
    return ((x_on_line(lines[0], y) - seg.a.x) / w,
            (x_on_line(lines[1], y) - seg.a.x) / w)


def _strip_heights(g: Gallery, lines) -> dict:
    """Per variable, per clause gadget: the closed height range
    [y_lo, y_hi] in which the clause strip meets the variable's column.
    lines is `_clause_lines(g)`."""
    for cg in g.clause_gadgets:
        for apex, mouth in (cg.low_line(), cg.up_line()):
            if (apex.x - mouth.x) * (apex.y - mouth.y) <= 0:
                raise CompileError(
                    f"strip of clause {cg.index} does not rise to the right")
    return {v: [(y_on_line(up, lo), y_on_line(low, hi)) for low, up in lines]
            for v, (lo, hi) in g.columns.items()}


def _rows_by_height(records) -> tuple[list[int], list[Fraction], list[int]]:
    """Positions into records sorted by row height, those heights, and
    their integer keys (`rational_key`), for `_row_bisect`."""
    ys = [rec.segment.a.y for rec in records]
    keys = [rational_key(y) for y in ys]
    rows = sorted(range(len(ys)), key=lambda i: (keys[i], ys[i]))
    return rows, [ys[i] for i in rows], [keys[i] for i in rows]


def _row_bisect(rows, y, right=False) -> int:
    """bisect_left (bisect_right if right) of the height y into the sorted
    heights of rows (`_rows_by_height`): by the keys, and exactly only
    among the heights whose key is y's."""
    _, ys, keys = rows
    k = rational_key(y)
    return (bisect_right if right else bisect_left)(
        ys, y, bisect_left(keys, k), bisect_right(keys, k))


def _audit(g: Gallery):
    records = g.segments
    # all guard segments strictly inside
    for rec in records:
        for p in (rec.segment.a, rec.segment.b):
            if g.polygon.locate(p) != "in":
                raise CompileError(
                    f"guard segment {rec.index} endpoint {p} not strictly inside")

    # same-variable alignment and column spanning; the pruned checks below
    # also rest on every row being horizontal and running left to right
    for rec in records:
        lo, hi = g.columns[rec.var]
        if rec.segment.a.x != lo or rec.segment.b.x != hi:
            raise CompileError(f"segment {rec.index} does not span its column")
        if rec.segment.a.y != rec.segment.b.y or lo >= hi:
            raise CompileError(
                f"segment {rec.index} is not a horizontal left-to-right row")

    rows = _rows_by_height(records)
    lines = _clause_lines(g)
    heights = _strip_heights(g, lines)
    _audit_strips(g, rows, heights, lines)

    # clause regions pairwise disjoint: a region is the wedge clipped by
    # the floor, so disjointness need only hold until its upper boundary
    # exits through y = 0
    span = Fraction(0)
    for cg, (low, _) in zip(g.clause_gadgets, lines):
        span = max(span, cg.witness_point.x - x_on_line(low, 0))
    if not clause_family_disjoint(list(g.clause_gadgets), span):
        raise CompileError("clause visibility regions overlap within the room")

    # per-variable y-extents of column-strip crossings must not overlap
    extents = sorted((min(lo for lo, _ in hs), max(hi for _, hi in hs), v)
                     for v, hs in heights.items())
    for (l1, h1, v1), (l2, h2, v2) in zip(extents, extents[1:]):
        if l2 <= h1:
            raise CompileError(
                f"column strip extents of variables {v1} and {v2} overlap in y")

    # forced slivers pairwise disjoint (their y-intervals are)
    ivs = sorted(((vg.forced_zone[2].y, vg.E.y) for vg in g.variable_gadgets),
                 key=lambda iv: (rational_key(iv[0]), *iv))
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        if a2 <= b1:
            raise CompileError("forced slivers of two rows overlap in y")

    far_right = max(rec.segment.b.x for rec in records)
    _audit_j_wedges(g, rows, far_right)
    _audit_chambers(g, rows, far_right)

    # copy pair alignment sanity
    for pair in g.copy_pairs:
        up = g.segments[pair.upper].segment
        dn = g.segments[pair.lower].segment
        if up.a.x != dn.a.x or up.b.x != dn.b.x:
            raise CompileError("copy pair segments misaligned")


# Each pruned check below tests exactly the (row, gadget) pairs that a
# monotonicity bound cannot clear, in the order of the all-pairs loop it
# replaces, so it reports the same first failure.


def _audit_strips(g: Gallery, rows, heights, lines):
    """Clause strips vs every segment: exactly the designated contact.
    lines is `_clause_lines(g)`."""
    records = g.segments
    order = rows[0]
    # designated contacts are always tested
    suspects = {(i, c) for i, rec in enumerate(records)
                for c, cg in enumerate(g.clause_gadgets)
                if cg.index == rec.clause}
    for v, per_clause in heights.items():
        for c, (y_lo, y_hi) in enumerate(per_clause):
            # both strip boundaries rise to the right, so a row of column v
            # meets the strip iff y_lo <= y <= y_hi
            near = order[_row_bisect(rows, y_lo):_row_bisect(rows, y_hi, True)]
            suspects.update((i, c) for i in near if records[i].var == v)
    for i, c in sorted(suspects):
        _check_strip(g, g.clause_gadgets[c], records[i], lines[c])


def _check_strip(g: Gallery, cg: ClauseGadget, rec: GuardSegmentRecord, lines):
    """The strip of cg, with (low, up) lines `lines`, against row rec."""
    t_lo, t_up = _strip_interval_on_row(lines, rec.segment)
    designated = (cg.index == rec.clause)
    if designated and rec.designation == "right":
        ok = t_lo == 1 and t_up > 1
    elif designated and rec.designation == "left":
        ok = t_up == 0 and t_lo < 0
    elif designated and rec.designation == "band":
        ks = g.formula.band_constants
        ok = (t_lo == ks[rec.band] and t_up == ks[rec.band + 1])
    else:
        ok = t_up < 0 or t_lo > 1
    if not ok:
        raise CompileError(
            f"strip of clause {cg.index} meets segment {rec.index} "
            f"at parameters [{t_lo}, {t_up}] (designation "
            f"{rec.designation if designated else 'foreign'})")


def _audit_j_wedges(g: Gallery, rows, far_right):
    """J wedges touch no foreign segment (the wedge opens downward from J)."""
    records = g.segments
    order = rows[0]
    for idx, vg in enumerate(g.variable_gadgets):
        jj = vg.J
        ga, gb = vg.guard_segment.a, vg.guard_segment.b
        start = 0
        if jj.x < ga.x < gb.x and ga.y == gb.y < jj.y:
            # at y < J.y the wedge is [xG(y), xH(y)] and xG grows as y
            # falls: below y_clear, where xG = far_right, every row is clear
            y_clear = y_at(jj, ga, far_right)
            start = _row_bisect(rows, y_clear)
        for i in sorted(order[start:_row_bisect(rows, jj.y)]):
            if records[i].index != idx:
                _check_j_wedge(vg, idx, records[i])


def _check_j_wedge(vg: VariableGadget, idx: int, rec: GuardSegmentRecord):
    s = rec.segment
    if vg.j_wedge_contains(s.a) or vg.j_wedge_contains(s.b):
        raise CompileError(
            f"forcing wedge of row {idx} reaches segment {rec.index}")
    # a horizontal segment could cross the wedge without its endpoints
    # inside only if the wedge's rays cross its row between the endpoints
    jj = vg.J
    for target in (vg.guard_segment.a, vg.guard_segment.b):
        xh = x_at(jj, target, s.a.y)
        if s.a.x <= xh <= s.b.x:
            raise CompileError(
                f"forcing wedge boundary of row {idx} crosses "
                f"segment {rec.index}")


def _audit_chambers(g: Gallery, rows, far_right):
    """Chamber razor mouths: no foreign segment can sight the deep edges.

    A copy pair's candidate rows are found on the integer keys of
    `rows`; only when a foreign row is among them are the exact sighting
    intervals computed, and each row is tested against those as before."""
    records = g.segments
    order, ys, keys = rows
    left_end = min(rec.segment.a.x for rec in records)
    k_right = rational_key(far_right)
    for pair in g.copy_pairs:
        cg = pair.gadget
        own = {pair.upper, pair.lower}
        wall = cg.C.x   # the mouth corners lie on the wall plane
        shaped = left_end > wall and \
            cg.A.y == cg.B.y >= cg.C.y and cg.U.y == cg.V.y <= cg.T.y
        # mu * 2^64 > m_lo, for mu = wall - max(A.x, B.x, U.x, V.x)
        k_wall = rational_key(wall)
        m_lo = k_wall - max(map(rational_key, (cg.A.x, cg.B.x, cg.U.x, cg.V.x))) - 1
        near = order
        if shaped and m_lo > 0:
            # the exact intervals below are (A.y - (A.y - D.y) / psi_min,
            # A.y) and (U.y, U.y + (S.y - U.y) / psi_min), where 1 / psi_min
            # = 1 + (far_right - wall) / mu < (m_lo + r_hi) / m_lo.  Bounding
            # every term by its key, a row inside an interval has its key
            # in [lo, k_a] or in [k_u, hi]
            r_hi = max(k_right + 1 - k_wall, 0)   # > (far_right - wall) * 2^64
            k_a, k_u = rational_key(cg.A.y), rational_key(cg.U.y)
            e_ab = max(k_a + 1 - rational_key(cg.D.y), 0)
            e_uv = max(rational_key(cg.S.y) + 1 - k_u, 0)
            lo = k_a + (-e_ab * (m_lo + r_hi)) // m_lo
            hi = k_u - (-e_uv * (m_lo + r_hi)) // m_lo
            near = order[bisect_left(keys, lo):bisect_right(keys, k_a)] + \
                order[bisect_left(keys, k_u):bisect_right(keys, hi)]
        foreign = sorted({i for i in near if records[i].index not in own})
        if not foreign:
            continue
        # open height intervals of the rows that can sight AB and UV
        ab = uv = (ys[0] - 1, ys[-1] + 1)
        mu = wall - max(cg.A.x, cg.B.x, cg.U.x, cg.V.x)
        if mu > 0 and shaped:
            # at least the share psi_min of a sightline's width from a row
            # to a deep edge lies beyond the wall, so its height there is
            # monotone in the row's: rows outside these intervals pass
            # below or above the mouth
            psi_min = mu / (far_right - wall + mu)
            ab = (cg.A.y - (cg.A.y - cg.D.y) / psi_min, cg.A.y)
            uv = (cg.U.y, cg.U.y + (cg.S.y - cg.U.y) / psi_min)
        for i in foreign:
            rec = records[i]
            y = rec.segment.a.y
            if ab[0] < y < ab[1]:
                _check_chamber_blocked(cg, rec, "AB")
            if uv[0] < y < uv[1]:
                _check_chamber_blocked(cg, rec, "UV")


def _check_chamber_blocked(cg: CopyGadget, rec: GuardSegmentRecord, which: str):
    """Foreign sightlines to a chamber's deep edge must cross the wall
    plane outside the open mouth interval; crossing height is monotone in
    both endpoints so the four corners decide.

    The crossings are compared with the mouth heights without computing
    them.  The line through a row end p and an edge end q meets the wall
    x = W at y = q.y + (p.y - q.y)(W - q.x) / (p.x - q.x), so for a mouth
    corner M = (W, m), (y - m)(p.x - q.x) = (W - q.x)(p.y - q.y) - (m -
    q.y)(p.x - q.x) = orient(q, M, p): y - m has the sign of
    orient(q, M, p) * (p.x - q.x), an integer test on the triples.  A
    vertical line has no crossing and raises as `y_at` does."""
    edge, mouth_lo, mouth_hi = ((cg.A, cg.B), cg.D.y, cg.C.y) if which == "AB" \
        else ((cg.U, cg.V), cg.T.y, cg.S.y)
    wall_x = cg.C.x
    hedge = [hpoint(ep) for ep in edge]
    sights = []
    for gp in (rec.segment.a, rec.segment.b):
        hp = hpoint(gp)
        for ep, hq in zip(edge, hedge):
            if gp.x == ep.x:
                y_at(gp, ep, wall_x)
            sights.append((hq, hp, 1 if gp.x > ep.x else -1))
    hlo, hhi = hpoint(Point(wall_x, mouth_lo)), hpoint(Point(wall_x, mouth_hi))
    if not (all(orient_h(hq, hlo, hp) * s <= 0 for hq, hp, s in sights) or
            all(orient_h(hq, hhi, hp) * s >= 0 for hq, hp, s in sights)):
        raise CompileError(
            f"segment {rec.index} (variable {rec.var}) can sight chamber "
            f"{which} of a copy pair")


# --- surface construction -----------------------------------------------


def _default_constants(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(i, n - 1) for i in range(n))


def surface_formula(complex_: CubicalComplex, f1, f2, n: int) -> CnfFormula:
    """CNF whose solution set is the n-fold connected sum of the surface
    realized by the complex (x0 is the new chain coordinate, variable 0).

    Caps at x0 = 0 and x0 = 1 are once-punctured copies; interior band
    constants carry alternating boundary tubes with full junction copies at
    the interior constants, so the gluing is a closed surface.  The
    classifier certifies the homeomorphism type.
    """
    if n < 2:
        raise CompileError("connected-sum formula needs genus n >= 2")
    if f1 == f2:
        raise CompileError("the two removed faces must differ")
    for face in (f1, f2):
        if face not in complex_.faces or face_dim(face) != 2:
            raise CompileError("removed faces must be 2-faces of the complex")
    ks = _default_constants(n)
    c1 = remove_face(complex_, f1)
    c2 = remove_face(complex_, f2)
    b1 = face_with_boundary(complex_, f1)
    b2 = face_with_boundary(complex_, f2)

    def membership(kx: CubicalComplex) -> list[tuple]:
        base = cnf_of_dnf_pruned(complex_to_dnf(kx))
        shifted = []
        for cl in base.clauses:
            shifted.append(tuple(VarEq(l.var + 1, l.const) for l in cl))
        return shifted

    m_c1 = membership(c1)
    m_c2 = membership(c2)
    m_b1 = membership(b1)
    m_b2 = membership(b2)
    if len(m_c1) != len(m_c2):
        raise CompileError(
            "removed faces are not symmetric: C1 and C2 CNF sizes differ")

    zero = VarEq(0, 0)
    one = VarEq(0, 1)
    even_bands = [Band(j - 1) for j in range(1, n) if j % 2 == 0]
    odd_bands = [Band(j - 1) for j in range(1, n) if j % 2 == 1]
    if n % 2 == 0:
        c2_extra = [zero, one]
        c1_extra = []
        s1 = [zero] + even_bands + [one]
        s2 = odd_bands
    else:
        c2_extra = [zero]
        c1_extra = [one]
        s1 = [zero] + even_bands
        s2 = odd_bands + [one]

    # At n=2 the B2 family's band terms span all of [0,1], making those
    # clauses inert; they are kept anyway so the clause count (and with it
    # the gallery vertex count) stays exactly affine in n.
    clauses: list[tuple] = []
    for cl in m_c2:
        clauses.append(tuple(cl) + tuple(c2_extra))
    for cl in m_c1:
        clauses.append(tuple(cl) + tuple(c1_extra))
    for cl in m_b1:
        clauses.append(tuple(cl) + tuple(s1))
    for cl in m_b2:
        clauses.append(tuple(cl) + tuple(s2))
    return CnfFormula(complex_.n + 1, tuple(clauses), ks)


def surface_fixture(orientable: bool) -> CubicalComplex:
    return torus_complex() if orientable else projective_plane_complex()


def canonical_removed_faces(complex_: CubicalComplex):
    faces2 = sorted((f for f in complex_.faces if face_dim(f) == 2),
                    key=lambda f: tuple(-1 if v is None else v for v in f))
    if len(faces2) < 2:
        raise CompileError("complex has fewer than two 2-faces")
    return faces2[0], faces2[1]


def compile_surface(n: int, orientable: bool, epsilon=DEFAULT_EPSILON) -> Gallery:
    """Gallery whose solution space is the closed surface of genus n."""
    if n < 0:
        raise GenusError("genus must be nonnegative")
    if n == 0 and not orientable:
        raise GenusError("there is no non-orientable surface of genus 0")
    if n < 2:
        fixture = sphere_complex() if n == 0 else surface_fixture(orientable)
        return _assemble(cnf_of_dnf_pruned(complex_to_dnf(fixture)), rat(epsilon))
    fixture = surface_fixture(orientable)
    f1, f2 = canonical_removed_faces(fixture)
    f = surface_formula(fixture, f1, f2, n)
    return _assemble(f, rat(epsilon))
