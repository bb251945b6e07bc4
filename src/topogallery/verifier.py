"""Mechanical verification: coverage checking, copy-gadget contract tests,
brute-force guard search, solution-manifold sampling, and combinatorial
surface classification."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

from .compiler import Gallery, GuardConfig, embed
from .complexes import CubicalComplex, face_dim, validate_complex
from .formulas import (
    Band,
    CnfFormula,
    VarEq,
    _lit_true,
    eval_formula,
    grid_axes,
)
from .gadgets import CopyStrip
from .geom import (
    GeometryError,
    Point,
    SimplePolygon,
    _on_segment_collinear,
    _projection_param,
    _visibility,
    hausdorff_distance_sq_max,
    hpoint,
    intersect_lines,
    midpoint,
    orient,
    orient_h,
    visibility_fan,
    visible,
)


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class CoverageReport:
    covered: bool
    uncovered_witness: Point | None
    method: str
    witness_count: int

    def __post_init__(self):
        if not self.covered and self.uncovered_witness is None:
            raise VerifyError("uncovered report must carry a witness")


def _witness_points(poly: SimplePolygon, gallery: Gallery | None,
                    edge_density: int, occluded_density: int) -> list[Point]:
    # gallery-specific witnesses first: they are the points the proofs
    # argue about, and the first to fail when coverage breaks
    pts: list[Point] = []
    if gallery is not None:
        for cg in gallery.clause_gadgets:
            pts.append(cg.witness_point)
        for vg in gallery.variable_gadgets:
            pts.extend((vg.F, vg.I, vg.J))
        for pair in gallery.copy_pairs:
            cp = pair.gadget
            for k in range(occluded_density + 1):
                t = Fraction(k, occluded_density)
                pts.append(cp.ab_image(t))
                pts.append(cp.uv_image(t))
    pts.extend(poly.vertices)
    for a, b in poly.edges():
        for k in range(1, edge_density + 1):
            t = Fraction(k, edge_density + 1)
            pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return list(dict.fromkeys(pts))


def covers(poly_or_gallery, guards: GuardConfig, mode: str = "witness",
           edge_density: int = 4, occluded_density: int = 16) -> CoverageReport:
    """Check that the guard set sees every point of the polygon.

    Witness mode screens a finite point set: every polygon vertex, slit
    apex, clause witness point, samples along the occluded chamber edges,
    and boundary samples at the given density.

    Exact mode is the ground truth, by the window argument of exact art
    gallery solvers.  Each guard g has a visibility polygon VP(g), closed
    and star-shaped; its windows are the edges, or parts of edges, that
    run through the polygon's interior, with VP(g) on their left.  The
    part of the polygon outside every VP(g) is relatively open, so if it
    is not empty it has area, and inside the polygon it is bounded by
    windows: some stretch of some window has it on its right (hidden)
    side.  Each window is cut at every point where another guard's window
    crosses, touches or stops on it.  Along one piece, which other guard
    covers the right side cannot change, so the midpoint m decides it:
    the side is covered iff m is inside another VP(j), or m lies on a
    window of another guard that runs along the piece in the opposite
    direction.  If every piece is covered, so is the polygon (its
    boundary edges are also interval-covered, including collinear
    grazing runs).  Otherwise the report carries a certificate: a point
    beside m on the hidden side, inside the polygon and seen by no guard.
    In exact mode `witness_count` is the number of window pieces tested.
    """
    gallery = poly_or_gallery if isinstance(poly_or_gallery, Gallery) else None
    poly = gallery.polygon if gallery else poly_or_gallery
    gpts = list(guards.guards)
    for g in gpts:
        if poly.locate(g) == "out":
            raise VerifyError(f"guard {g} outside polygon")

    if mode == "witness":
        pts = _witness_points(poly, gallery, edge_density, occluded_density)
        last_good = 0
        for w in pts:
            order = [last_good] + [i for i in range(len(gpts)) if i != last_good]
            for gi in order:
                if visible(poly, gpts[gi], w):
                    last_good = gi
                    break
            else:
                return CoverageReport(False, w, "witness-sample", len(pts))
        return CoverageReport(True, None, "witness-sample", len(pts))
    if mode == "boundary":
        report = _exact_boundary_cover(poly, gpts)
        return report
    if mode != "exact":
        raise VerifyError(f"unknown coverage mode {mode!r}")

    views = [_visibility(poly, g) for g in gpts]
    vps = [vp for _, vp, _ in views]
    windows = [(gi, a, b) for gi, (_, _, ws) in enumerate(views)
               for a, b in ws]
    tested = 0
    last_good = 0
    for (gi, a, b), (stops, opposite) in zip(windows, _cut_windows(windows)):
        for c0, c1 in zip(stops, stops[1:]):
            tested += 1
            m = midpoint(c0, c1)
            hm = hpoint(m)
            if any(_on_segment_collinear(hc, hd, hm) for hc, hd in opposite):
                continue
            order = [last_good] + [j for j in range(len(gpts)) if j != last_good]
            for j in order:
                if j != gi and vps[j].locate(m) == "in":
                    last_good = j
                    break
            else:
                return CoverageReport(False, _hidden_side_witness(poly, gpts, c0, c1),
                                      "exact-union", tested)

    boundary = _exact_boundary_cover(poly, gpts, [fan for fan, _, _ in views])
    if not boundary.covered:
        return CoverageReport(False, boundary.uncovered_witness, "exact-union",
                              tested)
    return CoverageReport(True, None, "exact-union", tested)


def _cut_windows(windows):
    """For each window (guard index, a, b): its cut points sorted from a to
    b, ends included, and the (homogeneous) windows of other guards that
    lie along it in the opposite direction.

    Cuts are the crossings and touches with other guards' windows and the
    ends of collinear overlaps.  Windows of one guard never cross (they
    are edges of one simple polygon).  Candidate pairs come from a sweep
    over integer-rounded x-extents, then integer y-extents.
    """
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
            if o1 * o2 > 0 or orient_h(hc, hd, ha) * orient_h(hc, hd, hb) > 0:
                continue
            x = intersect_lines(a, b, c, d)
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


def _hidden_side_witness(poly: SimplePolygon, gpts, a: Point, b: Point) -> Point:
    """A point beside the midpoint m of window piece ab, on its hidden
    (right) side, that is inside the polygon and seen by no guard.

    Candidates are m + t*n + t^2*(b - a) for t = 1/2, 1/4, ..., with n
    the right normal.  Close to m every candidate is outside every
    visibility polygon, so only a zero-width line of sight can still
    reach one; the candidates lie on a parabola, which meets each such
    line at most twice.
    """
    m = midpoint(a, b)
    dx, dy = b.x - a.x, b.y - a.y
    t = Fraction(1, 2)
    for _ in range(64):
        w = Point(m.x + t * dy + t * t * dx, m.y - t * dx + t * t * dy)
        if poly.locate(w) == "in" and not any(visible(poly, g, w) for g in gpts):
            return w
        t /= 2
    raise VerifyError("internal inconsistency: no certified witness beside "
                      f"the uncovered window piece {a}-{b}")


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
                return CoverageReport(False, w, "exact-boundary", n)
            intervals[i].append((gap, gap))
            gap2 = _interval_gap(intervals[i])
            if gap2 is not None:
                w = Point(a.x + gap2 * (b.x - a.x), a.y + gap2 * (b.y - a.y))
                if all(not visible(poly, g, w) for g in gpts):
                    return CoverageReport(False, w, "exact-boundary", n)
    return CoverageReport(True, None, "exact-boundary", n)


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


# --- copy gadget verification ------------------------------------------


def _candidate_grid(poly: SimplePolygon, grid: tuple[int, int]) -> list[Point]:
    """The polygon's vertices, then the points of a uniform nx-by-ny grid
    over its bounding box that are not outside it (repeats kept)."""
    x0, y0, x1, y1 = poly._bbox
    nx, ny = grid
    out = list(poly.vertices)
    for i in range(nx + 1):
        for j in range(ny + 1):
            p = Point(x0 + (x1 - x0) * Fraction(i, nx),
                      y0 + (y1 - y0) * Fraction(j, ny))
            if poly.locate(p) != "out":
                out.append(p)
    return out


@dataclass(frozen=True)
class CopyGadgetReport:
    single_guard_candidates: int
    pair_samples: int
    mismatch_samples: int
    passed: bool
    notes: tuple[str, ...] = ()


def verify_copy_gadget(strip: CopyStrip, seed: int = 0, samples: int = 32,
                       grid: tuple[int, int] = (24, 18)) -> CopyGadgetReport:
    """Mechanical Lemma-3 contract check on an isolated strip.

    (a) no single grid guard sees all four apexes F, I, M, P;
    (b) same-parameter pairs cover the strip's witness set;
    (c) mismatched pairs leave a certified uncovered point on AB or UV.
    """
    poly = strip.polygon
    apexes = strip.apexes
    four = [apexes[k] for k in ("F", "I", "M", "P")]
    rng = random.Random(seed)

    candidates = _candidate_grid(poly, grid)
    for p in candidates:
        if all(visible(poly, p, q) for q in four):
            raise VerifyError(f"single guard at {p} sees all four apexes")

    witnesses = _strip_witnesses(strip)
    for _ in range(samples):
        t = Fraction(rng.randint(0, 128), 128)
        up, lo = strip.guards_at(t)
        for w in witnesses:
            if not (visible(poly, up, w) or visible(poly, lo, w)):
                raise VerifyError(
                    f"equal parameters t={t} leave witness {w} uncovered")

    mism = 0
    while mism < samples:
        t = Fraction(rng.randint(0, 128), 128)
        t2 = Fraction(rng.randint(0, 128), 128)
        if t == t2:
            continue
        mism += 1
        up, lo = strip.guards_at(t, t2)
        cg = strip.copy
        if t > t2:
            a, b = cg.ab_image(t), cg.ab_image(t2)
        else:
            a, b = cg.uv_image(t), cg.uv_image(t2)
        w = midpoint(a, b)
        if visible(poly, up, w) or visible(poly, lo, w):
            raise VerifyError(
                f"mismatch t={t}, t'={t2}: witness {w} unexpectedly covered")
    return CopyGadgetReport(len(candidates), samples, mism, True)


def _strip_witnesses(strip: CopyStrip) -> list[Point]:
    pts = list(strip.polygon.vertices)
    pts.extend(strip.apexes.values())
    cg = strip.copy
    for k in range(17):
        t = Fraction(k, 16)
        pts.append(cg.ab_image(t))
        pts.append(cg.uv_image(t))
    return list(dict.fromkeys(pts))


# --- brute force minimal guards ------------------------------------------


def brute_force_min_guards(poly: SimplePolygon, k_max: int,
                           grid: tuple[int, int] = (8, 8),
                           extra_candidates=(), budget: int = 200_000):
    """Smallest k <= k_max such that some k-subset of grid candidates covers
    the polygon in exact mode, or the string '> k_max'.

    The candidate set is the polygon's vertices, a uniform grid, and any
    extra candidates supplied (e.g. guard segment endpoints).  A witness
    screen discards most subsets before the exact check.
    """
    candidates = _candidate_grid(poly, grid)
    candidates += [p for p in extra_candidates if poly.locate(p) != "out"]
    candidates = list(dict.fromkeys(candidates))

    screen = _witness_points(poly, None, 2, 0)
    vis_table = []
    for p in candidates:
        vis_table.append({i for i, w in enumerate(screen) if visible(poly, p, w)})
    all_w = set(range(len(screen)))

    tried = 0
    for k in range(1, k_max + 1):
        for subset in combinations(range(len(candidates)), k):
            tried += 1
            if tried > budget:
                raise VerifyError("combinatorial budget exceeded")
            hit = set()
            for i in subset:
                hit |= vis_table[i]
            if hit != all_w:
                continue
            config = GuardConfig(tuple(candidates[i] for i in subset))
            if covers(poly, config, mode="exact").covered:
                return k
    return f"> {k_max}"


# --- solution space sampling ----------------------------------------------


@dataclass(frozen=True)
class SampleReport:
    on_checked: int
    off_checked: int
    pair_checked: int
    seed: int
    passed: bool
    lines: tuple[str, ...]

    def to_text(self) -> str:
        head = (f"sample_solution_space seed={self.seed} on={self.on_checked} "
                f"off={self.off_checked} pairs={self.pair_checked} "
                f"passed={self.passed}\n")
        return head + "".join(l + "\n" for l in self.lines)


def _rand_interior(rng: random.Random, den: int = 64) -> Fraction:
    return Fraction(rng.randint(1, den - 1), den)


def on_face_samples(k: CubicalComplex, count: int, rng: random.Random):
    """Points stratified over the maximal faces, interior parameters rational."""
    faces = k.maximal_faces()
    out = []
    for idx in range(count):
        face = faces[idx % len(faces)]
        x = []
        for v in face:
            x.append(_rand_interior(rng) if v is None else Fraction(v))
        out.append(x)
    return out


def off_samples_for(f: CnfFormula, count: int, rng: random.Random):
    """Representatives of grid cells where the formula is false."""
    cells = [xs for xs in product(*grid_axes(f)) if not eval_formula(f, xs)]
    if not cells:
        raise VerifyError("formula is a tautology on the cube; no off cells")
    return [list(cells[rng.randrange(len(cells))]) for _ in range(count)]


def sample_solution_space(g: Gallery, k: CubicalComplex, on_count: int = 120,
                          off_count: int = 100, seed: int = 0,
                          pair_count: int = 50) -> SampleReport:
    """Sampled evidence for the guard-space/complex correspondence.

    On-face points must be covered and off-complex grid representatives
    must not be; embedded pairs respect the Hausdorff sup-norm equality.
    Deterministic for a fixed seed.
    """
    validate_complex(k)
    if k.n != g.formula.n:
        raise VerifyError("complex dimension does not match gallery formula")
    rng = random.Random(seed)
    lines = []

    ons = on_face_samples(k, on_count, rng)
    for x in ons:
        if not k.contains_point(x):
            raise VerifyError(f"sampled point {x} not on the complex")
        if not eval_formula(g.formula, x):
            raise VerifyError(f"gallery formula false on complex point {x}")
        rep = covers(g, embed(g, x), mode="witness")
        if not rep.covered:
            lines.append(f"FAIL on-face {x}: uncovered {rep.uncovered_witness}")
    offs = off_samples_for(g.formula, off_count, rng)
    for x in offs:
        rep = covers(g, embed(g, x), mode="witness")
        if rep.covered:
            lines.append(f"FAIL off-cell {x}: unexpectedly covered")
        else:
            w = rep.uncovered_witness
            if any(visible(g.polygon, gp, w) for gp in embed(g, x).guards):
                lines.append(f"FAIL off-cell witness not certified at {x}")

    sep_sq = g.separation_sq()
    widths = {v: g.segment_width(v) for v in g.columns}
    pair_checked = 0
    for _ in range(pair_count):
        x = [_rand_interior(rng) for _ in range(g.formula.n)]
        dx = [Fraction(rng.randint(-16, 16), 2048) for _ in range(g.formula.n)]
        x2 = [min(Fraction(1), max(Fraction(0), a + d)) for a, d in zip(x, dx)]
        deltas = [abs(a - b) for a, b in zip(x, x2)]
        moved = [v for v in range(g.formula.n) if v in widths and deltas[v] > 0]
        if not moved:
            continue
        expected = max(widths[v] * deltas[v] for v in moved) ** 2
        if expected > sep_sq or expected == 0:
            continue
        pair_checked += 1
        ga, gb = embed(g, x), embed(g, x2)
        d2 = hausdorff_distance_sq_max(ga.guards, gb.guards)
        if d2 != expected:
            lines.append(f"FAIL embed metric at {x} vs {x2}: {d2} != {expected}")
        if d2 <= 0:
            lines.append(f"FAIL embed injectivity at {x} vs {x2}")
    passed = not lines
    if passed:
        lines = [f"PASS on-face coverage ({len(ons)} points)",
                 f"PASS off-cell non-coverage ({len(offs)} points)",
                 f"PASS embed metric/injectivity ({pair_checked} pairs)"]
    return SampleReport(len(ons), len(offs), pair_checked, seed, passed,
                        tuple(lines))


# --- cell complexes and surface classification -----------------------------


@dataclass(frozen=True)
class CellComplex2:
    """2-dimensional cell complex with explicit incidence.

    cells[d] is a tuple of hashable cell ids; boundary maps a 2-cell to its
    4-cycle of 1-cells and a 1-cell to its two 0-cells (loops collapse)."""
    cells0: tuple
    cells1: tuple
    cells2: tuple
    bnd1: dict
    bnd2: dict

    def euler_characteristic(self) -> int:
        return len(self.cells0) - len(self.cells1) + len(self.cells2)


@dataclass(frozen=True)
class SurfaceType:
    closed: bool
    orientable: bool
    chi: int
    genus: int | None
    boundary_circles: int

    def describe(self) -> str:
        if self.closed:
            kind = "orientable" if self.orientable else "non-orientable"
            return f"closed {kind} genus {self.genus} (chi = {self.chi})"
        kind = "orientable" if self.orientable else "non-orientable"
        return (f"surface with {self.boundary_circles} boundary circle(s), "
                f"{kind}, chi = {self.chi}")


def complex_to_cell_complex(k: CubicalComplex) -> CellComplex2:
    """Cell complex of a cubical complex of dimension <= 2."""
    validate_complex(k)
    if k.dimension() > 2:
        raise VerifyError("only 2-dimensional complexes classify as surfaces")
    c0, c1, c2 = [], [], []
    for f in sorted(k.faces, key=str):
        d = face_dim(f)
        (c0, c1, c2)[d].append(("f", f))
    bnd1 = {}
    bnd2 = {}
    from .complexes import subfaces
    for tag in c1:
        _, f = tag
        subs = sorted(set(subfaces(f)), key=str)
        bnd1[tag] = tuple(("f", s) for s in subs)
    for tag in c2:
        _, f = tag
        edges = sorted(set(subfaces(f)), key=str)
        bnd2[tag] = _square_cycle(f, [(e, ("f", e)) for e in edges])
    return CellComplex2(tuple(c0), tuple(c1), tuple(c2), bnd1, bnd2)


def _square_cycle(face, tagged_edges):
    """Order the 4 edges of a square face into a boundary cycle.

    tagged_edges is a list of (edge_face, cell_tag) pairs."""
    free = [i for i, v in enumerate(face) if v is None]
    i, j = free
    by_fix = {}
    for e, tag in tagged_edges:
        if e[i] is not None:
            by_fix[("i", e[i])] = tag
        else:
            by_fix[("j", e[j])] = tag
    return (by_fix[("j", 0)], by_fix[("i", 1)], by_fix[("j", 1)], by_fix[("i", 0)])


def build_cell_complex(f: CnfFormula) -> CellComplex2:
    """Cell decomposition of a band formula's solution set.

    x0 cells are the band constants (points) and open bands; each slice
    must realize a cubical complex of dimension <= 2 at constants and
    <= 1 on bands, with band slices contained in both endpoint slices.
    """
    if not f.band_constants:
        raise VerifyError("build_cell_complex needs a formula with bands")
    ks = f.band_constants
    nb = len(ks) - 1
    sub_n = f.n - 1

    def slice_complex(x0: Fraction) -> CubicalComplex:
        # restrict to x0: drop the clauses an x0 literal satisfies and
        # shift the rest, deduplicated, onto x1..xn; a clause left empty
        # empties the slice
        clauses = []
        for cl in f.clauses:
            if any(_on_x0(lit) and _lit_true(lit, (x0,), ks) for lit in cl):
                continue
            rest = tuple(VarEq(lit.var - 1, lit.const)
                         for lit in cl if not _on_x0(lit))
            if not rest:
                clauses = None
                break
            clauses.append(rest)
        faces = set()
        if clauses is not None:
            reduced = CnfFormula(sub_n, tuple(dict.fromkeys(clauses)))
            for face in _all_faces(sub_n, sub_n):
                rep = [Fraction(1, 2) if v is None else Fraction(v)
                       for v in face]
                if eval_formula(reduced, rep):
                    faces.add(face)
        k = CubicalComplex(sub_n, frozenset(faces))
        validate_complex(k)
        return k

    point_slices = [slice_complex(kv) for kv in ks]
    band_slices = [slice_complex((ks[b] + ks[b + 1]) / 2) for b in range(nb)]

    cells0, cells1, cells2 = [], [], []
    bnd1, bnd2 = {}, {}
    from .complexes import subfaces
    for b, sl in enumerate(point_slices):
        if sl.dimension() > 2:
            raise VerifyError("point slice has dimension above 2")
        for face in sorted(sl.faces, key=str):
            tag = ("pt", b, face)
            d = face_dim(face)
            (cells0, cells1, cells2)[d].append(tag)
            if d == 1:
                bnd1[tag] = tuple(("pt", b, s) for s in sorted(set(subfaces(face)), key=str))
            if d == 2:
                edges = [(e, ("pt", b, e)) for e in sorted(set(subfaces(face)), key=str)]
                bnd2[tag] = _square_cycle(face, edges)
    for b, sl in enumerate(band_slices):
        if sl.dimension() > 1:
            raise VerifyError(
                "band slice has dimension above 1: not a surface formula")
        for face in sorted(sl.faces, key=str):
            if face not in point_slices[b].faces or \
                    face not in point_slices[b + 1].faces:
                raise VerifyError("band slice not contained in its end slices")
            d = face_dim(face)
            tag = ("band", b, face)
            if d == 0:
                cells1.append(tag)
                bnd1[tag] = (("pt", b, face), ("pt", b + 1, face))
            else:
                cells2.append(tag)
                subs = sorted(set(subfaces(face)), key=str)
                bnd2[tag] = (("pt", b, face), ("band", b, subs[1]),
                             ("pt", b + 1, face), ("band", b, subs[0]))
    return CellComplex2(tuple(cells0), tuple(cells1), tuple(cells2), bnd1, bnd2)


def _on_x0(lit) -> bool:
    return isinstance(lit, Band) or lit.var == 0


def _all_faces(n: int, max_dim: int):
    for dims in product((0, 1, None), repeat=n):
        if sum(1 for v in dims if v is None) <= max_dim:
            yield tuple(dims)


def classify_surface(c: CellComplex2) -> SurfaceType:
    """Closed-surface test, orientability, and genus from the cell data."""
    # edge-to-face incidence
    inc: dict = {e: [] for e in c.cells1}
    for f in c.cells2:
        for e in c.bnd2[f]:
            inc[e].append(f)
    boundary_edges = []
    for e, fs in inc.items():
        if len(fs) > 2:
            raise VerifyError(f"non-pseudomanifold: 1-cell {e} in {len(fs)} 2-cells")
        if len(fs) == 1:
            boundary_edges.append(e)
        if len(fs) == 0:
            raise VerifyError(f"dangling 1-cell {e}")
    closed = not boundary_edges

    _check_connected(c)
    _check_vertex_links(c, inc)

    orientable = _orientable(c, inc)
    chi = c.euler_characteristic()
    circles = _boundary_circle_count(c, boundary_edges)
    genus = None
    if closed:
        if orientable:
            if (2 - chi) % 2 != 0:
                raise VerifyError("impossible chi for an orientable surface")
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
    return SurfaceType(closed, orientable, chi, genus, circles)


def _check_connected(c: CellComplex2):
    if not c.cells2:
        raise VerifyError("no 2-cells to classify")
    adj: dict = {f: set() for f in c.cells2}
    by_edge: dict = {}
    for f in c.cells2:
        for e in c.bnd2[f]:
            by_edge.setdefault(e, []).append(f)
    for fs in by_edge.values():
        for a in fs:
            for b in fs:
                if a != b:
                    adj[a].add(b)
    seen = set()
    todo = [c.cells2[0]]
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        todo.extend(adj[f])
    if len(seen) != len(c.cells2):
        raise VerifyError("surface is not connected")


def _check_vertex_links(c: CellComplex2, inc):
    # the link of each 0-cell must be a single cycle (interior) or path
    edges_at: dict = {v: set() for v in c.cells0}
    for e in c.cells1:
        for v in c.bnd1[e]:
            edges_at[v].add(e)
    # 2-cells at each 0-cell, in cells2 order
    faces_at: dict = {v: {} for v in c.cells0}
    for f in c.cells2:
        for e in c.bnd2[f]:
            for v in c.bnd1[e]:
                faces_at[v][f] = None
    for v in c.cells0:
        link_adj: dict = {e: set() for e in edges_at[v]}
        for f in faces_at[v]:
            cyc = c.bnd2[f]
            local = [e for e in cyc if v in c.bnd1[e]]
            if len(local) != 2:
                raise VerifyError(f"2-cell {f} touches vertex {v} oddly")
            a, b = local
            link_adj[a].add(b)
            link_adj[b].add(a)
        if not link_adj:
            raise VerifyError(f"isolated vertex {v}")
        start = next(iter(link_adj))
        seen = {start}
        todo = [start]
        while todo:
            e = todo.pop()
            for e2 in link_adj[e]:
                if e2 not in seen:
                    seen.add(e2)
                    todo.append(e2)
        if len(seen) != len(link_adj):
            raise VerifyError(f"pinched vertex {v}: link is disconnected")


def _orientable(c: CellComplex2, inc) -> bool:
    # propagate 2-cell orientations; adjacent cells must induce opposite
    # directions on their shared edge
    def edge_sense(f, e, flipped):
        cyc = c.bnd2[f]
        # traversal of the 4-cycle visits vertices in order; edge at pos
        # runs from corner pos to corner pos+1.  We recover its sense by
        # matching shared vertices of consecutive edges: the start corner
        # is shared with the previous edge and, if that leaves two
        # candidates, not with the next one.
        pos = cyc.index(e)
        shared = set(c.bnd1[e]) & set(c.bnd1[cyc[pos - 1]])
        if not shared:
            raise VerifyError("broken 2-cell boundary cycle")
        if len(shared) > 1:
            shared -= set(c.bnd1[cyc[(pos + 1) % len(cyc)]])
        if len(shared) != 1:
            raise VerifyError(f"ambiguous corner of edge {e} in 2-cell {f}")
        (start,) = shared
        sense = (c.bnd1[e][0] == start)
        return sense != flipped

    flip: dict = {}
    for root in c.cells2:
        if root in flip:
            continue
        flip[root] = False
        todo = [root]
        while todo:
            f = todo.pop()
            for e in c.bnd2[f]:
                for f2 in inc[e]:
                    if f2 == f:
                        continue
                    want = not edge_sense(f, e, flip[f])
                    have = edge_sense(f2, e, False)
                    need_flip = (have != want)
                    if f2 not in flip:
                        flip[f2] = need_flip
                        todo.append(f2)
                    elif flip[f2] != need_flip:
                        return False
    return True


def _boundary_circle_count(c: CellComplex2, boundary_edges) -> int:
    if not boundary_edges:
        return 0
    adj: dict = {}
    for e in boundary_edges:
        for v in c.bnd1[e]:
            adj.setdefault(v, set()).add(e)
    circles = 0
    seen = set()
    for e in boundary_edges:
        if e in seen:
            continue
        circles += 1
        todo = [e]
        while todo:
            cur = todo.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for v in c.bnd1[cur]:
                for e2 in adj[v]:
                    if e2 not in seen:
                        todo.append(e2)
    return circles
