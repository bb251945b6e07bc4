"""Mechanical verification: coverage checking, copy-gadget contract tests,
brute-force guard search, solution-manifold sampling, and combinatorial
surface classification."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .compiler import Gallery, GuardConfig, embed
from .complexes import (
    CubicalComplex,
    complex_to_dnf,
    face_dim,
    subfaces,
    validate_complex,
)
from .formulas import (
    Band,
    CnfFormula,
    eval_formula,
    grid_axes,
    separating_point,
)
from .gadgets import CopyStrip
from .geom import (
    Point,
    SimplePolygon,
    hausdorff_distance_sq_max,
    midpoint,
    pocket_test,
    visible,
    window_test,
)


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class CoverageReport:
    covered: bool
    uncovered_witness: Point | None
    witness_count: int

    def __post_init__(self):
        if not self.covered and self.uncovered_witness is None:
            raise VerifyError("uncovered report must carry a witness")


def covers(poly_or_gallery, guards: GuardConfig,
           mode: str = "exact") -> CoverageReport:
    """Decide exactly whether the guard set sees every point of the
    polygon.  `mode` has the one value "exact"; it stays a parameter so
    that callers passing it keep working.  A `Gallery` is read as its
    polygon.  With no guard, a polygon vertex is returned: nothing is
    seen.

    A room (a rectangle with convex pockets cut through its side walls,
    as every gallery is) whose guards all lie in its open rectangle takes
    the pocket test (`geom.pocket_test`).  Every guard sees the whole
    closed rectangle; it sees into a pocket only through the pocket's
    mouth, so the guards cover the polygon iff they cover each pocket;
    and the part of a pocket that no guard sees is a staircase of wedges
    between the lines from the guards through the mouth corners, which
    clipping the pocket decides.  An uncovered pocket gives a point of
    its interior outside every guard's wedge, which `visible` certifies
    here.  `witness_count` is the number of pockets checked.

    Any other polygon, or a guard elsewhere (on the rectangle's boundary
    or in a pocket), takes the window test (`geom.window_test`), the
    argument of exact art gallery solvers: cut the windows at the windows
    of the other guards, and test each piece's hidden side at its midpoint
    m.  If a piece is not covered, the report carries a certificate: a
    point beside m on the hidden side, inside the polygon and seen by no
    guard.  `witness_count` is then the number of window pieces tested.
    """
    if mode != "exact":
        raise VerifyError(f"unknown coverage mode {mode!r}")
    poly = (poly_or_gallery.polygon if isinstance(poly_or_gallery, Gallery)
            else poly_or_gallery)
    gpts = list(guards.guards)
    for g in gpts:
        if poly.locate(g) == "out":
            raise VerifyError(f"guard {g} outside polygon")
    if not gpts:
        # both tests below need a guard; with none, nothing is seen
        return CoverageReport(False, poly.vertices[0], 0)
    found = pocket_test(poly, gpts)
    if found is not None:
        checked, w = found
        if w is not None and (poly.locate(w) != "in"
                              or any(visible(poly, g, w) for g in gpts)):
            raise VerifyError("internal inconsistency: the pocket test's "
                              f"witness {w} is not certified")
        return CoverageReport(w is None, w, checked)
    pieces, bad = window_test(poly, gpts)
    if bad is not None:
        return CoverageReport(False, _hidden_side_witness(poly, gpts, *bad),
                              pieces)
    return CoverageReport(True, None, pieces)


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


# --- copy gadget verification ------------------------------------------


def _candidate_grid(poly: SimplePolygon, grid: tuple[int, int]) -> list[Point]:
    """The polygon's vertices, then the points of a uniform nx-by-ny grid
    over its bounding box that are not outside it (repeats kept)."""
    x0, y0, x1, y1 = poly.bbox
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
    (b) same-parameter pairs cover the strip (exact `covers`);
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

    for _ in range(samples):
        t = Fraction(rng.randint(0, 128), 128)
        report = covers(poly, GuardConfig(strip.guards_at(t)))
        if not report.covered:
            raise VerifyError(f"equal parameters t={t} leave point "
                              f"{report.uncovered_witness} unseen")

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


# --- brute force minimal guards ------------------------------------------


def brute_force_min_guards(poly: SimplePolygon, k_max: int,
                           grid: tuple[int, int] = (8, 8),
                           extra_candidates=(), budget: int = 200_000):
    """Smallest k <= k_max such that some k-subset of grid candidates covers
    the polygon, or the string '> k_max'.

    The candidate set is the polygon's vertices, a uniform grid, and any
    extra candidates supplied (e.g. guard segment endpoints).  A subset
    must see every point of `_screen_points` before `covers` decides it.
    """
    candidates = _candidate_grid(poly, grid)
    candidates += [p for p in extra_candidates if poly.locate(p) != "out"]
    candidates = list(dict.fromkeys(candidates))

    screen = _screen_points(poly)
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
            if covers(poly, config).covered:
                return k
    return f"> {k_max}"


def _screen_points(poly: SimplePolygon) -> list[Point]:
    """The polygon's vertices, then the two points that cut each edge in
    thirds, without repeats.  A cover must see all of them."""
    pts = list(poly.vertices)
    for a, b in poly.edges():
        for t in (Fraction(1, 3), Fraction(2, 3)):
            pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return list(dict.fromkeys(pts))


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


def _off_cells(f: CnfFormula) -> list[tuple]:
    """The representatives of the grid cells where the formula is false."""
    cells = [xs for xs in product(*grid_axes(f)) if not eval_formula(f, xs)]
    if not cells:
        raise VerifyError("formula is a tautology on the cube; no off cells")
    return cells


def _draw_cells(cells: list[tuple], count: int, rng: random.Random):
    """count draws with replacement from cells, each as a list."""
    return [list(cells[rng.randrange(len(cells))]) for _ in range(count)]


def off_samples_for(f: CnfFormula, count: int, rng: random.Random):
    """Representatives of grid cells where the formula is false, count
    draws with replacement."""
    return _draw_cells(_off_cells(f), count, rng)


def _fmt(xs) -> str:
    """A point of the cube as the reports write it, e.g. (1/2, 1/2)."""
    return f"({', '.join(map(str, xs))})"


def sample_solution_space(g: Gallery, k: CubicalComplex, on_count: int = 120,
                          off_count: int = 100, seed: int = 0,
                          pair_count: int = 50) -> SampleReport:
    """Evidence for the guard-space/complex correspondence.

    The complex and the gallery formula must be equal, which an exact
    grid check decides.  The guards of sampled on-face points must cover
    the gallery and those of off-cell grid representatives must not, as
    `covers` proves for each sample (an on-face sample where the formula
    is false fails unchecked); an off-cell's uncovered witness is
    certified by `covers` itself.  The off cells are counted once and
    drawn with replacement, as `off_samples_for` draws them, and each
    distinct cell drawn is checked once, in the order of its first draw;
    `off_checked` counts those cells.
    Embedded pairs respect the Hausdorff sup-norm equality.  Deterministic
    for a fixed seed.
    """
    validate_complex(k)
    if k.n != g.formula.n:
        raise VerifyError("complex dimension does not match gallery formula")
    rng = random.Random(seed)
    lines = []

    sep = separating_point(complex_to_dnf(k), g.formula)
    if sep is not None:
        lines.append(f"FAIL complex equals gallery formula: {_fmt(sep)} "
                     + ("satisfies the formula but is off the complex"
                        if eval_formula(g.formula, sep) else
                        "is on the complex but fails the formula"))

    ons = on_face_samples(k, on_count, rng)
    configs = []  # (x, guards) for the samples where the formula holds
    for x in ons:
        if not k.contains_point(x):
            raise VerifyError(f"sampled point {_fmt(x)} not on the complex")
        if not eval_formula(g.formula, x):
            lines.append(f"FAIL on-face {_fmt(x)}: formula false, coverage not checked")
            continue
        configs.append((x, embed(g, x)))
    for x, guards in configs:
        rep = covers(g, guards)
        if not rep.covered:
            lines.append(f"FAIL on-face {_fmt(x)}: uncovered {rep.uncovered_witness}")
    off_cells = _off_cells(g.formula)
    offs = [list(xs) for xs in dict.fromkeys(
        map(tuple, _draw_cells(off_cells, off_count, rng)))]
    for x in offs:
        guards = embed(g, x)
        rep = covers(g, guards)
        if rep.covered:
            lines.append(f"FAIL off-cell {_fmt(x)}: unexpectedly covered")

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
            lines.append(f"FAIL embed metric at {_fmt(x)} vs {_fmt(x2)}: "
                         f"{d2} != {expected}")
        if d2 <= 0:
            lines.append(f"FAIL embed injectivity at {_fmt(x)} vs {_fmt(x2)}")
    passed = not lines
    if passed:
        lines = ["PASS complex equals gallery formula (exact grid check)",
                 f"PASS on-face coverage ({len(ons)} points)",
                 f"PASS off-cell non-coverage ({len(offs)} distinct cells "
                 f"of {len(off_cells)})",
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
    cells: tuple[list, list, list] = ([], [], [])
    bnd1: dict = {}
    bnd2: dict = {}
    _add_face_cells(_face_plan(k.faces), lambda f: ("f", f), cells, bnd1, bnd2)
    return CellComplex2(*map(tuple, cells), bnd1, bnd2)


def _face_plan(faces) -> list[tuple]:
    """(face, dimension, boundary faces) for each cubical face, in str
    order of the faces: a 1-face's two ends in str order, a 2-face's four
    edges in the cycle order of `_square_cycle`, nothing for a 0-face."""
    plan = []
    for f in sorted(faces, key=str):
        d = face_dim(f)
        bnd = ()
        if d == 1:
            bnd = tuple(sorted(set(subfaces(f)), key=str))
        elif d == 2:
            bnd = _square_cycle(f, subfaces(f))
        plan.append((f, d, bnd))
    return plan


def _add_face_cells(plan, tag, cells, bnd1, bnd2):
    """Append one cell per face of a `_face_plan` of dimension <= 2, in
    its order, to cells[dimension], with its boundary in bnd1 or bnd2;
    tag(face) is the cell's id."""
    for f, d, bnd in plan:
        t = tag(f)
        cells[d].append(t)
        if d:
            (bnd1 if d == 1 else bnd2)[t] = tuple(map(tag, bnd))


def _square_cycle(face, edges):
    """Order the 4 edges of a square face into a boundary cycle."""
    free = [i for i, v in enumerate(face) if v is None]
    i, j = free
    by_fix = {}
    for e in edges:
        if e[i] is not None:
            by_fix[("i", e[i])] = e
        else:
            by_fix[("j", e[j])] = e
    return (by_fix[("j", 0)], by_fix[("i", 1)], by_fix[("j", 1)], by_fix[("i", 0)])


def build_cell_complex(f: CnfFormula) -> CellComplex2:
    """Cell decomposition of a band formula's solution set.

    x0 cells are the band constants (points) and open bands; each slice
    must realize a cubical complex of dimension <= 2 at constants and
    <= 1 on bands, with band slices contained in both endpoint slices.
    """
    if not f.band_constants:
        raise VerifyError("build_cell_complex needs a formula with bands")
    nb = len(f.band_constants) - 1
    sub_n = f.n - 1

    # each face with its (index, value) pairs; the pair of a free
    # coordinate, (index, None), matches no literal
    all_faces = [(face, frozenset(enumerate(face)))
                 for face in product((0, 1, None), repeat=sub_n)]

    # each clause as its x0 literals and its other literals shifted onto
    # x1..xn.  A face satisfies a shifted literal iff it fixes that
    # coordinate to the constant (a free coordinate is 1/2 on the face,
    # never 0 or 1)
    split = [(tuple(lit for lit in cl if _on_x0(lit)),
              frozenset((lit.var - 1, lit.const) for lit in cl if not _on_x0(lit)))
             for cl in f.clauses]
    # slices with the same restricted clauses are the same complex: each
    # distinct clause set is filtered and validated once
    built: dict[frozenset, CubicalComplex] = {}

    def slice_complex(holds) -> CubicalComplex:
        # restrict to one x0 cell: drop the clauses an x0 literal satisfies
        # there (holds decides it) and keep the rest, deduplicated; a
        # clause left empty empties the slice
        clauses = frozenset(rest for on_x0, rest in split
                            if not any(map(holds, on_x0)))
        if clauses not in built:
            faces = [face for face, pairs in all_faces
                     if all(not pairs.isdisjoint(cl) for cl in clauses)]
            built[clauses] = validate_complex(
                CubicalComplex(sub_n, frozenset(faces)))
        return built[clauses]

    # 0 = k_0 < ... < k_nb = 1 (CnfFormula checks it), so at x0 = k_b
    # Band(j) holds iff j <= b <= j + 1, and x0 = c iff k_b = c; inside
    # band b, Band(j) holds iff j == b, and x0 = c never does
    point_slices = [
        slice_complex(lambda lit, b=b: lit.index <= b <= lit.index + 1
                      if isinstance(lit, Band) else b == lit.const * nb)
        for b in range(nb + 1)]
    band_slices = [
        slice_complex(lambda lit, b=b: isinstance(lit, Band) and lit.index == b)
        for b in range(nb)]

    # equal slices share one complex, and so one face plan
    plans: dict[int, list] = {}

    def plan_of(sl: CubicalComplex) -> list:
        if id(sl) not in plans:
            plans[id(sl)] = _face_plan(sl.faces)
        return plans[id(sl)]

    cells: tuple[list, list, list] = ([], [], [])
    bnd1: dict = {}
    bnd2: dict = {}
    for b, sl in enumerate(point_slices):
        if sl.dimension() > 2:
            raise VerifyError("point slice has dimension above 2")
        _add_face_cells(plan_of(sl), lambda f, b=b: ("pt", b, f), cells, bnd1, bnd2)
    for b, sl in enumerate(band_slices):
        if sl.dimension() > 1:
            raise VerifyError(
                "band slice has dimension above 1: not a surface formula")
        for face, d, ends in plan_of(sl):
            if face not in point_slices[b].faces or \
                    face not in point_slices[b + 1].faces:
                raise VerifyError("band slice not contained in its end slices")
            tag = ("band", b, face)
            if d == 0:
                cells[1].append(tag)
                bnd1[tag] = (("pt", b, face), ("pt", b + 1, face))
            else:
                cells[2].append(tag)
                bnd2[tag] = (("pt", b, face), ("band", b, ends[1]),
                             ("pt", b + 1, face), ("band", b, ends[0]))
    return CellComplex2(*map(tuple, cells), bnd1, bnd2)


def _on_x0(lit) -> bool:
    return isinstance(lit, Band) or lit.var == 0


def classify_surface(c: CellComplex2) -> SurfaceType:
    """Closed-surface test, orientability, and genus from the cell data.

    The cells are numbered once, by their places in c.cells0, c.cells1 and
    c.cells2 (`_CellIds`), and every check runs on those numbers: the
    incidence of 1-cells and 2-cells, connectivity, vertex links,
    orientability and the boundary circles.  A cell's id is read back only
    to name it in an error.  Every check walks the cells in cells order,
    so the first failure is the one a walk over the ids would find.
    """
    cells = _CellIds(c)
    boundary_edges = []
    for e, fs in enumerate(cells.inc):
        if len(fs) > 2:
            raise VerifyError(f"non-pseudomanifold: 1-cell {c.cells1[e]} "
                              f"in {len(fs)} 2-cells")
        if len(fs) == 1:
            boundary_edges.append(e)
        if len(fs) == 0:
            raise VerifyError(f"dangling 1-cell {c.cells1[e]}")
    closed = not boundary_edges

    _check_connected(cells)
    _check_vertex_links(cells)

    orientable = _orientable(cells)
    chi = c.euler_characteristic()
    circles = _boundary_circle_count(cells, boundary_edges)
    genus = None
    if closed:
        if orientable:
            if (2 - chi) % 2 != 0:
                raise VerifyError("impossible chi for an orientable surface")
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
    return SurfaceType(closed, orientable, chi, genus, circles)


class _CellIds:
    """A `CellComplex2` on integer ids: the 0-, 1- and 2-cell numbered i is
    c.cells0[i], c.cells1[i] and c.cells2[i].  ends[e] holds the 0-cells
    of 1-cell e, cycles[f] the 1-cells of 2-cell f in cycle order, and
    inc[e] the 2-cells whose cycle holds e, in cells2 order, once per
    occurrence."""

    def __init__(self, c: CellComplex2):
        self.c = c
        vid = {v: i for i, v in enumerate(c.cells0)}
        eid = {e: i for i, e in enumerate(c.cells1)}
        self.cycles = [tuple(eid[e] for e in c.bnd2[f]) for f in c.cells2]
        self.inc: list[list[int]] = [[] for _ in c.cells1]
        for f, cyc in enumerate(self.cycles):
            for e in cyc:
                self.inc[e].append(f)
        self.ends = [tuple(vid[v] for v in c.bnd1[e]) for e in c.cells1]


def _check_connected(cells: _CellIds):
    if not cells.cycles:
        raise VerifyError("no 2-cells to classify")
    inc = cells.inc
    adj = [[f2 for e in cyc for f2 in inc[e]] for cyc in cells.cycles]
    if _component_count(range(len(adj)), adj) != 1:
        raise VerifyError("surface is not connected")


def _component_count(nodes, nbrs) -> int:
    """The number of connected components of the graph on nodes in which
    nbrs[u] lists the neighbours of u."""
    seen = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        todo = [start]
        while todo:
            for u in nbrs[todo.pop()]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    return count


def _check_vertex_links(cells: _CellIds):
    # the link of each 0-cell must be a single cycle (interior) or path
    c, ends, cycles = cells.c, cells.ends, cells.cycles
    edges_at: list[list[int]] = [[] for _ in c.cells0]
    for e, vs in enumerate(ends):
        for v in vs:
            edges_at[v].append(e)
    # 2-cells at each 0-cell, in cells2 order: a 2-cell's entries are
    # appended one after another, so a repeat is the last entry
    faces_at: list[list[int]] = [[] for _ in c.cells0]
    for f, cyc in enumerate(cycles):
        for e in cyc:
            for v in ends[e]:
                at = faces_at[v]
                if not at or at[-1] != f:
                    at.append(f)
    for v, faces in enumerate(faces_at):
        link_adj: dict = {e: set() for e in edges_at[v]}
        for f in faces:
            local = [e for e in cycles[f] if v in ends[e]]
            if len(local) != 2:
                raise VerifyError(
                    f"2-cell {c.cells2[f]} touches vertex {c.cells0[v]} oddly")
            a, b = local
            link_adj[a].add(b)
            link_adj[b].add(a)
        if not link_adj:
            raise VerifyError(f"isolated vertex {c.cells0[v]}")
        if _component_count(link_adj, link_adj) != 1:
            raise VerifyError(
                f"pinched vertex {c.cells0[v]}: link is disconnected")


def _orientable(cells: _CellIds) -> bool:
    # propagate 2-cell orientations; adjacent cells must induce opposite
    # directions on their shared edge
    c, ends, cycles, inc = cells.c, cells.ends, cells.cycles, cells.inc

    def edge_sense(f, e, flipped):
        cyc = cycles[f]
        # traversal of the 4-cycle visits vertices in order; edge at pos
        # runs from corner pos to corner pos+1.  We recover its sense by
        # matching shared vertices of consecutive edges: the start corner
        # is shared with the previous edge and, if that leaves two
        # candidates, not with the next one.
        pos = cyc.index(e)
        shared = set(ends[e]) & set(ends[cyc[pos - 1]])
        if not shared:
            raise VerifyError("broken 2-cell boundary cycle")
        if len(shared) > 1:
            shared -= set(ends[cyc[(pos + 1) % len(cyc)]])
        if len(shared) != 1:
            raise VerifyError(f"ambiguous corner of edge {c.cells1[e]} "
                              f"in 2-cell {c.cells2[f]}")
        (start,) = shared
        sense = (ends[e][0] == start)
        return sense != flipped

    flip: list = [None] * len(cycles)
    for root in range(len(cycles)):
        if flip[root] is not None:
            continue
        flip[root] = False
        todo = [root]
        while todo:
            f = todo.pop()
            for e in cycles[f]:
                for f2 in inc[e]:
                    if f2 == f:
                        continue
                    want = not edge_sense(f, e, flip[f])
                    have = edge_sense(f2, e, False)
                    need_flip = (have != want)
                    if flip[f2] is None:
                        flip[f2] = need_flip
                        todo.append(f2)
                    elif flip[f2] != need_flip:
                        return False
    return True


def _boundary_circle_count(cells: _CellIds, boundary_edges) -> int:
    ends = cells.ends
    at: dict = {}
    for e in boundary_edges:
        for v in ends[e]:
            at.setdefault(v, []).append(e)
    adj = {e: [e2 for v in ends[e] for e2 in at[v]] for e in boundary_edges}
    return _component_count(boundary_edges, adj)
