"""Acceptance suite: the eight top-level criteria, each with its stated
tolerance and time budget.  Every test prints one PASS line on success
(visible under pytest -s or in failure tracebacks otherwise)."""

import random
import time
from fractions import Fraction

import pytest

from topogallery.complexes import (
    mobius_complex,
    projective_plane_complex,
    torus_complex,
)
from topogallery.compiler import (
    canonical_removed_faces,
    compile_gallery,
    compile_surface,
    embed,
    surface_formula,
    vertex_count,
)
from topogallery.formulas import (
    cell_equivalent,
    cnf,
    dnf_to_cnf,
    simplify_cnf,
)
from topogallery.complexes import complex_to_dnf
from topogallery.gadgets import build_copy_strip
from topogallery.geom import (
    Point,
    SimplePolygon,
    hausdorff_distance_sq_max,
    invert_through,
    pt,
)
from topogallery.verifier import (
    brute_force_min_guards,
    build_cell_complex,
    classify_surface,
    complex_to_cell_complex,
    covers,
    on_face_samples,
    sample_solution_space,
    verify_copy_gadget,
)


def eq1_cnf():
    return cnf(4, [
        [(0, 0), (1, 0), (2, 1)],
        [(1, 0), (2, 1), (3, 0)],
        [(0, 0), (1, 0), (3, 1)],
        [(2, 0), (2, 1), (3, 0), (3, 1)],
        [(0, 0), (2, 0), (3, 0), (3, 1)],
    ])


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_mobius_formula_pipeline():
    t0 = time.monotonic()
    dnf = complex_to_dnf(mobius_complex())
    assert len(dnf.clauses) == 6
    assert all(len(cl) == 2 for cl in dnf.clauses)
    raw = dnf_to_cnf(dnf)
    assert len(raw.clauses) == 64
    simplified = simplify_cnf(raw)
    assert cell_equivalent(simplified, eq1_cnf())
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
    _report(1, f"6x2 DNF -> 64 CNF -> {len(simplified.clauses)} clauses, "
               f"cell-equivalent to the published form in {elapsed:.2f}s")


def test_criterion_2_inversion_ratio_identities():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        den = rng.choice((8, 16, 64, 256))
        y_src = Fraction(rng.randint(-32, 32), den)
        y_dst = Fraction(rng.randint(-32, 32), den)
        if y_src == y_dst:
            continue
        y_piv = (y_src + y_dst) / 2 + Fraction(rng.randint(-den, den),
                                               8 * den) * (y_dst - y_src)
        if not (min(y_src, y_dst) < y_piv < max(y_src, y_dst)):
            continue
        z = Point(Fraction(rng.randint(-64, 64), den), y_piv)
        xs = sorted(Fraction(rng.randint(-256, 256), den) for _ in range(3))
        a, b, c = (Point(x, y_src) for x in xs)
        if len({a.x, b.x, c.x}) != 3:
            continue
        fa = invert_through(z, a, y_dst)
        fb = invert_through(z, b, y_dst)
        fc = invert_through(z, c, y_dst)
        assert (b.x - a.x) / (c.x - a.x) == (fb.x - fa.x) / (fc.x - fa.x)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"
    _report(2, f"1000 exact ratio identities in {elapsed:.2f}s")


def test_criterion_3_copy_gadget_contract():
    t0 = time.monotonic()
    rng = random.Random(33)
    for trial in range(100):
        gx = Fraction(rng.randint(16, 28), 2)
        width = Fraction(rng.randint(1, 4), 2)
        gap = Fraction(rng.randint(12, 24), 2)
        yl = Fraction(rng.randint(0, 8), 2)
        right = gx + width + Fraction(rng.randint(4, 8), 2)
        row_gap = gap / rng.choice((4, 6, 8))
        strip = build_copy_strip(gx=gx, width=width, yu=yl + gap, yl=yl,
                                 wall_x=Fraction(0), right_x=right,
                                 row_gap=row_gap)
        report = verify_copy_gadget(strip, seed=trial, samples=32,
                                    grid=(14, 10))
        assert report.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"contract suite took {elapsed:.1f}s"
    _report(3, f"100 randomized copy-gadget instances verified in "
               f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def mobius_gallery():
    return compile_gallery(eq1_cnf())


def test_criterion_4_end_to_end_mobius(mobius_gallery):
    g = mobius_gallery
    assert g.k == 17
    k = mobius_complex()
    t0 = time.monotonic()
    report = sample_solution_space(g, k, on_count=120, off_count=100, seed=11,
                                   pair_count=50)
    sampling_elapsed = time.monotonic() - t0
    assert report.passed, report.lines
    assert sampling_elapsed < 300.0, f"exact sampling took {sampling_elapsed:.0f}s"

    t0 = time.monotonic()
    rng = random.Random(12)
    for x in on_face_samples(k, 10, rng):
        rep = covers(g, embed(g, x))
        assert rep.covered, f"exact mode uncovered at {x}: {rep.uncovered_witness}"
    exact_elapsed = time.monotonic() - t0
    assert exact_elapsed < 1800.0, f"exact recheck took {exact_elapsed:.0f}s"
    _report(4, f"k=17; exact sampling (120 on-face points, "
               f"{report.off_checked} distinct off cells in 100 draws) in "
               f"{sampling_elapsed:.0f}s; 10 exact-union rechecks in "
               f"{exact_elapsed:.0f}s")


def test_criterion_5_embedding_metric(mobius_gallery):
    g = mobius_gallery
    rng = random.Random(55)
    widths = {v: g.segment_width(v) for v in g.columns}
    sep_sq = g.separation_sq()
    checked = 0
    while checked < 500:
        x = [Fraction(rng.randint(0, 256), 256) for _ in range(4)]
        x2 = [min(Fraction(1), max(Fraction(0),
                                   xi + Fraction(rng.randint(-8, 8), 2048)))
              for xi in x]
        if x == x2:
            continue
        expected = max(widths[v] * abs(x[v] - x2[v]) for v in range(4)) ** 2
        if expected == 0 or expected > sep_sq:
            continue
        d2 = hausdorff_distance_sq_max(embed(g, x).guards, embed(g, x2).guards)
        assert d2 == expected
        assert d2 > 0
        checked += 1
    _report(5, "500 below-threshold pairs: exact sup-norm equality and "
               "positive separation")


def test_criterion_6_vertex_scaling():
    diffs_by_family = {}
    for orientable in (True, False):
        counts = [vertex_count(compile_surface(n, orientable))
                  for n in range(2, 9)]
        diffs = [b - a for a, b in zip(counts, counts[1:])]
        assert len(set(diffs)) == 1, \
            f"first differences not constant: {diffs} (orientable={orientable})"
        diffs_by_family[orientable] = diffs[0]
    _report(6, f"vertex counts affine in n for n=2..8 "
               f"(slope {diffs_by_family[True]} orientable, "
               f"{diffs_by_family[False]} non-orientable)")


def test_criterion_7_surface_classification():
    t0 = time.monotonic()
    for orientable, fixture in ((True, torus_complex()),
                                (False, projective_plane_complex())):
        f1, f2 = canonical_removed_faces(fixture)
        for n in range(2, 9):
            st = classify_surface(
                build_cell_complex(surface_formula(fixture, f1, f2, n)))
            assert st.closed
            assert st.orientable == orientable
            assert st.chi == (2 - 2 * n if orientable else 2 - n)
            assert st.genus == n
    t2 = classify_surface(complex_to_cell_complex(torus_complex()))
    assert (t2.closed, t2.orientable, t2.chi) == (True, True, 0)
    rp2 = classify_surface(complex_to_cell_complex(projective_plane_complex()))
    assert (rp2.closed, rp2.orientable, rp2.chi) == (True, False, 1)
    mob = classify_surface(complex_to_cell_complex(mobius_complex()))
    assert (mob.closed, mob.orientable, mob.chi, mob.boundary_circles) == \
        (False, False, 0, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"classification took {elapsed:.1f}s"
    _report(7, f"chi = 2-2n / 2-n for n=2..8 and fixture signatures in "
               f"{elapsed:.1f}s")


def test_criterion_8_brute_force_oracles():
    t0 = time.monotonic()
    convex = SimplePolygon([pt(0, 0), pt(3, 1), pt(4, 4), pt(1, 3)])
    assert brute_force_min_guards(convex, 2, grid=(3, 3)) == 1
    t_convex = time.monotonic() - t0

    t0 = time.monotonic()
    comb = SimplePolygon([
        pt(0, 0), pt(5, 0), pt(5, 2), pt(4, 2), pt(4, 1), pt(3, 1),
        pt(3, 2), pt(2, 2), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])
    assert brute_force_min_guards(comb, 3, grid=(10, 4)) == 3
    t_comb = time.monotonic() - t0
    assert t_comb < 300.0

    t0 = time.monotonic()
    strip = build_copy_strip()
    ends = [strip.copy.upper_segment.a, strip.copy.upper_segment.b,
            strip.copy.lower_segment.a, strip.copy.lower_segment.b]
    assert brute_force_min_guards(strip.polygon, 2, grid=(6, 6),
                                  extra_candidates=ends) == 2
    t_strip = time.monotonic() - t0
    assert t_strip < 300.0
    _report(8, f"convex=1 ({t_convex:.1f}s), comb=3 ({t_comb:.1f}s), "
               f"copy strip=2 ({t_strip:.1f}s)")
