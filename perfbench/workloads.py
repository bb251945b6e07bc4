"""The benchmark's workloads: inputs, timed job and correctness oracle.

Each workload has
  - `build(tg, seed, workdir)`: the set-up (fixtures, input galleries and
    files), returning a dict of fixtures;
  - `job(tg, fx, ledger)`: one timed repetition; program calls go through
    `ledger.op(stage, label, fn, *args)`, which times them per stage and
    counts an exception as a failed operation;
  - `check(tg, fx, results, ledger)`: the oracle, run after the timed job.
    Every answer it compares against is independent of the compiler.
  - `sizes(tg, fx, results)`: gallery_bytes and max_coord_bits.

The package is reached only through its public functions (plus the
`topogallery.cli.main` entry point); `tg` is the freshly imported package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

ORIENTABLE_GENERA = (2, 8, 32)
CLASSIFY_CASES = ((8, True), (32, True), (8, False), (32, False))


class Ledger:
    """Stage timers and the operation count of one repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stage: Counter = Counter()
        self.labels: set[str] = set()
        self.failed: set[str] = set()
        self.errors: list[str] = []

    def op(self, stage, label, fn, *args):
        self.labels.add(label)
        t0 = self.clock()
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is a result, not a crash
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.stage[stage] += self.clock() - t0

    def expect(self, label, predicate, what):
        """Record a check on operation `label` (a new label is a new
        operation); an exception inside the check is a failure."""
        self.labels.add(label)
        try:
            ok = predicate()
        except Exception as exc:
            self.fail(label, f"{what}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.fail(label, what)

    def fail(self, label, message):
        self.failed.add(label)
        self.errors.append(f"{label}: {message}")

    @property
    def attempted(self) -> int:
        return len(self.labels)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def coord_bits(g) -> int:
    """Largest bit length of any vertex coordinate's numerator or
    denominator."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for v in g.polygon.vertices for c in (v.x, v.y))


def mobius_cnf(tg):
    return tg.simplify_cnf(tg.dnf_to_cnf(tg.complex_to_dnf(tg.mobius_complex())))


def surface_name(n: int, orientable: bool) -> str:
    return f"{'orientable' if orientable else 'non-orientable'}-{n}"


def classify_text(n: int, orientable: bool) -> str:
    chi = 2 - 2 * n if orientable else 2 - n
    kind = "orientable" if orientable else "non-orientable"
    return f"closed {kind} genus {n} (chi = {chi})"


# --- surface-compile -----------------------------------------------------


class SurfaceCompile:
    """Compiler path: Moebius and genus-n surface galleries, their text
    round trip, and the surface classifier."""

    name = "surface-compile"
    stages = ("compile_s", "load_s", "classify_s")

    @staticmethod
    def build(tg, seed, workdir):
        formulas = {}
        for n, orientable in CLASSIFY_CASES:
            fixture = tg.compiler.surface_fixture(orientable)
            f1, f2 = tg.compiler.canonical_removed_faces(fixture)
            formulas[(n, orientable)] = tg.surface_formula(fixture, f1, f2, n)
        return {"mobius_cnf": mobius_cnf(tg), "surface_formulas": formulas}

    @staticmethod
    def job(tg, fx, ledger):
        write = tg.files.write_gallery
        builds = [("mobius", tg.compile_gallery, fx["mobius_cnf"])]
        builds += [(surface_name(n, True), tg.compile_surface, n, True)
                   for n in ORIENTABLE_GENERA]
        builds.append((surface_name(8, False), tg.compile_surface, 8, False))
        galleries, texts = {}, {}
        for name, fn, *args in builds:
            g = ledger.op("compile_s", f"compile {name}", fn, *args)
            galleries[name] = g
            if g is not None:
                texts[name] = ledger.op("compile_s", f"write {name}", write, g)
        loaded = {}
        for name in ["mobius"] + [surface_name(n, True) for n in ORIENTABLE_GENERA]:
            if texts.get(name) is not None:
                loaded[name] = ledger.op("load_s", f"read {name}",
                                         tg.files.read_gallery, texts[name])
        classified = {}
        for case, formula in fx["surface_formulas"].items():
            classified[case] = ledger.op(
                "classify_s", f"classify {surface_name(*case)}",
                lambda f: tg.classify_surface(tg.build_cell_complex(
                    tg.files.read_cnf(tg.files.write_cnf(f)))).describe(),
                formula)
        return {"galleries": galleries, "texts": texts, "loaded": loaded,
                "classified": classified}

    @staticmethod
    def check(tg, fx, res, ledger):
        digests = EXPECTED["surface-compile"]["sha256"]
        for name, text in res["texts"].items():
            if text is not None:
                ledger.expect(f"write {name}", lambda: sha256(text) == digests[name],
                              "gallery text differs from the recorded sha256")
        for name, g in res["loaded"].items():
            if g is not None:
                ledger.expect(
                    f"read {name}",
                    lambda: g.polygon.vertices == res["galleries"][name].polygon.vertices,
                    "read_gallery(write_gallery(g)) changed the vertices")
        for case, text in res["classified"].items():
            if text is not None:
                ledger.expect(f"classify {surface_name(*case)}",
                              lambda: text == classify_text(*case),
                              f"classified as {text!r}")

        def collinear():
            v = [tg.vertex_count(res["galleries"][surface_name(n, True)])
                 for n in ORIENTABLE_GENERA]
            (n0, n1, n2) = ORIENTABLE_GENERA
            return (v[1] - v[0]) * (n2 - n1) == (v[2] - v[1]) * (n1 - n0)

        ledger.expect("orientable vertex counts affine in genus", collinear,
                      "vertex counts at genus 2/8/32 are not collinear")

    @staticmethod
    def sizes(tg, fx, res):
        galleries = [g for g in res["galleries"].values() if g is not None]
        return (sum(len(t.encode("utf-8")) for t in res["texts"].values() if t),
                max(coord_bits(g) for g in galleries))


# --- mobius-verify ---------------------------------------------------------


class MobiusVerify:
    """The command users run: `topogallery verify` of the Moebius gallery
    against its complex, in-process through `topogallery.cli.main`."""

    name = "mobius-verify"
    stages = ("verify_s",)

    @staticmethod
    def build(tg, seed, workdir):
        g = tg.compile_gallery(mobius_cnf(tg))
        text = tg.files.write_gallery(g)
        gallery_path = Path(workdir) / "mobius.gallery"
        complex_path = Path(workdir) / "mobius.complex"
        gallery_path.write_text(text, encoding="utf-8")
        complex_path.write_text(tg.files.write_complex(tg.mobius_complex()),
                                encoding="utf-8")
        argv = ["verify", str(gallery_path), "--complex", str(complex_path),
                "--seed", str(seed), "--on-samples", "4", "--off-samples", "8",
                "--pair-samples", "50"]
        return {"argv": argv, "bytes": len(text.encode("utf-8")),
                "bits": coord_bits(g)}

    @staticmethod
    def job(tg, fx, ledger):
        out = io.StringIO()

        def verify():
            with contextlib.redirect_stdout(out):
                return tg.cli.main(fx["argv"])

        rc = ledger.op("verify_s", "verify", verify)
        return {"rc": rc, "report": out.getvalue()}

    @staticmethod
    def check(tg, fx, res, ledger):
        lines = res["report"].splitlines()
        ledger.expect("verify",
                      lambda: res["rc"] == 0 and lines and lines[-1] == "RESULT PASS",
                      f"exit {res['rc']}, last line {lines[-1:]!r}")

    @staticmethod
    def sizes(tg, fx, res):
        return fx["bytes"], fx["bits"]


# --- exact-coverage ----------------------------------------------------------


class ExactCoverage:
    """Exact-union coverage and visibility polygons: fans, triangulation
    and convex clipping, with `visible` only for certificates."""

    name = "exact-coverage"
    stages = ("exact_cover_s", "vispoly_s")

    @staticmethod
    def build(tg, seed, workdir):
        rng = random.Random(seed)
        cases = []  # (gallery name, x, on the complex?)
        galleries = {}
        complexes = {"circle": tg.circle_complex(), "sphere": tg.sphere_complex()}
        for name, k in complexes.items():
            g = tg.compile_gallery(tg.simplify_cnf(tg.dnf_to_cnf(tg.complex_to_dnf(k))))
            galleries[name] = g
            for x in tg.verifier.on_face_samples(k, 3, rng):
                cases.append((name, x, True))
            for x in tg.verifier.off_samples_for(g.formula, 3, rng):
                cases.append((name, x, False))
        galleries["mobius"] = tg.compile_gallery(mobius_cnf(tg))
        x = tg.verifier.on_face_samples(tg.mobius_complex(), 1, rng)[0]
        views = [("mobius", gp) for gp in tg.embed(galleries["mobius"], x).guards]
        galleries["orientable-2"] = g2 = tg.compile_surface(2, True)
        x = [Fraction(rng.randint(1, 63), 64) for _ in range(g2.formula.n)]
        views += [("orientable-2", gp)
                  for gp in rng.sample(tg.embed(g2, x).guards, 3)]
        configs = [(name, x, on, tg.embed(galleries[name], x))
                   for name, x, on in cases]
        return {"galleries": galleries, "complexes": complexes,
                "configs": configs, "views": views}

    @staticmethod
    def job(tg, fx, ledger):
        # fresh polygons: lazy indexes are rebuilt every repetition, as a
        # fresh process loading the gallery would
        polys = {name: tg.SimplePolygon(g.polygon.vertices)
                 for name, g in fx["galleries"].items()}
        reports = []
        for i, (name, x, on, guards) in enumerate(fx["configs"]):
            reports.append(ledger.op("exact_cover_s", f"covers {i} {name}",
                                     tg.covers, polys[name], guards, "exact"))
        vps = []
        for i, (name, gp) in enumerate(fx["views"]):
            vps.append(ledger.op("vispoly_s", f"vispoly {i} {name}",
                                 tg.visibility_polygon, polys[name], gp))
        return {"polys": polys, "reports": reports, "vps": vps}

    @staticmethod
    def check(tg, fx, res, ledger):
        polys = res["polys"]
        for i, ((name, x, on, guards), rep) in enumerate(
                zip(fx["configs"], res["reports"])):
            if rep is None:
                continue
            label = f"covers {i} {name}"
            g = fx["galleries"][name]
            if on:
                ledger.expect(label, lambda: fx["complexes"][name].contains_point(x)
                              and rep.covered,
                              f"point {x} on the complex reported uncovered")
            else:
                ledger.expect(
                    label,
                    lambda: not tg.eval_formula(g.formula, x) and not rep.covered
                    and not any(tg.visible(polys[name], gp, rep.uncovered_witness)
                                for gp in guards.guards),
                    f"off-cell {x}: covered or witness seen by a guard")
        for i, ((name, gp), vp) in enumerate(zip(fx["views"], res["vps"])):
            if vp is None:
                continue
            poly = polys[name]
            verts = vp.vertices
            ledger.expect(
                f"vispoly {i} {name}",
                lambda: vp.locate(gp) != "out" and all(
                    tg.visible(poly, verts[j - 1], verts[j])
                    for j in range(len(verts))),
                "visibility polygon misses its guard or leaves the gallery")

    @staticmethod
    def sizes(tg, fx, res):
        gs = fx["galleries"].values()
        return (sum(len(tg.files.write_gallery(g).encode("utf-8")) for g in gs),
                max(coord_bits(g) for g in gs))


WORKLOADS = {w.name: w for w in (SurfaceCompile, MobiusVerify, ExactCoverage)}
