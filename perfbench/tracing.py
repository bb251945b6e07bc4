"""Per-layer tracing installed from outside the package.

`install(pkg)` wraps public functions of every `topogallery` module and
rebinds each wrapped name in every `topogallery.*` module that imported it
(`verifier` does `from .geom import visible`, so patching `geom` alone would
miss its calls).  Timed functions record spans (name, start, end, parent)
into flat arrays kept in memory; kernel predicates that run millions of
times are only counted.  `Tracer.metrics()` turns the spans into self
times (span minus its child spans) and exact call counts.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# Functions whose calls are spans: (module, attribute, metric stem).
# `compiler._assemble` is the one path every compile takes (compile_gallery,
# compile_surface and read_gallery's recompilation); `compiler._audit` is
# the structural audit, run inside every compile and by `Gallery.audit`.
TIMED = [
    ("compiler", "_assemble", "compiler.compile"),
    ("compiler", "_audit", "compiler.audit"),
    ("gadgets", "make_variable_gadget", "gadgets.make_variable_gadget"),
    ("gadgets", "make_copy_gadget", "gadgets.make_copy_gadget"),
    ("gadgets", "make_clause_gadget", "gadgets.make_clause_gadget"),
    ("gadgets", "make_wedge_segments", "gadgets.make_wedge_segments"),
    ("gadgets", "assemble_room", "gadgets.assemble_room"),
    ("geom", "visible", "geom.visible"),
    ("geom", "visibility_fan", "geom.visibility_fan"),
    ("geom", "visibility_polygon", "geom.visibility_polygon"),
    ("geom", "triangulate", "geom.triangulate"),
    ("geom", "convex_minus_triangle", "geom.convex_minus_triangle"),
    ("verifier", "covers", "verifier.covers"),
    ("verifier", "sample_solution_space", "verifier.sample_solution_space"),
    ("verifier", "build_cell_complex", "verifier.build_cell_complex"),
    ("verifier", "classify_surface", "verifier.classify_surface"),
    ("formulas", "dnf_to_cnf", "formulas.dnf_to_cnf"),
    ("formulas", "simplify_cnf", "formulas.simplify_cnf"),
    ("formulas", "cnf_of_dnf_pruned", "formulas.cnf_of_dnf_pruned"),
    ("complexes", "complex_to_dnf", "complexes.complex_to_dnf"),
    ("complexes", "validate_complex", "complexes.validate_complex"),
    ("files", "write_gallery", "files.write_gallery"),
    ("files", "read_gallery", "files.read_gallery"),
    ("cli", "main", "cli.main"),
]

# Functions that are only counted.
COUNTED = [
    ("compiler", "embed", "compiler.embed"),
    ("formulas", "eval_formula", "formulas.eval_formula"),
    ("geom", "orient_h", "geom.orient_h"),
    ("geom", "hpoint", "geom.hpoint"),
    ("geom", "clip_convex", "geom.clip_convex"),
]

# Methods of geom.SimplePolygon that are spans.
METHODS = [
    ("__init__", "geom.SimplePolygon"),
    ("locate", "geom.locate"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.visible_true = 0
        self.fan_pieces = 0
        self.cmt_pieces_out = 0
        self.cmt_unchanged = 0
        self.covers: dict[int, tuple[str, bool, int]] = {}
        self.sizes: Counter = Counter()
        # off while the benchmark's own oracle calls into the package
        self.active = True

    def timed(self, name, fn, after=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls
        tr = self

        def wrapper(*args, **kwargs):
            if tr.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-function result hooks -------------------------------------

    def _after_visible(self, sid, args, kwargs, result):
        if result:
            self.visible_true += 1

    def _after_fan(self, sid, args, kwargs, result):
        self.fan_pieces += len(result)

    def _after_cmt(self, sid, args, kwargs, result):
        self.cmt_pieces_out += len(result)
        piece = args[0] if args else kwargs["piece"]
        if len(result) == 1 and set(result[0]) == set(piece):
            self.cmt_unchanged += 1

    def _after_assemble(self, sid, args, kwargs, g):
        self.sizes["compiler.vertices"] += len(g.polygon.vertices)
        self.sizes["compiler.guards"] += g.k
        self.sizes["compiler.copy_pairs"] += len(g.copy_pairs)
        self.sizes["compiler.clauses"] += len(g.formula.clauses)

    def _after_covers(self, sid, args, kwargs, report):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "witness")
        self.covers[sid] = (mode, report.covered, report.witness_count)

    # --- results -------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        n = len(self.names)
        durs = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durs[i]
        return durs, [durs[i] - child[i] for i in range(n)]

    def metrics(self) -> dict[str, float]:
        durs, selfs = self.self_times()
        out: Counter = Counter()
        for i, name in enumerate(self.names):
            if name == "verifier.covers":
                name = f"verifier.covers.{self.covers.get(i, ('failed',))[0]}"
            out[name + ".s"] += selfs[i]
            out[name + ".calls"] += 1
        for name, count in self.calls.items():
            out[name + ".calls"] += count
        # layout = whole compile minus the audits run inside it
        compile_total = audit_inside = 0.0
        for i, name in enumerate(self.names):
            if name == "compiler.compile":
                compile_total += durs[i]
            elif name == "compiler.audit" and self._inside(i, "compiler.compile"):
                audit_inside += durs[i]
        out["compiler.layout.s"] = compile_total - audit_inside
        visible_calls = out["geom.visible.calls"]
        out["geom.visible.true_frac"] = (self.visible_true / visible_calls
                                         if visible_calls else 0.0)
        out["geom.visibility_fan.pieces"] = self.fan_pieces
        out["geom.convex_minus_triangle.pieces_out"] = self.cmt_pieces_out
        cmt_calls = out["geom.convex_minus_triangle.calls"]
        out["geom.convex_minus_triangle.unchanged_frac"] = (
            self.cmt_unchanged / cmt_calls if cmt_calls else 0.0)
        # waste of the witness-mode guard search: visible() calls per
        # witness point, over the covers() calls that checked every point
        checked_points = 0
        for mode, covered, count in self.covers.values():
            out[f"verifier.covers.{mode}.witnesses"] += count
            if mode == "witness" and covered:
                checked_points += count
        checked_calls = sum(1 for i, name in enumerate(self.names)
                            if name == "geom.visible" and
                            self._in_checked_witness_cover(i))
        out["verifier.visible_per_witness"] = (
            checked_calls / checked_points if checked_points else 0.0)
        out.update(self.sizes)
        return dict(out)

    def _inside(self, sid: int, name: str) -> bool:
        p = self.parents[sid]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def _in_checked_witness_cover(self, sid: int) -> bool:
        p = self.parents[sid]
        while p >= 0:
            if self.names[p] == "verifier.covers":
                mode, covered, _ = self.covers.get(p, ("failed", False, 0))
                return mode == "witness" and covered
            p = self.parents[p]
        return False

    def write_spans(self, path):
        """One span a line: id, parent id, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def _rebind(original, replacement):
    """Point every topogallery module attribute bound to `original` at
    `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "topogallery" or
                               modname.startswith("topogallery.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(pkg) -> Tracer:
    """Wrap the package's layer functions; returns the recording tracer."""
    tr = Tracer()
    hooks = {
        "geom.visible": tr._after_visible,
        "geom.visibility_fan": tr._after_fan,
        "geom.convex_minus_triangle": tr._after_cmt,
        "compiler.compile": tr._after_assemble,
        "verifier.covers": tr._after_covers,
    }
    modules = {name: getattr(pkg, name) for name in
               ("compiler", "gadgets", "geom", "verifier", "formulas",
                "complexes", "files", "cli")}
    for modname, attr, metric in TIMED:
        original = getattr(modules[modname], attr)
        _rebind(original, tr.timed(metric, original, hooks.get(metric)))
    for modname, attr, metric in COUNTED:
        original = getattr(modules[modname], attr)
        _rebind(original, tr.counted(metric, original))
    poly_cls = modules["geom"].SimplePolygon
    for attr, metric in METHODS:
        setattr(poly_cls, attr, tr.timed(metric, getattr(poly_cls, attr)))
    return tr
