"""Command line front end: compile, verify, classify, render, stats."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .compiler import (
    DEFAULT_EPSILON,
    CompileError,
    GenusError,
    _assemble,
    compile_surface,
    vertex_count,
)
from .complexes import (
    ComplexError,
    CubicalComplex,
    complex_to_dnf,
    validate_complex,
)
from .files import (
    CNF_HEADER,
    COMPLEX_HEADER,
    FileFormatError,
    REPORT_HEADER,
    read_cnf,
    read_complex,
    read_gallery,
    render_svg,
    write_gallery,
)
from .formulas import FormulaError, cnf_of_dnf_pruned
from .gadgets import GadgetError
from .geom import GeometryError
from .verifier import (
    VerifyError,
    build_cell_complex,
    classify_surface,
    complex_to_cell_complex,
    sample_solution_space,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3

EPSILON_ENV = "TOPOGALLERY_EPSILON"


def _positive_frac(raw: str) -> Fraction:
    try:
        v = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        v = Fraction(0)
    if v <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive rational, got {raw!r}")
    return v


def _count(raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {raw!r}")
    return n


def _default_epsilon() -> Fraction:
    raw = os.environ.get(EPSILON_ENV)
    if not raw:
        return DEFAULT_EPSILON
    try:
        return _positive_frac(raw)
    except argparse.ArgumentTypeError as exc:
        raise FileFormatError(f"{EPSILON_ENV}: {exc}") from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read_input(path: str):
    """The validated complex, or the formula, of a complex or cnf file; the
    header is the first non-blank line, as the readers take it."""
    text = _read_text(path)
    head = next((l.strip() for l in text.splitlines() if l.strip()), "")
    if head == COMPLEX_HEADER:
        return validate_complex(read_complex(text))
    if head == CNF_HEADER:
        return read_cnf(text)
    raise FileFormatError(f"unrecognized input header {head!r}")


def cmd_compile(args) -> int:
    formula = _read_input(args.input)
    if isinstance(formula, CubicalComplex):
        formula = cnf_of_dnf_pruned(complex_to_dnf(formula))
    # _assemble is compile_gallery without its band-free restriction: a
    # banded CNF file (a surface formula) compiles like compile_surface
    gallery = _assemble(formula, args.epsilon)
    _write_text(args.output, write_gallery(gallery))
    return EXIT_OK


def cmd_compile_surface(args) -> int:
    gallery = compile_surface(args.genus, args.orientable, args.epsilon)
    _write_text(args.output, write_gallery(gallery))
    return EXIT_OK


def cmd_verify(args) -> int:
    # read_gallery recompiles the recipe, and every compile runs the
    # structural audit; a gallery that fails it never loads (exit 2)
    gallery = read_gallery(_read_text(args.gallery))
    lines = [REPORT_HEADER, f"gallery {args.gallery}", f"seed {args.seed}",
             "PASS structural audit"]
    ok = True
    if args.complex:
        k = validate_complex(read_complex(_read_text(args.complex)))
        if k.n != gallery.formula.n:
            raise FileFormatError(
                "complex dimension does not match gallery formula")
        report = sample_solution_space(
            gallery, k, on_count=args.on_samples, off_count=args.off_samples,
            seed=args.seed, pair_count=args.pair_samples)
        lines.extend(report.lines)
        ok = ok and report.passed
    lines.append("RESULT " + ("PASS" if ok else "FAIL"))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_classify(args) -> int:
    data = _read_input(args.input)
    if isinstance(data, CubicalComplex):
        d = data.dimension()
        if d != 2:
            raise ComplexError("classify takes a 2-dimensional complex; " + (
                f"its largest face has dimension {d}" if d >= 0 else "this one has no faces"))
        cell = complex_to_cell_complex(data)
    else:
        if not data.band_constants:
            raise FormulaError("classify takes a 2-dimensional complex or a "
                               "surface formula with bands; this formula has none")
        cell = build_cell_complex(data)
    print(classify_surface(cell).describe())
    return EXIT_OK


def cmd_render(args) -> int:
    gallery = read_gallery(_read_text(args.gallery))
    svg = render_svg(gallery, stroke=args.stroke,
                     highlight_guards=not args.plain)
    _write_text(args.output, svg)
    return EXIT_OK


def cmd_stats(args) -> int:
    gallery = read_gallery(_read_text(args.gallery))
    print(f"vertices {vertex_count(gallery)}")
    print(f"guards {gallery.k}")
    print(f"clauses {len(gallery.formula.clauses)}")
    print(f"variables {gallery.formula.n}")
    print(f"copy-pairs {len(gallery.copy_pairs)}")
    print(f"epsilon {gallery.epsilon}")
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for v in gallery.polygon.vertices for c in v)
    print(f"max-coord-bits {bits}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topogallery",
        description="compile cubical complexes / CNF constraints into art "
                    "galleries and verify them")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="complex or cnf file -> gallery file")
    c.add_argument("input")
    c.add_argument("-o", "--output", default="-")
    c.add_argument("--epsilon", type=_positive_frac)
    c.set_defaults(func=cmd_compile)

    cs = sub.add_parser("compile-surface",
                        help="closed surface of genus n -> gallery file")
    cs.add_argument("--genus", type=int, required=True)
    group = cs.add_mutually_exclusive_group(required=True)
    group.add_argument("--orientable", dest="orientable", action="store_true")
    group.add_argument("--non-orientable", dest="orientable",
                       action="store_false")
    cs.add_argument("-o", "--output", default="-")
    cs.add_argument("--epsilon", type=_positive_frac)
    cs.set_defaults(func=cmd_compile_surface)

    v = sub.add_parser("verify", help="gallery (+ complex) -> report")
    v.add_argument("gallery")
    v.add_argument("--complex")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--on-samples", type=_count, default=24)
    v.add_argument("--off-samples", type=_count, default=20)
    v.add_argument("--pair-samples", type=_count, default=20)
    v.add_argument("-o", "--output", default="-")
    v.set_defaults(func=cmd_verify)

    cl = sub.add_parser("classify",
                        help="surface formula or complex -> classification")
    cl.add_argument("input")
    cl.set_defaults(func=cmd_classify)

    r = sub.add_parser("render", help="gallery file -> svg")
    r.add_argument("gallery")
    r.add_argument("-o", "--output", default="-")
    r.add_argument("--stroke", type=_positive_frac, default=Fraction(1, 2))
    r.add_argument("--plain", action="store_true",
                   help="omit guard segment and witness highlights")
    r.set_defaults(func=cmd_render)

    s = sub.add_parser("stats", help="gallery file -> counts")
    s.add_argument("gallery")
    s.set_defaults(func=cmd_stats)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand reads the variable, so a malformed one exits 2
        env_epsilon = _default_epsilon()
        if getattr(args, "epsilon", env_epsilon) is None:
            args.epsilon = env_epsilon
        return args.func(args)
    except (FileFormatError, ComplexError, FormulaError, GenusError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CompileError as exc:
        print(f"compilation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (VerifyError, GadgetError, GeometryError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
