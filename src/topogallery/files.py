"""Line-oriented exact text formats for complexes, formulas, galleries, and
verification reports.

Rationals are serialized as num/den (always with the denominator), face
strings over {0,1,*}, one record per line, versioned header lines.  A
gallery file is a recipe: its epsilon record and its formula records (the
CNF records behind a ``formula`` prefix) determine the gallery.  The
polygon and table records that follow are the canonical serialization of
that recipe's compilation.  Loading recompiles the recipe, re-serializes
the result and compares every record, so a stale or edited file fails
loudly instead of silently desynchronizing from the gadget metadata.
A malformed token or record raises FileFormatError; well-formed records
that describe an invalid object raise that object's error (FormulaError,
ComplexError).  A gallery recipe that does not compile is a
FileFormatError too: the file, not the compiler, is at fault.
"""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import zip_longest

from .compiler import CompileError, Gallery, _assemble
from .complexes import (
    CubicalComplex,
    complex_from_faces,
    face_string,
    validate_complex,
)
from .formulas import Band, CnfFormula, VarEq


class FileFormatError(ValueError):
    pass


COMPLEX_HEADER = "topogallery complex v1"
CNF_HEADER = "topogallery cnf v1"
GALLERY_HEADER = "topogallery gallery v1"
REPORT_HEADER = "topogallery report v1"
FORMULA_PREFIX = "formula "


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad rational {s!r}") from exc


def parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise FileFormatError(f"bad integer {s!r}") from exc


def _lit_str(lit) -> str:
    if isinstance(lit, Band):
        return f"band{lit.index}"
    return f"x{lit.var}={lit.const}"


def _parse_lit(tok: str):
    if tok.startswith("band"):
        return Band(parse_int(tok[4:]))
    if not tok.startswith("x") or "=" not in tok:
        raise FileFormatError(f"bad literal token {tok!r}")
    var, _, const = tok[1:].partition("=")
    return VarEq(parse_int(var), parse_int(const))


# --- complexes ---------------------------------------------------------------


def write_complex(k: CubicalComplex) -> str:
    validate_complex(k)
    out = [COMPLEX_HEADER, f"dimension {k.n}"]
    for f in k.maximal_faces():
        out.append(f"face {face_string(f)}")
    return "\n".join(out) + "\n"


def read_complex(text: str) -> CubicalComplex:
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != COMPLEX_HEADER:
        raise FileFormatError("not a complex file")
    n = None
    faces = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "dimension":
            n = parse_int(rest)
        elif key == "face":
            faces.append(rest)
        else:
            raise FileFormatError(f"unknown record {key!r} in complex file")
    if n is None:
        raise FileFormatError("complex file missing dimension")
    return complex_from_faces(n, faces)


# --- cnf formulas -------------------------------------------------------------


def write_cnf(f: CnfFormula) -> str:
    out = [CNF_HEADER, f"nvars {f.n}"]
    if f.band_constants:
        out.append("bands " + " ".join(frac_str(k) for k in f.band_constants))
    for cl in f.clauses:
        out.append("clause " + " ".join(_lit_str(l) for l in cl))
    return "\n".join(out) + "\n"


def read_cnf(text: str) -> CnfFormula:
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != CNF_HEADER:
        raise FileFormatError("not a cnf file")
    n = None
    bands: tuple = ()
    clauses = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "nvars":
            n = parse_int(rest)
        elif key == "bands":
            bands = tuple(parse_frac(t) for t in rest.split())
        elif key == "clause":
            clauses.append(tuple(_parse_lit(t) for t in rest.split()))
        else:
            raise FileFormatError(f"unknown cnf record {key!r}")
    if n is None:
        raise FileFormatError("cnf records missing nvars")
    return CnfFormula(n, tuple(clauses), bands)


# --- galleries ----------------------------------------------------------------


def write_gallery(g: Gallery) -> str:
    buf = io.StringIO()
    w = buf.write
    w(GALLERY_HEADER + "\n")
    w(f"epsilon {frac_str(g.epsilon)}\n")
    for line in write_cnf(g.formula).splitlines()[1:]:
        w(FORMULA_PREFIX + line + "\n")
    w(f"vertices {len(g.polygon.vertices)}\n")
    for v in g.polygon.vertices:
        w(f"v {frac_str(v.x)} {frac_str(v.y)}\n")
    for var in sorted(g.columns):
        lo, hi = g.columns[var]
        w(f"column {var} {frac_str(lo)} {frac_str(hi)}\n")
    for rec in g.segments:
        band = str(rec.band) if rec.band is not None else "-"
        w(f"segment {rec.index} clause {rec.clause} pos {rec.literal_pos} "
          f"var {rec.var} designation {rec.designation} band {band} "
          f"{frac_str(rec.segment.a.x)} {frac_str(rec.segment.a.y)} "
          f"{frac_str(rec.segment.b.x)} {frac_str(rec.segment.b.y)}\n")
    for cg in g.clause_gadgets:
        w(f"clause-witness {cg.index} {frac_str(cg.witness_point.x)} "
          f"{frac_str(cg.witness_point.y)}\n")
    for key in sorted(g.metadata):
        w(f"metadata {key} {g.metadata[key]}\n")
    return buf.getvalue()


def _clip(line: str | None, width: int = 80) -> str:
    if line is None:
        return "end of file"
    return repr(line if len(line) <= width else line[:width - 3] + "...")


def read_gallery(text: str) -> Gallery:
    """Recompile a gallery file's recipe and accept the file only if its
    records are exactly the canonical serialization of the result."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != GALLERY_HEADER:
        raise FileFormatError("not a gallery file")
    epsilon = None
    cnf_lines = [CNF_HEADER]
    for line in lines[1:]:
        if line.startswith("epsilon "):
            epsilon = parse_frac(line[len("epsilon "):])
        elif line.startswith(FORMULA_PREFIX):
            cnf_lines.append(line[len(FORMULA_PREFIX):])
    if epsilon is None:
        raise FileFormatError("gallery file missing epsilon")
    formula = read_cnf("\n".join(cnf_lines))
    try:
        rebuilt = _assemble(formula, epsilon)
    except CompileError as exc:
        raise FileFormatError(f"gallery recipe does not compile: {exc}") from exc
    expected = write_gallery(rebuilt).splitlines()
    for number, (want, found) in enumerate(zip_longest(expected, lines), 1):
        if want != found:
            raise FileFormatError(
                f"gallery record {number} does not match the recompilation: "
                f"expected {_clip(want)}, found {_clip(found)}")
    return rebuilt


# --- svg rendering -------------------------------------------------------------


def _sig(x: Fraction, digits: int = 12) -> str:
    return f"{float(x):.{digits}g}"


def render_svg(g: Gallery, stroke=Fraction(1, 2), highlight_guards=True) -> str:
    """Approximate SVG rendering; the gallery file holds the exact data."""
    x0, y0, x1, y1 = g.polygon.bbox
    pad = (x1 - x0) / 20
    width = x1 - x0 + 2 * pad
    height = y1 - y0 + 2 * pad

    def sx(x):
        return _sig(x - x0 + pad)

    def sy(y):
        return _sig(y1 + pad - y)  # flip so larger y is up

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write("<!-- approximate rendering at 12 significant digits; the\n"
              "     authoritative exact data is the gallery text file -->\n")
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
              f'viewBox="0 0 {_sig(width)} {_sig(height)}">\n')
    pts = " ".join(f"{sx(v.x)},{sy(v.y)}" for v in g.polygon.vertices)
    out.write(f'  <polygon points="{pts}" fill="#f2ead9" stroke="#333" '
              f'stroke-width="{_sig(stroke)}"/>\n')
    if highlight_guards:
        for rec in g.segments:
            a, b = rec.segment.a, rec.segment.b
            out.write(f'  <line x1="{sx(a.x)}" y1="{sy(a.y)}" '
                      f'x2="{sx(b.x)}" y2="{sy(b.y)}" stroke="#c90" '
                      f'stroke-width="{_sig(stroke * 2)}"/>\n')
        for cg in g.clause_gadgets:
            wpt = cg.witness_point
            out.write(f'  <circle cx="{sx(wpt.x)}" cy="{sy(wpt.y)}" '
                      f'r="{_sig(stroke * 3)}" fill="#b22"/>\n')
    out.write("</svg>\n")
    return out.getvalue()
