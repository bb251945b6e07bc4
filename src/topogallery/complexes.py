"""Abstract cubical complexes and their conversion to DNF membership formulas.

A face of the n-cube is a partial 0/1 assignment stored as a tuple over
{0, 1, None} of length n (None marks a free coordinate).  A complex is a
downward-closed set of faces; its geometric realization is the union of
the faces inside [0,1]^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .formulas import DnfFormula, VarEq
from .geom import rat

Face = tuple  # tuple of 0 | 1 | None


class ComplexError(ValueError):
    pass


def face_dim(face: Face) -> int:
    return sum(1 for v in face if v is None)


def subfaces(face: Face) -> list[Face]:
    """The faces obtained by fixing one free coordinate each way."""
    out = []
    for i, v in enumerate(face):
        if v is None:
            for c in (0, 1):
                out.append(face[:i] + (c,) + face[i + 1:])
    return out


def face_closure(face: Face) -> set[Face]:
    todo = [face]
    seen = {face}
    while todo:
        f = todo.pop()
        for g in subfaces(f):
            if g not in seen:
                seen.add(g)
                todo.append(g)
    return seen


def face_contains_point(face: Face, x: Sequence[Fraction]) -> bool:
    return all(v is None or rat(xi) == v for v, xi in zip(face, x))


def face_string(face: Face) -> str:
    return "".join("*" if v is None else str(v) for v in face)


def parse_face(s: str) -> Face:
    out = []
    for ch in s:
        if ch == "*":
            out.append(None)
        elif ch in "01":
            out.append(int(ch))
        else:
            raise ComplexError(f"bad face character {ch!r} in {s!r}")
    return tuple(out)


@dataclass(frozen=True)
class CubicalComplex:
    """Downward-closed face set of the n-cube (validated via validate_complex)."""
    n: int
    faces: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ComplexError(f"negative dimension {self.n}")
        bad = [f for f in self.faces if _face_fault(f, self.n)]
        if bad:
            raise ComplexError(_face_fault(min(bad, key=face_string), self.n))

    def maximal_faces(self) -> list[Face]:
        """The faces that lie in no other face, in `face_string` order.

        Needs a downward-closed face set (`validate_complex`; every caller
        validates first).  There a face f lies in another face g iff one
        of f's cofacets, f with one fixed coordinate freed, is present: g
        frees some coordinate that f fixes, and freeing it in f gives a
        face of g, which the closure holds.  So each face is tested
        against its at most n cofacets."""
        faces = self.faces
        maxi = [f for f in faces
                if not any(f[:i] + (None,) + f[i + 1:] in faces
                           for i, v in enumerate(f) if v is not None)]
        return sorted(maxi, key=face_string)

    def contains_point(self, x: Sequence) -> bool:
        xs = [rat(v) for v in x]
        return any(face_contains_point(f, xs) for f in self.faces)

    def dimension(self) -> int:
        return max((face_dim(f) for f in self.faces), default=-1)


def _face_fault(face: Face, n: int) -> str | None:
    """Why face cannot be a face of the n-cube, or None if it can."""
    if len(face) != n:
        return f"face {face_string(face)} has length {len(face)}, expected {n}"
    if any(v not in (0, 1, None) for v in face):
        return f"bad face entry in {face_string(face)}"
    return None


def complex_from_faces(n: int, faces: Iterable[Face | str]) -> CubicalComplex:
    """Complex generated by the given faces (downward closure taken).  The
    given faces are checked first, in order, so an error names one of
    them rather than a face of its closure; CubicalComplex reports a
    negative n."""
    gen = [parse_face(f) if isinstance(f, str) else tuple(f) for f in faces]
    closed: set[Face] = set()
    for f in gen:
        fault = _face_fault(f, n) if n >= 0 else None
        if fault:
            raise ComplexError(fault)
        closed |= face_closure(f)
    return CubicalComplex(n, frozenset(closed))


def validate_complex(k: CubicalComplex) -> CubicalComplex:
    """Check downward closure; returns k unchanged if valid.  A violation
    names the least present face (by `face_string`) that lacks a sub-face,
    and its least missing sub-face."""
    bad = [(f, g) for f in k.faces for g in subfaces(f) if g not in k.faces]
    if bad:
        f, g = min(bad, key=lambda fg: (face_string(fg[0]), face_string(fg[1])))
        raise ComplexError(
            f"closure violation: face {face_string(f)} is present "
            f"but sub-face {face_string(g)} is missing")
    return k


def complex_to_dnf(k: CubicalComplex) -> DnfFormula:
    """One conjunctive clause per maximal face; literals are the fixed
    coordinates of that face."""
    validate_complex(k)
    if not k.faces:
        raise ComplexError("empty complex has no membership formula")
    clauses = []
    for f in k.maximal_faces():
        clauses.append(tuple(VarEq(i, v) for i, v in enumerate(f) if v is not None))
    return DnfFormula(k.n, tuple(clauses))


def remove_face(k: CubicalComplex, face: Face) -> CubicalComplex:
    """Complex minus one face (its boundary stays; closure is preserved)."""
    if face not in k.faces:
        raise ComplexError(f"face {face_string(face)} not in complex")
    return CubicalComplex(k.n, k.faces - {face})


def face_with_boundary(k: CubicalComplex, face: Face) -> CubicalComplex:
    """The subcomplex consisting of one face and all of its sub-faces."""
    if face not in k.faces:
        raise ComplexError(f"face {face_string(face)} not in complex")
    return CubicalComplex(k.n, frozenset(face_closure(face)))


# --- fixtures --------------------------------------------------------------

def circle_complex() -> CubicalComplex:
    """S^1: the boundary of the unit square in two variables."""
    return complex_from_faces(2, ["0*", "1*", "*0", "*1"])


def mobius_complex() -> CubicalComplex:
    """The Moebius strip in four variables: six 2-faces plus closure.

    Coordinates follow the convention that x3=0 (0-based) holds on the
    outer shell; clauses traverse the strip face by face.
    """
    return complex_from_faces(4, [
        "*0*0",  # x1=0, x3=0
        "0**0",  # x0=0, x3=0
        "0*1*",  # x0=0, x2=1
        "**11",  # x2=1, x3=1
        "*0*1",  # x1=0, x3=1
        "*00*",  # x1=0, x2=0
    ])


def sphere_complex() -> CubicalComplex:
    """S^2: the boundary of the unit 3-cube."""
    faces = []
    for i in range(3):
        for c in "01":
            s = ["*"] * 3
            s[i] = c
            faces.append("".join(s))
    return complex_from_faces(3, faces)


def torus_complex() -> CubicalComplex:
    """T^2 = S^1 x S^1 inside [0,1]^4: products of the square-boundary edges."""
    faces = []
    for i in (0, 1):
        for a in "01":
            for j in (2, 3):
                for b in "01":
                    s = ["*"] * 4
                    s[i] = a
                    s[j] = b
                    faces.append("".join(s))
    return complex_from_faces(4, faces)


# Minimal 6-vertex triangulation of the real projective plane; every edge
# lies in exactly two triangles and every vertex link is a pentagon.
RP2_TRIANGLES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def cubulate_simplicial(n_vertices: int, triangles: Sequence[tuple[int, int, int]]) -> CubicalComplex:
    """Cubical complex homeomorphic to a 2-dimensional simplicial complex.

    Uses the max-norm sphere model: simplex sigma maps to the union over
    v in sigma of the faces {x_v = 1, x_w = 0 for w outside sigma}, which
    glue into a region homeomorphic to sigma.
    """
    faces = []
    for tri in triangles:
        for v in tri:
            face = [0] * n_vertices
            for u in tri:
                face[u] = None
            face[v] = 1
            faces.append(tuple(face))
    return complex_from_faces(n_vertices, faces)


def projective_plane_complex() -> CubicalComplex:
    """RP^2 as a cubical complex in six variables (30 two-faces)."""
    return cubulate_simplicial(6, RP2_TRIANGLES)
