"""DNF/CNF constraint formulas over the unit cube.

Variables are 0-based.  Ordinary literals fix one coordinate to 0 or 1.
CNF formulas may additionally carry band literals on variable 0
(k_b <= x_0 <= k_{b+1} against a shared ordered list of band constants),
which is how the closed-surface construction encodes tube sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .geom import rat


class FormulaError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class VarEq:
    """Literal x_var == const with const in {0, 1}."""
    var: int
    const: int

    def __post_init__(self):
        if self.const not in (0, 1) or self.var < 0:
            raise FormulaError(f"bad literal x{self.var}={self.const}")

    def __repr__(self):
        return f"x{self.var}={self.const}"


@dataclass(frozen=True, order=True)
class Band:
    """Literal k_index <= x_0 <= k_{index+1} over the band constants."""
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise FormulaError("negative band index")

    def __repr__(self):
        return f"band{self.index}"


Literal = VarEq | Band


@dataclass(frozen=True)
class DnfFormula:
    """Disjunction of conjunctive clauses of VarEq literals."""
    n: int
    clauses: tuple[tuple[VarEq, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise FormulaError(f"negative variable count {self.n}")
        for clause in self.clauses:
            seen = {}
            for lit in clause:
                if not isinstance(lit, VarEq):
                    raise FormulaError("DNF clauses hold VarEq literals only")
                if lit.var >= self.n:
                    raise FormulaError(f"variable {lit.var} out of range")
                if seen.get(lit.var, lit.const) != lit.const:
                    raise FormulaError(
                        f"contradictory literals on x{lit.var} in one clause")
                seen[lit.var] = lit.const


@dataclass(frozen=True)
class CnfFormula:
    """Conjunction of disjunctive clauses.

    band_constants is empty unless the surface extension is used; when
    present it is the strictly increasing list k_0=0 < ... < k_{m-1}=1
    that Band literals refer to.
    """
    n: int
    clauses: tuple[tuple[Literal, ...], ...]
    band_constants: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise FormulaError(f"negative variable count {self.n}")
        ks = self.band_constants
        if ks:
            if ks[0] != 0 or ks[-1] != 1:
                raise FormulaError("band constants must start at 0 and end at 1")
            if any(a >= b for a, b in zip(ks, ks[1:])):
                raise FormulaError("band constants must strictly increase")
        for clause in self.clauses:
            if not clause:
                raise FormulaError("empty CNF clause")
            if len(set(clause)) != len(clause):
                dup = next(lit for lit in clause if clause.count(lit) > 1)
                raise FormulaError(f"duplicate literal {dup!r} inside a clause")
            for lit in clause:
                if isinstance(lit, VarEq):
                    if lit.var >= self.n:
                        raise FormulaError(f"variable {lit.var} out of range")
                elif isinstance(lit, Band):
                    if not ks:
                        raise FormulaError("band literal without band constants")
                    if lit.index >= len(ks) - 1:
                        raise FormulaError("band index out of range")
                else:
                    raise FormulaError(f"unknown literal {lit!r}")


def dnf(n: int, clauses: Iterable[Iterable[tuple[int, int]]]) -> DnfFormula:
    """Build a DnfFormula from (var, const) pairs."""
    return DnfFormula(n, tuple(tuple(VarEq(v, c) for v, c in cl) for cl in clauses))


def cnf(n: int, clauses, band_constants=()) -> CnfFormula:
    """Build a CnfFormula from literals given as (var, const) pairs,
    ('band', index) pairs, or Literal objects."""
    out = []
    for cl in clauses:
        lits = []
        for item in cl:
            if isinstance(item, (VarEq, Band)):
                lits.append(item)
            elif item[0] == "band":
                lits.append(Band(item[1]))
            else:
                lits.append(VarEq(item[0], item[1]))
        out.append(tuple(lits))
    return CnfFormula(n, tuple(out), tuple(rat(k) for k in band_constants))


def _lit_true(lit: Literal, x: Sequence[Fraction], ks) -> bool:
    if isinstance(lit, VarEq):
        return x[lit.var] == lit.const
    return ks[lit.index] <= x[0] <= ks[lit.index + 1]


def eval_formula(f: DnfFormula | CnfFormula, x: Sequence) -> bool:
    """Evaluate a formula at an exact point of the unit cube."""
    xs = [rat(v) for v in x]
    if len(xs) != f.n:
        raise FormulaError(f"point has dimension {len(xs)}, formula has {f.n}")
    if any(v < 0 or v > 1 for v in xs):
        raise FormulaError("point outside the unit cube")
    if isinstance(f, DnfFormula):
        return any(all(xs[l.var] == l.const for l in cl) for cl in f.clauses)
    ks = f.band_constants
    return all(any(_lit_true(l, xs, ks) for l in cl) for cl in f.clauses)


def dnf_to_cnf(d: DnfFormula) -> CnfFormula:
    """Cross-product CNF of a DNF: one clause per tuple of picks.

    Duplicate literals inside a clause are removed; duplicate clauses are
    kept so that the clause count is exactly the product of the DNF clause
    sizes (the paper's 2^6 = 64 for the Moebius formula).  simplify_cnf
    removes the redundancy.
    """
    if not d.clauses:
        raise FormulaError("empty DNF")
    out = []
    for picks in product(*d.clauses):
        seen = []
        for lit in picks:
            if lit not in seen:
                seen.append(lit)
        out.append(tuple(sorted(seen)))
    return CnfFormula(d.n, tuple(out))


def simplify_cnf(c: CnfFormula) -> CnfFormula:
    """Remove duplicate clauses and subsumed clauses (supersets of another).

    Literals are treated as opaque: a clause like (x2=0 or x2=1) is not a
    tautology over [0,1] and is never dropped.
    """
    kept = _prune_supersets({frozenset(cl) for cl in c.clauses})
    return CnfFormula(c.n, _canonical_clauses(kept), c.band_constants)


def cnf_of_dnf_pruned(d: DnfFormula) -> CnfFormula:
    """Equivalent of simplify_cnf(dnf_to_cnf(d)) without materializing the
    full cross product; clause sets are pruned by subsumption as picks are
    accumulated.  The result is the antichain of minimal hitting picks,
    identical to the unpruned pipeline's output as a set of clauses."""
    if not d.clauses:
        raise FormulaError("empty DNF")
    partial: list[frozenset] = [frozenset()]
    for clause in d.clauses:
        nxt: set[frozenset] = set()
        for base in partial:
            if any(lit in base for lit in clause):
                nxt.add(base)  # clause already hit
                continue
            for lit in clause:
                nxt.add(base | {lit})
        partial = _prune_supersets(nxt)
    return CnfFormula(d.n, _canonical_clauses(partial))


def _prune_supersets(sets: set[frozenset]) -> list[frozenset]:
    """The sets that hold no other one, by size: a subset is smaller than
    its proper supersets, so it is kept before they are met."""
    kept: list[frozenset] = []
    for s in sorted(sets, key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def _canonical_clauses(sets) -> tuple[tuple, ...]:
    """The clauses in canonical order: by size, then by their literals'
    sorted reprs; each clause's literals sorted by repr."""
    return tuple(tuple(sorted(cs, key=repr)) for cs in
                 sorted(sets, key=lambda s: (len(s), sorted(map(repr, s)))))


def grid_axes(f: CnfFormula | DnfFormula) -> list[list[Fraction]]:
    """Representative values per axis such that every literal's truth
    value is constant between consecutive representatives: corners and
    midpoints, and on x_0 the band constants and their midpoints."""
    axes = [[Fraction(0), Fraction(1, 2), Fraction(1)] for _ in range(f.n)]
    ks = f.band_constants if isinstance(f, CnfFormula) else ()
    if ks and f.n:
        axes[0] = sorted(set(ks) | {(a + b) / 2 for a, b in zip(ks, ks[1:])})
    return axes


def cell_equivalent(f: CnfFormula | DnfFormula, g: CnfFormula | DnfFormula) -> bool:
    """Exact finite equivalence oracle.

    Every literal is constant on each cell of the grid partition (corners,
    midpoints, and band representatives on x_0), so agreement on the grid
    implies agreement everywhere on the cube.
    """
    if f.n != g.n:
        raise FormulaError("dimension mismatch")
    kf = f.band_constants if isinstance(f, CnfFormula) else ()
    kg = g.band_constants if isinstance(g, CnfFormula) else ()
    if kf and kg and kf != kg:
        raise FormulaError("band constant mismatch")
    return separating_point(f, g) is None


def separating_point(f, g):
    """A grid point where the two formulas disagree, or None."""
    if f.n != g.n:
        raise FormulaError("dimension mismatch")
    ref = f if (isinstance(f, CnfFormula) and f.band_constants) else g
    for xs in product(*grid_axes(ref)):
        if eval_formula(f, xs) != eval_formula(g, xs):
            return xs
    return None
