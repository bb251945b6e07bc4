"""Tests for DNF/CNF formulas, conversions, and the equivalence oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topogallery.compiler import canonical_removed_faces
from topogallery.complexes import (
    ComplexError,
    CubicalComplex,
    circle_complex,
    complex_from_faces,
    complex_to_dnf,
    face_closure,
    face_string,
    face_with_boundary,
    mobius_complex,
    parse_face,
    projective_plane_complex,
    remove_face,
    sphere_complex,
    torus_complex,
    validate_complex,
)
from topogallery.formulas import (
    CnfFormula,
    FormulaError,
    VarEq,
    cell_equivalent,
    cnf,
    cnf_of_dnf_pruned,
    dnf,
    dnf_to_cnf,
    eval_formula,
    separating_point,
    simplify_cnf,
)


def mobius_dnf():
    return complex_to_dnf(mobius_complex())


def paper_mobius_cnf():
    # the 5-clause simplification of the Moebius membership formula
    return cnf(4, [
        [(0, 0), (1, 0), (2, 1)],
        [(1, 0), (2, 1), (3, 0)],
        [(0, 0), (1, 0), (3, 1)],
        [(2, 0), (2, 1), (3, 0), (3, 1)],
        [(0, 0), (2, 0), (3, 0), (3, 1)],
    ])


# --- complexes -------------------------------------------------------------

def test_circle_complex_valid():
    k = validate_complex(circle_complex())
    assert len([f for f in k.faces if f.count(None) == 1]) == 4
    assert len([f for f in k.faces if f.count(None) == 0]) == 4


def test_missing_subface_reported():
    k = CubicalComplex(2, frozenset({parse_face("0*")}))
    with pytest.raises(ComplexError, match="closure violation"):
        validate_complex(k)


def test_closure_violation_names_the_least_face():
    # *0 lacks 10 and *1 lacks 11; the least face by its string is named
    k = CubicalComplex(2, frozenset(map(parse_face, ["*0", "*1", "00", "01"])))
    with pytest.raises(ComplexError, match="^closure violation: face \\*0 is "
                       "present but sub-face 10 is missing$"):
        validate_complex(k)


def test_wrong_length_face_names_the_written_or_least_face():
    # complex_from_faces names the first written face at fault; a complex
    # built directly names the least face of those at fault
    with pytest.raises(ComplexError, match="^face 1\\*0 has length 3, expected 2$"):
        complex_from_faces(2, ["1*", "1*0", "***"])
    with pytest.raises(ComplexError, match="^face \\*\\*\\* has length 3, expected 2$"):
        CubicalComplex(2, frozenset(face_closure(parse_face("***"))))
    with pytest.raises(ComplexError, match="^bad face entry in 02$"):
        CubicalComplex(2, frozenset({(0, 2), (1, 3), (0, 0)}))


def test_mobius_complex_valid():
    k = validate_complex(mobius_complex())
    assert sum(1 for f in k.faces if f.count(None) == 2) == 6


def test_complex_to_dnf_mobius():
    d = mobius_dnf()
    assert len(d.clauses) == 6
    assert all(len(cl) == 2 for cl in d.clauses)


def test_complex_to_dnf_circle():
    d = complex_to_dnf(circle_complex())
    assert len(d.clauses) == 4
    assert all(len(cl) == 1 for cl in d.clauses)


def test_complex_to_dnf_single_vertex():
    k = complex_from_faces(2, ["00"])
    d = complex_to_dnf(k)
    assert len(d.clauses) == 1
    assert len(d.clauses[0]) == 2


def _maximal_by_definition(k: CubicalComplex) -> list:
    # all pairs: f is maximal iff no other face g fixes a subset of f's
    # fixed coordinates, to f's values
    def inside(f, g):
        return all(gv is None or gv == fv for fv, gv in zip(f, g))
    return sorted((f for f in k.faces
                   if not any(g != f and inside(f, g) for g in k.faces)),
                  key=face_string)


@pytest.mark.parametrize("make", [circle_complex, mobius_complex,
                                  sphere_complex, torus_complex,
                                  projective_plane_complex])
def test_maximal_faces_match_the_definition_on_fixtures(make):
    k = make()
    assert k.maximal_faces() == _maximal_by_definition(k)
    # the four subcomplexes surface_formula takes of a surface fixture
    if k.dimension() == 2:
        for f in canonical_removed_faces(k):
            for sub in (remove_face(k, f), face_with_boundary(k, f)):
                assert sub.maximal_faces() == _maximal_by_definition(sub)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.sampled_from((0, 1, None))] * n),
                         max_size=8))))
def test_maximal_faces_match_the_definition_on_closed_complexes(case):
    n, gen = case
    k = complex_from_faces(n, gen)
    assert k.maximal_faces() == _maximal_by_definition(k)


def test_membership_matches_dnf():
    rng = random.Random(11)
    k = mobius_complex()
    d = mobius_dnf()
    for _ in range(300):
        x = [Fraction(rng.randint(0, 4), 4) for _ in range(4)]
        assert k.contains_point(x) == eval_formula(d, x)


# --- conversions -----------------------------------------------------------

def test_dnf_to_cnf_counts():
    c = dnf_to_cnf(mobius_dnf())
    assert len(c.clauses) == 64


def test_dnf_to_cnf_single_clause():
    d = dnf(2, [[(0, 0), (1, 1)]])
    c = dnf_to_cnf(d)
    assert len(c.clauses) == 2
    assert all(len(cl) == 1 for cl in c.clauses)


def test_dnf_to_cnf_single_literals():
    d = dnf(2, [[(0, 0)], [(1, 1)]])
    c = dnf_to_cnf(d)
    assert len(c.clauses) == 1
    assert set(c.clauses[0]) == {VarEq(0, 0), VarEq(1, 1)}


def test_simplify_removes_duplicates():
    c = cnf(2, [[(0, 0)], [(0, 0)]])
    assert len(simplify_cnf(c).clauses) == 1


def test_simplify_subsumption():
    c = cnf(2, [[(0, 0)], [(0, 0), (1, 1)]])
    s = simplify_cnf(c)
    assert len(s.clauses) == 1
    assert s.clauses[0] == (VarEq(0, 0),)


def test_simplify_idempotent():
    c = dnf_to_cnf(mobius_dnf())
    s1 = simplify_cnf(c)
    s2 = simplify_cnf(s1)
    assert s1 == s2


def test_simplify_mobius_reaches_paper_form():
    s = simplify_cnf(dnf_to_cnf(mobius_dnf()))
    assert len(s.clauses) == 5
    assert cell_equivalent(s, paper_mobius_cnf())


def test_pruned_pipeline_matches():
    d = mobius_dnf()
    a = simplify_cnf(dnf_to_cnf(d))
    b = cnf_of_dnf_pruned(d)
    assert set(map(frozenset, a.clauses)) == set(map(frozenset, b.clauses))


def test_distribution_preserves_meaning():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, n)
            vars_ = rng.sample(range(n), size)
            clauses.append([(v, rng.randint(0, 1)) for v in vars_])
        d = dnf(n, clauses)
        c = dnf_to_cnf(d)
        assert cell_equivalent(d, c)
        assert cell_equivalent(c, simplify_cnf(c))


# --- evaluation ------------------------------------------------------------

def test_eval_mobius_examples():
    d = mobius_dnf()
    assert eval_formula(d, [Fraction(1, 2), 0, Fraction(1, 2), 0])
    assert not eval_formula(d, [Fraction(1, 2)] * 4)


def test_eval_band():
    f = cnf(1, [[("band", 0)]], band_constants=[0, Fraction(1, 3), 1])
    assert eval_formula(f, [Fraction(1, 4)])
    assert not eval_formula(f, [Fraction(1, 2)])


def test_eval_dimension_mismatch():
    with pytest.raises(FormulaError):
        eval_formula(mobius_dnf(), [0, 0, 0])


# --- oracle ----------------------------------------------------------------

def test_cell_equivalent_mobius():
    assert cell_equivalent(mobius_dnf(), paper_mobius_cnf())


def test_cell_equivalent_detects_difference():
    # deleting the (x2=0 or x2=1 or x3=0 or x3=1) clause admits points with
    # both x2 and x3 strictly interior; the grid search finds one
    full = paper_mobius_cnf()
    broken = CnfFormula(4, full.clauses[:3] + full.clauses[4:])
    assert not cell_equivalent(broken, mobius_dnf())
    x = separating_point(broken, mobius_dnf())
    assert x is not None
    assert eval_formula(broken, x) != eval_formula(mobius_dnf(), x)


def test_paper_cnf_first_clause_is_redundant():
    # curiosity check: clauses 2 and 3 of the published 5-clause form force
    # clause 1 (its negation would need x3=0 and x3=1 at once), so deleting
    # clause 1 preserves equivalence; the 5-clause form is not irredundant
    full = paper_mobius_cnf()
    assert cell_equivalent(CnfFormula(4, full.clauses[1:]), mobius_dnf())


def test_cell_equivalent_self():
    f = paper_mobius_cnf()
    assert cell_equivalent(f, f)


def test_band_constants_validation():
    with pytest.raises(FormulaError):
        cnf(1, [[("band", 0)]], band_constants=[0, 1, Fraction(1, 2)])
    with pytest.raises(FormulaError):
        cnf(1, [[("band", 2)]], band_constants=[0, 1])
    with pytest.raises(FormulaError):
        cnf(1, [[]])


def test_negative_dimension_and_duplicate_literal_rejected():
    with pytest.raises(FormulaError, match="negative variable count -1"):
        cnf(-1, [])
    with pytest.raises(FormulaError, match="negative variable count -1"):
        dnf(-1, [])
    with pytest.raises(ComplexError, match="negative dimension -2"):
        CubicalComplex(-2, frozenset())
    with pytest.raises(FormulaError, match="duplicate literal band0 inside"):
        cnf(2, [[(1, 0), ("band", 0), ("band", 0)]], band_constants=[0, 1])
    # the same variable with both constants is two literals, not a repeat
    assert cnf(1, [[(0, 0), (0, 1)]]).clauses == ((VarEq(0, 0), VarEq(0, 1)),)
