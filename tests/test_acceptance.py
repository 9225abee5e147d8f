"""Acceptance suite: one test per criterion, at the stated degree bounds.

All checks are exact (no tolerances).  Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import glob
import json
import math
import os
from fractions import Fraction

import pytest

from bvalg.algebra import Element, Generator, Monomial
from bvalg.cli import main as cli_main
from bvalg.dsl import ParseError, parse_presentation, render_presentation
from bvalg.fields import FieldSpec, GF2, QQ
from bvalg.fixtures import (abelian_ungraded, framed_disks_descriptor, heisenberg,
                            loopspace_model, omega2_s3_f2, spherical_bv)
from bvalg.homology import betti, build_ce_complex
from bvalg.hopf import (add_derivation_action, antipode, bv_operator, coproduct,
                        coproduct_monomial, derivation_from_generator_values,
                        is_coderivation, primitive_basis)
from bvalg.hopf import TensorElement
from bvalg.bv import (BVStructure, free_bv, verify_bracket_compatibility,
                      verify_deviation_identity, verify_gerstenhaber,
                      verify_square_zero)

from oracles import betti_from_boundaries
from strategies import seeded_structures

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

BATTERY_SEED = 20260808
WINDOW = 10


def _mixed_differential_presentation():
    """d x = y, d z = w with {x,y} = z and {y,y} = w: both operator summands
    are nonzero at once."""
    from bvalg.lie import LiePresentation
    f = QQ
    gx, gy = Generator("x", 3), Generator("y", 2)
    gz, gw = Generator("z", 6), Generator("w", 5)
    return LiePresentation(f, 2, [gx, gy, gz, gw],
                           brackets={("x", "y"): Element.from_generator(f, gz),
                                     ("y", "y"): Element.from_generator(f, gw)},
                           differential={"x": Element.from_generator(f, gy),
                                         "z": Element.from_generator(f, gw)})


@pytest.fixture(scope="module")
def battery():
    """Criterion-3 structures: two loop-space fixtures, a fixture with
    nonzero differential, plus five randomized presentations (at most 3
    generators, degrees <= 6) that pass the Lie axiom checker, at least
    three of them with nonzero structure constants."""
    structures = [loopspace_model(2, 4, max_degree=WINDOW),
                  loopspace_model(4, 6, max_degree=WINDOW),
                  BVStructure(_mixed_differential_presentation(), WINDOW)]
    drawn = seeded_structures(BATTERY_SEED, basis_budget=80, window=WINDOW)
    with_brackets, without = [], []
    while len(with_brackets) < 3 or len(with_brackets) + len(without) < 5:
        s = next(drawn)
        bucket = (with_brackets
                  if any(not v.is_zero for v in s.presentation.brackets.values())
                  else without)
        bucket.append(s)
    structures.extend((with_brackets + without)[:max(5, len(with_brackets))])
    return structures


def _pass(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


def test_criterion_01_char2_bottom_class(capsys):
    # the operator sends the bottom class to its square, exactly
    structure = omega2_s3_f2(4)
    u1 = structure.presentation.gen("u1")
    value = structure.bv_monomial(Monomial(((u1, 1),)))
    assert value == Element.from_monomial(GF2, Monomial(((u1, 2),)))
    code = cli_main(["fixture", "omega2-s3-f2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bv(u1) = u1^2" in out
    _pass(1, "fixture omega2-s3-f2 reports bv(u1) = u1^2")


def test_criterion_02_rational_spherical_vanishing():
    for n in (2, 4):
        for m in (n + 1, n + 2):
            structure = loopspace_model(n, m, max_degree=12)
            singles = [mono for mono in structure.basis() if mono.wordlength == 1]
            assert singles
            for mono in singles:
                assert free_bv(structure, Element.from_monomial(QQ, mono)).is_zero, \
                    (n, m, str(mono))
    _pass(2, "free operator vanishes on wordlength-1 classes up to degree 12")


def test_criterion_03_free_bv_axiom_suite(battery):
    assert len(battery) >= 8
    for i, structure in enumerate(battery):
        square = verify_square_zero(structure)
        assert square.passed and square.coverage == "1", i
        names = [c.name for c in square.checks]
        assert {"d0-squared", "d1-squared", "d0-d1-anticommute",
                "bv-squared"} <= set(names)
        deviation = verify_deviation_identity(structure)
        assert deviation.passed and deviation.coverage == "1"
        compat = verify_bracket_compatibility(structure)
        assert compat.passed and compat.coverage == "1"
    _pass(3, f"square-zero + deviation + compatibility on {len(battery)} structures, "
             f"pairs up to degree {WINDOW}")


def test_criterion_04_recursion_matches_free_operator(battery):
    for i, structure in enumerate(battery):
        values = {g.id: free_bv(structure, Element.from_generator(structure.field, g))
                  for g in structure.generators}
        twin = BVStructure(structure.presentation, WINDOW, values)
        for mono in structure.basis():
            recursed = twin.bv_monomial(mono)
            direct = free_bv(structure, Element.from_monomial(structure.field, mono))
            assert recursed == direct, (i, str(mono))
    _pass(4, "deviation recursion equals the free operator term by term up to degree 10")


def test_criterion_05_ce_homology():
    for k in range(1, 6):
        assert betti(build_ce_complex(abelian_ungraded(k))) \
            == [math.comb(k, i) for i in range(k + 1)]
    # the committed hand-built matrix oracle comes first
    with open(os.path.join(DATA_DIR, "heisenberg_boundaries.json")) as fh:
        doc = json.load(fh)
    dims = {int(g): d for g, d in doc["dimensions"].items()}
    bounds = {int(g): [[Fraction(x) for x in row] for row in rows]
              for g, rows in doc["boundaries"].items()}
    oracle = betti_from_boundaries(dims, bounds, doc["step"])
    assert oracle == [1, 2, 2, 1]
    assert betti(build_ce_complex(heisenberg())) == oracle
    _pass(5, "abelian Betti = binomials for k <= 5; Heisenberg = (1,2,2,1) vs oracle")


def test_criterion_06_gerstenhaber_suite(battery):
    for i, structure in enumerate(battery):
        report = verify_gerstenhaber(structure)
        assert report.passed and report.coverage == "1", i
        names = {c.name for c in report.checks}
        assert {"bracket-antisymmetry", "bracket-jacobi", "poisson-relation"} <= names
    _pass(6, f"antisymmetry + Jacobi + Poisson on triples up to degree {WINDOW}")


def test_criterion_07_hopf_suite():
    fixtures = [loopspace_model(2, 3, max_degree=10),
                loopspace_model(2, 4, max_degree=10),
                loopspace_model(4, 5, max_degree=10),
                loopspace_model(4, 6, max_degree=10)]
    for structure in fixtures:
        field = structure.field
        basis = structure.basis()
        for mono in basis:
            delta = coproduct_monomial(field, mono)
            left = TensorElement.zero(field, 3)
            right = TensorElement.zero(field, 3)
            for (m1, m2), c in delta.terms():
                for (a, b), c2 in coproduct_monomial(field, m1).terms():
                    left = left + TensorElement(field, 3, {(a, b, m2): field.mul(c, c2)})
                for (a, b), c2 in coproduct_monomial(field, m2).terms():
                    right = right + TensorElement(field, 3, {(m1, a, b): field.mul(c, c2)})
            assert left == right, str(mono)
            element = Element.from_monomial(field, mono)
            convolution = coproduct(element).apply_slot(
                0, lambda m: antipode(Element.from_monomial(field, m)), 0).multiply_out()
            expected = Element.unit(field) if mono.is_unit else Element.zero(field)
            assert convolution == expected, str(mono)
        for d in range(1, 11):
            for prim in primitive_basis(field, structure.generators, d):
                assert antipode(prim) == -prim
        report = is_coderivation(bv_operator(structure), structure.generators, 10)
        assert report.passed and report.coverage == "1"
    _pass(7, "coassociativity, antipode convolution, antipode = -id on primitives, "
             "free operator coderivation up to degree 10")


def test_criterion_08_derivations_leave_bracket_unchanged():
    structure = loopspace_model(2, 4, max_degree=10)
    base = bv_operator(structure)
    a = structure.presentation.gen("a")
    b = structure.presentation.gen("b")
    cubed = Element.from_monomial(QQ, Monomial(((a, 3),)))
    derivations = {
        "zero": derivation_from_generator_values(QQ, {}, degree=1),
        "b->a^3": derivation_from_generator_values(QQ, {"b": cubed}, degree=1),
        "b->-a^3": derivation_from_generator_values(QQ, {"b": cubed.scale(-1)}, degree=1),
        "a->b": derivation_from_generator_values(
            QQ, {"a": Element.from_generator(QQ, b)}, degree=3),
    }
    for label, derivation in derivations.items():
        report = add_derivation_action(base, derivation,
                                       structure.generators, 10)
        assert report.passed and report.coverage == "1", label
        names = [c.name for c in report.checks]
        assert names == ["derivation-law", "bracket-unchanged-by-derivation"]
    _pass(8, f"{len(derivations)} verified derivations leave the deviation bracket "
             "unchanged on pairs up to degree 10")


def test_criterion_09_descriptor_and_spherical_battery():
    expected_bv = {2: 1, 3: None, 4: 3, 5: None, 6: 5}
    for n in range(2, 7):
        d = framed_disks_descriptor(n, QQ)
        assert d.bv_degree == expected_bv[n]
        assert d.has_bv == (n % 2 == 0)
        trivial = [g for g in d.so_generators if g.action == "trivial"]
        if n % 2 == 0:
            assert len(trivial) == len(d.so_generators) - 1
        else:
            assert len(trivial) == len(d.so_generators)
        assert {g.degree for g in trivial} <= {3, 7, 11}
    u1 = Generator("u1", 1)
    square = Element.from_monomial(GF2, Monomial(((u1, 2),)))
    # the composites of the identity of the 3-sphere, a null one and a
    # suspension's
    composites = [square, Element.zero(GF2), square]
    for p in (3, 5):
        field = FieldSpec.prime(p)
        for composite in composites:
            assert spherical_bv(composite, field) == Element.zero(field)
    _pass(9, "descriptor matches the orthogonal-group table for n = 2..6; "
             "spherical operator vanishes over F3 and F5")


def test_criterion_10_parser_and_reports(capsys, tmp_path):
    # round-trip stability on every shipped fixture
    paths = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.lie")))
    assert len(paths) >= 4
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = parse_presentation(fh.read())
        assert parse_presentation(render_presentation(source)) == source
    # the three diagnostic examples, with line numbers
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nshift n=2\ngen a : -1\n")
    assert (exc.value.diagnostics[0].line, exc.value.diagnostics[0].message) \
        == (3, "degree must be >= 0")
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nshift n=2\ngen a : 3\ngen b : 6\n"
                           "bracket [a,b] = a\n")
    assert (exc.value.diagnostics[0].line, exc.value.diagnostics[0].message) \
        == (5, "bracket degree 10 expected, got 3")
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nshift n=2\ngen a : 2\ngen b : 5\n"
                           "bracket [a,b] = c\n")
    assert exc.value.diagnostics[0].line == 5
    assert "undeclared symbol 'c'" in exc.value.diagnostics[0].message
    # byte-identical machine reports across runs
    argv = ["fixture", "loopspace:2:4", "--verify", "--max-degree", "8",
            "--format", "json"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
    _pass(10, "round-trip on shipped fixtures, pinned diagnostics, stable json")
