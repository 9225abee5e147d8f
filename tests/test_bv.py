import os
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from bvalg.algebra import Element, Generator, Monomial, WindowTuples, leibniz, normalize_word
from bvalg.fields import GF2, QQ, FieldSpec
from bvalg.lie import LiePresentation, check_lie_axioms
from bvalg import bv
from bvalg.bv import (FREE, USER, BVStructure, Undefined, free_bv, poisson_bracket,
                      verify_bracket_compatibility, verify_bv_axioms,
                      verify_deviation_identity, verify_gerstenhaber,
                      verify_square_zero)
from bvalg.dsl import parse_presentation
from bvalg.fixtures import loopspace_model, omega2_s3_f2
from bvalg.hopf import (GradedMap, add_derivation_action, bracket_from_operator, bv_operator,
                        derivation_from_generator_values)

from oracles import ref_add, ref_bracket, ref_identity_reports, ref_operator
from strategies import DRAWN, ORACLE_SHAPES, seeded_structures, structures


ROOT = os.path.join(os.path.dirname(__file__), "..")


def gen_elt(field, g, coeff=1):
    return Element.from_monomial(field, Monomial(((g, 1),)), coeff)


def loops24():
    return loopspace_model(2, 4, max_degree=12)


def mixed_differential_structure():
    """d x = y, d z = w, {x,y} = z, {y,y} = w at shift 2 over Q."""
    f = QQ
    gx, gy = Generator("x", 3), Generator("y", 2)
    gz, gw = Generator("z", 6), Generator("w", 5)
    p = LiePresentation(f, 2, [gx, gy, gz, gw],
                        brackets={("x", "y"): gen_elt(f, gz),
                                  ("y", "y"): gen_elt(f, gw)},
                        differential={"x": gen_elt(f, gy), "z": gen_elt(f, gw)})
    return BVStructure(p, 10)


def part(element, wordlength):
    """The terms of an element of one wordlength."""
    return Element(element.field,
                   {m: c for m, c in element.terms() if m.wordlength == wordlength})


# -- Poisson bracket -------------------------------------------------------------


def test_bracket_with_unit_vanishes():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    assert poisson_bracket(s, a, Element.unit(QQ)).is_zero
    assert poisson_bracket(s, Element.unit(QQ), a).is_zero


def test_bracket_extends_by_poisson_relation():
    # {a, b^2} = 2bc from {a,b} = c with |a|=1, |b|=2 at shift 2
    f = QQ
    ga, gb, gc = Generator("a", 1), Generator("b", 2), Generator("c", 4)
    p = LiePresentation(f, 2, [ga, gb, gc], {("a", "b"): gen_elt(f, gc)})
    s = BVStructure(p, 10)
    b = gen_elt(f, gb)
    expected = (b * gen_elt(f, gc)).scale(2)
    assert poisson_bracket(s, gen_elt(f, ga), b * b) == expected


def test_bracket_of_generators_matches_table():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    assert poisson_bracket(s, a, a) == gen_elt(QQ, s.presentation.gen("b"))


# -- the two summands of the free operator, read by wordlength --------------------
#
# The differential part keeps wordlength; the bracket contraction lowers it by one.


def test_differential_part_zero_without_differential():
    s = loops24()
    for mono in s.basis():
        assert part(free_bv(s, Element.from_monomial(QQ, mono)), mono.wordlength).is_zero


def test_differential_part_single_letter():
    s = mixed_differential_structure()
    x = gen_elt(QQ, s.presentation.gen("x"))
    y = gen_elt(QQ, s.presentation.gen("y"))
    assert part(free_bv(s, x), 1) == -y


def test_differential_part_two_letters():
    # d applies to the first letter only when the second is closed
    f = QQ
    gx, gy, gz = Generator("x", 3), Generator("y", 2), Generator("z", 5)
    p = LiePresentation(f, 2, [gx, gy, gz], differential={"x": gen_elt(f, gy)})
    s = BVStructure(p, 10)
    xz = gen_elt(f, gx) * gen_elt(f, gz)
    expected = -(gen_elt(f, gy) * gen_elt(f, gz))
    assert part(free_bv(s, xz), 2) == expected


def test_bracket_part_vanishes_on_single_letters():
    s = loops24()
    for g in s.generators:
        assert part(free_bv(s, gen_elt(QQ, g)), 0).is_zero


def test_bracket_part_on_squares_and_cubes():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    b = gen_elt(QQ, s.presentation.gen("b"))
    assert part(free_bv(s, a * a), 1) == b
    assert part(free_bv(s, a * a * a), 2) == (a * b).scale(3)


def test_free_bv_values():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    b = gen_elt(QQ, s.presentation.gen("b"))
    assert free_bv(s, a * a) == b
    assert free_bv(s, a * a * b).is_zero  # lands on b^2 = 0
    assert free_bv(s, a).is_zero
    assert free_bv(s, b).is_zero


def test_free_bv_on_mixed_differential_fixture():
    s = mixed_differential_structure()
    f = QQ
    y = gen_elt(f, s.presentation.gen("y"))
    x = gen_elt(f, s.presentation.gen("x"))
    z = gen_elt(f, s.presentation.gen("z"))
    assert free_bv(s, y * x) == -(y * y) - z


def test_abelian_zero_differential_gives_zero_operator():
    p = LiePresentation(QQ, 2, [Generator("a", 1), Generator("b", 2)])
    s = BVStructure(p, 8)
    for mono in s.basis():
        assert free_bv(s, Element.from_monomial(QQ, mono)).is_zero


# -- user operators from generator values ----------------------------------------


def test_bv_extend_unit_is_zero():
    s = omega2_s3_f2(4)
    assert s.bv_element(Element.unit(GF2)).is_zero


def test_bv_extend_matches_free_operator():
    for s in (loops24(), mixed_differential_structure()):
        values = {g.id: free_bv(s, gen_elt(s.field, g)) for g in s.generators}
        twin = BVStructure(s.presentation, s.truncation, values)
        for mono in s.basis():
            elt = Element.from_monomial(s.field, mono)
            assert twin.bv_monomial(mono) == free_bv(s, elt), str(mono)


def test_bv_extend_char2_square():
    # with bv(u1) = u1^2 and {u1,u1} = c supplied, the derivation terms cancel
    # mod 2 and bv(u1^2) = c
    f = GF2
    base = omega2_s3_f2(6)
    u1 = base.presentation.gen("u1")
    u2 = base.presentation.gen("u2")
    c = gen_elt(f, u2)
    s = BVStructure(base.presentation, 6,
                          bv_values={"u1": Element.from_monomial(f, Monomial(((u1, 2),)))},
                          partial_brackets={("u1", "u1"): c})
    sq = Monomial(((u1, 2),))
    assert s.bv_monomial(sq) == c


@pytest.mark.parametrize("bad, message", [("outside-span", "generator span"),
                                          ("both-orientations", "tabulated twice"),
                                          ("wrong-field", "field mismatch"),
                                          ("wrong-degree", "degree 5 expected, got 3")])
def test_partial_bracket_table_is_validated(bad, message):
    base = omega2_s3_f2(6)
    u1, u2 = base.presentation.gen("u1"), base.presentation.gen("u2")
    table = {
        "outside-span": {("u1", "u1"): Element.from_monomial(GF2, Monomial(((u1, 2),)))},
        "both-orientations": {("u1", "u2"): Element.zero(GF2),
                              ("u2", "u1"): Element.zero(GF2)},
        "wrong-field": {("u1", "u1"): gen_elt(QQ, u2)},
        "wrong-degree": {("u1", "u2"): gen_elt(GF2, u2)},
    }[bad]
    with pytest.raises(ValueError, match=message):
        BVStructure(base.presentation, 6, bv_values={}, partial_brackets=table)


def test_bracket_gap_is_named_by_its_canonical_pair():
    s = omega2_s3_f2(20)
    u1, u2 = s.presentation.gen("u1"), s.presentation.gen("u2")
    assert (poisson_bracket(s, gen_elt(GF2, u2), gen_elt(GF2, u1))
            == poisson_bracket(s, gen_elt(GF2, u1), gen_elt(GF2, u2))
            == Undefined("bracket [u1,u2]"))


def _omega_word(s, text):
    return tuple(s.presentation.gen(g) for g in text.split("*") if g)


def _omega_element(s, *words):
    out = Element.zero(GF2)
    for text in words:
        out = out + normalize_word(GF2, _omega_word(s, text))
    return out


def _letter_bracket(s, x):
    return lambda g: poisson_bracket(s, _omega_element(s, x), _omega_element(s, g.id))


# Inputs with several gaps on omega2_s3_f2(20), where every bracket entry and
# every operator value but bv(u1) is missing.  Each sum is read in terms()
# order and each word in letter order, so the first gap named is fixed; the
# terms are listed out of that order on purpose.
FIRST_GAPS = [
    ("poisson", ("u1", "u2"), ("u3", "u1*u2"), "bracket [u1,u1]"),
    ("poisson", ("", "u2*u3"), ("u1*u1", "u4"), "bracket [u1,u2]"),
    ("poisson", ("u4", "u1*u1*u1", "u2"), ("u3*u4", "u2"), "bracket [u2,u2]"),
    ("bv", ("u1*u1*u1", "u2"), None, "bv(u2)"),
    ("bv", ("u1", "u1*u2", "u3"), None, "bracket [u1,u2]"),
    ("bv", ("u3", "", "u1*u1", "u1"), None, "bracket [u1,u1]"),
    ("leibniz-bv", "u1*u2*u3", None, "bv(u2)"),
    ("leibniz-bracket", "u1*u1*u4", "u2", "bracket [u1,u2]"),
    ("leibniz-bracket", "u2*u3*u3", "u4", "bracket [u2,u4]"),
]


@pytest.mark.parametrize("kind, first, second, blocking", FIRST_GAPS)
def test_first_gap_is_pinned(kind, first, second, blocking):
    s = omega2_s3_f2(20)
    if kind == "poisson":
        value = poisson_bracket(s, _omega_element(s, *first), _omega_element(s, *second))
    elif kind == "bv":
        value = s.bv_element(_omega_element(s, *first))
    elif kind == "leibniz-bv":
        value = leibniz(GF2, _omega_word(s, first), lambda g: s.bv_monomial(s.letters[g]), 1)
    else:
        value = leibniz(GF2, _omega_word(s, first), _letter_bracket(s, second), 2)
    assert value == Undefined(blocking)


def test_operator_values_are_keyed_by_generator_id():
    f = QQ
    x = Generator("x", 2)
    p = LiePresentation(f, 3, [x])
    value = Element.from_monomial(f, Monomial(((x, 2),)))
    with pytest.raises(ValueError, match="^unknown generator "):
        BVStructure(p, 8, {Monomial(((x, 2),)): value})
    with pytest.raises(ValueError, match="^unknown generator 'q'$"):
        BVStructure(p, 8, {"q": value})


def test_operator_value_over_another_field_is_refused():
    a, b = Generator("a", 3), Generator("b", 1)
    p = LiePresentation(QQ, 2, [a, b])
    f3 = FieldSpec.prime(3)
    with pytest.raises(ValueError, match=r"^bv\(a\): field mismatch$"):
        BVStructure(p, 8, bv_values={"a": Element.from_monomial(f3, Monomial(((b, 4),)))})


def test_basis_is_built_once_at_the_truncation():
    s = loops24()
    assert s.basis() is s.basis()
    built = {id(mono) for mono in s.basis()}
    assert all(id(mono) in built for pair in s.tuples(2) for mono in pair)


def test_operator_suites_need_an_operator():
    s = loopspace_model(3, 5, max_degree=10)
    assert not s.has_bv
    assert [c.name for c in verify_bv_axioms(s).checks] == [
        "bracket-antisymmetry", "bracket-jacobi", "poisson-relation"]
    pairs = len(list(s.tuples(2)))
    for report in (verify_deviation_identity(s), verify_bracket_compatibility(s)):
        (check,) = report.checks
        assert (check.verdict, check.checked, check.skipped) == ("skipped", 0, pairs)


def test_bv_extend_reports_blocking_symbol():
    s = omega2_s3_f2(6)
    u1 = s.presentation.gen("u1")
    value = s.bv_monomial(Monomial(((u1, 2),)))
    assert isinstance(value, Undefined)
    assert "u1" in value.blocking


def test_peeling_orders_agree_even_without_jacobi():
    # with an antisymmetric table the recursion is peel-independent even
    # when Jacobi fails: it always equals derivation + pair contraction
    f = GF2
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 1)
    p = LiePresentation(f, 0, [x, y, z],
                        {("x", "y"): gen_elt(f, x), ("y", "z"): gen_elt(f, y)})
    zero = Element.zero(f)
    s = BVStructure(p, 5, bv_values={"x": zero, "y": zero, "z": zero})
    mono = Monomial(((x, 1), (y, 1), (z, 1)))
    value = s.bv_monomial(mono)
    assert isinstance(value, Element)


def test_broken_antisymmetry_fails_the_suite(monkeypatch):
    # two bracket orientations that stop being antisymmetric (injected
    # into the stored table) fail bracket-antisymmetry on the generator pair
    f = GF2
    x, y = Generator("x", 1), Generator("y", 1)
    p = LiePresentation(f, 0, [x, y])
    zero = Element.zero(f)
    s = BVStructure(p, 5, bv_values={"x": zero, "y": zero})
    monkeypatch.setitem(s._pairs, (x, y), gen_elt(f, x))
    report = verify_bv_axioms(s)
    assert not report.passed
    cert = next(c.certificate for c in report.checks
                if c.name == "bracket-antisymmetry" and c.verdict == "fail")
    assert (cert["a"], cert["b"]) == ("x", "y")


# -- the operator against the reference in oracles.py -----------------------------


def ref_of(element):
    """An Element as the reference's dict, read from its factors alone."""
    return {tuple((g.id, g.degree) for g, k in m.factors for _ in range(k)): c
            for m, c in element.terms()}


def coordinates(s):
    """The generator data a structure was drawn from, as the reference reads
    it: operator values on generators and the table on pairs in normal-form
    order, a gap left out.  A free operator is minus the differential on
    generators, and a free table has no gaps; a user structure's drawn values
    and table are kept by the sampler."""
    if s.provenance == FREE:
        p, zero = s.presentation, Element.zero(s.field)
        gens = sorted(s.generators, key=lambda g: g.sort_key)
        values = {g.id: -p.differential.get(g.id, zero) for g in gens}
        table = {(x.id, y.id): p.brackets.get((x.id, y.id), zero)
                 for i, x in enumerate(gens) for y in gens[i:]}
    else:
        values, table = DRAWN[s]
    letter = {g.id: (g.id, g.degree) for g in s.generators}
    return ({letter[x]: ref_of(v) for x, v in values.items()},
            {(letter[x], letter[y]): ref_of(v) for (x, y), v in table.items()})


oracle_structures = st.one_of(*(structures(**shape) for shape in ORACLE_SHAPES))


@settings(max_examples=80, deadline=None)
@given(oracle_structures)
def test_operator_matches_reference(s):
    values, brackets = coordinates(s)
    p = s.field.characteristic
    for mono in s.basis():
        (word,) = ref_of(Element.from_monomial(s.field, mono))
        needs = ({x for x in word if x not in values}
                 | {(x, y) for i, x in enumerate(word) for y in word[i + 1:]
                    if (x, y) not in brackets})
        value = s.bv_monomial(mono)
        if needs:
            assert isinstance(value, Undefined), str(mono)
        else:
            assert ref_of(value) == ref_operator({word: 1}, values, brackets, p), str(mono)


@settings(max_examples=80, deadline=None)
@given(oracle_structures)
def test_bracket_matches_reference(s):
    _, brackets = coordinates(s)
    words = [(mono, *ref_of(Element.from_monomial(s.field, mono))) for mono in s.basis()]
    for a, word_a in words:
        for b, word_b in words:
            value = poisson_bracket(s, Element.from_monomial(s.field, a),
                                    Element.from_monomial(s.field, b))
            expected = ref_bracket(word_a, word_b, brackets, s.shift, s.field.characteristic)
            if expected is None:
                assert isinstance(value, Undefined), (str(a), str(b))
            else:
                assert ref_of(value) == expected, (str(a), str(b))


# -- verifier suites ---------------------------------------------------------------


def test_free_structures_pass_everything():
    for s in (loopspace_model(2, 4, max_degree=8), mixed_differential_structure()):
        report = verify_bv_axioms(s)
        assert report.passed
        assert report.coverage == "1"


def test_square_zero_identities_on_random_presentations():
    for i, s in zip(range(3), seeded_structures(42)):
        report = verify_square_zero(s)
        assert report.passed, i
        assert report.coverage == "1"


def engine_of(s, x):
    """A reference dict as an Element of the structure."""
    letter = {(g.id, g.degree): g for g in s.generators}
    return Element(s.field, {Monomial.from_sorted_word([letter[l] for l in word]): c
                             for word, c in x.items()})


@settings(max_examples=60, deadline=None)
@given(structures(**ORACLE_SHAPES[0]))
def test_square_zero_matches_reference(s):
    # d0 from the generator values alone, d1 from the bracket table alone
    values, brackets = coordinates(s)
    p = s.field.characteristic

    def d0(x):
        return ref_operator(x, values, {}, p)

    def d1(x):
        return ref_operator(x, {}, brackets, p)

    def operator(x):
        return ref_add(d0(x), d1(x), p)

    squares = {"d0-squared": lambda x: d0(d0(x)),
               "d1-squared": lambda x: d1(d1(x)),
               "d0-d1-anticommute": lambda x: ref_add(d0(d1(x)), d1(d0(x)), p),
               "bv-squared": lambda x: operator(operator(x))}
    words = [(mono, *ref_of(Element.from_monomial(s.field, mono))) for mono in s.basis()]
    report = verify_square_zero(s)
    assert [c.name for c in report.checks] == list(squares)
    for check, square in zip(report.checks, squares.values()):
        failing = [(mono, value) for mono, word in words if (value := square({word: 1}))]
        assert (check.checked, check.skipped) == (len(words), 0), check.name
        assert check.verdict == ("fail" if failing else "pass"), check.name
        if failing:
            mono, value = failing[0]
            assert check.certificate == {"input": str(mono),
                                         "value": str(engine_of(s, value))}, check.name


def test_operator_with_nonzero_square_fails():
    # bv(x) = x^2 on an even generator with zero bracket: bv(bv x) != 0
    f = QQ
    x = Generator("x", 2)
    p = LiePresentation(f, 3, [x])
    s = BVStructure(p, 8, bv_values={"x": Element.from_monomial(f, Monomial(((x, 2),)))})
    report = verify_square_zero(s)
    assert not report.passed
    cert = next(c.certificate for c in report.checks if c.verdict == "fail")
    assert cert["input"] == "x"


def test_partial_structure_coverage_below_one():
    s = omega2_s3_f2(4)
    report = verify_bv_axioms(s)
    assert report.passed
    assert report.coverage == "29/82"
    assert str(report.details.get("bv(u1)")) == "u1^2"


def test_gerstenhaber_suite_on_fixture():
    report = verify_gerstenhaber(loopspace_model(2, 4, max_degree=8))
    assert report.passed
    assert report.coverage == "1"


def test_bracket_compatibility_on_fixture():
    report = verify_bracket_compatibility(mixed_differential_structure())
    assert report.passed


# -- sums with derivations ------------------------------------------------------------


def test_adding_zero_derivation_keeps_everything():
    s = loops24()
    zero = GradedMap(QQ, 1, rule=lambda m: Element.zero(QQ))
    report = add_derivation_action(bv_operator(s), zero, s.generators, 8)
    assert report.passed and report.coverage == "1"


def test_derivation_does_not_change_extracted_bracket():
    s = loops24()
    base = bv_operator(s)
    a = s.presentation.gen("a")
    b = s.presentation.gen("b")
    # a degree-1 derivation: b -> a^3
    cubed = Element.from_monomial(QQ, Monomial(((a, 3),)))
    der = derivation_from_generator_values(QQ, {"b": cubed}, degree=1)
    report = add_derivation_action(base, der, s.generators, 10)
    assert report.passed
    # a degree-3 derivation: a -> b (a sum of two degrees, bracket still fixed)
    der2 = derivation_from_generator_values(QQ, {"a": gen_elt(QQ, b)}, degree=3)
    report2 = add_derivation_action(base, der2, s.generators, 10)
    assert report2.passed


def test_multiplicative_extension_fails_derivation_law():
    s = loops24()
    a = s.presentation.gen("a")

    def multiplicative(mono):
        # a -> a, b -> 0 on each letter; the unit goes to 0
        if mono.is_unit:
            return Element.zero(QQ)
        out = Element.unit(QQ)
        for g in mono.word():
            out = out * (Element.from_generator(QQ, a) if g.id == "a" else Element.zero(QQ))
        return out

    op = GradedMap(QQ, 0, rule=multiplicative)
    report = add_derivation_action(bv_operator(s), op, s.generators, 6)
    assert not report.passed
    cert = report.checks[0].certificate
    assert cert["a"] == "a" and cert["b"] == "a"


def test_bracket_from_operator_recovers_table():
    s = loops24()
    op = bv_operator(s)
    a = s.presentation.gen("a")
    mono_a = Monomial(((a, 1),))
    extracted = bracket_from_operator(QQ, op.value, mono_a, mono_a)
    assert extracted == gen_elt(QQ, s.presentation.gen("b"))


# -- each identity is decided as one signed sum ------------------------------------


@pytest.mark.parametrize("path, passes", [("fixtures/loops2_s4.lie", True),
                                          ("fixtures/loops4_s6.lie", True),
                                          ("fixtures/mixed_diff.lie", True),
                                          ("tests/data/bad_jacobi.lie", False)],
                         ids=["loops2_s4", "loops4_s6", "mixed_diff", "bad_jacobi"])
def test_sides_are_built_only_for_a_failing_instance(path, passes, monkeypatch):
    calls = []

    def counted(*args, _original=bv._sides):
        calls.append(args[1])
        return _original(*args)

    monkeypatch.setattr(bv, "_sides", counted)
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        structure = parse_presentation(handle.read()).to_structure()
    report = verify_bv_axioms(structure)
    assert report.passed is passes and report.coverage == "1"
    assert (calls == []) is passes


# Q and F2 to F5, free and user operators, sparse valid tables and dense invalid ones
agreement_structures = st.one_of(*(
    structures(valid=valid, provenance=provenance, shifts=(0, 1, 2, 3), window=6,
               fields=(QQ, GF2, FieldSpec.prime(3), FieldSpec.prime(5)))
    for valid in (True, False) for provenance in (FREE, USER)))


@settings(max_examples=150, deadline=None)
@given(agreement_structures)
def test_signed_sums_give_the_reports_of_both_sides_built(s):
    verifiers = (verify_deviation_identity, verify_bracket_compatibility, verify_gerstenhaber)
    reports = [verify(s).to_json() for verify in verifiers]
    assert reports == [ref.to_json() for ref in ref_identity_reports(s)]


# -- valid dg structures with a bracket: rescaled copies of mixed_diff.lie ----------


def _mixed_diff():
    with open(os.path.join(ROOT, "fixtures", "mixed_diff.lie"), encoding="utf-8") as handle:
        return parse_presentation(handle.read())


MIXED_DIFF = _mixed_diff()


def rescaled_mixed_diff(field, units):
    """The copy of mixed_diff.lie over `field` that g -> units[g]*g maps
    isomorphically onto it: {x,y} = sum b_z z becomes units[x]*units[y]
    * sum (b_z / units[z]) z, and d x = sum d_z z becomes units[x]
    * sum (d_z / units[z]) z."""
    p = MIXED_DIFF.presentation

    def carry(scale, value):
        return Element(field, {m: field.mul(scale, field.mul(field.coerce(c),
                                                             field.inv(units[m.word()[0].id])))
                               for m, c in value.terms()})

    return LiePresentation(
        field, p.shift, list(p.generators),
        {(x, y): carry(field.mul(units[x], units[y]), v) for (x, y), v in p.brackets.items()},
        {x: carry(units[x], v) for x, v in p.differential.items()})


MIXED_DIFF_FIELDS = [f for f in (QQ, FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.prime(7))
                     if check_lie_axioms(rescaled_mixed_diff(
                         f, {g.id: f.one() for g in MIXED_DIFF.presentation.generators})).passed]


@st.composite
def rescaled_mixed_diffs(draw):
    field = draw(st.sampled_from(MIXED_DIFF_FIELDS))
    unit = (st.integers(1, field.characteristic - 1) if field.characteristic else
            st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)))
    units = {g.id: field.coerce(draw(unit)) for g in MIXED_DIFF.presentation.generators}
    return BVStructure(rescaled_mixed_diff(field, units), MIXED_DIFF.truncate)


def test_mixed_diff_passes_check_lie_over_q_and_odd_primes():
    assert MIXED_DIFF_FIELDS[0] == QQ and len(MIXED_DIFF_FIELDS) > 1


@settings(max_examples=60, deadline=None)
@given(rescaled_mixed_diffs())
def test_rescaled_dg_structures_with_a_bracket_pass_and_agree_with_the_oracle(s):
    p = s.presentation
    assert any(not v.is_zero for v in p.brackets.values()) and p.differential
    assert check_lie_axioms(p).passed
    report = verify_bv_axioms(s)
    assert report.passed and report.coverage == "1"
    verifiers = (verify_deviation_identity, verify_bracket_compatibility, verify_gerstenhaber)
    assert ([verify(s).to_json() for verify in verifiers]
            == [ref.to_json() for ref in ref_identity_reports(s)])


# -- a partial table's window: tuples with an undefined slot pair are pruned -------

partial_structures = st.one_of(*(
    structures(valid=valid, provenance=USER, shifts=(0, 1, 2, 3), window=6,
               fields=(QQ, GF2, FieldSpec.prime(3), FieldSpec.prime(5)))
    for valid in (True, False)))


@settings(max_examples=100, deadline=None)
@given(partial_structures, st.sampled_from((2, 3)))
def test_pruned_and_yielded_tuples_make_up_the_window(s, arity):
    full = list(WindowTuples(s.basis(), arity, s.truncation))
    window = s.tuples(arity)
    yielded = list(window)
    assert len(yielded) + window.pruned == len(full)
    rest = iter(full)
    assert all(t in rest for t in yielded)  # a subsequence, in window order

    def gapped(t):
        return any(isinstance(poisson_bracket(s, Element.from_monomial(s.field, x),
                                              Element.from_monomial(s.field, y)), Undefined)
                   for x, y in combinations(t, 2))

    assert sum(map(gapped, full)) == window.pruned
    assert not any(map(gapped, yielded))


def test_a_partial_window_reads_no_bracket(monkeypatch):
    s = omega2_s3_f2(20)
    calls = []
    read = bv._bracket_monomials
    monkeypatch.setattr(bv, "_bracket_monomials", lambda *args: calls.append(args) or read(*args))
    pruned = []
    for arity in (1, 2, 3):
        window = s.tuples(arity)
        for _ in window:
            pass
        pruned.append(window.pruned)
    assert calls == []
    assert pruned[1] > 0 and pruned[2] > 0


def test_omega2_counts_at_degree_20_are_the_full_window_oracles():
    report = verify_bv_axioms(omega2_s3_f2(20))
    counts = {c.name: (c.checked, c.skipped) for c in report.checks}
    reference = {c.name: (c.checked, c.skipped)
                 for ref in ref_identity_reports(omega2_s3_f2(20)) for c in ref.checks}
    assert {name: counts[name] for name in reference} == reference
    assert counts["bracket-jacobi"] == (433, 25211)
    assert report.coverage == "581/29762"


# -- one stored bracket table per structure ------------------------------------------


def _loops2_s4():
    with open(os.path.join(ROOT, "fixtures/loops2_s4.lie"), encoding="utf-8") as handle:
        return parse_presentation(handle.read()).to_structure()


@pytest.mark.parametrize("build", [lambda: omega2_s3_f2(20), _loops2_s4],
                         ids=["omega2_s3_f2", "loops2_s4"])
def test_a_structure_reads_its_bracket_table_once(build, monkeypatch):
    # the table is read into pairs at construction; the suite only looks them up
    s = build()
    calls = []
    for name in ("_canonical_pair", "letter_pairs"):
        read = getattr(LiePresentation, name)
        monkeypatch.setattr(LiePresentation, name,
                            lambda *args, _read=read: calls.append(args) or _read(*args))
    report = verify_bv_axioms(s)
    assert report.checks and calls == []


@settings(max_examples=100, deadline=None)
@given(partial_structures)
@example(omega2_s3_f2(20))
def test_window_sums_get_no_undefined_operand(s):
    operands = []

    def recorded(s_, sides, lhs, rhs=(), _add=bv._add_parts):
        operands.extend(v for _, x, y, _ in (*lhs, *rhs) for v in (x, y))
        return _add(s_, sides, lhs, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bv, "_add_parts", recorded)
        verify_bv_axioms(s)
    assert not any(isinstance(v, Undefined) for v in operands)
