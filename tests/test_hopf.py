import pytest
from hypothesis import given, settings, strategies as st

from bvalg.algebra import Element, Generator, Monomial, Undefined, monomial_basis, normalize_word
from bvalg.fields import FieldSpec, GF2, QQ
from bvalg.hopf import (GradedMap, TensorElement, antipode, bv_operator, coproduct,
                        coproduct_monomial, is_coderivation, primitive_basis,
                        reduced_coproduct)
from bvalg.fixtures import loopspace_model

from oracles import ref_coproduct

X = Generator("x", 1)
Y = Generator("y", 1)
A2 = Generator("x", 2)

UNIT = Monomial.unit()
MX = Monomial(((X, 1),))
MY = Monomial(((Y, 1),))
MXY = Monomial(((X, 1), (Y, 1)))


def test_coproduct_unit_and_generator():
    assert coproduct(Element.unit(QQ)) == TensorElement(QQ, 2, {(UNIT, UNIT): 1})
    expected = TensorElement(QQ, 2, {(MX, UNIT): 1, (UNIT, MX): 1})
    assert coproduct(Element.from_monomial(QQ, MX)) == expected


def test_coproduct_of_product_has_koszul_sign():
    # expanding (x(x)1 + 1(x)x)(y(x)1 + 1(x)y) by hand gives the -y(x)x term
    exy = Element.from_monomial(QQ, MXY)
    expected = TensorElement(QQ, 2, {(MXY, UNIT): 1, (MX, MY): 1,
                                     (MY, MX): -1, (UNIT, MXY): 1})
    assert coproduct(exy) == expected


def test_counit_law():
    for m in monomial_basis(QQ, [X, Y, A2], 5):
        total = Element.zero(QQ)
        for (m1, m2), c in coproduct_monomial(QQ, m).terms():
            if m1.is_unit:
                total = total + Element.from_monomial(QQ, m2, c)
        assert total == Element.from_monomial(QQ, m)


def test_coassociativity_on_basis():
    field = QQ
    for m in monomial_basis(field, [X, Y, A2], 6):
        delta = coproduct_monomial(field, m)
        left = TensorElement.zero(field, 3)
        right = TensorElement.zero(field, 3)
        for (m1, m2), c in delta.terms():
            for (a, b), c2 in coproduct_monomial(field, m1).terms():
                left = left + TensorElement(field, 3, {(a, b, m2): field.mul(c, c2)})
            for (a, b), c2 in coproduct_monomial(field, m2).terms():
                right = right + TensorElement(field, 3, {(m1, a, b): field.mul(c, c2)})
        assert left == right


def test_primitives_match_hand_kernels():
    # single even generator: x is primitive, x^2 is not over Q
    basis_d2 = primitive_basis(QQ, [A2], 2)
    assert [str(e) for e in basis_d2] == ["x"]
    # over Q the reduced coproduct of x^2 has the middle term 2 x(x)x
    assert primitive_basis(QQ, [A2], 4) == []
    # over F2 that middle term dies
    assert [str(e) for e in primitive_basis(GF2, [A2], 4)] == ["x^2"]


def test_primitives_low_degree_equal_generator_span():
    gens = [Generator("a", 2), Generator("b", 5)]
    assert [str(e) for e in primitive_basis(QQ, gens, 2)] == ["a"]
    assert primitive_basis(QQ, gens, 1) == []


def test_no_primitives_at_degree_zero_or_below():
    assert primitive_basis(QQ, [X, Y], 0) == [] and primitive_basis(QQ, [X, Y], -1) == []


def test_tensor_elements_of_two_arities_do_not_add():
    pair = TensorElement(QQ, 2, {(UNIT, UNIT): 1})
    with pytest.raises(ValueError, match="^tensor arity mismatch$"):
        pair + TensorElement(QQ, 1, {(UNIT,): 1})


def test_reduced_coproduct_middle_term():
    m = Monomial(((A2, 2),))
    reduced = reduced_coproduct(Element.from_monomial(QQ, m))
    assert reduced == TensorElement(QQ, 2, {(Monomial(((A2, 1),)),
                                             Monomial(((A2, 1),))): 2})


def test_antipode_values():
    assert antipode(Element.unit(QQ)) == Element.unit(QQ)
    # antipode is -id on a primitive generator
    assert antipode(Element.from_monomial(QQ, MX)) == Element.from_monomial(QQ, MX, -1)
    # degree-2 solution of the convolution identity
    assert antipode(Element.from_monomial(QQ, MXY)) == Element.from_monomial(QQ, MXY)


@pytest.mark.parametrize("field", [QQ, GF2, FieldSpec.prime(5)])
def test_antipode_involution_and_convolution(field):
    gens = [Generator("a", 2), Generator("b", 5)] if field == QQ else [
        Generator("u1", 1), Generator("u2", 3)]
    for m in monomial_basis(field, gens, 8):
        e = Element.from_monomial(field, m)
        assert antipode(antipode(e)) == e
        conv = coproduct(e).apply_slot(
            0, lambda mm: antipode(Element.from_monomial(field, mm)), 0).multiply_out()
        expected = Element.unit(field) if m.is_unit else Element.zero(field)
        assert conv == expected


def test_antipode_negates_primitives():
    for field in (QQ, GF2):
        gens = [Generator("a", 2), Generator("b", 5)]
        for d in range(1, 6):
            for prim in primitive_basis(field, gens, d):
                assert antipode(prim) == -prim


def zero_map(degree):
    return GradedMap(QQ, degree, rule=lambda m: Element.zero(QQ))


def test_zero_map_is_coderivation():
    report = is_coderivation(zero_map(1), [X, Y], 5)
    assert report.passed


def test_free_bv_operator_is_coderivation():
    structure = loopspace_model(2, 4, max_degree=10)
    report = is_coderivation(bv_operator(structure), structure.generators, 10)
    assert report.passed
    assert report.coverage == "1"


def test_multiplication_by_primitive_is_coderivation():
    # left multiplication by a primitive element satisfies the identity
    # exactly, for any commutative Hopf algebra
    op = GradedMap(QQ, 1, rule=lambda m: normalize_word(QQ, (X,) + m.word()))
    assert is_coderivation(op, [X, Y], 6).passed


def test_multiplication_by_non_primitive_fails_with_certificate():
    op = GradedMap(QQ, 2, rule=lambda m: normalize_word(QQ, (X, Y) + m.word()))
    report = is_coderivation(op, [X, Y], 6)
    assert not report.passed
    cert = report.checks[0].certificate
    assert cert is not None and cert["input"] == "1"


def test_coderivation_skips_undefined_values():
    op = GradedMap(QQ, 1, rule=lambda m: Undefined(f"op({m})"))
    report = is_coderivation(op, [X, Y], 2)
    assert report.checks[0].verdict == "skipped"
    assert report.coverage == "0"


def test_coderivation_skips_a_gap_on_a_coproduct_factor():
    # defined on 1 and on xy, not on x or y: xy is skipped, since its
    # coproduct has the factors x and y, and only 1 is checked
    zero = Element.zero(QQ)
    op = GradedMap(QQ, 1, rule=lambda m: zero if m in (UNIT, MXY) else Undefined(f"op({m})"))
    (check,) = is_coderivation(op, [X, Y], 3).checks
    assert (check.verdict, check.checked, check.skipped) == ("pass", 1, 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([X, Y, A2]), max_size=4),
       st.lists(st.sampled_from([X, Y, A2]), max_size=4))
def test_coproduct_is_algebra_map(w1, w2):
    a = normalize_word(QQ, w1)
    b = normalize_word(QQ, w2)
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


# "a"/"a0" and "b"/"b1" sort the other way once tagged ("a0@0" < "a@0"),
# and "y@1" already contains the tag separator
ORACLE_GENS = [Generator("a", 2), Generator("a0", 2), Generator("b", 1),
               Generator("b1", 1), Generator("y@1", 1), Generator("y", 3)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, GF2, FieldSpec.prime(3)]),
       st.lists(st.sampled_from(ORACLE_GENS), max_size=6))
def test_coproduct_matches_reference(field, word):
    for mono, _ in normalize_word(field, word).terms():
        letters = tuple((g.id, g.degree) for g in mono.word())
        got = {(tuple((g.id, g.degree) for g, k in m1.factors for _ in range(k)),
                tuple((g.id, g.degree) for g, k in m2.factors for _ in range(k))): c
               for (m1, m2), c in coproduct_monomial(field, mono).terms()}
        assert got == ref_coproduct(letters, field.characteristic)
