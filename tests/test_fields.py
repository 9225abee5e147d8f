from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bvalg.algebra import Element, Generator, Monomial
from bvalg.fields import FieldSpec, GF2, QQ
from bvalg.hopf import TensorElement

F5 = FieldSpec.prime(5)


def test_parse_and_render():
    assert FieldSpec.parse("Q") == QQ
    assert FieldSpec.parse("F5") == FieldSpec.prime(5)
    assert str(FieldSpec.prime(7)) == "F7"
    with pytest.raises(ValueError):
        FieldSpec.parse("R")
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec("rational", 3)


def test_rational_arithmetic_is_exact():
    a = QQ.coerce(Fraction(-1, 2))
    assert a == Fraction(-1, 2)
    assert QQ.add(a, QQ.neg(a)) == 0
    assert QQ.mul(a, QQ.inv(a)) == 1
    assert str(a) == "-1/2"


def test_prime_field_residues_are_canonical():
    f5 = FieldSpec.prime(5)
    assert f5.coerce(-1) == 4
    assert f5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.mul(2, f5.inv(2)) == 1
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        FieldSpec.prime(2).coerce(Fraction(1, 6))
    x = Generator("x", 1)
    assert Element.from_monomial(f5, Monomial(((x, 1),)), 10).is_zero
    assert Element.unit(f5, 5) == Element.zero(f5)
    assert Element.from_monomial(f5, Monomial(((x, 1),)), -1) \
        == Element(f5, {Monomial(((x, 1),)): 4})


@pytest.mark.parametrize("value, residue", [(7, 2), (-1, 4), (0, 0), (True, 1), (False, 0),
                                             (Fraction(1, 2), 3), (Fraction(-6, 3), 3)])
def test_prime_field_coerce_gives_an_int_residue_for_each_input_type(value, residue):
    # ints take a fast path ahead of the Fraction test; bool and Fraction keep the old one
    coerced = F5.coerce(value)
    assert coerced == residue and type(coerced) is int


@pytest.mark.parametrize("field", [QQ, GF2, F5], ids=str)
def test_float_is_refused_by_every_field(field):
    with pytest.raises(TypeError):
        field.coerce(2.0)


def test_sign_collapses_in_characteristic_two():
    f2 = FieldSpec.prime(2)
    assert f2.sign(1) == 1
    assert QQ.sign(1) == -1
    assert QQ.sign(2) == 1


def test_floats_rejected():
    for field in (QQ, F5):
        with pytest.raises(TypeError):
            field.coerce(0.5)
        with pytest.raises(TypeError):
            Element(field, {Monomial(((Generator("x", 1), 1),)): 0.5})
        with pytest.raises(TypeError):
            Element.from_monomial(field, Monomial(((Generator("x", 1), 1),)), 0.5)
        with pytest.raises(TypeError):
            Element.unit(field, 0.5)
        with pytest.raises(TypeError):
            TensorElement(field, 2, {(Monomial.unit(), Monomial.unit()): 0.5})


@pytest.mark.parametrize("make, error, message", [
    (lambda: FieldSpec("foo", 0), ValueError, "unknown field kind 'foo'"),
    (lambda: QQ.inv(0), ZeroDivisionError, "inverse of zero"),
    (lambda: Generator("g", -1), ValueError, "generator 'g' has negative degree -1"),
    (lambda: FieldSpec.prime(2 ** 61 - 1), ValueError,
     "characteristic 2305843009213693951 exceeds 2^31-1"),
    (lambda: FieldSpec.parse("F2147483648"), ValueError,
     "characteristic 2147483648 exceeds 2^31-1"),
])
def test_out_of_range_argument_is_refused_in_one_line(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_field_ops_match_integers_mod_p(a, b):
    f = FieldSpec.prime(7)
    assert f.add(f.coerce(a), f.coerce(b)) == (a + b) % 7
    assert f.mul(f.coerce(a), f.coerce(b)) == (a * b) % 7


@given(st.fractions(max_denominator=30))
def test_rational_string_round_trip(q):
    assert Fraction(str(QQ.coerce(q))) == q


@given(st.sampled_from([QQ, GF2, FieldSpec.prime(3), F5, FieldSpec.prime(7)]),
       st.integers(-60, 60), st.integers(-60, 60).filter(bool))
def test_quotient_is_the_coerced_fraction(field, n, d):
    # the written n/d of the presentation format, which reduces before it divides:
    # 7/7 is 1 over F7, and 1/7 has no value there
    q = Fraction(n, d)
    p = field.characteristic
    if p and q.denominator % p == 0:
        for divide in (lambda: field.quotient(n, d), lambda: field.coerce(q)):
            with pytest.raises(ZeroDivisionError) as caught:
                divide()
            assert str(caught.value) == f"denominator divisible by {p}"
        return
    assert field.quotient(n, d) == field.coerce(q)
    assert field.quotient(n, d) == (q if not p else q.numerator * pow(q.denominator, -1, p) % p)


def test_rational_coerce_returns_a_fraction_unchanged():
    q = Fraction(-3, 4)
    assert QQ.coerce(q) == q
    assert QQ.coerce(q) is q
    assert QQ.coerce(2) == Fraction(2) and type(QQ.coerce(2)) is Fraction
    (_, one), = Element.unit(QQ).terms()
    assert type(one) is Fraction
    assert Element.from_monomial(QQ, Monomial(((Generator("x", 1), 1),)), 0).is_zero


@pytest.mark.parametrize("field", [QQ, GF2, F5])
@pytest.mark.parametrize("k", range(-3, 4))
def test_sign_matches_coerced_power(field, k):
    power = field.coerce(Fraction(-1) ** k)  # (-1) ** k is a float for k < 0
    assert field.sign(k) == power and type(field.sign(k)) is type(power)
