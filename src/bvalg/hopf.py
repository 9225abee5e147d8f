"""Graded maps and derivations, the Hopf structure of a free
graded-commutative algebra, and the checks of a graded map against it and
against the product: the API-only module, which no CLI verb loads.  A
derivation extends its generator values by the one Leibniz rule,
`bv.leibniz`.

Generators are primitive, the coproduct is an algebra map into the graded
tensor square, the antipode is solved degree by degree from the convolution
identity.  A tensor of arity r is an Element over r tagged copies ``g@i`` of
the generators, as S(V)^{(x)r} = S(V^{+r}): normalize_word gives every sign.
The coderivation checker verifies  coproduct . op = (op (x) id + id (x) op) .
coproduct  with the Koszul sign when op moves past the left tensor factor.

The product-side checks read a structure's operator as a graded map
(`bv_operator`): the derivation law op(ab) = op(a)b + (-1)^(|op||a|) a op(b)
on basis pairs, and whether adding a derivation to an operator leaves the
bracket it induces (its deviation from being a derivation) unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (Element, Generator, MaybeElement, Monomial, Undefined, first_undefined,
                      linear_extension, monomial_basis, normalize_word)
from .bv import BVStructure, WindowTuples, leibniz
from .fields import FieldSpec, Scalar
from .linalg import SparseRow, nullspace
from .report import Report, by_name, compare, run_checks

TensorKey = Tuple[Monomial, ...]


# -- graded maps and derivations ----------------------------------------------------


class GradedMap:
    """Linear map on basis monomials, of a fixed degree, given by a rule.

    The rule returns an Element, or Undefined at a gap: partial operators
    keep explicit gaps and never guess.  Each value is memoized and checked
    against the degree when first computed.
    """

    def __init__(self, field: FieldSpec, degree: int,
                 rule: Callable[[Monomial], MaybeElement]):
        self.field = field
        self.degree = degree
        self._rule = rule
        self._values: Dict[Monomial, MaybeElement] = {}

    def _check_degree(self, mono: Monomial, val: Element) -> None:
        if val.is_zero:
            return
        d = val.homogeneous_degree()
        if d != mono.degree + self.degree:
            raise ValueError(
                f"value of degree {d} on {mono}: expected {mono.degree + self.degree}")

    def value(self, mono: Monomial) -> MaybeElement:
        """Value on a basis monomial, or Undefined at a gap."""
        val = self._values.get(mono)
        if val is None:
            val = self._rule(mono)
            if isinstance(val, Element):
                self._check_degree(mono, val)
            self._values[mono] = val
        return val

    def apply(self, element: Element) -> MaybeElement:
        """Linear extension; the first gap met is returned as Undefined."""
        return linear_extension(self.value, element)


def derivation_from_generator_values(field: FieldSpec,
                                     values: Dict[str, Element],
                                     degree: int) -> GradedMap:
    """The derivation extending generator values by `leibniz`; generators
    absent from `values` map to zero."""
    return GradedMap(field, degree,
                     rule=lambda mono: leibniz(field, mono.word(),
                                               lambda g: values.get(g.id), degree))


# -- tensors and the coproduct ---------------------------------------------------------


def _tag(g: Generator, slot: int) -> Generator:
    return Generator(f"{g.id}@{slot}", g.degree)


def _untag(g: Generator) -> Tuple[Generator, int]:
    base, _, slot = g.id.rpartition("@")
    return Generator(base, g.degree), int(slot)


def _tagged_word(key: TensorKey) -> List[Generator]:
    return [_tag(g, i) for i, mono in enumerate(key) for g in mono.word()]


class TensorElement:
    """Linear combination of tensor words (m_1 (x) ... (x) m_r), held as an
    Element over r tagged copies of the generators."""

    __slots__ = ("field", "arity", "_element")

    def __init__(self, field: FieldSpec, arity: int,
                 terms: Optional[Dict[TensorKey, Scalar]] = None):
        self.field = field
        self.arity = arity
        self._element = Element.zero(field)
        for key, coeff in (terms or {}).items():
            self._element = self._element + normalize_word(field, _tagged_word(key), coeff)

    @staticmethod
    def _view(arity: int, element: Element) -> "TensorElement":
        out = object.__new__(TensorElement)
        out.field, out.arity, out._element = element.field, arity, element
        return out

    @staticmethod
    def zero(field: FieldSpec, arity: int) -> "TensorElement":
        return TensorElement(field, arity)

    def terms(self) -> List[Tuple[TensorKey, Scalar]]:
        """Split each tagged monomial by slot; the coefficient of m_1 (x) ...
        carries back the sign of normalizing its tagged word."""
        out = []
        for mono, coeff in self._element.terms():
            slots: List[List[Generator]] = [[] for _ in range(self.arity)]
            for base, slot in map(_untag, mono.word()):
                slots[slot].append(base)
            key = tuple(Monomial.from_sorted_word(sorted(word, key=lambda g: g.sort_key))
                        for word in slots)
            sign = normalize_word(self.field, _tagged_word(key)).coefficient(mono)
            out.append((key, self.field.mul(coeff, sign)))
        return sorted(out, key=lambda t: tuple(m.order_key() for m in t[0]))

    def _lift(self, op, other: "TensorElement") -> "TensorElement":
        if self.arity != other.arity:
            raise ValueError("tensor arity mismatch")
        return TensorElement._view(self.arity, op(self._element, other._element))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return self._lift(Element.__add__, other)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self._lift(Element.__sub__, other)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Slotwise product, with the Koszul sign of the tagged letters."""
        return self._lift(Element.__mul__, other)

    def apply_slot(self, slot: int, fn: Callable[[Monomial], MaybeElement],
                   fn_degree: int) -> Union["TensorElement", Undefined]:
        """Apply a map of the given degree to one slot, with the Koszul sign
        for moving it past the slots to the left; the first gap of fn is
        returned as Undefined."""
        field = self.field
        out = TensorElement.zero(field, self.arity)
        for key, coeff in self.terms():
            value = fn(key[slot])
            if isinstance(value, Undefined):
                return value
            exponent = fn_degree * sum(m.degree for m in key[:slot])
            for mono, c in value.terms():
                out = out + TensorElement(field, self.arity, {
                    key[:slot] + (mono,) + key[slot + 1:]: field.signed(field.mul(coeff, c),
                                                                        exponent)})
        return out

    def multiply_out(self) -> Element:
        """Multiply all slots together: forgetting the tags is an algebra map."""
        return linear_extension(lambda mono: normalize_word(
            self.field, [_untag(g)[0] for g in mono.word()]), self._element)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorElement) and self.arity == other.arity
                and self._element == other._element)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if self._element.is_zero:
            return "0"
        parts = []
        for key, coeff in self.terms():
            body = " (x) ".join(str(m) for m in key)
            parts.append(f"{coeff}*[{body}]")
        return " + ".join(parts)


def _coproduct_element(field: FieldSpec, mono: Monomial) -> Element:
    out = Element.unit(field)
    for g in mono.word():
        out = out * (Element.from_generator(field, _tag(g, 0))
                     + Element.from_generator(field, _tag(g, 1)))
    return out


def coproduct_monomial(field: FieldSpec, mono: Monomial) -> TensorElement:
    """Coproduct of one monomial: product of (g (x) 1 + 1 (x) g) per letter."""
    return TensorElement._view(2, _coproduct_element(field, mono))


def coproduct(element: Element) -> TensorElement:
    return TensorElement._view(2, linear_extension(
        lambda mono: _coproduct_element(element.field, mono), element))


def reduced_coproduct(element: Element) -> TensorElement:
    """coproduct(a) - a (x) 1 - 1 (x) a; generators land exactly in its kernel."""
    field = element.field
    unit = Monomial.unit()
    out = coproduct(element)
    for mono, coeff in element.terms():
        out = out - TensorElement(field, 2, {(mono, unit): coeff, (unit, mono): coeff})
    return out


def primitive_basis(field: FieldSpec, generators: Sequence[Generator],
                    degree: int) -> List[Element]:
    """Basis of primitives in one degree: kernel of the reduced coproduct,
    by exact linear algebra, one row per tagged monomial that occurs."""
    if degree <= 0:
        return []
    source = [m for m in monomial_basis(field, generators, degree) if m.degree == degree]
    rows: Dict[Monomial, SparseRow] = {}
    for col, m in enumerate(source):
        column = reduced_coproduct(Element.from_monomial(field, m))._element
        for mono, coeff in column._terms.items():
            rows.setdefault(mono, {})[col] = coeff
    return [Element(field, {source[col]: c for col, c in vec.items()})
            for vec in nullspace(list(rows.values()), len(source), field)]


def antipode(element: Element) -> Element:
    """Solve mu(antipode (x) id)(coproduct m) = 0 for each monomial m of
    positive degree, recursing on the strictly smaller left tensor factors
    (memoized for this call only)."""
    field = element.field
    memo: Dict[Monomial, Element] = {}

    def on_monomial(mono: Monomial) -> Element:
        if mono.is_unit:
            return Element.unit(field)
        if mono not in memo:
            total = Element.zero(field)
            for (left, right), coeff in coproduct_monomial(field, mono).terms():
                if left != mono:
                    total = total + (on_monomial(left)
                                     * Element.from_monomial(field, right)).scale(coeff)
            memo[mono] = -total
        return memo[mono]

    return linear_extension(on_monomial, element)


def is_coderivation(op: GradedMap, generators: Sequence[Generator],
                    max_degree: int) -> Report:
    """Check the coderivation identity on every basis monomial in the window;
    undefined operator values are skipped."""
    field, degree = op.field, op.degree
    bound = max(max_degree - degree if degree > 0 else max_degree, 0)

    def coderivation(mono):
        value = op.value(mono)
        if isinstance(value, Undefined):
            return value
        delta = coproduct_monomial(field, mono)
        left = delta.apply_slot(0, op.value, degree)
        if isinstance(left, Undefined):
            return left
        right = delta.apply_slot(1, op.value, degree)
        if isinstance(right, Undefined):
            return right
        return compare("coproduct of image", coproduct(value),
                       "coderivation expansion", left + right)

    monos = WindowTuples(monomial_basis(field, generators, bound), 1, bound)
    return Report(checks=run_checks(("coderivation",), monos, coderivation, by_name("input")))


# -- operators as graded maps, and derivations added to them -------------------------


def bv_operator(s: BVStructure) -> GradedMap:
    """The structure's operator as a graded map (gaps are explicit)."""
    return GradedMap(s.field, s.shift - 1, rule=s.bv_monomial)


def bracket_from_operator(field: FieldSpec,
                          op_value: Callable[[Monomial], MaybeElement],
                          a: Monomial, b: Monomial) -> MaybeElement:
    """The bracket an operator induces through its deviation from being a
    product derivation; Undefined when a needed value is missing."""
    a_elt = Element.from_monomial(field, a)
    b_elt = Element.from_monomial(field, b)
    op_ab = linear_extension(op_value, a_elt * b_elt)
    if isinstance(op_ab, Undefined):
        return op_ab
    op_a = op_value(a)
    op_b = op_value(b)
    if gap := first_undefined(op_a, op_b):
        return gap
    return (op_ab - op_a * b_elt - (a_elt * op_b).signed(a.degree)).signed(a.degree)


def add_derivation_action(base_op: GradedMap, derivation_op: GradedMap,
                          generators: Sequence[Generator], max_degree: int) -> Report:
    """Check that a product derivation, added to a bracket-carrying operator,
    leaves its bracket unchanged.

    Verifies (i) the derivation law for the second operator and (ii) that
    the deviation bracket of the sum equals that of the base operator alone,
    both on all ordered basis pairs in the window.
    """
    field, degree = derivation_op.field, derivation_op.degree
    pairs = WindowTuples(monomial_basis(field, generators, max_degree), 2, max_degree)

    def law(a, b):
        a_elt, b_elt = Element.from_monomial(field, a), Element.from_monomial(field, b)
        lhs = derivation_op.apply(a_elt * b_elt)
        va, vb = derivation_op.apply(a_elt), derivation_op.apply(b_elt)
        return first_undefined(lhs, va, vb) or compare(
            "op(ab)", lhs, "op(a)b + sign*a op(b)",
            va * b_elt + (a_elt * vb).signed(degree * a.degree))

    def total(mono):
        a, b = base_op.value(mono), derivation_op.value(mono)
        return first_undefined(a, b) or a + b

    def unchanged(a, b):
        return compare("bracket of sum", bracket_from_operator(field, total, a, b),
                       "bracket of base", bracket_from_operator(field, base_op.value, a, b))

    return Report(checks=run_checks(("derivation-law", "bracket-unchanged-by-derivation"),
                                    pairs, lambda a, b: (law(a, b), unchanged(a, b)),
                                    by_name("a", "b")))
