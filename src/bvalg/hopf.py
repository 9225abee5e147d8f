"""Hopf structure of a free graded-commutative algebra.

Generators are primitive, the coproduct is an algebra map into the graded
tensor square (factors swap with the Koszul sign), the antipode is solved
degree by degree from the convolution identity.  The coderivation checker
verifies  coproduct . op = (op (x) id + id (x) op) . coproduct  with the
Koszul sign when op moves past the left tensor factor.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (Element, Generator, GradedMap, MaybeElement, Monomial,
                      Undefined, basis_by_degree, linear_extension,
                      monomial_basis, normalize_word, window_tuples)
from .fields import FieldSpec, Scalar
from .linalg import nullspace
from .report import Report, compare, run_checks

TensorKey = Tuple[Monomial, ...]


class TensorElement:
    """Linear combination of tensor words (m_1 (x) ... (x) m_r)."""

    __slots__ = ("field", "arity", "_terms")

    def __init__(self, field: FieldSpec, arity: int,
                 terms: Optional[Dict[TensorKey, Scalar]] = None):
        self.field = field
        self.arity = arity
        clean: Dict[TensorKey, Scalar] = {}
        for key, coeff in (terms or {}).items():
            c = field.coerce(coeff)
            if not field.is_zero(c):
                clean[key] = c
        self._terms = clean

    @staticmethod
    def zero(field: FieldSpec, arity: int) -> "TensorElement":
        return TensorElement(field, arity)

    @staticmethod
    def pure(field: FieldSpec, monos: Sequence[Monomial], coeff=1) -> "TensorElement":
        return TensorElement(field, len(monos), {tuple(monos): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> List[Tuple[TensorKey, Scalar]]:
        return sorted(self._terms.items(),
                      key=lambda t: tuple(m.order_key() for m in t[0]))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.arity != other.arity or self.field != other.field:
            raise ValueError("tensor arity/field mismatch")
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = self.field.add(out.get(key, self.field.zero()), coeff)
        return TensorElement(self.field, self.arity, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(-1)

    def scale(self, coeff) -> "TensorElement":
        c = self.field.coerce(coeff)
        return TensorElement(self.field, self.arity,
                             {k: self.field.mul(v, c) for k, v in self._terms.items()})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Slotwise product; right factors acquire the Koszul sign for
        moving past the left factors to their right."""
        if self.arity != other.arity or self.field != other.field:
            raise ValueError("tensor arity/field mismatch")
        field = self.field
        out = TensorElement.zero(field, self.arity)
        for key_a, ca in self._terms.items():
            suffix_degrees = [0] * self.arity
            acc = 0
            for i in range(self.arity - 1, -1, -1):
                suffix_degrees[i] = acc
                acc += key_a[i].degree
            for key_b, cb in other._terms.items():
                exp = sum(key_b[i].degree * suffix_degrees[i] for i in range(self.arity))
                coeff = field.mul(field.mul(ca, cb), field.sign(exp))
                slot_elements = [normalize_word(field, key_a[i].word() + key_b[i].word())
                                 for i in range(self.arity)]
                out = out + _combine_slots(field, slot_elements, coeff)
        return out

    def apply_slot(self, slot: int, fn: Callable[[Monomial], MaybeElement],
                   fn_degree: int) -> Union["TensorElement", Undefined]:
        """Apply a map of the given degree to one slot, with the Koszul sign
        for moving it past the slots to the left; the first gap of fn is
        returned as Undefined."""
        field = self.field
        out = TensorElement.zero(field, self.arity)
        for key, coeff in self._terms.items():
            left_degree = sum(m.degree for m in key[:slot])
            value = fn(key[slot])
            if isinstance(value, Undefined):
                return value
            sgn = field.sign(fn_degree * left_degree)
            for mono, c in value.terms():
                new_key = key[:slot] + (mono,) + key[slot + 1:]
                term = TensorElement(field, self.arity,
                                     {new_key: field.mul(field.mul(coeff, c), sgn)})
                out = out + term
        return out

    def multiply_out(self) -> Element:
        """Multiply all slots together (slots are already in order: no sign)."""
        out = Element.zero(self.field)
        for key, coeff in self._terms.items():
            word: Tuple[Generator, ...] = ()
            for mono in key:
                word = word + mono.word()
            out = out + normalize_word(self.field, word, coeff)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorElement) and self.field == other.field
                and self.arity == other.arity and self._terms == other._terms)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key, coeff in self.terms():
            body = " (x) ".join(str(m) for m in key)
            parts.append(f"{self.field.render(coeff)}*[{body}]")
        return " + ".join(parts)


def _combine_slots(field: FieldSpec, slots: List[Element], coeff) -> TensorElement:
    """Tensor of single-slot Elements (each a normalized scalar multiple)."""
    key: List[Monomial] = []
    c = coeff
    for elt in slots:
        terms = elt.terms()
        if not terms:
            return TensorElement.zero(field, len(slots))
        mono, slot_coeff = terms[0]
        key.append(mono)
        c = field.mul(c, slot_coeff)
    return TensorElement(field, len(slots), {tuple(key): c})


def coproduct_monomial(field: FieldSpec, mono: Monomial) -> TensorElement:
    """Coproduct of one monomial: product of (g (x) 1 + 1 (x) g) per letter."""
    unit = Monomial.unit()
    out = TensorElement.pure(field, (unit, unit))
    for g in mono.word():
        gm = Monomial(((g, 1),))
        letter = TensorElement(field, 2, {(gm, unit): 1, (unit, gm): 1})
        out = out * letter
    return out


def coproduct(element: Element) -> TensorElement:
    out = TensorElement.zero(element.field, 2)
    for mono, coeff in element.terms():
        out = out + coproduct_monomial(element.field, mono).scale(coeff)
    return out


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
    by exact linear algebra on the degree-d monomial basis."""
    if degree <= 0:
        return []
    table = basis_by_degree(field, generators, degree)
    source = table[degree]
    if not source:
        return []
    pair_index: Dict[TensorKey, int] = {}
    for d1 in range(1, degree):
        for m1 in table[d1]:
            for m2 in table[degree - d1]:
                pair_index.setdefault((m1, m2), len(pair_index))
    matrix = [[field.zero()] * len(source) for _ in range(max(len(pair_index), 1))]
    for col, mono in enumerate(source):
        reduced = reduced_coproduct(Element.from_monomial(field, mono))
        for key, coeff in reduced.terms():
            matrix[pair_index[key]][col] = coeff
    kernel = nullspace(matrix, field)
    out = []
    for vec in kernel:
        out.append(Element(field, {m: c for m, c in zip(source, vec)}))
    return out


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
    undefined operator values are reported as skipped coverage."""
    field = op.field
    degree = op.degree if op.degree is not None else 0
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
        return compare({"input": str(mono)}, "coproduct of image", coproduct(value),
                       "coderivation expansion", left + right)

    monos = window_tuples(monomial_basis(field, generators, bound), 1, bound)
    return Report(checks=run_checks(("coderivation",), monos, coderivation))
