"""Brackets of degree n-1, free BV operators, and the axiom verifiers.

A structure couples a free graded-commutative algebra on the generators of
a Lie presentation (shift n) with

  * the bracket, extended from generator pairs by the Poisson relation
    {a, bc} = {a,b}c + (-1)^((|a|+n-1)|b|) b{a,c}, which `algebra.leibniz`
    applies in each slot (the first one through shifted antisymmetry); as
    the rule reads every letter's image before any product, {x, y} is
    Undefined exactly when some letter of x and some letter of y have no
    table entry, and

  * an operator of degree n-1, fixed by its values on generators: -d(g)
    for a free structure, the table for a user one.  On a word it is those
    values extended by the Leibniz rule (with an odd sign) plus the
    wordlength-lowering bracket contraction.  The deviation identity
    bv(ab) = (-1)^|a|{a,b} + bv(a)b + (-1)^|a| a bv(b) is checked, not used
    to build it.  On a free structure the first summand keeps wordlength
    and the contraction lowers it by one, so the free square-zero suite
    reads the square of the operator by wordlength.

User tables may be partial: undefined entries are explicit and verifiers
report them as skipped coverage rather than guessing.  A structure stores
its table once as {x, y} on ordered generator pairs, a missing pair zero
in a total table and an Undefined named by its canonical pair in a
partial one.  `BVStructure.tuples` gates each window on two bit masks per
basis monomial, read from those pairs: letters(m), a bit per generator of
m, and partners(m), a bit per generator with which some letter of m has an
Undefined pair.  By the letter-pair rule above, a tuple in which
partners(x) meets letters(y) for a slot x and a later slot y has an
Undefined bracket {x, y}; it is counted in `pruned`, not yielded, and
`run_checks` skips it for every check name, as each window verifier of
arity >= 2 reads the bracket of every such slot pair.

Each window identity is data: lists of lhs and rhs parts (kind, x, y, e),
each (-1)^e times {x, y} ("bracket"), xy ("product") or bv(x) ("bv"), with
x, y defined monomials or Elements (the gate defines each slot-pair
bracket, and a verifier returns a gap in bv(a) or bv(b) before it builds
parts).  `_decide` adds lhs - rhs as a two-sided sum from cached brackets
and operator values and memoized products: a term whose sign, with one
more flip for rhs, is even goes into one dict and an odd one into the
other, so no coefficient is negated.  Equal dicts pass, the first gap read
(an outer bracket or an operator value of a term) skips, and only a
failing instance builds the two sides, for the certificate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (Element, Generator, MaybeElement, Monomial, Undefined, WindowTuples,
                      _accumulate, first_undefined, leibniz, linear_extension, monomial_basis,
                      monomial_product)
from .fields import Scalar
from .lie import LiePresentation
from .report import (Outcome, Report, as_triple, by_name, merge_reports, run_checks,
                     vanishes)

FREE = "free"
USER = "user"


class OutOfWindow(Undefined):
    """A stored table value whose degree exceeds the window."""

    __slots__ = ("degree", "limit")

    def __init__(self, blocking: str, degree: int, limit: int):
        super().__init__(blocking)
        self.degree = degree
        self.limit = limit


class BVStructure:
    """Algebra + bracket + (possibly partial) degree-(n-1) operator.

    `letters` maps each generator to its one-letter monomial.  Tables are
    stored once, at construction: the bracket in `_pairs` (the
    presentation's own pairs unless a partial table is given), user values
    with one past the truncation as OutOfWindow and a generator without one
    as Undefined.  The basis is built once, at the truncation, on first use.
    """

    def __init__(self,
                 presentation: LiePresentation,
                 truncation: int,
                 bv_values: Optional[Dict[str, Element]] = None,
                 partial_brackets: Optional[Dict[Tuple[str, str], Element]] = None,
                 has_bv: bool = True):
        self.presentation = presentation
        self.field = presentation.field
        self.shift = presentation.shift
        self.generators = list(presentation.generators)
        self.letters = {g: Monomial(((g, 1),)) for g in self.generators}
        self.truncation = truncation
        self.has_bv = has_bv
        self.provenance = FREE if bv_values is None else USER
        self._pairs = presentation.pairs if partial_brackets is None else (
            presentation.letter_pairs(presentation.canonical_table(partial_brackets),
                                      lambda key: Undefined(f"bracket [{','.join(key)}]")))
        self._bracket_cache: Dict[Tuple[Monomial, Monomial], MaybeElement] = {}
        self._bv_cache: Dict[Monomial, MaybeElement] = {}
        self._basis: Optional[List[Monomial]] = None
        self._gate: Optional[Tuple[List[int], List[int]]] = None  # (letters, partners)
        if bv_values is None:
            zero = Element.zero(self.field)
            self._generator_values: Dict[Generator, MaybeElement] = {
                g: -presentation.differential.get(g.id, zero) for g in self.generators}
        else:
            self._generator_values = {g: Undefined(f"bv({g.id})") for g in self.generators}
            for key, value in bv_values.items():
                if value.field != self.field:
                    raise ValueError(f"bv({key}): field mismatch")
                if value.max_degree() > truncation:
                    value = OutOfWindow(f"bv({key}) out of window", value.max_degree(), truncation)
                self._generator_values[presentation.gen(key)] = value

    def basis(self) -> List[Monomial]:
        """The basis at the truncation."""
        if self._basis is None:
            self._basis = monomial_basis(self.field, self.generators, self.truncation)
        return self._basis

    def tuples(self, arity: int) -> WindowTuples:
        """The window: basis monomial tuples of total degree <= the
        truncation.  A tuple in which the bracket {x, y} of a slot x and a
        later slot y is Undefined, which only a partial table has, is counted
        in `pruned`, not yielded (the gate in the module docstring)."""
        if self._gate is None:
            bit = {g: 1 << i for i, g in enumerate(self.generators)}
            missing = {g: sum(bit[h] for h in self.generators
                              if isinstance(self._pairs[g, h], Undefined))
                       for g in self.generators}
            self._gate = [], []
            for mono in self.basis():
                letters = partners = 0
                for g, _ in mono.factors:
                    letters, partners = letters | bit[g], partners | missing[g]
                self._gate[0].append(letters)
                self._gate[1].append(partners)
        return WindowTuples(self.basis(), arity, self.truncation, self._gate)

    # -- operator values ----------------------------------------------------

    def bv_monomial(self, mono: Monomial) -> MaybeElement:
        """Operator value on a basis monomial: the bracket contraction plus
        the generator values extended by the Leibniz rule (odd sign); the
        contraction comes first, so a bracket gap returns before any Leibniz
        product.  Undefined at a gap, and OutOfWindow where a stored table
        value lies past the truncation."""
        if not self.has_bv:
            return Undefined("no bv operator")
        value = self._bv_cache.get(mono)
        if value is None:
            value = _contract_monomial(self, mono)
            if isinstance(value, Element):
                derivation = leibniz(self.field, mono.word(), self._generator_values.get, -1)
                value = first_undefined(derivation) or derivation + value
            self._bv_cache[mono] = value
        return value

    def bv_element(self, element: Element) -> MaybeElement:
        return linear_extension(self.bv_monomial, element)


# -- the Poisson-extended bracket ------------------------------------------------


def _bracket_monomials(s: BVStructure, m1: Monomial, m2: Monomial) -> MaybeElement:
    """{m1, m2}, cached.  Unless m2 is one letter, the Leibniz rule over its
    letters y of {m1, y}.  For two letters, the table.  For a letter y
    after any other m1, the Leibniz rule for {y, -} over the letters of m1,
    turned by shifted antisymmetry.  A unit in either slot gives the empty
    sum."""
    value = s._bracket_cache.get((m1, m2))
    if value is None:
        field, parity1 = s.field, m1.degree + s.shift - 1
        if m2.wordlength != 1:
            value = leibniz(field, m2.word(),
                            lambda y: _bracket_monomials(s, m1, s.letters[y]), parity1)
        elif m1.wordlength == 1:
            value = s._pairs[m1.word()[0], m2.word()[0]]
        else:
            (y,) = m2.word()
            parity2 = y.degree + s.shift - 1
            value = leibniz(field, m1.word(), lambda x: s._pairs[y, x], parity2)
            if isinstance(value, Element):
                value = value.signed(parity1 * parity2 + 1)
        s._bracket_cache[(m1, m2)] = value
    return value


def poisson_bracket(s: BVStructure, a: Element, b: Element) -> MaybeElement:
    """Bilinear Poisson extension of the generator bracket table."""
    return linear_extension(
        lambda m1: linear_extension(lambda m2: _bracket_monomials(s, m1, m2), b), a)


def _add_parts(s: BVStructure, sides: Tuple[Dict[Monomial, Scalar], Dict[Monomial, Scalar]],
               lhs: Sequence[tuple], rhs: Sequence[tuple] = ()) -> Optional[Undefined]:
    """Add each term of the parts of lhs and rhs (the parts contract in the
    module docstring) into sides[0] when its sign, with one more flip for
    rhs, is even, else into sides[1], so lhs - rhs is sides[0] - sides[1];
    returns the first gap among the values read, else None."""
    field = s.field
    mul, one = field.mul, field.one()
    char2 = field.characteristic == 2
    for flip, parts in ((0, lhs), (1, rhs)):
        for kind, x, y, exponent in parts:
            exponent += flip
            for m1, c1 in x._terms.items() if isinstance(x, Element) else ((x, one),):
                for m2, c2 in y._terms.items() if isinstance(y, Element) else ((y, one),):
                    c = c2 if c1 is one else c1 if c2 is one else mul(c1, c2)
                    if kind == "product":
                        prod = monomial_product(m1, m2, char2)
                        if prod is not None:
                            _accumulate(field, sides[(exponent + prod[1]) % 2], ((prod[0], c),))
                        continue
                    value = (_bracket_monomials(s, m1, m2) if kind == "bracket"
                             else s.bv_monomial(m1))
                    if isinstance(value, Undefined):
                        return value
                    if value._terms:
                        terms = value._terms.items()
                        if c is not one:
                            terms = [(m, mul(v, c)) for m, v in terms]
                        _accumulate(field, sides[exponent % 2], terms)
    return None


def _decide(s: BVStructure, lhs_label: str, lhs: Sequence[tuple],
            rhs_label: str, rhs: Sequence[tuple]) -> Outcome:
    """Outcome of the identity sum(lhs) == sum(rhs), from one two-sided sum."""
    sides: Tuple[Dict[Monomial, Scalar], Dict[Monomial, Scalar]] = ({}, {})
    gap = _add_parts(s, sides, lhs, rhs)
    if gap is not None or sides[0] == sides[1]:
        return gap
    return _sides(s, lhs_label, lhs, rhs_label, rhs)


def _sides(s: BVStructure, lhs_label: str, lhs: Sequence[tuple],
           rhs_label: str, rhs: Sequence[tuple]) -> Dict[str, str]:
    """A failing instance's sides, each summed on its own and rendered."""
    rendered = {}
    for label, parts in ((lhs_label, lhs), (rhs_label, rhs)):
        even, odd = {}, {}
        _add_parts(s, (even, odd), parts)
        rendered[label] = str(Element._trusted(s.field, even) - Element._trusted(s.field, odd))
    return rendered


# -- the free operator ----------------------------------------------------------


def _contract_monomial(s: BVStructure, mono: Monomial) -> MaybeElement:
    """Wordlength-lowering contraction: sum over position pairs i < j of
    {x_i, x_j} wedge (the word with both letters deleted), with the sign
    (-1)^(|x_i|) (-1)^(n_ij) where (-1)^(n_ij) moves x_i, x_j to the front."""
    field, pairs = s.field, s._pairs
    out: Dict[Monomial, Scalar] = {}
    word = mono.word()
    k = len(word)
    prefix = [0] * (k + 1)
    for i, g in enumerate(word):
        prefix[i + 1] = prefix[i] + g.degree
    for i in range(k):
        for j in range(i + 1, k):
            br = pairs[word[i], word[j]]
            if isinstance(br, Undefined):
                return br
            if br.is_zero:
                continue
            n_ij = (word[i].degree * prefix[i]
                    + word[j].degree * (prefix[j] - word[i].degree))
            rest = Element.from_monomial(
                field, Monomial.from_sorted_word(word[:i] + word[i + 1:j] + word[j + 1:]))
            _accumulate(field, out, (br * rest).signed(word[i].degree + n_ij)._terms.items())
    return Element._trusted(field, out)


def free_bv(s: BVStructure, element: Element) -> Element:
    """The free operator: differential part plus bracket contraction (a free
    structure's bracket table is total, so neither part has gaps)."""
    if s.provenance != FREE:
        raise ValueError("free operator requested on a user-supplied structure")
    return s.bv_element(element)


# -- verifiers --------------------------------------------------------------------


def verify_square_zero(s: BVStructure) -> Report:
    """bv(bv(m)) = 0 on every basis monomial m in the window.  On a free
    structure, whose summands d0 and d1 keep wordlength and lower it by one,
    the terms of the square that lower the wordlength of m by 0, 2 and 1
    are d0^2, d1^2 and d0 d1 + d1 d0 on m, each checked on its own first;
    bv-squared reads the whole square, so a term in no part fails it."""
    split = s.provenance == FREE and s.has_bv
    names = ("d0-squared", "d1-squared", "d0-d1-anticommute") if split else ()

    def square(mono):
        value = s.bv_monomial(mono)
        second = value if isinstance(value, Undefined) else s.bv_element(value)
        if not split:
            return vanishes("value", second)
        # a free operator has no gaps; its square's terms by wordlength drop
        parts: Dict[int, Dict[Monomial, Scalar]] = {0: {}, 2: {}, 1: {}}
        for m, c in second._terms.items():
            parts.setdefault(mono.wordlength - m.wordlength, {})[m] = c
        return (*(vanishes("value", Element._trusted(s.field, parts[drop]))
                  for drop in (0, 2, 1)), vanishes("value", second))

    return Report(checks=run_checks(names + ("bv-squared",), s.tuples(1), square,
                                    by_name("input")))


def verify_deviation_identity(s: BVStructure) -> Report:
    """The bracket equals the operator's deviation from being a derivation,
    (-1)^|a| (bv(ab) - bv(a) b) - a bv(b), on every basis pair in the window."""
    char2 = s.field.characteristic == 2

    def deviation(a, b):
        bv_a, bv_b = s.bv_monomial(a), s.bv_monomial(b)
        ab = monomial_product(a, b, char2)
        return first_undefined(bv_a, bv_b) or _decide(
            s, "bracket", [("bracket", a, b, 0)], "operator deviation",
            ([("bv", ab[0], None, a.degree + ab[1])] if ab else [])
            + [("product", bv_a, b, a.degree + 1), ("product", a, bv_b, 1)])

    return Report(checks=run_checks(("bv-deviation-is-bracket",), s.tuples(2),
                                    deviation, by_name("a", "b")))


def verify_bracket_compatibility(s: BVStructure) -> Report:
    """bv{a,b} = {bv a, b} + (-1)^(|a|+1) {a, bv b} on basis pairs."""

    def compatibility(a, b):
        bv_a, bv_b = s.bv_monomial(a), s.bv_monomial(b)
        return first_undefined(bv_a, bv_b) or _decide(
            s, "bv{a,b}", [("bv", _bracket_monomials(s, a, b), None, 0)],
            "{bv a,b} + sign*{a,bv b}",
            [("bracket", bv_a, b, 0), ("bracket", a, bv_b, a.degree + 1)])

    return Report(checks=run_checks(("bv-bracket-compatibility",), s.tuples(2),
                                    compatibility, by_name("a", "b")))


def verify_gerstenhaber(s: BVStructure) -> Report:
    """Shifted antisymmetry on pairs; Jacobi and the Poisson relation on
    triples of basis monomials (one enumeration, so a triple pruned for an
    undefined inner bracket skips both)."""
    char2 = s.field.characteristic == 2

    def antisymmetry(a, b):
        pa, pb = a.degree + s.shift - 1, b.degree + s.shift - 1
        return _decide(s, "{a,b}", [("bracket", a, b, 0)],
                       "-sign*{b,a}", [("bracket", b, a, pa * pb + 1)])

    def jacobi_and_poisson(a, b, c):
        inner_bc = _bracket_monomials(s, b, c)
        inner_ac = _bracket_monomials(s, a, c)
        inner_ab = _bracket_monomials(s, a, b)
        pa, pb = a.degree + s.shift - 1, b.degree + s.shift - 1
        bc = monomial_product(b, c, char2)
        return (_decide(s, "{a,{b,c}}", [("bracket", a, inner_bc, 0)],
                        "{{a,b},c} + sign*{b,{a,c}}",
                        [("bracket", inner_ab, c, 0), ("bracket", b, inner_ac, pa * pb)]),
                _decide(s, "{a,bc}", [("bracket", a, bc[0], bc[1])] if bc else [],
                        "{a,b}c + sign*b{a,c}",
                        [("product", inner_ab, c, 0), ("product", b, inner_ac, pa * b.degree)]))

    return Report(checks=(
        run_checks(("bracket-antisymmetry",), s.tuples(2), antisymmetry, by_name("a", "b"))
        + run_checks(("bracket-jacobi", "poisson-relation"), s.tuples(3), jacobi_and_poisson,
                     as_triple)))


def verify_bv_axioms(s: BVStructure) -> Report:
    """Full suite: square-zero, deviation identity and bracket compatibility
    (given an operator), then Gerstenhaber; partial structures yield coverage < 1."""
    operator_suites = (verify_square_zero(s), verify_deviation_identity(s),
                       verify_bracket_compatibility(s)) if s.has_bv else ()
    report = merge_reports(*operator_suites, verify_gerstenhaber(s))
    for g in s.generators:
        value = s.bv_monomial(s.letters[g])
        if isinstance(value, Element):
            report.details[f"bv({g.id})"] = value
    return report

