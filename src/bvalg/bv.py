"""Brackets of degree n-1, free BV operators, and the axiom verifiers.

A structure couples a free graded-commutative algebra on the generators of
a Lie presentation (shift n) with

  * the bracket, extended from generator pairs by the Poisson relation
    {a, bc} = {a,b}c + (-1)^((|a|+n-1)|b|) b{a,c}  (first slot by shifted
    antisymmetry), and

  * an operator of degree n-1: either the free one, the sum of the
    derivation extending the negated Lie differential and the wordlength-
    lowering bracket contraction, or user-supplied values extended by the
    deviation recursion  bv(ab) = (-1)^|a|{a,b} + bv(a)b + (-1)^|a| a bv(b).

User tables may be partial: undefined entries are explicit and verifiers
report them as skipped coverage rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (Element, Generator, GradedMap, MaybeElement, Monomial,
                      Truncation, Undefined, derivation_from_generator_values,
                      first_undefined, linear_extension, monomial_basis, normalize_word,
                      sign_exponent, window_tuples)
from .fields import FieldSpec
from .lie import LiePresentation
from .report import FAIL, Report, compare, merge_reports, run_checks, vanishes

FREE = "free"
USER = "user"


@dataclass(frozen=True)
class OutOfWindow(Undefined):
    """A stored table value whose degree exceeds the window."""

    degree: int
    limit: int


class InconsistentExtensionError(Exception):
    """Two peeling orders of the deviation recursion disagree."""

    def __init__(self, mono: Monomial, values: Dict[str, str]):
        self.monomial = mono
        self.values = values
        super().__init__(f"inconsistent bv extension on {mono}: {values}")


class BVStructure:
    """Algebra + bracket + (possibly partial) degree-(n-1) operator.

    `d0` is the derivation extending the negated Lie differential (degree
    -1), the first summand of the free operator.
    """

    def __init__(self,
                 presentation: LiePresentation,
                 truncation: int,
                 bv_values: Optional[Dict[Union[str, Monomial], Element]] = None,
                 partial_brackets: Optional[Dict[Tuple[str, str], Element]] = None,
                 has_bv: bool = True,
                 metadata: Optional[Dict] = None):
        self.presentation = presentation
        self.field = presentation.field
        self.shift = presentation.shift
        self.generators = list(presentation.generators)
        self.truncation = truncation
        self.has_bv = has_bv
        self.metadata = dict(metadata or {})
        self.d0 = derivation_from_generator_values(
            self.field, {g: -d for g, d in presentation.differential.items()}, -1, name="d0")
        # The bracket table is partial exactly when one is given.
        self._partial_brackets: Optional[Dict[Tuple[str, str], Element]] = None
        if partial_brackets is not None:
            self._partial_brackets = {}
            for (x, y), value in partial_brackets.items():
                gx, gy = presentation.gen(x), presentation.gen(y)
                key, flip = presentation._canonical_pair(gx, gy)
                self._partial_brackets[key] = (
                    value.scale(presentation._flip_sign(gx, gy)) if flip else value)
        self._bv_values: Optional[Dict[Monomial, Element]] = None
        if bv_values is not None:
            self._bv_values = {}
            for key, value in bv_values.items():
                mono = (Monomial(((presentation.gen(key), 1),))
                        if isinstance(key, str) else key)
                self._bv_values[mono] = value
        self._bracket_cache: Dict[Tuple[Monomial, Monomial], MaybeElement] = {}
        self._bv_cache: Dict[Monomial, MaybeElement] = {}

    @property
    def provenance(self) -> str:
        return FREE if self._bv_values is None else USER

    @property
    def window(self) -> Truncation:
        return Truncation(self.truncation)

    def zero(self) -> Element:
        return Element.zero(self.field)

    def basis(self, max_degree: Optional[int] = None) -> List[Monomial]:
        return monomial_basis(self.field, self.generators,
                              self.truncation if max_degree is None else max_degree)

    # -- bracket ----------------------------------------------------------

    def bracket_pair(self, x: Generator, y: Generator) -> MaybeElement:
        if self._partial_brackets is None:
            return self.presentation.bracket(x.id, y.id)
        key, flip = self.presentation._canonical_pair(x, y)
        value = self._partial_brackets.get(key)
        if value is None:
            return Undefined(f"bracket [{key[0]},{key[1]}]")
        return value.scale(self.presentation._flip_sign(x, y)) if flip else value

    # -- operator values ----------------------------------------------------

    def stored_bv(self, mono: Monomial) -> Optional[Element]:
        if self._bv_values is None:
            return None
        return self._bv_values.get(mono)

    def bv_monomial(self, mono: Monomial) -> MaybeElement:
        """Exact operator value on a basis monomial (no window flagging)."""
        if not self.has_bv:
            return Undefined("no bv operator")
        cached = self._bv_cache.get(mono)
        if cached is not None:
            return cached
        if self.provenance == FREE:
            value: MaybeElement = free_bv(self, Element.from_monomial(self.field, mono))
        else:
            value = _user_bv_monomial(self, mono)
        self._bv_cache[mono] = value
        return value

    def windowed_bv(self, mono: Monomial) -> MaybeElement:
        """Operator value on a basis monomial as reports may use it.

        Stored user table entries are window artifacts: a stored value whose
        degree exceeds the truncation is flagged OutOfWindow, never silently
        used in reports.  Closed-form values are exact and never flagged.
        """
        stored = self.stored_bv(mono)
        if stored is not None and stored.max_degree() > self.truncation:
            return OutOfWindow(f"bv({mono}) out of window", stored.max_degree(),
                               self.truncation)
        return self.bv_monomial(mono)

    def bv_status(self, mono: Monomial):
        """('ok', Element) | ('undefined', reason) | ('out-of-window', marker)."""
        value = self.windowed_bv(mono)
        if isinstance(value, OutOfWindow):
            return ("out-of-window", value)
        if isinstance(value, Undefined):
            return ("undefined", value.blocking)
        return ("ok", value)

    def bv_element(self, element: Element) -> MaybeElement:
        return linear_extension(self.bv_monomial, element)

    def defined_bv_generator_values(self) -> List[Tuple[Generator, Element]]:
        out = []
        for g in sorted(self.generators, key=lambda g: g.sort_key):
            value = self.windowed_bv(_gen_monomial(g))
            if isinstance(value, Element):
                out.append((g, value))
        return out


def free_bv_structure(presentation: LiePresentation, truncation: int,
                      has_bv: bool = True,
                      metadata: Optional[Dict] = None) -> BVStructure:
    return BVStructure(presentation, truncation, has_bv=has_bv, metadata=metadata)


def user_bv_structure(presentation: LiePresentation, truncation: int,
                      bv_values: Dict[Union[str, Monomial], Element],
                      partial_brackets: Optional[Dict[Tuple[str, str], Element]] = None,
                      metadata: Optional[Dict] = None) -> BVStructure:
    return BVStructure(presentation, truncation, bv_values=bv_values,
                       partial_brackets=partial_brackets, metadata=metadata)


# -- the Poisson-extended bracket ------------------------------------------------


def _gen_monomial(g: Generator) -> Monomial:
    return Monomial(((g, 1),))


def _bracket_monomials(s: BVStructure, m1: Monomial, m2: Monomial) -> MaybeElement:
    key = (m1, m2)
    cached = s._bracket_cache.get(key)
    if cached is not None:
        return cached
    value = _bracket_monomials_compute(s, m1, m2)
    s._bracket_cache[key] = value
    return value


def _bracket_monomials_compute(s: BVStructure, m1: Monomial, m2: Monomial) -> MaybeElement:
    field = s.field
    if m1.is_unit or m2.is_unit:
        return s.zero()
    parity1 = m1.degree + s.shift - 1
    if m2.wordlength > 1:
        g = m2.word()[0]
        rest = m2.remove_one(g)
        left = _bracket_monomials(s, m1, _gen_monomial(g))
        if isinstance(left, Undefined):
            return left
        right = _bracket_monomials(s, m1, rest)
        if isinstance(right, Undefined):
            return right
        rest_elt = Element.from_monomial(field, rest)
        g_elt = Element.from_generator(field, g)
        return (left * rest_elt
                + (g_elt * right).scale(field.sign(parity1 * g.degree)))
    if m1.wordlength > 1:
        flipped = _bracket_monomials(s, m2, m1)
        if isinstance(flipped, Undefined):
            return flipped
        parity2 = m2.degree + s.shift - 1
        return flipped.scale(-sign_exponent(parity1 * parity2))
    return s.bracket_pair(m1.word()[0], m2.word()[0])


def poisson_bracket(s: BVStructure, a: Element, b: Element) -> MaybeElement:
    """Bilinear Poisson extension of the generator bracket table."""
    out = s.zero()
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            value = _bracket_monomials(s, m1, m2)
            if isinstance(value, Undefined):
                return value
            out = out + value.scale(s.field.mul(c1, c2))
    return out


# -- the free operator ----------------------------------------------------------


def bracket_part(s: BVStructure, element: Element) -> MaybeElement:
    """Wordlength-lowering contraction: sum over position pairs i < j of
    {x_i, x_j} wedge (the word with both letters deleted), with the sign
    (-1)^(|x_i|) (-1)^(n_ij) where (-1)^(n_ij) moves x_i, x_j to the front."""
    field = s.field
    out = s.zero()
    for mono, coeff in element.terms():
        word = mono.word()
        k = len(word)
        prefix = [0] * (k + 1)
        for i, g in enumerate(word):
            prefix[i + 1] = prefix[i] + g.degree
        for i in range(k):
            for j in range(i + 1, k):
                br = s.bracket_pair(word[i], word[j])
                if isinstance(br, Undefined):
                    return br
                if br.is_zero:
                    continue
                n_ij = (word[i].degree * prefix[i]
                        + word[j].degree * (prefix[j] - word[i].degree))
                sgn = sign_exponent(word[i].degree) * sign_exponent(n_ij)
                rest = Element.from_monomial(
                    field, Monomial.from_sorted_word(word[:i] + word[i + 1:j] + word[j + 1:]))
                out = out + (br * rest).scale(field.mul(coeff, field.coerce(sgn)))
    return out


def free_bv(s: BVStructure, element: Element) -> Element:
    """The free operator: differential part plus bracket contraction (a free
    structure's bracket table is total, so neither part has gaps)."""
    if s.provenance != FREE:
        raise ValueError("free operator requested on a user-supplied structure")
    contraction = bracket_part(s, element)
    return s.d0.apply(element) + contraction


# -- user-supplied operators via the deviation recursion -------------------------


def _user_bv_monomial(s: BVStructure, mono: Monomial) -> MaybeElement:
    field = s.field
    if mono.is_unit:
        return s.zero()
    stored = s.stored_bv(mono)
    if stored is not None:
        return stored
    if mono.wordlength == 1:
        return Undefined(f"bv({mono.word()[0].id})")
    values: Dict[str, Element] = {}
    blocked: Optional[Undefined] = None
    prefix = 0
    seen = set()
    for g in mono.word():
        if g.id in seen:
            prefix += g.degree
            continue
        seen.add(g.id)
        rest = mono.remove_one(g)
        kappa = field.sign(g.degree * prefix)
        prefix += g.degree
        bv_g = _user_bv_monomial(s, _gen_monomial(g))
        if isinstance(bv_g, Undefined):
            blocked = blocked or bv_g
            continue
        br = _bracket_monomials(s, _gen_monomial(g), rest)
        if isinstance(br, Undefined):
            blocked = blocked or br
            continue
        bv_rest = s.bv_monomial(rest)
        if isinstance(bv_rest, Undefined):
            blocked = blocked or bv_rest
            continue
        g_elt = Element.from_generator(field, g)
        rest_elt = Element.from_monomial(field, rest)
        sgn = field.sign(g.degree)
        value = (br.scale(sgn) + bv_g * rest_elt
                 + (g_elt * bv_rest).scale(sgn)).scale(kappa)
        values[g.id] = value
    if not values:
        return blocked if blocked is not None else Undefined(str(mono))
    distinct = list(values.values())
    if any(v != distinct[0] for v in distinct[1:]):
        raise InconsistentExtensionError(
            mono, {f"peel {gid}": str(v) for gid, v in sorted(values.items())})
    return distinct[0]


def bv_operator(s: BVStructure, name: str = "bv") -> GradedMap:
    """The structure's operator as a graded map (gaps are explicit)."""
    return GradedMap(s.field, s.shift - 1, rule=s.bv_monomial, name=name)


# -- deviation bracket extraction -------------------------------------------------


def bracket_from_operator(field: FieldSpec,
                          op_value: Callable[[Monomial], MaybeElement],
                          a: Monomial, b: Monomial) -> MaybeElement:
    """The bracket an operator induces through its deviation from being a
    product derivation; Undefined when a needed value is missing."""
    op_ab = linear_extension(op_value, normalize_word(field, a.word() + b.word()))
    if isinstance(op_ab, Undefined):
        return op_ab
    op_a = op_value(a)
    op_b = op_value(b)
    if gap := first_undefined(op_a, op_b):
        return gap
    a_elt = Element.from_monomial(field, a)
    b_elt = Element.from_monomial(field, b)
    sgn = field.sign(a.degree)
    return (op_ab - op_a * b_elt - (a_elt * op_b).scale(sgn)).scale(sgn)


# -- verifiers --------------------------------------------------------------------


def _pair_inputs(a: Monomial, b: Monomial) -> Dict[str, str]:
    return {"a": str(a), "b": str(b)}


def verify_square_zero(s: BVStructure, max_degree: Optional[int] = None) -> Report:
    """Square-zero identities on every basis monomial in the window; for free
    structures the two summands and their anticommutator are checked
    separately."""
    bound = s.truncation if max_degree is None else max_degree
    monos = list(window_tuples(s.basis(bound), 1, bound))
    checks = []
    if s.provenance == FREE and s.has_bv:
        def summands(mono):
            inputs = {"input": str(mono)}
            d0 = s.d0.value(mono)
            d1 = bracket_part(s, Element.from_monomial(s.field, mono))
            return (vanishes(inputs, "value", s.d0.apply(d0)),
                    vanishes(inputs, "value", bracket_part(s, d1)),
                    vanishes(inputs, "value", s.d0.apply(d1) + bracket_part(s, d0)))

        checks += run_checks(("d0-squared", "d1-squared", "d0-d1-anticommute"),
                             monos, summands)
    if s.has_bv:
        def bv_squared(mono):
            value = s.windowed_bv(mono)
            second = value if isinstance(value, Undefined) else s.bv_element(value)
            return vanishes({"input": str(mono)}, "value", second)

        checks += run_checks(("bv-squared",), monos, bv_squared)
    return Report(checks=checks)


def verify_deviation_identity(s: BVStructure, max_degree: Optional[int] = None) -> Report:
    """The bracket equals the operator's deviation from being a derivation,
    on every homogeneous basis pair in the window."""
    bound = s.truncation if max_degree is None else max_degree

    def deviation(a, b):
        lhs = _bracket_monomials(s, a, b)
        if isinstance(lhs, Undefined):
            return lhs
        return compare(_pair_inputs(a, b), "bracket", lhs, "operator deviation",
                       bracket_from_operator(s.field, s.windowed_bv, a, b))

    pairs = window_tuples(s.basis(bound), 2, bound) if s.has_bv else ()
    return Report(checks=run_checks(("bv-deviation-is-bracket",), pairs, deviation))


def verify_bracket_compatibility(s: BVStructure, max_degree: Optional[int] = None) -> Report:
    """bv{a,b} = {bv a, b} + (-1)^(|a|+1) {a, bv b} on basis pairs."""
    bound = s.truncation if max_degree is None else max_degree
    field = s.field

    def compatibility(a, b):
        br = _bracket_monomials(s, a, b)
        if isinstance(br, Undefined):
            return br
        lhs, bv_a, bv_b = s.bv_element(br), s.bv_monomial(a), s.bv_monomial(b)
        if gap := first_undefined(lhs, bv_a, bv_b):
            return gap
        first = poisson_bracket(s, bv_a, Element.from_monomial(field, b))
        second = poisson_bracket(s, Element.from_monomial(field, a), bv_b)
        return first_undefined(first, second) or compare(
            _pair_inputs(a, b), "bv{a,b}", lhs, "{bv a,b} + sign*{a,bv b}",
            first + second.scale(field.sign(a.degree + 1)))

    pairs = window_tuples(s.basis(bound), 2, bound) if s.has_bv else ()
    return Report(checks=run_checks(("bv-bracket-compatibility",), pairs, compatibility))


def verify_gerstenhaber(s: BVStructure, pair_degree: Optional[int] = None,
                        triple_degree: Optional[int] = None) -> Report:
    """Shifted antisymmetry on pairs; Jacobi and the Poisson relation on
    triples of basis monomials (one enumeration, so an undefined inner
    bracket skips both)."""
    p_bound = s.truncation if pair_degree is None else pair_degree
    t_bound = p_bound if triple_degree is None else triple_degree
    basis = s.basis(p_bound)
    field = s.field

    def antisymmetry(a, b):
        lhs, rhs = _bracket_monomials(s, a, b), _bracket_monomials(s, b, a)
        if gap := first_undefined(lhs, rhs):
            return gap
        pa, pb = a.degree + s.shift - 1, b.degree + s.shift - 1
        return compare(_pair_inputs(a, b), "{a,b}", lhs, "-sign*{b,a}",
                       rhs.scale(-sign_exponent(pa * pb)))

    def jacobi_and_poisson(a, b, c):
        inner_bc = _bracket_monomials(s, b, c)
        inner_ac = _bracket_monomials(s, a, c)
        inner_ab = _bracket_monomials(s, a, b)
        if gap := first_undefined(inner_bc, inner_ac, inner_ab):
            return gap, gap
        a_elt, b_elt, c_elt = (Element.from_monomial(field, m) for m in (a, b, c))
        pa, pb = a.degree + s.shift - 1, b.degree + s.shift - 1
        inputs = {"triple": f"({a},{b},{c})"}
        lhs = poisson_bracket(s, a_elt, inner_bc)
        first = poisson_bracket(s, inner_ab, c_elt)
        second = poisson_bracket(s, b_elt, inner_ac)
        jacobi = first_undefined(lhs, first, second) or compare(
            inputs, "{a,{b,c}}", lhs, "{{a,b},c} + sign*{b,{a,c}}",
            first + second.scale(sign_exponent(pa * pb)))
        lhs_p = poisson_bracket(s, a_elt, b_elt * c_elt)
        ac = poisson_bracket(s, a_elt, c_elt)
        poisson = first_undefined(lhs_p, ac) or compare(
            inputs, "{a,bc}", lhs_p, "{a,b}c + sign*b{a,c}",
            inner_ab * c_elt + (b_elt * ac).scale(field.sign(pa * b.degree)))
        return jacobi, poisson

    return Report(checks=(
        run_checks(("bracket-antisymmetry",), window_tuples(basis, 2, p_bound), antisymmetry)
        + run_checks(("bracket-jacobi", "poisson-relation"),
                     window_tuples(basis, 3, t_bound), jacobi_and_poisson)))


def verify_bv_axioms(s: BVStructure, max_degree: Optional[int] = None,
                     triple_degree: Optional[int] = None) -> Report:
    """Full suite: square-zero, deviation identity, bracket compatibility,
    and the Gerstenhaber axioms; partial structures yield coverage < 1."""
    bound = s.truncation if max_degree is None else max_degree
    try:
        report = merge_reports(
            verify_square_zero(s, bound),
            verify_deviation_identity(s, bound),
            verify_bracket_compatibility(s, bound),
            verify_gerstenhaber(s, bound, triple_degree),
        )
    except InconsistentExtensionError as exc:
        certificate = {"input": str(exc.monomial), **exc.values}
        return Report(checks=run_checks(("bv-extension-consistency",), [()],
                                        lambda: certificate))
    for g, value in s.defined_bv_generator_values():
        report.details[f"bv({g.id})"] = value
    return report


# -- universal extension -----------------------------------------------------------


def extend_morphism(assignment: Dict[str, Element], source: BVStructure,
                    target: BVStructure,
                    max_degree: Optional[int] = None) -> Tuple[Optional[GradedMap], Report]:
    """Multiplicative extension of a generator assignment out of a free
    structure; accepted only if the assignment respects degrees, brackets,
    and the operators on generators, and then verified to commute with the
    operators on all basis monomials in the window."""
    if source.provenance != FREE:
        raise ValueError("morphism extension needs a free source structure")
    field = source.field
    gens = [(g,) for g in source.generators]

    def image(gen_id: str) -> Element:
        return assignment.get(gen_id, target.zero())

    def degree(g):
        value = image(g.id)
        d = value.homogeneous_degree()
        if value.is_zero or d == g.degree:
            return None
        return {"generator": g.id, "degree": str(g.degree),
                "image": str(value), "image degree": str(d)}

    checks = run_checks(("morphism-degrees",), gens, degree)
    if checks[0].verdict == FAIL:
        return None, Report(checks=checks)

    def apply_span(value: Element) -> Element:
        return linear_extension(lambda mono: image(mono.word()[0].id), value)

    def brackets(x, y):
        return compare({"pair": f"[{x.id},{y.id}]"},
                       "image of bracket", apply_span(source.presentation.bracket(x.id, y.id)),
                       "bracket of images", poisson_bracket(target, image(x.id), image(y.id)))

    def operators(g):
        return compare({"generator": g.id},
                       "image of -d(x)", apply_span(source.presentation.diff(g.id)).scale(-1),
                       "bv of image", target.bv_element(image(g.id)))

    checks += run_checks(("morphism-brackets",),
                         combinations_with_replacement(source.generators, 2), brackets)
    checks += run_checks(("morphism-operators",), gens, operators)
    if any(c.verdict == FAIL for c in checks):
        return None, Report(checks=checks)

    def extension_rule(mono: Monomial) -> Element:
        out = Element.unit(target.field)
        for g in mono.word():
            out = out * image(g.id)
        return out

    extension = GradedMap(target.field, 0, rule=extension_rule, name="morphism")
    bound = source.truncation if max_degree is None else max_degree

    def commutes(mono):
        return compare({"input": str(mono)},
                       "morphism(bv(m))",
                       extension.apply(free_bv(source, Element.from_monomial(field, mono))),
                       "bv(morphism(m))", target.bv_element(extension_rule(mono)))

    checks += run_checks(("morphism-commutes-with-bv",),
                         window_tuples(source.basis(bound), 1, bound), commutes)
    report = Report(checks=checks)
    return (extension if report.passed else None), report


# -- sums of operators --------------------------------------------------------------


def check_derivation(op: GradedMap, generators: Sequence[Generator],
                     max_degree: int, op_degree: Optional[int] = None) -> Report:
    """Product-derivation law on all basis pairs in the window."""
    field = op.field
    degree = op.degree if op.degree is not None else op_degree
    if degree is None:
        return Report(checks=run_checks(
            ("derivation-law",), [()],
            lambda: {"reason": "operator degree unknown; no Koszul sign"}))

    def law(a, b):
        a_elt, b_elt = Element.from_monomial(field, a), Element.from_monomial(field, b)
        lhs = op.apply(normalize_word(field, a.word() + b.word()))
        va, vb = op.apply(a_elt), op.apply(b_elt)
        return first_undefined(lhs, va, vb) or compare(
            _pair_inputs(a, b), "op(ab)", lhs, "op(a)b + sign*a op(b)",
            va * b_elt + (a_elt * vb).scale(field.sign(degree * a.degree)))

    pairs = window_tuples(monomial_basis(field, generators, max_degree), 2, max_degree,
                          symmetric=True)
    return Report(checks=run_checks(("derivation-law",), pairs, law))


def add_derivation_action(base_op: GradedMap, derivation_op: GradedMap,
                          generators: Sequence[Generator],
                          max_degree: int,
                          derivation_degree: Optional[int] = None) -> Tuple[GradedMap, Report]:
    """Sum of a bracket-carrying operator and a product derivation.

    Verifies (i) the derivation law for the second operator and (ii) that
    the deviation bracket of the sum equals that of the base operator alone
    on all basis pairs in the window.
    """
    field = base_op.field
    report = check_derivation(derivation_op, generators, max_degree, derivation_degree)
    total = base_op + derivation_op

    def unchanged(a, b):
        return compare(_pair_inputs(a, b),
                       "bracket of sum", bracket_from_operator(field, total.value, a, b),
                       "bracket of base", bracket_from_operator(field, base_op.value, a, b))

    pairs = window_tuples(monomial_basis(field, generators, max_degree), 2, max_degree,
                          symmetric=True)
    report.checks += run_checks(("bracket-unchanged-by-derivation",), pairs, unchanged)
    return total, report
