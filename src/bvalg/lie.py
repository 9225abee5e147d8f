"""Finite graded Lie presentations with a bracket of degree n-1.

A presentation at shift n stores generators with their degrees, one
orientation of each bracket pair, and an optional differential of degree
-1, and reads its table once (`letter_pairs`) into `pairs`: {x, y} on every
ordered generator pair, the other orientation through shifted antisymmetry
and an untabulated pair zero.  The degree rule for a tabulated pair is
|{x,y}| = |x| + |y| + (n-1); the sign parity of a generator x in all
Lie-side formulas is |x| + n - 1.

``desuspend`` converts between shifts: moving a presentation from shift s
to shift n lowers every degree by n - s and carries the bracket table and
differential along unchanged (they are read through the shift).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import Element, Generator, MaybeElement, linear_extension
from .fields import FieldSpec
from .report import FAIL, Report, as_pair, as_triple, by_name, compare, run_checks, vanishes

BracketKey = Tuple[str, str]
LetterPairs = Dict[Tuple[Generator, Generator], MaybeElement]


class LiePresentation:
    def __init__(self, field: FieldSpec, shift: int, generators: List[Generator],
                 brackets: Optional[Dict[BracketKey, Element]] = None,
                 differential: Optional[Dict[str, Element]] = None):
        self.field = field
        self.shift = shift
        self.generators = generators
        self.differential = {} if differential is None else differential
        ids = [g.id for g in generators]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate generator ids")
        self._by_id = {g.id: g for g in generators}
        self.brackets = self.canonical_table({} if brackets is None else brackets)
        zero = Element.zero(field)
        self.pairs = self.letter_pairs(self.brackets, lambda key: zero)
        for x, value in self.differential.items():
            self.gen(x)
            self._require_span(value, f"differential of {x}")

    def __eq__(self, other) -> bool:
        return isinstance(other, LiePresentation) and vars(self) == vars(other)

    def _require_span(self, value: Element, what: str) -> None:
        if value.field != self.field:
            raise ValueError(f"{what}: field mismatch")
        for mono in value.monomials():
            if mono.wordlength != 1:
                raise ValueError(f"{what}: value must lie in the generator span")
            g = mono.word()[0]
            if self._by_id.get(g.id) != g:
                raise ValueError(f"{what}: unknown generator {g.id!r}")

    # -- access ------------------------------------------------------------

    def gen(self, gen_id: str) -> Generator:
        try:
            return self._by_id[gen_id]
        except KeyError:
            raise KeyError(f"unknown generator {gen_id!r}") from None

    def parity(self, g: Generator) -> int:
        return g.degree + self.shift - 1

    def bracket_degree(self, x: Generator, y: Generator) -> int:
        return x.degree + y.degree + self.shift - 1

    def _canonical_pair(self, x: Generator, y: Generator) -> Tuple[BracketKey, bool]:
        """The key under which a table stores the pair, and whether (x, y)
        is its other orientation."""
        if (x.sort_key, x.id) <= (y.sort_key, y.id):
            return (x.id, y.id), False
        return (y.id, x.id), True

    def _flip_sign(self, x: Generator, y: Generator) -> int:
        """The parity of the sign that turns {y,x} into {x,y}."""
        return self.parity(x) * self.parity(y) + 1

    def canonical_table(self, table: Dict[BracketKey, Element]) -> Dict[BracketKey, Element]:
        """A bracket table keyed by canonical pairs, the other orientation
        moved over by shifted antisymmetry.  Values must lie in the generator
        span over this field, and each unordered pair may appear once."""
        normalized: Dict[BracketKey, Element] = {}
        for (x, y), value in table.items():
            self._require_span(value, f"bracket [{x},{y}]")
            gx, gy = self.gen(x), self.gen(y)
            key, flip = self._canonical_pair(gx, gy)
            if key in normalized:
                raise ValueError(f"bracket pair ({x},{y}) tabulated twice")
            normalized[key] = value.signed(self._flip_sign(gx, gy)) if flip else value
        return normalized

    def letter_pairs(self, table: Dict[BracketKey, Element],
                     absent: Callable[[BracketKey], MaybeElement]) -> LetterPairs:
        """{x, y} for every ordered generator pair (x, y), read from a
        canonical table: its entry, the other orientation through shifted
        antisymmetry, and absent(key) where the table has no entry."""
        pairs: LetterPairs = {}
        for x in self.generators:
            for y in self.generators:
                key, flip = self._canonical_pair(x, y)
                value = table.get(key)
                pairs[x, y] = (absent(key) if value is None
                               else value.signed(self._flip_sign(x, y)) if flip else value)
        return pairs

    def bracket(self, x_id: str, y_id: str) -> Element:
        """Bracket of two generators; untabulated pairs bracket to zero."""
        return self.pairs[self.gen(x_id), self.gen(y_id)]

    def bracket_elements(self, u: Element, v: Element) -> Element:
        """Bilinear extension of the bracket to the generator span."""
        return linear_extension(
            lambda mu: linear_extension(
                lambda mv: self.bracket(mu.word()[0].id, mv.word()[0].id), v), u)

    def diff(self, gen_id: str) -> Element:
        return self.differential.get(gen_id, Element.zero(self.field))

    def diff_element(self, u: Element) -> Element:
        return linear_extension(lambda mono: self.diff(mono.word()[0].id), u)

    def span_element(self, gen_id: str) -> Element:
        return Element.from_generator(self.field, self.gen(gen_id))


def desuspend(presentation: LiePresentation, target_shift: int) -> LiePresentation:
    """Move a presentation to another shift, lowering each generator degree
    by (target_shift - shift).  Raises on negative resulting degrees."""
    delta = target_shift - presentation.shift
    mapping: Dict[str, Generator] = {}
    new_gens = []
    for g in presentation.generators:
        d = g.degree - delta
        if d < 0:
            raise ValueError(
                f"desuspension by {delta} sends {g.id!r} to negative degree {d}")
        ng = Generator(g.id, d)
        mapping[g.id] = ng
        new_gens.append(ng)

    def remap(value: Element) -> Element:
        return linear_extension(
            lambda mono: Element.from_generator(presentation.field, mapping[mono.word()[0].id]),
            value)

    return LiePresentation(
        field=presentation.field,
        shift=target_shift,
        generators=new_gens,
        brackets={key: remap(v) for key, v in presentation.brackets.items()},
        differential={x: remap(v) for x, v in presentation.differential.items()},
    )


def _degree_outcome(expected: int, value: Element):
    got = value.homogeneous_degree()
    if value.is_zero or got == expected:
        return None
    return {"expected degree": str(expected), "value": str(value), "value degree": str(got)}


def check_lie_axioms(presentation: LiePresentation) -> Report:
    """Shifted antisymmetry and Jacobi on all generator pairs and triples,
    then check_differential's checks when the presentation has a differential.

    A degree mismatch in the table is a structural error reported before
    (and instead of) the antisymmetry and Jacobi checks.
    """
    p = presentation

    def bracket_degree(x_id, y_id):
        return _degree_outcome(p.bracket_degree(p.gen(x_id), p.gen(y_id)),
                               p.brackets[(x_id, y_id)])

    def jacobi(x, y, z):
        lhs = p.bracket_elements(p.span_element(x.id), p.bracket(y.id, z.id))
        first = p.bracket_elements(p.bracket(x.id, y.id), p.span_element(z.id))
        second = p.bracket_elements(p.span_element(y.id), p.bracket(x.id, z.id))
        return compare("lhs {x,{y,z}}", lhs, "rhs {{x,y},z} + sign*{y,{x,z}}",
                       first + second.signed(p.parity(x) * p.parity(y)))

    checks = run_checks(("bracket-degree",), sorted(p.brackets), bracket_degree, as_pair)
    if checks[0].verdict != FAIL:
        checks += (check_antisymmetry(p).checks
                   + run_checks(("bracket-jacobi",), product(p.generators, repeat=3), jacobi,
                                as_triple))
    if p.differential:
        checks += check_differential(p).checks
    return Report(checks=checks)


def check_antisymmetry(presentation: LiePresentation) -> Report:
    """Shifted antisymmetry on all generator pairs (with one orientation per
    pair stored, only an even-parity {x,x} away from characteristic 2 fails)."""
    p = presentation

    def antisymmetry(x, y):
        lhs = p.bracket(x.id, y.id)
        if x == y and p.parity(x) % 2 == 0 and p.field.characteristic != 2:
            # antisymmetry forces 2{x,x} = 0 here, so {x,x} = 0 away from char 2
            outcome = vanishes("value", lhs)
            return outcome and {"constraint": "even shifted parity forces {x,x} = 0",
                                **outcome}
        return compare("lhs", lhs, "rhs", p.bracket(y.id, x.id).signed(p._flip_sign(x, y)))

    return Report(checks=run_checks(("bracket-antisymmetry",),
                                    product(p.generators, repeat=2), antisymmetry, as_pair))


def check_differential(presentation: LiePresentation) -> Report:
    """d has degree -1, squares to zero, and is a bracket derivation."""
    p = presentation

    def degree(x_id):
        return _degree_outcome(p.gen(x_id).degree - 1, p.differential[x_id])

    checks = run_checks(("differential-degree",), [(x,) for x in sorted(p.differential)],
                        degree, by_name("generator"))
    if checks[0].verdict == FAIL:
        return Report(checks=checks)

    def square(x):
        return vanishes("d(d(x))", p.diff_element(p.diff(x.id)))

    def leibniz(x, y):
        rhs = (p.bracket_elements(p.diff(x.id), p.span_element(y.id))
               + p.bracket_elements(p.span_element(x.id), p.diff(y.id)).signed(p.parity(x)))
        return compare("d{x,y}", p.diff_element(p.bracket(x.id, y.id)),
                       "{dx,y} + sign*{x,dy}", rhs)

    return Report(checks=(
        checks
        + run_checks(("differential-squared",), product(p.generators, repeat=1), square,
                     by_name("generator"))
        + run_checks(("differential-bracket-derivation",), product(p.generators, repeat=2),
                     leibniz, as_pair)))

