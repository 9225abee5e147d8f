"""Finite graded Lie presentations with a bracket of degree n-1.

A presentation at shift n stores generators with their degrees, one
orientation of each bracket pair, and an optional differential of degree
-1, and reads its table once (`letter_pairs`) into `pairs`: {x, y} on every
ordered generator pair, the other orientation through shifted antisymmetry
and an untabulated pair zero.  The grading holds by construction: a
bracket value has degree |x| + |y| + (n-1) and a differential value
|x| - 1, or the presentation is refused (ValueError).  The sign parity of
a generator x in all Lie-side formulas is |x| + n - 1.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import Element, Generator, MaybeElement, linear_extension
from .fields import FieldSpec
from .report import Report, as_pair, as_triple, by_name, compare, run_checks, vanishes

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
            self._require_span(value, f"differential of {x}", self.gen(x).degree - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, LiePresentation) and vars(self) == vars(other)

    def _require_span(self, value: Element, what: str, degree: int) -> None:
        """A table value lies in the span of the generators of `degree`."""
        if value.field != self.field:
            raise ValueError(f"{what}: field mismatch")
        for mono in value.monomials():
            if mono.wordlength != 1:
                raise ValueError(f"{what}: value must lie in the generator span")
            g = mono.word()[0]
            if self._by_id.get(g.id) != g:
                raise ValueError(f"{what}: unknown generator {g.id!r}")
            if g.degree != degree:
                raise ValueError(f"{what}: degree {degree} expected, got {g.degree}")

    # -- access ------------------------------------------------------------

    def gen(self, gen_id: str) -> Generator:
        try:
            return self._by_id[gen_id]
        except KeyError:
            raise ValueError(f"unknown generator {gen_id!r}") from None

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
        span of degree |x| + |y| + n - 1 over this field, and each unordered
        pair may appear once."""
        normalized: Dict[BracketKey, Element] = {}
        for (x, y), value in table.items():
            gx, gy = self.gen(x), self.gen(y)
            self._require_span(value, f"bracket [{x},{y}]", self.bracket_degree(gx, gy))
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


def _extend(fn: Callable[[Generator], Element], value: Element) -> Element:
    """fn, a map on generators, extended linearly to a span element."""
    return linear_extension(lambda mono: fn(mono.word()[0]), value)


def check_lie_axioms(presentation: LiePresentation) -> Report:
    """Shifted antisymmetry and Jacobi on all generator pairs and triples,
    then check_differential's checks when the presentation has a differential."""
    p, pairs = presentation, presentation.pairs

    def jacobi(x, y, z):
        lhs = _extend(lambda g: pairs[x, g], pairs[y, z])
        first = _extend(lambda g: pairs[g, z], pairs[x, y])
        second = _extend(lambda g: pairs[y, g], pairs[x, z])
        return compare("lhs {x,{y,z}}", lhs, "rhs {{x,y},z} + sign*{y,{x,z}}",
                       first + second.signed(p.parity(x) * p.parity(y)))

    checks = (check_antisymmetry(p).checks
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
        lhs = p.pairs[x, y]
        if x == y and p.parity(x) % 2 == 0 and p.field.characteristic != 2:
            # antisymmetry forces 2{x,x} = 0 here, so {x,x} = 0 away from char 2
            outcome = vanishes("value", lhs)
            return outcome and {"constraint": "even shifted parity forces {x,x} = 0",
                                **outcome}
        return compare("lhs", lhs, "rhs", p.pairs[y, x].signed(p._flip_sign(x, y)))

    return Report(checks=run_checks(("bracket-antisymmetry",),
                                    product(p.generators, repeat=2), antisymmetry, as_pair))


def check_differential(presentation: LiePresentation) -> Report:
    """d squares to zero and is a bracket derivation."""
    p, pairs = presentation, presentation.pairs
    zero = Element.zero(p.field)

    def d(g: Generator) -> Element:
        return p.differential.get(g.id, zero)

    def square(x):
        return vanishes("d(d(x))", _extend(d, d(x)))

    def leibniz(x, y):
        rhs = (_extend(lambda g: pairs[g, y], d(x))
               + _extend(lambda g: pairs[x, g], d(y)).signed(p.parity(x)))
        return compare("d{x,y}", _extend(d, pairs[x, y]), "{dx,y} + sign*{x,dy}", rhs)

    return Report(checks=(
        run_checks(("differential-squared",), product(p.generators, repeat=1), square,
                   by_name("generator"))
        + run_checks(("differential-bracket-derivation",), product(p.generators, repeat=2),
                     leibniz, as_pair)))
