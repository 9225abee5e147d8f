"""The structure sampler in strategies.py keeps reaching every shape the
coordinate oracles rely on, so no fuzz narrows without a failing test."""

import random

from bvalg.algebra import Element
from bvalg.bv import FREE, USER, poisson_bracket

from strategies import ORACLE_SHAPES, draw_structure


def nonzero(values):
    return any(not v.is_zero for v in values.values())


def cells(s):
    p = s.presentation
    gens = sorted(s.generators, key=lambda g: g.sort_key)
    reached = {("field", str(p.field)), (s.provenance, p.shift)}
    if s.provenance == FREE and nonzero(p.differential) and nonzero(p.brackets):
        reached.add("free with a differential and a nonzero bracket")
    if any(len(v.terms()) > 1 for v in [*p.brackets.values(), *p.differential.values()]):
        reached.add("a bracket or differential of two or more generators")
    if len(gens) == 4:
        reached.add("four generators")
    letter = {g: Element.from_monomial(s.field, s.letters[g]) for g in gens}
    bracket_gap = any(not isinstance(poisson_bracket(s, letter[x], letter[y]), Element)
                      for i, x in enumerate(gens) for y in gens[i:])
    operator_gap = any(not isinstance(s.bv_monomial(s.letters[g]), Element) for g in gens)
    if bracket_gap and operator_gap:
        reached.add("user with a bracket gap and an operator gap")
    return reached


def test_seeded_oracle_shapes_reach_every_cell():
    reached = set()
    for seed in range(10):
        for shape in ORACLE_SHAPES:
            reached |= cells(draw_structure(random.Random(seed), **shape))
    expected = ({("field", name) for name in ("Q", "F2", "F5")}
                | {(FREE, shift) for shift in (0, 1, 2, 3)}
                | {(USER, shift) for shift in (0, 2)}
                | {"free with a differential and a nonzero bracket",
                   "user with a bracket gap and an operator gap",
                   "a bracket or differential of two or more generators",
                   "four generators"})
    assert expected - reached == set()


def test_free_oracle_draws_often_carry_a_differential():
    # the d0 summand of the operator is fuzzed only where a differential is
    # drawn: about a third of the draws carry one, some with a bracket too
    drawn = [draw_structure(random.Random(seed), **ORACLE_SHAPES[0]).presentation
             for seed in range(40)]
    with_d = [p for p in drawn if nonzero(p.differential)]
    assert len(with_d) >= 10
    assert len([p for p in with_d if nonzero(p.brackets)]) >= 4
