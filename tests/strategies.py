"""The one sampler of small structures for every fuzz in tests/ and scripts/:
`draw_structure` on a `random.Random`, fed by `seeded_structures(seed)` or by
the hypothesis strategy `structures()`, whose `st.randoms(use_true_random=False)`
shrinks failures."""

import random
import weakref

from bvalg.algebra import Element, Generator, Monomial, monomial_basis
from bvalg.bv import FREE, USER, BVStructure
from bvalg.fields import GF2, QQ, FieldSpec
from bvalg.lie import LiePresentation, check_lie_axioms

FIELDS = (QQ, GF2, FieldSpec.prime(5))
MAX_GENERATORS = 3
MAX_DEGREE = 6
MAX_ATTEMPTS = 500

# a drawn user structure -> the operator values and bracket table it was built from
DRAWN = weakref.WeakKeyDictionary()

# the coordinate oracles fuzz free at shifts 0-3 and user at 0 and 2, invalid too
ORACLE_SHAPES = (dict(valid=False, shifts=(0, 1, 2, 3), window=6),
                 dict(valid=False, provenance=USER, shifts=(0, 2), window=6))


def draw_structure(rng: random.Random, valid: bool = True, provenance: str = FREE,
                   shifts=(0, 2, 4), basis_budget: int = 120, window: int = 10,
                   fields=FIELDS) -> BVStructure:
    """A structure truncated at `window`, its basis there at most `basis_budget`.
    With `valid`, a presentation passing the Lie axioms with sparse values,
    each one generator; without, every pair brackets and every generator with
    a partner one degree down differentiates to a combination of generators."""
    for _ in range(MAX_ATTEMPTS):
        f = rng.choice(fields)
        shift = rng.choice(shifts)
        gens = _propose_generators(rng, f, shift, valid)
        if len(monomial_basis(f, gens, window)) > basis_budget:
            continue
        brackets, differential = {}, {}
        for i, x in enumerate(gens):
            for y in gens[i:]:
                span = [g for g in gens if g.degree == x.degree + y.degree + shift - 1]
                if not valid:
                    brackets[(x.id, y.id)] = Element(
                        f, {Monomial(((g, 1),)): rng.randint(-2, 2) for g in span})
                # an even {x,x} is zero by antisymmetry away from characteristic 2
                elif (span and rng.random() >= 0.3 and not
                      (x == y and (x.degree + shift) % 2 == 1 and f.characteristic != 2)):
                    brackets[(x.id, y.id)] = Element.from_monomial(
                        f, Monomial(((rng.choice(span), 1),)), rng.choice([1, 1, -1, 2]))
        if not valid or rng.random() < 0.4:
            for x in gens:
                span = [g for g in gens if g.degree == x.degree - 1]
                if span and not valid:
                    differential[x.id] = Element(
                        f, {Monomial(((g, 1),)): rng.randint(-2, 2) for g in span})
                elif span and rng.random() < 0.5:
                    differential[x.id] = Element.from_generator(f, rng.choice(span))
        p = LiePresentation(f, shift, gens, brackets, differential)
        if valid and not check_lie_axioms(p).passed:
            continue
        return BVStructure(p, window) if provenance == FREE else _user(rng, p, window)
    raise RuntimeError("no valid random presentation found")


def _propose_generators(rng, f, shift, valid):
    """Without `valid`, one to four of degree 1-4 in normal-form order; with it, most
    proposals hold a generator in the degree some pair brackets into."""
    if not valid:
        degrees = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        return [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    if rng.random() < 0.7:
        if rng.random() < 0.5:
            candidates = [d for d in range(1, MAX_DEGREE + 1)
                          if 1 <= 2 * d + shift - 1 <= MAX_DEGREE
                          and (f.characteristic == 2 or (d + shift - 1) % 2 == 1)]
            if candidates:
                d = rng.choice(candidates)
                return [Generator("g0", d), Generator("g1", 2 * d + shift - 1)]
        pairs = [(dx, dy) for dx in range(1, MAX_DEGREE + 1)
                 for dy in range(dx, MAX_DEGREE + 1)
                 if 1 <= dx + dy + shift - 1 <= MAX_DEGREE]
        if pairs:
            dx, dy = rng.choice(pairs)
            return [Generator("g0", dx), Generator("g1", dy),
                    Generator("g2", dx + dy + shift - 1)]
    return [Generator(f"g{i}", rng.randint(1, MAX_DEGREE))
            for i in range(rng.randint(1, MAX_GENERATORS))]


def _user(rng, p, window):
    """The table with about one pair in six left out, and on about five generators
    in six a value with coefficients in -2..2 on the monomials of degree |g| + n - 1."""
    gens = sorted(p.generators, key=lambda g: g.sort_key)
    table = {(x.id, y.id): p.pairs[x, y]
             for i, x in enumerate(gens) for y in gens[i:] if rng.randrange(6)}
    basis = monomial_basis(p.field, gens, window)
    values = {g.id: Element(p.field, {m: rng.randint(-2, 2) for m in basis
                                      if m.degree == g.degree + p.shift - 1})
              for g in gens if rng.randrange(6)}
    s = BVStructure(p, window, values, table)
    DRAWN[s] = values, table
    return s


def seeded_structures(seed: int, **knobs):
    """The endless stream of structures drawn from random.Random(seed)."""
    rng = random.Random(seed)
    while True:
        yield draw_structure(rng, **knobs)


def structures(**knobs):
    """The hypothesis strategy drawing structures with the same builder."""
    from hypothesis import strategies as st  # the seeded front end runs without hypothesis
    return st.randoms(use_true_random=False).map(lambda rng: draw_structure(rng, **knobs))
