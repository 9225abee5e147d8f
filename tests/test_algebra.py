import copy
import gc
import pickle
import weakref
from fractions import Fraction
from itertools import combinations, groupby

import pytest
from hypothesis import given, settings, strategies as st

from bvalg import algebra
from bvalg.algebra import (Element, Generator, Monomial, Undefined, WindowTuples,
                           monomial_basis, normalize_word)
from bvalg.bv import verify_bv_axioms
from bvalg.dsl import parse_presentation
from bvalg.fields import FieldSpec, GF2, QQ
from bvalg.hopf import GradedMap, derivation_from_generator_values

from oracles import ref_add, ref_mul, ref_normalize_word, ref_scale, ref_terms
from strategies import seeded_structures

X = Generator("x", 1)
Y = Generator("y", 1)
A = Generator("a", 2)
B = Generator("b", 5)
U1 = Generator("u1", 1)


def mono(*letters):
    word, exp = [], 0
    for g in letters:
        word.append(g)
    return Monomial.from_sorted_word(sorted(word, key=lambda g: g.sort_key))


def test_normalize_koszul_transposition():
    # swapping two odd letters picks up a minus sign
    assert normalize_word(QQ, (Y, X)) == Element.from_monomial(QQ, mono(X, Y), -1)
    assert normalize_word(QQ, (X, Y)) == Element.from_monomial(QQ, mono(X, Y), 1)


def test_normalize_odd_square_vanishes():
    assert normalize_word(QQ, (X, X)).is_zero


def test_normalize_char2_square_survives():
    expected = Element.from_monomial(GF2, Monomial(((U1, 2),)))
    assert normalize_word(GF2, (U1, U1)) == expected


def test_unit_law_and_even_powers():
    one = Element.unit(QQ)
    ea = Element.from_generator(QQ, A)
    assert one * ea == ea
    assert ea * ea == Element.from_monomial(QQ, Monomial(((A, 2),)))


def test_product_anticommutes_on_odd_generators():
    ex = Element.from_generator(QQ, X)
    ey = Element.from_generator(QQ, Y)
    assert ex * ey == -(ey * ex)


def test_homogeneous_degree_query():
    ex = Element.from_generator(QQ, X)
    ea = Element.from_generator(QQ, A)
    assert ex.homogeneous_degree() == 1
    assert (ex + ea).homogeneous_degree() == "mixed"
    assert Element.zero(QQ).homogeneous_degree() is None


def test_basis_counts_exterior_vs_polynomial():
    # over Q, odd generators are exterior
    assert len(monomial_basis(QQ, [X, Y], 2)) == 4  # 1, x, y, xy
    # over F2 the same generators are polynomial
    f2_basis = monomial_basis(GF2, [X, Y], 2)
    assert len(f2_basis) == 6  # 1, x, y, x^2, xy, y^2
    # mixed degrees
    names = [str(m) for m in monomial_basis(QQ, [A, B], 7)]
    assert names == ["1", "a", "a^2", "b", "a^3", "a*b"]


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_gated_window_yields_the_rest_and_counts_what_it_prunes(arity):
    basis = monomial_basis(QQ, [X, A, Generator("c", 2)], 7)
    # a bit per letter; x and a each block a, so the pairs (x, a) and (a, a)
    # are blocked but (a, x) is not: not symmetric, and false on some diagonals
    bit = {"x": 1, "a": 2, "c": 4}
    letters = [sum(bit[g.id] for g, _ in m.factors) for m in basis]
    partners = [2 if mask & 3 else 0 for mask in letters]
    position = {m: i for i, m in enumerate(basis)}

    def blocked(x, y):
        return partners[position[x]] & letters[position[y]]

    full = list(WindowTuples(basis, arity, 7))
    kept = [t for t in full if not any(blocked(x, y) for x, y in combinations(t, 2))]
    window = WindowTuples(basis, arity, 7, gate=(letters, partners))
    for _ in range(2):  # a second pass counts afresh
        assert list(window) == kept
        assert window.pruned == len(full) - len(kept)
    assert arity == 1 or 0 < len(kept) < len(full)


def test_window_of_no_slots_is_refused():
    with pytest.raises(ValueError, match="arity >= 1, got 0"):
        WindowTuples(monomial_basis(QQ, [X], 3), 0, 3)


def test_basis_rejects_degree_zero():
    with pytest.raises(ValueError):
        monomial_basis(QQ, [Generator("e", 0)], 3)


def test_star_import_resolves_every_export():
    import bvalg
    namespace = {}
    exec("from bvalg import *", namespace)
    assert [name for name in bvalg.__all__ if name not in namespace] == []


def test_graded_map_degree_validation():
    value = Element.from_monomial(QQ, Monomial(((A, 2),)))
    gm = GradedMap(QQ, 2, rule=lambda m: value)
    assert gm.value(mono(A)) == value
    with pytest.raises(ValueError):
        GradedMap(QQ, 1, rule=lambda m: value).value(mono(A))


def test_graded_map_apply_and_gaps():
    table = {mono(X): Element.from_generator(QQ, Y)}
    gm = GradedMap(QQ, 0, rule=lambda m: table.get(m, Undefined(f"map({m})")))
    assert gm.apply(Element.from_monomial(QQ, mono(X), 3)) == Element.from_monomial(QQ, mono(Y), 3)
    assert isinstance(gm.apply(Element.from_generator(QQ, Y)), Undefined)
    assert isinstance(gm.value(mono(A)), Undefined)


def test_derivation_extension_leibniz():
    image = Element.from_generator(QQ, B)
    der = derivation_from_generator_values(QQ, {"a": image}, degree=3)
    # T(a^2) = 2 a T(a) for an even generator
    expected = Element.from_monomial(QQ, mono(A)) * image
    assert der.value(Monomial(((A, 2),))) == expected.scale(2)
    assert der.value(Monomial.unit()).is_zero


# -- property tests -----------------------------------------------------------

GENS = [Generator("x", 1), Generator("y", 1), Generator("a", 2), Generator("c", 3)]
FIELDS = [QQ, GF2, FieldSpec.prime(5)]


@st.composite
def elements(draw, field=None):
    f = field if field is not None else draw(st.sampled_from(FIELDS))
    n_terms = draw(st.integers(0, 3))
    out = Element.zero(f)
    for _ in range(n_terms):
        word = draw(st.lists(st.sampled_from(GENS), max_size=4))
        coeff = draw(st.integers(-3, 3))
        out = out + normalize_word(f, word, coeff)
    return out


@st.composite
def element_pairs(draw):
    f = draw(st.sampled_from(FIELDS))
    return draw(elements(field=f)), draw(elements(field=f))


@st.composite
def element_triples(draw):
    f = draw(st.sampled_from(FIELDS))
    return tuple(draw(elements(field=f)) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_product_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_product_graded_commutative_on_homogeneous_parts(pair):
    a, b = pair
    field = a.field
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            left = Element.from_monomial(field, ma, ca) * Element.from_monomial(field, mb, cb)
            right = Element.from_monomial(field, mb, cb) * Element.from_monomial(field, ma, ca)
            assert left == right.scale(field.sign(ma.degree * mb.degree))


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_addition_commutes_and_distributes(pair):
    a, b = pair
    assert a + b == b + a
    assert (a + b) * b == a * b + b * b


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(GENS), max_size=5), st.sampled_from(FIELDS))
def test_normalization_is_idempotent(word, field):
    first = normalize_word(field, word)
    for m, c in first.terms():
        again = normalize_word(field, m.word(), c)
        assert again == Element.from_monomial(field, m, c)


# -- the kernel against the reference in oracles.py ---------------------------

KERNEL_GENS = GENS + [Generator("b", 4), Generator("z", 1)]
COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 3]))
WORDS = st.lists(st.sampled_from(KERNEL_GENS), max_size=6)


def as_ref(element):
    """An Element as the reference's terms, read from its factors alone."""
    return [(tuple((g.id, g.degree) for g, k in m.factors for _ in range(k)),
             sum(g.degree * k for g, k in m.factors), sum(k for _, k in m.factors), c)
            for m, c in element.terms()]


@st.composite
def kernel_elements(draw, field):
    """An Element and the reference's dict for it, summed from random words."""
    element, ref = Element.zero(field), {}
    for _ in range(draw(st.integers(0, 3))):
        word, coeff = draw(WORDS), draw(COEFFS)
        element = element + normalize_word(field, word, coeff)
        ref = ref_add(ref, ref_normalize_word([(g.id, g.degree) for g in word], coeff,
                                              field.characteristic), field.characteristic)
    return element, ref


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    return (field, draw(kernel_elements(field)), draw(kernel_elements(field)),
            draw(COEFFS))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), WORDS, COEFFS)
def test_normalize_word_matches_reference(field, word, coeff):
    ref = ref_normalize_word([(g.id, g.degree) for g in word], coeff, field.characteristic)
    assert as_ref(normalize_word(field, word, coeff)) == ref_terms(ref)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_arithmetic_matches_reference(case):
    field, (a, ra), (b, rb), k = case
    p = field.characteristic
    assert as_ref(a) == ref_terms(ra)
    assert as_ref(a * b) == ref_terms(ref_mul(ra, rb, p))
    assert as_ref(a + b) == ref_terms(ref_add(ra, rb, p))
    assert as_ref(a - b) == ref_terms(ref_add(ra, ref_scale(rb, -1, p), p))
    assert as_ref(a.scale(k)) == ref_terms(ref_scale(ra, k, p))


# -- monomials: values stored at construction ---------------------------------

def recomputed(m):
    word = tuple(g for g, k in m.factors for _ in range(k))
    degree = sum(g.degree for g in word)
    key = (degree, len(word), tuple((g.degree, g.id, k) for g, k in m.factors))
    return degree, len(word), key, word


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(KERNEL_GENS), min_size=1, max_size=5))
def test_monomial_paths_agree_and_store_true_values(letters):
    word = sorted(letters, key=lambda g: g.sort_key)
    by_word = Monomial.from_sorted_word(word)
    by_init = Monomial(tuple((g, len(list(run))) for g, run in groupby(word)))
    basis = monomial_basis(GF2, KERNEL_GENS, by_word.degree)
    by_basis = basis[basis.index(by_word)]
    paths = [by_init, by_word, by_basis]
    table = {m: i for i, m in enumerate(paths)}
    assert len(table) == 1
    for m in paths:
        assert m == by_init and hash(m) == hash(by_init) and table[m] == 2
        assert (m.degree, m.wordlength, m.order_key(), m.word()) == recomputed(m)
    for m in basis:
        assert (m.degree, m.wordlength, m.order_key(), m.word()) == recomputed(m)


def test_monomials_differ_with_generator_degree():
    low, high = Monomial(((Generator("a", 3), 1),)), Monomial(((Generator("a", 4), 1),))
    assert low != high
    assert len({low: 0, high: 1}) == 2
    assert (low.degree, high.degree) == (3, 4)


def test_equal_factors_give_one_monomial_object():
    twins = [Monomial(((Generator("a", 3), 2), (Generator("b", 4), 1))) for _ in range(2)]
    assert twins[0] is twins[1]
    assert Monomial.from_sorted_word([Generator("a", 3)] * 2 + [Generator("b", 4)]) is twins[0]
    other = Monomial(((Generator("a", 3), 2), (Generator("b", 6), 1)))
    assert other is not twins[0] and other != twins[0]


def test_copied_and_unpickled_monomials_are_the_interned_object():
    m = Monomial(((Generator("a", 3), 2), (Generator("b", 4), 1)))
    assert copy.copy(m) is m and copy.deepcopy(m) is m
    assert pickle.loads(pickle.dumps(m)) is m
    assert copy.deepcopy({m: 1}) == {m: 1}


def test_intern_table_keeps_no_dropped_monomial_alive(fresh_memo):
    s = parse_presentation("field Q\nshift n=2\ngen weak_a : 2\ngen weak_b : 5\n"
                           "bracket [weak_a,weak_a] = weak_b\ntruncate 12\n").to_structure()
    assert verify_bv_axioms(s).passed
    kept = [weakref.ref(m) for m in s.basis() if not m.is_unit]
    del s
    algebra._products.clear()
    gc.collect()
    assert kept and all(ref() is None for ref in kept)
    assert not any(g_id.startswith("weak_") for key in list(algebra._interned.keys())
                   for _, g_id, _ in key)


# -- the product memo ------------------------------------------------------------

MEMO_FIELDS = [QQ, GF2, FieldSpec.prime(3), FieldSpec.prime(5)]
# an odd letter that two factors share: zero outside characteristic 2 only
MEMO_WORDS = st.lists(st.sampled_from([X, X, Y, A, B]), min_size=1, max_size=3)
MEMO_COEFFS = st.integers(-4, 4)  # integral, so defined over every MEMO_FIELDS entry


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty product memo, put back after the test.  The intern table is
    kept: a fresh one would make a second object for a live monomial."""
    monkeypatch.setattr(algebra, "_products", {})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(MEMO_WORDS, MEMO_WORDS, MEMO_COEFFS, MEMO_COEFFS), min_size=1,
                max_size=4),
       st.permutations(MEMO_FIELDS))
def test_memoized_products_match_reference_across_fields(pairs, fields):
    # the same monomial pairs over every field in one process, first field drawn:
    # a memo that ignored the characteristic would hand one field's product to another
    for field in fields:
        p = field.characteristic
        for w1, w2, c1, c2 in pairs:
            a, ra = normalize_word(field, w1, c1), ref_normalize_word(
                [(g.id, g.degree) for g in w1], c1, p)
            b, rb = normalize_word(field, w2, c2), ref_normalize_word(
                [(g.id, g.degree) for g in w2], c2, p)
            assert as_ref(a * b) == ref_terms(ref_mul(ra, rb, p)), (field, w1, w2)


def test_product_of_basis_monomials_is_the_basis_object(fresh_memo):
    gens = [Generator("p", 1), Generator("q", 2), Generator("r", 3)]
    for field in (QQ, GF2):
        basis = monomial_basis(field, gens, 8)
        stored = {m: m for m in basis}
        for m1 in basis:
            for m2 in basis:
                product = Element.from_monomial(field, m1) * Element.from_monomial(field, m2)
                for m in product.monomials():
                    if m.degree <= 8:
                        assert m is stored[m], (m1, m2)


class _Watched(dict):
    """A memo table that records the most entries it ever held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        _Watched.peak = max(_Watched.peak, len(self))


def test_memo_stays_bounded_over_many_structures(monkeypatch):
    def verdicts():
        drawn = seeded_structures(4, basis_budget=40, window=7)
        return [verify_bv_axioms(s).to_json() for _, s in zip(range(30), drawn)]

    monkeypatch.setattr(algebra, "_products", {})
    live = set(algebra._interned.keys())
    expected = verdicts()
    grown = len(algebra._products)
    algebra._products.clear()  # monkeypatch holds this memo until the test ends
    cap = 64
    monkeypatch.setattr(algebra, "MEMO_CAP", cap)
    monkeypatch.setattr(algebra, "_products", _Watched())
    _Watched.peak = 0
    assert verdicts() == expected  # starting over mid-run changes no verdict
    assert grown > 4 * cap  # the small cap was hit, several times over
    assert _Watched.peak == cap
    # the intern table holds no monomial alive: once the memo is empty, the
    # dropped structures leave no entry in it
    algebra._products.clear()
    gc.collect()
    assert set(algebra._interned.keys()) <= live
