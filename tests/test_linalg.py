from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bvalg.fields import FieldSpec, QQ
from bvalg.linalg import nullspace, rank, rref

from oracles import densify, fraction_rank, modp_rank

F5 = FieldSpec.prime(5)
FIELDS = [QQ] + [FieldSpec.prime(p) for p in (2, 3, 5, 7)]


def sparse(matrix, field):
    """Dense rows as sparse rows of canonical nonzero scalars."""
    out = []
    for row in matrix:
        entries = {c: field.coerce(x) for c, x in enumerate(row)}
        out.append({c: x for c, x in entries.items() if x})
    return out


def test_rank_rational_small():
    m = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert rank(m, QQ) == 1
    m2 = [{0: Fraction(1, 2), 1: Fraction(1)}, {1: Fraction(3)}]
    assert rank(m2, QQ) == 2
    assert rank([], QQ) == 0
    assert rank([{}], QQ) == 0


def test_rank_mod_p():
    # 2x2 with determinant 5 = 0 mod 5 but nonzero over Q
    m = [[1, 2], [3, 11]]
    assert rank(sparse(m, QQ), QQ) == 2
    assert rank(sparse(m, F5), F5) == 1


def test_nullspace_recovers_kernel():
    m = [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]
    basis = nullspace(m, 3, QQ)
    assert basis == [{1: Fraction(1), 0: Fraction(-1)}]
    assert nullspace([], 2, QQ) == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_rref_pivots_deterministic():
    m = [{1: 1}, {0: 1}, {0: 1, 1: 1}]
    reduced, pivots = rref(m, F5)
    assert pivots == [0, 1]
    assert reduced == [{0: 1}, {1: 1}]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.fractions(max_denominator=6), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rref_rank_matches_fraction_oracle(rows):
    assert rank(sparse(rows, QQ), QQ) == fraction_rank(rows)


@st.composite
def sparse_rows(draw, field):
    """(n_cols, rows): sparse rows of canonical nonzero scalars, with copies
    of earlier rows and combinations of them mixed in, so that some rows
    reduce to zero during elimination."""
    p = field.characteristic
    nonzero = (st.fractions(max_denominator=4).filter(bool) if p == 0
               else st.integers(1, p - 1))
    n_cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n_cols - 1), nonzero, max_size=n_cols),
                         max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        picked = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=3))
        combination = {}
        for i in picked:
            scale = draw(nonzero)
            for c, x in rows[i].items():
                combination[c] = combination.get(c, 0) + scale * x
        combination = {c: x % p if p else x for c, x in combination.items()}
        rows.insert(draw(st.integers(0, len(rows))),
                    {c: x for c, x in combination.items() if x})
    return n_cols, rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_matches_oracle_over_every_field(data):
    for field in FIELDS:
        n_cols, rows = data.draw(sparse_rows(field), label=str(field))
        # densify reads the rows as columns: the oracle ranks the transpose
        dense = densify(rows, n_cols)
        p = field.characteristic
        assert rank(rows, field) == (modp_rank(dense, p) if p else fraction_rank(dense))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_rref_is_sparse_and_independent_of_row_order(data, rng):
    for field in FIELDS:
        _, rows = data.draw(sparse_rows(field), label=str(field))
        reduced, pivots = rref(rows, field)
        assert all(x != 0 for row in reduced for x in row.values())
        assert [min(row) for row in reduced] == pivots == sorted(pivots)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rref(shuffled, field) == (reduced, pivots)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.fractions(max_denominator=5), min_size=3, max_size=3),
                min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(rows, rng):
    base = rank(sparse(rows, QQ), QQ)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rank(sparse(shuffled, QQ), QQ) == base


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_nullspace_vectors_annihilate(rows):
    for field in (QQ, F5):
        basis = nullspace(sparse(rows, field), 4, field)
        assert len(basis) == 4 - rank(sparse(rows, field), field)
        for v in basis:
            for row in rows:
                acc = field.zero()
                for c, b in v.items():
                    acc = field.add(acc, field.mul(field.coerce(row[c]), b))
                assert acc == 0
