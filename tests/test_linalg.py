from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bvalg.fields import FieldSpec, QQ
from bvalg.linalg import nullspace, rank, rref

from oracles import fraction_rank

F5 = FieldSpec.prime(5)


def test_rank_rational_small():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(m, QQ) == 1
    m2 = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(3)]]
    assert rank(m2, QQ) == 2
    assert rank([], QQ) == 0
    assert rank([[]], QQ) == 0


def test_rank_mod_p():
    # 2x2 with determinant 5 = 0 mod 5 but nonzero over Q
    m = [[1, 2], [3, 11]]
    assert rank(m, QQ) == 2
    assert rank(m, F5) == 1


def test_nullspace_recovers_kernel():
    m = [[Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    basis = nullspace(m, QQ)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_rref_pivots_deterministic():
    m = [[0, 1], [1, 0], [1, 1]]
    _, pivots = rref(m, F5)
    assert pivots == [0, 1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.fractions(max_denominator=6), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rref_rank_matches_fraction_oracle(rows):
    assert rank(rows, QQ) == fraction_rank(rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.fractions(max_denominator=5), min_size=3, max_size=3),
                min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(rows, rng):
    base = rank(rows, QQ)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rank(shuffled, QQ) == base


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_nullspace_vectors_annihilate(rows):
    for field in (QQ, F5):
        for v in nullspace(rows, field):
            for row in rows:
                acc = field.zero()
                for a, b in zip(row, v):
                    acc = field.add(acc, field.mul(field.coerce(a), b))
                assert field.is_zero(acc)
