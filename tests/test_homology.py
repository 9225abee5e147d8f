import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvalg.algebra import Element, Generator, Monomial
from bvalg.fields import GF2, QQ, FieldSpec
from bvalg.lie import LiePresentation
from bvalg.bv import free_bv_structure
from bvalg.fixtures import abelian_ungraded, heisenberg, loopspace_model
from bvalg.homology import (BoundarySquareError, ChainComplex, betti, build_ce_complex,
                            bv_chain_complex, euler_characteristic)
from bvalg.linalg import rank

from oracles import betti_from_boundaries, dense_product, fraction_rank

DATA = os.path.join(os.path.dirname(__file__), "data")
F5 = FieldSpec.prime(5)


def load_heisenberg_oracle():
    with open(os.path.join(DATA, "heisenberg_boundaries.json")) as fh:
        doc = json.load(fh)
    dimensions = {int(k): v for k, v in doc["dimensions"].items()}
    boundaries = {int(k): [[Fraction(x) for x in row] for row in rows]
                  for k, rows in doc["boundaries"].items()}
    expected = [int(b) for b in doc["expected_betti"]]
    return dimensions, boundaries, doc["step"], expected


def test_hand_built_oracle_gives_1221():
    dimensions, boundaries, step, expected = load_heisenberg_oracle()
    assert betti_from_boundaries(dimensions, boundaries, step) == expected == [1, 2, 2, 1]


def test_heisenberg_matches_the_oracle():
    complex_ = build_ce_complex(heisenberg())
    dims, _, _, expected = load_heisenberg_oracle()
    assert {g: complex_.dimension(g) for g in complex_.grades()} == dims
    assert betti(complex_) == expected


def test_abelian_betti_are_binomials():
    for k in range(1, 6):
        complex_ = build_ce_complex(abelian_ungraded(k))
        assert betti(complex_) == [math.comb(k, i) for i in range(k + 1)]


def test_single_generator_with_forced_zero_bracket():
    p = LiePresentation(QQ, 0, [Generator("x", 1)])
    complex_ = build_ce_complex(p)
    assert sum(complex_.dimension(g) for g in complex_.grades()) == 2
    assert all(all(all(x == 0 for x in row) for row in m)
               for m in complex_.boundaries.values())


def test_ce_rejects_wrong_shift():
    p = LiePresentation(QQ, 2, [Generator("a", 2)])
    with pytest.raises(ValueError):
        build_ce_complex(p, 4)


def test_ce_window_required_when_not_finite():
    # over F2 degree-1 generators are polynomial, so the algebra is infinite
    p = LiePresentation(GF2, 0, [Generator("x", 1)])
    with pytest.raises(ValueError):
        build_ce_complex(p)
    # abelian with zero differential: homology is the polynomial algebra itself
    assert betti(build_ce_complex(p, 3)) == [1, 1, 1, 1]


def test_loopspace_complex_betti_frozen():
    # (free algebra on a:2, b:5; operator a^k -> C(k,2) a^(k-2) b): the
    # homology is spanned by 1 and a
    structure = loopspace_model(2, 4, max_degree=9)
    complex_ = bv_chain_complex(structure, 9)
    values = betti(complex_)
    assert values[0] == 1
    assert values == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    # independent rank oracle over the same boundary matrices
    dims = {g: complex_.dimension(g) for g in complex_.grades()}
    oracle = betti_from_boundaries(dims, complex_.boundaries, complex_.step)
    assert oracle == values


def test_engine_rank_matches_oracle_on_boundaries():
    complex_ = build_ce_complex(heisenberg())
    for matrix in complex_.boundaries.values():
        assert rank(matrix, QQ) == fraction_rank(matrix)


def test_boundary_composite_checked_on_construction():
    field = QQ
    g = Generator("e", 1)
    basis = {0: [Monomial.unit()], 1: [Monomial(((g, 1),))]}
    bad = {1: [[Fraction(1)]], 0: []}
    with pytest.raises(ValueError):
        # a "boundary" whose composite with itself cannot vanish: rig a
        # 1x1 identity in both directions
        ChainComplex(field, "total", -1, {0: basis[0], 1: basis[1], 2: basis[1]},
                     {2: [[Fraction(1)]], 1: [[Fraction(1)]], 0: []})


@st.composite
def boundary_pair(draw, field):
    """(first, second), of shapes n1 x n2 and n0 x n1 with small sparse
    entries.  Half the time second = S [M | -I] and first = [F; M F], so
    that their composite vanishes by cancellation; then one entry of either
    may be bumped, which usually makes the composite nonzero."""
    entries = ([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
               if field.kind == "rational" else [0, 0, 0, 1, 2, 3, 4])
    scalar = st.sampled_from(entries)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    n0, na, nb, n2 = (draw(st.integers(1, 3)) for _ in range(4))
    if draw(st.booleans()):
        f, m, s = matrix(na, n2), matrix(nb, na), matrix(n0, nb)
        first = f + dense_product(m, f)
        second = [sm + [-x for x in srow] for sm, srow in zip(dense_product(s, m), s)]
    else:
        first, second = matrix(na + nb, n2), matrix(n0, na + nb)
    if draw(st.booleans()):
        target = draw(st.sampled_from([first, second]))
        row = draw(st.sampled_from(target))
        col = draw(st.integers(0, len(row) - 1))
        row[col] += draw(st.sampled_from(entries[3:]))
    return tuple([[field.coerce(x) for x in row] for row in m] for m in (first, second))


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_square_check_matches_dense_oracle(field, data):
    first, second = data.draw(boundary_pair(field))
    basis = {g: [Monomial(((Generator(f"e{g}_{i}", 1), 1),)) for i in range(n)]
             for g, n in ((0, len(second)), (1, len(first)), (2, len(first[0])))}
    composite = dense_product(second, first, field.characteristic or None)
    nonzero = [j for j in range(len(first[0])) if any(row[j] != 0 for row in composite)]
    boundaries = {2: first, 1: second, 0: []}
    if not nonzero:
        ChainComplex(field, "total", -1, basis, boundaries)
        return
    with pytest.raises(BoundarySquareError) as exc:
        ChainComplex(field, "total", -1, basis, boundaries)
    assert (exc.value.grade, exc.value.source) == (2, basis[2][nonzero[0]])
    assert exc.value.composite == Element(field, {
        basis[0][i]: row[nonzero[0]] for i, row in enumerate(composite)})


def test_euler_characteristic_matches_alternating_betti_sum():
    for complex_ in (build_ce_complex(heisenberg()),
                     bv_chain_complex(loopspace_model(2, 4, max_degree=8), 8)):
        values = betti(complex_)
        assert sum((-1) ** g * b for g, b in enumerate(values)) \
            == euler_characteristic(complex_)


def test_betti_independent_of_pivot_order():
    complex_ = build_ce_complex(heisenberg())
    expected = betti(complex_)
    rng = random.Random(3)
    for _ in range(5):
        permuted = {}
        for g, matrix in complex_.boundaries.items():
            rows = [row[:] for row in matrix]
            rng.shuffle(rows)
            cols = list(range(len(rows[0]))) if rows and rows[0] else []
            rng.shuffle(cols)
            permuted[g] = [[row[c] for c in cols] for row in rows] if cols else rows
        dims = {g: complex_.dimension(g) for g in complex_.grades()}
        assert betti_from_boundaries(dims, permuted, complex_.step) == expected
        for g in permuted:
            assert rank(permuted[g], QQ) == rank(complex_.boundaries[g], QQ)


def test_wordlength_grading_for_pure_contraction():
    structure = loopspace_model(2, 4, max_degree=9)
    complex_ = bv_chain_complex(structure, 9, grading="wordlength")
    assert complex_.step == -1
    assert betti(complex_)[0] == 1
    # heisenberg: all generators in degree 1, so the gradings agree
    h_total = build_ce_complex(heisenberg())
    h_word = bv_chain_complex(free_bv_structure(heisenberg(), 3), 3,
                              grading="wordlength")
    assert betti(h_total) == betti(h_word)


def test_wordlength_grading_rejects_nonzero_differential():
    f = QQ
    gx, gy = Generator("x", 3), Generator("y", 2)
    p = LiePresentation(f, 2, [gx, gy],
                        differential={"x": Element.from_generator(f, gy)})
    with pytest.raises(ValueError):
        bv_chain_complex(free_bv_structure(p, 6), 6, grading="wordlength")
