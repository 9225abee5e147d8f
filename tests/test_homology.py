import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bvalg.algebra import Element, Generator, Monomial
from bvalg.cli import main
from bvalg.fields import GF2, QQ, FieldSpec
from bvalg.lie import LiePresentation
from bvalg.fixtures import abelian_ungraded, heisenberg, loopspace_model
from bvalg.homology import BoundarySquareError, ChainComplex, betti, build_ce_complex
from bvalg.linalg import rank

from oracles import (betti_from_boundaries, bv_chain_complex, dense_product, densify,
                     exterior_ce_complex, fraction_rank, monomial_ce_complex)

DATA = os.path.join(os.path.dirname(__file__), "data")
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)


def dense_boundaries(complex_):
    """Each boundary of the complex as a dense matrix, rows = target basis."""
    return {g: densify(columns, complex_.dimension(g - 1))
            for g, columns in complex_.boundaries.items()}


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
               for m in dense_boundaries(complex_).values())


def test_ce_rejects_wrong_shift():
    p = LiePresentation(QQ, 2, [Generator("a", 2)])
    with pytest.raises(ValueError):
        build_ce_complex(p)


def test_ce_needs_no_window_over_f2():
    # the complex is exterior in every characteristic: over F2 one degree-1
    # generator spans 1 and x, and needs no window
    p = LiePresentation(GF2, 0, [Generator("x", 1)])
    assert betti(build_ce_complex(p)) == [1, 1]


def test_ce_refuses_even_generator_and_differential():
    even = LiePresentation(QQ, 0, [Generator("a", 1), Generator("c", 2)])
    with pytest.raises(ValueError, match="^ce-homology needs odd generators at shift 0: "
                                         "c has degree 2$"):
        build_ce_complex(even)
    # a nonzero differential on odd generators is ill-graded, so none reaches the complex
    x, y = Generator("x", 1), Generator("y", 1)
    with pytest.raises(ValueError, match=r"^differential of x: degree 0 expected, got 1$"):
        LiePresentation(QQ, 0, [x, y], differential={"x": Element.from_generator(QQ, y)})


def test_loopspace_complex_betti_frozen():
    # (free algebra on a:2, b:5; operator a^k -> C(k,2) a^(k-2) b): the
    # homology is spanned by 1 and a; grade g holds degree 9 - g
    structure = loopspace_model(2, 4, max_degree=9)
    complex_ = bv_chain_complex(structure)
    values = betti(complex_)
    assert values[::-1] == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    # independent rank oracle over the same boundary matrices
    dims = {g: complex_.dimension(g) for g in complex_.grades()}
    oracle = betti_from_boundaries(dims, dense_boundaries(complex_), -1)
    assert oracle == values


def test_engine_rank_matches_oracle_on_boundaries():
    complex_ = build_ce_complex(heisenberg())
    dense = dense_boundaries(complex_)
    for g, columns in complex_.boundaries.items():
        assert rank(columns, QQ) == fraction_rank(dense[g])


def heisenberg7(field):
    """h_7 at shift 0: [x_i, y_i] = 3z for i = 1, 2, 3."""
    z = Generator("z", 1)
    gens = [Generator(f"{s}{i}", 1) for i in (1, 2, 3) for s in "xy"] + [z]
    return LiePresentation(field, 0, gens, {
        (f"x{i}", f"y{i}"): Element(field, {Monomial(((z, 1),)): 3}) for i in (1, 2, 3)})


@pytest.mark.parametrize("presentation, expected", [
    (heisenberg(GF2), [1, 2, 2, 1]),
    (heisenberg7(GF2), [1, 6, 14, 15, 15, 14, 6, 1]),  # Skoldberg 2005
    (heisenberg7(QQ), [1, 6, 14, 14, 14, 14, 6, 1]),
], ids=["h3-F2", "h7-F2", "h7-Q"])
def test_heisenberg_known_answers(presentation, expected):
    # no window: the exterior complex is finite in every characteristic
    assert betti(build_ce_complex(presentation)) == expected
    p = presentation.field.characteristic
    generators = [(g.id, g.degree) for g in presentation.generators]
    brackets = {key: {m.word()[0].id: c for m, c in value.terms()}
                for key, value in presentation.brackets.items()}
    assert betti_from_boundaries(*exterior_ce_complex(generators, brackets, p), -1, p) == expected


def test_nonabelian_dimension_two_known_answer(capsys, tmp_path):
    # [x,y] = x: x = d(x*y) bounds, so H_1 = 1 and H_2 = 0; the file's
    # truncate line does not cut the complex, whose top grade is 2
    path = tmp_path / "affine.lie"
    path.write_text("field Q\nshift n=0\ngen x : 1\ngen y : 1\nbracket [x,y] = x\ntruncate 1\n")
    assert main(["ce-homology", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == ["1", "1", "0"]
    assert betti_from_boundaries(*exterior_ce_complex(
        [("x", 1), ("y", 1)], {("x", "y"): {"x": 1}}, 0), -1) == [1, 1, 0]


@st.composite
def odd_lie_algebra(draw):
    """(generators, brackets, p, nilpotent): up to six odd generators
    of degree 1 or 3, declared in shuffled order (not their (degree, id)
    order), and a table of degree -1 with small coefficients.  Half the time
    the table is two-step nilpotent (the generators after a drawn cut are
    central and take every bracket, so Jacobi holds); otherwise any pair may
    take any value, and Jacobi may fail."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(["a", "b", "c", "d", "e", "f"]))[:n]
    generators = [(x, draw(st.sampled_from([1, 1, 1, 3]))) for x in ids]
    degree = dict(generators)
    central = set(ids[draw(st.integers(2, max(2, n - 1))):]) if draw(st.booleans()) else None
    coefficients = [1, -1, 2, 3] + ([Fraction(1, 2)] if p == 0 else [])
    brackets = {}
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            if central is not None and (x in central or y in central):
                continue
            span = [z for z in ids if degree[z] == degree[x] + degree[y] - 1
                    and (central is None or z in central)]
            value = {z: draw(st.sampled_from(coefficients))
                     for z in span if draw(st.booleans())}
            if value:
                brackets[x, y] = value
    return generators, brackets, p, central is not None


def drawn_presentation(generators, brackets, p):
    """The shift-0 presentation of an `odd_lie_algebra` draw."""
    field = FieldSpec.prime(p) if p else QQ
    gens = {x: Generator(x, d) for x, d in generators}
    return LiePresentation(field, 0, list(gens.values()), {
        key: Element(field, {Monomial(((gens[z], 1),)): c for z, c in value.items()})
        for key, value in brackets.items()})


@settings(max_examples=200, deadline=None)
@given(draw=odd_lie_algebra())
def test_exterior_complex_matches_oracle(draw):
    generators, brackets, p, nilpotent = draw
    presentation = drawn_presentation(generators, brackets, p)
    dimensions, boundaries = exterior_ce_complex(generators, brackets, p)
    squares = [dense_product(boundaries[g - 1], boundaries[g], p or None)
               for g in boundaries
               if dimensions[g] and dimensions.get(g - 1) and dimensions.get(g - 2)]
    if any(x != 0 for square in squares for row in square for x in row):
        assert not nilpotent
        with pytest.raises(BoundarySquareError):
            build_ce_complex(presentation)
        return
    complex_ = build_ce_complex(presentation)
    assert {g: complex_.dimension(g) for g in complex_.grades()} == dimensions
    assert betti(complex_) == betti_from_boundaries(dimensions, boundaries, -1, p)


@settings(max_examples=200, deadline=None)
@given(draw=odd_lie_algebra())
def test_cells_are_the_monomial_basis_in_order(draw):
    # each grade lists bit masks over the generators in sort_key order, read
    # back as exactly that grade's generator subsets in Monomial.order_key
    # order; a d∘d failure names the same monomials as the monomial basis
    presentation = drawn_presentation(*draw[:3])
    gens = sorted(presentation.generators, key=lambda g: g.sort_key)
    try:
        reference = monomial_ce_complex(presentation)
    except BoundarySquareError as exc:
        reference = exc
    if isinstance(reference, BoundarySquareError):
        with pytest.raises(BoundarySquareError) as exc:
            build_ce_complex(presentation)
        assert (exc.value.grade, exc.value.source, exc.value.composite) \
            == (reference.grade, reference.source, reference.composite)
        assert exc.value.__context__ is None  # no error over bit-mask cells escapes
        return
    complex_ = build_ce_complex(presentation)
    subsets = [Monomial(tuple((g, 1) for g in letters))
               for k in range(len(gens) + 1) for letters in combinations(gens, k)]
    assert complex_.grades() == reference.grades()
    for g in complex_.grades():
        read_back = [Monomial(tuple((x, 1) for q, x in enumerate(gens) if cell >> q & 1))
                     for cell in complex_.basis[g]]
        assert read_back == sorted((m for m in subsets if m.degree == g),
                                   key=Monomial.order_key) == reference.basis[g]
    assert complex_.boundaries == reference.boundaries


@pytest.mark.parametrize("presentation", [heisenberg(), heisenberg7(QQ), heisenberg7(F7)],
                         ids=["h3-Q", "h7-Q", "h7-F7"])
def test_boundary_columns_store_no_zero(presentation):
    complex_ = build_ce_complex(presentation)
    field = complex_.field
    for g, columns in complex_.boundaries.items():
        assert len(columns) == complex_.dimension(g)
        for column in columns:
            assert all(x != 0 and field.coerce(x) == x for x in column.values())
            assert all(0 <= i < complex_.dimension(g - 1) for i in column)


def test_boundary_composite_checked_on_construction():
    field = QQ
    g = Generator("e", 1)
    basis = {0: [Monomial.unit()], 1: [Monomial(((g, 1),))]}
    with pytest.raises(ValueError):
        # a "boundary" whose composite with itself cannot vanish: rig a
        # 1x1 identity in both directions
        ChainComplex(field, {0: basis[0], 1: basis[1], 2: basis[1]},
                     {2: [{0: Fraction(1)}], 1: [{0: Fraction(1)}], 0: [{}]})


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
    columns = [[{i: row[j] for i, row in enumerate(m) if row[j] != 0} for j in range(len(m[0]))]
               for m in (first, second)]
    boundaries = {2: columns[0], 1: columns[1], 0: [{} for _ in second]}
    if not nonzero:
        ChainComplex(field, basis, boundaries)
        return
    with pytest.raises(BoundarySquareError) as exc:
        ChainComplex(field, basis, boundaries)
    assert (exc.value.grade, exc.value.source) == (2, basis[2][nonzero[0]])
    assert exc.value.composite == Element(field, {
        basis[0][i]: row[nonzero[0]] for i, row in enumerate(composite)})


def test_euler_characteristic_matches_alternating_betti_sum():
    for complex_ in (build_ce_complex(heisenberg()),
                     bv_chain_complex(loopspace_model(2, 4, max_degree=8))):
        values = betti(complex_)
        assert sum((-1) ** g * b for g, b in enumerate(values)) \
            == sum((-1) ** g * complex_.dimension(g) for g in range(len(values)))


def test_betti_independent_of_pivot_order():
    complex_ = build_ce_complex(heisenberg())
    expected = betti(complex_)
    dense = dense_boundaries(complex_)
    rng = random.Random(3)
    for _ in range(5):
        permuted = {}
        for g, matrix in dense.items():
            rows = [row[:] for row in matrix]
            rng.shuffle(rows)
            cols = list(range(len(rows[0]))) if rows and rows[0] else []
            rng.shuffle(cols)
            permuted[g] = [[row[c] for c in cols] for row in rows] if cols else rows
        dims = {g: complex_.dimension(g) for g in complex_.grades()}
        assert betti_from_boundaries(dims, permuted, -1) == expected
        for g, matrix in permuted.items():
            rows = [{c: x for c, x in enumerate(row) if x != 0} for row in matrix]
            assert rank(rows, QQ) == rank(complex_.boundaries[g], QQ)

