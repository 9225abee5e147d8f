"""Chevalley-Eilenberg complexes of shift-0 presentations, and exact Betti
numbers.

At shift 0 every generator is odd (a Lie algebra element, suspended), so
the complex is the exterior algebra on the generators in every
characteristic, F2 included.  A cell is a subset of the generators, held as
a bit mask over their `sort_key` order, and a grade lists its cells as
`Monomial.order_key` orders their monomials; only a failing d∘d check builds
monomials, for its certificate.  The boundary is the bracket contraction

    d(x_0 ... x_(k-1)) = sum over i < j of (-1)^(i+j) [x_i, x_j] x_0 ..^i ..^j .. x_(k-1),

with each letter of [x_i, x_j] moved to its place past the remaining
letters below it (one sign each) and dropped where it is one of them.  All
2^k cells of k generators are built, grades 0 to the sum of their degrees.
Each boundary is stored sparse, one column per source cell holding only its
nonzero coefficients, and is checked (d∘d = 0) and ranked over those
entries alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List

from .algebra import Element, Monomial
from .fields import FieldSpec, Scalar
from .lie import LiePresentation
from .linalg import SparseRow, rank

# the most generators ce-homology accepts: the whole complex has 2^k cells
MAX_CE_GENERATORS = 16


class BoundarySquareError(ValueError):
    """The boundary squares to nonzero: d(d(source)) = composite, with the
    source in the given grade."""

    def __init__(self, grade: int, source: Monomial, composite: Element):
        self.grade = grade
        self.source = source
        self.composite = composite
        super().__init__(f"boundary composite nonzero out of grade {grade}")


class ChainComplex:
    """Grade-indexed exact boundaries, each lowering the grade by one.

    basis[g] lists the cells of grade g (bit masks in the exterior complex,
    which builds monomials only for a failing d∘d check's certificate), and
    boundaries[g] one sparse column per cell: a dict from the index of a
    cell of basis[g - 1] to its nonzero coefficient."""

    def __init__(self, field: FieldSpec, basis: Dict[int, list],
                 boundaries: Dict[int, List[SparseRow]]):
        self.field = field
        self.basis = basis
        self.boundaries = boundaries
        self.__post_init__()  # a method of its own: perfbench times it as homology.complex_check

    def __post_init__(self) -> None:
        """Check d∘d = 0, composing the sparse columns."""
        field = self.field
        for g in sorted(self.basis):
            first = self.boundaries.get(g)
            second = self.boundaries.get(g - 1)
            if not first or not second:
                continue
            for j, column in enumerate(first):
                composite: Dict[int, Scalar] = {}
                for k, y in column.items():
                    for i, x in second[k].items():
                        composite[i] = field.add(composite.get(i, 0), field.mul(x, y))
                if any(composite.values()):
                    target = self.basis[g - 2]
                    raise BoundarySquareError(g, self.basis[g][j], Element(
                        field, {target[i]: c for i, c in composite.items()}))

    def dimension(self, grade: int) -> int:
        return len(self.basis.get(grade, []))

    def grades(self) -> List[int]:
        return sorted(self.basis)


def ce_top_grade(presentation: LiePresentation) -> int:
    """The top grade of a shift-0 presentation's complex: the sum of the
    generator degrees.  Raises ValueError, before any cell is enumerated, at
    another shift, at an even generator or past MAX_CE_GENERATORS generators.
    The differential, which the exterior complex does not read, is then
    zero: a value of degree |x| - 1 would need an even generator."""
    if presentation.shift != 0:
        raise ValueError(f"chain complex needs shift 0, got {presentation.shift}")
    for g in presentation.generators:
        if g.degree % 2 == 0:
            raise ValueError(
                f"ce-homology needs odd generators at shift 0: {g.id} has degree {g.degree}")
    if len(presentation.generators) > MAX_CE_GENERATORS:
        raise ValueError(f"ce-homology needs at most {MAX_CE_GENERATORS} generators "
                         f"(2^k cells), got {len(presentation.generators)}")
    return sum(g.degree for g in presentation.generators)


def build_ce_complex(presentation: LiePresentation) -> ChainComplex:
    """The exterior complex of a shift-0 presentation (boundary degree -1),
    every grade 0..`ce_top_grade`."""
    top = ce_top_grade(presentation)
    field = presentation.field
    gens = sorted(presentation.generators, key=lambda g: g.sort_key)
    position = {g: q for q, g in enumerate(gens)}
    # per nonzero bracket of positions a < b: its two bits, the bits below
    # each, and each bracket letter's bit with its coefficient and negative
    brackets = []
    for a, b in combinations(range(len(gens)), 2):
        value = presentation.pairs[gens[a], gens[b]]
        if not value.is_zero:
            brackets.append(((1 << a) | (1 << b), (1 << a) - 1, (1 << b) - 1,
                             [(1 << position[m.word()[0]], c, field.neg(c))
                              for m, c in value._terms.items()]))
    cells: Dict[int, List[int]] = {d: [] for d in range(top + 1)}
    for k in range(len(gens) + 1):
        for letters in combinations(range(len(gens)), k):
            cells[sum(gens[q].degree for q in letters)].append(sum(1 << q for q in letters))
    boundaries: Dict[int, List[SparseRow]] = {}
    for g, sources in cells.items():
        row_of = {cell: i for i, cell in enumerate(cells.get(g - 1, ()))}
        columns = []
        for cell in sources:
            column: SparseRow = {}
            for pair, below_a, below_b, terms in brackets:
                if cell & pair != pair:
                    continue
                rest = cell ^ pair
                sign = (cell & below_a).bit_count() + (cell & below_b).bit_count()
                for bit, c, neg_c in terms:
                    if rest & bit:
                        continue
                    row = row_of[rest | bit]  # a bracket value has degree |x|+|y|-1
                    x = neg_c if (sign + (rest & (bit - 1)).bit_count()) % 2 else c
                    total = field.add(column[row], x) if row in column else x
                    if not total:
                        del column[row]
                    else:
                        column[row] = total
            columns.append(column)
        boundaries[g] = columns
    try:
        return ChainComplex(field, cells, boundaries)
    except BoundarySquareError as exc:
        grade, source, composite = exc.grade, exc.source, exc.composite._terms

    def monomial(cell: int) -> Monomial:
        return Monomial(tuple((g, 1) for q, g in enumerate(gens) if cell >> q & 1))

    # raised outside the handler, so no error over cells is its context
    raise BoundarySquareError(grade, monomial(source), Element(
        field, {monomial(cell): c for cell, c in composite.items()}))


def betti(complex_: ChainComplex) -> List[int]:
    """dim ker(out of grade) - rank (into grade), for each grade 0..top; a
    boundary's columns are ranked as rows, since a transpose has the same rank."""
    ranks = {g: rank(columns, complex_.field) for g, columns in complex_.boundaries.items()}
    return [complex_.dimension(g) - ranks.get(g, 0) - ranks.get(g + 1, 0)
            for g in range(max(complex_.grades()) + 1)]
