"""Chain complexes from a structure's operator, and exact Betti numbers.

The complex is the structure's operator (generator values extended by the
Leibniz rule, plus the bracket contraction), graded by total degree; the
boundary out of the top grade of the window is zero, so the Euler
characteristic over the window always matches the alternating sum of the
chain dimensions.  Each boundary is stored sparse, one column per source
basis monomial holding only its nonzero coefficients, and is checked and
ranked over those entries alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .algebra import Element, Monomial, Undefined
from .fields import FieldSpec, Scalar
from .bv import BVStructure, free_bv_structure
from .lie import LiePresentation
from .linalg import SparseRow, rank


class BoundarySquareError(ValueError):
    """The boundary squares to nonzero: d(d(source)) = composite, with the
    source in the given grade."""

    def __init__(self, grade: int, source: Monomial, composite: Element):
        self.grade = grade
        self.source = source
        self.composite = composite
        super().__init__(f"boundary composite nonzero out of grade {grade}")


class ChainComplex:
    """Grade-indexed exact boundaries with a fixed degree step.

    boundaries[g] holds one sparse column per monomial of basis[g]: a dict
    from the index of a monomial of basis[g + step] to its nonzero
    coefficient."""

    def __init__(self, field: FieldSpec, step: int, basis: Dict[int, List[Monomial]],
                 boundaries: Dict[int, List[SparseRow]]):
        self.field = field
        self.step = step
        self.basis = basis
        self.boundaries = boundaries
        self.__post_init__()  # a method of its own: perfbench times it as homology.complex_check

    def __post_init__(self) -> None:
        """Check d∘d = 0, composing the sparse columns."""
        field = self.field
        for g in sorted(self.basis):
            first = self.boundaries.get(g)
            second = self.boundaries.get(g + self.step)
            if not first or not second:
                continue
            for j, column in enumerate(first):
                composite: Dict[int, Scalar] = {}
                for k, y in column.items():
                    for i, x in second[k].items():
                        composite[i] = field.add(composite.get(i, 0), field.mul(x, y))
                if any(not field.is_zero(c) for c in composite.values()):
                    target = self.basis[g + 2 * self.step]
                    raise BoundarySquareError(g, self.basis[g][j], Element(
                        field, {target[i]: c for i, c in composite.items()}))

    def dimension(self, grade: int) -> int:
        return len(self.basis.get(grade, []))

    def grades(self) -> List[int]:
        return sorted(self.basis)


def bv_chain_complex(structure: BVStructure) -> ChainComplex:
    """The complex of the structure's operator over its basis, by degree.

    Boundary terms that would leave the window at the top grade are zeroed
    (the operator itself is exact; the truncation is the complex's).
    """
    field, step = structure.field, structure.shift - 1
    basis: Dict[int, List[Monomial]] = {d: [] for d in range(structure.truncation + 1)}
    for mono in structure.basis():
        basis[mono.degree].append(mono)
    boundaries: Dict[int, List[SparseRow]] = {}
    for g in sorted(basis):
        row_of = {m: i for i, m in enumerate(basis.get(g + step, []))}
        columns = []
        for mono in basis[g]:
            value = structure.bv_monomial(mono)
            if isinstance(value, Undefined):
                raise ValueError(f"operator undefined on {mono}: no chain complex")
            column = {}
            for m, coeff in value._terms.items():
                row = row_of.get(m)
                if row is not None:
                    column[row] = coeff
                elif g + step in basis:
                    raise ValueError(f"boundary of {mono} not homogeneous in total degree")
            columns.append(column)
        boundaries[g] = columns
    return ChainComplex(field, step, basis, boundaries)


def ce_window(presentation: LiePresentation, max_degree: Optional[int] = None) -> int:
    """The window of a shift-0 presentation's complex: max_degree if given,
    else the sum of the generator degrees when all are odd away from
    characteristic 2 (a finite algebra).  Raises ValueError otherwise."""
    if presentation.shift != 0:
        raise ValueError(f"chain complex needs shift 0, got {presentation.shift}")
    if max_degree is not None:
        return max_degree
    if (presentation.field.characteristic != 2
            and all(g.degree % 2 == 1 for g in presentation.generators)):
        return sum(g.degree for g in presentation.generators)
    raise ValueError("the algebra is not finite: give --max-degree or a truncate line")


def build_ce_complex(presentation: LiePresentation,
                     max_degree: Optional[int] = None) -> ChainComplex:
    """Homological complex of a shift-0 presentation (operator degree -1)
    over the window `ce_window` gives."""
    return bv_chain_complex(free_bv_structure(presentation, ce_window(presentation, max_degree)))


def betti(complex_: ChainComplex) -> List[int]:
    """dim ker(out of grade) - rank (into grade), for each grade 0..top; a
    boundary's columns are ranked as rows, since a transpose has the same rank."""
    grades = complex_.grades()
    if not grades:
        return []
    ranks = {g: rank(columns, complex_.field) for g, columns in complex_.boundaries.items()}
    return [complex_.dimension(g) - ranks.get(g, 0) - ranks.get(g - complex_.step, 0)
            for g in range(max(grades) + 1)]
