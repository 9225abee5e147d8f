"""Chain complexes from a structure's operator, and exact Betti numbers.

The complex is graded by total degree (or by wordlength when the operator
lowers wordlength by one, i.e. when the differential part vanishes); the
boundary out of the top grade of the window is zero, so the Euler
characteristic over the window always matches the alternating sum of the
chain dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .algebra import Element, Monomial, Undefined, basis_by_degree
from .fields import FieldSpec, Scalar
from .bv import BVStructure, FREE, free_bv_structure
from .lie import LiePresentation
from .linalg import rank

Matrix = List[List[Scalar]]


class BoundarySquareError(ValueError):
    """The boundary squares to nonzero: d(d(source)) = composite, with the
    source in the given grade."""

    def __init__(self, grade: int, source: Monomial, composite: Element):
        self.grade = grade
        self.source = source
        self.composite = composite
        super().__init__(f"boundary composite nonzero out of grade {grade}")


@dataclass
class ChainComplex:
    """Grade-indexed exact boundary matrices with a fixed degree step."""

    field: FieldSpec
    grading: str
    step: int
    basis: Dict[int, List[Monomial]]
    boundaries: Dict[int, Matrix]

    def __post_init__(self) -> None:
        """Check d∘d = 0, multiplying over the nonzero entries only."""
        field = self.field
        for g in sorted(self.basis):
            first = self.boundaries.get(g)
            second = self.boundaries.get(g + self.step)
            if not first or not second:
                continue
            second_columns = [[(i, row[k]) for i, row in enumerate(second)
                               if not field.is_zero(row[k])]
                              for k in range(len(second[0]))]
            for j, source in enumerate(self.basis[g]):
                composite: Dict[int, Scalar] = {}
                for k, row in enumerate(first):
                    if field.is_zero(row[j]):
                        continue
                    for i, y in second_columns[k]:
                        composite[i] = field.add(composite.get(i, field.zero()),
                                                 field.mul(y, row[j]))
                if any(not field.is_zero(c) for c in composite.values()):
                    target = self.basis[g + 2 * self.step]
                    raise BoundarySquareError(g, source, Element(
                        field, {target[i]: c for i, c in composite.items()}))

    def dimension(self, grade: int) -> int:
        return len(self.basis.get(grade, []))

    def grades(self) -> List[int]:
        return sorted(self.basis)


def bv_chain_complex(structure: BVStructure, max_degree: Optional[int] = None,
                     grading: str = "total") -> ChainComplex:
    """The complex of the structure's operator over the window.

    Boundary terms that would leave the window at the top grade are zeroed
    (the operator itself is exact; the truncation is the complex's).
    """
    bound = structure.truncation if max_degree is None else max_degree
    field = structure.field
    degree_basis = basis_by_degree(field, structure.generators, bound)
    if grading == "total":
        basis, step = degree_basis, structure.shift - 1
    elif grading == "wordlength":
        if structure.provenance == FREE and structure.presentation.has_differential:
            raise ValueError("wordlength grading needs a vanishing differential part")
        basis, step = {}, -1
        for d in sorted(degree_basis):
            for mono in degree_basis[d]:
                basis.setdefault(mono.wordlength, []).append(mono)
    else:
        raise ValueError(f"unknown grading {grading!r}")

    boundaries: Dict[int, Matrix] = {}
    for g in sorted(basis):
        target = basis.get(g + step, [])
        row_of = {m: i for i, m in enumerate(target)}
        matrix = [[field.zero()] * len(basis[g]) for _ in target]
        for col, mono in enumerate(basis[g]):
            value = structure.bv_monomial(mono)
            if isinstance(value, Undefined):
                raise ValueError(f"operator undefined on {mono}: no chain complex")
            for m, coeff in value.terms():
                row = row_of.get(m)
                if row is not None:
                    matrix[row][col] = coeff
                elif g + step in basis:
                    raise ValueError(
                        f"boundary of {mono} not homogeneous for {grading} grading")
        boundaries[g] = matrix
    return ChainComplex(field, grading, step, basis, boundaries)


def build_ce_complex(presentation: LiePresentation,
                     max_degree: Optional[int] = None) -> ChainComplex:
    """Homological complex of a shift-0 presentation (operator degree -1).

    For a presentation whose generators are all odd over characteristic
    other than 2 the algebra is finite and the window defaults to the sum
    of the generator degrees.
    """
    if presentation.shift != 0:
        raise ValueError(f"chain complex needs shift 0, got {presentation.shift}")
    if max_degree is None:
        if (presentation.field.characteristic != 2
                and all(g.degree % 2 == 1 for g in presentation.generators)):
            max_degree = sum(g.degree for g in presentation.generators)
        else:
            raise ValueError("max_degree required: the algebra is not finite")
    structure = free_bv_structure(presentation, max_degree)
    return bv_chain_complex(structure, max_degree, grading="total")


def betti(complex_: ChainComplex) -> List[int]:
    """dim ker(out of grade) - rank (into grade), for each grade 0..top."""
    grades = complex_.grades()
    if not grades:
        return []
    ranks = {g: rank(matrix, complex_.field) for g, matrix in complex_.boundaries.items()}
    return [complex_.dimension(g) - ranks.get(g, 0) - ranks.get(g - complex_.step, 0)
            for g in range(max(grades) + 1)]


def euler_characteristic(complex_: ChainComplex) -> int:
    return sum((-1) ** g * complex_.dimension(g) for g in range(max(complex_.grades()) + 1))
