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


@dataclass
class ChainComplex:
    """Grade-indexed exact boundary matrices with a fixed degree step."""

    field: FieldSpec
    grading: str
    step: int
    basis: Dict[int, List[Monomial]]
    boundaries: Dict[int, Matrix]

    def __post_init__(self) -> None:
        for g in sorted(self.basis):
            first = self.boundaries.get(g)
            second = self.boundaries.get(g + self.step)
            if first is None or second is None or not first or not second:
                continue
            composite_is_zero = all(
                self.field.is_zero(sum(
                    (self.field.mul(second[i][k], first[k][j])
                     for k in range(len(first))), self.field.zero()))
                for i in range(len(second)) for j in range(len(first[0])))
            if not composite_is_zero:
                raise ValueError(f"boundary composite nonzero out of grade {g}")

    def dimension(self, grade: int) -> int:
        return len(self.basis.get(grade, []))

    def grades(self) -> List[int]:
        return sorted(self.basis)


def _operator_matrix(field: FieldSpec, source: List[Monomial],
                     target: List[Monomial],
                     values: Dict[Monomial, Element]) -> Matrix:
    index = {m: i for i, m in enumerate(target)}
    matrix = [[field.zero()] * len(source) for _ in target]
    for col, mono in enumerate(source):
        for m, coeff in values[mono].terms():
            row = index.get(m)
            if row is None:
                raise ValueError(f"boundary of {mono} leaves the window at {m}")
            matrix[row][col] = coeff
    return matrix


def bv_chain_complex(structure: BVStructure, max_degree: Optional[int] = None,
                     grading: str = "total") -> ChainComplex:
    """The complex of the structure's operator over the window.

    Boundary terms that would leave the window at the top grade are zeroed
    (the operator itself is exact; the truncation is the complex's).
    """
    bound = structure.truncation if max_degree is None else max_degree
    field = structure.field
    step = structure.shift - 1
    degree_basis = basis_by_degree(field, structure.generators, bound)
    values: Dict[Monomial, Element] = {}
    for d in sorted(degree_basis):
        for mono in degree_basis[d]:
            value = structure.bv_monomial(mono)
            if isinstance(value, Undefined):
                raise ValueError(f"operator undefined on {mono}: no chain complex")
            values[mono] = value

    if grading == "total":
        basis = {d: ms for d, ms in degree_basis.items()}
        key = lambda m: m.degree
    elif grading == "wordlength":
        if structure.provenance == FREE and structure.presentation.has_differential:
            raise ValueError("wordlength grading needs a vanishing differential part")
        basis = {}
        for d in sorted(degree_basis):
            for mono in degree_basis[d]:
                basis.setdefault(mono.wordlength, []).append(mono)
        step = -1
        key = lambda m: m.wordlength
    else:
        raise ValueError(f"unknown grading {grading!r}")

    boundaries: Dict[int, Matrix] = {}
    for g in sorted(basis):
        source = basis[g]
        target = basis.get(g + step, [])
        clipped: Dict[Monomial, Element] = {}
        for mono in source:
            value = values[mono]
            kept = {m: c for m, c in value.terms() if key(m) == g + step and m in set(target)}
            dropped = [m for m, _ in value.terms() if key(m) != g + step or m not in set(target)]
            if dropped and (g + step) in basis:
                raise ValueError(f"boundary of {mono} not homogeneous for {grading} grading")
            clipped[mono] = Element(field, kept)
        boundaries[g] = _operator_matrix(field, source, target, clipped)
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
    top = max(grades)
    out = []
    for g in range(top + 1):
        dim = complex_.dimension(g)
        out_rank = rank(complex_.boundaries.get(g, []), complex_.field)
        in_rank = rank(complex_.boundaries.get(g - complex_.step, []), complex_.field)
        out.append(dim - out_rank - in_rank)
    return out


def euler_characteristic(complex_: ChainComplex) -> int:
    return sum((-1) ** g * complex_.dimension(g) for g in range(max(complex_.grades()) + 1))
