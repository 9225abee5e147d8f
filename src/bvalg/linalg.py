"""Exact dense linear algebra over Q and F_p, at desk scale.

One Gauss-Jordan elimination with field inverses serves both fields: rank
and nullspace both read the reduced row echelon form.  Pivot choice is
deterministic (first nonzero in column order), so results are byte-stable
across runs.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import FieldSpec, Scalar

Matrix = List[List[Scalar]]


def rref(matrix: Matrix, field: FieldSpec) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [[field.coerce(x) for x in row] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if not field.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(x, inv) for x in m[r]]
        for i in range(n_rows):
            if i != r and not field.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(matrix: Matrix, field: FieldSpec) -> int:
    return len(rref(matrix, field)[1])


def nullspace(matrix: Matrix, field: FieldSpec) -> List[List[Scalar]]:
    """Basis of the right nullspace, one vector per free column."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    reduced, pivots = rref(matrix, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [field.zero()] * n_cols
        vec[free] = field.one()
        for row_idx, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[row_idx][free])
        basis.append(vec)
    return basis
