"""Exact sparse linear algebra over Q and F_p, at desk scale.

A matrix is a list of sparse rows: dicts from column index to entry, each
entry a nonzero canonical scalar of the field (as an `Element` stores its
coefficients), and no zero is ever stored.  One Gauss-Jordan elimination
with field inverses serves both fields: rank and nullspace both read the
reduced row echelon form.  That form is unique, so its rows and its pivot
columns (in column order) do not depend on the order of the input rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .fields import FieldSpec, Scalar

SparseRow = Dict[int, Scalar]


def rref(rows: List[SparseRow], field: FieldSpec) -> Tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form, as its nonzero rows in pivot order, and the
    pivot column indices, ascending.

    Each row in turn is reduced by the pivot rows found so far; a remainder
    takes its first column as a new pivot, is scaled to 1 there, and that
    column is cleared from the earlier pivot rows."""
    reduced: Dict[int, SparseRow] = {}  # pivot column -> its row, 1 at the pivot
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in reduced]:
            _add_multiple(row, field.neg(row[c]), reduced[c], field)
        if not row:
            continue
        c = min(row)
        inv = field.inv(row[c])
        row = {k: field.mul(x, inv) for k, x in row.items()}
        for other in reduced.values():
            if c in other:
                _add_multiple(other, field.neg(other[c]), row, field)
        reduced[c] = row
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], pivots


def _add_multiple(row: SparseRow, factor: Scalar, pivot_row: SparseRow,
                  field: FieldSpec) -> None:
    """row += factor * pivot_row in place, dropping the entries that cancel."""
    for k, y in pivot_row.items():
        x = field.add(row.get(k, 0), field.mul(factor, y))
        if field.is_zero(x):
            del row[k]
        else:
            row[k] = x


def rank(rows: List[SparseRow], field: FieldSpec) -> int:
    return len(rref(rows, field)[1])


def nullspace(rows: List[SparseRow], n_cols: int, field: FieldSpec) -> List[SparseRow]:
    """Basis of the right nullspace of rows over n_cols columns, one sparse
    vector per free column, ascending."""
    reduced, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = {free: field.one()}
        for row, pc in zip(reduced, pivots):
            if free in row:
                vec[pc] = field.neg(row[free])
        basis.append(vec)
    return basis
