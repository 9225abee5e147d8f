"""Independent oracles for the test suite: tiny Fraction-only linear algebra
with no imports from the package under test."""

from fractions import Fraction


def fraction_rank(matrix):
    """Rank by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def betti_from_boundaries(dimensions, boundaries, step):
    """Betti numbers of a finite complex given per-grade boundary matrices.

    dimensions: dict grade -> chain dimension; boundaries: dict grade ->
    matrix of the map out of that grade (rows = target basis); step: grade
    shift of the boundary.
    """
    out = []
    top = max(dimensions)
    for g in range(top + 1):
        dim = dimensions.get(g, 0)
        rank_out = fraction_rank(boundaries.get(g, []))
        rank_in = fraction_rank(boundaries.get(g - step, []))
        out.append(dim - rank_out - rank_in)
    return out


def dense_product(a, b, modulus=None):
    """The matrix product a*b by the textbook triple loop over Fraction,
    each entry reduced mod `modulus` when one is given."""
    out = [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))),
                Fraction(0))
            for j in range(len(b[0]))] for i in range(len(a))]
    return out if modulus is None else [[x % modulus for x in row] for row in out]
