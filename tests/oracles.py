"""Independent oracles for the test suite, with no imports from the package
under test: tiny dense linear algebra over Fraction and over residues mod p,
the exterior Chevalley-Eilenberg complex from generator subsets, and a
term-by-term reference for the free graded-commutative algebra.  Three
functions import the package: `ref_identity_reports` runs the BV identities
with both sides built, `bv_chain_complex` builds the complex of a BV
structure's operator, and `monomial_ce_complex` the exterior complex over a
basis of monomials."""

from fractions import Fraction
from itertools import combinations


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


def modp_rank(matrix, p):
    """Rank over F_p by plain Gaussian elimination on residues; Fraction
    entries are read as numerator / denominator mod p."""
    m = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in row]
         for row in matrix]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def densify(columns, n_rows):
    """The dense matrix (rows = targets) of sparse columns, each a dict from
    row index to entry; absent entries are 0."""
    return [[column.get(i, 0) for column in columns] for i in range(n_rows)]


def betti_from_boundaries(dimensions, boundaries, step, p=0):
    """Betti numbers of a finite complex given per-grade boundary matrices.

    dimensions: dict grade -> chain dimension; boundaries: dict grade ->
    matrix of the map out of that grade (rows = target basis); step: grade
    shift of the boundary; p: 0 ranks over Q (`fraction_rank`), a prime over
    F_p (`modp_rank`).
    """
    def rank(matrix):
        return modp_rank(matrix, p) if p else fraction_rank(matrix)

    out = []
    top = max(dimensions)
    for g in range(top + 1):
        dim = dimensions.get(g, 0)
        rank_out = rank(boundaries.get(g, []))
        rank_in = rank(boundaries.get(g - step, []))
        out.append(dim - rank_out - rank_in)
    return out


def exterior_ce_complex(generators, brackets, p):
    """The Chevalley-Eilenberg complex of a Lie algebra on odd generators,
    as (dimensions, boundaries) for `betti_from_boundaries` with step -1.

    generators: (id, degree) pairs, each degree odd; brackets: (x, y) ->
    {z: coefficient}, one orientation per pair, [y, x] = -[x, y]; p: 0 for
    Q or a prime.  A cell is a combination of generator ids in the listed
    order (all 2^k of them, the empty one included), and

        d(c_0 ... c_(k-1)) = sum over i < j of (-1)^(i+j) [c_i, c_j] c_0 ..^i ..^j .. c_(k-1),

    each word z c_0 ..^i ..^j .. sorted into the listed order by adjacent
    swaps, one sign per swap, and zero when z repeats a letter."""
    order = [g for g, _ in generators]
    degree = dict(generators)
    cells = {g: [] for g in range(sum(degree.values()) + 1)}
    for k in range(len(order) + 1):
        for cell in combinations(order, k):
            cells[sum(degree[x] for x in cell)].append(cell)

    def bracket(x, y):
        if (x, y) in brackets:
            return brackets[x, y]
        return {z: -c for z, c in brackets.get((y, x), {}).items()}

    def sorted_word(word):
        letters, swaps = list(word), 0
        for i in range(len(letters)):
            for j in range(len(letters) - 1 - i):
                if order.index(letters[j]) > order.index(letters[j + 1]):
                    letters[j], letters[j + 1] = letters[j + 1], letters[j]
                    swaps += 1
        return tuple(letters), swaps

    boundaries = {}
    for g, sources in cells.items():
        row_of = {cell: r for r, cell in enumerate(cells.get(g - 1, []))}
        matrix = [[Fraction(0)] * len(sources) for _ in row_of]
        for col, cell in enumerate(sources):
            for i, j in combinations(range(len(cell)), 2):
                rest = cell[:i] + cell[i + 1:j] + cell[j + 1:]
                for z, c in bracket(cell[i], cell[j]).items():
                    if z in rest:
                        continue
                    target, swaps = sorted_word((z,) + rest)
                    matrix[row_of[target]][col] += Fraction(c) * (-1) ** (i + j + swaps)
        boundaries[g] = [[ref_scalar(x, p) for x in row] for row in matrix]
    return {g: len(sources) for g, sources in cells.items()}, boundaries


def monomial_ce_complex(presentation):
    """The exterior complex of a shift-0 presentation as a
    `bvalg.homology.ChainComplex` over one `Monomial` per generator subset,
    the basis `build_ce_complex` built before its cells were bit masks:
    each grade filled by subset size, then in order of combinations of the
    generators sorted by `sort_key`.  The boundaries are
    `exterior_ce_complex`'s over the generators listed in that order, so a
    failing d∘d check raises the `BoundarySquareError` of that basis."""
    from bvalg.algebra import Monomial
    from bvalg.homology import ChainComplex

    gens = sorted(presentation.generators, key=lambda g: g.sort_key)
    basis = {d: [] for d in range(sum(g.degree for g in gens) + 1)}
    for k in range(len(gens) + 1):
        for letters in combinations(gens, k):
            basis[sum(g.degree for g in letters)].append(Monomial(tuple((g, 1) for g in letters)))
    brackets = {key: {m.word()[0].id: c for m, c in value.terms()}
                for key, value in presentation.brackets.items()}
    dimensions, dense = exterior_ce_complex([(g.id, g.degree) for g in gens], brackets,
                                            presentation.field.characteristic)
    boundaries = {g: [{i: row[j] for i, row in enumerate(matrix) if row[j]}
                      for j in range(dimensions[g])] for g, matrix in dense.items()}
    return ChainComplex(presentation.field, basis, boundaries)


def dense_product(a, b, modulus=None):
    """The matrix product a*b by the textbook triple loop over Fraction,
    each entry reduced mod `modulus` when one is given."""
    out = [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))),
                Fraction(0))
            for j in range(len(b[0]))] for i in range(len(a))]
    return out if modulus is None else [[x % modulus for x in row] for row in out]


def bv_chain_complex(structure):
    """The complex of a BV structure's operator over its basis, as a
    `bvalg.homology.ChainComplex`, whose boundaries lower the grade by one.
    The operator has degree shift - 1, which must be -1 (grade g holds
    degree g) or 1 (grade g holds degree truncation - g).  Boundary terms
    that would leave the window at the top degree are zeroed (the operator
    itself is exact; the truncation is the complex's)."""
    from bvalg.algebra import Undefined
    from bvalg.homology import ChainComplex

    if structure.shift not in (0, 2):
        raise ValueError(f"operator of degree {structure.shift - 1}: not a boundary")
    top = structure.truncation
    basis = {g: [] for g in range(top + 1)}
    for mono in structure.basis():
        basis[mono.degree if structure.shift == 0 else top - mono.degree].append(mono)
    boundaries = {}
    for g in sorted(basis):
        row_of = {m: i for i, m in enumerate(basis.get(g - 1, []))}
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
                elif g - 1 in basis:
                    raise ValueError(f"boundary of {mono} not homogeneous in total degree")
            columns.append(column)
        boundaries[g] = columns
    return ChainComplex(structure.field, basis, boundaries)


# -- reference algebra kernel --------------------------------------------------
#
# Letters are (id, degree) pairs, a monomial is a tuple of letters sorted by
# (degree, id), and an element is a dict monomial -> nonzero coefficient: a
# Fraction over Q (p = 0) or a residue in range(p).


def ref_scalar(value, p):
    """An int or Fraction as a canonical scalar of Q (p = 0) or F_p."""
    q = Fraction(value)
    if p == 0:
        return q
    return q.numerator * pow(q.denominator, -1, p) % p


def ref_sort_word(word):
    """Insertion sort by (degree, id); each adjacent swap of letters a, b
    adds |a|*|b| to the returned Koszul exponent."""
    letters = list(word)
    exp = 0
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j][::-1] < letters[j - 1][::-1]:
            exp += letters[j][1] * letters[j - 1][1]
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    return letters, exp


def ref_normalize_word(word, coeff, p):
    """coeff times the word in normal form; outside characteristic 2 a
    repeated odd letter kills it."""
    letters, exp = ref_sort_word(word)
    if p != 2 and any(a == b and a[1] % 2 for a, b in zip(letters, letters[1:])):
        return {}
    c = ref_scalar(coeff * (-1) ** exp, p)
    return {tuple(letters): c} if c else {}


def ref_add(x, y, p):
    out = dict(x)
    for mono, c in y.items():
        out[mono] = ref_scalar(out.get(mono, 0) + c, p)
    return {m: c for m, c in out.items() if c}


def ref_scale(x, coeff, p):
    return ref_add({}, {m: c * coeff for m, c in x.items()}, p)


def ref_mul(x, y, p):
    """Product term by term: each pair of words is concatenated and normalized."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            out = ref_add(out, ref_normalize_word(m1 + m2, c1 * c2, p), p)
    return out


def ref_terms(x):
    """(letters, degree, wordlength, coefficient) per term, ordered by degree,
    wordlength, then the (degree, id, multiplicity) runs of the word."""
    def key(mono):
        runs = []
        for letter in mono:
            if runs and runs[-1][:2] == letter[::-1]:
                runs[-1] = (letter[1], letter[0], runs[-1][2] + 1)
            else:
                runs.append((letter[1], letter[0], 1))
        return (sum(d for _, d in mono), len(mono), tuple(runs))
    return [(m, *key(m)[:2], x[m]) for m in sorted(x, key=key)]


def ref_coproduct(word, p):
    """Coproduct of a normal-form word: the sum over subsets S of its letter
    positions of the shuffle sign times word[S] (x) word[not S].  The sign
    moves the letters of S in front of the others, one |a||b| per pair that
    crosses.  Returns a dict (left word, right word) -> nonzero coefficient."""
    out = {}
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        exp = sum(word[i][1] * word[j][1] for i in range(n) for j in range(i + 1, n)
                  if mask >> j & 1 and not mask >> i & 1)
        out = ref_add(out, {(left, right): (-1) ** exp}, p)
    return out


# -- reference operator --------------------------------------------------------
#
# The operator of a structure in coordinates, from its generator values and
# its bracket table alone: graded partial derivatives on normal-form words,
# with no word-position pairs.


def ref_partial(letter, x, p):
    """Graded left partial derivative by `letter`: on a normal-form word
    u letter^m w it gives m (-1)^(|letter||u|) u letter^(m-1) w."""
    out = {}
    for word, c in x.items():
        m = word.count(letter)
        if m:
            i = word.index(letter)
            prefix = sum(d for _, d in word[:i])
            out = ref_add(out, {word[:i] + word[i + 1:]: c * m * (-1) ** (letter[1] * prefix)},
                          p)
    return out


def ref_divided_square(letter, x, p):
    """Half the second partial derivative by `letter`: letter^m becomes
    C(m,2) letter^(m-2), so characteristic 2 needs no 1/2."""
    out = {}
    for word, c in x.items():
        m = word.count(letter)
        if m >= 2:
            i = word.index(letter)
            out = ref_add(out, {word[:i] + word[i + 2:]: c * m * (m - 1) // 2}, p)
    return out


def ref_operator(x, values, brackets, p):
    """The second-order operator
        sum_k v(x_k) d_k  +  sum_{k<l} (-1)^|x_k| c_kl d_l d_k
                          +  sum_k (-1)^|x_k| c_kk d_k^(2)
    on an element x, where d_k is `ref_partial`, d_k^(2) is
    `ref_divided_square`, `values` maps a letter to v(x_k), and `brackets`
    maps a pair of letters (k, l), k <= l in normal-form order, to c_kl."""
    out = {}
    for letter, v in values.items():
        out = ref_add(out, ref_mul(v, ref_partial(letter, x, p), p), p)
    for (k, l), c in brackets.items():
        second = (ref_divided_square(k, x, p) if k == l
                  else ref_partial(l, ref_partial(k, x, p), p))
        out = ref_add(out, ref_scale(ref_mul(c, second, p), (-1) ** k[1], p), p)
    return out


def ref_bracket(a, b, brackets, shift, p):
    """The bracket {a, b} of two normal-form words from the generator table
    alone, with parity p_w = |w| + shift - 1:
        a = x, one letter:  sum_l T(x, l) d_l b
        any other word a:   sum_{k,l} -(-1)^(p_a p_l) T(l, k) d_k a d_l b
    where d is `ref_partial` and T is `brackets` (keyed as in
    `ref_operator`), its other orientation read by shifted antisymmetry,
    T(l, k) = -(-1)^(p_k p_l) T(k, l).  None when some letter of a and some
    letter of b have no table entry."""
    def parity(word):
        return sum(d for _, d in word) + shift - 1

    def table(x, y):
        if (x, y) in brackets:
            return brackets[(x, y)]
        if (y, x) in brackets:
            return ref_scale(brackets[(y, x)], -(-1) ** (parity((x,)) * parity((y,)) % 2), p)
        return None

    out = {}
    if len(a) == 1:
        for l in set(b):
            t = table(a[0], l)
            if t is None:
                return None
            out = ref_add(out, ref_mul(t, ref_partial(l, {b: 1}, p), p), p)
        return out
    for k in set(a):
        for l in set(b):
            t = table(l, k)
            if t is None:
                return None
            term = ref_mul(ref_mul(t, ref_partial(k, {a: 1}, p), p),
                           ref_partial(l, {b: 1}, p), p)
            out = ref_add(out, ref_scale(term, -(-1) ** (parity(a) * parity((l,)) % 2), p), p)
    return out


def ref_identity_reports(s):
    """The reports of bv.verify_deviation_identity, verify_bracket_compatibility
    and verify_gerstenhaber on structure s at its truncation, each instance
    decided by building both sides as Elements from the public bracket and
    operator and comparing them, never by a signed sum, over the whole
    window: `WindowTuples` without a gate, so no tuple is pruned."""
    from bvalg.algebra import Element, first_undefined
    from bvalg.bv import WindowTuples, poisson_bracket
    from bvalg.hopf import bracket_from_operator
    from bvalg.report import Report, as_triple, by_name, compare, run_checks

    def elt(x):
        return x if isinstance(x, Element) else Element.from_monomial(s.field, x)

    def br(x, y):
        return poisson_bracket(s, elt(x), elt(y))

    def deviation(a, b):
        lhs = br(a, b)
        return first_undefined(lhs) or compare("bracket", lhs, "operator deviation",
                                               bracket_from_operator(s.field, s.bv_monomial, a, b))

    def compatibility(a, b):
        inner = br(a, b)
        if gap := first_undefined(inner):
            return gap
        lhs, bv_a, bv_b = s.bv_element(inner), s.bv_monomial(a), s.bv_monomial(b)
        if gap := first_undefined(lhs, bv_a, bv_b):
            return gap
        first, second = br(bv_a, b), br(a, bv_b)
        return first_undefined(first, second) or compare(
            "bv{a,b}", lhs, "{bv a,b} + sign*{a,bv b}", first + second.signed(a.degree + 1))

    def antisymmetry(a, b):
        lhs, rhs = br(a, b), br(b, a)
        pa, pb = a.degree + s.shift - 1, b.degree + s.shift - 1
        return first_undefined(lhs, rhs) or compare(
            "{a,b}", lhs, "-sign*{b,a}", rhs.signed(pa * pb + 1))

    def jacobi_and_poisson(a, b, c):
        inner_bc, inner_ac, inner_ab = br(b, c), br(a, c), br(a, b)
        if gap := first_undefined(inner_bc, inner_ac, inner_ab):
            return gap, gap
        pa, pb = a.degree + s.shift - 1, b.degree + s.shift - 1
        lhs, first, second = br(a, inner_bc), br(inner_ab, c), br(b, inner_ac)
        jacobi = first_undefined(lhs, first, second) or compare(
            "{a,{b,c}}", lhs, "{{a,b},c} + sign*{b,{a,c}}", first + second.signed(pa * pb))
        poisson = compare(
            "{a,bc}", br(a, elt(b) * elt(c)), "{a,b}c + sign*b{a,c}",
            inner_ab * elt(c) + (elt(b) * inner_ac).signed(pa * b.degree))
        return jacobi, poisson

    def window(arity):
        return WindowTuples(s.basis(), arity, s.truncation)

    pairs = by_name("a", "b")
    return (Report(checks=run_checks(("bv-deviation-is-bracket",), window(2), deviation,
                                     pairs)),
            Report(checks=run_checks(("bv-bracket-compatibility",), window(2), compatibility,
                                     pairs)),
            Report(checks=run_checks(("bracket-antisymmetry",), window(2), antisymmetry, pairs)
                   + run_checks(("bracket-jacobi", "poisson-relation"), window(3),
                                jacobi_and_poisson, as_triple)))
