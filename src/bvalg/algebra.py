"""Free graded-commutative algebras with exact coefficients.

Sign ledger
-----------
Every sign in the engine derives from a single rule: transposing two
adjacent homogeneous factors a, b multiplies the coefficient by
(-1)^(|a||b|).  A sign is applied as ``FieldSpec.signed(c, exponent)`` to a
coefficient and as ``Element.signed(exponent)`` to an element, each of which
returns its argument or its negation, never by multiplying; a two-sided sum
(``bv._add_parts``) applies it by its parity, choosing a side.  All other signs
(word normalization, tensor factor swaps, moving an operator past an
element, derivation prefix signs) come from this rule through these two
helpers.  Over characteristic 2 every sign collapses to +1 automatically.

Products and sums
-----------------
Monomials are interned when made: one factor key, one object, so every
cache keyed on monomials compares and hashes them by identity.  The
product of two monomials is sorted once: ``monomial_product`` keeps it in
a memo keyed by the pair and by whether the characteristic is 2, as a
monomial and a sign parity.  The memo starts over at ``MEMO_CAP`` entries,
however many structures a process builds, and the intern table holds
monomials weakly.  Every sum is built in one dict by ``_accumulate``,
without a copy per term.  The Leibniz rule and the window tuples, which
only the BV verbs run on these products, are in ``bv``.

Monomials are kept in a normal form: factors sorted by (degree, id).
Over characteristic other than 2 an odd-degree generator squares to
zero, so normal-form monomials carry odd generators with multiplicity
at most 1; over characteristic 2 the algebra is fully polynomial.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)
from weakref import WeakValueDictionary

from .fields import FieldSpec, Scalar

class Generator:
    """A free algebra generator with a fixed non-negative degree, immutable by
    convention; `sort_key`, (degree, id), is its normal-form order."""

    __slots__ = ("id", "degree", "sort_key")

    def __init__(self, id: str, degree: int):
        if degree < 0:
            raise ValueError(f"generator {id!r} has negative degree {degree}")
        self.id = id
        self.degree = degree
        self.sort_key = (degree, id)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Generator) and self.sort_key == other.sort_key)

    def __hash__(self) -> int:
        return hash(self.sort_key)

    def __str__(self) -> str:
        return self.id


class Monomial:
    """Normal-form monomial: factors sorted by (degree, id), multiplicities >= 1.

    Interned: ``Monomial(factors)`` returns the one live object for its
    factor key, the tuple of (degree, id, multiplicity), so equality and
    hashing are the object defaults and every dict keyed on monomials
    hashes without a Python call.  The intern table holds its monomials
    weakly.  Immutable by convention; degree, wordlength, word and sort key
    are computed once, when the object is made.
    """

    __slots__ = ("factors", "degree", "wordlength", "_word", "_key", "__weakref__")

    def __new__(cls, factors: Tuple[Tuple[Generator, int], ...]) -> "Monomial":
        factors = tuple(factors)
        key = tuple((g.degree, g.id, m) for g, m in factors)
        mono = _interned.get(key)
        if mono is not None:
            return mono
        mono = object.__new__(cls)
        mono.factors = factors
        word: List[Generator] = []
        for g, m in factors:
            word.extend([g] * m)
        mono._word = tuple(word)
        mono.degree = sum(g.degree for g in word)
        mono.wordlength = len(word)
        mono._key = (mono.degree, mono.wordlength, key)
        _interned[key] = mono
        return mono

    def __reduce__(self):
        # copies and unpickled monomials come back through the intern table
        return (Monomial, (self.factors,))

    def __repr__(self) -> str:
        return f"Monomial(factors={self.factors!r})"

    @staticmethod
    def unit() -> "Monomial":
        return Monomial(())

    @staticmethod
    def from_sorted_word(word: Sequence[Generator]) -> "Monomial":
        """Group an already-sorted word into a monomial (no sign bookkeeping)."""
        factors: List[Tuple[Generator, int]] = []
        for g in word:
            if factors and factors[-1][0] == g:
                factors[-1] = (g, factors[-1][1] + 1)
            else:
                factors.append((g, 1))
        return Monomial(tuple(factors))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def word(self) -> Tuple[Generator, ...]:
        return self._word

    def order_key(self) -> Tuple:
        return self._key

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for g, m in self.factors:
            parts.append(g.id if m == 1 else f"{g.id}^{m}")
        return "*".join(parts)


# factor key -> the one live monomial; an entry goes when its monomial does
_interned: WeakValueDictionary = WeakValueDictionary()


def sort_word(word: Sequence[Generator]) -> Tuple[List[Generator], int]:
    """Stable-sort a word by (degree, id), returning the Koszul sign exponent.

    Insertion sort; every adjacent transposition of letters a, b
    contributes |a|*|b| to the exponent.
    """
    letters = list(word)
    exp = 0
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j].sort_key < letters[j - 1].sort_key:
            exp += letters[j].degree * letters[j - 1].degree
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    return letters, exp


# -- the one monomial product ---------------------------------------------------

MEMO_CAP = 1 << 14  # entries in the product memo
_MISSING = object()
_products: Dict[Tuple[Monomial, Monomial, bool], Optional[Tuple[Monomial, int]]] = {}


def _normal_form(word: Sequence[Generator], char2: bool) -> Optional[Tuple[Monomial, int]]:
    """The normal form of a word and the parity of its Koszul sign,
    or None when, outside characteristic 2, an odd letter repeats."""
    letters, exp = sort_word(word)
    if not char2:
        for a, b in zip(letters, letters[1:]):
            if a == b and a.degree % 2 == 1:
                return None
    return Monomial.from_sorted_word(letters), exp % 2


def monomial_product(m1: Monomial, m2: Monomial,
                     char2: bool) -> Optional[Tuple[Monomial, int]]:
    """m1*m2 as (monomial, sign parity), or None when it vanishes; memoized,
    and the memo starts over when it holds MEMO_CAP entries.  `char2` says
    whether the characteristic is 2, where an odd square survives."""
    key = (m1, m2, char2)
    value = _products.get(key, _MISSING)
    if value is _MISSING:
        if len(_products) >= MEMO_CAP:
            _products.clear()
        value = _products[key] = _normal_form(m1.word() + m2.word(), char2)
    return value


def _accumulate(field: FieldSpec, out: Dict[Monomial, Scalar],
                terms: Iterable[Tuple[Monomial, Scalar]]) -> Dict[Monomial, Scalar]:
    """Add (monomial, nonzero coefficient) terms into `out` in place, dropping
    a monomial whose coefficient cancels; returns `out`.  Every sum of
    elements is built here."""
    add = field.add
    for mono, coeff in terms:
        old = out.get(mono)
        if old is None:
            out[mono] = coeff
        else:
            total = add(old, coeff)
            if total:
                out[mono] = total
            else:
                del out[mono]
    return out


class Element:
    """Finite linear combination of normal-form monomials over an exact field.

    Immutable by convention; all operations return new elements and zero
    coefficients are never stored.
    """

    __slots__ = ("field", "_terms")

    def __init__(self, field: FieldSpec, terms: Optional[Dict[Monomial, Scalar]] = None):
        self.field = field
        clean: Dict[Monomial, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            c = field.coerce(coeff)
            if c:
                clean[mono] = c
        self._terms = clean

    @staticmethod
    def _trusted(field: FieldSpec, terms: Dict[Monomial, Scalar]) -> "Element":
        """An element over terms whose coefficients are canonical and nonzero,
        taken as given: the results of arithmetic on elements."""
        out = object.__new__(Element)
        out.field = field
        out._terms = terms
        return out

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "Element":
        return Element._trusted(field, {})

    @staticmethod
    def unit(field: FieldSpec, coeff=None) -> "Element":
        return Element.from_monomial(field, Monomial.unit(), coeff)

    @staticmethod
    def from_monomial(field: FieldSpec, mono: Monomial, coeff=None) -> "Element":
        """coeff * mono; without a coefficient, the field's stored unit."""
        if coeff is None:
            return Element._trusted(field, {mono: field.one()})
        c = field.coerce(coeff)
        return Element._trusted(field, {mono: c} if c else {})

    @staticmethod
    def from_generator(field: FieldSpec, gen: Generator) -> "Element":
        return Element.from_monomial(field, Monomial(((gen, 1),)))

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> List[Tuple[Monomial, Scalar]]:
        if len(self._terms) < 2:
            return list(self._terms.items())
        return sorted(self._terms.items(), key=lambda t: t[0].order_key())

    def monomials(self) -> List[Monomial]:
        return [m for m, _ in self.terms()]

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, self.field.zero())

    def homogeneous_degree(self):
        """Degree if all terms agree, None for zero, 'mixed' otherwise."""
        degrees = {m.degree for m in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            return "mixed"
        return degrees.pop()

    def max_degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _require_same_field(self, other: "Element") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "Element") -> "Element":
        self._require_same_field(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        return Element._trusted(self.field, _accumulate(self.field, dict(self._terms),
                                                        other._terms.items()))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        neg = self.field.neg
        return Element._trusted(self.field, {m: neg(c) for m, c in self._terms.items()})

    def scale(self, coeff) -> "Element":
        field = self.field
        c = field.coerce(coeff)
        if c == 1:
            return self
        if not c:
            return Element.zero(field)
        mul = field.mul
        return Element._trusted(field, {m: mul(cc, c) for m, cc in self._terms.items()})

    def signed(self, exponent: int) -> "Element":
        """(-1)**exponent * self, by negation."""
        return -self if exponent % 2 else self

    def __mul__(self, other: "Element") -> "Element":
        self._require_same_field(other)
        field = self.field
        mul, signed, char2 = field.mul, field.signed, field.characteristic == 2
        terms = []
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                prod = monomial_product(m1, m2, char2)
                if prod is not None:
                    c = c2 if c1 == 1 else c1 if c2 == 1 else mul(c1, c2)
                    terms.append((prod[0], signed(c, prod[1])))
        return Element._trusted(field, _accumulate(field, {}, terms))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.field == other.field
                and self._terms == other._terms)

    __hash__ = None  # type: ignore[assignment]

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"<Element {self} over {self.field}>"


def render_element(element: Element) -> str:
    """Canonical, re-parseable string form: '2*a*b - 1/2*b^2', '0', '1'."""
    if element.is_zero:
        return "0"
    field = element.field
    parts: List[str] = []
    for mono, coeff in element.terms():
        negative = field.kind == "rational" and coeff < 0
        mag = -coeff if negative else coeff
        if mono.is_unit:
            body = str(mag)
        elif mag == field.one():
            body = str(mono)
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


def element_to_pairs(element: Element) -> List[Tuple[str, str]]:
    """Element as a sorted list of (monomial string, coefficient string)."""
    return [(str(m), str(c)) for m, c in element.terms()]


def normalize_word(field: FieldSpec, word: Sequence[Generator], coeff=1) -> Element:
    """Sign-normalize a word of generators into an Element.

    Sorting contributes the Koszul sign; over characteristic other than 2
    a repeated odd-degree letter kills the monomial.
    """
    normal = _normal_form(word, field.characteristic == 2)
    c = field.coerce(coeff)
    if normal is None or not c:
        return Element.zero(field)
    mono, parity = normal
    return Element._trusted(field, {mono: field.signed(c, parity)})


# -- basis enumeration --------------------------------------------------------


def _exponent_vectors(gens: Sequence[Generator], field: FieldSpec,
                      budget: int) -> Iterator[Tuple[int, ...]]:
    if not gens:
        yield ()
        return
    g, rest = gens[0], gens[1:]
    cap = 1 if (g.degree % 2 == 1 and field.characteristic != 2) else budget // g.degree
    for e in range(cap + 1):
        used = e * g.degree
        if used > budget:
            break
        for tail in _exponent_vectors(rest, field, budget - used):
            yield (e,) + tail


def monomial_basis(field: FieldSpec, generators: Sequence[Generator],
                   max_degree: int) -> List[Monomial]:
    """All normal-form monomials of total degree <= max_degree, sorted."""
    gens = sorted(generators, key=lambda g: g.sort_key)
    for g in gens:
        if g.degree == 0:
            raise ValueError(
                f"generator {g.id!r} has degree 0: the degree window is not finite")
    out = []
    for exps in _exponent_vectors(gens, field, max_degree):
        factors = tuple((g, e) for g, e in zip(gens, exps) if e > 0)
        out.append(Monomial(factors))
    out.sort(key=Monomial.order_key)
    return out


DEFAULT_WINDOW = 10  # the degree window when neither the caller nor the input names one


# -- gaps and linear extension ------------------------------------------------


class Undefined:
    """A value blocked by a missing table entry, named in `blocking`.

    The one gap type: maps, brackets and operators return it in place of
    an Element, and verifiers count an instance that meets it as skipped.
    """

    __slots__ = ("blocking",)

    def __init__(self, blocking: str):
        self.blocking = blocking

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.blocking == self.blocking

    def __hash__(self) -> int:
        return hash(self.blocking)


MaybeElement = Union[Element, Undefined]


def first_undefined(*values) -> Optional[Undefined]:
    """The first Undefined among values, or None when all are defined."""
    for value in values:
        if isinstance(value, Undefined):
            return value
    return None


def linear_extension(fn: Callable[[Monomial], MaybeElement],
                     element: Element) -> MaybeElement:
    """Extend a map on monomials linearly; the first gap met is returned."""
    out: Dict[Monomial, Scalar] = {}
    for mono, coeff in element.terms():
        value = fn(mono)
        if isinstance(value, Undefined):
            return value
        _accumulate(element.field, out, value.scale(coeff)._terms.items())
    return Element._trusted(element.field, out)
