"""Built-in algebraic fixtures: rational homotopy of spheres, loop-space
models, the orthogonal-group structure descriptor, the spherical-class
rule for the degree-1 operator, and the characteristic-2 double-loop
fixture where the operator is nontrivial on the bottom class.

Fixture names are stable CLI identifiers:
    sphere-lie:<m>   loopspace:<n>:<m>   omega2-s3-f2   fd:<n>:<field>

`bv` is imported where a structure is built, so a descriptor loads none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from .algebra import DEFAULT_WINDOW, Element, Generator, Monomial
from .fields import FieldSpec
from .lie import LiePresentation, desuspend

if TYPE_CHECKING:
    from .bv import BVStructure

MAX_DESCRIPTOR_N = 10_000  # the descriptor lists about n/4 generators
STABLE_MAX_DEGREE = 16  # the stable descriptor lists a_3, a_7, ... up to this degree


def sphere_loop_lie(m: int) -> LiePresentation:
    """Rational homotopy of the based loops on an m-sphere, as a shift-1
    presentation (ordinary degree-0 Samelson bracket).

    Odd m: one class a in degree m-1, abelian (its even-degree self-bracket
    vanishes).  Even m: a in degree m-1 and b = {a,a} in degree 2m-2, all
    other brackets zero.
    """
    from .fields import QQ
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    a = Generator("a", m - 1)
    if m % 2 == 1:
        return LiePresentation(QQ, 1, [a])
    b = Generator("b", 2 * m - 2)
    return LiePresentation(QQ, 1, [a, b], {("a", "a"): Element.from_generator(QQ, b)})


def loopspace_model(n: int, m: int, max_degree: int = DEFAULT_WINDOW) -> BVStructure:
    """Free model for the n-fold loops on an m-sphere over the rationals:
    the free structure on the (n-1)-desuspended sphere presentation, with
    zero differential.  The degree-(n-1) operator exists for even n only;
    it vanishes on every generator (they are spherical classes).
    """
    from .bv import BVStructure
    if n < 2:
        raise ValueError("need n >= 2")
    if m <= n:
        raise ValueError(f"need m > n so the sphere is n-connected, got m={m}, n={n}")
    return BVStructure(desuspend(sphere_loop_lie(m), n), max_degree, has_bv=(n % 2 == 0))


class SOGenerator:
    def __init__(self, degree: int, action: str):
        self.degree = degree
        self.action = action  # "trivial" | "bv"


class StructureDescriptor:
    """Which operations act on an n-fold loop space's homology: the product,
    the degree-(n-1) bracket, optionally a degree-(n-1) square-zero
    operator, and the exterior orthogonal-group generators with their
    action flags."""

    def __init__(self, n: Union[int, str], field: FieldSpec, bracket_degree: Optional[int],
                 bv_degree: Optional[int], so_generators: Tuple[SOGenerator, ...],
                 spherical_bv_vanishes: bool):
        self.n = n
        self.field = field
        self.bracket_degree = bracket_degree
        self.bv_degree = bv_degree
        self.so_generators = so_generators
        self.spherical_bv_vanishes = spherical_bv_vanishes

    @property
    def has_bv(self) -> bool:
        return self.bv_degree is not None


def _so_exterior_degrees(n: int) -> List[int]:
    """Exterior generator degrees of H_*(SO(n); Q): a_3, a_7, ..., a_{4k-1}
    for SO(2k+1); SO(2k+2) adjoins one generator in degree 2k+1."""
    if n % 2 == 1:
        k = (n - 1) // 2
        return [4 * i - 1 for i in range(1, k + 1)]
    k = (n - 2) // 2
    return [4 * i - 1 for i in range(1, k + 1)] + [2 * k + 1]


def framed_disks_descriptor(n: Union[int, str], field: FieldSpec) -> StructureDescriptor:
    """Operator inventory per n and field.

    Over Q: the bracket always, the square-zero operator in degree n-1 iff
    n is even (the adjoined orthogonal generator), every a_{4i-1} acting
    trivially.  Characteristic p is supported at n = 2 only, where the
    operator exists.  Spherical vanishing is whether `spherical_bv` sends a
    nonzero composite (the unit) to zero.
    """
    vanishes = spherical_bv(Element.unit(field), field).is_zero
    if n == "infinity":
        if field.kind != "rational":
            raise ValueError("the stable descriptor is rational only")
        degrees = range(3, STABLE_MAX_DEGREE + 1, 4)
        gens = tuple(SOGenerator(d, "trivial") for d in degrees)
        return StructureDescriptor("infinity", field, None, None, gens, vanishes)
    if not isinstance(n, int) or n < 2:
        raise ValueError("need n >= 2 or 'infinity'")
    if n > MAX_DESCRIPTOR_N:
        raise ValueError(f"need n <= {MAX_DESCRIPTOR_N} or 'infinity', got {n}")
    if field.kind != "rational":
        if n != 2:
            raise ValueError(f"descriptor over {field} is only available for n = 2")
        return StructureDescriptor(2, field, 1, 1, (SOGenerator(1, "bv"),), vanishes)
    degrees = _so_exterior_degrees(n)
    gens = [SOGenerator(d, "trivial") for d in degrees]
    bv_degree = None
    if n % 2 == 0:
        # the adjoined generator (last in the list, degree n-1) is the operator;
        # the a_{4i-1} family stays trivial even when degrees coincide (n = 4)
        gens[-1] = SOGenerator(degrees[-1], "bv")
        bv_degree = n - 1
    return StructureDescriptor(n, field, n - 1, bv_degree, tuple(gens), vanishes)


def spherical_bv(eta_composite: Element, field: FieldSpec) -> Element:
    """Value of the degree-1 operator on a spherical class (one in the image
    of the Hurewicz map), given the image of its composite with the
    suspended Hopf map.

    Away from characteristic 2 the suspended Hopf map composite is null, so
    the value is zero; in characteristic 2 it is the given composite image
    (its sign, -(-1)^j for a class of degree j+2, collapses mod 2).
    """
    if field.characteristic != 2:
        return Element.zero(field)
    return eta_composite


def omega2_s3_f2(max_degree: int = DEFAULT_WINDOW) -> BVStructure:
    """Mod-2 homology of the double loops on the 3-sphere: polynomial on
    classes u_k of degree 2^k - 1.  The operator is defined on u_1 only,
    by the spherical-class rule: its Hopf-map composite, u_1^2; every other
    operator value and every bracket entry is undefined.
    """
    from .bv import BVStructure
    if max_degree < 1:
        raise ValueError(f"fixture omega2-s3-f2 needs --max-degree >= 1, got {max_degree}")
    field = FieldSpec.prime(2)
    gens = []
    k = 1
    while 2 ** k - 1 <= max_degree:
        gens.append(Generator(f"u{k}", 2 ** k - 1))
        k += 1
    # u1 is the adjoint of the identity of the 3-sphere
    u1_squared = Element.from_monomial(field, Monomial(((gens[0], 2),)))
    return BVStructure(LiePresentation(field, 2, gens), max_degree,
                       bv_values={"u1": spherical_bv(u1_squared, field)}, partial_brackets={})


def heisenberg(field: Optional[FieldSpec] = None) -> LiePresentation:
    """Three-dimensional Heisenberg algebra, suspended to shift 0 (degree-1
    generators, bracket of degree -1): {x,y} = z.  Over QQ by default."""
    from .fields import QQ
    field = QQ if field is None else field
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 1)
    return LiePresentation(field, 0, [x, y, z], {("x", "y"): Element.from_generator(field, z)})


def abelian_ungraded(k: int, field: Optional[FieldSpec] = None) -> LiePresentation:
    """Abelian k-dimensional ungraded Lie algebra, suspended to shift 0,
    over QQ by default."""
    from .fields import QQ
    field = QQ if field is None else field
    gens = [Generator(f"e{i + 1}", 1) for i in range(k)]
    return LiePresentation(field, 0, gens)


def load_fixture(name: str, max_degree: Optional[int] = None):
    """Resolve a stable fixture identifier to its object."""
    window = DEFAULT_WINDOW if max_degree is None else max_degree
    parts = name.split(":")

    def integer(field: str, text: str, other: str = "") -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"fixture {name!r}: <{field}> must be an integer{other}, "
                             f"got {text!r}") from None

    if parts[0] == "sphere-lie" and len(parts) == 2:
        return sphere_loop_lie(integer("m", parts[1]))
    if parts[0] == "loopspace" and len(parts) == 3:
        return loopspace_model(integer("n", parts[1]), integer("m", parts[2]), max_degree=window)
    if name == "omega2-s3-f2":
        return omega2_s3_f2(window)
    if parts[0] == "fd" and len(parts) == 3:
        n: Union[int, str] = (parts[1] if parts[1] == "infinity"
                              else integer("n", parts[1], " or 'infinity'"))
        return framed_disks_descriptor(n, FieldSpec.parse(parts[2]))
    raise ValueError(f"unknown fixture {name!r}")
