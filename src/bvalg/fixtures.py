"""Built-in algebraic fixtures: rational homotopy of spheres, loop-space
models, the orthogonal-group structure descriptor, the spherical-class
rule for the degree-1 operator, and the characteristic-2 double-loop
fixture where the operator is nontrivial on the bottom class.

Fixture names are stable CLI identifiers:
    sphere-lie:<m>   loopspace:<n>:<m>   omega2-s3-f2   fd:<n>:<field>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .algebra import Element, Generator, MaybeElement, Monomial, Undefined
from .fields import FieldSpec, QQ
from .lie import LiePresentation, desuspend
from .bv import BVStructure, free_bv_structure, user_bv_structure

DEFAULT_WINDOW = 10


def sphere_loop_lie(m: int, field: FieldSpec = QQ) -> LiePresentation:
    """Rational homotopy of the based loops on an m-sphere, as a shift-1
    presentation (ordinary degree-0 Samelson bracket).

    Odd m: one class a in degree m-1, abelian (its even-degree self-bracket
    vanishes).  Even m: a in degree m-1 and b = {a,a} in degree 2m-2, all
    other brackets zero.
    """
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    a = Generator("a", m - 1)
    if m % 2 == 1:
        return LiePresentation(field, 1, [a], name=f"sphere-lie:{m}")
    b = Generator("b", 2 * m - 2)
    brackets = {("a", "a"): Element.from_generator(field, b)}
    return LiePresentation(field, 1, [a, b], brackets, name=f"sphere-lie:{m}")


def loopspace_model(n: int, m: int, field: FieldSpec = QQ,
                    max_degree: int = DEFAULT_WINDOW) -> BVStructure:
    """Free model for the n-fold loops on an m-sphere over the rationals:
    the free structure on the (n-1)-desuspended sphere presentation, with
    zero differential.  The degree-(n-1) operator exists for even n only;
    it vanishes on every generator (they are spherical classes).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m <= n:
        raise ValueError(f"need m > n so the sphere is n-connected, got m={m}, n={n}")
    if field.kind != "rational":
        raise ValueError("the loop-space model is rational")
    presentation = desuspend(sphere_loop_lie(m, field), n)
    structure = free_bv_structure(
        presentation, max_degree, has_bv=(n % 2 == 0),
        metadata={"name": f"loopspace:{n}:{m}",
                  "spherical": tuple(g.id for g in presentation.generators)})
    return structure


@dataclass(frozen=True)
class SOGenerator:
    degree: int
    action: str  # "trivial" | "bv"


@dataclass(frozen=True)
class StructureDescriptor:
    """Which operations act on an n-fold loop space's homology: the product,
    the degree-(n-1) bracket, optionally a degree-(n-1) square-zero
    operator, and the exterior orthogonal-group generators with their
    action flags."""

    n: Union[int, str]
    field: FieldSpec
    bracket_degree: Optional[int]
    bv_degree: Optional[int]
    so_generators: Tuple[SOGenerator, ...]
    spherical_bv_vanishes: bool

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


def framed_disks_descriptor(n: Union[int, str], field: FieldSpec,
                            max_degree: int = 16) -> StructureDescriptor:
    """Operator inventory per n and field.

    Over Q: the bracket always, the square-zero operator in degree n-1 iff
    n is even (the adjoined orthogonal generator), every a_{4i-1} acting
    trivially.  Characteristic p is supported at n = 2 only, where the
    operator exists and spherical vanishing holds iff p != 2.
    """
    if n == "infinity":
        if field.kind != "rational":
            raise ValueError("the stable descriptor is rational only")
        degrees = [d for d in range(3, max_degree + 1, 4)]
        gens = tuple(SOGenerator(d, "trivial") for d in degrees)
        return StructureDescriptor("infinity", field, None, None, gens, True)
    if not isinstance(n, int) or n < 2:
        raise ValueError("need n >= 2 or 'infinity'")
    if field.kind != "rational":
        if n != 2:
            raise ValueError(f"descriptor over {field} is only available for n = 2")
        return StructureDescriptor(
            2, field, 1, 1, (SOGenerator(1, "bv"),),
            spherical_bv_vanishes=(field.characteristic != 2))
    degrees = _so_exterior_degrees(n)
    gens = [SOGenerator(d, "trivial") for d in degrees]
    bv_degree = None
    if n % 2 == 0:
        # the adjoined generator (last in the list, degree n-1) is the operator;
        # the a_{4i-1} family stays trivial even when degrees coincide (n = 4)
        gens[-1] = SOGenerator(degrees[-1], "bv")
        bv_degree = n - 1
    return StructureDescriptor(n, field, n - 1, bv_degree, tuple(gens), True)


@dataclass(frozen=True)
class SphericalTag:
    """A homology class in the image of the Hurewicz map, with the data the
    degree-1 operator rule needs: the witness class of degree j+2 and the
    image of its composite with the suspended Hopf map (None = unknown)."""

    witness: str
    j: int
    eta_composite: Optional[Element]


def spherical_bv(tag: SphericalTag, field: FieldSpec) -> MaybeElement:
    """Value of the degree-1 operator on a spherical class.

    Away from characteristic 2 the suspended Hopf map composite is null, so
    the value is zero; in characteristic 2 it is the stored composite image
    (the sign -(-1)^j collapses mod 2), or Undefined when not tabulated.
    """
    if field.characteristic != 2:
        return Element.zero(field)
    if tag.eta_composite is None:
        return Undefined(f"eta composite of {tag.witness}")
    return tag.eta_composite


def omega2_s3_f2(max_degree: int = DEFAULT_WINDOW) -> BVStructure:
    """Mod-2 homology of the double loops on the 3-sphere: polynomial on
    classes u_k of degree 2^k - 1.  The operator is defined on u_1 only,
    with value u_1^2; every other operator value and every bracket entry is
    undefined unless supplied by the caller.
    """
    if max_degree < 1:
        raise ValueError("need max_degree >= 1")
    field = FieldSpec.prime(2)
    gens = []
    k = 1
    while 2 ** k - 1 <= max_degree:
        gens.append(Generator(f"u{k}", 2 ** k - 1))
        k += 1
    presentation = LiePresentation(field, 2, gens, name="omega2-s3-f2")
    u1 = gens[0]
    u1_squared = Element.from_monomial(field, Monomial(((u1, 2),)))
    tag = SphericalTag(witness="adjoint of the identity of the 3-sphere",
                       j=1, eta_composite=u1_squared)
    structure = user_bv_structure(
        presentation, max_degree,
        bv_values={"u1": u1_squared},
        partial_brackets={},
        metadata={
            "name": "omega2-s3-f2",
            "spherical": ("u1",),
            "tags": {"u1": tag},
            # The diagonal-action operator kills the bottom class; recorded
            # from prose, not from a displayed formula.
            "diagonal_bv_u1": Element.zero(field),
            "diagonal_bv_u1_derived_from_prose": True,
        })
    return structure


def heisenberg(field: FieldSpec = QQ) -> LiePresentation:
    """Three-dimensional Heisenberg algebra, suspended to shift 0 (degree-1
    generators, bracket of degree -1): {x,y} = z."""
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 1)
    return LiePresentation(field, 0, [x, y, z],
                           {("x", "y"): Element.from_generator(field, z)},
                           name="heisenberg")


def abelian_ungraded(k: int, field: FieldSpec = QQ) -> LiePresentation:
    """Abelian k-dimensional ungraded Lie algebra, suspended to shift 0."""
    gens = [Generator(f"e{i + 1}", 1) for i in range(k)]
    return LiePresentation(field, 0, gens, name=f"abelian:{k}")


def load_fixture(name: str, max_degree: Optional[int] = None):
    """Resolve a stable fixture identifier to its object."""
    window = DEFAULT_WINDOW if max_degree is None else max_degree
    parts = name.split(":")
    if parts[0] == "sphere-lie" and len(parts) == 2:
        return sphere_loop_lie(int(parts[1]))
    if parts[0] == "loopspace" and len(parts) == 3:
        return loopspace_model(int(parts[1]), int(parts[2]), max_degree=window)
    if name == "omega2-s3-f2":
        return omega2_s3_f2(window)
    if parts[0] == "fd" and len(parts) == 3:
        n: Union[int, str] = parts[1] if parts[1] == "infinity" else int(parts[1])
        return framed_disks_descriptor(n, FieldSpec.parse(parts[2]))
    raise KeyError(f"unknown fixture {name!r}")
