"""Exact computational algebra for graded-commutative algebras carrying a
degree-(n-1) bracket and a square-zero operator of the same degree."""

from .algebra import (Element, Generator, GradedMap, Monomial, monomial_basis,
                      normalize_word)
from .fields import FieldSpec, QQ, GF2
from .lie import LiePresentation, check_differential, check_lie_axioms, desuspend
from .bv import (BVStructure, bv_operator, free_bv,
                 free_bv_structure, poisson_bracket, user_bv_structure,
                 verify_bv_axioms)
from .homology import ChainComplex, betti, build_ce_complex, bv_chain_complex
from .hopf import antipode, coproduct, is_coderivation, primitive_basis
from .fixtures import (framed_disks_descriptor, heisenberg, load_fixture,
                       loopspace_model, omega2_s3_f2, sphere_loop_lie,
                       spherical_bv)
from .dsl import parse_presentation, render_presentation
from .report import Report

__all__ = [
    "Element", "Generator", "GradedMap", "Monomial", "monomial_basis",
    "normalize_word", "FieldSpec", "QQ", "GF2",
    "LiePresentation", "check_differential", "check_lie_axioms", "desuspend",
    "BVStructure", "bv_operator",
    "free_bv", "free_bv_structure", "poisson_bracket", "user_bv_structure",
    "verify_bv_axioms", "ChainComplex", "betti", "build_ce_complex",
    "bv_chain_complex", "antipode", "coproduct", "is_coderivation",
    "primitive_basis", "framed_disks_descriptor", "heisenberg", "load_fixture",
    "loopspace_model", "omega2_s3_f2", "sphere_loop_lie", "spherical_bv",
    "parse_presentation", "render_presentation", "Report",
]
