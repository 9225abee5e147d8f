"""Exact computational algebra for graded-commutative algebras carrying a
degree-(n-1) bracket and a square-zero operator of the same degree.
Public names load their module on first use (PEP 562 ``__getattr__``)."""

from importlib import import_module

_EXPORTS = {
    "algebra": ("Element", "Generator", "Monomial", "monomial_basis", "normalize_word"),
    "fields": ("FieldSpec", "QQ", "GF2"),
    "lie": ("LiePresentation", "check_differential", "check_lie_axioms", "desuspend"),
    "bv": ("BVStructure", "free_bv", "poisson_bracket", "verify_bv_axioms"),
    "homology": ("ChainComplex", "betti", "build_ce_complex"),
    "hopf": ("GradedMap", "antipode", "bv_operator", "coproduct", "is_coderivation",
             "primitive_basis"),
    "fixtures": ("framed_disks_descriptor", "heisenberg", "load_fixture", "loopspace_model",
                 "omega2_s3_f2", "sphere_loop_lie", "spherical_bv"),
    "dsl": ("parse_presentation", "render_presentation"),
    "report": ("Report",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
