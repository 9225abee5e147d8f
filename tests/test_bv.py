import random

import pytest

from bvalg.algebra import Element, Generator, GradedMap, Monomial
from bvalg.fields import GF2, QQ
from bvalg.lie import LiePresentation, random_lie_presentation
from bvalg.bv import (InconsistentExtensionError, Undefined, add_derivation_action,
                      bracket_from_operator, bracket_part, bv_operator,
                      check_derivation, extend_morphism, free_bv,
                      free_bv_structure, poisson_bracket, user_bv_structure,
                      verify_bracket_compatibility, verify_bv_axioms,
                      verify_deviation_identity, verify_gerstenhaber,
                      verify_square_zero)
from bvalg.fixtures import loopspace_model, omega2_s3_f2


def gen_elt(field, g, coeff=1):
    return Element.from_generator(field, g, coeff)


def loops24():
    return loopspace_model(2, 4, max_degree=12)


def mixed_differential_structure():
    """d x = y, d z = w, {x,y} = z, {y,y} = w at shift 2 over Q."""
    f = QQ
    gx, gy = Generator("x", 3), Generator("y", 2)
    gz, gw = Generator("z", 6), Generator("w", 5)
    p = LiePresentation(f, 2, [gx, gy, gz, gw],
                        brackets={("x", "y"): gen_elt(f, gz),
                                  ("y", "y"): gen_elt(f, gw)},
                        differential={"x": gen_elt(f, gy), "z": gen_elt(f, gw)})
    return free_bv_structure(p, 10)


# -- Poisson bracket -------------------------------------------------------------


def test_bracket_with_unit_vanishes():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    assert poisson_bracket(s, a, Element.unit(QQ)).is_zero
    assert poisson_bracket(s, Element.unit(QQ), a).is_zero


def test_bracket_extends_by_poisson_relation():
    # {a, b^2} = 2bc from {a,b} = c with |a|=1, |b|=2 at shift 2
    f = QQ
    ga, gb, gc = Generator("a", 1), Generator("b", 2), Generator("c", 4)
    p = LiePresentation(f, 2, [ga, gb, gc], {("a", "b"): gen_elt(f, gc)})
    s = free_bv_structure(p, 10)
    b = gen_elt(f, gb)
    expected = (b * gen_elt(f, gc)).scale(2)
    assert poisson_bracket(s, gen_elt(f, ga), b * b) == expected


def test_bracket_of_generators_matches_table():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    assert poisson_bracket(s, a, a) == gen_elt(QQ, s.presentation.gen("b"))


# -- the two summands of the free operator ----------------------------------------


def test_differential_part_zero_without_differential():
    s = loops24()
    for mono in s.basis(8):
        assert s.d0.apply(Element.from_monomial(QQ, mono)).is_zero


def test_differential_part_single_letter():
    s = mixed_differential_structure()
    x = gen_elt(QQ, s.presentation.gen("x"))
    y = gen_elt(QQ, s.presentation.gen("y"))
    assert s.d0.apply(x) == -y


def test_differential_part_two_letters():
    # d applies to the first letter only when the second is closed
    f = QQ
    gx, gy, gz = Generator("x", 3), Generator("y", 2), Generator("z", 5)
    p = LiePresentation(f, 2, [gx, gy, gz], differential={"x": gen_elt(f, gy)})
    s = free_bv_structure(p, 10)
    xz = gen_elt(f, gx) * gen_elt(f, gz)
    expected = -(gen_elt(f, gy) * gen_elt(f, gz))
    assert s.d0.apply(xz) == expected


def test_bracket_part_vanishes_on_single_letters():
    s = loops24()
    for g in s.generators:
        assert bracket_part(s, gen_elt(QQ, g)).is_zero


def test_bracket_part_on_squares_and_cubes():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    b = gen_elt(QQ, s.presentation.gen("b"))
    assert bracket_part(s, a * a) == b
    assert bracket_part(s, a * a * a) == (a * b).scale(3)


def test_free_bv_values():
    s = loops24()
    a = gen_elt(QQ, s.presentation.gen("a"))
    b = gen_elt(QQ, s.presentation.gen("b"))
    assert free_bv(s, a * a) == b
    assert free_bv(s, a * a * b).is_zero  # lands on b^2 = 0
    assert free_bv(s, a).is_zero
    assert free_bv(s, b).is_zero


def test_free_bv_on_mixed_differential_fixture():
    s = mixed_differential_structure()
    f = QQ
    y = gen_elt(f, s.presentation.gen("y"))
    x = gen_elt(f, s.presentation.gen("x"))
    z = gen_elt(f, s.presentation.gen("z"))
    assert free_bv(s, y * x) == -(y * y) - z


def test_abelian_zero_differential_gives_zero_operator():
    p = LiePresentation(QQ, 2, [Generator("a", 1), Generator("b", 2)])
    s = free_bv_structure(p, 8)
    for mono in s.basis(8):
        assert free_bv(s, Element.from_monomial(QQ, mono)).is_zero


# -- deviation recursion -----------------------------------------------------------


def test_bv_extend_unit_is_zero():
    s = omega2_s3_f2(4)
    assert s.bv_element(Element.unit(GF2)).is_zero


def test_bv_extend_matches_free_operator():
    for s in (loops24(), mixed_differential_structure()):
        values = {g.id: free_bv(s, gen_elt(s.field, g)) for g in s.generators}
        twin = user_bv_structure(s.presentation, s.truncation, values)
        for mono in s.basis(10):
            elt = Element.from_monomial(s.field, mono)
            assert twin.bv_monomial(mono) == free_bv(s, elt), str(mono)


def test_bv_extend_char2_square():
    # with bv(u1) = u1^2 and {u1,u1} = c supplied, the derivation terms cancel
    # mod 2 and bv(u1^2) = c
    f = GF2
    base = omega2_s3_f2(6)
    u1 = base.presentation.gen("u1")
    u2 = base.presentation.gen("u2")
    c = gen_elt(f, u2)
    s = user_bv_structure(base.presentation, 6,
                          bv_values={"u1": Element.from_monomial(f, Monomial(((u1, 2),)))},
                          partial_brackets={("u1", "u1"): c})
    sq = Monomial(((u1, 2),))
    assert s.bv_monomial(sq) == c


def test_bv_extend_reports_blocking_symbol():
    s = omega2_s3_f2(6)
    u1 = s.presentation.gen("u1")
    value = s.bv_monomial(Monomial(((u1, 2),)))
    assert isinstance(value, Undefined)
    assert "u1" in value.blocking


def test_peeling_orders_agree_even_without_jacobi():
    # with an antisymmetric table the recursion is peel-independent even
    # when Jacobi fails: it always equals derivation + pair contraction
    f = GF2
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 1)
    p = LiePresentation(f, 0, [x, y, z],
                        {("x", "y"): gen_elt(f, x), ("y", "z"): gen_elt(f, y)})
    zero = Element.zero(f)
    s = user_bv_structure(p, 5, bv_values={"x": zero, "y": zero, "z": zero})
    mono = Monomial(((x, 1), (y, 1), (z, 1)))
    value = s.bv_monomial(mono)
    assert isinstance(value, Element)


def test_bv_extend_inconsistency_certificate(monkeypatch):
    # the well-definedness audit trips when the two bracket orientations
    # stop being antisymmetric (here injected behind the accessor)
    f = GF2
    x, y = Generator("x", 1), Generator("y", 1)
    p = LiePresentation(f, 0, [x, y])
    zero = Element.zero(f)
    s = user_bv_structure(p, 5, bv_values={"x": zero, "y": zero})

    def broken(g1, g2):
        if (g1.id, g2.id) == ("x", "y"):
            return gen_elt(f, x)
        return Element.zero(f)

    monkeypatch.setattr(s, "bracket_pair", broken)
    mono = Monomial(((x, 1), (y, 1)))
    with pytest.raises(InconsistentExtensionError) as exc:
        s.bv_monomial(mono)
    assert exc.value.monomial == mono
    assert len(exc.value.values) == 2


# -- verifier suites ---------------------------------------------------------------


def test_free_structures_pass_everything():
    for s in (loops24(), mixed_differential_structure()):
        report = verify_bv_axioms(s, 8, 6)
        assert report.passed
        assert report.coverage == 1


def test_square_zero_identities_on_random_presentations():
    rng = random.Random(42)
    for _ in range(3):
        p = random_lie_presentation(rng)
        s = free_bv_structure(p, 8)
        report = verify_square_zero(s, 8)
        assert report.passed, p.name
        assert report.coverage == 1


def test_operator_with_nonzero_square_fails():
    # bv(x) = x^2 on an even generator with zero bracket: bv(bv x) != 0
    f = QQ
    x = Generator("x", 2)
    p = LiePresentation(f, 3, [x])
    s = user_bv_structure(p, 8, bv_values={"x": Element.from_monomial(f, Monomial(((x, 2),)))})
    report = verify_square_zero(s, 8)
    assert not report.passed
    cert = next(c.certificate for c in report.checks if c.verdict == "fail")
    assert cert["input"] == "x"


def test_deviation_identity_fails_on_conflicting_stored_values():
    # storing bv(x^2) = 0 alongside bv(x) = x^2 contradicts the recursion:
    # {x,x} = 0 but bv(x^2) - 2x bv(x) = -2x^3
    f = QQ
    x = Generator("x", 2)
    p = LiePresentation(f, 3, [x])
    sq = Monomial(((x, 2),))
    s = user_bv_structure(p, 8, bv_values={
        "x": Element.from_monomial(f, sq),
        sq: Element.zero(f),
    })
    report = verify_deviation_identity(s, 8)
    assert not report.passed
    cert = next(c.certificate for c in report.checks if c.verdict == "fail")
    assert cert["a"] == "x" and cert["b"] == "x"


def test_partial_structure_coverage_below_one():
    s = omega2_s3_f2(4)
    report = verify_bv_axioms(s)
    assert report.passed
    assert report.coverage < 1
    assert str(report.details.get("bv(u1)")) == "u1^2"


def test_gerstenhaber_suite_on_fixture():
    report = verify_gerstenhaber(loops24(), 8, 8)
    assert report.passed
    assert report.coverage == 1


def test_bracket_compatibility_on_fixture():
    report = verify_bracket_compatibility(mixed_differential_structure(), 8)
    assert report.passed


# -- universal property -------------------------------------------------------------


def test_identity_assignment_extends():
    s = loops24()
    assignment = {g.id: gen_elt(QQ, g) for g in s.generators}
    extension, report = extend_morphism(assignment, s, s, max_degree=8)
    assert report.passed and extension is not None
    for mono in s.basis(6):
        assert extension.value(mono) == Element.from_monomial(QQ, mono)


def test_collapsing_morphism_needs_bracket_compatibility():
    source = loops24()
    abelian = LiePresentation(QQ, 2, [Generator("a", 2), Generator("b", 5)])
    target = free_bv_structure(abelian, 12)
    # b must die because {a,a} = b in the source while the target bracket is 0
    good = {"a": gen_elt(QQ, target.presentation.gen("a")), "b": Element.zero(QQ)}
    extension, report = extend_morphism(good, source, target, max_degree=8)
    assert report.passed and extension is not None
    bad = {"a": gen_elt(QQ, target.presentation.gen("a")),
           "b": gen_elt(QQ, target.presentation.gen("b"))}
    extension, report = extend_morphism(bad, source, target, max_degree=8)
    assert extension is None
    cert = next(c.certificate for c in report.checks
                if c.name == "morphism-brackets" and c.verdict == "fail")
    assert cert["pair"] == "[a,a]"


def test_degree_mismatch_rejected():
    s = loops24()
    bad = {"a": gen_elt(QQ, s.presentation.gen("b")), "b": Element.zero(QQ)}
    extension, report = extend_morphism(bad, s, s, max_degree=6)
    assert extension is None
    assert report.checks[0].name == "morphism-degrees"
    assert report.checks[0].verdict == "fail"


# -- sums with derivations ------------------------------------------------------------


def test_adding_zero_derivation_keeps_everything():
    s = loops24()
    base = bv_operator(s)
    zero = GradedMap.zero(QQ, 1)
    total, report = add_derivation_action(base, zero, s.generators, 8)
    assert report.passed
    for mono in s.basis(6):
        assert total.value(mono) == base.value(mono)


def test_derivation_does_not_change_extracted_bracket():
    from bvalg.algebra import derivation_from_generator_values
    s = loops24()
    base = bv_operator(s)
    a = s.presentation.gen("a")
    b = s.presentation.gen("b")
    # a degree-1 derivation: b -> a^3
    cubed = Element.from_monomial(QQ, Monomial(((a, 3),)))
    der = derivation_from_generator_values(QQ, {"b": cubed}, degree=1)
    total, report = add_derivation_action(base, der, s.generators, 10)
    assert report.passed
    # a degree-3 derivation: a -> b (inhomogeneous sum, bracket still fixed)
    der2 = derivation_from_generator_values(QQ, {"a": gen_elt(QQ, b)}, degree=3)
    total2, report2 = add_derivation_action(base, der2, s.generators, 10)
    assert report2.passed
    assert total2.degree is None


def test_multiplicative_extension_fails_derivation_law():
    s = loops24()
    a = s.presentation.gen("a")

    def multiplicative(mono):
        if mono.is_unit:
            return Element.zero(QQ)
        out = Element.unit(QQ)
        for g in mono.word():
            image = (Element.from_monomial(QQ, Monomial(((a, 2),)))
                     if g.id == "a" else Element.zero(QQ))
            out = out * image
        return out

    op = GradedMap(QQ, None, rule=multiplicative)
    report = check_derivation(op, s.generators, 6, op_degree=2)
    assert not report.passed
    cert = report.checks[0].certificate
    assert cert["a"] == "a" and cert["b"] == "a"


def test_bracket_from_operator_recovers_table():
    s = loops24()
    op = bv_operator(s)
    a = s.presentation.gen("a")
    mono_a = Monomial(((a, 1),))
    extracted = bracket_from_operator(QQ, op.value, mono_a, mono_a)
    assert extracted == gen_elt(QQ, s.presentation.gen("b"))
