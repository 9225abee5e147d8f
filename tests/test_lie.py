import pytest
from hypothesis import given, settings, strategies as st

from bvalg.algebra import Element, Generator, Monomial
from bvalg.fields import GF2, QQ
from bvalg.lie import LiePresentation, check_differential, check_lie_axioms, desuspend

from strategies import seeded_structures, structures


def gen_elt(field, g, coeff=1):
    return Element.from_monomial(field, Monomial(((g, 1),)), coeff)


def sphere_like(field=QQ):
    """a(3), b(6), {a,a} = b at shift 1 (degree-0 bracket)."""
    a, b = Generator("a", 3), Generator("b", 6)
    return LiePresentation(field, 1, [a, b], {("a", "a"): gen_elt(field, b)})


def test_abelian_passes():
    p = LiePresentation(QQ, 2, [Generator("a", 1), Generator("b", 4)])
    assert check_lie_axioms(p).passed


def test_sphere_like_passes_at_shift_one():
    assert check_lie_axioms(sphere_like()).passed


def test_desuspended_sphere_passes_at_shift_two():
    p = desuspend(sphere_like(), 2)
    assert [(g.id, g.degree) for g in p.generators] == [("a", 2), ("b", 5)]
    assert check_lie_axioms(p).passed
    # the carried table reads through the shift
    a = p.gen("a")
    assert str(p.pairs[a, a]) == "b"


def test_degree_mismatch_is_structural_error():
    # inserting {a,b} = a violates the degree rule: 2 + 5 + 1 = 8, got 2
    a, b = Generator("a", 2), Generator("b", 5)
    with pytest.raises(ValueError, match=r"^bracket \[a,b\]: degree 8 expected, got 2$"):
        LiePresentation(QQ, 2, [a, b], {("a", "a"): gen_elt(QQ, b),
                                        ("a", "b"): gen_elt(QQ, a)})


def test_duplicate_generator_ids_are_refused():
    with pytest.raises(ValueError, match="^duplicate generator ids$"):
        LiePresentation(QQ, 2, [Generator("a", 2), Generator("a", 3)])


def test_value_naming_an_unknown_generator_is_refused():
    # c has the expected degree 2 + 2 + 1 = 5 but is not a generator of the presentation
    a, b = Generator("a", 2), Generator("b", 5)
    with pytest.raises(ValueError, match=r"^bracket \[a,a\]: unknown generator 'c'$"):
        LiePresentation(QQ, 2, [a, b], {("a", "a"): gen_elt(QQ, Generator("c", 5))})


@pytest.mark.parametrize("table, key", [("brackets", ("a", "z")), ("differential", "z")])
def test_undeclared_id_in_a_table_key_is_refused(table, key):
    with pytest.raises(ValueError, match="^unknown generator 'z'$"):
        LiePresentation(QQ, 2, [Generator("a", 2)], **{table: {key: Element.zero(QQ)}})


def test_even_parity_self_bracket_forced_to_zero():
    # |x| + n - 1 = 2 is even, so {x,x} must vanish away from char 2
    x, y = Generator("x", 2), Generator("y", 4)
    table = {("x", "x"): gen_elt(QQ, y)}
    p = LiePresentation(QQ, 1, [x, y], table)
    report = check_lie_axioms(p)
    assert not report.passed
    assert any(c.name == "bracket-antisymmetry" and c.verdict == "fail"
               for c in report.checks)
    # over F2 the same table is allowed
    x2, y2 = Generator("x", 2), Generator("y", 4)
    p2 = LiePresentation(GF2, 1, [x2, y2], {("x", "x"): gen_elt(GF2, y2)})
    assert check_lie_axioms(p2).passed


def test_jacobi_violation_reported_with_triple():
    # degree-0 generators, {x,y} = x, {y,z} = y: {x,{y,z}} = x but the
    # right-hand side vanishes
    x, y, z = Generator("x", 0), Generator("y", 0), Generator("z", 0)
    p = LiePresentation(QQ, 1, [x, y, z],
                        {("x", "y"): gen_elt(QQ, x), ("y", "z"): gen_elt(QQ, y)})
    report = check_lie_axioms(p)
    assert not report.passed
    cert = next(c.certificate for c in report.checks
                if c.name == "bracket-jacobi" and c.verdict == "fail")
    assert cert["triple"] == "(x,y,z)"


def test_zero_differential_passes():
    p = sphere_like()
    assert check_differential(p).passed


def test_differential_on_abelian_pair():
    x, y = Generator("x", 2), Generator("y", 1)
    p = LiePresentation(QQ, 1, [x, y], differential={"x": gen_elt(QQ, y)})
    assert check_differential(p).passed


def test_differential_degree_error():
    # d a = b needs |b| = |a| - 1 = 2; 6 fails
    p = sphere_like()
    with pytest.raises(ValueError, match="^differential of a: degree 2 expected, got 6$"):
        LiePresentation(QQ, 1, list(p.generators), dict(p.brackets),
                        {"a": gen_elt(QQ, p.gen("b"))})


def test_ill_graded_differential_is_refused_before_any_suite():
    # d x = y with |y| = 1, where |x| - 1 = 2: no suite gets a verdict on it
    x, y = Generator("x", 3), Generator("y", 1)
    with pytest.raises(ValueError, match="^differential of x: degree 2 expected, got 1$"):
        LiePresentation(QQ, 2, [x, y], differential={"x": gen_elt(QQ, y)})


def test_differential_square_must_vanish():
    x, y, w = Generator("x", 2), Generator("y", 1), Generator("w", 0)
    p = LiePresentation(QQ, 1, [x, y, w],
                        differential={"x": gen_elt(QQ, y), "y": gen_elt(QQ, w)})
    report = check_differential(p)
    assert any(c.name == "differential-squared" and c.verdict == "fail"
               for c in report.checks)


def test_differential_derivation_with_nonzero_bracket():
    # d x = y, d z = w forces {y,y} = w once {x,y} = z is present
    f = QQ
    gx, gy = Generator("x", 3), Generator("y", 2)
    gz, gw = Generator("z", 6), Generator("w", 5)
    p = LiePresentation(f, 2, [gx, gy, gz, gw],
                        brackets={("x", "y"): gen_elt(f, gz),
                                  ("y", "y"): gen_elt(f, gw)},
                        differential={"x": gen_elt(f, gy), "z": gen_elt(f, gw)})
    assert check_lie_axioms(p).passed
    assert check_differential(p).passed
    # dropping {y,y} = w breaks the derivation law
    broken = LiePresentation(f, 2, [gx, gy, gz, gw],
                             brackets={("x", "y"): gen_elt(f, gz)},
                             differential={"x": gen_elt(f, gy),
                                           "z": gen_elt(f, gw)})
    report = check_differential(broken)
    assert any(c.name == "differential-bracket-derivation" and c.verdict == "fail"
               for c in report.checks)


def test_desuspend_examples():
    p = sphere_like()
    assert desuspend(p, 1) == p or [(g.id, g.degree) for g in desuspend(p, 1).generators] \
        == [("a", 3), ("b", 6)]
    shifted = desuspend(p, 2)
    assert shifted.gen("a").degree == 2
    assert shifted.gen("b").degree == 5


def test_desuspend_rejects_negative_degrees():
    p = LiePresentation(QQ, 1, [Generator("a", 1)])
    with pytest.raises(ValueError):
        desuspend(p, 3)


def test_suspension_raises_degrees_for_shift_zero():
    # moving an ungraded (degree-0) presentation to shift 0 adds one
    p = LiePresentation(QQ, 1, [Generator("x", 0)])
    assert desuspend(p, 0).gen("x").degree == 1


def test_bracket_accessor_derives_other_orientation():
    p = desuspend(sphere_like(), 2)
    # {b,a} = -(-1)^((5+1)(2+1)) {a,b} and {a,b} = 0 here
    assert p.pairs[p.gen("b"), p.gen("a")].is_zero
    f = QQ
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 3)
    q = LiePresentation(f, 2, [x, y, z], {("x", "y"): gen_elt(f, z)})
    assert q.pairs[y, x] == gen_elt(f, z, -1)


def test_duplicate_bracket_orientations_rejected():
    f = QQ
    x, y, z = Generator("x", 1), Generator("y", 1), Generator("z", 3)
    with pytest.raises(ValueError):
        LiePresentation(f, 2, [x, y, z], {("x", "y"): gen_elt(f, z),
                                          ("y", "x"): gen_elt(f, z)})


@settings(max_examples=20, deadline=None)
@given(structures(), st.randoms(use_true_random=False))
def test_checker_invariant_under_generator_permutation(s, rng):
    p = s.presentation
    verdict = check_lie_axioms(p).passed
    gens = list(p.generators)
    rng.shuffle(gens)
    shuffled = LiePresentation(p.field, p.shift, gens, dict(p.brackets),
                               dict(p.differential))
    assert check_lie_axioms(shuffled).passed == verdict
    assert verdict


def test_random_presentations_pass_their_own_checks():
    for _, s in zip(range(5), seeded_structures(7)):
        p = s.presentation
        assert check_lie_axioms(p).passed
        if p.differential:
            assert check_differential(p).passed
