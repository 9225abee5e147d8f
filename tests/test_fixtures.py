import contextlib
import io
import json

import pytest

from bvalg.algebra import Element, Generator, Monomial
from bvalg.fields import FieldSpec, GF2, QQ
from bvalg.lie import check_lie_axioms
from bvalg.bv import OutOfWindow, Undefined, free_bv, poisson_bracket, verify_bv_axioms
from bvalg.cli import main
from bvalg.fixtures import (StructureDescriptor, framed_disks_descriptor, load_fixture,
                            loopspace_model, omega2_s3_f2, spherical_bv, sphere_loop_lie)

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def test_sphere_lie_odd_is_abelian():
    p = sphere_loop_lie(3)
    assert [(g.id, g.degree) for g in p.generators] == [("a", 2)]
    assert not p.brackets
    assert check_lie_axioms(p).passed


def test_sphere_lie_even_has_self_bracket():
    p = sphere_loop_lie(4)
    assert [(g.id, g.degree) for g in p.generators] == [("a", 3), ("b", 6)]
    a, b = p.generators
    assert str(p.pairs[a, a]) == "b"
    assert p.pairs[a, b].is_zero
    q = sphere_loop_lie(2)
    assert [(g.id, g.degree) for g in q.generators] == [("a", 1), ("b", 2)]


@pytest.mark.parametrize("m", range(2, 9))
def test_sphere_lie_always_passes_axioms(m):
    assert check_lie_axioms(sphere_loop_lie(m)).passed


def test_loopspace_model_2_4():
    s = loopspace_model(2, 4)
    assert [(g.id, g.degree) for g in s.generators] == [("a", 2), ("b", 5)]
    a = Element.from_generator(QQ, s.presentation.gen("a"))
    b = Element.from_generator(QQ, s.presentation.gen("b"))
    assert free_bv(s, a).is_zero
    assert free_bv(s, b).is_zero
    assert free_bv(s, a * a) == b


def test_loopspace_model_odd_n_has_no_operator():
    s = loopspace_model(3, 4)
    # degree rule: 3 - 2 = 1 and 6 - 2 = 4
    assert [(g.id, g.degree) for g in s.generators] == [("a", 1), ("b", 4)]
    assert not s.has_bv
    assert isinstance(s.bv_monomial(Monomial(((s.presentation.gen("a"), 1),))),
                      Undefined)


def test_loopspace_model_2_3_exterior():
    s = loopspace_model(2, 3)
    assert [(g.id, g.degree) for g in s.generators] == [("a", 1)]
    for mono in s.basis():
        assert free_bv(s, Element.from_monomial(QQ, mono)).is_zero


def test_loopspace_model_rejects_small_spheres():
    with pytest.raises(ValueError):
        loopspace_model(2, 2)
    with pytest.raises(ValueError):
        loopspace_model(4, 3)


def test_rational_spherical_vanishing_with_full_verification():
    for n in (2, 4):
        for m in (n + 1, n + 2):
            s = loopspace_model(n, m, max_degree=8)
            for g in s.generators:
                assert free_bv(s, Element.from_generator(QQ, g)).is_zero
            report = verify_bv_axioms(s)
            assert report.passed and report.coverage == "1"


def test_descriptor_table_matches_orthogonal_groups():
    expected = {
        2: (1, [(1, "bv")]),
        3: (None, [(3, "trivial")]),
        4: (3, [(3, "trivial"), (3, "bv")]),
        5: (None, [(3, "trivial"), (7, "trivial")]),
        6: (5, [(3, "trivial"), (7, "trivial"), (5, "bv")]),
    }
    for n, (bv_degree, gens) in expected.items():
        d = framed_disks_descriptor(n, QQ)
        assert d.bv_degree == bv_degree
        assert d.has_bv == (n % 2 == 0)
        assert d.bracket_degree == n - 1
        assert [(g.degree, g.action) for g in d.so_generators] == gens
        assert d.spherical_bv_vanishes


def test_descriptor_char2_and_errors():
    d = framed_disks_descriptor(2, GF2)
    assert d.has_bv and not d.spherical_bv_vanishes
    d3 = framed_disks_descriptor(2, F3)
    assert d3.has_bv and d3.spherical_bv_vanishes
    with pytest.raises(ValueError):
        framed_disks_descriptor(3, GF2)
    with pytest.raises(ValueError):
        framed_disks_descriptor(1, QQ)


def test_descriptor_stable_case():
    d = framed_disks_descriptor("infinity", QQ)
    assert not d.has_bv
    assert [g.degree for g in d.so_generators] == [3, 7, 11, 15]
    assert all(g.action == "trivial" for g in d.so_generators)


def test_spherical_bv_away_from_char_two_is_zero():
    u1 = Generator("u1", 1)
    composite = Element.from_monomial(GF2, Monomial(((u1, 2),)))
    for field in (F3, F5):
        for image in (composite, Element.zero(GF2)):
            assert spherical_bv(image, field) == Element.zero(field)


def test_spherical_bv_char_two_uses_stored_composite():
    u1 = Generator("u1", 1)
    composite = Element.from_monomial(GF2, Monomial(((u1, 2),)))
    assert spherical_bv(composite, GF2) == composite
    assert spherical_bv(Element.zero(GF2), GF2).is_zero


@pytest.mark.parametrize("field", [QQ, GF2, F3, F5], ids=str)
def test_fd_fixture_states_the_spherical_rule(field):
    # the descriptor's flag is what spherical_bv does to a nonzero composite
    composite = Element.from_generator(field, Generator("y", 2))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fixture", f"fd:2:{field}", "--format", "json"]) == 0
    vanishes = json.loads(out.getvalue())["details"]["spherical-bv-vanishes"]
    assert vanishes == str(spherical_bv(composite, field).is_zero).lower()


def test_omega2_generators_and_bottom_value():
    s = omega2_s3_f2(2)
    assert [(g.id, g.degree) for g in s.generators] == [("u1", 1)]
    assert [str(m) for m in s.basis()] == ["1", "u1", "u1^2"]
    u1 = s.presentation.gen("u1")
    value = s.bv_monomial(Monomial(((u1, 1),)))
    assert value == Element.from_monomial(GF2, Monomial(((u1, 2),)))


def test_omega2_window_flag_at_degree_one():
    s = omega2_s3_f2(1)
    u1 = s.presentation.gen("u1")
    marker = s.bv_monomial(Monomial(((u1, 1),)))
    assert isinstance(marker, OutOfWindow)
    assert (marker.degree, marker.limit) == (2, 1)
    assert verify_bv_axioms(s).details == {}


def test_omega2_generator_ladder():
    s = omega2_s3_f2(7)
    assert [(g.id, g.degree) for g in s.generators] == [("u1", 1), ("u2", 3), ("u3", 7)]


@pytest.mark.parametrize("window", [2, 3])
def test_omega2_exactly_one_defined_value_in_small_windows(window):
    details = verify_bv_axioms(omega2_s3_f2(window)).details
    assert {key: str(value) for key, value in details.items()} == {"bv(u1)": "u1^2"}


def test_omega2_partial_brackets_are_undefined():
    s = omega2_s3_f2(4)
    u1 = s.presentation.gen("u1")
    u1_elt = Element.from_generator(GF2, u1)
    assert isinstance(poisson_bracket(s, u1_elt, u1_elt), Undefined)
    report = verify_bv_axioms(s)
    assert report.passed and report.coverage != "1"


def test_fixture_registry():
    assert load_fixture("sphere-lie:4") == sphere_loop_lie(4)
    assert load_fixture("loopspace:2:4", 8).truncation == 8
    assert load_fixture("omega2-s3-f2", 3).generators == omega2_s3_f2(3).generators
    assert isinstance(load_fixture("fd:3:Q"), StructureDescriptor)
    assert isinstance(load_fixture("fd:infinity:Q"), StructureDescriptor)
    with pytest.raises(ValueError, match="^unknown fixture 'nonsense'$"):
        load_fixture("nonsense")
