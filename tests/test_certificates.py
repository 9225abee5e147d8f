"""The order of every failing check's certificate.

The JSON goldens sort keys, but the human report prints a certificate in
insertion order: the inputs first, then the sides of the failed identity.
These tests pin that order, as (key, value) pairs, for the failing shipped
inputs through the CLI and for the failing checks that only the API reaches.
"""

import contextlib
import io
import os

import pytest

from bvalg.algebra import Element, Generator, Monomial, normalize_word
from bvalg.bv import BVStructure, verify_gerstenhaber, verify_square_zero
from bvalg.cli import main
from bvalg.fields import QQ
from bvalg.fixtures import loopspace_model
from bvalg.hopf import GradedMap, add_derivation_action, bv_operator, is_coderivation
from bvalg.lie import LiePresentation, check_antisymmetry, check_lie_axioms

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def cli_certificates(verb, stem):
    """(check, [(key, value), ...]) per failing check, read from the human
    report, where a certificate's lines follow its FAIL line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([verb, os.path.join(DATA, stem + ".lie")])
    found = []
    for line in out.getvalue().splitlines():
        if line.startswith("FAIL "):
            found.append((line.split()[1], []))
        elif line.startswith("        ") and found:
            key, value = line.strip().split(": ", 1)
            found[-1][1].append((key, value))
    return found


def certificates(checks):
    return [(c.name, list(c.certificate.items())) for c in checks if c.certificate]


CLI_CASES = {
    ("check-bv", "bad_bv"): [
        ("bv-squared", [("input", "x"), ("value", "2*x^3")])],
    ("check-bv", "bad_jacobi"): [
        ("d1-squared", [("input", "x*y*z"), ("value", "-x")]),
        ("bv-squared", [("input", "x*y*z"), ("value", "-x")]),
        ("bv-bracket-compatibility", [("a", "x"), ("b", "y*z"), ("bv{a,b}", "0"),
                                      ("{bv a,b} + sign*{a,bv b}", "-x")]),
        ("bracket-jacobi", [("triple", "(x,y,z)"), ("{a,{b,c}}", "x"),
                            ("{{a,b},c} + sign*{b,{a,c}}", "0")])],
    ("check-lie", "bad_jacobi"): [
        ("bracket-jacobi", [("triple", "(x,y,z)"), ("lhs {x,{y,z}}", "x"),
                            ("rhs {{x,y},z} + sign*{y,{x,z}}", "0")])],
    ("ce-homology", "bad_jacobi"): [
        ("boundary-squared", [("grade", "3"), ("input", "x*y*z"),
                              ("d(d(input))", "-x")])],
    ("check-bv", "bad_antisymmetry"): [
        ("bv-deviation-is-bracket", [("a", "a"), ("b", "a"), ("bracket", "a"),
                                     ("operator deviation", "0")]),
        ("bv-bracket-compatibility", [("a", "a"), ("b", "a*b"), ("bv{a,b}", "-2*b"),
                                      ("{bv a,b} + sign*{a,bv b}", "-b")]),
        ("bracket-antisymmetry", [("a", "a"), ("b", "a"), ("{a,b}", "a"),
                                  ("-sign*{b,a}", "-a")]),
        ("bracket-jacobi", [("triple", "(a,a,a)"), ("{a,{b,c}}", "a"),
                            ("{{a,b},c} + sign*{b,{a,c}}", "2*a")])],
    ("check-lie", "bad_antisymmetry"): [
        ("bracket-antisymmetry", [("pair", "[a,a]"),
                                  ("constraint", "even shifted parity forces {x,x} = 0"),
                                  ("value", "a")]),
        ("bracket-jacobi", [("triple", "(a,a,a)"), ("lhs {x,{y,z}}", "a"),
                            ("rhs {{x,y},z} + sign*{y,{x,z}}", "2*a")])],
    ("ce-homology", "bad_antisymmetry"): [
        ("bracket-antisymmetry", [("pair", "[a,a]"),
                                  ("constraint", "even shifted parity forces {x,x} = 0"),
                                  ("value", "a")])],
    ("check-bv", "odd_shift_bv"): [
        ("bv-deviation-is-bracket", [("a", "y"), ("b", "x"), ("bracket", "z"),
                                     ("operator deviation", "-z")])],
}


@pytest.mark.parametrize("verb, stem", sorted(CLI_CASES))
def test_shipped_failures_print_inputs_then_sides(verb, stem):
    assert cli_certificates(verb, stem) == CLI_CASES[(verb, stem)]


# -- failing checks reached through the API -----------------------------------------


def gen_elt(g):
    return Element.from_generator(QQ, g)


def loops24():
    return loopspace_model(2, 4, max_degree=12)


def a_powers_op(s):
    """The multiplicative map a -> a, b -> 0, with 1 -> 0: of degree 0, and
    not a derivation."""
    a = s.presentation.gen("a")

    def rule(mono):
        if mono.is_unit:
            return Element.zero(QQ)
        out = Element.unit(QQ)
        for g in mono.word():
            out = out * (gen_elt(a) if g.id == "a" else Element.zero(QQ))
        return out

    return GradedMap(QQ, 0, rule=rule)


def derivation_checks():
    s = loops24()
    return add_derivation_action(bv_operator(s), a_powers_op(s), s.generators, 6).checks


def coderivation_checks():
    x, y = Generator("x", 1), Generator("y", 1)
    not_primitive = GradedMap(QQ, 2, rule=lambda m: normalize_word(QQ, (x, y) + m.word()))
    return is_coderivation(not_primitive, [x, y], 6).checks


def square_zero_checks():
    # d x = y, d y = w: d0 squares to w on x
    x, y, w = Generator("x", 3), Generator("y", 2), Generator("w", 1)
    p = LiePresentation(QQ, 2, [x, y, w],
                        differential={"x": gen_elt(y), "y": gen_elt(w)})
    return verify_square_zero(BVStructure(p, 6)).checks


def poisson_checks():
    # a wrong cached value of {a, a^2} breaks the Poisson relation
    s = loopspace_model(2, 4, max_degree=6)
    a = s.letters[s.presentation.gen("a")]
    s._bracket_cache[(a, Monomial(((s.presentation.gen("a"), 2),)))] = Element.zero(QQ)
    return verify_gerstenhaber(s).checks


def lie_differential_checks():
    # d x = y and d y = v square to v; {x,y} = z with d z = w needs {y,y} = w
    x, y, z, w, v = (Generator("x", 3), Generator("y", 2), Generator("z", 6),
                     Generator("w", 5), Generator("v", 1))
    p = LiePresentation(QQ, 2, [x, y, z, w, v], brackets={("x", "y"): gen_elt(z)},
                        differential={"x": gen_elt(y), "y": gen_elt(v), "z": gen_elt(w)})
    return check_lie_axioms(p).checks


def lie_antisymmetry_checks():
    # {x,y} = x read one way and 0 the other, injected into the letter pairs
    x, y = Generator("x", 2), Generator("y", 2)
    p = LiePresentation(QQ, 1, [x, y])
    p.pairs[x, y] = gen_elt(x)
    return check_antisymmetry(p).checks


API_CASES = {
    "derivation": (derivation_checks, [
        ("derivation-law", [("a", "a"), ("b", "a"), ("op(ab)", "a^2"),
                            ("op(a)b + sign*a op(b)", "2*a^2")]),
        ("bracket-unchanged-by-derivation", [("a", "a"), ("b", "a"),
                                             ("bracket of sum", "-a^2 + b"),
                                             ("bracket of base", "b")])]),
    "coderivation": (coderivation_checks, [
        ("coderivation", [
            ("input", "1"),
            ("coproduct of image",
             "1*[1 (x) x*y] + 1*[x (x) y] + -1*[y (x) x] + 1*[x*y (x) 1]"),
            ("coderivation expansion", "1*[1 (x) x*y] + 1*[x*y (x) 1]")])]),
    "square-zero": (square_zero_checks, [
        ("d0-squared", [("input", "x"), ("value", "w")]),
        ("bv-squared", [("input", "x"), ("value", "w")])]),
    "poisson": (poisson_checks, [
        ("bracket-antisymmetry", [("a", "a"), ("b", "a^2"), ("{a,b}", "0"),
                                  ("-sign*{b,a}", "2*a*b")]),
        ("poisson-relation", [("triple", "(a,a,a)"), ("{a,bc}", "0"),
                              ("{a,b}c + sign*b{a,c}", "2*a*b")])]),
    "lie-differential": (lie_differential_checks, [
        ("differential-squared", [("generator", "x"), ("d(d(x))", "v")]),
        ("differential-bracket-derivation", [("pair", "[x,y]"), ("d{x,y}", "w"),
                                             ("{dx,y} + sign*{x,dy}", "0")])]),
    "lie-antisymmetry": (lie_antisymmetry_checks, [
        ("bracket-antisymmetry", [("pair", "[x,y]"), ("lhs", "x"), ("rhs", "0")])]),
}


@pytest.mark.parametrize("case", sorted(API_CASES))
def test_api_failures_list_inputs_then_sides(case):
    build, expected = API_CASES[case]
    assert certificates(build()) == expected
