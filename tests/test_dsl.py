import glob
import os
import random
from fractions import Fraction

import pytest

from bvalg.algebra import Element
from bvalg.fields import QQ
from bvalg.lie import LiePresentation, desuspend
from bvalg.dsl import (ParseError, PresentationSource, parse_element_text,
                       parse_presentation, render_presentation)
from bvalg.fixtures import sphere_loop_lie

from strategies import seeded_structures

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

LOOPS2_S4 = """\
field Q
shift n=2
gen a : 2
gen b : 5
bracket [a,a] = b
truncate 12
"""


def test_parse_loopspace_presentation():
    source = parse_presentation(LOOPS2_S4)
    assert source.presentation.field == QQ
    assert source.presentation.shift == 2
    assert [(g.id, g.degree) for g in source.presentation.generators] == [("a", 2), ("b", 5)]
    assert source.truncate == 12
    # this is exactly the once-desuspended sphere presentation
    expected = desuspend(sphere_loop_lie(4), 2)
    parsed = source.to_lie_presentation()
    assert parsed.generators == expected.generators
    assert parsed.brackets == expected.brackets


def test_negative_degree_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nshift n=2\ngen a : -1\n")
    [diag] = exc.value.diagnostics
    assert diag.line == 3
    assert diag.message == "degree must be >= 0"


def test_bracket_degree_diagnostic():
    text = "field Q\nshift n=2\ngen a : 3\ngen b : 6\nbracket [a,b] = a\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    [diag] = exc.value.diagnostics
    assert diag.line == 5
    assert diag.message == "bracket degree 10 expected, got 3"


def test_undeclared_symbol_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nshift n=1\ngen a : 2\nbracket [a,c] = a\n")
    [diag] = exc.value.diagnostics
    assert diag.line == 4
    assert "undeclared symbol 'c'" in diag.message


def test_malformed_number_diagnostic():
    text = "field Q\nshift n=1\ngen a : 2\ngen b : 4\nbracket [a,a] = 1/0*b\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    [diag] = exc.value.diagnostics
    assert diag.line == 5
    assert "malformed number" in diag.message


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError) as exc:
        parse_presentation("field Q\nshift n=1\ngen a : 2\ngen a : 3\n")
    assert "duplicate generator" in exc.value.diagnostics[0].message
    with pytest.raises(ParseError):
        parse_presentation("field Q\nfield Q\nshift n=1\n")


def test_bracket_value_must_be_linear():
    text = "field Q\nshift n=1\ngen a : 2\ngen b : 4\nbracket [a,a] = a*a\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert "linear combination" in exc.value.diagnostics[0].message


def test_missing_headers_reported():
    with pytest.raises(ParseError) as exc:
        parse_presentation("gen a : 2\n")
    messages = [d.message for d in exc.value.diagnostics]
    assert any("field" in m for m in messages)
    assert any("shift" in m for m in messages)


def test_all_errors_collected():
    text = "field Q\nshift n=2\ngen a : -1\ngen b : 6\nbracket [a,c] = b\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert len(exc.value.diagnostics) == 2
    assert [d.line for d in exc.value.diagnostics] == [3, 5]


def test_diff_and_bv_lines_parse_with_degree_checks():
    text = ("field Q\nshift n=2\ngen x : 3\ngen y : 2\ngen z : 6\ngen w : 5\n"
            "bracket [x,y] = z\nbracket [y,y] = w\ndiff d x = y\ndiff d z = w\n")
    source = parse_presentation(text)
    assert str(source.presentation.differential["x"]) == "y"
    bad_diff = "field Q\nshift n=2\ngen x : 3\ngen z : 6\ndiff d x = z\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(bad_diff)
    assert exc.value.diagnostics[0].message == "differential degree 2 expected, got 6"
    bad_bv = "field F2\nshift n=2\ngen u1 : 1\nbv u1 = u1\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(bad_bv)
    assert exc.value.diagnostics[0].message == "bv degree 2 expected, got 1"


def test_bv_line_round_trip_char2():
    text = "field F2\nshift n=2\ngen u1 : 1\nbv u1 = u1^2\ntruncate 4\n"
    source = parse_presentation(text)
    assert str(source.bv_values["u1"]) == "u1^2"
    again = parse_presentation(render_presentation(source))
    assert again == source


def test_field_name_and_characteristic_may_be_two_tokens():
    source = parse_presentation("field F 7\nshift n=1\ngen a : 2\n")
    assert str(source.presentation.field) == "F7"


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nfield Q\nshift n=1  # trailing\ngen a : 2\n"
    source = parse_presentation(text)
    assert source.presentation.shift == 1


def test_round_trip_on_shipped_fixtures():
    paths = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.lie")))
    assert len(paths) >= 4
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = parse_presentation(fh.read())
        rendered = render_presentation(source)
        assert parse_presentation(rendered) == source
        # rendering is a fixed point
        assert render_presentation(parse_presentation(rendered)) == rendered


def test_round_trip_on_random_presentations():
    for _, s in zip(range(6), seeded_structures(11)):
        p = s.presentation
        generators = sorted(p.generators, key=lambda g: g.sort_key)
        source = PresentationSource(LiePresentation(p.field, p.shift, generators,
                                                    p.brackets, p.differential),
                                    {}, truncate=8)
        rendered = render_presentation(source)
        assert parse_presentation(rendered) == source


def test_element_expression_parsing():
    source = parse_presentation(LOOPS2_S4)
    a, b = source.presentation.generators
    ea = Element.from_generator(QQ, a)
    eb = Element.from_generator(QQ, b)
    assert parse_element_text("a^2", source) == ea * ea
    assert parse_element_text("2*a*b - a^2", source) == (ea * eb).scale(2) - ea * ea
    assert parse_element_text("-1/2*a", source) == ea.scale(Fraction(-1, 2))
    assert parse_element_text("0", source).is_zero
    assert parse_element_text("3", source) == Element.unit(QQ, 3)
    with pytest.raises(ParseError):
        parse_element_text("a + q", source)


def test_element_render_parse_round_trip():
    source = parse_presentation(LOOPS2_S4)
    rng = random.Random(5)
    from bvalg.algebra import monomial_basis
    basis = monomial_basis(QQ, source.presentation.generators, 9)
    for _ in range(25):
        element = Element.zero(QQ)
        for mono in rng.sample(basis, k=min(3, len(basis))):
            element = element + Element.from_monomial(
                QQ, mono, QQ.coerce(rng.choice([-2, -1, 1, 2, 3])) / rng.choice([1, 2, 3]))
        assert parse_element_text(str(element), source) == element


_H = "field Q\nshift n=2\n"
_G = _H + "gen a : 2\ngen b : 5\n"
_LONG = "9" * 5000  # more digits than int() accepts from a string

# One input per distinct parser message: (id, presentation text, element text or None,
# the exact (line, column, message) list).  Element text goes to parse_element_text.
DIAGNOSTIC_CASES = [
    ("unexpected-character", _H + "gen a : 2 !", None,
     [(3, 11, "unexpected character '!'")]),
    ("expected-statement", _H + "2 a", None, [(3, 1, "expected statement")]),
    ("unknown-statement", _H + "foo a", None, [(3, 1, "unknown statement 'foo'")]),
    ("trailing-input", _H + "gen a : 2 3", None, [(3, 11, "trailing input")]),
    ("expected-field-name", "field 2\nfield Q\nshift n=2", None,
     [(1, 7, "expected field name (Q or F<p>)")]),
    ("unknown-field", "field G\nfield Q\nshift n=2", None,
     [(1, 7, "unknown field 'G' (expected Q or F<p>)")]),
    ("field-not-prime", "field F4\nfield Q\nshift n=2", None,
     [(1, 7, "characteristic 4 is not prime")]),
    ("duplicate-field", _H + "field Q", None, [(3, 1, "duplicate field declaration")]),
    ("duplicate-shift", _H + "shift n=1", None, [(3, 1, "duplicate shift declaration")]),
    ("duplicate-truncate", _H + "truncate 3\ntruncate 4", None,
     [(4, 1, "duplicate truncate declaration")]),
    ("expected-n-ident", "field Q\nshift m=2\nshift n=2", None, [(2, 7, "expected 'n'")]),
    ("expected-n-int", "field Q\nshift 2\nshift n=2", None, [(2, 7, "expected 'n'")]),
    ("expected-equals", "field Q\nshift n 2\nshift n=2", None, [(2, 9, "expected '='")]),
    ("expected-shift-value", "field Q\nshift n=\nshift n=2", None,
     [(2, 9, "expected shift value")]),
    ("negative-shift", "field Q\nshift n=-1\nshift n=2", None,
     [(2, 9, "shift must be >= 0")]),
    ("shift-too-long", "field Q\nshift n=" + _LONG + "\nshift n=2", None,
     [(2, 9, "shift value too long")]),
    ("expected-generator-name", _H + "gen 2 : 3", None, [(3, 5, "expected generator name")]),
    ("duplicate-generator", _H + "gen a : 2\ngen a : 3", None,
     [(4, 5, "duplicate generator 'a'")]),
    ("expected-colon", _H + "gen a 2", None, [(3, 7, "expected ':'")]),
    ("expected-degree", _H + "gen a : x", None, [(3, 9, "expected degree")]),
    ("negative-degree", _H + "gen a : -1", None, [(3, 9, "degree must be >= 0")]),
    ("field-first", "gen a : 2\nfield Q\nshift n=2", None,
     [(1, 1, "field must be declared first")]),
    ("shift-first", "field Q\ngen a : 2\nbracket [a,a] = 0\nshift n=2", None,
     [(3, 1, "shift must be declared first")]),
    ("expected-open-bracket", _G + "bracket a,a] = 0", None, [(5, 9, "expected '['")]),
    ("expected-comma", _G + "bracket [a a] = 0", None, [(5, 12, "expected ','")]),
    ("expected-close-bracket", _G + "bracket [a,a = 0", None, [(5, 14, "expected ']'")]),
    ("expected-generator", _G + "bracket [2,a] = 0", None, [(5, 10, "expected generator")]),
    ("undeclared-symbol", _G + "bracket [a,c] = 0", None,
     [(5, 12, "undeclared symbol 'c'")]),
    ("expected-bracket-value", _G + "bracket [a,a] =", None,
     [(5, 16, "expected bracket value")]),
    ("bracket-degree", _G + "bracket [a,a] = a", None,
     [(5, 1, "bracket degree 5 expected, got 2")]),
    ("bracket-pair-twice", _G + "gen c : 8\nbracket [a,b] = c\nbracket [b,a] = c", None,
     [(7, 1, "bracket pair [b,a] already declared on line 6")]),
    ("bracket-not-linear-word", _G + "bracket [a,a] = a*b", None,
     [(5, 20, "bracket value must be a linear combination of generators")]),
    ("bracket-not-linear-unit", _G + "bracket [a,a] = b + 1", None,
     [(5, 21, "bracket value must be a linear combination of generators")]),
    ("expected-d", _G + "diff x a = 0", None, [(5, 6, "expected 'd'")]),
    ("expected-differential-value", _G + "diff d a =", None,
     [(5, 11, "expected differential value")]),
    ("differential-degree", _G + "diff d a = b", None,
     [(5, 1, "differential degree 1 expected, got 5")]),
    ("duplicate-differential", _H + "gen a : 4\ngen b : 5\ndiff d b = a\ndiff d b = a", None,
     [(6, 8, "duplicate differential for 'b'")]),
    ("expected-bv-value", _G + "bv a =", None, [(5, 7, "expected bv value")]),
    ("bv-degree", _G + "bv a = a", None, [(5, 1, "bv degree 3 expected, got 2")]),
    ("bv-term-bound", _G + "bv a = a^2", None, [(5, 8, "bv value term exceeds degree 3")]),
    ("duplicate-bv", _H + "gen a : 1\ngen b : 2\nbv a = b\nbv a = b", None,
     [(6, 4, "duplicate bv value for 'a'")]),
    ("unexpected-plus", _G + "bracket [a,a] = + b", None, [(5, 17, "unexpected '+'")]),
    ("expected-plus-or-minus", _G + "bracket [a,a] = b b", None,
     [(5, 19, "expected '+' or '-'")]),
    ("number-too-long", _G + "bv a = " + _LONG + "*a", None, [(5, 8, "number too long")]),
    ("expected-denominator", _G + "bracket [a,a] = 1/ b", None,
     [(5, 20, "expected denominator")]),
    ("denominator-too-long", _G + "bracket [a,a] = 1/" + _LONG + "*b", None,
     [(5, 19, "denominator too long")]),
    ("zero-denominator", _G + "bracket [a,a] = 1/0*b", None,
     [(5, 19, "malformed number: zero denominator")]),
    ("denominator-divisible-by-p", "field F2\nshift n=2\ngen a : 2\ngen b : 5\n"
     "bracket [a,a] = 1/2*b", None,
     [(5, 17, "malformed number: denominator divisible by 2")]),
    ("expected-exponent", _G + "bv a = a^", None, [(5, 10, "expected exponent")]),
    ("exponent-too-long", _G + "bv a = a^" + _LONG, None, [(5, 10, "exponent too long")]),
    ("missing-headers", "", None,
     [(1, 1, "missing field declaration"), (1, 1, "missing shift declaration")]),
    ("negative-truncation", _H + "truncate -1", None,
     [(3, 10, "truncation degree must be >= 0")]),
    ("expected-truncation-degree", _H + "truncate x", None,
     [(3, 10, "expected truncation degree")]),
    ("expected-element", _G, "", [(1, 1, "expected element")]),
    ("element-term-bound", _G + "truncate 6", "a^2*b", [(1, 5, "element term exceeds degree 6")]),
    ("element-unexpected-character", _G, "a )", [(1, 3, "unexpected character ')'")]),
]


@pytest.mark.parametrize("text, element, expected",
                         [case[1:] for case in DIAGNOSTIC_CASES],
                         ids=[case[0] for case in DIAGNOSTIC_CASES])
def test_every_diagnostic_is_pinned(text, element, expected):
    with pytest.raises(ParseError) as exc:
        if element is None:
            parse_presentation(text)
        else:
            parse_element_text(element, parse_presentation(text))
    assert [(d.line, d.column, d.message) for d in exc.value.diagnostics] == expected


def _messages(text):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    return [(d.line, d.column, d.message) for d in exc.value.diagnostics]


def test_failed_field_line_adds_no_follow_on_errors():
    text = "field F4\nshift n=2\ngen a : 2\nbracket [a,a] = 0\n"
    assert _messages(text) == [(1, 7, "characteristic 4 is not prime")]


def test_failed_shift_line_adds_no_follow_on_errors():
    text = "field Q\nshift n=-1\ngen a : 2\nbracket [a,a] = 0\n"
    assert _messages(text) == [(2, 9, "shift must be >= 0")]


def test_untokenizable_field_line_adds_no_follow_on_errors():
    assert _messages("field Q!\nshift n=1\ngen a : 2\n") == [(1, 8, "unexpected character '!'")]


def test_absent_headers_are_still_reported_missing():
    assert _messages("shift n=1\ngen a : 2\n") == [
        (1, 1, "missing field declaration"), (2, 1, "field must be declared first")]
