"""Line-oriented presentation format and its parser.

Grammar (one statement per line, '#' starts a comment, UTF-8):

    field Q | F<p>
    shift n=<int>
    gen <id> : <degree>
    bracket [<id>,<id>] = <linear combination>
    diff d <id> = <linear combination>
    bv <id> = <element expression>
    truncate <D>

Element expressions use '*', '^', '+', '-' and integer or fraction
coefficients, e.g. ``2*a*b - 1/2*b^2``.  Diagnostics carry line and column;
bracket, diff and bv lines are degree-checked against the declared shift.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .algebra import Element, Generator, normalize_word, render_element
from .fields import FieldSpec
from .lie import LiePresentation
from .bv import BVStructure, free_bv_structure, user_bv_structure


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class PresentationSource:
    """Parsed, canonicalized presentation file."""

    field: FieldSpec
    shift: int
    generators: Tuple[Generator, ...]
    brackets: Dict[Tuple[str, str], Element] = dc_field(default_factory=dict)
    differential: Dict[str, Element] = dc_field(default_factory=dict)
    bv_values: Dict[str, Element] = dc_field(default_factory=dict)
    truncate: Optional[int] = None

    def to_lie_presentation(self) -> LiePresentation:
        return LiePresentation(self.field, self.shift, list(self.generators),
                               dict(self.brackets), dict(self.differential))

    def window(self, max_degree: Optional[int] = None) -> int:
        """max_degree if given, else the file's truncation, else 10."""
        return next(w for w in (max_degree, self.truncate, 10) if w is not None)

    def to_structure(self, max_degree: Optional[int] = None) -> BVStructure:
        """Free structure unless the file supplies operator values."""
        window = self.window(max_degree)
        presentation = self.to_lie_presentation()
        if self.bv_values:
            return user_bv_structure(presentation, window, dict(self.bv_values))
        return free_bv_structure(presentation, window)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentationSource):
            return NotImplemented
        return (self.field == other.field and self.shift == other.shift
                and sorted(self.generators, key=lambda g: g.sort_key)
                == sorted(other.generators, key=lambda g: g.sort_key)
                and self.brackets == other.brackets
                and self.differential == other.differential
                and self.bv_values == other.bv_values
                and self.truncate == other.truncate)


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
                    r"|(?P<sym>[\[\]:=,*^+/-]))")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(line: str, line_no: int, errors: List[Diagnostic]) -> Optional[List[_Token]]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(line):
        match = _TOKEN.match(line, pos)
        if match is None:
            rest = line[pos:].lstrip()
            if not rest:
                break
            column = len(line) - len(rest) + 1
            errors.append(Diagnostic(line_no, column, f"unexpected character {rest[0]!r}"))
            return None
        kind = match.lastgroup or "sym"
        tokens.append(_Token(kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: List[_Token], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def column(self) -> int:
        tok = self.peek()
        if tok is not None:
            return tok.column
        return self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1

    def fail(self, message: str, column: Optional[int] = None) -> "_LineError":
        return _LineError(Diagnostic(self.line_no, column or self.column(), message))

    def expect_sym(self, text: str) -> _Token:
        tok = self.next()
        if tok is None or tok.kind != "sym" or tok.text != text:
            raise self.fail(f"expected {text!r}",
                            tok.column if tok else None)
        return tok

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.next()
        if tok is None or tok.kind != "ident":
            raise self.fail(f"expected {what}", tok.column if tok else None)
        return tok

    def expect_int(self, what: str = "integer") -> Tuple[int, _Token]:
        tok = self.next()
        if tok is None or tok.kind != "int":
            raise self.fail(f"expected {what}", tok.column if tok else None)
        try:
            return int(tok.text), tok
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.fail(f"{what} too long", tok.column) from None

    def signed_int(self, what: str = "integer") -> Tuple[int, _Token]:
        tok = self.peek()
        sign = 1
        if tok is not None and tok.kind == "sym" and tok.text == "-":
            self.next()
            sign = -1
        value, token = self.expect_int(what)
        return sign * value, (tok if sign < 0 else token)


class _LineError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


class _State:
    def __init__(self) -> None:
        self.field: Optional[FieldSpec] = None
        self.shift: Optional[int] = None
        self.generators: Dict[str, Generator] = {}
        self.brackets: Dict[Tuple[str, str], Element] = {}
        self.bracket_lines: Dict[Tuple[str, str], int] = {}
        self.differential: Dict[str, Element] = {}
        self.bv_values: Dict[str, Element] = {}
        self.truncate: Optional[int] = None


def _parse_coefficient(parser: _LineParser, field: FieldSpec):
    """integer or integer/integer, with optional leading '-'."""
    start = parser.column()
    tok = parser.peek()
    negative = False
    if tok is not None and tok.kind == "sym" and tok.text == "-":
        parser.next()
        negative = True
    num, num_tok = parser.expect_int("number")
    value_text = num_tok.text
    nxt = parser.peek()
    if nxt is not None and nxt.kind == "sym" and nxt.text == "/":
        parser.next()
        den, den_tok = parser.expect_int("denominator")
        if den == 0:
            raise parser.fail("malformed number: zero denominator", den_tok.column)
        value_text = f"{num}/{den}"
    try:
        value = field.from_string(value_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise parser.fail(f"malformed number: {exc}", start) from exc
    return field.neg(value) if negative else value


def _parse_element(parser: _LineParser, state: _State, span_only: bool,
                   what: str, bound: Optional[int] = None) -> Element:
    """Sum of terms; each term is [coefficient *] factor (* factor)* with
    factor = gen or gen^k, or a bare coefficient (multiple of the unit).
    Span-only terms are one letter; others, letters counting degree >= 1, are at most `bound`."""
    field = state.field
    assert field is not None
    total = Element.zero(field)
    first = True
    while True:
        tok = parser.peek()
        if tok is None:
            if first:
                raise parser.fail(f"expected {what}")
            break
        sign = 1
        if tok.kind == "sym" and tok.text in "+-":
            if first and tok.text == "+":
                raise parser.fail("unexpected '+'", tok.column)
            parser.next()
            sign = -1 if tok.text == "-" else 1
        elif not first:
            raise parser.fail("expected '+' or '-'", tok.column)
        term = _parse_term(parser, state, span_only, what, bound)
        total = total + term.scale(field.sign(0 if sign > 0 else 1))
        first = False
        if parser.done():
            break
    return total


def _parse_term(parser: _LineParser, state: _State, span_only: bool,
                what: str, bound: Optional[int]) -> Element:
    field = state.field
    assert field is not None
    coeff = field.one()
    tok = parser.peek()
    if tok is None:
        raise parser.fail(f"expected {what}")
    if tok.kind == "int":
        coeff = _parse_coefficient(parser, field)
        nxt = parser.peek()
        if nxt is None or not (nxt.kind == "sym" and nxt.text == "*"):
            if span_only and not field.is_zero(coeff):
                raise parser.fail(f"{what} must be a linear combination of generators",
                                  tok.column)
            return Element.unit(field, coeff)
        parser.next()
    word: List[Generator] = []
    size = 0
    while True:
        ident = parser.expect_ident("generator")
        gen = state.generators.get(ident.text)
        if gen is None:
            raise _LineError(Diagnostic(parser.line_no, ident.column,
                                        f"undeclared symbol {ident.text!r}"))
        power = 1
        nxt = parser.peek()
        if nxt is not None and nxt.kind == "sym" and nxt.text == "^":
            parser.next()
            power, _ = parser.expect_int("exponent")
        if span_only and (word or power != 1):
            raise parser.fail(f"{what} must be a linear combination of generators")
        size += max(gen.degree, 1) * power
        if bound is not None and size > bound:
            raise parser.fail(f"{what} term exceeds degree {bound}", ident.column)
        word.extend([gen] * power)
        nxt = parser.peek()
        if nxt is not None and nxt.kind == "sym" and nxt.text == "*":
            parser.next()
            continue
        break
    return normalize_word(field, word, coeff)


def _require(parser: _LineParser, state: _State, *what: str) -> None:
    if "field" in what and state.field is None:
        raise parser.fail("field must be declared first", 1)
    if "shift" in what and state.shift is None:
        raise parser.fail("shift must be declared first", 1)


def _statement(parser: _LineParser, state: _State) -> None:
    head = parser.expect_ident("statement")
    if head.text == "field":
        if state.field is not None:
            raise parser.fail("duplicate field declaration", head.column)
        tok = parser.expect_ident("field name (Q or F<p>)")
        name = tok.text
        nxt = parser.peek()
        if name == "F" and nxt is not None and nxt.kind == "int":
            name += parser.next().text
        try:
            state.field = FieldSpec.parse(name)
        except ValueError as exc:
            raise parser.fail(str(exc), tok.column) from exc
    elif head.text == "shift":
        if state.shift is not None:
            raise parser.fail("duplicate shift declaration", head.column)
        name = parser.expect_ident("'n'")
        if name.text != "n":
            raise parser.fail("expected 'n'", name.column)
        parser.expect_sym("=")
        value, tok = parser.signed_int("shift value")
        if value < 0:
            raise parser.fail("shift must be >= 0", tok.column)
        state.shift = value
    elif head.text == "gen":
        _require(parser, state, "field")
        name = parser.expect_ident("generator name")
        if name.text in state.generators:
            raise parser.fail(f"duplicate generator {name.text!r}", name.column)
        parser.expect_sym(":")
        degree, tok = parser.signed_int("degree")
        if degree < 0:
            raise parser.fail("degree must be >= 0", tok.column)
        state.generators[name.text] = Generator(name.text, degree)
    elif head.text == "bracket":
        _require(parser, state, "field", "shift")
        parser.expect_sym("[")
        first = parser.expect_ident("generator")
        parser.expect_sym(",")
        second = parser.expect_ident("generator")
        parser.expect_sym("]")
        for tok in (first, second):
            if tok.text not in state.generators:
                raise _LineError(Diagnostic(parser.line_no, tok.column,
                                            f"undeclared symbol {tok.text!r}"))
        parser.expect_sym("=")
        value = _parse_element(parser, state, span_only=True, what="bracket value")
        gx = state.generators[first.text]
        gy = state.generators[second.text]
        expected = gx.degree + gy.degree + (state.shift or 0) - 1
        got = value.homogeneous_degree()
        if not value.is_zero and got != expected:
            raise _LineError(Diagnostic(
                parser.line_no, head.column,
                f"bracket degree {expected} expected, got {got}"))
        key = (first.text, second.text)
        unordered = tuple(sorted(key))
        if unordered in state.bracket_lines:
            raise parser.fail(
                f"bracket pair [{first.text},{second.text}] already declared "
                f"on line {state.bracket_lines[unordered]}", head.column)
        state.bracket_lines[unordered] = parser.line_no
        state.brackets[key] = value
    elif head.text == "diff":
        _require(parser, state, "field", "shift")
        d = parser.expect_ident("'d'")
        if d.text != "d":
            raise parser.fail("expected 'd'", d.column)
        name = parser.expect_ident("generator")
        if name.text not in state.generators:
            raise _LineError(Diagnostic(parser.line_no, name.column,
                                        f"undeclared symbol {name.text!r}"))
        parser.expect_sym("=")
        value = _parse_element(parser, state, span_only=True, what="differential value")
        expected = state.generators[name.text].degree - 1
        got = value.homogeneous_degree()
        if not value.is_zero and got != expected:
            raise _LineError(Diagnostic(
                parser.line_no, head.column,
                f"differential degree {expected} expected, got {got}"))
        if name.text in state.differential:
            raise parser.fail(f"duplicate differential for {name.text!r}", name.column)
        state.differential[name.text] = value
    elif head.text == "bv":
        _require(parser, state, "field", "shift")
        name = parser.expect_ident("generator")
        if name.text not in state.generators:
            raise _LineError(Diagnostic(parser.line_no, name.column,
                                        f"undeclared symbol {name.text!r}"))
        parser.expect_sym("=")
        expected = state.generators[name.text].degree + (state.shift or 0) - 1
        value = _parse_element(parser, state, span_only=False, what="bv value", bound=expected)
        got = value.homogeneous_degree()
        if not value.is_zero and got != expected:
            raise _LineError(Diagnostic(
                parser.line_no, head.column,
                f"bv degree {expected} expected, got {got}"))
        if name.text in state.bv_values:
            raise parser.fail(f"duplicate bv value for {name.text!r}", name.column)
        state.bv_values[name.text] = value
    elif head.text == "truncate":
        if state.truncate is not None:
            raise parser.fail("duplicate truncate declaration", head.column)
        value, tok = parser.signed_int("truncation degree")
        if value < 0:
            raise parser.fail("truncation degree must be >= 0", tok.column)
        state.truncate = value
    else:
        raise parser.fail(f"unknown statement {head.text!r}", head.column)
    if not parser.done():
        raise parser.fail("trailing input")


def parse_presentation(text: str) -> PresentationSource:
    """Parse a presentation file; raises ParseError with all diagnostics."""
    state = _State()
    errors: List[Diagnostic] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokenize(line, line_no, errors)
        if tokens is None:
            continue
        parser = _LineParser(tokens, line_no)
        try:
            _statement(parser, state)
        except _LineError as exc:
            errors.append(exc.diagnostic)
    if state.field is None:
        errors.append(Diagnostic(1, 1, "missing field declaration"))
    if state.shift is None:
        errors.append(Diagnostic(1, 1, "missing shift declaration"))
    if errors:
        raise ParseError(sorted(errors, key=lambda d: (d.line, d.column)))
    assert state.field is not None and state.shift is not None
    generators = tuple(sorted(state.generators.values(), key=lambda g: g.sort_key))
    source = PresentationSource(state.field, state.shift, generators,
                                dict(state.brackets), dict(state.differential),
                                dict(state.bv_values), state.truncate)
    # canonicalize bracket orientation through the Lie layer
    presentation = source.to_lie_presentation()
    source.brackets = dict(presentation.brackets)
    return source


def render_presentation(source: PresentationSource) -> str:
    """Canonical text form; parsing it back yields an equal presentation."""
    lines = [f"field {source.field}", f"shift n={source.shift}"]
    for g in sorted(source.generators, key=lambda g: g.sort_key):
        lines.append(f"gen {g.id} : {g.degree}")
    for (x, y) in sorted(source.brackets):
        lines.append(f"bracket [{x},{y}] = {render_element(source.brackets[(x, y)])}")
    for x in sorted(source.differential):
        lines.append(f"diff d {x} = {render_element(source.differential[x])}")
    for x in sorted(source.bv_values):
        lines.append(f"bv {x} = {render_element(source.bv_values[x])}")
    if source.truncate is not None:
        lines.append(f"truncate {source.truncate}")
    return "\n".join(lines) + "\n"


def parse_element_text(text: str, source: PresentationSource,
                       max_degree: Optional[int] = None) -> Element:
    """Parse a standalone element expression, bounded by source.window(max_degree)."""
    state = _State()
    state.field = source.field
    state.shift = source.shift
    state.generators = {g.id: g for g in source.generators}
    errors: List[Diagnostic] = []
    tokens = _tokenize(text, 1, errors)
    if tokens is None:
        raise ParseError(errors)
    parser = _LineParser(tokens, 1)
    try:
        element = _parse_element(parser, state, False, "element", source.window(max_degree))
        if not parser.done():
            raise parser.fail("trailing input")
    except _LineError as exc:
        raise ParseError([exc.diagnostic]) from exc
    return element
