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
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .algebra import DEFAULT_WINDOW, Element, Generator, normalize_word, render_element
from .fields import FieldSpec
from .lie import LiePresentation

if TYPE_CHECKING:
    from .bv import BVStructure


class Diagnostic(Exception):
    """A line's failure at a column: what `_LineParser.fail` returns to raise."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class PresentationSource:
    """Parsed presentation file: its canonical presentation (generators
    sorted by sort_key), operator values and truncation."""

    def __init__(self, presentation: LiePresentation,
                 bv_values: Optional[Dict[str, Element]] = None,
                 truncate: Optional[int] = None):
        self.presentation = presentation
        self.bv_values = {} if bv_values is None else bv_values
        self.truncate = truncate

    def __eq__(self, other) -> bool:
        return isinstance(other, PresentationSource) and vars(self) == vars(other)

    def to_lie_presentation(self) -> LiePresentation:
        return self.presentation

    def window(self, max_degree: Optional[int] = None) -> int:
        """max_degree if given, else the file's truncation, else DEFAULT_WINDOW."""
        return next(w for w in (max_degree, self.truncate, DEFAULT_WINDOW) if w is not None)

    def to_structure(self, max_degree: Optional[int] = None) -> BVStructure:
        """Free structure unless the file supplies operator values."""
        from .bv import BVStructure
        values = dict(self.bv_values) if self.bv_values else None
        return BVStructure(self.presentation, self.window(max_degree), values)


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
                    r"|(?P<sym>[\[\]:=,*^+/-])|(?P<bad>\S))")

_HEADERS = ("field", "shift", "truncate")
# statement -> the header lines that must come before it
_PREREQUISITES = {"gen": ("field",), "bracket": ("field", "shift"),
                  "diff": ("field", "shift"), "bv": ("field", "shift")}
# value line -> (noun, targets (None = a generator), whether the shift enters the
# expected degree, span-only value, message for a second line on the same targets)
_VALUE_LINES = {
    "bracket": ("bracket", ("[", None, ",", None, "]"), 1, True,
                "bracket pair [{0},{1}] already declared on line {line}"),
    "diff": ("differential", ("d", None), 0, True, "duplicate differential for {0!r}"),
    "bv": ("bv", (None,), 1, False, "duplicate bv value for {0!r}"),
}


class _Token:
    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


class _State:
    def __init__(self) -> None:
        self.field: Optional[FieldSpec] = None
        self.shift: Optional[int] = None
        self.truncate: Optional[int] = None
        self.generators: Dict[str, Generator] = {}
        self.tables: Dict[str, dict] = {head: {} for head in _VALUE_LINES}
        self.lines: Dict[Tuple[str, ...], int] = {}  # value-line targets -> line number
        self.attempted: Set[str] = set()  # field/shift lines seen, parsed or not


class _LineParser:
    """Cursor over the tokens of one line; every failure is a Diagnostic."""

    def __init__(self, line: str, line_no: int, state: _State):
        self.line_no = line_no
        self.state = state
        self.pos = 0
        self.tokens: List[_Token] = []
        for match in _TOKEN.finditer(line):
            kind = match.lastgroup
            if kind == "bad":
                raise self.fail(f"unexpected character {match.group(kind)!r}",
                                match.start(kind) + 1)
            self.tokens.append(_Token(kind, match.group(kind), match.start(kind) + 1))

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

    def fail(self, message: str, column: Optional[int] = None) -> Diagnostic:
        return Diagnostic(self.line_no, column or self.column(), message)

    def take(self, sym: str) -> Optional[_Token]:
        """The next token if it is the symbol `sym`, consumed; else None."""
        tok = self.peek()
        return self.next() if tok is not None and tok.kind == "sym" and tok.text == sym else None

    def expect(self, kind: str, what: str, text: Optional[str] = None) -> _Token:
        """The next token, which must be of `kind` (and read `text`, if given)."""
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            raise self.fail(f"expected {what}")
        return self.next()

    def natural(self, what: str, noun: Optional[str] = None) -> int:
        """An integer; given a `noun`, a leading '-' is read and refused as
        '<noun> must be >= 0'."""
        minus = self.take("-") if noun else None
        tok = self.expect("int", what)
        try:
            value = int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.fail(f"{what} too long", tok.column) from None
        if minus is not None and value:
            raise self.fail(f"{noun} must be >= 0", minus.column)
        return value

    def declared(self, tok: _Token) -> Generator:
        gen = self.state.generators.get(tok.text)
        if gen is None:
            raise self.fail(f"undeclared symbol {tok.text!r}", tok.column)
        return gen


def _parse_element(parser: _LineParser, span_only: bool, what: str,
                   bound: Optional[int]) -> Element:
    """Sum of terms, each optionally signed ('+' not on the first)."""
    total = Element.zero(parser.state.field)
    first = True
    while first or not parser.done():
        sign = parser.take("+") or parser.take("-")
        if sign is None and not first:
            raise parser.fail("expected '+' or '-'")
        if first and sign is not None and sign.text == "+":
            raise parser.fail("unexpected '+'", sign.column)
        term = _parse_term(parser, span_only, what, bound)
        total = total - term if sign is not None and sign.text == "-" else total + term
        first = False
    return total


def _parse_term(parser: _LineParser, span_only: bool, what: str,
                bound: Optional[int]) -> Element:
    """[coefficient *] factor (* factor)* with factor = gen or gen^k, or a bare
    coefficient (a multiple of the unit); a coefficient is n or n/m.
    Span-only terms are one letter; others, letters counting degree >= 1,
    are at most `bound`."""
    field = parser.state.field
    not_linear = f"{what} must be a linear combination of generators"
    coeff = field.one()
    tok = parser.peek()
    if tok is None:
        raise parser.fail(f"expected {what}")
    if tok.kind == "int":
        coeff = parser.natural("number")
        den = 1
        if parser.take("/"):
            column = parser.column()
            den = parser.natural("denominator")
            if den == 0:
                raise parser.fail("malformed number: zero denominator", column)
        try:
            coeff = field.quotient(coeff, den)
        except ZeroDivisionError as exc:
            raise parser.fail(f"malformed number: {exc}", tok.column) from exc
        if not parser.take("*"):
            if span_only and coeff:
                raise parser.fail(not_linear, tok.column)
            return Element.unit(field, coeff)
    word: List[Generator] = []
    size = 0
    while True:
        ident = parser.expect("ident", "generator")
        gen = parser.declared(ident)
        power = parser.natural("exponent") if parser.take("^") else 1
        if span_only and (word or power != 1):
            raise parser.fail(not_linear)
        size += max(gen.degree, 1) * power
        if bound is not None and size > bound:
            raise parser.fail(f"{what} term exceeds degree {bound}", ident.column)
        word.extend([gen] * power)
        if not parser.take("*"):
            return normalize_word(field, word, coeff)


def _value_line(parser: _LineParser, head: _Token) -> None:
    """Targets, '=', then a value of the degree they fix; one line per targets."""
    noun, grammar, shifted, span_only, duplicate = _VALUE_LINES[head.text]
    state = parser.state
    targets = []
    for item in grammar:
        if item is None:
            targets.append(parser.expect("ident", "generator"))
        else:
            parser.expect("ident" if item.isalpha() else "sym", repr(item), item)
    expected = sum(parser.declared(t).degree for t in targets) + shifted * state.shift - 1
    parser.expect("sym", "'='", "=")
    value = _parse_element(parser, span_only, f"{noun} value",
                           None if span_only else expected)
    got = value.homogeneous_degree()
    if not value.is_zero and got != expected:
        raise parser.fail(f"{noun} degree {expected} expected, got {got}", head.column)
    names = [t.text for t in targets]
    key = (head.text, *sorted(names))
    if key in state.lines:
        # a pair is reported at the statement, a single target at its name
        raise parser.fail(duplicate.format(*names, line=state.lines[key]),
                          (head if len(targets) > 1 else targets[0]).column)
    state.lines[key] = parser.line_no
    state.tables[head.text][tuple(names) if len(names) > 1 else names[0]] = value


def _statement(parser: _LineParser) -> None:
    state = parser.state
    head = parser.expect("ident", "statement")
    if head.text in _HEADERS and getattr(state, head.text) is not None:
        raise parser.fail(f"duplicate {head.text} declaration", head.column)
    for need in _PREREQUISITES.get(head.text, ()):
        if getattr(state, need) is None:
            if need in state.attempted:
                return  # the failed header line carries the diagnostic
            raise parser.fail(f"{need} must be declared first", 1)
    if head.text == "field":
        tok = parser.expect("ident", "field name (Q or F<p>)")
        name = tok.text
        nxt = parser.peek()
        if name == "F" and nxt is not None and nxt.kind == "int":
            name += parser.next().text
        try:
            state.field = FieldSpec.parse(name)
        except ValueError as exc:
            raise parser.fail(str(exc), tok.column) from exc
    elif head.text == "shift":
        parser.expect("ident", "'n'", "n")
        parser.expect("sym", "'='", "=")
        state.shift = parser.natural("shift value", "shift")
    elif head.text == "gen":
        name = parser.expect("ident", "generator name")
        if name.text in state.generators:
            raise parser.fail(f"duplicate generator {name.text!r}", name.column)
        parser.expect("sym", "':'", ":")
        state.generators[name.text] = Generator(name.text, parser.natural("degree", "degree"))
    elif head.text == "truncate":
        state.truncate = parser.natural("truncation degree", "truncation degree")
    elif head.text in _VALUE_LINES:
        _value_line(parser, head)
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
        head = _TOKEN.match(line)
        if head is not None and head.group("ident") in ("field", "shift"):
            state.attempted.add(head.group("ident"))
        try:
            _statement(_LineParser(line, line_no, state))
        except Diagnostic as exc:
            errors.append(exc)
    for header in ("field", "shift"):
        if getattr(state, header) is None and header not in state.attempted:
            errors.append(Diagnostic(1, 1, f"missing {header} declaration"))
    if errors:
        raise ParseError(sorted(errors, key=lambda d: (d.line, d.column)))
    # canonicalize bracket orientation through the Lie layer
    generators = sorted(state.generators.values(), key=lambda g: g.sort_key)
    presentation = LiePresentation(state.field, state.shift, generators,
                                   state.tables["bracket"], state.tables["diff"])
    return PresentationSource(presentation, state.tables["bv"], state.truncate)


def render_presentation(source: PresentationSource) -> str:
    """Canonical text form; parsing it back yields an equal presentation."""
    p = source.presentation
    lines = [f"field {p.field}", f"shift n={p.shift}"]
    for g in p.generators:
        lines.append(f"gen {g.id} : {g.degree}")
    for (x, y) in sorted(p.brackets):
        lines.append(f"bracket [{x},{y}] = {render_element(p.brackets[(x, y)])}")
    for x in sorted(p.differential):
        lines.append(f"diff d {x} = {render_element(p.differential[x])}")
    for x in sorted(source.bv_values):
        lines.append(f"bv {x} = {render_element(source.bv_values[x])}")
    if source.truncate is not None:
        lines.append(f"truncate {source.truncate}")
    return "\n".join(lines) + "\n"


def parse_element_text(text: str, source: PresentationSource,
                       max_degree: Optional[int] = None) -> Element:
    """Parse a standalone element expression, bounded by source.window(max_degree)."""
    state = _State()
    state.field = source.presentation.field
    state.generators = {g.id: g for g in source.presentation.generators}
    try:
        return _parse_element(_LineParser(text, 1, state), False, "element",
                              source.window(max_degree))
    except Diagnostic as exc:
        raise ParseError([exc]) from exc
