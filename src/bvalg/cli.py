"""Command-line driver: the verbs that `VERBS` declares, read by `parse_args`.

Exit codes: 0 all checks pass, 1 axiom failure, 2 input error, 3 internal
error (a fault of bvalg, reported in one line on stderr).  ``--format
json`` emits one deterministic JSON document per run.  A verb imports
what only it needs (dsl, bv, homology, fixtures) when it runs.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional, Tuple

from .algebra import Undefined
from .lie import LiePresentation, check_antisymmetry, check_lie_axioms
from .report import Report, Stopwatch, merge_reports, run_checks

if TYPE_CHECKING:
    from .bv import BVStructure
    from .dsl import PresentationSource
    from .fixtures import StructureDescriptor

EXIT_PASS = 0
EXIT_AXIOM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class InputError(Exception):
    pass


def _read_source(path: str) -> PresentationSource:
    from .dsl import ParseError, parse_presentation
    try:
        # as bytes, so a decode error's offset is the file's (splitlines ends lines at \r)
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start}") from exc
    try:
        return parse_presentation(text)
    except ParseError as exc:
        raise InputError(
            "\n".join(f"{path}:{d.line}:{d.column}: {d.message}"
                      for d in exc.diagnostics)) from exc


def _read_structure(args) -> Tuple[PresentationSource, BVStructure]:
    """The file's structure; its bases need every generator in positive
    degree (check-lie alone accepts degree 0)."""
    source = _read_source(args.file)
    for g in source.presentation.generators:
        if g.degree == 0:
            raise InputError(f"{args.file}: generator {g.id!r} has degree 0: "
                             "the degree window is not finite")
    return source, source.to_structure(args.max_degree)


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.render_human())


def _finish(report: Report, fmt: str) -> int:
    _emit(report, fmt)
    return EXIT_PASS if report.passed else EXIT_AXIOM_FAILURE


def _cmd_check_lie(args) -> int:
    source = _read_source(args.file)
    with Stopwatch() as clock:
        report = check_lie_axioms(source.presentation)
    report.elapsed = clock.elapsed
    return _finish(report, args.format)


def _cmd_check_bv(args) -> int:
    from .bv import verify_bv_axioms
    _, structure = _read_structure(args)
    with Stopwatch() as clock:
        report = verify_bv_axioms(structure)
    report.elapsed = clock.elapsed
    return _finish(report, args.format)


def _element_command(args, compute) -> int:
    source, structure = _read_structure(args)
    result = compute(source, structure)
    for mono in result.monomials():
        if mono.degree > structure.truncation:
            raise InputError(
                f"result out of window: term {mono} of degree "
                f"{mono.degree} exceeds truncation {structure.truncation}")
    report = Report(details={"result": result})
    _emit(report, args.format)
    return EXIT_PASS


def _cmd_free_bv(args) -> int:
    from .bv import FREE, free_bv

    def compute(source, structure: BVStructure):
        if structure.provenance != FREE:
            raise InputError("free-bv needs a presentation without bv lines")
        element = _parse_arg_element("--apply", args.apply, source, args.max_degree)
        return free_bv(structure, element)

    return _element_command(args, compute)


def _cmd_bracket(args) -> int:
    from .bv import poisson_bracket

    def compute(source, structure: BVStructure):
        a = _parse_arg_element("a", args.a, source, args.max_degree)
        b = _parse_arg_element("b", args.b, source, args.max_degree)
        return poisson_bracket(structure, a, b)

    return _element_command(args, compute)


def _parse_arg_element(name: str, text: str, source: PresentationSource,
                       max_degree: Optional[int]):
    """Parse an element argument; a diagnostic names the argument and its
    column, in argparse's `argument <name>:` shape."""
    from .dsl import ParseError, parse_element_text
    try:
        return parse_element_text(text, source, max_degree)
    except ParseError as exc:
        raise InputError(f"argument {name}: " + "; ".join(
            f"column {d.column}: {d.message}" for d in exc.diagnostics)) from exc


def _cmd_ce_homology(args) -> int:
    from .homology import BoundarySquareError, betti, build_ce_complex, ce_top_grade
    presentation = _read_source(args.file).presentation
    try:
        # what the verb cannot compute is refused before any axiom is checked
        ce_top_grade(presentation)
        antisymmetry = check_antisymmetry(presentation)
        if not antisymmetry.passed:
            return _finish(antisymmetry, args.format)
        complex_ = build_ce_complex(presentation)
    except BoundarySquareError as exc:
        certificate = {"grade": str(exc.grade), "input": str(exc.source),
                       "d(d(input))": str(exc.composite)}
        return _finish(Report(checks=run_checks(("boundary-squared",), [()],
                                                lambda: certificate, lambda: {})),
                       args.format)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(Report(betti=betti(complex_)), args.format)
    return EXIT_PASS


def _describe_structure(structure: BVStructure) -> Report:
    from .bv import OutOfWindow
    report = Report()
    p = structure.presentation
    report.details["field"] = str(structure.field)
    report.details["shift"] = str(structure.shift)
    report.details["truncation"] = str(structure.truncation)
    report.details["generators"] = ", ".join(
        f"{g.id}:{g.degree}" for g in sorted(structure.generators, key=lambda g: g.sort_key))
    report.details["operator"] = "present" if structure.has_bv else "absent"
    if structure.has_bv:
        for g in sorted(structure.generators, key=lambda g: g.sort_key):
            value = structure.bv_monomial(structure.letters[g])
            if isinstance(value, OutOfWindow):
                value = f"out of window (degree {value.degree} > {value.limit})"
            elif isinstance(value, Undefined):
                value = "undefined"
            report.details[f"bv({g.id})"] = value
    return report


def _describe_presentation(presentation: LiePresentation) -> Report:
    report = Report()
    report.details["field"] = str(presentation.field)
    report.details["shift"] = str(presentation.shift)
    report.details["generators"] = ", ".join(
        f"{g.id}:{g.degree}" for g in presentation.generators)
    for (x, y), value in sorted(presentation.brackets.items()):
        report.details[f"bracket[{x},{y}]"] = str(value)
    return report


def _describe_descriptor(descriptor: StructureDescriptor) -> Report:
    report = Report()
    report.details["n"] = str(descriptor.n)
    report.details["field"] = str(descriptor.field)
    report.details["bracket"] = ("absent" if descriptor.bracket_degree is None
                                 else f"degree {descriptor.bracket_degree}")
    report.details["bv"] = ("absent" if descriptor.bv_degree is None
                            else f"degree {descriptor.bv_degree}")
    report.details["so-generators"] = ", ".join(
        f"a{g.degree}({g.action})" for g in descriptor.so_generators) or "none"
    report.details["spherical-bv-vanishes"] = str(descriptor.spherical_bv_vanishes).lower()
    return report


def _cmd_fixture(args) -> int:
    from .fixtures import StructureDescriptor, load_fixture
    try:
        fixture = load_fixture(args.name, args.max_degree)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if isinstance(fixture, StructureDescriptor):
        if args.verify:
            raise InputError(f"fixture {args.name!r} is a table: --verify has nothing to check")
        return _finish(_describe_descriptor(fixture), args.format)
    if isinstance(fixture, LiePresentation):
        report = _describe_presentation(fixture)
        if args.verify:
            report = merge_reports(report, check_lie_axioms(fixture))
        return _finish(report, args.format)
    report = _describe_structure(fixture)
    if args.verify:
        from .bv import verify_bv_axioms
        with Stopwatch() as clock:
            report = merge_reports(report, verify_bv_axioms(fixture))
        report.elapsed = clock.elapsed
    return _finish(report, args.format)


def _format_arg(text: str) -> str:
    if text not in ("human", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'human', 'json')")
    return text


def _window_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


_REQUIRED = object()
# an option: (name, metavar, converter, default); a flag has neither metavar nor
# converter, and an option whose default is _REQUIRED must be given
_FORMAT = ("--format", "{human,json}", _format_arg, "human")
_WINDOW = ("--max-degree", "D", _window_arg, None)
# verb -> (handler, positionals, options, help); the handler is looked up when
# main runs, so that a replaced _cmd_* function takes effect
VERBS = {
    "check-lie": ("_cmd_check_lie", ("file",), (_FORMAT,),
                  "verify the Lie axioms of a presentation"),
    "check-bv": ("_cmd_check_bv", ("file",), (_FORMAT, _WINDOW),
                 "verify the bracket/operator axioms"),
    "free-bv": ("_cmd_free_bv", ("file",),
                (("--apply", "ELEMENT", str, _REQUIRED), _FORMAT, _WINDOW),
                "apply the free operator to an element"),
    "bracket": ("_cmd_bracket", ("file", "a", "b"), (_FORMAT, _WINDOW),
                "bracket of two elements"),
    "ce-homology": ("_cmd_ce_homology", ("file",), (_FORMAT,),
                    "Betti numbers of a shift-0 presentation"),
    "fixture": ("_cmd_fixture", ("name",), (("--verify", None, None, False), _FORMAT, _WINDOW),
                "a named fixture; fd:<n>:<field> is the operator table"),
}
_HELP = ("-h", "--help")


class UsageError(Exception):
    """A malformed command line; args are (verb, or None at the top level, message)."""


def _usage(verb: Optional[str]) -> str:
    if verb is None:
        return "usage: bvalg [-h] {" + ",".join(VERBS) + "} ..."
    _, positionals, options, _ = VERBS[verb]
    words = [f"bvalg {verb} [-h]"]
    for name, metavar, _, default in options:
        word = name if metavar is None else f"{name} {metavar}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return "usage: " + " ".join(words + list(positionals))


def _help(verb: Optional[str]) -> str:
    if verb is not None:
        return f"{_usage(verb)}\n\n{VERBS[verb][3]}"
    width = max(map(len, VERBS))
    return "\n".join([_usage(None), "", "verbs:"]
                     + [f"  {name:{width}}  {entry[3]}" for name, entry in VERBS.items()])


def parse_args(argv: List[str]) -> Tuple[Optional[str], Optional[SimpleNamespace]]:
    """(verb, its arguments by name) from argv, or (verb, None) when -h or
    --help asks for its help (verb None: the top level's).  An argument that
    starts with '--' is an option, given as `--name value` or `--name=value`
    anywhere after the verb; any other is a positional, so an element may
    start with '-'.  A malformed command line raises UsageError."""
    if not argv:
        raise UsageError(None, "the following arguments are required: command")
    verb = argv[0]
    if verb in _HELP:
        return None, None
    if verb not in VERBS:
        raise UsageError(None, f"argument command: invalid choice: {verb!r} (choose from "
                         + ", ".join(map(repr, VERBS)) + ")")
    _, names, options, _ = VERBS[verb]
    declared = {option[0]: option for option in options}
    values = {name: default for name, _, _, default in options}
    positionals = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in _HELP:
            return verb, None
        if not arg.startswith("--"):
            positionals.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in declared:
            raise UsageError(verb, f"unrecognized arguments: {arg}")
        convert = declared[name][2]
        if convert is None:
            if eq:
                raise UsageError(verb, f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(verb, f"argument {name}: expected one argument")
        try:
            values[name] = convert(value)
        except ValueError as exc:
            raise UsageError(verb, f"argument {name}: {exc}") from None
    if len(positionals) > len(names):
        raise UsageError(verb, "unrecognized arguments: " + " ".join(positionals[len(names):]))
    missing = [*names[len(positionals):], *(n for n, v in values.items() if v is _REQUIRED)]
    if missing:
        raise UsageError(verb, "the following arguments are required: " + ", ".join(missing))
    values.update(zip(names, positionals))
    return verb, SimpleNamespace(**{n.lstrip("-").replace("-", "_"): v for n, v in values.items()})


def main(argv: Optional[List[str]] = None) -> int:
    try:
        verb, args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        verb, message = exc.args
        prog = "bvalg" if verb is None else f"bvalg {verb}"
        print(f"{_usage(verb)}\n{prog}: error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args is None:
        print(_help(verb))
        return EXIT_PASS
    try:
        return globals()[VERBS[verb][0]](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 -- any other escape is a bug, not a verdict
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
