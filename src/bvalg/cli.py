"""Command-line driver: the verbs that `build_parser` declares.

Exit codes: 0 all checks pass, 1 axiom failure, 2 input error, 3 internal
error (a fault of bvalg, reported in one line on stderr).  ``--format
json`` emits one deterministic JSON document per run.  A verb imports
what only it needs (dsl, bv, homology, fixtures) when it runs.
"""

from __future__ import annotations

import argparse
import sys
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


def _window_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, max_degree: bool = True) -> None:
    parser.add_argument("--format", choices=("human", "json"), default="human")
    if max_degree:
        parser.add_argument("--max-degree", type=_window_arg, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bvalg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-lie", help="verify the Lie axioms of a presentation")
    p.add_argument("file")
    _add_common(p, max_degree=False)
    p.set_defaults(func=_cmd_check_lie)

    p = sub.add_parser("check-bv", help="verify the bracket/operator axioms")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_check_bv)

    p = sub.add_parser("free-bv", help="apply the free operator to an element")
    p.add_argument("file")
    p.add_argument("--apply", required=True, metavar="ELEMENT")
    _add_common(p)
    p.set_defaults(func=_cmd_free_bv)

    p = sub.add_parser("bracket", help="bracket of two elements")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("ce-homology", help="Betti numbers of a shift-0 presentation")
    p.add_argument("file")
    _add_common(p, max_degree=False)
    p.set_defaults(func=_cmd_ce_homology)

    p = sub.add_parser("fixture", help="a named fixture; fd:<n>:<field> is the operator table")
    p.add_argument("name")
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 -- any other escape is a bug, not a verdict
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
