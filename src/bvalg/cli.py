"""Command-line driver.

Verbs: check-lie, check-bv, free-bv, bracket, ce-homology, fixture,
descriptor.  Exit codes: 0 all checks pass, 1 axiom failure, 2 input
error.  ``--format json`` emits one deterministic JSON document per run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple, Union

from .algebra import OutOfWindowError, Undefined, check_window
from .bv import BVStructure, verify_bv_axioms, free_bv, poisson_bracket
from .dsl import ParseError, PresentationSource, parse_presentation, parse_element_text
from .fields import FieldSpec
from .fixtures import (StructureDescriptor, framed_disks_descriptor, load_fixture)
from .homology import BoundarySquareError, betti, build_ce_complex
from .lie import LiePresentation, check_differential, check_lie_axioms
from .report import Report, Stopwatch, merge_reports, run_checks

EXIT_PASS = 0
EXIT_AXIOM_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def _read_source(path: str) -> PresentationSource:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
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
    for g in source.generators:
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
    presentation = source.to_lie_presentation()
    with Stopwatch() as clock:
        report = check_lie_axioms(presentation)
        if presentation.differential:
            report = merge_reports(report, check_differential(presentation))
    report.elapsed = clock.elapsed
    return _finish(report, args.format)


def _cmd_check_bv(args) -> int:
    _, structure = _read_structure(args)
    with Stopwatch() as clock:
        report = verify_bv_axioms(structure)
    report.elapsed = clock.elapsed
    return _finish(report, args.format)


def _element_command(args, compute) -> int:
    source, structure = _read_structure(args)
    result = compute(source, structure)
    if isinstance(result, Undefined):
        raise InputError(f"value undefined: blocked by {result.blocking}")
    try:
        check_window(result, structure.window)
    except OutOfWindowError as exc:
        raise InputError(
            f"result out of window: term {exc.monomial} of degree "
            f"{exc.monomial.degree} exceeds truncation {exc.limit}") from exc
    report = Report(details={"result": result})
    _emit(report, args.format)
    return EXIT_PASS


def _cmd_free_bv(args) -> int:
    def compute(source, structure: BVStructure):
        if structure.provenance != "free":
            raise InputError("free-bv needs a presentation without bv lines")
        element = _parse_arg_element(args.apply, source)
        return free_bv(structure, element)

    return _element_command(args, compute)


def _cmd_bracket(args) -> int:
    def compute(source, structure: BVStructure):
        a = _parse_arg_element(args.a, source)
        b = _parse_arg_element(args.b, source)
        return poisson_bracket(structure, a, b)

    return _element_command(args, compute)


def _parse_arg_element(text: str, source: PresentationSource):
    try:
        return parse_element_text(text, source)
    except ParseError as exc:
        raise InputError("; ".join(str(d) for d in exc.diagnostics)) from exc


def _cmd_ce_homology(args) -> int:
    source = _read_source(args.file)
    presentation = source.to_lie_presentation()
    try:
        complex_ = build_ce_complex(presentation,
                                    args.max_degree if args.max_degree is not None
                                    else source.truncate)
    except BoundarySquareError as exc:
        certificate = {"grade": str(exc.grade), "input": str(exc.source),
                       "d(d(input))": str(exc.composite)}
        return _finish(Report(checks=run_checks(("boundary-squared",), [()],
                                                lambda: certificate)), args.format)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = Report(betti=betti(complex_))
    _emit(report, args.format)
    return EXIT_PASS


def _describe_structure(structure: BVStructure) -> Report:
    report = Report()
    p = structure.presentation
    report.details["field"] = str(structure.field)
    report.details["shift"] = str(structure.shift)
    report.details["truncation"] = str(structure.truncation)
    report.details["generators"] = ", ".join(
        f"{g.id}:{g.degree}" for g in sorted(structure.generators, key=lambda g: g.sort_key))
    report.details["operator"] = "present" if structure.has_bv else "absent"
    if structure.has_bv:
        from .algebra import Monomial
        for g in sorted(structure.generators, key=lambda g: g.sort_key):
            status, value = structure.bv_status(Monomial(((g, 1),)))
            if status == "ok":
                report.details[f"bv({g.id})"] = value
            elif status == "out-of-window":
                report.details[f"bv({g.id})"] = (
                    f"out of window (degree {value.degree} > {value.limit})")
            else:
                report.details[f"bv({g.id})"] = "undefined"
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
    try:
        fixture = load_fixture(args.name, args.max_degree)
    except (KeyError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if isinstance(fixture, StructureDescriptor):
        return _finish(_describe_descriptor(fixture), args.format)
    if isinstance(fixture, LiePresentation):
        report = _describe_presentation(fixture)
        if args.verify:
            report = merge_reports(report, check_lie_axioms(fixture))
            if fixture.differential:
                report = merge_reports(report, check_differential(fixture))
        return _finish(report, args.format)
    report = _describe_structure(fixture)
    if args.verify:
        with Stopwatch() as clock:
            report = merge_reports(report, verify_bv_axioms(fixture))
        report.elapsed = clock.elapsed
    return _finish(report, args.format)


def _cmd_descriptor(args) -> int:
    try:
        descriptor = framed_disks_descriptor(args.n, FieldSpec.parse(args.field))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _finish(_describe_descriptor(descriptor), args.format)


def _window_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _n_arg(text: str) -> Union[int, str]:
    if text == "infinity":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'infinity', got {text!r}") from None


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
    _add_common(p)
    p.set_defaults(func=_cmd_ce_homology)

    p = sub.add_parser("fixture", help="inspect or verify a named fixture")
    p.add_argument("name")
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("descriptor", help="operator inventory for n and a field")
    p.add_argument("--n", required=True, type=_n_arg)
    p.add_argument("--field", required=True)
    _add_common(p, max_degree=False)
    p.set_defaults(func=_cmd_descriptor)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
