"""Machine-readable verification reports and the identity driver.

A report is a list of named checks, each pass/fail/skipped with an optional
counterexample certificate (rendered inputs and both sides of the failed
identity), plus a coverage fraction for partially defined structures.
JSON output is deterministic: sorted keys, all numbers as strings, no
timing data.

Every check is run by ``run_checks(names, instances, identity)``.  The
identity is called once per instance (a tuple of arguments) and returns one
outcome per check name, as a tuple when there are several names:

  * ``None``: the instance passes;
  * an ``Undefined``: a needed value is missing, the instance is skipped;
  * a dict of strings: the instance fails, and the dict is its certificate.

The certificate of a check is its first failing instance in enumeration
order.  A check is ``fail`` if any instance fails, ``skipped`` if every
instance was skipped, and ``pass`` otherwise.  Checks that share an
enumeration (one identity returning several outcomes) see the same
instances in the same order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from .algebra import Element, Undefined, element_to_pairs, first_undefined

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# Detail values may be plain strings or algebra Elements; Elements are
# rendered as strings for humans and as sorted (monomial, coefficient)
# pair lists in JSON.
DetailValue = Union[str, Element]
Outcome = Union[None, Undefined, Dict[str, str]]


def _detail_json(value):
    if isinstance(value, Element):
        return [list(pair) for pair in element_to_pairs(value)]
    return str(value)


@dataclass
class CheckResult:
    name: str
    verdict: str
    checked: int = 0
    skipped: int = 0
    certificate: Optional[Dict[str, str]] = None


class CheckAccumulator:
    """Tallies one named check over many instances, keeping the first
    counterexample as the certificate; the private tally of `run_checks`."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.skipped = 0
        self.failures = 0
        self.certificate: Optional[Dict[str, str]] = None

    def record_pass(self) -> None:
        self.checked += 1

    def record_skip(self) -> None:
        self.skipped += 1

    def record_fail(self, certificate: Dict[str, str]) -> None:
        self.checked += 1
        self.failures += 1
        if self.certificate is None:
            self.certificate = dict(certificate)

    def result(self) -> CheckResult:
        if self.failures:
            verdict = FAIL
        elif self.checked == 0 and self.skipped > 0:
            verdict = SKIPPED
        else:
            verdict = PASS
        return CheckResult(self.name, verdict, self.checked, self.skipped,
                           self.certificate)


def run_checks(names: Sequence[str], instances: Iterable[tuple],
               identity: Callable[..., object]) -> List[CheckResult]:
    """Tally identity(*instance) over the instances, one check per name
    (the outcome contract is in the module docstring)."""
    tallies = [CheckAccumulator(name) for name in names]
    for instance in instances:
        outcomes = identity(*instance)
        if not isinstance(outcomes, tuple):
            outcomes = (outcomes,)
        for tally, outcome in zip(tallies, outcomes):
            if outcome is None:
                tally.record_pass()
            elif isinstance(outcome, Undefined):
                tally.record_skip()
            else:
                tally.record_fail(outcome)
    return [tally.result() for tally in tallies]


def compare(inputs: Dict[str, str], lhs_label: str, lhs, rhs_label: str,
            rhs) -> Outcome:
    """Outcome of the identity lhs == rhs: the first Undefined side, None
    when equal, else a certificate of the inputs and both rendered sides."""
    gap = first_undefined(lhs, rhs)
    if gap is not None:
        return gap
    if lhs == rhs:
        return None
    return {**inputs, lhs_label: str(lhs), rhs_label: str(rhs)}


def vanishes(inputs: Dict[str, str], label: str, value) -> Outcome:
    """Outcome of the identity value == 0."""
    if isinstance(value, Undefined):
        return value
    return None if value.is_zero else {**inputs, label: str(value)}


@dataclass
class Report:
    checks: List[CheckResult] = dc_field(default_factory=list)
    betti: Optional[List[int]] = None
    details: Dict[str, DetailValue] = dc_field(default_factory=dict)
    elapsed: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(c.verdict != FAIL for c in self.checks)

    @property
    def coverage(self) -> Fraction:
        checked = sum(c.checked for c in self.checks)
        skipped = sum(c.skipped for c in self.checks)
        total = checked + skipped
        return Fraction(checked, total) if total else Fraction(1)

    def certificates(self) -> List[Dict[str, str]]:
        out = []
        for c in self.checks:
            if c.certificate is not None:
                cert = {"check": c.name}
                cert.update(c.certificate)
                out.append(cert)
        return out

    def to_json_dict(self) -> Dict:
        verdicts = [
            {"check": c.name, "verdict": c.verdict,
             "checked": str(c.checked), "skipped": str(c.skipped)}
            for c in self.checks
        ]
        doc = {
            "verdicts": verdicts,
            "certificates": self.certificates(),
            "coverage": str(self.coverage),
            "betti": [str(b) for b in self.betti] if self.betti is not None else [],
        }
        if self.details:
            doc["details"] = {k: _detail_json(v)
                              for k, v in sorted(self.details.items())}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def render_human(self) -> str:
        lines = []
        for c in self.checks:
            counts = f"({c.checked} checked"
            counts += f", {c.skipped} skipped)" if c.skipped else ")"
            lines.append(f"{c.verdict.upper():7s} {c.name} {counts}")
            if c.certificate is not None:
                for key, value in c.certificate.items():
                    lines.append(f"        {key}: {value}")
        for key, value in sorted(self.details.items()):
            lines.append(f"{key} = {value}")
        if self.betti is not None:
            lines.append("betti: " + " ".join(str(b) for b in self.betti))
        lines.append(f"coverage: {self.coverage}")
        if self.elapsed is not None:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


class Stopwatch:
    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        return False


def merge_reports(*reports: Report) -> Report:
    merged = Report()
    for r in reports:
        merged.checks.extend(r.checks)
        merged.details.update(r.details)
        if r.betti is not None:
            merged.betti = r.betti
    return merged
