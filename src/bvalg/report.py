"""Machine-readable verification reports and the identity driver.

A report is a list of named checks, each pass/fail/skipped with an optional
counterexample certificate (rendered inputs and both sides of the failed
identity), plus a coverage fraction for partially defined structures.
JSON output is deterministic: sorted keys, all numbers as strings, no
timing data.

Every check is run by ``run_checks(names, instances, identity, describe)``,
the one place a certificate is put together.  The identity is called once
per instance (a tuple of arguments) that the instances yield, and returns
one outcome per check name, as a tuple when there are several names:

  * ``None``: the instance passes;
  * an ``Undefined``: a needed value is missing, the instance is skipped;
  * a dict of strings: the instance fails, and the dict holds the failed
    sides of the identity.

Instances passed over without a call, as a gated window prunes them, are
counted by the iterable's ``pruned`` after the loop and are skipped for
every name.

A check's certificate is its first failing instance in enumeration order:
``describe(*instance)``, the rendered inputs, followed by the failed sides.
Only a failing instance is described.  A check is ``fail`` exactly when it
has a certificate, ``skipped`` if every instance was skipped, and ``pass``
otherwise.  Checks that share an enumeration (one identity returning several
outcomes) see the same instances in the same order.  An identity may decide
an instance from the two-sided sum of lhs - rhs, as those in `bv` do: it
builds the two sides only for a failing instance, and a blocked one returns
the first gap it meets.
"""

from __future__ import annotations

import time
from math import gcd
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


_ESCAPES = dict(zip('"\\\b\f\n\r\t', ['\\"', "\\\\", "\\b", "\\f", "\\n", "\\r", "\\t"]))


def json_text(value) -> str:
    """What json.dumps(value, sort_keys=True, separators=(",", ":")) writes for
    a tree of str, list and dict with str keys, written here so that no verb
    pays json's import; any other value raises TypeError."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return '"' + value + '"'
        out = []
        for c in value:  # ASCII out, as json's ensure_ascii writes it
            n = ord(c)
            if n > 0xffff:  # a surrogate pair
                n -= 0x10000
                out.append(f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}")
            else:
                out.append(_ESCAPES.get(c) or (c if 0x20 <= n < 0x7f else f"\\u{n:04x}"))
        return '"' + "".join(out) + '"'
    if isinstance(value, list):
        return "[" + ",".join(map(json_text, value)) + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        return "{" + ",".join(json_text(key) + ":" + json_text(item)
                              for key, item in sorted(value.items())) + "}"
    raise TypeError(f"no JSON text for a {type(value).__name__}: a tree holds str, list, dict")


def _detail_json(value):
    if isinstance(value, Element):
        return [list(pair) for pair in element_to_pairs(value)]
    return str(value)


class CheckResult:
    def __init__(self, name: str, verdict: str):
        self.name = name
        self.verdict = verdict
        self.checked = 0
        self.skipped = 0
        self.certificate: Optional[Dict[str, str]] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckResult) and vars(self) == vars(other)


def run_checks(names: Sequence[str], instances: Iterable[tuple],
               identity: Callable[..., object],
               describe: Callable[..., Dict[str, str]]) -> List[CheckResult]:
    """Tally identity(*instance) over the instances, one check per name
    (the outcome contract is in the module docstring)."""
    results = [CheckResult(name, PASS) for name in names]
    for instance in instances:
        outcomes = identity(*instance)
        if not isinstance(outcomes, tuple):
            outcomes = (outcomes,)
        for result, outcome in zip(results, outcomes):
            if isinstance(outcome, Undefined):
                result.skipped += 1
                continue
            result.checked += 1
            if outcome is not None and result.certificate is None:
                result.certificate = {**describe(*instance), **outcome}
    pruned = getattr(instances, "pruned", 0)
    for result in results:
        result.skipped += pruned
        if result.certificate is not None:
            result.verdict = FAIL
        elif result.skipped and not result.checked:
            result.verdict = SKIPPED
    return results


def by_name(*keys: str) -> Callable[..., Dict[str, str]]:
    """The describe that renders each argument of an instance under its key."""
    return lambda *args: {key: str(arg) for key, arg in zip(keys, args)}


def as_pair(x, y) -> Dict[str, str]:
    """The describe of a generator pair, as "[x,y]"."""
    return {"pair": f"[{x},{y}]"}


def as_triple(a, b, c) -> Dict[str, str]:
    """The describe of a triple, as "(a,b,c)"."""
    return {"triple": f"({a},{b},{c})"}


def compare(lhs_label: str, lhs, rhs_label: str, rhs) -> Outcome:
    """Outcome of the identity lhs == rhs: the first Undefined side, None
    when equal, else both rendered sides."""
    gap = first_undefined(lhs, rhs)
    if gap is not None:
        return gap
    if lhs == rhs:
        return None
    return {lhs_label: str(lhs), rhs_label: str(rhs)}


def vanishes(label: str, value) -> Outcome:
    """Outcome of the identity value == 0."""
    if isinstance(value, Undefined):
        return value
    return None if value.is_zero else {label: str(value)}


class Report:
    def __init__(self, checks: Optional[List[CheckResult]] = None,
                 betti: Optional[List[int]] = None,
                 details: Optional[Dict[str, DetailValue]] = None):
        self.checks = [] if checks is None else checks
        self.betti = betti
        self.details = {} if details is None else details
        self.elapsed: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(c.verdict != FAIL for c in self.checks)

    @property
    def coverage(self) -> str:
        """checked / (checked + skipped) over every check, in lowest terms as
        str(Fraction) writes it ("581/29762", "1"); "1" when nothing was counted."""
        checked = sum(c.checked for c in self.checks)
        total = checked + sum(c.skipped for c in self.checks)
        if not total:
            return "1"
        g = gcd(checked, total)
        return str(checked // g) if g == total else f"{checked // g}/{total // g}"

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
            "coverage": self.coverage,
            "betti": [str(b) for b in self.betti] if self.betti is not None else [],
        }
        if self.details:
            doc["details"] = {k: _detail_json(v)
                              for k, v in sorted(self.details.items())}
        return doc

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

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
    return merged
