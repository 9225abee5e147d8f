"""The three benchmark workloads: CLI argument lists and their known answers.

free-q      check-bv on seeded copies of the six-generator presentation over Q.
            Every instance does exact Fraction bracket and operator work.
partial-f2  fixture omega2-s3-f2 --verify: F2 scalars, about 98% of the
            instances skipped for missing table entries.
homology    ce-homology on seeded copies of h7 over Q (Bareiss rank) and h9
            over F_p (elimination); the verifiers are idle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import gen

FREE_Q_WINDOW = 14
FREE_Q_INSTANCES = 8051
PARTIAL_WINDOW = 20
PARTIAL_COVERAGE = "581/29762"
PARTIAL_INSTANCES = 59524
PARTIAL_BV_U1 = [["u1^2", "1"]]
COPIES = 4  # seeded copies per input, used in turn

WORKLOADS = ("free-q", "partial-f2", "homology")


@dataclass
class Expected:
    """The known answer for one invocation.  `work` is the number of
    identity instances (checked plus skipped) or, for ce-homology, of chain
    cells; it is the unit of instances_per_s."""

    work: int
    all_pass: bool = False
    coverage: Optional[str] = None
    details: Dict[str, list] = field(default_factory=dict)
    betti: Optional[List[str]] = None


@dataclass
class Invocation:
    argv: List[str]          # arguments after `python -m bvalg`
    kind: str                # input class; times are compared within a class
    expected: Expected


def instances(doc: dict) -> int:
    return sum(int(v["checked"]) + int(v["skipped"]) for v in doc["verdicts"])


def mismatch(expected: Expected, exit_code: int, stdout: str) -> Optional[str]:
    """None when the CLI's exit code and JSON match the known answer, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not one JSON document"
    verdicts = [v["verdict"] for v in doc["verdicts"]]
    if "fail" in verdicts or doc["certificates"]:
        return "an identity failed"
    if expected.all_pass and set(verdicts) != {"pass"}:
        return f"verdicts {sorted(set(verdicts))}, expected all pass"
    if expected.coverage is not None and doc["coverage"] != expected.coverage:
        return f"coverage {doc['coverage']}, expected {expected.coverage}"
    if expected.betti is not None:
        if doc["betti"] != expected.betti:
            return f"betti {doc['betti']}, expected {expected.betti}"
    elif instances(doc) != expected.work:
        return f"{instances(doc)} instances, expected {expected.work}"
    details = doc.get("details", {})
    for key, value in expected.details.items():
        if details.get(key) != value:
            return f"{key} = {details.get(key)}, expected {value}"
    return None


def build(workload: str, seed: int, directory: Path) -> List[Invocation]:
    """The invocations of one workload, in the order a run cycles through them.
    Generated input files are written under `directory`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "free-q":
        copies = [gen.six_gen_copy(rng, i) for i in range(COPIES)]
        paths = gen.write_copies(copies, directory)
        return [Invocation(["check-bv", str(p), "--max-degree", str(FREE_Q_WINDOW),
                            "--format", "json"], "six_gen",
                           Expected(FREE_Q_INSTANCES, all_pass=True, coverage="1",
                                    details=c.bv_details))
                for c, p in zip(copies, paths)]
    if workload == "partial-f2":
        return [Invocation(["fixture", "omega2-s3-f2", "--verify", "--max-degree",
                            str(PARTIAL_WINDOW), "--format", "json"], "omega2",
                           Expected(PARTIAL_INSTANCES, coverage=PARTIAL_COVERAGE,
                                    details={"bv(u1)": PARTIAL_BV_U1}))]
    if workload == "homology":
        p = rng.choice(gen.HEISENBERG_PRIMES)
        rounds = []
        for i in range(COPIES):
            pair = [(gen.heisenberg_copy(rng, 3, "Q", i), 3),
                    (gen.heisenberg_copy(rng, 4, f"F{p}", i), 4)]
            rng.shuffle(pair)
            rounds.extend(pair)
        paths = gen.write_copies([c for c, _ in rounds], directory)
        return [Invocation(["ce-homology", str(path), "--format", "json"],
                           f"h{2 * k + 1}",
                           Expected(2 ** (2 * k + 1),
                                    betti=[str(b) for b in gen.heisenberg_betti(k)]))
                for (_, k), path in zip(rounds, paths)]
    raise KeyError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def setup_code(argv: List[str]) -> str:
    """Python source that does an invocation's set-up and nothing more:
    import the CLI and parse the input into its structure."""
    verb = argv[0]
    lines = ["import bvalg.cli"]
    if verb == "fixture":
        lines += ["from bvalg.fixtures import load_fixture",
                  f"load_fixture({argv[1]!r}, {int(argv[4])})"]
    else:
        lines += ["from bvalg.dsl import parse_presentation",
                  f"source = parse_presentation(open({argv[1]!r}, encoding='utf-8').read())"]
        if verb == "check-bv":
            lines.append(f"source.to_structure({int(argv[3])})")
        else:
            lines.append("source.to_lie_presentation()")
    return "\n".join(lines)
