#!/usr/bin/env python3
"""Randomized audit of the free-operator identities.

Draws seeded free structures on random Lie presentations from the sampler
in tests/strategies.py, each truncated at the degree window, and runs
verify_bv_axioms on each: the square-zero, deviation, bracket-compatibility
and Gerstenhaber suites.  Prints one line per presentation and a summary.

Usage: python scripts/random_bv_audit.py [--count N] [--seed S] [--max-degree D]
"""

import argparse
import sys
from pathlib import Path

from bvalg.bv import verify_bv_axioms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from strategies import seeded_structures  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-degree", type=int, default=10)
    args = parser.parse_args()

    failures = 0
    drawn = seeded_structures(args.seed, basis_budget=80, window=args.max_degree)
    for i, structure in zip(range(args.count), drawn):
        presentation = structure.presentation
        report = verify_bv_axioms(structure)
        checked = sum(c.checked for c in report.checks)
        shape = ", ".join(f"{g.id}:{g.degree}" for g in presentation.generators)
        brackets = sum(1 for v in presentation.brackets.values() if not v.is_zero)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"[{i:02d}] {verdict} field={presentation.field} "
              f"shift={presentation.shift} gens=({shape}) "
              f"brackets={brackets} diffs={len(presentation.differential)} "
              f"checks={checked}")
        if not report.passed:
            failures += 1
            for cert in report.certificates():
                print("     counterexample:", cert)
    print(f"summary: {args.count - failures}/{args.count} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
