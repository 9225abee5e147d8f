#!/usr/bin/env python3
"""Run the verification suites over the built-in fixtures and the shipped
presentation files, printing one report per target.

Usage: python scripts/verify_fixtures.py [--max-degree D] [--format human|json]
"""

import argparse
import glob
import os
import sys

from bvalg.cli import main as cli_main

FIXTURES = [
    "sphere-lie:2", "sphere-lie:3", "sphere-lie:4",
    "loopspace:2:3", "loopspace:2:4", "loopspace:3:5", "loopspace:4:5", "loopspace:4:6",
    "omega2-s3-f2",
    "fd:2:Q", "fd:3:Q", "fd:4:Q", "fd:2:F2",
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--format", choices=("human", "json"), default="human")
    args = parser.parse_args()

    worst = 0
    for name in FIXTURES:
        print(f"== fixture {name}")
        # a framed-disks table has no identities, and refuses --verify
        verify = [] if name.startswith("fd:") else ["--verify"]
        code = cli_main(["fixture", name, *verify,
                         "--max-degree", str(args.max_degree),
                         "--format", args.format])
        worst = max(worst, code)
        print()
    file_dir = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    for path in sorted(glob.glob(os.path.join(file_dir, "*.lie"))):
        rel = os.path.relpath(path)
        print(f"== check-lie {rel}")
        worst = max(worst, cli_main(["check-lie", path, "--format", args.format]))
        print(f"== check-bv {rel}")
        worst = max(worst, cli_main(["check-bv", path, "--format", args.format]))
        print()
    print("overall:", "PASS" if worst == 0 else f"FAIL (exit {worst})")
    return worst


if __name__ == "__main__":
    sys.exit(main())
