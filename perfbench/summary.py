"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/summary.py --seed 1 --seconds 10

Runs perfbench/run.py once per workload with tracing off and once with it
on, one run at a time, and prints one line per metric.  Exits non-zero if
any run reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if len(lines) < 2:
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})")
                status = 1
                continue
            context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
            if trace == 0:
                print(f"# {workload}: {context['samples']} samples, tail = "
                      f"p{context['tail_percentile']}, seed {context['seed']}, "
                      f"git {context['git_sha'][:12]}, Python {context['python']}, "
                      f"nproc {context['nproc']}")
            else:
                print(f"# {workload} traced: {context['passes']} passes")
            print(f"#   correct {result['correct']}: {result['failed']} of "
                  f"{result['attempted']} failed")
            for name, m in result["metrics"].items():
                value = m["value"]
                text = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
                print(f"{workload:11s} {name:30s} {text} {m['unit']}")
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
