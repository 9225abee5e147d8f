#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload free-q --seed 3 --pairs 10

Runs `perfbench/run.py --trace 0` once in each of two checkouts per pair,
the parent first on even pairs and the change first on odd ones, with the
run length of BENCHMARK.json.  Each run's result line is appended to
`<checkout>/.bench_build/bench_pairs/<workload>-<seed>.jsonl`.  Then, per
end-to-end metric, it prints both sides' median and quartiles, how many
pairs the change won (ties count for neither), and:

  gain        the change won at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile distance
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  neither, and the parent's quartile distance is wider than
              that bound, unless every change run beat every parent run
  within bound  otherwise

A gain also needs no more failed operations on the change's side than on
the parent's.  The printed rows, with both checkouts' commits, the seed, the
number of pairs and the run length, are also written as JSON to
`<change>/.bench_build/bench_pairs/<workload>-<seed>.summary.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

MIN_PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: List[Tuple[dict, dict]], metrics: List[dict]) -> List[dict]:
    """One row per end-to-end metric of BENCHMARK.json, from (parent, change)
    result objects as run.py prints them on its last line."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        gain = (lambda old, new: old - new) if lower else (lambda old, new: new - old)
        wins = sum(gain(p, c) > 0 for p, c in zip(parent, change))
        spread = pq3 - pq1
        failed = (sum(p["failed"] for p, _ in pairs), sum(c["failed"] for _, c in pairs))
        if (wins >= 0.9 * len(pairs) and gain(pmed, cmed) > spread
                and failed[1] <= failed[0]):
            verdict = "gain"
        elif -gain(pmed, cmed) > metric["bound"] * abs(pmed):
            verdict = "regression"
        elif spread > metric["bound"] * abs(pmed) and not (
                min(gain(p, c) for p in parent for c in change) > 0):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({"metric": name, "unit": metric["unit"], "parent": (pq1, pmed, pq3),
                     "change": (cq1, cmed, cq3), "wins": wins, "pairs": len(pairs),
                     "failed": failed, "verdict": verdict})
    return rows


def render(rows: List[dict]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    lines = [f"{'metric':<16} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
             f"{'wins':>6}  verdict"]
    for r in rows:
        lines.append(f"{r['metric']:<16} {q(r['parent']):<30} {q(r['change']):<30} "
                     f"{r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    failed = rows[0]["failed"] if rows else (0, 0)
    lines.append(f"failed runs' operations: parent {failed[0]}, change {failed[1]}")
    return "\n".join(lines)


def write_summary(path: Path, rows: List[dict], context: dict) -> None:
    """The rows and the run's context as one sorted JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**context, "rows": rows}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def git_sha(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if not done.stdout.strip():
        raise SystemExit(f"{checkout}: run.py printed no result\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    log = checkout / ".bench_build" / "bench_pairs" / f"{workload}-{seed}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(result) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent == change:
        parser.error("--parent and --change must be two checkouts")
    benchmark = json.loads((change / "BENCHMARK.json").read_text())

    pairs = []
    for i in range(args.pairs):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        results = {side: run_once(side, args.workload, args.seed, benchmark["run_seconds"])
                   for side in order}
        pairs.append((results[parent], results[change]))
        print(f"pair {i + 1}/{args.pairs}: verdict_s parent "
              f"{results[parent]['metrics']['verdict_s']['value']:.4f} change "
              f"{results[change]['metrics']['verdict_s']['value']:.4f}", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{benchmark['run_seconds']} s runs")
    rows = summarize(pairs, benchmark["end_to_end"])
    print(render(rows))
    summary = change / ".bench_build" / "bench_pairs" / f"{args.workload}-{args.seed}.summary.json"
    write_summary(summary, rows, {"workload": args.workload, "seed": args.seed,
                                  "pairs": args.pairs, "run_seconds": benchmark["run_seconds"],
                                  "parent_sha": git_sha(parent), "change_sha": git_sha(change)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
