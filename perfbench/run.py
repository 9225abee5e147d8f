"""bvalg benchmark: CLI time-to-verdict, and a traced per-layer run.

    python3 perfbench/run.py --workload free-q --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; it needs `src/bvalg` beside this
directory.  With `--trace 0` every sample is a fresh `python -m bvalg ...`
subprocess, timed from spawn to exit, one at a time (a closed loop with one
client), scaled to a fixed machine speed (see ScaledClock), and its JSON
output is checked against the known answer.  With `--trace 1` the same
arguments go to `bvalg.cli.main` in this process, untraced and under the
wrappers of tracing.py, and the per-layer metrics are printed.  Generated
inputs, spans and results go under `.bench_build/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
run's context (git SHA, Python, nproc, seed, sample counts).  The exit code
is 1 when any output differs from its known answer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

END_TO_END = {"verdict_s": "s", "verdict_tail_s": "s", "instances_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# A fixed pure-Python program (interpreter start, dict and Fraction work)
# that the benchmark times next to every measured child; see ScaledClock.
REFERENCE = """\
from fractions import Fraction
table, total = {}, Fraction(0)
for i in range(12000):
    key = (i % 97, i % 89)
    table[key] = table.get(key, 0) + i
    total += Fraction(i % 7 + 1, i % 5 + 1)
"""
REFERENCE_S = 0.1
SETUP_SAMPLES = 5
TAIL_BEYOND = 10             # the tail sample has this many slower samples
MIN_SAMPLES = TAIL_BEYOND + 1
INVOCATION_LIMIT_S = 120.0
RUN_LIMIT_S = 150.0          # stop sampling by then, whatever --seconds says


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Spawner:
    """Runs `python ...` children with `src` on the path and reaps each with
    wait4, for its exit status and peak RSS."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def run(self, args: List[str]):
        """(wall seconds, exit code, stdout, peak RSS in KiB)."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        watchdog.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


class ScaledClock:
    """Wall times scaled to a fixed machine speed.

    The host's speed drifts by tens of percent over minutes, with other
    tenants' load.  Every measured child is bracketed by runs of REFERENCE,
    a fixed program that shares nothing with bvalg, and its wall time is
    divided by the mean of the two references around it and multiplied by
    REFERENCE_S: seconds on a machine where the reference takes that long.
    """

    def __init__(self, spawner: Spawner) -> None:
        self.spawner = spawner
        self.references = [spawner.run(["-c", REFERENCE])[0]]

    def run(self, args: List[str]):
        """Like Spawner.run, with the wall time scaled."""
        wall, code, out, maxrss = self.spawner.run(args)
        self.references.append(self.spawner.run(["-c", REFERENCE])[0])
        reference = (self.references[-2] + self.references[-1]) / 2
        return wall * REFERENCE_S / reference, code, out, maxrss


def by_kind_median(values: List[float], kinds: List[str]) -> Dict[str, float]:
    groups: Dict[str, List[float]] = {}
    for v, k in zip(values, kinds):
        groups.setdefault(k, []).append(v)
    return {k: statistics.median(vs) for k, vs in groups.items()}


def end_to_end(invocations, seconds: float, started: float):
    spawner = Spawner()
    codes = [workloads.setup_code(inv.argv) for inv in invocations]
    spawner.run(["-c", codes[0]])  # compiles bytecode; not measured
    clock = ScaledClock(spawner)
    setup = [clock.run(["-c", codes[i % len(codes)]])[0] for i in range(SETUP_SAMPLES)]

    times, kinds, rss, work, failures, spent = [], [], [], {}, [], []
    while True:
        elapsed = time.perf_counter() - started
        if elapsed > RUN_LIMIT_S:
            break
        if len(times) >= MIN_SAMPLES and elapsed + statistics.median(spent) > seconds:
            break
        inv = invocations[len(times) % len(invocations)]
        sample_start = time.perf_counter()
        wall, code, out, maxrss = clock.run(["-m", "bvalg"] + inv.argv)
        spent.append(time.perf_counter() - sample_start)
        times.append(wall)
        kinds.append(inv.kind)
        rss.append(maxrss / 1024)
        reason = workloads.mismatch(inv.expected, code, out)
        if reason is None:
            work[inv.kind] = inv.expected.work
        else:
            failures.append(f"{' '.join(inv.argv)}: {reason}")

    medians = by_kind_median(times, kinds)
    verdict = statistics.mean(medians.values())
    ratios = sorted((t / medians[k] for t, k in zip(times, kinds)), reverse=True)
    n = len(times)
    metrics = {
        "verdict_s": verdict,
        "verdict_tail_s": verdict * ratios[min(TAIL_BEYOND, n - 1)],
        # One invocation of each kind at its median time; a kind with no
        # correct output decides nothing.
        "instances_per_s": sum(work.values()) / sum(medians.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.mean(by_kind_median(rss, kinds).values()),
        "ok_frac": 1 - len(failures) / n,
    }
    context = {"samples": n, "samples_by_kind": {k: kinds.count(k) for k in medians},
               "tail_percentile": round(100 * max(n - TAIL_BEYOND, 1) / n, 1),
               "setup_samples": SETUP_SAMPLES,
               "scaled_quartiles_s_by_kind": {k: statistics.quantiles(
                   [t for t, kk in zip(times, kinds) if kk == k], n=4) for k in medians},
               "reference_quartiles_s": statistics.quantiles(clock.references, n=4)}
    return metrics, END_TO_END, n, failures, context


def run_inprocess(argv: List[str]):
    """Calls bvalg.cli.main as currently bound, so a traced pass goes
    through the wrapper.  A crash becomes exit code -1, with its traceback
    on stderr, so the run reports it as a failure and goes on."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["bvalg.cli"].main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 (reported below, the run goes on)
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - start
    if code == -1:
        print(err.getvalue(), file=sys.stderr)
    return wall, code, out.getvalue()


def traced(invocations, seconds: float, started: float, name: str, seed: int):
    """Passes over one invocation of each input kind: untraced, with spans
    only (for times) and with spans and counters (for counts), in rotating
    order.  The per-layer metrics are medians over the passes."""
    sys.path.insert(0, str(SRC))
    import bvalg.cli  # noqa: F401  (loads every bvalg module before wrapping)
    chosen = []
    for inv in invocations:
        if inv.kind not in {c.kind for c in chosen}:
            chosen.append(inv)
    per_pass: List[Dict[str, float]] = []
    spans, failures, attempted = [], [], 0
    pass_s = 0.0
    while not per_pass or time.perf_counter() - started + pass_s < seconds:
        pass_start = time.perf_counter()
        tracers = {"plain": contextlib.nullcontext(), "timed": tracing.Tracer(hot=False),
                   "counted": tracing.Tracer()}
        modes = list(tracers)
        modes = modes[len(per_pass) % 3:] + modes[:len(per_pass) % 3]
        outputs, walls = {}, {}
        for mode in modes:
            outputs[mode], walls[mode] = [], 0.0
            with tracers[mode]:
                for inv in chosen:
                    wall, code, out = run_inprocess(inv.argv)
                    walls[mode] += wall
                    outputs[mode].append((code, out))
        docs = []
        for i, inv in enumerate(chosen):
            attempted += 2
            code, out = outputs["plain"][i]
            reason = workloads.mismatch(inv.expected, code, out)
            for mode in ("timed", "counted"):
                if outputs[mode][i] != (code, out):
                    failures.append(f"{' '.join(inv.argv)}: {mode} output differs "
                                    "from untraced output")
            if reason is not None:
                failures.append(f"{' '.join(inv.argv)}: {reason}")
            else:
                docs.append(json.loads(out))
        per_pass.append(tracing.layer_metrics(tracers["counted"], tracers["timed"], docs,
                                              walls["timed"], walls["plain"]))
        pass_s = time.perf_counter() - pass_start
        spans.append({mode: {"spans": tracers[mode].spans, "self_s": tracers[mode].self_times()}
                      for mode in ("timed", "counted")})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{name}-{seed}.json").write_text(json.dumps(spans))
    # median_low keeps counts whole; they repeat exactly from pass to pass.
    metrics = {k: (statistics.median_low if unit == "count" else statistics.median)(
        [p[k] for p in per_pass]) for k, unit in tracing.PER_LAYER.items()}
    self_s = spans[-1]["timed"]["self_s"]
    by_layer: Dict[str, float] = {}
    for span_name, t in self_s.items():
        layer = span_name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    context = {"passes": len(per_pass), "inputs": [inv.argv for inv in chosen],
               "self_s": self_s, "self_s_by_layer": by_layer,
               "missing": tracers["counted"].missing}
    return metrics, tracing.PER_LAYER, attempted, failures, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "bvalg" / "cli.py").is_file():
        print(f"error: no bvalg sources at {SRC}", file=sys.stderr)
        return 2

    invocations = workloads.build(args.workload, args.seed,
                                  OUT / f"inputs-{args.workload}-{args.seed}")
    if args.trace:
        metrics, units, attempted, failures, context = traced(
            invocations, args.seconds, started, args.workload, args.seed)
    else:
        metrics, units, attempted, failures, context = end_to_end(
            invocations, args.seconds, started)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    context.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "git_sha": git_sha(),
                    "python": platform.python_version(), "nproc": os.cpu_count()})
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
