"""The audit scripts under scripts/ run as subprocesses and must pass."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_bv_audit_passes(seed):
    done = run_script("random_bv_audit.py", "--count", "20", "--seed", str(seed))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "summary: 20/20 passed" in done.stdout.splitlines()
    # every drawn shape and per-structure check count, byte for byte
    assert done.stdout == (GOLDEN_DIR / f"random_bv_audit_seed{seed}.out").read_text()


def test_verify_fixtures_passes():
    done = run_script("verify_fixtures.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "overall: PASS" in done.stdout.splitlines()


def test_parser_digest_is_deterministic_and_never_crashes():
    first = run_script("parser_digest.py", "--seed", "3", "--count", "300")
    second = run_script("parser_digest.py", "--seed", "3", "--count", "300")
    # any exception but ParseError escapes the script: a traceback and a nonzero exit
    assert first.returncode == 0 and first.stderr == "", first.stderr
    assert len(first.stdout.splitlines()) == 300
    assert second.returncode == 0 and second.stdout == first.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_result(verdict_s, peak_rss_mb, setup_s, failed=0):
    """A result line as perfbench/run.py prints it, with the metrics the test reads."""
    values = {"verdict_s": verdict_s, "verdict_tail_s": 1.2 * verdict_s,
              "instances_per_s": 8051 / verdict_s, "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb, "ok_frac": 1.0}
    return json.loads(json.dumps({
        "correct": not failed, "attempted": 25, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}))


def test_bench_pairs_summary_on_canned_results(tmp_path):
    bench_pairs = load_script("bench_pairs")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_s = [0.47, 0.48, 0.49, 0.48, 0.47, 0.50, 0.48, 0.46, 0.49, 0.48]
    change_s = [0.40, 0.41, 0.40, 0.39, 0.48, 0.40, 0.41, 0.40, 0.42, 0.40]  # pair 5 lost
    setup_parent = [0.05, 0.09, 0.06, 0.08, 0.05, 0.09, 0.06, 0.08, 0.05, 0.09]
    pairs = [(canned_result(p, 18.0, sp), canned_result(c, 21.0, sp))
             for p, c, sp in zip(parent_s, change_s, setup_parent)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, metrics)}
    assert (rows["verdict_s"]["wins"], rows["verdict_s"]["verdict"]) == (9, "gain")
    assert rows["verdict_s"]["parent"][1] == 0.48
    assert rows["verdict_s"]["change"][1] == 0.40
    assert rows["instances_per_s"]["verdict"] == "gain"  # higher is better
    assert rows["peak_rss_mb"]["verdict"] == "regression"  # 17% worse, bound 10%
    assert rows["setup_s"]["verdict"] == "unresolved"  # quartiles wider than the bound
    assert rows["ok_frac"]["verdict"] == "within bound"
    # one pair fewer won is below nine tenths: no gain claimed
    pairs[0] = (canned_result(0.47, 18.0, 0.05), canned_result(0.49, 21.0, 0.05))
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, metrics)}
    assert (rows["verdict_s"]["wins"], rows["verdict_s"]["verdict"]) == (8, "within bound")
    # a gain needs no more failed operations than the parent
    pairs = [(p, canned_result(c, 18.0, 0.07, failed=1))
             for (p, _), c in zip(pairs, change_s)]
    assert bench_pairs.summarize(pairs, metrics)[0]["verdict"] == "within bound"
    assert "failed runs' operations: parent 0, change 10" in bench_pairs.render(
        bench_pairs.summarize(pairs, metrics))
    # the written summary holds the printed rows and the run's context
    path = tmp_path / "bench_pairs" / "free-q-3.summary.json"
    context = {"workload": "free-q", "seed": 3, "pairs": 10, "run_seconds": 38,
               "parent_sha": "a" * 40, "change_sha": "b" * 40}
    bench_pairs.write_summary(path, bench_pairs.summarize(pairs, metrics), context)
    written = json.loads(path.read_text())
    assert {k: written[k] for k in context} == context
    assert [r["metric"] for r in written["rows"]] == [m["name"] for m in metrics]
    assert written["rows"][0]["verdict"] == "within bound"
    assert written["rows"][0]["failed"] == [0, 10]
