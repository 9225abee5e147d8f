"""The audit scripts under scripts/ run as subprocesses and must pass."""

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
