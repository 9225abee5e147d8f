"""Golden outputs: the report and exit code of every shipped input.

Each case runs one CLI invocation, with its format (``--format json``, and
``--format human`` for the cases named ``*_human``), and compares its stdout
and exit code byte for byte with ``tests/data/golden/<case>.out``, whose
first line is ``exit: <code>``.  Refactors of the verifiers must keep every
verdict, count, coverage figure and certificate identical.  The human report
of a TIMED case has exactly one ``elapsed:`` line, just before ``result:``;
its time is written and compared as ``elapsed: <s>``.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import glob
import io
import os
import re
import sys

import pytest

from bvalg.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "data", "golden")
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from verify_fixtures import FIXTURES  # noqa: E402

# the human reports that end with the verifier's elapsed time
TIMED = ("check-lie_bad_jacobi_human", "check-bv_bad_bv_human",
         "fixture_omega2-s3-f2_D12_human")
ELAPSED = re.compile(r"elapsed: \d+\.\d{3}s")


def _lie_files():
    return (sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.lie")))
            + [os.path.join(HERE, "data", "bad_jacobi.lie"),
               os.path.join(HERE, "data", "bad_bv.lie"),
               os.path.join(HERE, "data", "odd_shift_bv.lie"),
               os.path.join(HERE, "data", "bad_antisymmetry.lie"),
               os.path.join(HERE, "data", "bad_diff_square.lie"),
               os.path.join(HERE, "data", "bad_diff_leibniz.lie")])


def _cases():
    cases = {}
    for path in _lie_files():
        stem = os.path.splitext(os.path.basename(path))[0]
        cases[f"check-lie_{stem}"] = ["check-lie", path]
        cases[f"check-bv_{stem}"] = ["check-bv", path]
        with open(path, encoding="utf-8") as handle:
            if "shift n=0\n" in handle.read():
                cases[f"ce-homology_{stem}"] = ["ce-homology", path]
    for name in FIXTURES:
        # a framed-disks table has no identities, and refuses --verify
        verify = [] if name.startswith("fd:") else ["--verify"]
        cases[f"fixture_{name.replace(':', '-')}_D10"] = [
            "fixture", name, *verify, "--max-degree", "10"]
    # the --max-degree paths of a file and of a built-in structure below their truncation
    cases["check-bv_loops2_s4_D8"] = [
        "check-bv", os.path.join(ROOT, "fixtures", "loops2_s4.lie"), "--max-degree", "8"]
    # an F_p file whose coefficients are written fractions, as the benchmark's h9 copies are
    h5_f7 = os.path.join(HERE, "data", "h5_f7.lie")
    cases["check-lie_h5_f7"] = ["check-lie", h5_f7]
    cases["ce-homology_h5_f7"] = ["ce-homology", h5_f7]
    cases["fixture_loopspace-2-4_D8"] = [
        "fixture", "loopspace:2:4", "--verify", "--max-degree", "8"]
    cases["fixture_omega2-s3-f2_D12"] = [
        "fixture", "omega2-s3-f2", "--verify", "--max-degree", "12"]
    cases["fixture_omega2-s3-f2_D1"] = ["fixture", "omega2-s3-f2", "--max-degree", "1"]
    cases["fixture_omega2-s3-f2_D1_verify"] = [
        "fixture", "omega2-s3-f2", "--verify", "--max-degree", "1"]
    # the element verbs: one operator value with both summands, one without a
    # differential, and a bracket that the Leibniz rule extends
    cases["free-bv_mixed_diff"] = [
        "free-bv", os.path.join(ROOT, "fixtures", "mixed_diff.lie"), "--apply", "x*y"]
    cases["free-bv_loops2_s4"] = [
        "free-bv", os.path.join(ROOT, "fixtures", "loops2_s4.lie"), "--apply", "a^2"]
    cases["bracket_loops2_s4"] = [
        "bracket", os.path.join(ROOT, "fixtures", "loops2_s4.lie"), "a", "2*a*b"]
    cases = {case: argv + ["--format", "json"] for case, argv in cases.items()}
    # human reports of the verb that prints no elapsed time: a failing
    # certificate, and the Betti line
    cases["ce-homology_bad_antisymmetry_human"] = [
        "ce-homology", os.path.join(HERE, "data", "bad_antisymmetry.lie"), "--format", "human"]
    cases["ce-homology_heisenberg_human"] = [
        "ce-homology", os.path.join(ROOT, "fixtures", "heisenberg.lie"), "--format", "human"]
    # the human report of every other verb: the element results, an operator
    # value out of window, a table, an untimed verdict and the timed ones
    for case in ("free-bv_loops2_s4", "bracket_loops2_s4", "fixture_omega2-s3-f2_D1",
                 "fixture_fd-4-Q_D10", "fixture_sphere-lie-4_D10",
                 *(timed[:-len("_human")] for timed in TIMED)):
        cases[case + "_human"] = cases[case][:-1] + ["human"]
    return cases


CASES = _cases()


def _masked(output):
    """The output with its one elapsed line, just before result:, written
    as `elapsed: <s>`."""
    lines = output.split("\n")
    found = [i for i, line in enumerate(lines) if ELAPSED.fullmatch(line)]
    assert len(found) == 1 and lines[found[0] + 1].startswith("result: "), output
    lines[found[0]] = "elapsed: <s>"
    return "\n".join(lines)


def _run(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(CASES[case])
    output = f"exit: {code}\n" + out.getvalue()
    return _masked(output) if case in TIMED else output


def _golden_path(case):
    return os.path.join(GOLDEN_DIR, case + ".out")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    with open(_golden_path(case), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert _run(case) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        with open(_golden_path(case), "w", encoding="utf-8", newline="") as handle:
            handle.write(_run(case))
        print(case)
