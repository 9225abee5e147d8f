import json
import os

import pytest

from bvalg.cli import main

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects malformed arguments this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_lie_passes_on_shipped_fixture(capsys):
    code, out, _ = run(capsys, "check-lie", fixture_path("mixed_diff.lie"))
    assert code == 0
    assert "result: PASS" in out
    assert "differential-bracket-derivation" in out


def test_check_lie_reports_axiom_failure(capsys, tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text("field Q\nshift n=1\ngen x : 0\ngen y : 0\ngen z : 0\n"
                   "bracket [x,y] = x\nbracket [y,z] = y\n")
    code, out, _ = run(capsys, "check-lie", str(bad))
    assert code == 1
    assert "FAIL" in out and "bracket-jacobi" in out


def test_parse_error_exit_code_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text("field Q\nshift n=2\ngen a : 3\ngen b : 6\nbracket [a,b] = a\n")
    code, out, err = run(capsys, "check-lie", str(bad))
    assert code == 2
    assert out == ""
    assert ":5:" in err and "bracket degree 10 expected, got 3" in err


def test_check_bv_passes_on_free_fixture(capsys):
    code, out, _ = run(capsys, "check-bv", fixture_path("loops2_s4.lie"),
                       "--max-degree", "8")
    assert code == 0
    assert "bv-squared" in out


def test_check_bv_detects_broken_operator(capsys, tmp_path):
    bad = tmp_path / "bad_bv.lie"
    bad.write_text("field Q\nshift n=3\ngen x : 2\nbv x = x^2\ntruncate 8\n")
    code, out, _ = run(capsys, "check-bv", str(bad))
    assert code == 1
    assert "bv-squared" in out and "FAIL" in out


def test_free_bv_apply(capsys):
    code, out, _ = run(capsys, "free-bv", fixture_path("loops2_s4.lie"),
                       "--apply", "a^2")
    assert code == 0
    assert "result = b" in out


def test_free_bv_out_of_window_is_input_error(capsys, tmp_path):
    small = tmp_path / "small.lie"
    small.write_text("field Q\nshift n=2\ngen a : 2\ngen b : 5\n"
                     "bracket [a,a] = b\ntruncate 4\n")
    code, out, err = run(capsys, "free-bv", str(small), "--apply", "a^2")
    assert code == 2
    assert "out of window" in err


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", fixture_path("loops2_s4.lie"), "a", "a")
    assert code == 0
    assert "result = b" in out


def test_ce_homology_betti_line(capsys):
    code, out, _ = run(capsys, "ce-homology", fixture_path("heisenberg.lie"))
    assert code == 0
    assert "betti: 1 2 2 1" in out


def test_ce_homology_rejects_wrong_shift(capsys):
    code, _, err = run(capsys, "ce-homology", fixture_path("loops2_s4.lie"))
    assert code == 2
    assert "shift 0" in err


def test_ce_homology_non_complex_is_axiom_failure(capsys):
    # [x,y] = x, [y,z] = y fails Jacobi, so the boundary does not square to zero
    bad = os.path.join(os.path.dirname(__file__), "data", "bad_jacobi.lie")
    code, out, err = run(capsys, "ce-homology", bad, "--format", "json")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["verdicts"] == [{"check": "boundary-squared", "checked": "1",
                                "skipped": "0", "verdict": "fail"}]
    assert doc["certificates"] == [{"check": "boundary-squared", "grade": "3",
                                    "input": "x*y*z", "d(d(input))": "-x"}]


def test_fixture_verify_loopspace(capsys):
    code, out, _ = run(capsys, "fixture", "loopspace:2:4", "--verify",
                       "--max-degree", "10")
    assert code == 0
    assert "result: PASS" in out


def test_fixture_omega2_reports_value_and_coverage(capsys):
    code, out, _ = run(capsys, "fixture", "omega2-s3-f2", "--max-degree", "2",
                       "--verify")
    assert code == 0
    assert "bv(u1) = u1^2" in out
    assert "coverage: 1\n" not in out  # strictly below one


def test_fixture_sphere_lie_verify(capsys):
    code, out, _ = run(capsys, "fixture", "sphere-lie:4", "--verify")
    assert code == 0
    assert "bracket-jacobi" in out
    assert "bracket[a,a] = b" in out


def test_fixture_descriptor_name(capsys):
    code, out, _ = run(capsys, "fixture", "fd:4:Q")
    assert code == 0
    assert "bv = degree 3" in out
    assert "a3(trivial), a3(bv)" in out


def test_fixture_unknown_name(capsys):
    code, _, err = run(capsys, "fixture", "unknown:thing")
    assert code == 2
    assert "unknown fixture" in err


def test_json_result_serializes_element_as_pairs(capsys):
    code, out, _ = run(capsys, "free-bv", fixture_path("loops2_s4.lie"),
                       "--apply", "a^3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["result"] == [["a*b", "3"]]


def test_descriptor_command(capsys):
    code, out, _ = run(capsys, "descriptor", "--n", "3", "--field", "Q")
    assert code == 0
    assert "bv = absent" in out
    code, out, _ = run(capsys, "descriptor", "--n", "4", "--field", "Q")
    assert "bv = degree 3" in out


def test_json_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "fixture", "loopspace:2:4", "--verify",
                      "--max-degree", "8", "--format", "json")
    _, second, _ = run(capsys, "fixture", "loopspace:2:4", "--verify",
                       "--max-degree", "8", "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert set(doc) >= {"verdicts", "certificates", "coverage", "betti"}
    # every number in the document is a string
    assert all(isinstance(v["checked"], str) for v in doc["verdicts"])
    assert isinstance(doc["coverage"], str)


def test_json_betti_as_strings(capsys):
    code, out, _ = run(capsys, "ce-homology", fixture_path("heisenberg.lie"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == ["1", "2", "2", "1"]


def test_json_failure_carries_certificate(capsys, tmp_path):
    bad = tmp_path / "bad_bv.lie"
    bad.write_text("field Q\nshift n=3\ngen x : 2\nbv x = x^2\ntruncate 8\n")
    code, out, _ = run(capsys, "check-bv", str(bad), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["certificates"], "failure exits must carry a certificate"


@pytest.mark.parametrize("argv", [
    ["check-bv", fixture_path("loops2_s4.lie")],
    ["free-bv", fixture_path("loops2_s4.lie"), "--apply", "a"],
    ["bracket", fixture_path("loops2_s4.lie"), "a", "a"],
    ["ce-homology", fixture_path("heisenberg.lie")],
    ["fixture", "loopspace:2:4", "--verify"],
])
def test_negative_window_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "--max-degree" in err and "Traceback" not in err


def test_descriptor_non_integer_n_is_input_error(capsys):
    code, out, err = run(capsys, "descriptor", "--n", "abc", "--field", "Q")
    assert code == 2
    assert out == ""
    assert "--n" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", [
    ["check-bv"], ["free-bv", "--apply", "b"], ["bracket", "b", "b"],
])
def test_degree_zero_generator_is_input_error(capsys, tmp_path, verb):
    path = tmp_path / "zero.lie"
    path.write_text("field Q\nshift n=2\ngen a : 0\ngen b : 2\ntruncate 4\n")
    code, out, err = run(capsys, verb[0], str(path), *verb[1:])
    assert code == 2
    assert out == ""
    assert "'a' has degree 0" in err
