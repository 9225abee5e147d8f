import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from bvalg import cli
from bvalg.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURE_DIR = os.path.join(ROOT, "fixtures")
# the verbs cli.VERBS declares, in order
VERBS = list(cli.VERBS)


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def run(capsys, *argv):
    code = main(list(argv))
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


def test_failed_field_line_is_the_only_error(capsys, tmp_path):
    bad = tmp_path / "f4.lie"
    bad.write_text("field F4\nshift n=2\ngen a : 2\nbracket [a,a] = 0\n")
    code, out, err = run(capsys, "check-lie", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}:1:7: characteristic 4 is not prime\n"


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
    line = "error: result out of window: term b of degree 5 exceeds truncation 4\n"
    code, _, err = run(capsys, "free-bv", str(small), "--apply", "a^2")
    assert (code, err) == (2, line)
    code, _, err = run(capsys, "bracket", str(small), "a", "a")
    assert (code, err) == (2, line)


def test_free_bv_on_a_user_operator_is_input_error(capsys, tmp_path):
    user = tmp_path / "user.lie"
    user.write_text("field Q\nshift n=2\ngen a : 2\nbv a = 0\ntruncate 4\n")
    assert run(capsys, "free-bv", str(user), "--apply", "a") == (
        2, "", "error: free-bv needs a presentation without bv lines\n")


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


def test_ce_homology_non_complex_is_axiom_failure(capsys, tmp_path):
    # [x,y] = x, [y,z] = y fails Jacobi, so the boundary does not square to
    # zero; a truncate line below grade 3 does not hide it
    bad = os.path.join(os.path.dirname(__file__), "data", "bad_jacobi.lie")
    with open(bad, encoding="utf-8") as handle:
        text = handle.read()
    assert "truncate 3\n" in text
    truncated = tmp_path / "bad_jacobi_truncate_2.lie"
    truncated.write_text(text.replace("truncate 3\n", "truncate 2\n"))
    for path in (bad, str(truncated)):
        code, out, err = run(capsys, "ce-homology", path, "--format", "json")
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert doc["verdicts"] == [{"check": "boundary-squared", "checked": "1",
                                    "skipped": "0", "verdict": "fail"}]
        assert doc["certificates"] == [{"check": "boundary-squared", "grade": "3",
                                        "input": "x*y*z", "d(d(input))": "-x"}]


def test_ce_homology_takes_no_window(capsys):
    code, out, err = run(capsys, "ce-homology", fixture_path("heisenberg.lie"),
                         "--max-degree", "3")
    assert code == 2
    assert out == ""
    assert "--max-degree" in err and "Traceback" not in err


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


def test_fixture_omega2_names_its_window_bound(capsys):
    code, out, err = run(capsys, "fixture", "omega2-s3-f2", "--max-degree", "0", "--verify")
    assert (code, out, err) == (2, "", "error: fixture omega2-s3-f2 needs --max-degree >= 1, "
                                       "got 0\n")


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
    assert err == "error: unknown fixture 'unknown:thing'\n"


@pytest.mark.parametrize("name, message", [
    ("sphere-lie:x", "fixture 'sphere-lie:x': <m> must be an integer, got 'x'"),
    ("loopspace:2:x", "fixture 'loopspace:2:x': <m> must be an integer, got 'x'"),
    ("fd:x:Q", "fixture 'fd:x:Q': <n> must be an integer or 'infinity', got 'x'"),
])
def test_fixture_name_with_a_bad_number_names_the_field(capsys, name, message):
    assert run(capsys, "fixture", name) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, argv, message", [
    ("field F0\nshift n=1\ngen a : 2\n", ["check-lie", "{file}"],
     "{file}:1:7: characteristic 0 is not prime"),
    ("field F1\nshift n=1\ngen a : 2\n", ["check-lie", "{file}"],
     "{file}:1:7: characteristic 1 is not prime"),
    ("", ["fixture", "sphere-lie:1"], "sphere dimension must be >= 2"),
    ("", ["fixture", "loopspace:1:3"], "need n >= 2"),
    ("", ["fixture", "loopspace:2:2"], "need m > n so the sphere is n-connected, got m=2, n=2"),
    ("", ["fixture", "fd:infinity:F2"], "the stable descriptor is rational only"),
    # 2^61-1 is prime: trial division to its square root would not end
    ("field F2305843009213693951\nshift n=1\ngen a : 2\n", ["check-lie", "{file}"],
     "{file}:1:7: characteristic 2305843009213693951 exceeds 2^31-1"),
    ("", ["fixture", "fd:2:F2305843009213693951"],
     "characteristic 2305843009213693951 exceeds 2^31-1"),
    # both tables fail antisymmetry ({a,a} = b at even shifted parity), but
    # ce-homology builds no complex from either, and says so first
    ("field Q\nshift n=1\ngen a : 2\ngen b : 4\nbracket [a,a] = b\n", ["ce-homology", "{file}"],
     "chain complex needs shift 0, got 1"),
    ("field Q\nshift n=0\ngen a : 1\ngen b : 1\ngen c : 2\nbracket [a,a] = b\n",
     ["ce-homology", "{file}"], "ce-homology needs odd generators at shift 0: c has degree 2"),
    # a truncate line, which ce-homology does not read, changes nothing
    ("field Q\nshift n=0\ngen a : 1\ngen c : 2\ntruncate 4\n", ["ce-homology", "{file}"],
     "ce-homology needs odd generators at shift 0: c has degree 2"),
    # 2^40 cells: refused before antisymmetry is checked or any cell enumerated
    ("field Q\nshift n=0\n" + "".join(f"gen g{i} : 1\n" for i in range(40)) + "truncate 2\n",
     ["ce-homology", "{file}"], "ce-homology needs at most 16 generators (2^k cells), got 40"),
    # a table carries no identity, so no verdict may be printed for it
    ("", ["fixture", "fd:4:Q", "--verify"],
     "fixture 'fd:4:Q' is a table: --verify has nothing to check"),
    # a written fraction over F_p needs its denominator to be a unit; the
    # column is the numerator's
    ("field F7\nshift n=0\ngen x : 1\ngen y : 1\ngen z : 1\nbracket [x,y] = 1/7*z\n",
     ["check-lie", "{file}"], "{file}:6:17: malformed number: denominator divisible by 7"),
], ids=["F0", "F1", "sphere-lie:1", "loopspace:1:3", "loopspace:2:2", "fd:infinity:F2",
        "check-lie-F2^61-1", "fd:2:F2^61-1", "ce-homology-shift-1", "ce-homology-no-window",
        "ce-homology-even-with-window", "ce-homology-40-generators", "fd:4:Q-verify",
        "F7-denominator-divisible-by-7"])
def test_out_of_range_input_is_input_error(capsys, tmp_path, text, argv, message):
    path = tmp_path / "input.lie"
    path.write_text(text)
    argv = [arg.format(file=path) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(file=path)}\n")


@pytest.mark.parametrize("name, reason", [
    ("missing.lie", "No such file or directory"), ("", "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_input_is_input_error(capsys, tmp_path, name, reason):
    path = os.path.join(tmp_path, name)
    assert run(capsys, "check-lie", path) == (2, "", f"error: {path}: {reason}\n")


@pytest.mark.parametrize("verb, rest", [
    ("check-lie", []), ("check-bv", []), ("ce-homology", []),
    ("free-bv", ["--apply", "a"]), ("bracket", ["a", "a"]),
], ids=["check-lie", "check-bv", "ce-homology", "free-bv", "bracket"])
def test_non_utf8_input_is_input_error(capsys, tmp_path, verb, rest):
    path = tmp_path / "latin1.lie"
    path.write_bytes(b"field Q\nshift n=0\ngen a : 1\n# caf\xe9\n")
    # one line that names the file and the first byte that is not UTF-8
    assert run(capsys, verb, str(path), *rest) == (
        2, "", f"error: {path}: not UTF-8: byte 0xe9 at offset 33\n")


# -- the command line: one table of verbs, read without argparse --------------------

LOOPS = fixture_path("loops2_s4.lie")
HEISENBERG = fixture_path("heisenberg.lie")


@pytest.mark.parametrize("argv, verb, message", [
    ([], None, "the following arguments are required: command"),
    (["check-all", HEISENBERG], None, "argument command: invalid choice: 'check-all' "
     "(choose from 'check-lie', 'check-bv', 'free-bv', 'bracket', 'ce-homology', 'fixture')"),
    (["check-lie"], "check-lie", "the following arguments are required: file"),
    (["bracket", LOOPS, "a"], "bracket", "the following arguments are required: b"),
    (["free-bv", LOOPS], "free-bv", "the following arguments are required: --apply"),
    (["check-lie", HEISENBERG, "extra"], "check-lie", "unrecognized arguments: extra"),
    (["check-lie", HEISENBERG, "--bogus"], "check-lie", "unrecognized arguments: --bogus"),
    # an option is named in full: no abbreviation is read
    (["check-bv", LOOPS, "--max", "8"], "check-bv", "unrecognized arguments: --max"),
    (["check-bv", LOOPS, "--max-degree"], "check-bv",
     "argument --max-degree: expected one argument"),
    (["free-bv", LOOPS, "--apply", "--format", "json"], "free-bv",
     "argument --apply: expected one argument"),
    (["check-bv", LOOPS, "--max-degree", "x"], "check-bv",
     "argument --max-degree: invalid int value: 'x'"),
    (["check-bv", LOOPS, "--max-degree=-1"], "check-bv",
     "argument --max-degree: must be >= 0, got -1"),
    (["check-lie", HEISENBERG, "--format", "xml"], "check-lie",
     "argument --format: invalid choice: 'xml' (choose from 'human', 'json')"),
    (["check-bv", LOOPS, "--verify"], "check-bv", "unrecognized arguments: --verify"),
    (["fixture", "omega2-s3-f2", "--verify=yes"], "fixture",
     "argument --verify: ignored explicit argument 'yes'"),
], ids=["no-verb", "unknown-verb", "missing-file", "missing-b", "missing-apply",
        "extra-positional", "unknown-option", "abbreviated-option", "window-without-value",
        "apply-without-value", "window-not-int", "negative-window", "format-xml",
        "verify-on-check-bv", "verify-with-value"])
def test_malformed_command_line_is_a_usage_error(capsys, argv, verb, message):
    code, out, err = run(capsys, *argv)
    prog = "bvalg" if verb is None else f"bvalg {verb}"
    assert (code, out) == (2, "")
    usage, error = err.splitlines()  # argparse's shape: a usage line, then the error
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error == f"{prog}: error: {message}"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("verb", [None] + VERBS)
def test_help_lists_what_the_table_declares(capsys, verb, flag):
    code, out, err = run(capsys, *([flag] if verb is None else [verb, flag, "--bogus"]))
    assert (code, err) == (0, "")
    if verb is None:
        for name, (_, _, _, text) in cli.VERBS.items():
            assert f"  {name} " in out and text in out
        return
    _, positionals, options, text = cli.VERBS[verb]
    usage = out.splitlines()[0].replace("[", " ").replace("]", " ").split()
    assert usage[:3] == ["usage:", "bvalg", verb]
    assert [word for word in usage if word.startswith("--")] == [o[0] for o in options]
    assert usage[-len(positionals):] == list(positionals)
    assert text in out


def test_options_are_read_anywhere_after_the_verb_in_either_form(capsys):
    expected = run(capsys, "bracket", LOOPS, "a", "2*a*b", "--format", "json",
                   "--max-degree", "8")
    assert expected[0] == 0
    for argv in (["bracket", "--format=json", LOOPS, "--max-degree=8", "a", "2*a*b"],
                 ["bracket", "--max-degree", "8", LOOPS, "a", "--format", "json", "2*a*b"]):
        assert run(capsys, *argv) == expected


def test_an_element_argument_may_start_with_a_minus_sign(capsys):
    # only '--' starts an option, and -h its help
    assert run(capsys, "bracket", LOOPS, "-a", "a") == (0, "result = -b\ncoverage: 1\n"
                                                          "result: PASS\n", "")


def test_readme_command_line_names_every_verb():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        block = handle.read().split("## Command line", 1)[1].split("```", 2)[1]
    assert [line.split()[1] for line in block.splitlines()
            if line.startswith("bvalg ")] == VERBS


def test_json_result_serializes_element_as_pairs(capsys):
    code, out, _ = run(capsys, "free-bv", fixture_path("loops2_s4.lie"),
                       "--apply", "a^3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["result"] == [["a*b", "3"]]


def test_descriptor_command(capsys):
    code, out, _ = run(capsys, "fixture", "fd:3:Q")
    assert code == 0
    assert "bv = absent" in out


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
    # ce-homology takes no window at all, so a negative one is refused too
    ["ce-homology", fixture_path("heisenberg.lie")],
    ["fixture", "loopspace:2:4", "--verify"],
])
def test_negative_window_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "--max-degree" in err and "Traceback" not in err


def test_descriptor_n_past_the_bound_is_input_error(capsys):
    # refused before the generator list is built
    code, out, err = run(capsys, "fixture", "fd:99999999999:Q")
    assert (code, out, err) == (2, "", "error: need n <= 10000 or 'infinity', got 99999999999\n")


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


HUGE = "99999999999"


@pytest.mark.parametrize("line, column, message", [
    (f"bv a = a^{HUGE}", 8, "bv value term exceeds degree 3"),
    (f"bracket [a,a] = b^{HUGE}", 30,
     "bracket value must be a linear combination of generators"),
    (f"diff d b = a*b^{HUGE}", 27,
     "differential value must be a linear combination of generators"),
])
def test_huge_exponent_in_file_is_input_error(capsys, tmp_path, line, column, message):
    # the exponent is checked before the word is built: no allocation is tried
    path = tmp_path / "huge.lie"
    path.write_text(f"field Q\nshift n=2\ngen a : 2\ngen b : 5\n{line}\n")
    code, out, err = run(capsys, "check-lie", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:5:{column}: {message}\n")


@pytest.mark.parametrize("line, column, what", [
    ("diff d x = 1", 12, "differential value"),
    ("bracket [a,a] = 3", 17, "bracket value"),
])
def test_unit_term_in_span_value_is_input_error(capsys, tmp_path, line, column, what):
    # a nonzero multiple of 1 has the expected degree 0 here, but is not in
    # the generator span (found by the fuzz below)
    path = tmp_path / "unit.lie"
    path.write_text(f"field Q\nshift n=1\ngen a : 0\ngen x : 1\n{line}\n")
    code, out, err = run(capsys, "check-lie", str(path))
    assert (code, out, err) == (
        2, "", f"error: {path}:5:{column}: {what} must be a linear combination of generators\n")


@pytest.mark.parametrize("verb, column, message", [
    (["free-bv", "--apply", f"a^{HUGE}"], 1, "element term exceeds degree 12"),
    (["bracket", "a", f"a*b^{HUGE}"], 3, "element term exceeds degree 12"),
    # more digits than int() converts
    (["free-bv", "--apply", "a^" + "9" * 5000], 3, "exponent too long"),
])
def test_huge_exponent_argument_is_input_error(capsys, verb, column, message):
    code, out, err = run(capsys, verb[0], fixture_path("loops2_s4.lie"), *verb[1:])
    name = "b" if verb[0] == "bracket" else "--apply"  # the argument with the huge exponent
    assert (code, out, err) == (2, "", f"error: argument {name}: column {column}: {message}\n")


@pytest.mark.parametrize("verb, name, column, message", [
    (["free-bv", "--apply", "q"], "--apply", 1, "undeclared symbol 'q'"),
    (["bracket", "a )", "a"], "a", 3, "unexpected character ')'"),
    (["bracket", "a", "a )"], "b", 3, "unexpected character ')'"),
])
def test_element_argument_error_names_the_argument(capsys, verb, name, column, message):
    code, out, err = run(capsys, verb[0], fixture_path("loops2_s4.lie"), *verb[1:])
    assert (code, out, err) == (2, "", f"error: argument {name}: column {column}: {message}\n")


# -- fuzz: every input ends in an exit code of the contract ---------------------

IDS = ["a", "b", "x", "u1"]
JUNK = ["1/0*a", "@", "a^", "**", "[a]", "b c", "zz", "2/", "a^-1", ""]
TERMS = ["0"] * 4 + IDS + ["2*a", "a*b", "1/2*x", "-u1", "1", "a^2", "b^3", "x*u1"]
EXPRESSIONS = st.one_of(st.just("0"), st.lists(st.sampled_from(TERMS * 3 + JUNK),
                                                min_size=1, max_size=3).map(" + ".join))


@st.composite
def lie_texts(draw):
    """A .lie text, mostly well formed: invalid fields, shifts and degree-0
    generators, and junk terms in bracket, diff and bv lines, each now and
    then; values of the right degree often enough to reach exit 1."""
    field = draw(st.sampled_from(["Q", "Q", "Q", "F2", "F2", "F3", "F5", "F4", "G"]))
    shift = draw(st.integers(-1, 3))
    lines = [f"field {field}", f"shift n={shift}"]
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    degree = {g: draw(st.sampled_from([1, 1, 2, 2, 3, 4, 0])) for g in ids}
    lines += [f"gen {g} : {d}" for g, d in degree.items()]
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        head, target = draw(st.sampled_from([
            (f"bracket [{x},{y}] = ", degree[x] + degree[y] + shift - 1),
            (f"diff d {x} = ", degree[x] - 1), (f"bv {x} = ", degree[x] + shift - 1)]))
        fitting = ([g for g in ids if degree[g] == target]
                   + [f"{g}^2" for g in ids if 2 * degree[g] == target])
        value = draw(st.one_of(EXPRESSIONS, st.sampled_from(fitting or ["0"])))
        lines.append(head + value)
    if draw(st.booleans()):
        lines.append(f"truncate {draw(st.integers(-1, 6))}")
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw, path):
    window = ["--max-degree", str(draw(st.integers(0, 6)))]
    verb = draw(st.sampled_from(VERBS))
    argv = {
        "check-lie": [verb, path],
        "check-bv": [verb, path] + window,
        "free-bv": [verb, path, "--apply", draw(EXPRESSIONS)] + window,
        "bracket": [verb, path, draw(EXPRESSIONS), draw(EXPRESSIONS)] + window,
        "ce-homology": [verb, path],
        "fixture": [verb, draw(st.one_of(
            st.sampled_from(["sphere-lie:2", "sphere-lie:3", "sphere-lie:x", "loopspace:2:3",
                             "loopspace:4:6", "loopspace:1:3", "omega2-s3-f2", "unknown"]),
            st.builds("fd:{}:{}".format,
                      st.sampled_from(["2", "3", "4", "infinity", "-1", "abc", "10001"]),
                      st.sampled_from(["Q", "F2", "F3", "F4", "x"]))))]
        + draw(st.sampled_from([[], ["--verify"]])) + window,
    }[verb]
    return argv + ["--format", draw(st.sampled_from(["human", "json"]))]


@settings(max_examples=300, deadline=None)
@given(lie_texts(), st.data())
def test_fuzzed_inputs_exit_by_the_contract(text, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.lie")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = data.draw(invocations(path))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects malformed arguments this way
                code = exc.code
    # exit 3, an internal error, breaks the contract like a traceback would
    assert code in (0, 1, 2), (argv, text, err.getvalue())


@pytest.mark.parametrize("verb, fault, line", [
    (["check-lie"], RuntimeError("a fault\nover two lines"),
     "RuntimeError: a fault over two lines"),
    (["check-bv", "--max-degree", "4"], KeyError("u9"), "KeyError: 'u9'"),
])
def test_internal_error_is_exit_3_in_one_line(capsys, monkeypatch, verb, fault, line):
    from bvalg import cli

    def broken(args):
        raise fault

    monkeypatch.setattr(cli, "_cmd_" + verb[0].replace("-", "_"), broken)
    code, out, err = run(capsys, verb[0], fixture_path("loops2_s4.lie"), *verb[1:])
    assert (code, out, err) == (3, "", f"internal error: {line}\n")
