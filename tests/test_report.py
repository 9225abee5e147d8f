import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvalg.algebra import Element, Generator, Monomial, Undefined
from bvalg.fields import QQ
from bvalg.report import CheckResult, Report, by_name, json_text, merge_reports, run_checks

GAP = Undefined("bracket [u,u]")


def run_one(outcomes, describe=by_name("input")):
    """The one check of an identity that returns the given outcomes in turn,
    over instances 0, 1, 2, ..."""
    return run_checks(("demo",), ((i,) for i in range(len(outcomes))),
                      lambda i: outcomes[i], describe)[0]


def test_run_checks_verdicts_and_counts():
    assert run_one([]).verdict == "pass"  # vacuous
    skipped = run_one([GAP, GAP])
    assert (skipped.verdict, skipped.checked, skipped.skipped) == ("skipped", 0, 2)
    passed = run_one([GAP, None])
    assert (passed.verdict, passed.checked, passed.skipped) == ("pass", 1, 1)
    assert passed.certificate is None
    failed = run_one([GAP, None, {"value": "x"}, {"value": "y"}])
    assert (failed.verdict, failed.checked, failed.skipped) == ("fail", 3, 1)
    # the first counterexample is kept: its inputs, then its failed sides
    assert list(failed.certificate.items()) == [("input", "2"), ("value", "x")]


def test_describe_runs_once_per_failing_check():
    described = []

    def describe(i):
        described.append(i)
        return {"input": str(i)}

    outcomes = [(None, GAP), (GAP, {"value": "a"}), ({"value": "b"}, {"value": "c"}),
                ({"value": "d"}, None), (None, None)]
    first, second = run_checks(("first", "second"), ((i,) for i in range(5)),
                               lambda i: outcomes[i], describe)
    assert first.certificate == {"input": "2", "value": "b"}
    assert second.certificate == {"input": "1", "value": "a"}
    # instance 3 fails "first" again, but only a check's first failure is described
    assert sorted(described) == [1, 2]


def test_pruned_instances_are_skipped_by_every_check():
    class Pruned(list):
        pruned = 3

    first, second = run_checks(("first", "second"), Pruned([(0,), (1,)]),
                               lambda i: (None, GAP), by_name("input"))
    assert (first.verdict, first.checked, first.skipped) == ("pass", 2, 3)
    assert (second.verdict, second.checked, second.skipped) == ("skipped", 0, 5)


def test_coverage_fraction():
    report = Report(checks=[run_one([None, None, None, GAP])])
    assert report.coverage == "3/4"
    assert Report().coverage == "1"


@given(st.integers(0, 10 ** 12), st.integers(0, 10 ** 12))
def test_coverage_is_the_text_of_the_reduced_fraction(checked, skipped):
    result = CheckResult("demo", "pass")
    result.checked, result.skipped = checked, skipped
    total = checked + skipped
    assert Report(checks=[result]).coverage == (str(Fraction(checked, total)) if total else "1")


def test_json_numbers_are_strings_and_elements_are_pairs():
    g = Generator("a", 2)
    element = Element.from_monomial(QQ, Monomial(((g, 2),)), Fraction(-1, 2)) \
        + Element.from_monomial(QQ, Monomial(((g, 1),)), 3)
    demo = CheckResult("demo", "pass")
    demo.checked, demo.skipped = 2, 1
    report = Report(checks=[demo], betti=[1, 2], details={"value": element, "note": "text"})
    doc = report.to_json_dict()
    assert doc["betti"] == ["1", "2"]
    assert doc["verdicts"][0]["checked"] == "2"
    assert doc["details"]["value"] == [["a", "3"], ["a^2", "-1/2"]]
    assert doc["details"]["note"] == "text"
    # deterministic encoding
    assert report.to_json() == report.to_json()
    json.loads(report.to_json())


def test_human_rendering_includes_certificates_and_result():
    check = run_checks(("axiom",), [("m",)], lambda m: {"lhs": "1", "rhs": "0"},
                       by_name("input"))
    report = Report(checks=check)
    text = report.render_human()
    assert "FAIL" in text and "input: m" in text
    assert text.endswith("result: FAIL")
    assert not report.passed


def test_merge_reports_combines_checks_and_details():
    r1 = Report(checks=[CheckResult("one", "pass")], details={"k": "v"})
    r2 = Report(checks=[CheckResult("two", "pass")])
    merged = merge_reports(r1, r2)
    assert [c.name for c in merged.checks] == ["one", "two"]
    assert merged.details == {"k": "v"}


# any code point, lone surrogates included, with the ones json escapes drawn often
CHARS = st.characters(exclude_categories=()) | st.sampled_from(
    '"\\\x00\x1f\x7f\b\f\n\r\t \x80\u2028\ud800\udfff\U0001f600\U0010ffff')
TEXT = st.text(CHARS, max_size=6)
TREES = st.recursive(TEXT, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(TEXT, inner, max_size=3), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_json_text_is_what_json_dumps_writes(tree):
    assert json_text(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":"))


@settings(max_examples=100, deadline=None)
@given(TREES, st.sampled_from([None, 0, 7, True, 1.5, ("a",)]),
       st.lists(st.none() | TEXT, max_size=3))
def test_json_text_refuses_a_leaf_that_is_not_text(tree, leaf, wrappers):
    # the leaf sits inside lists (beside a drawn tree) and dicts (under a drawn key)
    for key in wrappers:
        leaf = [tree, leaf] if key is None else {key: leaf}
    with pytest.raises(TypeError):
        json_text(leaf)


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": "b", None: "c"}, [{("a",): "b"}]])
def test_json_text_refuses_a_key_that_is_not_text(tree):
    with pytest.raises(TypeError):
        json_text(tree)
