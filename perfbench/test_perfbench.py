"""Tests of the benchmark itself: generator, known answers and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bvalg.cli  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def cli(argv):
    code, out = run.run_inprocess(argv)[1:]
    return code, out


def _inputs(invocations):
    """What the CLI sees: file contents for generated inputs, else the arguments."""
    return [Path(i.argv[1]).read_text() if i.argv[1].endswith(".lie") else i.argv
            for i in invocations]


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 7, tmp_path / "a")
        again = workloads.build(workload, 7, tmp_path / "b")
        other = workloads.build(workload, 8, tmp_path / "c")
        assert _inputs(first) == _inputs(again)
        assert [i.expected for i in first] == [i.expected for i in again]
        if workload != "partial-f2":  # a fixed input; the seed only orders runs
            assert _inputs(first) != _inputs(other)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_copies_pass_check_lie(tmp_path, seed):
    rng = random.Random(seed)
    copies = [gen.six_gen_copy(rng, 0), gen.heisenberg_copy(rng, 3, "Q", 0)]
    copies += [gen.heisenberg_copy(rng, 4, f"F{p}", 0) for p in gen.HEISENBERG_PRIMES]
    for path in gen.write_copies(copies, tmp_path):
        code, out = cli(["check-lie", str(path), "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["verdicts"]
        assert {v["verdict"] for v in doc["verdicts"]} == {"pass"}


def _ce_rank(k: int, domain) -> dict:
    """Ranks of the Chevalley-Eilenberg boundaries of h_{2k+1}, built here
    from the bracket [x_i, y_i] = z and ranked by sympy, not by bvalg."""
    from sympy.polys.matrices import DomainMatrix
    n = 2 * k + 1
    z = n - 1
    bracket = {}
    for i in range(k):
        bracket[(2 * i, 2 * i + 1)] = 1
        bracket[(2 * i + 1, 2 * i)] = -1
    ranks = {}
    for m in range(2, n + 1):
        source = list(combinations(range(n), m))
        target = {c: r for r, c in enumerate(combinations(range(n), m - 1))}
        rows = [[0] * len(source) for _ in target]
        for col, cell in enumerate(source):
            for a, b in combinations(range(m), 2):
                coeff = bracket.get((cell[a], cell[b]))
                if coeff is None or z in cell:
                    continue
                rest = [g for i, g in enumerate(cell) if i not in (a, b)]
                # z is the largest index: moving it to the end passes len(rest) letters
                sign = (-1) ** (a + b + len(rest))
                rows[target[tuple(rest + [z])]][col] += sign * coeff
        ranks[m] = DomainMatrix([[domain(v) for v in row] for row in rows],
                                (len(target), len(source)), domain).rank()
    return ranks


@pytest.mark.parametrize("k", [3, 4])
def test_heisenberg_closed_form_holds_over_each_field(k):
    from math import comb
    from sympy import GF, QQ
    n = 2 * k + 1
    for domain in [QQ] + [GF(p) for p in gen.HEISENBERG_PRIMES]:
        ranks = _ce_rank(k, domain)
        betti = [comb(n, j) - ranks.get(j, 0) - ranks.get(j + 1, 0) for j in range(n + 1)]
        assert betti == gen.heisenberg_betti(k), domain


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload's first invocation of each input kind and its CLI output."""
    out = {}
    for workload in workloads.WORKLOADS:
        seen = {}
        for inv in workloads.build(workload, 3, tmp_path_factory.mktemp(workload)):
            if inv.kind not in seen:
                seen[inv.kind] = (inv, *cli(inv.argv))
        out[workload] = list(seen.values())
    return out


def test_seed_code_matches_every_known_answer(outputs):
    for workload, runs in outputs.items():
        for inv, code, out in runs:
            assert workloads.mismatch(inv.expected, code, out) is None, (workload, inv.argv)


def test_canonical_six_gen_has_the_expected_instance_count():
    argv = ["check-bv", str(gen.SIX_GEN), "--max-degree", str(workloads.FREE_Q_WINDOW),
            "--format", "json"]
    code, out = cli(argv)
    assert code == 0
    assert workloads.instances(json.loads(out)) == workloads.FREE_Q_INSTANCES


def _wrong_variants(e: workloads.Expected):
    if e.betti is None:
        yield replace(e, work=e.work + 1)
    else:
        yield replace(e, betti=e.betti[:-1] + [str(int(e.betti[-1]) + 1)])
    if e.coverage is not None:
        yield replace(e, coverage="1/2")
    for key in e.details:
        yield replace(e, details={**e.details, key: [["u9", "1"]]})


def test_a_wrong_expected_answer_is_reported(outputs):
    for runs in outputs.values():
        for inv, code, out in runs:
            for wrong in _wrong_variants(inv.expected):
                assert workloads.mismatch(wrong, code, out) is not None, (inv.argv, wrong)


def test_a_wrong_answer_fails_the_run(monkeypatch, tmp_path):
    path = gen.write_copies([gen.heisenberg_copy(random.Random(0), 1, "Q", 0)], tmp_path)[0]
    wrong = workloads.Invocation(["ce-homology", str(path), "--format", "json"], "h3",
                                 workloads.Expected(8, betti=["1", "2", "2", "2"]))
    monkeypatch.setattr(workloads, "build", lambda *args: [wrong])
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "homology", "--seed", "0", "--seconds", "0"])
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_SAMPLES
    assert result["metrics"]["ok_frac"]["value"] == 0


def test_tracing_changes_no_output_and_restores_the_package(tmp_path):
    rng = random.Random(5)
    six, h5 = gen.write_copies([gen.six_gen_copy(rng, 0),
                                gen.heisenberg_copy(rng, 2, "F7", 0)], tmp_path)
    argvs = [["check-bv", str(six), "--max-degree", "9", "--format", "json"],
             ["fixture", "omega2-s3-f2", "--verify", "--max-degree", "9", "--format", "json"],
             ["ce-homology", str(h5), "--format", "json"]]
    main, mul = bvalg.cli.main, bvalg.fields.FieldSpec.mul
    plain = [cli(a) for a in argvs]
    tracers = {}
    for hot in (False, True):
        with tracing.Tracer(hot) as tracers[hot]:
            assert [cli(a) for a in argvs] == plain
        assert bvalg.cli.main is main and bvalg.fields.FieldSpec.mul is mul
        assert not tracers[hot].missing
        names = {span[0] for span in tracers[hot].spans}
        assert {"cli.main", "bv.gerstenhaber", "homology.complex_check", "linalg.rank_fp",
                "dsl.parse", "report.to_json", "algebra.basis"} <= names
    assert "fields.mul" not in tracers[False].counts
    docs = [json.loads(out) for _, out in plain]
    metrics = tracing.layer_metrics(tracers[True], tracers[False], docs, 1.0, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["fields.ops"] > 0 and metrics["linalg.rank_calls"] > 0
