"""Start-up: each CLI verb loads only the modules it runs and at most a
pinned number of `bvalg` source lines, and the package's public names
resolve, on first use, to their defining modules' objects."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bvalg

ROOT = Path(__file__).resolve().parent.parent
NEVER_LOADED = {"argparse", "dataclasses", "gettext", "inspect", "json", "locale", "bvalg.hopf"}
# a verb over F_p never meets a rational
NO_RATIONALS = {"decimal", "fractions"}
# verb and arguments -> (further modules that verb must not load, the most lines
# of bvalg source it may load: every line of each module file, __init__ included)
VERBS = {
    ("check-bv", "fixtures/loops2_s4.lie"): (
        {"bvalg.homology", "bvalg.linalg", "bvalg.fixtures"}, 2257),
    ("ce-homology", "fixtures/heisenberg.lie"): ({"bvalg.bv", "bvalg.fixtures"}, 2019),
    ("ce-homology", "tests/data/h5_f7.lie"): (
        {"bvalg.bv", "bvalg.fixtures", *NO_RATIONALS}, 2019),
    ("fixture", "omega2-s3-f2", "--verify"): ({"bvalg.dsl", *NO_RATIONALS}, 2130),
    ("check-lie", "fixtures/heisenberg.lie"): (
        {"bvalg.bv", "bvalg.homology", "bvalg.linalg", "bvalg.fixtures"}, 1780),
    ("free-bv", "fixtures/loops2_s4.lie", "--apply", "a^2"): (
        {"bvalg.homology", "bvalg.linalg", "bvalg.fixtures"}, 2257),
    ("bracket", "fixtures/loops2_s4.lie", "a", "a"): (
        {"bvalg.homology", "bvalg.linalg", "bvalg.fixtures"}, 2257),
    ("fixture", "fd:2:Q"): ({"bvalg.bv", "bvalg.homology", "bvalg.linalg", "bvalg.dsl"}, 1653),
}
# the modules are listed before json is imported to print them
PROBE = ("import sys\n"
         "from bvalg.cli import main\n"
         "main(sys.argv[1:])\n"
         "loaded = sorted(sys.modules)\n"
         "import json\n"
         "print(json.dumps(loaded))\n")


def _verb_id(argv):
    return {"fd:2:Q": "fixture-fd", "tests/data/h5_f7.lie": "ce-homology-F7"}.get(argv[1], argv[0])


@functools.lru_cache(maxsize=None)
def _loaded(argv):
    """The modules a fresh process has loaded after running the verb."""
    # -S: no site hooks, so sys.modules holds what the verb imported
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv, "--format", "json"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    return frozenset(json.loads(done.stdout.splitlines()[-1]))


def source_lines(modules):
    """Lines of the bvalg module files among `modules`, __init__ included."""
    package = ROOT / "src" / "bvalg"
    return sum(len((package / f"{name.partition('.')[2] or '__init__'}.py")
                   .read_text(encoding="utf-8").splitlines())
               for name in modules if name.split(".")[0] == "bvalg")


@pytest.mark.parametrize("argv", list(VERBS), ids=_verb_id)
def test_verb_loads_only_its_modules(argv):
    loaded = _loaded(argv)
    assert "bvalg.cli" in loaded
    assert sorted(loaded & (NEVER_LOADED | VERBS[argv][0])) == []


@pytest.mark.parametrize("argv", list(VERBS), ids=_verb_id)
def test_verb_loads_at_most_its_source_lines(argv):
    assert source_lines(_loaded(argv)) <= VERBS[argv][1]


@pytest.mark.parametrize("name", bvalg.__all__)
def test_public_name_is_its_modules_object(name):
    value = getattr(bvalg, name)
    module = sys.modules[value.__module__]  # QQ and GF2: their class's module
    assert module.__name__.startswith("bvalg.")
    assert getattr(module, name) is value
