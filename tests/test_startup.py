"""Start-up: each CLI verb loads only the modules it runs, and the package's
public names resolve, on first use, to their defining modules' objects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bvalg

ROOT = Path(__file__).resolve().parent.parent
NEVER_LOADED = {"dataclasses", "inspect", "bvalg.hopf"}
# verb and arguments -> further modules that verb must not load
VERBS = {
    ("check-bv", "fixtures/loops2_s4.lie"): {"bvalg.homology", "bvalg.linalg", "bvalg.fixtures"},
    ("ce-homology", "fixtures/heisenberg.lie"): {"bvalg.bv", "bvalg.fixtures"},
    ("fixture", "omega2-s3-f2", "--verify"): set(),
    ("check-lie", "fixtures/heisenberg.lie"): {"bvalg.bv", "bvalg.homology", "bvalg.linalg",
                                                "bvalg.fixtures"},
    ("free-bv", "fixtures/loops2_s4.lie", "--apply", "a^2"): {"bvalg.homology", "bvalg.linalg",
                                                              "bvalg.fixtures"},
    ("bracket", "fixtures/loops2_s4.lie", "a", "a"): {"bvalg.homology", "bvalg.linalg",
                                                      "bvalg.fixtures"},
    ("descriptor", "--n", "2", "--field", "Q"): {"bvalg.bv", "bvalg.homology", "bvalg.linalg"},
    ("fixture", "fd:2:Q"): {"bvalg.bv", "bvalg.homology", "bvalg.linalg"},
}
PROBE = ("import json, sys\n"
         "from bvalg.cli import main\n"
         "main(sys.argv[1:])\n"
         "print(json.dumps(sorted(sys.modules)))\n")


@pytest.mark.parametrize("argv", list(VERBS),
                         ids=lambda argv: "fixture-fd" if argv[1].startswith("fd:") else argv[0])
def test_verb_loads_only_its_modules(argv):
    # -S: no site hooks, so sys.modules holds what the verb imported
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv, "--format", "json"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "bvalg.cli" in loaded
    assert sorted(loaded & (NEVER_LOADED | VERBS[argv])) == []


@pytest.mark.parametrize("name", bvalg.__all__)
def test_public_name_is_its_modules_object(name):
    value = getattr(bvalg, name)
    module = sys.modules[value.__module__]  # QQ and GF2: their class's module
    assert module.__name__.startswith("bvalg.")
    assert getattr(module, name) is value
