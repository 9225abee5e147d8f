"""`src/bvalg/` holds what a verb runs, and `hopf.py` what acceptance
criteria 7 and 8 run.

Every golden invocation (`test_golden.CASES`) and the free-bv, bracket and
fixture calls in EXTRA_CALLS run in this process under `sys.setprofile`,
which records each code object entered.  Every named function and method
compiled from the package's sources must be among them, or be listed in
UNREACHED with one reason of the forms in REASON.  Lambdas and
comprehensions are not counted; a function nested in another counts on its
own, and a listed function covers the functions nested in it.  `hopf.py`,
the API-only module that no verb loads, is judged by the same rules on a
trace of the two acceptance criteria that use it (HOPF_CRITERIA) instead.

The same runs read, on entry, the arguments of every defaulted parameter
of each module-level function and method.  Each such parameter must be
set by some call to a value that is not its default and does not equal
it, or be listed in UNVARIED with one reason of the forms in REASON; a
function listed in UNREACHED covers its parameters.
"""

import contextlib
import functools
import importlib
import inspect
import io
import os
import re
import sys

import bvalg
from bvalg.cli import main

import test_acceptance
from test_golden import CASES, ROOT

PACKAGE = os.path.dirname(os.path.abspath(bvalg.__file__))
HOPF_CRITERIA = (test_acceptance.test_criterion_07_hopf_suite,
                 test_acceptance.test_criterion_08_derivations_leave_bracket_unchanged)
LOOPS = os.path.join(ROOT, "fixtures", "loops2_s4.lie")
EXTRA_CALLS = (["free-bv", LOOPS, "--apply", "a^2", "--max-degree", "8"],
               ["bracket", LOOPS, "a", "a", "--max-degree", "8"],
               ["fixture", "fd:4:Q"],  # the human report
               ["fixture", "--help"])

REASON = re.compile(r"input-error path|Python protocol method|perfbench (tracer hook|caller)"
                    r"|acceptance criterion \d+|waits for item \d+")
UNREACHED = {
    "__init__.__getattr__": "Python protocol method",
    "algebra.Monomial.__reduce__": "Python protocol method",
    "algebra.Monomial.__repr__": "Python protocol method",
    "algebra.Element.coefficient": "acceptance criterion 7",
    "algebra.Element.__repr__": "Python protocol method",
    "algebra.Undefined.__eq__": "Python protocol method",
    "algebra.Undefined.__hash__": "Python protocol method",
    "dsl.Diagnostic.__init__": "input-error path",
    "dsl.Diagnostic.__str__": "input-error path",
    "dsl.ParseError.__init__": "input-error path",
    "dsl.PresentationSource.__eq__": "Python protocol method",
    "dsl.PresentationSource.to_lie_presentation": "perfbench caller",
    "dsl._LineParser.fail": "input-error path",
    "dsl.render_presentation": "acceptance criterion 10",
    "fields.FieldSpec.__hash__": "Python protocol method",
    "fields.FieldSpec.sub": "perfbench tracer hook",
    "fields.FieldSpec.zero": "acceptance criterion 7",
    "fields.FieldSpec.sign": "perfbench tracer hook",
    "fixtures.StructureDescriptor.has_bv": "acceptance criterion 9",
    "fixtures.heisenberg": "acceptance criterion 5",
    "fixtures.abelian_ungraded": "acceptance criterion 5",
    "hopf.TensorElement.__mul__": "Python protocol method",
    "hopf.TensorElement.__str__": "Python protocol method",
    "lie.LiePresentation.__eq__": "Python protocol method",
    "linalg.nullspace": "acceptance criterion 7",
    "report.CheckResult.__eq__": "Python protocol method",
}
UNVARIED = {}


def _functions():
    """module.qualname of every named function compiled from the package's
    modules."""
    names = set()
    for filename in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(filename)
        if ext != ".py":
            continue
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
            stack = [compile(handle.read(), filename, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if hasattr(const, "co_qualname"):
                    stack.append(const)
                    # function code has new locals; module and class bodies do not
                    if (const.co_flags & inspect.CO_NEWLOCALS
                            and not const.co_name.startswith("<")):
                        names.add(f"{module}.{const.co_qualname}")
    return names


@functools.lru_cache(maxsize=None)
def _defaulted():
    """{code: (module.qualname, {parameter: default})} for each module-level
    function and method with a defaulted parameter (`__main__` runs the CLI
    when imported, and defines none)."""
    table = {}
    for filename in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(filename)
        if ext != ".py" or module == "__main__":
            continue
        mod = bvalg if module == "__init__" else importlib.import_module(f"bvalg.{module}")
        for obj in list(vars(mod).values()):
            for fn in vars(obj).values() if isinstance(obj, type) else (obj,):
                fn = getattr(fn, "__func__", fn)  # a staticmethod's function
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                defaults = {name: p.default for name, p in inspect.signature(fn).parameters.items()
                            if p.default is not p.empty}
                if defaults:
                    table[fn.__code__] = (f"{module}.{fn.__qualname__}", defaults)
    return table


def _run_verbs():
    for argv in list(CASES.values()) + list(EXTRA_CALLS):
        main(argv)


def _run_hopf_criteria():
    for criterion in HOPF_CRITERIA:
        criterion()


def _in_hopf(name):
    return name.startswith("hopf.")


def _trace(run, judged):
    """(module.qualname of every package function that run() enters,
    module.qualname.parameter of every defaulted parameter it sets to a
    value other than its default), each kept where judged(module.qualname)."""
    codes, varied, defaulted = set(), set(), _defaulted()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
            entry = defaulted.get(frame.f_code)
            if entry is not None:
                name, defaults = entry
                arguments = frame.f_locals
                varied.update(f"{name}.{parameter}" for parameter, default in defaults.items()
                              if arguments[parameter] is not default
                              and arguments[parameter] != default)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run()
    finally:
        sys.setprofile(previous)
    entered = {f"{os.path.splitext(os.path.basename(code.co_filename))[0]}.{code.co_qualname}"
               for code in codes
               if os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE}
    return set(filter(judged, entered)), set(filter(judged, varied))


@functools.lru_cache(maxsize=None)
def _traced():
    """hopf judged by the criteria that use it, every other module by the verbs."""
    verbs = _trace(_run_verbs, lambda name: not _in_hopf(name))
    criteria = _trace(_run_hopf_criteria, _in_hopf)
    return verbs[0] | criteria[0], verbs[1] | criteria[1]


def _listed(name):
    return any(name == entry or name.startswith(entry + ".<locals>.") for entry in UNREACHED)


def test_every_function_is_entered_by_a_verb_or_listed_with_its_reason():
    functions, (entered, _) = _functions(), _traced()
    assert sorted(n for n in functions - entered if not _listed(n)) == []
    # the list stays exact: each entry exists, no verb enters it, its reason is one form
    assert sorted(set(UNREACHED) - functions) == []
    assert sorted(set(UNREACHED) & entered) == []
    assert [n for n, reason in UNREACHED.items() if not REASON.fullmatch(reason)] == []


def test_every_defaulted_parameter_is_set_by_a_verb_or_listed_with_its_reason():
    parameters = {f"{name}.{parameter}" for name, defaults in _defaulted().values()
                  if not _listed(name) for parameter in defaults}
    _, varied = _traced()
    assert sorted(parameters - varied - set(UNVARIED)) == []
    # the list stays exact: each entry exists, no verb sets it, its reason is one form
    assert sorted(set(UNVARIED) - parameters) == []
    assert sorted(set(UNVARIED) & varied) == []
    assert [n for n, reason in UNVARIED.items() if not REASON.fullmatch(reason)] == []
