"""Spans and counters around bvalg's layers, installed from outside the package.

`Tracer` replaces functions and methods of the loaded `bvalg` modules with
wrappers and puts the originals back on exit.  A module-level function is
replaced at every name it is bound to, since modules import each other's
functions by name.  Coarse calls (verifiers, bases, chain complexes, ranks,
parsing, JSON rendering, the CLI entry point) record spans; hot calls (field
arithmetic, word normalisation, element products, monomial brackets and
operator values) only count.  Counting the hot calls slows them severalfold,
so span times come from a tracer made with `hot=False`.  Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

FIELD_OPS = ("coerce", "add", "sub", "mul", "neg", "inv", "sign")
VERIFIER_SPANS = {"verify_square_zero": "bv.square_zero",
                  "verify_deviation_identity": "bv.deviation",
                  "verify_bracket_compatibility": "bv.compatibility",
                  "verify_gerstenhaber": "bv.gerstenhaber"}

# Per-layer metrics of one pass: name -> unit.
PER_LAYER = {
    "fields.ops": "count",
    "fields.coerce_calls": "count",
    "algebra.normalize_word_calls": "count",
    "algebra.element_mul_calls": "count",
    "algebra.element_new": "count",
    "algebra.basis_s": "s",
    "bv.square_zero_s": "s",
    "bv.deviation_s": "s",
    "bv.compatibility_s": "s",
    "bv.gerstenhaber_s": "s",
    "bv.bracket_calls": "count",
    "bv.bracket_cache_hit_ratio": "ratio",
    "bv.bv_monomial_calls": "count",
    "bv.bv_cache_hit_ratio": "ratio",
    "bv.skipped_frac": "ratio",
    "homology.build_s": "s",
    "homology.complex_check_s": "s",
    "homology.betti_s": "s",
    "homology.chain_dim": "count",
    "linalg.rank_q_s": "s",
    "linalg.rank_fp_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_entries": "count",
    "dsl.parse_s": "s",
    "report.to_json_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """The spans and counts of the CLI calls made while it is entered.
    With hot=False only the coarse calls are wrapped."""

    def __init__(self, hot: bool = True) -> None:
        self.hot = hot
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: Callable[..., str], fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name(*args), clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    def _counted(self, name: str, fn, hit: Optional[Callable[..., bool]] = None):
        counts = self.counts
        if hit is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            hits = name + ".hits"

            def wrapper(*args, **kwargs):
                counts[name] += 1
                if hit(*args):
                    counts[hits] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_function(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "bvalg":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _replace_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def __enter__(self) -> "Tracer":
        from bvalg import algebra, bv, fields, homology, report
        fixed = lambda label: (lambda *args: label)  # noqa: E731
        span = lambda label: (lambda fn: self._span(fixed(label), fn))  # noqa: E731
        count = lambda label, hit=None: (lambda fn: self._counted(label, fn, hit))  # noqa: E731

        if self.hot:
            for op in FIELD_OPS:
                self._replace_method(fields.FieldSpec, op, count(f"fields.{op}"))
            self._replace_function("bvalg.algebra", "normalize_word",
                                   count("algebra.normalize_word"))
            self._replace_method(algebra.Element, "__mul__", count("algebra.element_mul"))
            self._replace_method(algebra.Element, "__init__", count("algebra.element_new"))
            self._replace_function(
                "bvalg.bv", "_bracket_monomials",
                count("bv.bracket", lambda s, m1, m2: (m1, m2) in s._bracket_cache))
            self._replace_method(
                bv.BVStructure, "bv_monomial",
                count("bv.bv_monomial", lambda s, mono: s.has_bv and mono in s._bv_cache))

        self._replace_function("bvalg.algebra", "monomial_basis", span("algebra.basis"))
        for fn_name, label in VERIFIER_SPANS.items():
            self._replace_function("bvalg.bv", fn_name, span(label))

        self._replace_function("bvalg.homology", "build_ce_complex", span("homology.build"))
        self._replace_method(homology.ChainComplex, "__post_init__",
                             lambda fn: self._span(self._chain_dim, fn))
        self._replace_function("bvalg.homology", "betti", span("homology.betti"))
        self._replace_function("bvalg.linalg", "rank", self._rank)

        self._replace_function("bvalg.dsl", "parse_presentation", span("dsl.parse"))
        self._replace_method(report.Report, "to_json", span("report.to_json"))
        self._replace_function("bvalg.cli", "main", span("cli.main"))
        return self

    def _chain_dim(self, complex_) -> str:
        self.counts["homology.chain_dim"] += sum(len(b) for b in complex_.basis.values())
        return "homology.complex_check"

    def _rank(self, fn):
        counts = self.counts

        def label(matrix, field) -> str:
            counts["linalg.rank"] += 1
            counts["linalg.rank_entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)
            return "linalg.rank_q" if field.kind == "rational" else "linalg.rank_fp"
        return self._span(label, fn)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time: duration minus the time covered
        by its direct child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: Dict[str, float] = Counter()
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return dict(out)

    def totals(self) -> Dict[str, float]:
        """Span name -> summed duration (no span nests inside one of its own name)."""
        out: Dict[str, float] = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(counted: Tracer, timed: Tracer, docs: List[dict], traced_s: float,
                  untraced_s: float) -> Dict[str, float]:
    """The PER_LAYER metrics of one pass over a workload's inputs, with counts
    from `counted` (hot=True) and times from `timed` (hot=False).  `docs` are
    the pass's JSON outputs; the wall times are of the pass under `timed`
    and without tracing."""
    c, t = counted.counts, timed.totals()
    checked = sum(int(v["checked"]) for d in docs for v in d["verdicts"])
    skipped = sum(int(v["skipped"]) for d in docs for v in d["verdicts"])
    out = {
        "fields.ops": sum(c[f"fields.{op}"] for op in FIELD_OPS),
        "fields.coerce_calls": c["fields.coerce"],
        "algebra.normalize_word_calls": c["algebra.normalize_word"],
        "algebra.element_mul_calls": c["algebra.element_mul"],
        "algebra.element_new": c["algebra.element_new"],
        "bv.bracket_calls": c["bv.bracket"],
        "bv.bracket_cache_hit_ratio": _ratio(c["bv.bracket.hits"], c["bv.bracket"]),
        "bv.bv_monomial_calls": c["bv.bv_monomial"],
        "bv.bv_cache_hit_ratio": _ratio(c["bv.bv_monomial.hits"], c["bv.bv_monomial"]),
        "bv.skipped_frac": _ratio(skipped, checked + skipped),
        "homology.chain_dim": c["homology.chain_dim"],
        "linalg.rank_calls": c["linalg.rank"],
        "linalg.rank_entries": c["linalg.rank_entries"],
        "cli.self_s": timed.self_times().get("cli.main", 0.0),
        "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
    }
    for name, unit in PER_LAYER.items():
        if unit == "s" and name not in out:
            out[name] = t.get(name[:-2], 0.0)
    return out
