"""Outside-in tracing of cfspectra: wraps public functions from the benchmark.

Nothing in the package is edited. `Tracer.install` replaces each wrapped
function at every module that imported it by name (methods on their class),
records a span per call with its parent span, and `Tracer.uninstall` puts the
originals back. Value types (`intervals`, `matrices`, `errors`) are not
wrapped: they are called too often, and their cost shows up in their callers'
self time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs, reported as "<module>.<function>"; "Class.method"
# is patched on the class
SPANNED = [
    ("cli", "main"), ("cli", "make_report"), ("cli", "emit"), ("cli", "cached_expand"),
    ("polynomials", "count_roots_in"), ("polynomials", "squarefree_part"),
    ("algebraic", "AlgebraicNumber.refine_to"), ("algebraic", "isolate_real_roots"),
    ("algebraic", "moebius_apply"), ("algebraic", "alg_equal"),
    ("algebraic", "quadratic_conjugate"),
    ("cf", "expand"), ("cf", "verify_cf_identities"),
    ("words", "find_shared_blocks"), ("words", "find_repetitions"),
    ("words", "find_mirror_repetitions"), ("words", "subword_complexity"),
    ("harness", "l1_smallness_report"),
    ("enclose", "log_ratio_enclosure"),
    ("orbit", "orbit_best_approximations"), ("orbit", "rational_baseline_scan"),
    ("orbit", "quadratic_norm"),
]
# counted without a span: too frequent, or only their count matters
COUNTED = [
    ("polynomials", "IntPolynomial.sign_at"), ("harness", "eval_linear_forms"),
    ("orbit", "complete_unimodular"),
]


def _label(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _log2_width(iv) -> float | None:
    w = iv.hi - iv.lo
    if w <= 0:
        return None
    return math.log2(w.numerator) - math.log2(w.denominator)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.extra: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def _span(self, label: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(label)
        spans, stack = self.spans, self._stack
        measure = self._before_refine if label == "algebraic.refine_to" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = measure(args) if measure is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, kwargs, result, before)
            return result

        return wrapper

    @staticmethod
    def _before_refine(args):
        return _log2_width(args[0].isolating)

    def _counter(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # what a wrapped call returns feeds these counters
    def _after_refine(self, args, kwargs, result, before):
        after = _log2_width(result)
        if before is not None:
            # an exactly found dyadic root ends at width 0: count the bits asked for
            bits = args[1] if len(args) > 1 else kwargs["bits"]
            self.extra["algebraic.refine_to.bits_gained"] += before - (
                after if after is not None else -bits)

    def _after_expand(self, args, kwargs, result, before):
        self.extra["cf.expand.quotients"] += len(result.quotients)

    def _after_cached(self, args, kwargs, result, before):
        self.counts[f"cli.cache.{result[1]}"] += 1

    def _after_emit(self, args, kwargs, result, before):
        output = args[1] if len(args) > 1 else kwargs.get("output")
        if output and os.path.exists(output):
            self.extra["cli.emit.bytes"] += os.path.getsize(output)

    def _after_words(self, args, kwargs, result, before):
        self.extra["words.witnesses"] += len(result)

    def _after_l1(self, args, kwargs, result, before):
        key = "harness.l1.max_bits"
        self.extra[key] = max(self.extra[key], result.bits_used)

    def _after_orbit(self, args, kwargs, result, before):
        self.extra["orbit.records"] += len(result.records)

    _AFTER = {
        "algebraic.refine_to": "_after_refine", "cf.expand": "_after_expand",
        "cli.cached_expand": "_after_cached", "cli.emit": "_after_emit",
        "words.find_shared_blocks": "_after_words", "words.find_repetitions": "_after_words",
        "words.find_mirror_repetitions": "_after_words",
        "harness.l1_smallness_report": "_after_l1",
        "orbit.orbit_best_approximations": "_after_orbit",
    }

    def install(self) -> None:
        for targets, spanned in ((SPANNED, True), (COUNTED, False)):
            for module, attr in targets:
                label = _label(module, attr)
                mod = sys.modules[f"cfspectra.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[meth]
                    sites = [(owner, meth)]
                else:
                    original = getattr(mod, attr)
                    sites = [
                        (m, name)
                        for m_name, m in list(sys.modules.items())
                        if m_name == "cfspectra" or m_name.startswith("cfspectra.")
                        for name, value in vars(m).items()
                        if value is original
                    ]
                if spanned:
                    after = getattr(self, self._AFTER[label]) if label in self._AFTER else None
                    wrapper = self._span(label, original, after)
                else:
                    wrapper = self._counter(label, original)
                for owner, name in sites:
                    self._restore.append((owner, name, original))
                    setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ---------------------------------------------------------- reporting

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s (outermost spans of a name) and self_s per span name."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            label = self.names[name_id]
            calls[label] += 1
            self_s[label] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.names[self.spans[p][0]] != label:
                p = self.spans[p][3]
            if p < 0:
                busy[label] += end - start
        out = {}
        for label in set(self.names):
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.busy_s"] = busy[label]
            out[f"{label}.self_s"] = self_s[label]
        for label, n in self.counts.items():
            out[f"{label}.calls" if not label.startswith("cli.cache.") else label] = n
        out.update(self.extra)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans}, f)
