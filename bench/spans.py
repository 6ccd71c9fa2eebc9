"""Spans around eukleia's layer boundaries, recorded from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (``eukleia.cli.parse_proof`` as well as ``eukleia.dsl.parse_proof``)
and restores them afterwards, so the package itself carries no tracing code.
Each span records its name, start, end, parent span and invocation id.  The
spans of one invocation are folded into per-layer totals once it returns,
outside the timed call; the spans of the first traced round are kept and
written out when the benchmark ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "dsl", "calculus", "semantics", "kernel")

# (module, attribute, span name); the layer is the span name's first part.
_TARGETS = [
    ("eukleia.dsl", "parse_proof", "dsl.parse_proof"),
    ("eukleia.dsl", "parse_expr", "dsl.parse_expr"),
    ("eukleia.cli", "parse_proof", "dsl.parse_proof"),
    ("eukleia.cli", "parse_expr", "dsl.parse_expr"),
    ("eukleia.calculus", "check_derivation", "calculus.check_derivation"),
    ("eukleia.cli", "check_derivation", "calculus.check_derivation"),
    ("eukleia.semantics", "model_check_derivation", "semantics.model_check_derivation"),
    ("eukleia.cli", "model_check_derivation", "semantics.model_check_derivation"),
    ("eukleia.semantics", "random_valuation", "semantics.random_valuation"),
    ("eukleia.semantics", "eval_judgment", "semantics.eval_judgment"),
] + [
    (module, fn, f"kernel.{fn}")
    for fn in ("sum_multiset", "compare_multisets", "add_two")
    for module in ("eukleia.kernel", "eukleia.calculus", "eukleia.semantics", "eukleia.cli")
]


class Tracer:
    """Records spans while installed; ``totals`` accumulates every folded span."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.invocation = 0
        self.kept: list[tuple] = []  # spans of the kept invocations, for writing out
        self.keep = False
        self.totals: dict[str, float] = defaultdict(float)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in _TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        calculus = importlib.import_module("eukleia.calculus")
        check_step = calculus.check_step
        self._saved.append((calculus, "check_step", check_step))

        def counted(step, context):
            self.totals["calculus.steps"] += 1
            return check_step(step, context)

        calculus.check_step = counted

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            # [name, start, end, parent, exception type, result, first argument]
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None, None, args[0] if args else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[5] = fn(*args, **kwargs)
                return rec[5]
            except BaseException as exc:
                # The type only: keeping the exception would keep its frames alive.
                rec[4] = type(exc)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- one invocation ----------------------------------------------------

    def call(self, main, argv):
        """Run ``main(argv)`` under a root ``cli.main`` span; fold its spans afterwards."""
        self.invocation += 1
        return self._wrap("cli.main", main)(argv)

    def fold(self) -> None:
        """Add the last invocation's spans to ``totals`` and drop them."""
        spans, t = self._spans, self.totals
        child = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, exc, result, arg) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur, own = t1 - t0, t1 - t0 - child[i]
            t[f"{name}.calls"] += 1
            t[f"{name}.self_s"] += own
            t[f"{layer}.self_s"] += own
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                t[f"{layer}.calls"] += 1
                t[f"{layer}.busy_s"] += dur
            if layer == "dsl":
                t["dsl.bytes"] += len(arg.encode("utf-8"))
            elif name == "kernel.sum_multiset":
                t["kernel.angles"] += len(arg)
            elif name == "kernel.add_two":
                t["kernel.angles"] += 2
                t["kernel.add_two.overflows"] += exc is not None and exc.__name__ == "AngleOverflow"
            elif name == "semantics.random_valuation":
                t["semantics.random_valuation.unsatisfied"] += exc is not None and exc.__name__ == "Unsatisfied"
            elif name == "semantics.model_check_derivation" and result is not None:
                t["semantics.trials"] += result.trials
                t["semantics.satisfied"] += result.satisfied
            if self.keep:
                self.kept.append((self.invocation, i, name, t0, t1, parent))
        spans.clear()

    def write(self, path: Path) -> None:
        """Write the kept spans as gzipped JSON lines, times in microseconds."""
        if not self.kept:
            return
        origin = min(s[3] for s in self.kept)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for inv, i, name, t0, t1, parent in self.kept:
                out.write(json.dumps({"invocation": inv, "span": i, "name": name, "parent": parent,
                                      "start_us": round((t0 - origin) * 1e6, 1),
                                      "end_us": round((t1 - origin) * 1e6, 1)}) + "\n")
