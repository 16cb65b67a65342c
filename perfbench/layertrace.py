"""Per-layer spans and counts for the traced run, recorded from outside.

``Tracer.install`` wraps every public function of each layer module, plus
the few methods the metrics name, and rebinds each wrapped function
wherever a bfredholm module holds it.  Every call then records a span
(name, start, end, parent) in compact arrays.  Self time, a span minus
the time its child spans cover, is summed per name as spans close.
Scalar arithmetic is counted by ``count_scalars`` in a separate pass,
because wrapping the field operations would swamp every span above them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("dsl", "engine", "operators", "finiterank", "sequences", "symbols", "rootloc", "poly", "matrices")
METHODS = (  # (module, class, method, span name)
    ("poly", "Polynomial", "__mul__", "poly.mul"),
    ("finiterank", "FiniteRankOperator", "compose", "finiterank.compose"),
    ("sequences", "RationalSequence", "value", "sequences.value"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []  # inclusive; recursive calls count more than once
        self.counts: Counter = Counter()
        self.max_degree = 0
        self._stack: list[list[int]] = []
        self._expanded: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return self._ids[name]

    def _enter(self, nid: int) -> list[int]:
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][3] if stack else -1)
        self.span_end.append(0)
        frame = [nid, 0, 0, idx]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        self.span_start.append(frame[1])
        return frame

    def _leave(self, frame: list[int]) -> None:
        end = perf_counter_ns()
        nid, start, child_ns, idx = frame
        self.span_end[idx] = end
        self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child_ns
        self.total_ns[nid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def _observed(self, name: str, fn):
        """Wrappers that also count what crosses the boundary."""
        if name == "operators.op_arith":
            ids = {op: self._id(f"operators.op_{op}") for op in ("add", "sub", "mul")}
            other = self._id(name)
            enter, leave = self._enter, self._leave

            @functools.wraps(fn)
            def op_arith(a, b, op):
                frame = enter(ids.get(op, other))
                try:
                    out = fn(a, b, op)
                finally:
                    leave(frame)
                if op == "mul":  # terms in the corrections that products return
                    self.counts["terms_built"] += sum(
                        len(blk.correction.terms) for blk in out.blocks if hasattr(blk, "correction")
                    )
                return out

            return op_arith
        traced = self._wrap(name, fn)
        if name == "symbols.laurent_expansion":

            def laurent_expansion(f):
                key = (f.num.coeffs, f.den.coeffs, f.shift)
                if key in self._expanded:
                    self.counts["expansion_repeats"] += 1
                self._expanded.add(key)
                return traced(f)

            return functools.wraps(fn)(laurent_expansion)
        if name in ("rootloc.has_zero_on_circle", "rootloc.count_zeros_in_disk"):

            def located(p):
                self.max_degree = max(self.max_degree, p.degree)
                return traced(p)

            return functools.wraps(fn)(located)
        return traced

    def install(self, package: str = "bfredholm") -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._observed(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{layer}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def totals(self) -> dict[str, dict[str, int]]:
        return {n: {"calls": self.calls[i], "self_ns": self.self_ns[i], "total_ns": self.total_ns[i]}
                for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as parallel arrays (gzip JSON), with the per-name totals."""
        doc = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "totals": self.totals(),
            "counts": dict(self.counts),
            "max_degree": self.max_degree,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def count_scalars(package: str = "bfredholm") -> tuple[Counter, callable]:
    """Count GaussianRational multiplications and additions (+ and -).

    Returns the live counter and a function that removes the counting.
    """
    cls = importlib.import_module(f"{package}.scalars").GaussianRational
    counts: Counter = Counter()
    saved = {m: cls.__dict__[m] for m in ("__mul__", "__add__", "__sub__")}

    def counting(method, key):
        def op(a, b):
            counts[key] += 1
            return method(a, b)

        return op

    cls.__mul__ = counting(saved["__mul__"], "mul")
    cls.__add__ = counting(saved["__add__"], "add")
    cls.__sub__ = counting(saved["__sub__"], "add")

    def restore():
        for m, fn in saved.items():
            setattr(cls, m, fn)

    return counts, restore
