"""Spans around the public functions of each eala layer, kept in memory.

`Tracer.install` wraps every public function that a layer module defines and
rebinds the wrapper in every eala namespace that holds the function, since
`from .core import eala_attention` gives `mha`, `fidelity` and `cli` their
own binding.  Calls are recorded only while an operation is open, so the
benchmark's own checks, which call a few eala functions, add no spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("core", "oracle", "mha", "fidelity", "workload", "numerics", "tensorio", "cli")


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.ops: list[dict] = []  # one entry per operation: id, workload, round, kind
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def open_op(self, workload: str, rnd: int, kind: str) -> None:
        self._op = len(self.ops)
        self.ops.append({"op_id": self._op, "workload": workload, "round": rnd, "kind": kind})

    def close_op(self) -> None:
        self._op = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, parent, self._op, name, start, end)
        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"eala.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "eala" or name.startswith("eala.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def per_round(self, workload: str, kinds=("primary", "secondary")) -> dict:
        """{round: {span name: [calls, total s, self s]}} over the named kinds."""
        op_round = {o["op_id"]: o["round"] for o in self.ops
                    if o["workload"] == workload and o["kind"] in kinds}
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for s in self.spans:
            if s.op_id not in op_round:
                continue
            acc = out[op_round[s.op_id]][s.name]
            acc[0] += 1
            acc[1] += s.end - s.start
            acc[2] += s.end - s.start - child_time[s.span_id]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for o in self.ops:
                fh.write(json.dumps({"op": o}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"span": s.__dict__}) + "\n")
