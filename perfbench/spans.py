"""Span tracing of tgw's layers from outside the package.

``Tracer.install`` wraps every public function defined in the layer modules
and rebinds the wrapper in every ``tgw`` module namespace that holds the
original, so calls across modules and within one module are both seen.  Each
call records a span (name, start, end, parent) in memory; ``summary`` turns
the spans into self times and call counts.  The benchmark installs a tracer
only in the forked child of a traced call, so untraced calls never see it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("core", "ideals", "modules", "homology", "geometry", "fixtures")


def bell(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1), in call order.
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        # Sizes of the work each call was given, computed from its arguments.
        self.congruence_sweeps: list[dict] = []
        self.tensor_generators: list[int] = []
        self.isomorphisms_found = 0

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"tgw.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "tgw" and not name.startswith("tgw."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = {
            "modules.enumerate_module_congruences": self._observe_congruences,
            "modules.find_isomorphism": self._observe_isomorphism,
            "homology.tensor": self._observe_tensor,
        }.get(qualname)

        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span] = (index, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_congruences(self, args, result) -> None:
        size = args[0].size
        self.congruence_sweeps.append({"module_size": size, "bell": bell(size),
                                       "congruences": len(result)})

    def _observe_isomorphism(self, args, result) -> None:
        if result is not None:
            self.isomorphisms_found += 1

    def _observe_tensor(self, args, result) -> None:
        self.tensor_generators.append(args[0].size * args[1].size)

    def summary(self, call_wall: float, scale: float = 1.0) -> dict:
        """Self time and count per function, plus the call's untraced remainder.

        A span's self time is its duration minus the durations of its direct
        children; ``cli_self_s`` is the call's wall time minus its top-level
        spans, i.e. argument parsing, rendering and JSON encoding.  Every
        time is multiplied by ``scale``.
        """
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for _, start, end, parent in self.spans:
            if parent < 0:
                top_level += end - start
            else:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, (index, start, end, _) in enumerate(self.spans):
            name = self.names[index]
            self_s[name] += (end - start - child_time[span]) * scale
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "cli_self_s": (call_wall - top_level) * scale,
                "congruence_sweeps": self.congruence_sweeps,
                "isomorphisms_found": self.isomorphisms_found,
                "tensor_generators": self.tensor_generators,
                "span_count": len(self.spans)}

    def span_rows(self) -> list[list]:
        return [[self.names[index], start, end, parent]
                for index, start, end, parent in self.spans]
