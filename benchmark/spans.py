"""In-memory span recording around the program's layer functions.

Each layer is timed from outside the program: its public functions are
replaced, where the calling module binds them, by wrappers that record a
span (name, parent, start, end). Spans are appended to flat arrays while the
traced sweep runs and are only reduced to per-name totals when it ends.

A span's self time is its duration minus the durations of its direct
children. Spans nest strictly (one thread, wrappers restore the stack in
``finally``), so the self times of all spans under a root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

from vqabench import cost, harness

# (module, attribute, span name): every place the program binds a layer
# function that another layer calls. The traced sweep runs serially, so
# these wrappers see every call; in pool workers they would not report back.
LAYER_BINDINGS = (
    (harness, "run_single", "harness.run_single"),
    (harness, "prepare_context", "harness.prepare_context"),
    (harness, "random_qubo", "qubo.random_qubo"),
    (harness, "brute_force_minimum", "qubo.brute_force_minimum"),
    (harness, "all_costs", "qubo.all_costs"),
    (harness, "minimize", "optimizer.minimize"),
    (harness, "cost_estimate", "cost.cost_estimate"),
    (harness, "build_statevector", "circuit.build_statevector"),
    (harness, "exact_p_min", "circuit.exact_p_min"),
    (harness, "compute_report", "metrics.compute_report"),
    (cost, "build_statevector", "circuit.build_statevector"),
    (cost, "sample_bitstrings", "circuit.sample_bitstrings"),
    (cost, "cvar", "cost.cvar"),
)


@contextlib.contextmanager
def patched(bindings):
    """Temporarily rebind ``(module, attribute, replacement)`` triples."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    try:
        for module, attr, replacement in bindings:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class SpanRecorder:
    """Flat, append-only span store for one traced sweep."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def layer_bindings(self):
        return [(module, attr, self.wrap(name, getattr(module, attr)))
                for module, attr, name in LAYER_BINDINGS]

    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += duration[i] - child[i]
        return out
