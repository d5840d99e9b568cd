"""Span recording for the traced run, installed around the package's layers.

The wrappers replace public functions as each importing module sees them
(`listsep.cli.solve`, `listsep.choosability.solve`, ...), so the program's
own code is untouched and the untraced run pays nothing. Spans are kept in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module holding the name, attribute, span name). A span name's first
# component is the layer that owns the function.
WRAPPED = (
    ("listsep.cli", "main", "cli.main"),
    ("listsep.cli", "parse_graph_file", "cli.parse"),
    ("listsep.cli", "parse_lists_file", "cli.parse"),
    ("listsep.cli", "solve", "solver.solve"),
    ("listsep.choosability", "solve", "solver.solve"),
    ("listsep.reducibility", "solve", "solver.solve"),
    ("listsep.cli", "decide_choosable", "choosability.decide"),
    ("listsep.cli", "verify_not_choosable", "choosability.verify"),
    ("listsep.choosability", "induced_subgraph", "graph.induced_subgraph"),
    ("listsep.reducibility", "induced_subgraph", "graph.induced_subgraph"),
    ("listsep.cli", "mad_exact", "sparsity.mad"),
    ("listsep.cli", "greedy_kernel", "reducibility.kernel"),
    ("listsep.choosability", "greedy_kernel", "reducibility.kernel"),
    ("listsep.cli", "find_reducible_edges", "reducibility.find_reducible"),
    ("listsep.cli", "is_valid_assignment", "assignments.validity"),
    ("listsep.choosability", "is_valid_assignment", "assignments.validity"),
    ("listsep.constructions", "build_book", "constructions.build"),
    ("listsep.constructions", "build_gadget35", "constructions.build"),
)


def _counts(name: str, result) -> dict[str, int]:
    """Work counts a layer reports in its return value."""
    if name == "solver.solve":
        return {"nodes": result.nodes_explored}
    if name == "choosability.decide":
        return {"assignments": result.assignments_tested, "nodes": result.nodes_used}
    if name == "reducibility.kernel":
        return {"peel_steps": len(result.order)}
    return {}


class Tracer:
    """Records spans (name, start, end, parent, counts) while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, counts]
        self.stack: list[int] = []
        self.active = False
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, perf_counter(), 0.0, parent, {}]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = func(*args, **kwargs)
                span[4] = _counts(name, result)
                return result
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(name, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, **counts}))
                fh.write("\n")


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics: per traced pass, except constructions (per set-up).

    Self time is a span's duration minus the time its child spans cover;
    on one thread the children of a span never overlap, so that is the sum
    of their durations.
    """
    child_time = [0.0] * len(spans)
    child_solver_nodes = [0] * len(spans)
    for name, start, end, parent, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "solver.solve":
                child_solver_nodes[parent] += counts["nodes"]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    sums: dict[str, int] = {}
    enum_steps = 0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time[i]
        for key, value in counts.items():
            sums[key] = sums.get(key, 0) + value
        if name == "choosability.decide":
            enum_steps += counts["nodes"] - child_solver_nodes[i]

    def per_pass(value):
        return value / passes

    solver_self = self_time.get("solver.solve", 0.0)
    solver_calls = calls.get("solver.solve", 0)
    solver_nodes = sum(s[4]["nodes"] for s in spans if s[0] == "solver.solve")
    assignments = sums.get("assignments", 0)
    return {
        "solver.calls": per_pass(solver_calls),
        "solver.nodes": per_pass(solver_nodes),
        "solver.self_s": per_pass(solver_self),
        "solver.nodes_per_s": solver_nodes / solver_self if solver_self else 0.0,
        "choosability.self_s": per_pass(self_time.get("choosability.decide", 0.0)
                                        + self_time.get("choosability.verify", 0.0)),
        "choosability.assignments": per_pass(assignments),
        "choosability.enum_steps": per_pass(enum_steps),
        "choosability.complete_ratio": assignments / enum_steps if enum_steps else 0.0,
        "graph.induced_subgraph.calls": per_pass(calls.get("graph.induced_subgraph", 0)),
        "graph.induced_subgraph_s": per_pass(total.get("graph.induced_subgraph", 0.0)),
        "sparsity.mad.calls": per_pass(calls.get("sparsity.mad", 0)),
        "sparsity.mad_s": per_pass(total.get("sparsity.mad", 0.0)),
        "reducibility.kernel_s": per_pass(self_time.get("reducibility.kernel", 0.0)),
        "reducibility.peel_steps": per_pass(sums.get("peel_steps", 0)),
        "reducibility.find_reducible_s":
            per_pass(total.get("reducibility.find_reducible", 0.0)),
        "cli.parse_s": per_pass(total.get("cli.parse", 0.0)),
        "cli.self_s": per_pass(self_time.get("cli.main", 0.0)),
        "assignments.validity_s": per_pass(total.get("assignments.validity", 0.0)),
        "constructions.build_s": total.get("constructions.build", 0.0),
    }
