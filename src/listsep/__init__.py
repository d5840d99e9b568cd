"""List coloring with separation constraints: exact search, adversarial
constructions, sparsity bounds, and exact-rational proof audits.

Importing the package loads no submodule: each name below is imported from
its submodule when it is first used (PEP 562).
"""

import importlib

_EXPORTS = {
    "assignments": (
        "CheckResult",
        "Coloring",
        "ListAssignment",
        "SeparationParams",
        "is_proper_coloring",
        "is_valid_assignment",
    ),
    "budget": ("RESOURCE_LIMIT", "Budget", "BudgetExceeded", "Meter"),
    "choosability": (
        "CHOOSABLE",
        "NOT_CHOOSABLE",
        "ChoosabilityVerdict",
        "decide_choosable",
        "verify_not_choosable",
    ),
    "constructions": (
        "ConstructedInstance",
        "build_book",
        "build_gadget35",
        "build_gadget_single",
    ),
    "graph": (
        "Graph",
        "complete_bipartite_graph",
        "complete_graph",
        "cycle_graph",
        "icosahedron_graph",
        "induced_subgraph",
        "path_graph",
        "petersen_graph",
    ),
    "reducibility": (
        "CRITICAL_FAULT",
        "HYPOTHESIS_NOT_MET",
        "PASS",
        "EdgeReductionResult",
        "KernelResult",
        "check_edge_reduction",
        "find_reducible_edges",
        "greedy_kernel",
        "run_edge_reduction_suite",
    ),
    "solver": ("SAT", "UNSAT", "SolveResult", "solve", "solve_with_precolor"),
    "sparsity": (
        "ChargeReport",
        "MadResult",
        "mad_bruteforce",
        "mad_exact",
        "verify_charge_algebra",
    ),
    "tuple_audit": (
        "FAILS_INEQ1",
        "VIOLATES",
        "AuditReport",
        "TupleRecord",
        "audit_inequality1",
        "enumerate_tuples",
        "full_audit",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
