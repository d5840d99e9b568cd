"""The package namespace: lazy imports of the re-exported names."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import listsep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every name the package has re-exported, by the submodule that defines it.
REEXPORTS = {
    "assignments": ["CheckResult", "Coloring", "ListAssignment", "SeparationParams",
                    "is_proper_coloring", "is_valid_assignment"],
    "budget": ["RESOURCE_LIMIT", "Budget", "BudgetExceeded", "Meter"],
    "choosability": ["CHOOSABLE", "NOT_CHOOSABLE", "ChoosabilityVerdict",
                     "decide_choosable", "verify_not_choosable"],
    "constructions": ["ConstructedInstance", "build_book", "build_gadget35",
                      "build_gadget_single"],
    "graph": ["Graph", "complete_bipartite_graph", "complete_graph", "cycle_graph",
              "icosahedron_graph", "induced_subgraph", "path_graph", "petersen_graph"],
    "reducibility": ["CRITICAL_FAULT", "HYPOTHESIS_NOT_MET", "PASS",
                     "EdgeReductionResult", "KernelResult", "check_edge_reduction",
                     "find_reducible_edges", "greedy_kernel",
                     "run_edge_reduction_suite"],
    "solver": ["SAT", "UNSAT", "SolveResult", "solve", "solve_with_precolor"],
    "sparsity": ["ChargeReport", "MadResult", "mad_bruteforce", "mad_exact",
                 "verify_charge_algebra"],
    "tuple_audit": ["FAILS_INEQ1", "VIOLATES", "AuditReport", "TupleRecord",
                    "audit_inequality1", "enumerate_tuples", "full_audit"],
}


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_submodule():
    out = run_python(
        "import sys, listsep\n"
        "print(sorted(m for m in sys.modules if m.startswith('listsep.')))"
    )
    assert out == "[]\n"


def test_every_reexported_name_is_its_submodules_object():
    names = [name for names in REEXPORTS.values() for name in names]
    assert len(names) == 53
    assert listsep.__all__ == sorted([*REEXPORTS, *names])
    for module_name, names in REEXPORTS.items():
        module = importlib.import_module(f"listsep.{module_name}")
        assert getattr(listsep, module_name) is module
        for name in names:
            assert getattr(listsep, name) is getattr(module, name)


def test_star_import_and_unknown_names():
    out = run_python(
        "from listsep import *\n"
        "import listsep\n"
        "print(Graph is listsep.graph.Graph, callable(decide_choosable))\n"
        "print(hasattr(listsep, 'no_such_name'))"
    )
    assert out == "True True\nFalse\n"
