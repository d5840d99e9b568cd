"""The package namespace: a docstring, and each name in its submodule."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The names the package root once re-exported; each is now imported from
# its submodule only.
FORMER_NAMES = """
    CheckResult Coloring ListAssignment SeparationParams is_proper_coloring
    is_valid_assignment RESOURCE_LIMIT Budget BudgetExceeded Meter CHOOSABLE
    NOT_CHOOSABLE ChoosabilityVerdict decide_choosable verify_not_choosable
    ConstructedInstance build_book build_gadget35 build_gadget_single Graph
    complete_bipartite_graph complete_graph cycle_graph icosahedron_graph
    induced_subgraph path_graph petersen_graph CRITICAL_FAULT HYPOTHESIS_NOT_MET
    PASS EdgeReductionResult KernelResult check_edge_reduction
    find_reducible_edges greedy_kernel run_edge_reduction_suite SAT UNSAT
    SolveResult solve solve_with_precolor ChargeReport MadResult mad_bruteforce
    mad_exact verify_charge_algebra FAILS_INEQ1 VIOLATES AuditReport TupleRecord
    audit_inequality1 enumerate_tuples full_audit
""".split()


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


def test_names_come_only_from_their_submodules():
    out = run_python(
        "import sys, listsep\n"
        f"names = {FORMER_NAMES!r}\n"
        "print([n for n in names if hasattr(listsep, n)])\n"
        "from listsep import cli, solver\n"
        "print(cli is sys.modules['listsep.cli'], solver is sys.modules['listsep.solver'])\n"
        "print([n for n in names if hasattr(listsep, n)])"
    )
    assert len(FORMER_NAMES) == 53
    assert out == "[]\nTrue True\n[]\n"


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/spans.py replaces each (module, attribute) in WRAPPED as the
    # module sees it, so each must be importable there.
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.WRAPPED and missing == []
