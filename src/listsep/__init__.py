"""List coloring with separation constraints: exact search, adversarial
constructions, sparsity bounds, and exact-rational proof audits."""

from .assignments import (
    CheckResult,
    Coloring,
    ListAssignment,
    SeparationParams,
    is_proper_coloring,
    is_valid_assignment,
)
from .budget import RESOURCE_LIMIT, Budget, BudgetExceeded, Meter
from .choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    ChoosabilityVerdict,
    decide_choosable,
    verify_not_choosable,
)
from .constructions import (
    ConstructedInstance,
    build_book,
    build_gadget35,
    build_gadget_single,
)
from .graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    induced_subgraph,
    path_graph,
    petersen_graph,
)
from .reducibility import (
    CRITICAL_FAULT,
    HYPOTHESIS_NOT_MET,
    PASS,
    EdgeReductionResult,
    KernelResult,
    check_edge_reduction,
    find_reducible_edges,
    greedy_kernel,
    run_edge_reduction_suite,
)
from .solver import SAT, UNSAT, SolveResult, solve, solve_with_precolor
from .sparsity import (
    ChargeReport,
    MadResult,
    mad_bruteforce,
    mad_exact,
    verify_charge_algebra,
)
from .tuple_audit import (
    FAILS_INEQ1,
    VIOLATES,
    AuditReport,
    TupleRecord,
    audit_inequality1,
    enumerate_tuples,
    full_audit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
