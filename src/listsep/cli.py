"""Command-line entry point: file parsing, subcommand dispatch, exit codes.

Exit codes: 0 success/SAT/PASS, 1 definitive negative (UNSAT, NOT_CHOOSABLE,
FAIL), 2 usage or parse error, 3 resource limit, 4 internal error.

Graph files: first non-comment line "n m", then m lines "u v" with 0-based
ids; blank lines and lines starting with "#" are ignored. List files: one
line per vertex, "v: c1 c2 c3 ..."; the color universe is inferred as
1 + max color unless --universe overrides it.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

from .assignments import ListAssignment, SeparationParams, is_valid_assignment
from .budget import RESOURCE_LIMIT, Budget, Meter
from .choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    decide_choosable,
    verify_not_choosable,
)
from .constructions import build_book, build_gadget35
from .graph import Graph
from .reducibility import (
    DEFAULT_SEED,
    find_reducible_edges,
    greedy_kernel,
    run_edge_reduction_suite,
)
from .solver import SAT, UNSAT, solve
from .sparsity import mad_exact, verify_charge_algebra
from .tuple_audit import full_audit

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_EXIT = {SAT: EXIT_OK, CHOOSABLE: EXIT_OK, UNSAT: EXIT_NEGATIVE,
         NOT_CHOOSABLE: EXIT_NEGATIVE, RESOURCE_LIMIT: EXIT_RESOURCE}


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")


def _content_lines(path: str) -> list[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    out = []
    for i, line in enumerate(raw, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((i, stripped))
    return out


def parse_graph_file(path: str) -> Graph:
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, "missing 'n m' header")
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ParseError(path, line_no, f"expected 'n m', got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    if len(lines) - 1 != m:
        raise ParseError(
            path, line_no, f"header announces {m} edges, file has {len(lines) - 1}"
        )

    def pairs():
        # Graph checks range, self-loops and duplicates as it consumes each
        # pair; line_no is the line of the pair being read or checked.
        nonlocal line_no
        for line_no, text in lines[1:]:
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'u v', got {text!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"non-integer vertex in {text!r}") from None
            yield u, v

    try:
        return Graph(n, pairs())
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None


def parse_lists_file(path: str, universe: int | None = None) -> ListAssignment:
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty list file")
    by_vertex: dict[int, list[int]] = {}
    for line_no, text in lines:
        head, sep, tail = text.partition(":")
        if not sep:
            raise ParseError(path, line_no, f"expected 'v: colors', got {text!r}")
        try:
            v = int(head.strip())
            colors = [int(c) for c in tail.split()]
        except ValueError:
            raise ParseError(path, line_no, f"non-integer entry in {text!r}")
        if v < 0:
            raise ParseError(path, line_no, f"negative vertex {v}")
        if v in by_vertex:
            raise ParseError(path, line_no, f"vertex {v} listed twice")
        if not colors:
            raise ParseError(path, line_no, f"vertex {v} has an empty list")
        if any(c < 0 for c in colors):
            raise ParseError(path, line_no, f"negative color in {text!r}")
        by_vertex[v] = colors
    n = max(by_vertex) + 1
    missing = [v for v in range(n) if v not in by_vertex]
    if missing:
        raise ParseError(path, lines[-1][0], f"missing lists for vertices {missing}")
    top = 1 + max(max(c) for c in by_vertex.values())
    if universe is None:
        universe = top
    elif universe < top:
        raise ParseError(path, lines[0][0], f"universe {universe} below max color")
    return ListAssignment.from_sets(
        [by_vertex[v] for v in range(n)], universe=universe
    )


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def format_lists(lists: ListAssignment) -> str:
    lines = [
        f"{v}: " + " ".join(map(str, lists.colors(v))) for v in range(len(lists))
    ]
    return "\n".join(lines) + "\n"


class _Out:
    """Human or machine-readable (key=value per line) reporting."""

    def __init__(self, machine: bool) -> None:
        self.machine = machine

    def emit(self, key: str, value, human: str | None = None) -> None:
        if self.machine:
            print(f"{key}={value}")
        else:
            print(human if human is not None else f"{key}: {value}")

    def text(self, line: str) -> None:
        if not self.machine:
            print(line)


def _witness_text(witness: dict) -> str:
    return ",".join(f"{v}:{witness[v]}" for v in sorted(witness))


def _params(args) -> SeparationParams:
    return SeparationParams(args.k, args.t)


def _budget(args) -> Budget:
    return Budget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _cmd_solve(args, out: _Out) -> int:
    limits = _budget(args)
    g = parse_graph_file(args.graph)
    lists = parse_lists_file(args.lists, args.universe)
    result = solve(g, lists, Meter(limits))
    out.emit("verdict", result.verdict)
    out.emit("nodes", result.nodes_explored)
    if result.witness is not None:
        out.emit("witness", _witness_text(result.witness))
    return _EXIT[result.verdict]


def _cmd_check_choosable(args, out: _Out) -> int:
    limits = _budget(args)
    g = parse_graph_file(args.graph)
    verdict = decide_choosable(g, _params(args), limits)
    out.emit("verdict", verdict.verdict)
    out.emit("assignments_tested", verdict.assignments_tested)
    out.emit("nodes", verdict.nodes_used)
    if verdict.witness is not None and args.emit_witness:
        with open(args.emit_witness, "w", encoding="utf-8") as fh:
            fh.write(format_lists(verdict.witness))
        out.emit("witness_file", args.emit_witness)
    return _EXIT[verdict.verdict]


def _cmd_verify_witness(args, out: _Out) -> int:
    limits = _budget(args)
    g = parse_graph_file(args.graph)
    lists = parse_lists_file(args.lists, args.universe)
    p = _params(args)
    valid = is_valid_assignment(g, lists, p)
    out.emit("assignment_valid", str(valid.ok).lower())
    if not valid:
        out.emit("violation", valid.reason)
        out.emit("confirmed", "false")
        return EXIT_NEGATIVE
    confirmed = verify_not_choosable(g, lists, p, Meter(limits), valid)
    if confirmed is None:
        out.emit("confirmed", "unknown")
        return EXIT_RESOURCE
    out.emit("confirmed", str(confirmed).lower())
    return EXIT_OK if confirmed else EXIT_NEGATIVE


def _cmd_construct(args, out: _Out) -> int:
    if args.family == "book":
        inst = build_book(args.k, args.t)
    else:
        inst = build_gadget35()
    graph_text = format_graph(inst.graph)
    lists_text = format_lists(inst.lists)
    if args.out_graph:
        with open(args.out_graph, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
    if args.out_lists:
        with open(args.out_lists, "w", encoding="utf-8") as fh:
            fh.write(lists_text)
    out.emit("n", inst.graph.n)
    out.emit("m", inst.graph.m)
    out.emit("k", inst.params.k)
    out.emit("t", inst.params.t)
    out.emit("average_degree", inst.graph.average_degree())
    if inst.note:
        out.emit("note", inst.note)
    if not args.out_graph:
        out.text("-- graph --")
        print(graph_text, end="")
    if not args.out_lists:
        out.text("-- lists --")
        print(lists_text, end="")
    return EXIT_OK


def _cmd_mad(args, out: _Out) -> int:
    g = parse_graph_file(args.graph)
    result = mad_exact(g)
    out.emit("mad", result.value)
    out.emit("witness", ",".join(map(str, result.witness)))
    out.emit("flow_calls", result.flow_calls)
    return EXIT_OK


def _cmd_verify_sparse(args, out: _Out) -> int:
    report = verify_charge_algebra(args.k, args.t)
    out.emit("threshold", report.threshold)
    for check in report.checks:
        out.emit(
            f"check_{check.name}",
            "PASS" if check.passed else "FAIL",
            f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}",
        )
    out.emit("overall", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_find_reducible(args, out: _Out) -> int:
    g = parse_graph_file(args.graph)
    report = find_reducible_edges(g, _params(args))
    out.emit("edges", len(report.edges))
    for e in report.edges:
        out.emit(
            f"edge_{e.u}_{e.v}",
            f"degree_sum={e.degree_sum};common={e.common}",
            f"({e.u},{e.v}) degree sum {e.degree_sum} <= t + {e.common_capped}"
            f" (common neighbors: {e.common})",
        )
    return EXIT_OK


def _cmd_kernel(args, out: _Out) -> int:
    g = parse_graph_file(args.graph)
    result = greedy_kernel(g, args.k)
    out.emit("kernel_size", len(result.kernel_vertices))
    out.emit("kernel_vertices", ",".join(map(str, result.kernel_vertices)))
    out.emit("removal_order", ",".join(map(str, result.order)))
    out.emit("certified_colorable", str(result.empty).lower())
    return EXIT_OK


def _normalized(text: str) -> list[str]:
    return [" ".join(line.split()) for line in text.strip().splitlines()]


def _cmd_audit_tuples(args, out: _Out) -> int:
    report = full_audit()
    for row in report.rows:
        print(row.line)
    out.emit("tuples", len(report.rows))
    ok = report.passed
    if args.golden:
        with open(args.golden, "r", encoding="utf-8") as fh:
            golden = fh.read()
        matches = _normalized(golden) == _normalized(report.render())
        out.emit("golden_match", str(matches).lower())
        ok = ok and matches
    out.emit("overall", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_prop31_suite(args, out: _Out) -> int:
    report = run_edge_reduction_suite(
        count=args.count, seed=args.seed, max_n=args.max_n
    )
    out.emit("requested", report.requested)
    out.emit("hypothesis_met", report.hypothesis_met)
    out.emit("passed", report.passed)
    out.emit("critical_faults", len(report.critical_faults))
    out.emit("attempts", report.attempts)
    out.emit("overall", "PASS" if report.ok else "FAIL")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listsep",
        description="List coloring with separation: search, constructions, audits.",
    )
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human",
        help="machine prints one key=value record per result line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, *parents: argparse.ArgumentParser, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    # Argument groups shared through `parents=`. Subparsers share a parent's
    # argument objects, and set_defaults on one subparser would change the
    # default in all of them, so check-choosable's node budget has its own.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("graph")
    lists = argparse.ArgumentParser(add_help=False)
    lists.add_argument("lists")
    lists.add_argument("--universe", type=int, default=None)
    kt = argparse.ArgumentParser(add_help=False)
    kt.add_argument("--k", type=int, required=True)
    kt.add_argument("--t", type=int, required=True)

    def budget(max_nodes: int, **node_options) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument("--max-nodes", type=int, default=max_nodes, **node_options)
        flags.add_argument("--max-seconds", type=float, default=None)
        return flags

    unlimited = budget(sys.maxsize, help="default: no limit")

    add("solve", _cmd_solve, graph, lists, unlimited,
        help="decide list colorability of graph+lists")

    p = add("check-choosable", _cmd_check_choosable, graph, kt,
            budget(10_000_000), help="decide (k,t)-choosability")
    p.add_argument("--emit-witness", default=None, metavar="FILE")

    # kt before lists keeps --k and --t ahead of --universe in the usage line.
    add("verify-witness", _cmd_verify_witness, graph, kt, lists, unlimited,
        help="confirm lists form a valid (k,t)-assignment with no coloring")

    p = add("construct", _cmd_construct, help="emit a non-choosable instance")
    p.add_argument("family", choices=("book", "gadget35"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--out-graph", default=None, metavar="FILE")
    p.add_argument("--out-lists", default=None, metavar="FILE")

    add("mad", _cmd_mad, graph, help="exact maximum average degree with witness")

    add("verify-sparse", _cmd_verify_sparse, kt,
        help="audit the sparsity charge algebra at (k,t)")

    add("find-reducible", _cmd_find_reducible, graph, kt,
        help="edges with d(u)+d(v) <= t + min(common neighbors, 2)")

    p = add("kernel", _cmd_kernel, graph, help="peel vertices of degree < k")
    p.add_argument("--k", type=int, required=True)

    p = add("audit-tuples", _cmd_audit_tuples,
            help="regenerate and audit the degree-tuple table")
    p.add_argument("--golden", default=None, metavar="FILE")

    p = add("prop31-suite", _cmd_prop31_suite,
            help="randomized edge-reduction validation suite")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-n", type=int, default=7)

    return parser


# Built once per process: main is called in-process, many times over.
PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    out = _Out(args.format == "machine")
    try:
        return args.func(args, out)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Exit code 1 would read as a definitive negative verdict.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
