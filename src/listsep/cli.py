"""Command-line entry point: file parsing, subcommand dispatch, exit codes.

Exit codes: 0 success/SAT/PASS, 1 definitive negative (UNSAT, NOT_CHOOSABLE,
FAIL), 2 usage or parse error, 3 resource limit (the node or time budget, or
memory), 4 internal error.

Graph files: first non-comment line "n m", then m lines "u v" with 0-based
ids; blank lines and lines starting with "#" are ignored. List files: one
line per vertex, "v: c1 c2 c3 ...", with colors nonnegative integers, renamed
by rank when read and printed under their own names; --universe C only
requires every color to be below C, and nothing about it is inferred or
stored.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from operator import itemgetter

from .assignments import ListAssignment, SeparationParams, is_valid_assignment
from .budget import RESOURCE_LIMIT, Meter
from .choosability import (
    CHOOSABLE,
    DEFAULT_MAX_NODES,
    NOT_CHOOSABLE,
    decide_choosable,
    verify_not_choosable,
)
from .constructions import build_book, build_gadget35
from .graph import Graph, greedy_kernel, short_number
from .reducibility import DEFAULT_SEED, find_reducible_edges, run_edge_reduction_suite
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


# An error message quotes at most this many characters of the input line.
_ECHO_MAX = 40


def _echo(text: str) -> str:
    """text quoted for an error message, cut to a short prefix."""
    if len(text) <= _ECHO_MAX:
        return repr(text)
    return repr(text[:_ECHO_MAX]) + "..."


def _int_error(tokens: list[str], what: str, text: str) -> str:
    """Why int() refused one of the tokens of the line text.

    int() reads an optional sign and decimal digits, but no more digits than
    sys.get_int_max_str_digits(); a token of that form it refused is an
    integer with too many digits.
    """
    for token in tokens:
        try:
            int(token)
        except ValueError:
            digits = token[1:] if token[:1] in ("+", "-") else token
            if digits.isdecimal():
                return "number has too many digits"
            break
    return f"non-integer {what} in {_echo(text)}"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _content_lines(text: str) -> list[tuple[int, str]]:
    return [(i, line) for i, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and line[0] != "#"]


# A graph file in the plain form, the one format_graph writes: every line,
# the header too, is two unsigned ASCII decimals, one space and a newline
# (text mode reads \r\n and a lone \r as \n). The possessive quantifiers
# keep no backtracking state, so a fullmatch of a file of any length takes
# constant memory.
_PLAIN = re.compile(r"(?:[0-9]++ [0-9]++\n)++")


def parse_graph_file(path: str) -> Graph:
    """The graph of a graph file.

    A file in the plain form is read in bulk; any other file, and a plain
    one that fails a check, is read line by line. Both build the same graph
    and the bulk reader reports nothing, so every error comes from the line
    reader, at its line.
    """
    text = _read_text(path)
    if _PLAIN.fullmatch(text):
        try:
            # JSON refuses leading zeros and numbers past
            # sys.get_int_max_str_digits() digits, and Graph a bad edge or
            # vertex count; the line reader reads the first and says where
            # the others are.
            ids = json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
            if len(ids) == 2 * ids[1] + 2:
                it = iter(ids)
                n, _ = next(it), next(it)
                return Graph(n, zip(it, it))
        except ValueError:
            pass
    return _graph_by_lines(path, text)


def _graph_by_lines(path: str, text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(path, 1, "missing 'n m' header")
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ParseError(path, line_no, f"expected 'n m', got {_echo(header)}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        # int() refuses strings past sys.get_int_max_str_digits() digits.
        raise ParseError(path, line_no, "header number has too many digits") from None
    if len(lines) - 1 != m:
        raise ParseError(path, line_no, f"header announces {short_number(m)} edges,"
                         f" file has {len(lines) - 1}")

    def pairs():
        # Graph checks range, self-loops and duplicates as it consumes each
        # pair; line_no is the line of the pair being read or checked.
        nonlocal line_no
        for line_no, text in lines[1:]:
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'u v', got {_echo(text)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(_int_error(parts, "vertex", text)) from None
            yield u, v

    try:
        return Graph(n, pairs())
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None


# A list file in the plain form, the one format_lists writes: every line is
# an unsigned ASCII decimal and a colon, then one or more colors, each one
# space and an unsigned ASCII decimal, then a newline.
_PLAIN_LISTS = re.compile(r"(?:[0-9]++:(?: [0-9]++)++\n)++")


def parse_lists_file(
    path: str, universe: int | None = None
) -> tuple[ListAssignment, tuple[int, ...]]:
    """The lists of a list file, and the file's name of each color.

    Colors are renamed by rank: the file's distinct colors, in increasing
    order, become 0, 1, 2, ..., so a mask is as wide as the number of
    colors, not as the largest one. names[c] is the file's color that
    became c. The renaming keeps every list size, union and intersection,
    and the order of the colors, so verdicts, node counts and witnesses
    (read through `names`) are those of the file's own colors.

    A file in the plain form whose lines list the vertices 0, 1, 2, ... in
    order is read in bulk; any other file, and a plain one that fails a
    check, is read line by line. As for graph files, both give the same
    lists and every error comes from the line reader, at its line.
    """
    text = _read_text(path)
    if _PLAIN_LISTS.fullmatch(text) and (universe is None or universe >= 1):
        try:
            # Each row is [v, c1, c2, ...]. JSON refuses leading zeros and
            # numbers past sys.get_int_max_str_digits() digits; the line
            # reader reads the first and says where the second is.
            rows = json.loads("[[" + text[:-1].replace(":", "").replace(" ", ",")
                              .replace("\n", "],[") + "]]")
        except ValueError:
            pass
        else:
            if list(map(itemgetter(0), rows)) == list(range(len(rows))):
                lists = [row[1:] for row in rows]
                if universe is None or max(map(max, lists)) < universe:
                    return _rank_colors(lists)
    return _lists_by_lines(path, text, universe)


def _lists_by_lines(
    path: str, text: str, universe: int | None
) -> tuple[ListAssignment, tuple[int, ...]]:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(path, 1, "empty list file")
    if universe is not None and universe < 1:
        raise ParseError(path, lines[0][0], "universe must contain at least one color")
    # n lists cover the vertices 0..n-1; a list stays None until its line is read.
    n = len(lines)
    lists: list[list[int] | None] = [None] * n
    for line_no, text in lines:
        head, sep, tail = text.partition(":")
        if not sep:
            raise ParseError(path, line_no, f"expected 'v: colors', got {_echo(text)}")
        try:
            v = int(head.strip())
            colors = list(map(int, tail.split()))
        except ValueError:
            reason = _int_error([head.strip(), *tail.split()], "entry", text)
            raise ParseError(path, line_no, reason) from None
        if v < 0:
            raise ParseError(path, line_no, f"negative vertex {short_number(v)}")
        if v >= n:
            raise ParseError(
                path, line_no, f"vertex {short_number(v)} out of range for {n} lists"
            )
        if lists[v] is not None:
            raise ParseError(path, line_no, f"vertex {v} listed twice")
        if not colors:
            raise ParseError(path, line_no, f"vertex {v} has an empty list")
        if universe is not None and max(colors) >= universe:
            raise ParseError(
                path, line_no,
                f"vertex {v} uses a color >= universe {short_number(universe)}",
            )
        if "-" in tail and min(colors) < 0:    # only a "-" makes an int negative
            raise ParseError(
                path, line_no, f"negative color {short_number(min(colors))}"
            )
        lists[v] = colors
    return _rank_colors(lists)


def _rank_colors(lists: list[list[int]]) -> tuple[ListAssignment, tuple[int, ...]]:
    """The lists' masks with colors renamed by rank, and each rank's color."""
    names = sorted(set().union(*lists))
    rank = {c: i for i, c in enumerate(names)}
    masks = []
    for colors in lists:
        m = 0
        for c in colors:
            m |= 1 << rank[c]
        masks.append(m)
    return ListAssignment(masks), tuple(names)


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


def _meter(args) -> Meter:
    """The command's budget, made once its input files are read."""
    return Meter(args.max_nodes, args.max_seconds)


def _cmd_solve(args, out: _Out) -> int:
    g = parse_graph_file(args.graph)
    lists, names = parse_lists_file(args.lists, args.universe)
    result = solve(g, lists, _meter(args))
    out.emit("verdict", result.verdict)
    out.emit("nodes", result.nodes_explored)
    if result.witness is not None:
        witness = {v: names[c] for v, c in result.witness.items()}
        out.emit("witness", _witness_text(witness))
    return _EXIT[result.verdict]


def _cmd_check_choosable(args, out: _Out) -> int:
    g = parse_graph_file(args.graph)
    verdict = decide_choosable(g, _params(args), _meter(args))
    # Written before any output: an unwritable path prints no verdict.
    path = args.emit_witness if verdict.witness is not None else None
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_lists(verdict.witness))
    out.emit("verdict", verdict.verdict)
    out.emit("assignments_tested", verdict.assignments_tested)
    out.emit("solves", verdict.solves)
    out.emit("nodes", verdict.nodes_used)
    if verdict.certificate is not None:
        out.emit("certificate", "alon-tarsi")
    if path:
        out.emit("witness_file", path)
    return _EXIT[verdict.verdict]


def _cmd_verify_witness(args, out: _Out) -> int:
    g = parse_graph_file(args.graph)
    # Renaming colors keeps validity and colorability, so names go unused.
    lists, _ = parse_lists_file(args.lists, args.universe)
    meter = _meter(args)    # a bad budget is rejected before any output
    p = _params(args)
    valid = is_valid_assignment(g, lists, p)
    out.emit("assignment_valid", str(valid.ok).lower())
    if not valid:
        out.emit("violation", valid.reason)
        out.emit("confirmed", "false")
        return EXIT_NEGATIVE
    confirmed = verify_not_choosable(g, lists, p, meter, valid)
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
    edges = find_reducible_edges(g, _params(args))
    out.emit("edges", len(edges))
    for e in edges:
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
    # Read first: a missing golden file is a usage error with nothing printed.
    golden = _read_text(args.golden) if args.golden else None
    report = full_audit()
    for row in report.rows:
        print(row.line)
    out.emit("tuples", len(report.rows))
    ok = report.passed
    if golden is not None:
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
            budget(DEFAULT_MAX_NODES), help="decide (k,t)-choosability")
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
    except MemoryError:
        # Running out of memory is a resource limit, not a bug in listsep.
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        # Exit code 1 would read as a definitive negative verdict.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
