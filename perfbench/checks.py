"""Independent checks of one op's output against its known answer.

Every check runs outside the timed region. Where the check needs a search
(a witness's non-colourability, Mad by subset enumeration) it uses the
reference routines the repository keeps for that purpose; everything else
is recomputed here from the op's own edge list.
"""

from __future__ import annotations

import os
from fractions import Fraction

from listsep.assignments import ListAssignment, SeparationParams, is_proper_coloring
from listsep.choosability import verify_not_choosable
from listsep.graph import Graph
from listsep.sparsity import mad_bruteforce

# Exit codes of the CLI.
EXIT_OK, EXIT_NEGATIVE, EXIT_RESOURCE = 0, 1, 3

MAD_BRUTEFORCE_MAX_N = 16


class Outcome:
    """Checker's view of one op: failed (with a reason) and decided."""

    __slots__ = ("failed", "decided", "reason")

    def __init__(self, failed: bool, decided: bool, reason: str = "") -> None:
        self.failed = failed
        self.decided = decided
        self.reason = reason


def parse_machine(text: str) -> dict[str, str]:
    """`key=value` lines as printed by `--format machine`."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _adjacency(op) -> list[set[int]]:
    adj = op.cache.get("adj")
    if adj is None:
        adj = [set() for _ in range(op.n)]
        for u, v in op.edges:
            adj[u].add(v)
            adj[v].add(u)
        op.cache["adj"] = adj
    return adj


def _graph(op) -> Graph:
    g = op.cache.get("graph")
    if g is None:
        g = op.cache["graph"] = Graph(op.n, op.edges)
    return g


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _check_solve(op, code, kv) -> Outcome:
    verdict = kv.get("verdict")
    if verdict != op.answer:
        return Outcome(True, True, f"verdict {verdict}, expected {op.answer}")
    if code != (EXIT_OK if verdict == "SAT" else EXIT_NEGATIVE):
        return Outcome(True, True, f"exit code {code} for {verdict}")
    if verdict == "SAT":
        coloring = {}
        for item in kv.get("witness", "").split(","):
            v, _, c = item.partition(":")
            coloring[int(v)] = int(c)
        if sorted(coloring) != list(range(op.n)):
            return Outcome(True, True, "witness does not colour every vertex")
        if any(coloring[v] not in op.lists[v] for v in range(op.n)):
            return Outcome(True, True, "witness colour outside its list")
        lists = ListAssignment.from_sets(op.lists)
        if not is_proper_coloring(_graph(op), lists, coloring):
            return Outcome(True, True, "witness is not a proper colouring")
    return Outcome(False, True)


def _check_verify(op, code, kv) -> Outcome:
    confirmed = kv.get("confirmed") == "true"
    if confirmed != op.answer:
        return Outcome(True, True, f"confirmed={confirmed}, expected {op.answer}")
    if code != (EXIT_OK if confirmed else EXIT_NEGATIVE):
        return Outcome(True, True, f"exit code {code}")
    return Outcome(False, True)


def _read_lists(path: str) -> list[tuple[int, ...]]:
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            head, sep, tail = line.partition(":")
            if sep:
                rows[int(head)] = tuple(int(c) for c in tail.split())
    return [rows[v] for v in range(len(rows))]


def _check_decide(op, code, kv) -> Outcome:
    verdict = kv.get("verdict")
    expected_code = {"CHOOSABLE": EXIT_OK, "NOT_CHOOSABLE": EXIT_NEGATIVE,
                     "RESOURCE_LIMIT": EXIT_RESOURCE}.get(verdict)
    if expected_code is None or code != expected_code:
        return Outcome(True, False, f"verdict {verdict} with exit code {code}")
    if verdict == "RESOURCE_LIMIT":
        return Outcome(False, False)
    if op.answer is not None and verdict != op.answer:
        return Outcome(True, True, f"verdict {verdict}, expected {op.answer}")
    if verdict == "NOT_CHOOSABLE":
        if not os.path.exists(op.witness_path):
            return Outcome(True, True, "no witness written")
        lists = ListAssignment.from_sets(_read_lists(op.witness_path))
        if len(lists) != op.n or not verify_not_choosable(
            _graph(op), lists, SeparationParams(op.k, op.t)
        ):
            return Outcome(True, True, "witness fails verify_not_choosable")
    return Outcome(False, True)


def _check_mad(op, code, kv) -> Outcome:
    if code != EXIT_OK or "mad" not in kv:
        return Outcome(True, True, f"exit code {code}")
    value = Fraction(kv["mad"])
    witness = _ints(kv.get("witness", ""))
    adj = _adjacency(op)
    members = set(witness)
    if not witness or len(members) != len(witness) or not members <= set(range(op.n)):
        return Outcome(True, True, "witness is not a vertex set")
    twice_edges = sum(len(adj[v] & members) for v in witness)
    if Fraction(twice_edges, len(witness)) != value:
        return Outcome(True, True, "witness density differs from the value")
    if value < Fraction(2 * len(op.edges), op.n):
        return Outcome(True, True, "value below the whole graph's density")
    if op.answer is not None:
        expected = Fraction(*op.answer)
    elif op.n <= MAD_BRUTEFORCE_MAX_N:
        if "bruteforce" not in op.cache:
            op.cache["bruteforce"] = mad_bruteforce(_graph(op)).value
        expected = op.cache["bruteforce"]
    else:
        expected = value
    if value != expected:
        return Outcome(True, True, f"mad {value}, expected {expected}")
    return Outcome(False, True)


def _check_kernel(op, code, kv) -> Outcome:
    if code != EXIT_OK or "removal_order" not in kv:
        return Outcome(True, True, f"exit code {code}")
    adj = _adjacency(op)
    live = set(range(op.n))
    for v in _ints(kv["removal_order"]):
        if v not in live or len(adj[v] & live) >= op.k:
            return Outcome(True, True, f"removal of {v} does not replay")
        live.discard(v)
    kernel = _ints(kv.get("kernel_vertices", ""))
    if kernel != sorted(live) or int(kv.get("kernel_size", -1)) != len(live):
        return Outcome(True, True, "kernel differs from the replayed survivors")
    if any(len(adj[v] & live) < op.k for v in live):
        return Outcome(True, True, "kernel still has a vertex of degree < k")
    if kv.get("certified_colorable") != str(not live).lower():
        return Outcome(True, True, "certified_colorable disagrees with the kernel")
    return Outcome(False, True)


def _reducible_edges(op) -> dict[str, str]:
    found = op.cache.get("reducible")
    if found is None:
        adj = _adjacency(op)
        found = {}
        for u, v in op.edges:
            a, b = min(u, v), max(u, v)
            common = len(adj[a] & adj[b])
            dsum = len(adj[a]) + len(adj[b])
            if dsum <= op.t + min(common, 2):
                found[f"edge_{a}_{b}"] = f"degree_sum={dsum};common={common}"
        op.cache["reducible"] = found
    return found


def _check_reducible(op, code, kv) -> Outcome:
    if code != EXIT_OK:
        return Outcome(True, True, f"exit code {code}")
    expected = _reducible_edges(op)
    got = {key: value for key, value in kv.items() if key.startswith("edge_")}
    if got != expected or kv.get("edges") != str(len(expected)):
        return Outcome(True, True, "reducible edges differ from the recount")
    return Outcome(False, True)


_CHECKERS = {
    "solve": _check_solve,
    "verify-witness": _check_verify,
    "check-choosable": _check_decide,
    "mad": _check_mad,
    "kernel": _check_kernel,
    "find-reducible": _check_reducible,
}


def check(op, code: int | None, stdout: str, error: BaseException | None) -> Outcome:
    """Judge one op; a crash counts as failed and undecided."""
    if error is not None:
        return Outcome(True, False, f"raised {type(error).__name__}")
    try:
        return _CHECKERS[op.command](op, code, parse_machine(stdout))
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return Outcome(True, False, f"malformed output: {exc}")
