"""Seeded instance generation for the three benchmark workloads.

`build(workload, seed, workdir)` writes every input file the program will
read and returns the op list of one pass. Each op carries its known answer,
so the checker never has to trust the program it checks. The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from listsep import constructions
from listsep.graph import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    path_graph,
    petersen_graph,
)

# check-choosable budget for every `decide` op. It must stay above the
# node count of every known-answer op (K3,3 at (3,5) needs up to ~310k
# nodes depending on the labelling) so that only K5, the icosahedron and
# K4,4 hit it.
DECIDE_MAX_NODES = 400_000

# Inputs that crash today. They run once per run, outside the timed loop,
# so the defect shows in every run without counting as a benchmark op.
KNOWN_DEFECT_PATH_SOLVE = 1000
KNOWN_DEFECT_PATH_MAD = 2000


@dataclass
class Op:
    """One CLI call and everything needed to check its output."""

    label: str
    command: str                     # solve, verify-witness, check-choosable, ...
    argv: list[str]                  # arguments after `--format machine`
    n: int
    edges: list[tuple[int, int]]
    lists: list[tuple[int, ...]] | None = None
    k: int = 0
    t: int = 0
    # Known answer: "SAT"/"UNSAT" for solve, True/False for verify-witness,
    # a verdict for check-choosable (None where no verdict is known), a
    # (numerator, denominator) pair for mad where a closed form exists.
    answer: object = None
    heavy: bool = False              # left out of the self-test smoke pass
    witness_path: str | None = None  # where check-choosable writes a witness
    cache: dict = field(default_factory=dict)   # checker's per-op memo


class _Files:
    """Writes graph and list files under one directory, once per instance."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.count = 0

    def _path(self, stem: str, ext: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}_{stem}.{ext}")

    def graph(self, stem: str, n: int, edges) -> str:
        path = self._path(stem, "graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {len(edges)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        return path

    def lists(self, stem: str, lists) -> str:
        path = self._path(stem, "lists")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f"{v}: {' '.join(map(str, cols))}\n" for v, cols in enumerate(lists)
            )
        return path


def _relabel(n: int, edges, perm, lists=None):
    """Apply vertex map v -> perm[v]; edges come back sorted as (u<v)."""
    new_edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )
    new_lists = None
    if lists is not None:
        new_lists = [()] * n
        for v in range(n):
            new_lists[perm[v]] = lists[v]
    return new_edges, new_lists


def _random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _instance_lists(inst) -> list[tuple[int, ...]]:
    return [inst.lists.colors(v) for v in range(inst.graph.n)]


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def _gnp_edges(rng: random.Random, n: int, avg_degree: float):
    p = avg_degree / (n - 1)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


# --- refute -----------------------------------------------------------------

# 20 ops per pass. With at least 100 ops per run the tail is p90, which
# lands in the middle of the book(4,7) ops (ranks 2 and 3 of every pass),
# and the median lands among the colourable instances, whose cost the seed
# barely moves; the relabelings' cost does move with the seed (400 to
# 2,300 nodes).
GADGET_RELABELINGS = 2
BOOKS = ((2, 3), (3, 5), (3, 6), (4, 7))
COLOURABLE = 7
COLOURABLE_N = 300


def _gadget_role_major_perm(rng: random.Random) -> list[int]:
    """A labelling of gadget35 with the endpoints first and the interior
    grouped by gadget role (ring 2..5, hub) in a seeded role order, each
    group in a seeded copy order.

    Uniformly random labellings take anywhere from 1k to over 17M solver
    nodes, a tail that no run length can average out. This family keeps
    the fail-first tie order varied (about 400 to 2,300 nodes over 3,000
    seeds) while its cost stays bounded.
    """
    perm = [0] * 47
    ends = [0, 1]
    rng.shuffle(ends)
    perm[0], perm[1] = ends
    roles = list(range(5))
    rng.shuffle(roles)
    nxt = 2
    for role in roles:
        copies = list(range(9))
        rng.shuffle(copies)
        for copy in copies:
            perm[2 + 5 * copy + role] = nxt
            nxt += 1
    return perm


def _degree_plus_one_colourable(rng: random.Random, n: int):
    """Sparse random graph whose every list is one longer than the vertex's
    degree. Every partial colouring then extends, so the answer is SAT by
    construction and the solver never backtracks: exactly n nodes.

    Random lists around a planted colouring looked similar, but one seed in
    a few hundred sent the solver into a backtracking run of minutes.
    """
    edges = _gnp_edges(rng, n, 4.0)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    universe = max(degree) + 2
    lists = [tuple(sorted(rng.sample(range(universe), d + 1))) for d in degree]
    return edges, lists


def _solve_ops(files, label, n, edges, lists, k, t, answer, verify, heavy=False):
    gpath = files.graph(label, n, edges)
    lpath = files.lists(label, lists)
    ops = [
        Op(f"solve {label}", "solve", ["solve", gpath, lpath], n, edges, lists,
           k, t, answer, heavy)
    ]
    if verify:
        ops.append(
            Op(f"verify {label}", "verify-witness",
               ["verify-witness", gpath, lpath, "--k", str(k), "--t", str(t)],
               n, edges, lists, k, t, True, heavy)
        )
    return ops


def _refute(rng: random.Random, files: _Files) -> list[Op]:
    gadget = constructions.build_gadget35()
    g_edges = gadget.graph.edges()
    g_lists = _instance_lists(gadget)
    ops = _solve_ops(files, "gadget35", 47, g_edges, g_lists, 3, 5, "UNSAT",
                     verify=False, heavy=True)
    for i in range(GADGET_RELABELINGS):
        edges, lists = _relabel(47, g_edges, _gadget_role_major_perm(rng), g_lists)
        ops += _solve_ops(files, f"gadget35-r{i}", 47, edges, lists, 3, 5,
                          "UNSAT", verify=True)
    for k, t in BOOKS:
        # As constructed: a random labelling of book(4,7) takes 70x the
        # nodes of this one and would swamp the pass.
        book = constructions.build_book(k, t)
        ops += _solve_ops(files, f"book{k}{t}", book.graph.n, book.graph.edges(),
                          _instance_lists(book), k, t, "UNSAT", verify=True)
    for i in range(COLOURABLE):
        edges, lists = _degree_plus_one_colourable(rng, COLOURABLE_N)
        ops += _solve_ops(files, f"colourable{i}", COLOURABLE_N, edges, lists,
                          3, 3, "SAT", verify=False)
    return ops


# --- decide -----------------------------------------------------------------

def _decide_cases():
    """(label, graph, k, t, known verdict or None, labellings per pass)."""
    book23 = constructions.build_book(2, 3).graph
    return [
        ("C4", cycle_graph(4), 2, 2, "CHOOSABLE", 2),
        ("C5", cycle_graph(5), 2, 2, "NOT_CHOOSABLE", 2),
        ("C6", cycle_graph(6), 2, 2, "CHOOSABLE", 1),
        ("C7", cycle_graph(7), 2, 2, "NOT_CHOOSABLE", 2),
        ("K4", complete_graph(4), 3, 3, "NOT_CHOOSABLE", 1),
        ("K24", complete_bipartite_graph(2, 4), 2, 3, "NOT_CHOOSABLE", 2),
        ("petersen", petersen_graph(), 2, 3, "NOT_CHOOSABLE", 1),
        ("K33", complete_bipartite_graph(3, 3), 3, 5, "CHOOSABLE", 1),
        ("book23", book23, 2, 3, "NOT_CHOOSABLE", 1),
        # Out of budget today; any verdict must still check out.
        ("K5", complete_graph(5), 3, 5, None, 2),
        ("icosahedron", icosahedron_graph(), 3, 5, None, 2),
        ("K44", complete_bipartite_graph(4, 4), 3, 5, None, 2),
    ]


# Trees are decided by the kernel alone, in about 2 ms. There are 27 of
# them among the 46 ops of a pass, so the median op (rank 23.5) is always
# one of these and never an op whose cost swings with the labelling
# (Petersen: 251 to 246,675 nodes) or the cheapest non-tree ops (C5, C7,
# K4: about 2.5 ms, as they also write a witness).
DECIDE_TREES = tuple((n, k, t) for k, t in ((2, 2), (2, 3), (3, 5))
                     for n in range(6, 15))


def _decide_op(files, label, n, edges, k, t, answer, heavy):
    gpath = files.graph(label, n, edges)
    wpath = os.path.join(files.workdir, f"witness_{label}.lists")
    argv = ["check-choosable", gpath, "--k", str(k), "--t", str(t),
            "--max-nodes", str(DECIDE_MAX_NODES), "--emit-witness", wpath]
    return Op(f"decide {label}", "check-choosable", argv, n, edges, None, k, t,
              answer, heavy, wpath)


def _decide(rng: random.Random, files: _Files) -> list[Op]:
    ops = []
    for label, g, k, t, answer, copies in _decide_cases():
        for i in range(copies):
            # The graphs that hit the budget keep their constructed labels:
            # they are the p90 of every run, and a random labelling moved
            # the icosahedron's and K4,4's cost by up to 25%.
            perm = _random_perm(rng, g.n) if answer else list(range(g.n))
            edges, _ = _relabel(g.n, g.edges(), perm)
            heavy = answer is None or label == "K33"
            ops.append(_decide_op(files, f"{label}-r{i}", g.n, edges, k, t,
                                  answer, heavy))
    for i, (n, k, t) in enumerate(DECIDE_TREES):
        edges = _random_tree_edges(rng, n)
        edges, _ = _relabel(n, edges, _random_perm(rng, n))
        ops.append(_decide_op(files, f"tree{i}", n, edges, k, t, "CHOOSABLE",
                              False))
    return ops


# --- sparse -----------------------------------------------------------------

# 41 ops per pass: five of about 1 s (four large peels and the path-300
# Mad), seven of 40 to 400 ms (the larger Mads, one large find-reducible) and
# 29 small ones. The p90 tail (rank 4.1 of a pass) then lands inside the
# first group and the median inside the last. The peel-only G(n,p) sizes
# fill the 4 to 11 ms band the median falls in, so that neighbouring ops
# there differ by about 5% rather than 10%.
GNP_SIZES = (100, 200, 300, 400)
GNP_PEEL_ONLY_SIZES = (150, 250, 350)
GNP_AVG_DEGREE = 8.0
SMALL_MAD_SIZES = (10, 12, 14, 16)


def _sparse_ops(files, label, n, edges, mad=None, kernel_k=None, reducible=None,
                heavy=False, mad_answer=None):
    gpath = files.graph(label, n, edges)
    ops = []
    if mad:
        ops.append(Op(f"mad {label}", "mad", ["mad", gpath], n, edges,
                      answer=mad_answer, heavy=heavy))
    if kernel_k is not None:
        ops.append(Op(f"kernel {label}", "kernel",
                      ["kernel", gpath, "--k", str(kernel_k)], n, edges,
                      k=kernel_k, heavy=heavy))
    if reducible is not None:
        k, t = reducible
        ops.append(Op(f"reducible {label}", "find-reducible",
                      ["find-reducible", gpath, "--k", str(k), "--t", str(t)],
                      n, edges, k=k, t=t, heavy=heavy))
    return ops


def _sparse(rng: random.Random, files: _Files) -> list[Op]:
    ops = []
    for n in GNP_SIZES:
        ops += _sparse_ops(files, f"gnp{n}", n, _gnp_edges(rng, n, GNP_AVG_DEGREE),
                           mad=True, kernel_k=5, reducible=(3, 9))
    for n in GNP_PEEL_ONLY_SIZES:
        ops += _sparse_ops(files, f"gnp{n}", n, _gnp_edges(rng, n, GNP_AVG_DEGREE),
                           kernel_k=5, reducible=(3, 9))
    for rows, cols in ((10, 10), (20, 20)):
        n = rows * cols
        edges, _ = _relabel(n, _grid_edges(rows, cols), _random_perm(rng, n))
        ops += _sparse_ops(files, f"grid{rows}x{cols}", n, edges, mad=rows == 20,
                           kernel_k=3, reducible=(3, 5))
    for n in (50, 150, 300):
        ops += _sparse_ops(files, f"tree{n}", n, _random_tree_edges(rng, n),
                           mad=n != 150, kernel_k=2, reducible=(3, 4),
                           mad_answer=(2 * (n - 1), n))
    for n in SMALL_MAD_SIZES:
        ops += _sparse_ops(files, f"small{n}", n, _gnp_edges(rng, n, 0.4 * (n - 1)),
                           mad=True)
    ops += _sparse_ops(files, "path300", 300, path_graph(300).edges(), mad=True,
                       heavy=True, mad_answer=(2 * 299, 300))
    # The large inputs keep their natural labels: the peel's cost depends on
    # the labelling, and a seed should not move the largest ops of a pass.
    for rows, cols in ((80, 80), (90, 90)):
        ops += _sparse_ops(files, f"grid{rows}x{cols}", rows * cols,
                           _grid_edges(rows, cols), kernel_k=3, heavy=True,
                           reducible=(3, 5) if rows == 90 else None)
    for n in (7000, 8000):
        ops += _sparse_ops(files, f"path{n}", n, path_graph(n).edges(), kernel_k=2,
                           heavy=True)
    return ops


_BUILDERS = {"refute": _refute, "decide": _decide, "sparse": _sparse}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's files for `seed` under workdir; return its ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Files(workdir))


def known_defect_ops(workload: str, workdir: str) -> list[Op]:
    """Ops on inputs that crash today (RecursionError); see run.py."""
    files = _Files(workdir)
    if workload == "refute":
        n = KNOWN_DEFECT_PATH_SOLVE
        lists = [(0, 1, 2)] * n
        return _solve_ops(files, f"path{n}", n, path_graph(n).edges(), lists,
                          3, 3, "SAT", verify=False)
    if workload == "sparse":
        n = KNOWN_DEFECT_PATH_MAD
        return _sparse_ops(files, f"path{n}", n, path_graph(n).edges(), mad=True,
                           mad_answer=(2 * (n - 1), n))
    return []
