"""(k,t)-choosability decision by canonical adversarial enumeration.

The decision reduces to the k-core first: vertices of degree < k are always
greedily colorable, and a core witness extends to the whole graph with fresh
disjoint lists. On the core, every non-choosable graph has a witness that is
"tight" on some induced subgraph H of minimum degree >= k:

  * every list satisfies k <= |L(v)| <= min(d_H(v), t)   (bigger lists peel),
  * every color of L(v) appears in some neighbor list    (else v never blocks),
  * in the union regime no color is removable while keeping the assignment
    valid (supersets only help the colorer).

The enumerator therefore walks induced subgraphs of the core (largest first),
list-size profiles (per edge |L(u)|+|L(v)| >= t is necessary for the union
bound), and canonical list contents in which colors are numbered by first use
scanning vertices in id order, so each assignment is tested once per color
permutation class. The first failing assignment found in this fixed order is
returned as the witness, padded back to the full graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .assignments import ListAssignment, SeparationParams, is_valid_assignment
from .budget import RESOURCE_LIMIT, Budget, BudgetExceeded, Meter
from .graph import Graph, induced_subgraph
from .reducibility import greedy_kernel
from .solver import UNSAT, solve

CHOOSABLE = "CHOOSABLE"
NOT_CHOOSABLE = "NOT_CHOOSABLE"


@dataclass(frozen=True)
class ChoosabilityVerdict:
    verdict: str
    witness: ListAssignment | None   # present iff NOT_CHOOSABLE
    assignments_tested: int
    nodes_used: int


def _candidate_sets(used: int, size: int) -> list[tuple[int, ...]]:
    """All canonical color sets of a given size: any old colors plus a block
    of consecutive fresh ones, ordered lexicographically."""
    out = []
    for fresh in range(size + 1):
        old_needed = size - fresh
        if old_needed > used:
            continue
        new_block = tuple(range(used, used + fresh))
        for old in itertools.combinations(range(used), old_needed):
            out.append(old + new_block)
    out.sort()
    return out


def _tight_assignments(h: Graph, p: SeparationParams, meter: Meter):
    """Yield (masks, universe) for canonical tight assignments on h.

    h must be nonempty with minimum degree >= k. Branches with a "safe"
    vertex (one owning a color no neighbor list contains) or, in the union
    regime, a removable color, are pruned: the reduced witness lives on a
    smaller subgraph or assignment that is enumerated separately.
    """
    n = h.n
    k, t = p.k, p.t
    union = p.regime == "union"
    if union:
        size_ranges = [range(k, min(h.degree(v), t) + 1) for v in range(n)]
    else:
        size_ranges = [range(k, k + 1)] * n
    edges = h.edges()
    nbrs = [h.neighbors(v) for v in range(n)]
    earlier = [[u for u in nbrs[v] if u < v] for v in range(n)]
    # ready[i]: vertices whose whole neighborhood is assigned once i is.
    ready: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        ready[max(w, *nbrs[w])].append(w)

    masks = [0] * n

    def prunable(i: int) -> bool:
        for w in ready[i]:
            nbr_union = 0
            for u in nbrs[w]:
                nbr_union |= masks[u]
            if masks[w] & ~nbr_union:
                return True
            if union and masks[w].bit_count() > k:
                mw = masks[w]
                rest = mw
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    trimmed = mw & ~bit
                    if all(
                        (trimmed | masks[u]).bit_count() >= t for u in nbrs[w]
                    ):
                        return True
        return False

    for sizes in itertools.product(*size_ranges):
        if union and any(sizes[u] + sizes[v] < t for u, v in edges):
            continue
        # A depth-first walk without recursion: levels[i] holds an iterator
        # over the candidates left for vertex i and the number of colors in
        # use before it. Entries of masks past the top level are stale, but
        # neither the checks nor prunable(i) read beyond masks[i].
        levels = [(iter(_candidate_sets(0, sizes[0])), 0)]
        while levels:
            i = len(levels) - 1
            candidates, before = levels[i]
            for cols in candidates:
                meter.spend(1)
                m = 0
                for c in cols:
                    m |= 1 << c
                ok = True
                for u in earlier[i]:
                    if union:
                        if (m | masks[u]).bit_count() < t:
                            ok = False
                            break
                    elif (m & masks[u]).bit_count() > t:
                        ok = False
                        break
                if not ok:
                    continue
                masks[i] = m
                if not prunable(i):
                    break
            else:
                levels.pop()
                continue
            now = max(before, m.bit_length())
            if i + 1 == n:
                yield tuple(masks), now
            else:
                levels.append((iter(_candidate_sets(now, sizes[i + 1])), now))


def _pad_witness(
    g: Graph,
    kept: tuple[int, ...],
    masks: tuple[int, ...],
    universe: int,
    p: SeparationParams,
) -> ListAssignment:
    """Extend a subgraph witness to all of g with fresh disjoint lists.

    Fresh lists of size t (union regime; size k in the intersection regime)
    satisfy every constraint they touch, and any coloring of g restricts to a
    coloring of the subgraph, so the padded assignment stays unsolvable.
    """
    block = p.t if p.regime == "union" else p.k
    local = {v: i for i, v in enumerate(kept)}
    full = []
    nxt = universe
    for v in range(g.n):
        if v in local:
            full.append(masks[local[v]])
        else:
            full.append(((1 << block) - 1) << nxt)
            nxt += block
    return ListAssignment(full, nxt)


def decide_choosable(
    g: Graph, p: SeparationParams, limits: Budget = Budget()
) -> ChoosabilityVerdict:
    """Decide whether g is (k,t)-choosable.

    Exhaustive within the documented enumeration (sensible for n <= 8,
    k <= 3, t <= 6); larger inputs should set limits and may receive
    RESOURCE_LIMIT. The NOT_CHOOSABLE witness is the first one in the fixed
    enumeration order, so verdicts and witnesses are deterministic.
    """
    meter = Meter(limits)
    core = greedy_kernel(g, p.k)
    if core.empty:
        return ChoosabilityVerdict(CHOOSABLE, None, 0, 0)
    core_ids = core.kernel_vertices
    tested = 0
    try:
        for size in range(len(core_ids), 0, -1):
            for subset in itertools.combinations(core_ids, size):
                h, kept = induced_subgraph(g, subset)
                if min(h.degree(v) for v in range(h.n)) < p.k:
                    continue
                for masks, universe in _tight_assignments(h, p, meter):
                    lists = ListAssignment(list(masks), universe)
                    tested += 1
                    res = solve(h, lists, meter)
                    if res.verdict == RESOURCE_LIMIT:
                        raise BudgetExceeded
                    if res.verdict == UNSAT:
                        witness = _pad_witness(g, kept, masks, universe, p)
                        return ChoosabilityVerdict(
                            NOT_CHOOSABLE, witness, tested, meter.nodes
                        )
    except BudgetExceeded:
        return ChoosabilityVerdict(RESOURCE_LIMIT, None, tested, meter.nodes)
    return ChoosabilityVerdict(CHOOSABLE, None, tested, meter.nodes)


def verify_not_choosable(
    g: Graph, lists: ListAssignment, p: SeparationParams
) -> bool:
    """True iff `lists` is a valid (k,t)-assignment of g with no coloring."""
    if not is_valid_assignment(g, lists, p):
        return False
    return solve(g, lists).verdict == UNSAT
