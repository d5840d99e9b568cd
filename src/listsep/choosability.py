"""(k,t)-choosability decision by canonical adversarial enumeration.

The decision reduces to the k-core first: vertices of degree < k are always
greedily colorable, and a core witness extends to the whole graph with fresh
lists. On the core, every non-choosable graph has a witness that is
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

An assignment is solved only when none of the last few proper colorings
found on its subgraph colors it from its lists; such a coloring certifies
it as it stands. So every NOT_CHOOSABLE verdict and witness is that of
solving each assignment, and node counts can only fall.

Before any of that, the core gets one try at an Alon-Tarsi certificate
(`alon_tarsi`), which proves it CHOOSABLE without enumerating anything.
It fires only when the answer is CHOOSABLE, so a NOT_CHOOSABLE verdict and
its witness are those of the enumeration; a decision that ran out of its
budget may become CHOOSABLE.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .alon_tarsi import find_certificate
from .assignments import (
    CheckResult,
    Coloring,
    ListAssignment,
    SeparationParams,
    is_valid_assignment,
)
from .budget import RESOURCE_LIMIT, BudgetExceeded, Meter
from .graph import Graph, greedy_kernel, induced_subgraph
from .solver import SAT, UNSAT, solve

CHOOSABLE = "CHOOSABLE"
NOT_CHOOSABLE = "NOT_CHOOSABLE"

# The most proper colorings of one subgraph kept to try on its next tight
# assignments. At (3,5), K3,3 with its Alon-Tarsi certificate stubbed out
# then solves 18 of the 216 it tests (with the certificate it tests none),
# and the icosahedron 152 of the 2,576 it reaches in 400,000 nodes (one
# coloring: 90 and 656; 64: 18 and 100).
POOL_SIZE = 16

# The node limit of a decision made without a meter.
DEFAULT_MAX_NODES = 10_000_000


@dataclass(frozen=True)
class ChoosabilityVerdict:
    verdict: str
    witness: ListAssignment | None   # present iff NOT_CHOOSABLE
    assignments_tested: int
    nodes_used: int
    solves: int    # assignments solved, not fitted by a pooled coloring
    # The Alon-Tarsi exponent vectors that proved a CHOOSABLE verdict, one
    # entry per k-core vertex in increasing id order; None if it was
    # enumerated.
    certificate: tuple[tuple[int, ...], ...] | None = None


class _CandidateTable(dict):
    """The canonical color sets of `size` colors with `used` colors taken:
    any old colors plus a block of consecutive fresh ones. `masks` holds
    them as bitmasks in the lexicographic order of their sorted color
    tuples, bit j of has[x] is set iff masks[j] holds color x, and `full`
    has a bit for every mask.

    table[f, c] is the bitset over the indices of masks of those m with
    |m & f| <= c, computed on first use by bit-sliced counting: within[j]
    is the set of masks that hold at most j of the colors of f seen so
    far, updated for each color x with has[x]. It takes O(|f| * c)
    operations on len(masks)-bit integers, none per mask.

    `trimmed` is the enumerator's memo of unions of such bitsets:
    trimmed[f, bits, c] is the OR of table[f ^ x, c] over the colors x of
    bits, a subset of f.

    A table and both memos depend on their keys alone, so `_tables` builds
    each table once per process and every decision shares it; `_Tables`
    gives the memory that keeps.
    """

    __slots__ = ("masks", "has", "full", "trimmed")

    def __init__(self, used: int, size: int) -> None:
        super().__init__()
        sets = []
        for fresh in range(max(0, size - used), size + 1):
            block = tuple(range(used, used + fresh))
            olds = itertools.combinations(range(used), size - fresh)
            sets += (old + block for old in olds)
        sets.sort()
        masks = self.masks = []
        has = self.has = [0] * (used + size)
        for j, s in enumerate(sets):
            bit, m = 1 << j, 0
            for x in s:
                m |= 1 << x
                has[x] |= bit
            masks.append(m)
        self.full = (1 << len(masks)) - 1
        self.trimmed: dict[tuple[int, int, int], int] = {}

    def __missing__(self, key: tuple[int, int]) -> int:
        f, c = key
        if c < 0:
            return 0
        has = self.has
        within = [self.full] * (c + 1)
        seen = 0
        while f:
            low = f & -f
            f ^= low
            x = low.bit_length() - 1
            if x >= len(has):
                break    # no mask holds x or any color above it
            hx = has[x]
            # within[j] with j >= seen is still every mask.
            for j in range(min(c, seen), 0, -1):
                within[j] = within[j] & ~hx | within[j - 1] & hx
            within[0] &= ~hx
            seen += 1
        bits = self[key] = within[c]
        return bits

    def trim(self, f: int, bits: int, c: int) -> int:
        """trimmed[f, bits, c], computed on first use."""
        key = f, bits, c
        cut = self.trimmed.get(key)
        if cut is None:
            cut = 0
            while bits:
                low = bits & -bits
                bits ^= low
                cut |= self[f ^ low, c]
            self.trimmed[key] = cut
        return cut


class _Tables(dict):
    """(used, size) -> its `_CandidateTable`, built on first use and kept.

    Nothing is dropped. A table holds one mask per set of at most `size`
    of its `used` old colors, and its memos one bitset per key asked.
    Deciding 2,000 seeded graphs (n 4-8, k 2-3, t from k to 2k + 3, a
    200,000-node meter each) in one process left 110 tables with 2.06M
    masks, 20,776 bitsets and 13,024 trimmed unions, about 88 MB (72 MB of
    it masks) under 64-bit Python 3.11; peak RSS was 152 MB, against
    126 MB when each decision built its own tables.
    """

    __slots__ = ()

    def __missing__(self, key: tuple[int, int]) -> _CandidateTable:
        table = self[key] = _CandidateTable(*key)
        return table


# Every candidate table the process has built; `_tight_assignments` reads it.
_tables = _Tables()


def _removable_colors(m: int, lists: list[int], t: int) -> int:
    """The colors of m that can be dropped while m still reaches t in union
    with each of `lists` (it must reach t with each): those in every list
    whose union with m is exactly t."""
    keep = m
    for f in lists:
        if (m | f).bit_count() == t:
            keep &= f
    return keep


class _Plan(NamedTuple):
    """The tests of vertex i's enumeration level under one size profile;
    see `_tight_assignments`. With p = i - 1 the parent vertex, `needs`,
    `trims`, `cuts` and `own` read no list at or above p. The p_ fields
    hold the terms that read p's list, with p left out of every `others`."""

    size: int    # of the level's lists
    needs: list[tuple[int, tuple[int, ...]]]    # need-only ready w, others
    trims: list[tuple[int, tuple[int, ...], int]]    # (w, others, c)
    cuts: list[tuple[int, int]]    # (earlier neighbor u, c)
    own: tuple[int, ...] | None    # i's neighbors but p, if i is ready
    p_needs: list[tuple[int, tuple[int, ...]]]    # needs whose others hold p
    p_trims: list[tuple[int, tuple[int, ...], int]]    # likewise trims
    p_need: tuple[int, ...] | None    # p's others, if p is need-only ready
    p_trim: tuple[tuple[int, ...], int] | None    # (others, c) of p
    p_cut: int | None    # c of the cut on p's list, if it can fail
    p_own: bool    # i is ready and p is one of its neighbors
    removable: tuple[int, ...] | None    # i's neighbors if ready, size > k


def _tight_assignments(h: Graph, p: SeparationParams, meter: Meter):
    """Yield the masks of each canonical tight assignment on h, as a tuple.

    h must be nonempty with minimum degree >= k. Branches with a "safe"
    vertex (one owning a color no neighbor list contains) or, in the union
    regime, a removable color, are pruned: the reduced witness lives on a
    smaller subgraph or assignment that is enumerated separately.

    A level with `used` colors taken below it reads the `_CandidateTable`
    of (used, size) from `_tables`, which every decision of the process
    shares, so each bitset table[f, c] is computed once per process. Every
    size profile drawn and every candidate tried is one node, but a level
    tests its candidates in bulk: on entry it ANDs the table's bitsets into
    the set of those that pass, the walk jumps from one of them to the next
    and charges the meter for the candidates it skipped, and only i's own
    removable-color test runs per candidate.
    Which tests a level runs depends only on the size profile, so each
    profile plans its levels once; a level that no candidate passes is
    charged all its candidates at once and never pushed.
    Level i is entered once per candidate that its parent p = i - 1 takes,
    but the lists below p stay the same while p's level is on the walk. So
    the plan splits i's tests by whether they read p's list: the part that
    does not is folded once per position of p's level and per `used`, and
    kept in a dict on p's level entry that is dropped with it. Entering
    level i then reads p's list only: at most one cut, the need and cover
    terms that name p, and the trims of p itself.
    """
    n = h.n
    k, t = p.k, p.t
    union = p.regime == "union"
    if union:
        size_ranges = [range(k, min(h.degree(v), t) + 1) for v in range(n)]
    else:
        size_ranges = [range(k, k + 1)] * n
    # In the intersection regime (t < k) every list has k colors, so no
    # size exceeds k and every edge's sizes sum to 2k > t: the size tests
    # below pass over that regime without naming it.
    edges = h.edges()
    nbrs = h.adjacency
    earlier = [[u for u in nbrs[v] if u < v] for v in range(n)]
    # checks[i]: (w, w's neighbors but i) for each w that is ready once i
    # is assigned: its whole neighborhood is then assigned.
    checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for w in range(n):
        i = max(w, *nbrs[w])
        checks[i].append((w, tuple(u for u in nbrs[w] if u != i)))

    def plan(i: int, sizes: tuple[int, ...]) -> _Plan:
        """The tests of vertex i's level under the profile `sizes`.

        A ready w != i turns prunable iff m misses one of w's colors that
        no other neighbor has, or m reaches t with w's list less a color
        removable against the others. Such a trimmed list tr has
        |tr| = sizes[w] - 1, and |tr | m| >= t iff |m & tr| <= c =
        |tr| + size - t. Only a w with sizes[w] > k can have a removable
        color, and with c < 0 no m reaches t with tr (c < 0 filters
        nothing; it does not kill the level). So those w are need-only,
        and the rest are trimmed, as (w, others, c).

        m meets an earlier neighbor list f iff |m & f| <= c (c = t in the
        intersection regime, |m| + |f| - t in the union regime). `cuts`
        holds the (u, c) for which that can fail: c < |m| and c < |f|. The
        profile passed the edge test, so no c is negative.

        Each test goes to the p_ fields iff it reads the list of the parent
        p = i - 1: p is the ready w, one of w's others, the cut's u or one
        of i's own neighbors.
        """
        size = sizes[i]
        parent = i - 1
        needs, trims, p_needs, p_trims = [], [], [], []
        own = p_need = p_trim = removable = None
        p_own = False
        for w, others in checks[i]:
            if w == i:
                own = tuple(u for u in others if u != parent)
                p_own = len(own) < len(others)
                removable = others if size > k else None
                continue
            width = sizes[w] - 1
            c = width + size - t
            trimmed = width >= k and c >= 0
            if w == parent:
                if trimmed:
                    p_trim = others, c
                else:
                    p_need = others
            elif parent in others:
                rest = tuple(u for u in others if u != parent)
                if trimmed:
                    p_trims.append((w, rest, c))
                else:
                    p_needs.append((w, rest))
            elif trimmed:
                trims.append((w, others, c))
            else:
                needs.append((w, others))
        cuts, p_cut = [], None
        for u in earlier[i]:
            width = sizes[u]
            c = size + width - t if union else t
            if c < size and c < width:
                if u == parent:
                    p_cut = c
                else:
                    cuts.append((u, c))
        return _Plan(size, needs, trims, cuts, own, p_needs, p_trims,
                     p_need, p_trim, p_cut, p_own, removable)

    masks = [0] * n

    def lone_removable(mw: int, others: tuple[int, ...]) -> tuple[int, int]:
        """The colors of mw that no list of `others` holds, and those
        removable against them, as `_removable_colors` finds them."""
        bits, cover = mw, 0
        for u in others:
            f = masks[u]
            cover |= f
            if (mw | f).bit_count() == t:
                bits &= f
        return mw & ~cover, bits

    def fold(level: _Plan, used: int) -> tuple:
        """The part of a level's tests that reads no list at or above its
        parent p, with `used` colors taken below the level:
        (table, alive, need, need_p, cover_p, trims_p, trim_p, cut_p, off).

        alive is the bitset of the table's candidates that pass every test
        of that part, and 0 if a test rules out every candidate. The rest
        are the terms that `enter` completes with p's list mp:
          * a candidate holds every color of need | need_p & ~mp |
            mp & ~cover_p (cover_p is -1, every color, if p is not ready);
          * trims_p holds (mw, bits, c) for each trimmed w whose others
            hold p, with bits the colors of mw removable against the others
            but p;
          * trim_p is (the lists of p's others, c) if p is trimmed;
          * cut_p is the c of p's cut, if p has one;
          * a candidate misses every color of off & ~mp; off is 0 unless
            i's own test reads p.
        """
        size = level.size
        table = _tables[used, size]
        need = kill = 0    # kill: the candidates that a ready w != i prunes
        for w, others in level.needs:
            cover = 0
            for u in others:
                cover |= masks[u]
            need |= masks[w] & ~cover
        for w, others, c in level.trims:
            mw = masks[w]
            lone, bits = lone_removable(mw, others)
            need |= lone
            if bits:
                kill |= table.trim(mw, bits, c)
        need_p, trims_p = 0, []
        for w, others in level.p_needs:
            cover = 0
            for u in others:
                cover |= masks[u]
            need_p |= masks[w] & ~cover
        for w, others, c in level.p_trims:
            mw = masks[w]
            lone, bits = lone_removable(mw, others)
            need_p |= lone
            trims_p.append((mw, bits, c))
        cover_p, trim_p = -1, None
        if level.p_need is not None:
            cover_p = 0
            for u in level.p_need:
                cover_p |= masks[u]
        elif level.p_trim is not None:
            others, c = level.p_trim
            lists = [masks[u] for u in others]
            cover_p = 0
            for f in lists:
                cover_p |= f
            trim_p = lists, c
        alive = table.full
        # No cut empties alive: the last mask, all fresh, meets every list.
        for u, c in level.cuts:
            alive &= table[masks[u], c]
        off = 0
        if level.own is not None:    # a candidate has no color off the
            cover = 0                # union of i's neighbors' lists
            for u in level.own:
                cover |= masks[u]
            off = ~cover & ((1 << used + size) - 1)
            if off and not level.p_own:
                alive &= table[off, 0]
                off = 0
        return (table, alive & ~kill, need, need_p, cover_p, trims_p, trim_p,
                level.p_cut, off)

    def enter(level: _Plan, used: int, mp: int, below: dict) -> tuple[list[int], int]:
        """The candidates of a level planned as `level` with `used` colors
        taken below it, and the bitset of those that pass every test but
        the level's own removable-color one. Each masks[u] below the
        level's parent p holds sizes[u] colors, and mp is p's list.

        `below` maps `used` to `fold`'s result for this level. It lives on
        p's level entry, so it is filled once per position of p's level;
        per call only the terms that read mp run. The trims run first, and
        the call returns once they leave no candidate; a need of more
        colors than the level's size ends it before its bitset is read.
        """
        fixed = below.get(used)
        if fixed is None:
            fixed = below[used] = fold(level, used)
        table, alive, need, need_p, cover_p, trims_p, trim_p, cut_p, off = fixed
        cands = table.masks
        # Once the trims leave no candidate, no other test needs to run.
        for mw, bits, c in trims_p:
            if (mw | mp).bit_count() == t:
                bits &= mp
            if bits:
                alive &= ~table.trim(mw, bits, c)
        if not alive:
            return cands, 0
        if trim_p is not None:
            lists, c = trim_p
            bits = _removable_colors(mp, lists, t)
            if bits:
                alive &= ~table.trim(mp, bits, c)
                if not alive:
                    return cands, 0
        need |= need_p & ~mp | mp & ~cover_p
        if need:    # a candidate holds all of need
            c = need.bit_count() - 1
            if c >= level.size:    # no candidate holds it all
                return cands, 0
            alive &= ~table[need, c]
        if cut_p is not None:
            alive &= table[mp, cut_p]
        return cands, alive & table[off & ~mp, 0]

    for sizes in itertools.product(*size_ranges):
        meter.spend(1)    # each profile drawn is one node
        if any(sizes[u] + sizes[v] < t for u, v in edges):
            continue
        plans = [plan(i, sizes) for i in range(n)]
        # A depth-first walk without recursion: levels[i] is vertex i's
        # level, [cands, alive, pos, used, lists, below]: pos is the index
        # of the next candidate to try, bit j of alive is set iff
        # cands[pos + j] passes enter()'s tests, lists, if set, holds the
        # neighbor lists of i's removable-color test, and below is level
        # i + 1's `fold` cache. Entries of masks past the top level are
        # stale, but a level reads only the masks below it.
        cands, alive = enter(plans[0], 0, 0, {})
        # Vertex 0 has neighbors above it only, so its level runs no test;
        # its table (0 colors used) holds one list, so alive is 1.
        levels = [[cands, alive, 0, 0, None, {}]]
        while levels:
            i = len(levels) - 1
            level = levels[i]
            cands, alive, pos, before, lists, below = level
            # The candidates from pos up to the next passing one are tried.
            # A passing m with no removable color is taken: it is yielded at
            # the last vertex, else the walk descends into the next level
            # unless no candidate passes there. An exhausted level is
            # popped. The nodes tried are charged in one sum before each of
            # these steps; the meter stops a sum at the same node as a
            # one-by-one count.
            owed = 0
            while alive:
                run = (alive & -alive).bit_length()
                owed += run
                alive >>= run
                pos += run
                m = cands[pos - 1]
                if lists and _removable_colors(m, lists, t):
                    continue
                masks[i] = m
                if i + 1 == n:
                    meter.spend(owed)
                    owed = 0
                    yield tuple(masks)
                    continue
                now = max(before, m.bit_length())
                nxt = plans[i + 1]
                child, child_alive = enter(nxt, now, m, below)
                if not child_alive:
                    owed += len(child)
                    continue
                meter.spend(owed)
                level[1], level[2] = alive, pos
                lists = [masks[u] for u in nxt.removable] if nxt.removable else None
                levels.append([child, child_alive, 0, now, lists, {}])
                break
            else:
                meter.spend(owed + len(cands) - pos)
                levels.pop()


class _ColoringPool:
    """Up to POOL_SIZE proper colorings found on one subgraph, most recently
    found or fitted first; a new one drops the least recent.

    A coloring is kept as one color bit (1 << c) per vertex, so it colors a
    list assignment from its lists iff each vertex's bit is in its list,
    and being proper on the subgraph it then colors it properly.
    """

    __slots__ = ("colorings",)

    def __init__(self) -> None:
        self.colorings: list[tuple[int, ...]] = []

    def fit(self, masks: tuple[int, ...]) -> bool:
        """True iff a pooled coloring colors `masks`; it moves to the front."""
        colorings = self.colorings
        for j, col in enumerate(colorings):
            if all(map(operator.and_, masks, col)):
                if j:
                    colorings.insert(0, colorings.pop(j))
                return True
        return False

    def add(self, coloring: Coloring) -> None:
        """Put a proper coloring of the subgraph, vertex -> color, in front."""
        col = tuple(1 << coloring[v] for v in range(len(coloring)))
        self.colorings.insert(0, col)
        del self.colorings[POOL_SIZE:]


def _pad_witness(
    g: Graph,
    kept: tuple[int, ...],
    masks: tuple[int, ...],
    p: SeparationParams,
) -> ListAssignment:
    """Extend a subgraph witness to all of g with fresh lists.

    Block j is the j-th run of t fresh colors (k in the intersection
    regime) from the first color above every color in `masks`. A
    vertex outside the subgraph takes the lowest block that no padded
    neighbor before it holds, so padded neighbors get disjoint lists and
    every constraint a fresh list touches holds. Any coloring of g restricts
    to a coloring of the subgraph, so the padded assignment stays unsolvable.
    The first fresh color is read off `masks` alone, so the witness does not
    depend on the candidate tables that the process built before.
    """
    width = p.t if p.regime == "union" else p.k
    first_fresh = max(m.bit_length() for m in masks)
    local = {v: i for i, v in enumerate(kept)}
    nbrs = g.adjacency
    blocks = [-1] * g.n
    full = []
    for v in range(g.n):
        if v in local:
            full.append(masks[local[v]])
            continue
        taken = {blocks[u] for u in nbrs[v]}
        j = blocks[v] = next(j for j in itertools.count() if j not in taken)
        full.append(((1 << width) - 1) << (first_fresh + j * width))
    return ListAssignment(full)


def decide_choosable(
    g: Graph, p: SeparationParams, meter: Meter | None = None
) -> ChoosabilityVerdict:
    """Decide whether g is (k,t)-choosable.

    The k-core's subgraph is built once and given to `find_certificate`,
    under the same meter; an Alon-Tarsi certificate makes the verdict
    CHOOSABLE with no assignment tested and the vectors in `certificate`.
    Otherwise that subgraph is the first subset of the documented
    enumeration, and the decision is exhaustive within it (sensible for
    n <= 8, k <= 3, t <= 6); larger inputs should pass a `meter` (the
    default is `Meter(DEFAULT_MAX_NODES)`) and may receive RESOURCE_LIMIT.
    The NOT_CHOOSABLE witness is the first one in the fixed enumeration
    order, so verdicts and witnesses are deterministic.

    Each subset of the core drawn is one node, as is each size profile and
    candidate list the enumeration draws, so the meter stops every walk.
    An assignment that one of the subgraph's pooled colorings colors is
    counted as tested and costs no node; every other one is solved, charged
    to the same meter, and a coloring the solve finds joins the pool.
    So a NOT_CHOOSABLE verdict and its witness are those of solving every
    assignment, as is a CHOOSABLE one that no certificate gave, and the
    enumeration charges no more nodes than solving every assignment would.
    `nodes_used` is the nodes the decision charged, the certificate
    search's included; `solves` counts the solves.

    The candidate tables are built once per process and shared by every
    decision (`_Tables` gives the memory they keep); they depend on their
    keys alone, so no verdict depends on what the process decided before.
    """
    if meter is None:
        meter = Meter(DEFAULT_MAX_NODES)
    start = meter.nodes
    core_ids = greedy_kernel(g, p.k).kernel_vertices
    nbrs = g.adjacency
    tested = solves = 0
    try:
        if core_ids:
            core = induced_subgraph(g, core_ids)
            vectors = find_certificate(core[0], p, meter)
            if vectors is not None:
                return ChoosabilityVerdict(
                    CHOOSABLE, None, 0, meter.nodes - start, 0, vectors)
        for size in range(len(core_ids), 0, -1):
            for subset in itertools.combinations(core_ids, size):
                meter.spend(1)    # each subset drawn is one node
                # Only a subset of minimum degree >= k gets a subgraph.
                inside = set(subset)
                if any(len(inside.intersection(nbrs[v])) < p.k for v in subset):
                    continue
                h, kept = core if size == len(core_ids) else induced_subgraph(g, subset)
                pool = _ColoringPool()
                for masks in _tight_assignments(h, p, meter):
                    tested += 1
                    if pool.fit(masks):
                        continue
                    solves += 1
                    result = solve(h, ListAssignment(masks), meter)
                    if result.verdict == SAT:
                        pool.add(result.witness)
                        continue
                    if result.verdict == RESOURCE_LIMIT:
                        raise BudgetExceeded
                    witness = _pad_witness(g, kept, masks, p)
                    return ChoosabilityVerdict(
                        NOT_CHOOSABLE, witness, tested, meter.nodes - start, solves
                    )
        verdict = CHOOSABLE
    except BudgetExceeded:
        verdict = RESOURCE_LIMIT
    return ChoosabilityVerdict(verdict, None, tested, meter.nodes - start, solves)


def verify_not_choosable(
    g: Graph,
    lists: ListAssignment,
    p: SeparationParams,
    meter: Meter | None = None,
    validity: CheckResult | None = None,
) -> bool | None:
    """True iff `lists` is a valid (k,t)-assignment of g with no coloring.

    With a `meter` the solve is charged to it, and the answer is None when
    the meter runs out first. A caller that has already checked the
    assignment passes the `is_valid_assignment(g, lists, p)` result as
    `validity`, and it is not checked again.
    """
    if validity is None:
        validity = is_valid_assignment(g, lists, p)
    if not validity:
        return False
    verdict = solve(g, lists, meter).verdict
    return None if verdict == RESOURCE_LIMIT else verdict == UNSAT
