"""Alon–Tarsi certificates of (k,t)-choosability.

The graph polynomial of a graph h is f_h = prod (x_u - x_v) over its edges
uv with u < v. If the coefficient of prod x_v^{d_v} in f_h, with
sum d_v = m, is nonzero, then h is colorable from every list assignment
with |L(v)| > d_v for every v (Alon and Tarsi, "Colorings and orientations
of graphs", Combinatorica 1992; Alon, "Combinatorial Nullstellensatz",
Combin. Probab. Comput. 1999).

A size profile of h gives each vertex v a size s_v with k <= s_v <= cap_v.
In the union regime cap_v = min(t, deg(v) + 1), and s is valid when every
edge uv has s_u + s_v >= t or an end at its cap. In the intersection regime
the one profile is all-k. A certificate is a list of exponent vectors d
with nonzero coefficients such that every minimal valid profile s has one
with d <= s - 1. Valid profiles are closed upward within the caps, so every
valid profile lies above a minimal one, and the all-k profile is the only
minimal one when 2k >= t.

Soundness: let h be the k-core of g and L a (k,t)-assignment of g. Cut
each list of a core vertex to s_v = min(|L(v)|, cap_v) of its colors
(any k of them in the intersection regime). On an edge uv of h either
neither list was cut, and s_u + s_v >= |L(u) | L(v)| >= t, or one was cut
to its cap. So s is a valid profile. It lies above a covered minimal
profile s', whose vector d <= s' - 1 <= s - 1 has a nonzero coefficient,
so h is colorable from the cut lists and therefore from L. The vertices
peeled off g to reach the core each had fewer than k neighbors left when
they went; colored greedily in the reverse order, each finds a free color
in its list of at least k. So every (k,t)-assignment of g is colorable.

Everything is integer arithmetic. Every profile the walk draws, every
vector tried and every DP state is one node charged to the meter.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .assignments import SeparationParams
from .budget import Meter
from .graph import Graph, greedy_kernel

# The most exponent vectors tried on one profile before the cover gives up.
# K4 at (3,3) has 10 vectors below its profile, K3,3 and K4,4 at (3,5) find
# one on the first try, and K5 at (3,5) has one vector only.
MAX_TRIES = 32


def coefficient(h: Graph, d: Sequence[int], meter: Meter) -> int:
    """The coefficient of prod x_v^{d_v} in prod (x_u - x_v), u < v, over
    the edges uv of h.

    A frontier DP over the edges, in the order of each vertex v's edges to
    its earlier neighbors u < v, by v then u. Its state holds the exponent
    taken so far by each vertex on the frontier, one bit field per vertex,
    and maps to the sum of the signed terms that reach it. The factor of
    edge uv adds 1 to u's exponent (sign +) or to v's (sign -). A branch is
    kept only while each exponent e_w stays within e_w <= d_w <= e_w plus
    w's edges still to come, so a vertex leaves the state after its last
    edge with e_w = d_w, and its field is cleared for the next vertex to
    use. Each state made is one node.
    """
    nbrs = h.adjacency
    if len(d) != h.n or sum(d) != h.m or any(
            not 0 <= e <= len(nb) for e, nb in zip(d, nbrs)):
        return 0
    width = max(d, default=0).bit_length()
    field = (1 << width) - 1
    left = [len(nb) for nb in nbrs]    # edges of each vertex still to come
    shift = [-1] * h.n    # bit offset of each frontier vertex's field
    free: list[int] = []    # offsets of cleared fields
    top = 0    # the next unused offset
    states = {0: 1}
    for v, nv in enumerate(nbrs):
        for u in nv:
            if u > v:
                break
            for w in (u, v):
                if shift[w] < 0:
                    if free:
                        shift[w] = free.pop()
                    else:
                        shift[w], top = top, top + width
            su, sv = shift[u], shift[v]
            du, dv = d[u], d[v]
            lu = left[u] = left[u] - 1
            lv = left[v] = left[v] - 1
            # A vertex whose last edge this is has its exponent at d.
            clear = (du << su if lu == 0 else 0) + (dv << sv if lv == 0 else 0)
            up, vp = (1 << su) - clear, (1 << sv) - clear
            new: dict[int, int] = {}
            get = new.get
            for state, c in states.items():
                eu = state >> su & field
                ev = state >> sv & field
                if eu < du and ev + lv >= dv:
                    key = state + up
                    new[key] = get(key, 0) + c
                if ev < dv and eu + lu >= du:
                    key = state + vp
                    new[key] = get(key, 0) - c
            states = {key: c for key, c in new.items() if c}
            meter.spend(len(states))
            if not states:
                return 0
            if lu == 0:
                free.append(su)
            if lv == 0:
                free.append(sv)
    return states.get(0, 0)


def _minimal_profiles(h: Graph, p: SeparationParams,
                      meter: Meter) -> Iterator[tuple[int, ...]]:
    """Every minimal valid size profile of h, once each.

    A depth-first walk over the vertices in id order, without recursion,
    trying each size from k up: a size is kept while every edge to an
    earlier neighbor is valid and every vertex whose neighbors are all
    placed is minimal, at k or with a neighbor u below its cap that has
    s_u + s_v <= t (so s_v - 1 breaks that edge). Each size drawn is one
    node.
    """
    n, k, t = h.n, p.k, p.t
    if p.regime == "intersection" or 2 * k >= t:
        meter.spend(1)
        yield (k,) * n
        return
    nbrs = h.adjacency
    cap = [min(t, len(nb) + 1) for nb in nbrs]
    earlier = [[u for u in nb if u < v] for v, nb in enumerate(nbrs)]
    ready: list[list[int]] = [[] for _ in range(n)]
    for w, nb in enumerate(nbrs):
        ready[max(w, *nb)].append(w)
    s = [k - 1] * n
    i = 0
    while i >= 0:
        s[i] += 1
        si = s[i]
        if si > cap[i]:
            i -= 1
            continue
        meter.spend(1)
        if si < cap[i] and any(s[u] + si < t and s[u] < cap[u]
                               for u in earlier[i]):
            continue
        if any(s[w] > k and not any(s[u] + s[w] <= t and s[u] < cap[u]
                                    for u in nbrs[w])
               for w in ready[i]):
            continue
        if i + 1 == n:
            yield tuple(s)
        else:
            i += 1
            s[i] = k - 1


def _vectors(h: Graph, s: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Exponent vectors d <= s - 1 with sum d = m, lazily.

    The vertices are first peeled by `greedy_kernel(h, s)`, lowest id first
    while one has at most s_v - 1 edges left, each taking those edges as its
    exponent: when that empties h the one vector is the out-degree sequence
    of an acyclic orientation, whose coefficient is +-1. Otherwise the
    vertices left get every split of the edges among them below s - 1, each
    vertex's sizes in order of distance from a balanced share (the largest
    even share under the bounds, one more for the first vertices that take
    the remainder).
    """
    peel = greedy_kernel(h, s)
    rest = peel.kernel_vertices
    d = [0] * h.n
    alive = [True] * h.n
    for v in peel.order:    # v takes its edges to the vertices still there
        alive[v] = False
        d[v] = sum(map(alive.__getitem__, h.adjacency[v]))
    need = h.m - sum(d)
    hi = [s[v] - 1 for v in rest]
    share = 0
    while share < max(hi, default=0) and sum(min(b, share + 1) for b in hi) <= need:
        share += 1
    target = [min(b, share) for b in hi]
    extra = need - sum(target)
    for j, b in enumerate(hi):
        if extra and b > share:
            target[j] += 1
            extra -= 1
    orders = [sorted(range(b + 1), key=lambda x, a=a: (abs(x - a), x))
              for a, b in zip(target, hi)]
    room = list(itertools.accumulate(reversed(hi + [0])))[::-1]
    # room[j]: the most that the vertices from rest[j] on can take.
    pos = [0] * len(rest)
    j, owed = 0, need
    while True:
        if j == len(rest) or pos[j] == len(orders[j]):
            if j == len(rest):
                yield tuple(d)
            else:
                pos[j] = 0
            j -= 1
            if j < 0:
                return
            owed += d[rest[j]]
            continue
        x = orders[j][pos[j]]
        pos[j] += 1
        if x <= owed <= x + room[j + 1]:
            d[rest[j]] = x
            owed -= x
            j += 1


def find_certificate(h: Graph, p: SeparationParams,
                     meter: Meter) -> tuple[tuple[int, ...], ...] | None:
    """The exponent vectors that certify every (k,t)-assignment of h
    colorable, or None when some minimal valid profile finds none.

    h is the k-core of the graph decided. The profiles are walked in the
    order of `_minimal_profiles`. A profile with sum (s_v - 1) < m has no
    vector and ends the search at once; one above a vector found earlier
    needs no new one; any other takes the first of at most MAX_TRIES
    vectors of `_vectors` whose coefficient is nonzero, or ends the search.
    Each vector tried is one node, on top of the nodes of its DP.
    """
    found: list[tuple[int, ...]] = []
    for s in _minimal_profiles(h, p, meter):
        if sum(s) - h.n < h.m:
            return None
        if any(all(map(int.__lt__, d, s)) for d in found):
            continue
        for d in itertools.islice(_vectors(h, s), MAX_TRIES):
            meter.spend(1)
            if coefficient(h, d, meter):
                found.append(d)
                break
        else:
            return None
    return tuple(found)
