"""Alon-Tarsi certificates: the coefficient DP, the profile cover, soundness."""

from __future__ import annotations

import itertools
import math
import random

from test_choosability import CUT_CASES, no_certificate, seeded_cases

from listsep import alon_tarsi
from listsep.alon_tarsi import coefficient, find_certificate
from listsep.assignments import SeparationParams
from listsep.budget import Meter
from listsep.choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    decide_choosable,
    verify_not_choosable,
)
from listsep.constructions import build_book
from listsep.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    greedy_kernel,
    induced_subgraph,
    petersen_graph,
)


def expansion(g: Graph) -> dict[tuple[int, ...], int]:
    """prod (x_u - x_v) over the edges uv, u < v, multiplied out one factor
    at a time: exponent tuple -> nonzero coefficient."""
    poly = {(0,) * g.n: 1}
    for u, v in g.edges():
        out: dict[tuple[int, ...], int] = {}
        for mono, c in poly.items():
            for w, sign in ((u, 1), (v, -1)):
                term = list(mono)
                term[w] += 1
                key = tuple(term)
                out[key] = out.get(key, 0) + sign * c
        poly = {mono: c for mono, c in out.items() if c}
    return poly


def valid_profiles(h: Graph, p: SeparationParams) -> list[tuple[int, ...]]:
    """Every valid size profile of h by its definition, in lexicographic
    order."""
    k, t = p.k, p.t
    if p.regime == "intersection":
        return [(k,) * h.n]
    cap = [min(t, h.degree(v) + 1) for v in range(h.n)]
    return [s for s in itertools.product(*(range(k, c + 1) for c in cap))
            if all(s[u] + s[v] >= t or s[u] == cap[u] or s[v] == cap[v]
                   for u, v in h.edges())]


def small_cores(count: int, seed: int):
    """(core, params) from `seeded_cases` with at most 7 vertices and at
    most 20,000 size profiles to check by brute force."""
    for h, p in seeded_cases(count, seed):
        caps = [min(p.t, h.degree(v) + 1) - p.k + 1 for v in range(h.n)]
        if h.n <= 7 and (p.regime == "intersection" or math.prod(caps) <= 20_000):
            yield h, p


def test_coefficient_matches_expansion():
    rng = random.Random(31)
    nonzero = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.choice((0.4, 0.7, 1.0))])
        poly = expansion(g)
        # Every exponent vector up to the degrees, of every sum.
        for d in itertools.product(*(range(len(nb) + 1) for nb in g.adjacency)):
            meter = Meter()
            assert coefficient(g, d, meter) == poly.get(d, 0)
            nonzero += d in poly
    assert nonzero > 500


def test_certificates_cover_every_valid_profile():
    certified = failed = 0
    for h, p in small_cores(300, 31):
        valid = valid_profiles(h, p)
        minimal = [s for s in valid
                   if not any(o != s and all(map(int.__le__, o, s)) for o in valid)]
        assert list(alon_tarsi._minimal_profiles(h, p, Meter())) == minimal
        vectors = find_certificate(h, p, Meter())
        if vectors is None:
            failed += 1
            continue
        certified += 1
        poly = expansion(h)
        for d in vectors:
            assert sum(d) == h.m and poly.get(d, 0) != 0
        for s in valid:
            assert any(all(map(int.__lt__, d, s)) for d in vectors)
    assert certified > 20 and failed > 20


def test_no_certificate_for_a_graph_that_is_not_choosable(monkeypatch):
    """The enumeration alone finds each of these NOT_CHOOSABLE, and no core
    of one gets a certificate."""
    p22, p23 = SeparationParams(2, 2), SeparationParams(2, 3)
    named = [(cycle_graph(5), p22), (cycle_graph(7), p22),
             (complete_graph(4), SeparationParams(3, 3)),
             (complete_bipartite_graph(2, 4), p23), (petersen_graph(), p23),
             (build_book(2, 3).graph, p23)]
    cases = named + [(g, p) for g, p, _ in CUT_CASES] + list(seeded_cases(300, 2024))
    no_certificate(monkeypatch)
    refuted = 0
    for g, p in cases:
        verdict = decide_choosable(g, p, Meter(300_000))
        if (g, p) in named:
            assert verdict.verdict == NOT_CHOOSABLE
        if verdict.verdict == NOT_CHOOSABLE:
            refuted += 1
            core, _ = induced_subgraph(g, greedy_kernel(g, p.k).kernel_vertices)
            assert find_certificate(core, p, Meter()) is None
    assert refuted > 100


def test_long_cycles_need_no_recursion():
    p = SeparationParams(2, 2)
    # The even cycle's one profile is all-2 and its one vector all-1, the
    # two directed cycles; the DP keeps at most 2 states per edge.
    verdict = decide_choosable(cycle_graph(6000), p)
    assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
        CHOOSABLE, 0, 12_001)
    assert verdict.certificate == ((1,) * 6000,)
    # On the odd cycle the coefficient is 0; the enumeration then tests one
    # assignment, which it reaches only after walking all 6,001 levels.
    g = cycle_graph(6001)
    verdict = decide_choosable(g, p)
    assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
        NOT_CHOOSABLE, 1, 30_005)
    assert verdict.certificate is None
    assert verify_not_choosable(g, verdict.witness, p)
