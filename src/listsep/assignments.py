"""Color lists, separation parameters, and validity/properness checks.

Colors are nonnegative integers; a list is its set of colors, stored as a
bitmask (bit c set iff c is in the list) so the enumeration modules can take
unions and intersections in inner loops cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graph import Graph

# A coloring maps every vertex id to its chosen color.
Coloring = dict


def mask_of(colors: Iterable[int]) -> int:
    m = 0
    for c in colors:
        if c < 0:
            raise ValueError(f"negative color {c}")
        m |= 1 << c
    return m


def colors_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


class ListAssignment:
    """Per-vertex nonempty color sets, one bitmask per vertex."""

    __slots__ = ("_masks",)

    def __init__(self, masks: Sequence[int]) -> None:
        for v, m in enumerate(masks):
            if m == 0:
                raise ValueError(f"empty list at vertex {v}")
            if m < 0:
                raise ValueError(f"negative mask at vertex {v}")
        self._masks = tuple(masks)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> ListAssignment:
        return cls([mask_of(s) for s in sets])

    def __len__(self) -> int:
        return len(self._masks)

    def mask(self, v: int) -> int:
        return self._masks[v]

    def colors(self, v: int) -> tuple[int, ...]:
        return colors_of(self._masks[v])

    def size(self, v: int) -> int:
        return self._masks[v].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ListAssignment):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        body = ", ".join(f"{v}:{list(self.colors(v))}" for v in range(len(self)))
        return f"ListAssignment({body})"


@dataclass(frozen=True)
class SeparationParams:
    """List-size floor k and separation bound t.

    t >= k is the union regime (adjacent list unions must reach t); t < k is
    the intersection regime (adjacent list intersections may not exceed t).
    At t = k the union condition is vacuous for k-lists, so the checks reduce
    to plain k-choosability.
    """

    k: int
    t: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.t < 0:
            raise ValueError("t must be nonnegative")

    @property
    def regime(self) -> str:
        return "union" if self.t >= self.k else "intersection"


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first violation, if any."""

    ok: bool
    reason: str = ""
    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_valid_assignment(
    g: Graph, lists: ListAssignment, p: SeparationParams
) -> CheckResult:
    """Check that `lists` is a (k,t)-list assignment of g.

    Every list must have size >= k; in the union regime every edge uv needs
    |L(u) | L(v)| >= t, in the intersection regime |L(u) & L(v)| <= t.
    Reports the first offending vertex or edge.
    """
    if len(lists) != g.n:
        raise ValueError(f"assignment covers {len(lists)} vertices, graph has {g.n}")
    for v in range(g.n):
        if lists.size(v) < p.k:
            return CheckResult(
                False, f"|L({v})| = {lists.size(v)} < k = {p.k}", vertex=v
            )
    union_regime = p.regime == "union"
    for u, v in g.edges():
        if union_regime:
            got = (lists.mask(u) | lists.mask(v)).bit_count()
            if got < p.t:
                return CheckResult(
                    False, f"|L({u}) u L({v})| = {got} < t = {p.t}", edge=(u, v)
                )
        else:
            got = (lists.mask(u) & lists.mask(v)).bit_count()
            if got > p.t:
                return CheckResult(
                    False, f"|L({u}) n L({v})| = {got} > t = {p.t}", edge=(u, v)
                )
    return CheckResult(True)


def is_proper_coloring(
    g: Graph, lists: ListAssignment, coloring: Mapping[int, int]
) -> CheckResult:
    """Check c(v) in L(v) for all v and c(u) != c(v) on every edge."""
    if len(lists) != g.n:
        raise ValueError(f"assignment covers {len(lists)} vertices, graph has {g.n}")
    for v in range(g.n):
        if v not in coloring:
            raise ValueError(f"coloring misses vertex {v}")
    for v in range(g.n):
        c = coloring[v]
        if c < 0 or not (lists.mask(v) >> c) & 1:
            return CheckResult(False, f"color {c} not in L({v})", vertex=v)
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            return CheckResult(
                False, f"edge ({u},{v}) has both endpoints colored {coloring[u]}",
                edge=(u, v),
            )
    return CheckResult(True)
