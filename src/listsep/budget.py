"""Resource budgets for the exhaustive searches.

A `Meter` is the running charge against one `Budget`. Every search that runs
under it (the choosability enumeration and each solve inside it, or a single
solve) charges the same meter as it makes nodes, so one long solve cannot
overrun the budget of the run it belongs to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

RESOURCE_LIMIT = "RESOURCE_LIMIT"

# Nodes charged between two reads of the clock.
CLOCK_EVERY = 1024


@dataclass(frozen=True)
class Budget:
    """Search budget; exceeding it yields the distinct RESOURCE_LIMIT verdict.

    Zero is a valid limit of either kind; a negative one, or a NaN time
    limit, raises ValueError.
    """

    max_nodes: int = 10_000_000
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        # `not >=` also rejects NaN, which compares false with everything.
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")


class BudgetExceeded(Exception):
    pass


class Meter:
    """Nodes charged so far against a Budget.

    `spend(amount)` charges `amount` nodes as if they came one at a time: it
    raises BudgetExceeded on the node that passes `max_nodes`, and at the
    first clock read past the deadline, leaving `nodes` at the node that
    raised. The clock is read on every CLOCK_EVERY-th node, so the count at
    which a run stops does not depend on how its nodes were grouped into
    charges.
    """

    __slots__ = ("max_nodes", "deadline", "nodes", "next_check")

    def __init__(self, limits: Budget) -> None:
        self.max_nodes = limits.max_nodes
        self.deadline = (
            time.monotonic() + limits.max_seconds
            if limits.max_seconds is not None
            else None
        )
        self.nodes = 0
        self.next_check = 0
        self._schedule()

    def _schedule(self) -> None:
        self.next_check = self.max_nodes + 1
        if self.deadline is not None:
            self.next_check = min(self.next_check, self.nodes + CLOCK_EVERY)

    def spend(self, amount: int) -> None:
        nodes = self.nodes + amount
        while nodes >= self.next_check:
            self.nodes = self.next_check
            if self.nodes > self.max_nodes:
                raise BudgetExceeded
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise BudgetExceeded
            self._schedule()
        self.nodes = nodes
