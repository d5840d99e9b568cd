"""Exact-rational audit of the degree-tuple case table.

A hypothetical vertex v of degree d(v) >= 6 is classified by the tuple
(d3, d3*, d4, d5) counting its troublesome low-degree neighbors. The table
enumerates every nonnegative tuple satisfying

    (3)   d3 + d3* + (3/2) d4 + (9/5) d5 < 6

annotates each with the smallest admissible degree implied by

    base d(v) >= 6;  d5 > 0 => d(v) >= 9;  d3* + d4 > 0 => d(v) >= 10;
    d3 > 0 => d(v) >= 11,

and confirms that each tuple then *fails*

    (1)   d3 + (1/2) d3* + (1/2) d4 + (1/5) d5 > d(v) - 6,

i.e. the left side is <= d(v) - 6 at the minimum degree (and hence at every
larger degree, since the right side only grows). The audit is run in the
failure direction because that is what rules every tuple out. Each row is
also re-checked with integers only, every coefficient scaled by 10, and it
fails (1) only when both paths say so. The rational checks read the
coefficients of (1) and (3) from INEQ1_COEFFS and INEQ3_COEFFS each time
they run; the integer checks spell out their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

FAILS_INEQ1 = "FAILS_INEQ1"
VIOLATES = "VIOLATES"

# Coefficients of (1) on (d3, d3*, d4, d5).
INEQ1_COEFFS = (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 5))
INEQ3_COEFFS = (Fraction(1), Fraction(1), Fraction(3, 2), Fraction(9, 5))


@dataclass(frozen=True)
class TupleRecord:
    d3: int
    d3_star: int
    d4: int
    d5: int
    min_degree: int

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.d3, self.d3_star, self.d4, self.d5)


def _dot(coeffs, counts) -> Fraction:
    return sum((c * x for c, x in zip(coeffs, counts)), Fraction(0))


def satisfies_ineq3(d3: int, d3_star: int, d4: int, d5: int) -> bool:
    return _dot(INEQ3_COEFFS, (d3, d3_star, d4, d5)) < 6


def satisfies_ineq3_scaled(d3: int, d3_star: int, d4: int, d5: int) -> bool:
    """Integer-only cross-check of (3), all coefficients scaled by 10."""
    return 10 * d3 + 10 * d3_star + 15 * d4 + 18 * d5 < 60


def min_degree_for(d3: int, d3_star: int, d4: int, d5: int) -> int:
    md = 6
    if d5 > 0:
        md = max(md, 9)
    if d3_star + d4 > 0:
        md = max(md, 10)
    if d3 > 0:
        md = max(md, 11)
    return md


def enumerate_tuples() -> tuple[TupleRecord, ...]:
    """All nonnegative tuples satisfying (3), in lexicographic order."""
    out = []
    for d3 in range(6):
        for d3_star in range(6):
            for d4 in range(4):
                for d5 in range(4):
                    if satisfies_ineq3(d3, d3_star, d4, d5):
                        out.append(
                            TupleRecord(
                                d3, d3_star, d4, d5,
                                min_degree_for(d3, d3_star, d4, d5),
                            )
                        )
    return tuple(out)


def audit_inequality1(rec: TupleRecord) -> str:
    """FAILS_INEQ1 iff (1) fails at the record's minimum degree.

    Failure at the minimum degree settles all admissible degrees: the left
    side is fixed while d(v) - 6 grows with d(v) (checked separately as a
    tested lemma).
    """
    if not satisfies_ineq3(*rec.counts):
        raise ValueError(f"tuple {rec.counts} does not satisfy (3)")
    lhs = _dot(INEQ1_COEFFS, rec.counts)
    return FAILS_INEQ1 if lhs <= rec.min_degree - 6 else VIOLATES


def fails_ineq1_scaled(rec: TupleRecord) -> bool:
    """Integer-only cross-check of the (1)-failure verdict, scaled by 10."""
    lhs = 10 * rec.d3 + 5 * rec.d3_star + 5 * rec.d4 + 2 * rec.d5
    return lhs <= 10 * (rec.min_degree - 6)


@dataclass(frozen=True)
class AuditRow:
    record: TupleRecord
    verdict: str

    @property
    def line(self) -> str:
        d3, d3s, d4, d5 = self.record.counts
        tup = f"({d3},{d3s},{d4},{d5})"
        if self.verdict == FAILS_INEQ1:
            return f"{tup} fails (1) for d(v) >= {self.record.min_degree}."
        return f"{tup} VIOLATES: (1) can hold at d(v) >= {self.record.min_degree}."


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.verdict == FAILS_INEQ1 for r in self.rows)

    def render(self) -> str:
        return "\n".join(r.line for r in self.rows)


def full_audit() -> AuditReport:
    """Enumerate the tuple table and audit every record against (1).

    A row is FAILS_INEQ1 only when the rational audit with INEQ1_COEFFS and
    the integer-only checks of (3) and of the failure of (1) all agree.
    """
    rows = []
    for rec in enumerate_tuples():
        verdict = audit_inequality1(rec)
        if not (satisfies_ineq3_scaled(*rec.counts) and fails_ineq1_scaled(rec)):
            verdict = VIOLATES
        rows.append(AuditRow(rec, verdict))
    return AuditReport(tuple(rows))
