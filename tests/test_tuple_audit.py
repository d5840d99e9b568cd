"""Degree-tuple table: enumeration, audits, golden comparison, mutations."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from listsep import tuple_audit
from listsep.tuple_audit import (
    FAILS_INEQ1,
    INEQ1_COEFFS,
    INEQ3_COEFFS,
    VIOLATES,
    TupleRecord,
    audit_inequality1,
    enumerate_tuples,
    fails_ineq1_scaled,
    full_audit,
    min_degree_for,
    satisfies_ineq3,
    satisfies_ineq3_scaled,
)

GOLDEN = Path(__file__).parent / "data" / "tuple_table_golden.txt"


def test_exactly_77_tuples_in_lex_order():
    tuples = enumerate_tuples()
    assert len(tuples) == 77
    counts = [r.counts for r in tuples]
    assert counts == sorted(counts)
    assert counts[0] == (0, 0, 0, 0)
    assert counts[-1] == (5, 0, 0, 0)


def test_boundary_exclusions():
    assert not satisfies_ineq3(0, 0, 4, 0)   # 3/2 * 4 = 6 is not < 6
    assert not satisfies_ineq3(6, 0, 0, 0)
    assert satisfies_ineq3(0, 5, 0, 0)


def test_min_degrees():
    assert min_degree_for(0, 0, 0, 0) == 6
    assert min_degree_for(0, 0, 0, 1) == 9
    assert min_degree_for(0, 0, 1, 1) == 10
    assert min_degree_for(0, 1, 0, 0) == 10
    assert min_degree_for(1, 0, 0, 0) == 11
    assert min_degree_for(5, 0, 0, 0) == 11


def test_tuple_set_downward_closed():
    tuples = {r.counts for r in enumerate_tuples()}
    for counts in tuples:
        for i in range(4):
            if counts[i] > 0:
                smaller = list(counts)
                smaller[i] -= 1
                assert tuple(smaller) in tuples


def test_all_records_fail_inequality_1():
    for rec in enumerate_tuples():
        assert audit_inequality1(rec) == FAILS_INEQ1
        assert fails_ineq1_scaled(rec)


def test_integer_scaled_path_agrees_with_rationals():
    for d3 in range(7):
        for d3s in range(7):
            for d4 in range(5):
                for d5 in range(5):
                    assert satisfies_ineq3(d3, d3s, d4, d5) == satisfies_ineq3_scaled(
                        d3, d3s, d4, d5
                    )


def test_auditor_detects_forged_min_degree():
    forged = TupleRecord(0, 0, 0, 0, min_degree=5)
    assert audit_inequality1(forged) == VIOLATES


def test_audit_rejects_tuples_outside_the_table():
    with pytest.raises(ValueError):
        audit_inequality1(TupleRecord(6, 0, 0, 0, 11))


def test_inequality_2_consistency():
    # Coefficients on (d3, d3*, d4, d5) as the paper states (1), (2) and (3):
    # (3) is (2) minus (1), and the audit's tables are (1) and (3).
    ineq1 = (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 5))
    ineq2 = (2, Fraction(3, 2), 2, 2)
    ineq3 = (1, 1, Fraction(3, 2), Fraction(9, 5))
    assert tuple(b - a for a, b in zip(ineq1, ineq2)) == ineq3
    assert (INEQ1_COEFFS, INEQ3_COEFFS) == (ineq1, ineq3)


def test_failure_monotone_in_degree():
    for rec in enumerate_tuples():
        lhs = (
            rec.d3
            + Fraction(rec.d3_star, 2)
            + Fraction(rec.d4, 2)
            + Fraction(rec.d5, 5)
        )
        assert lhs <= rec.min_degree - 6
        for d in range(rec.min_degree, rec.min_degree + 21):
            assert lhs <= d - 6


def test_full_audit_against_golden_file():
    report = full_audit()
    assert report.passed
    golden = GOLDEN.read_text(encoding="utf-8")
    normalize = lambda text: [" ".join(l.split()) for l in text.strip().splitlines()]
    assert normalize(report.render()) == normalize(golden)


def test_mutated_coefficient_is_detected(monkeypatch):
    # inflating the last coefficient past the slack of the (0,0,0,3) row
    # must surface at least one VIOLATES verdict
    mutated = (INEQ1_COEFFS[0], INEQ1_COEFFS[1], INEQ1_COEFFS[2], Fraction(2))
    monkeypatch.setattr(tuple_audit, "INEQ1_COEFFS", mutated)
    report = full_audit()
    assert not report.passed
    assert any(r.verdict == VIOLATES for r in report.rows)


def test_small_coefficient_drift_stays_within_slack(monkeypatch):
    # every d5-carrying tuple keeps slack at its minimum degree, so nudging
    # 1/5 up to 1/2 flips nothing; the sensitivity test above needs a larger
    # perturbation to bite
    drifted = (INEQ1_COEFFS[0], INEQ1_COEFFS[1], INEQ1_COEFFS[2], Fraction(1, 2))
    monkeypatch.setattr(tuple_audit, "INEQ1_COEFFS", drifted)
    assert full_audit().passed
