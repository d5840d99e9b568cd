"""Command-line surface: parsing, exit codes, round-trips, output stability."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import listsep.choosability
import listsep.cli
from listsep.assignments import ListAssignment
from listsep.cli import (
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    ParseError,
    format_graph,
    format_lists,
    main,
    parse_graph_file,
    parse_lists_file,
)
from listsep.constructions import build_book, build_gadget35
from listsep.graph import complete_graph, cycle_graph, path_graph

GOLDEN = str(Path(__file__).parent / "data" / "tuple_table_golden.txt")


def write(tmp_path: Path, name: str, text: str) -> str:
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


def test_parse_graph_file(tmp_path):
    path = write(tmp_path, "p3.txt", "# path\n\n3 2\n0 1\n1 2\n")
    assert parse_graph_file(path) == path_graph(3)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("2 1\n0 0\n", "self-loop"),
        ("2 2\n0 1\n1 0\n", "duplicate"),
        ("2 1\n0 5\n", "out of range"),
        ("2 2\n0 1\n", "announces"),
        ("nonsense\n", "expected"),
        ("\u00b2 0\n", "expected"),
    ],
)
def test_parse_graph_rejects(tmp_path, content, fragment):
    path = write(tmp_path, "bad.txt", content)
    with pytest.raises(ParseError) as err:
        parse_graph_file(path)
    assert fragment in str(err.value)
    line = {"self-loop": 2, "duplicate": 3, "out of range": 2,
            "announces": 1, "expected": 1}[fragment]
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert main(["mad", path]) == EXIT_USAGE


def test_parse_lists_file(tmp_path):
    path = write(tmp_path, "lists.txt", "0: 1 2\n1: 3\n")
    lists = parse_lists_file(path)
    assert lists.universe == 4
    assert lists.colors(0) == (1, 2)
    assert parse_lists_file(path, universe=9).universe == 9
    with pytest.raises(ParseError):
        parse_lists_file(write(tmp_path, "gap.txt", "0: 1\n2: 1\n"))
    with pytest.raises(ParseError):
        parse_lists_file(write(tmp_path, "dup.txt", "0: 1\n0: 2\n"))
    with pytest.raises(ParseError):
        parse_lists_file(path, universe=2)


def test_roundtrip_gadget(tmp_path):
    inst = build_gadget35()
    gpath = write(tmp_path, "g.txt", format_graph(inst.graph))
    lpath = write(tmp_path, "l.txt", format_lists(inst.lists))
    assert parse_graph_file(gpath) == inst.graph
    assert parse_lists_file(lpath) == inst.lists


def test_solve_exit_codes(tmp_path):
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    sat = write(tmp_path, "sat.txt", "0: 1\n1: 2\n")
    unsat = write(tmp_path, "unsat.txt", "0: 1\n1: 1\n")
    assert main(["solve", g, sat]) == EXIT_OK
    assert main(["solve", g, unsat]) == EXIT_NEGATIVE


def test_solve_budget_flags(tmp_path, capsys):
    # K8 from seven colors: symmetric, so its 13,699 nodes do not depend on
    # the vertex order.
    g = write(tmp_path, "g.txt", format_graph(complete_graph(8)))
    lists = write(tmp_path, "l.txt",
                  format_lists(ListAssignment.from_sets([range(7)] * 8)))
    argv = ["--format", "machine", "solve", g, lists]
    assert main([*argv, "--max-nodes", "100"]) == EXIT_RESOURCE
    assert capsys.readouterr().out == "verdict=RESOURCE_LIMIT\nnodes=101\n"
    assert main([*argv, "--max-seconds", "0"]) == EXIT_RESOURCE
    assert capsys.readouterr().out == "verdict=RESOURCE_LIMIT\nnodes=1024\n"
    assert main([*argv, "--max-nodes", "13699", "--max-seconds", "3600"]) == EXIT_NEGATIVE
    assert capsys.readouterr().out == "verdict=UNSAT\nnodes=13699\n"


def test_budget_defaults():
    # check-choosable's default must not leak into the commands without one.
    parse = listsep.cli.PARSER.parse_args
    kt = ["--k", "1", "--t", "1"]
    assert parse(["solve", "g", "l"]).max_nodes == sys.maxsize
    assert parse(["verify-witness", "g", "l", *kt]).max_nodes == sys.maxsize
    assert parse(["check-choosable", "g", *kt]).max_nodes == 10_000_000
    assert parse(["solve", "g", "l"]).max_seconds is None
    assert parse(["check-choosable", "g", *kt]).max_seconds is None


@pytest.mark.parametrize("flags", [["--max-seconds", "nan"], ["--max-seconds", "-1"],
                                   ["--max-nodes", "-1"]])
def test_bad_budgets_are_usage_errors(tmp_path, capsys, flags):
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    lists = write(tmp_path, "l.txt", "0: 1\n1: 1\n")
    for argv in (["solve", g, lists], ["check-choosable", g, "--k", "1", "--t", "1"],
                 ["verify-witness", g, lists, "--k", "1", "--t", "1"]):
        assert main([*argv, *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 0" in captured.err


def book37_files(tmp_path: Path) -> list[str]:
    inst = build_book(3, 7)
    return [write(tmp_path, "b37.g", format_graph(inst.graph)),
            write(tmp_path, "b37.l", format_lists(inst.lists))]


def test_solve_refutes_book37_without_a_budget(tmp_path, capsys):
    files = book37_files(tmp_path)
    assert main(["--format", "machine", "solve", *files]) == EXIT_NEGATIVE
    assert capsys.readouterr().out == "verdict=UNSAT\nnodes=155\n"


def test_runs_as_a_module_from_a_checkout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "listsep", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert "check-choosable" in run.stdout


def test_internal_error_is_not_a_negative_verdict(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(listsep.cli, "solve", broken)
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    lists = write(tmp_path, "l.txt", "0: 1\n1: 2\n")
    assert main(["solve", g, lists]) == EXIT_INTERNAL
    assert "internal error: RuntimeError: solver fault" in capsys.readouterr().err


def test_check_choosable_exit_codes(tmp_path):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n1 2\n2 3\n3 0\n")
    c5 = write(tmp_path, "c5.txt", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["check-choosable", c4, "--k", "2", "--t", "2"]) == EXIT_OK
    out = tmp_path / "wit.txt"
    assert (
        main(
            ["check-choosable", c5, "--k", "2", "--t", "2",
             "--emit-witness", str(out)]
        )
        == EXIT_NEGATIVE
    )
    witness = parse_lists_file(str(out))
    assert len(witness) == 5
    assert (
        main(["check-choosable", c5, "--k", "2", "--t", "2", "--max-nodes", "2"])
        == EXIT_RESOURCE
    )
    # The enumeration walks all 1,200 core vertices deep without recursing.
    c1200 = write(tmp_path, "c1200.txt", format_graph(cycle_graph(1200)))
    assert (
        main(["check-choosable", c1200, "--k", "2", "--t", "2",
              "--max-nodes", "20000"])
        == EXIT_RESOURCE
    )


def test_verify_witness_flow(tmp_path):
    assert main(
        ["construct", "book", "--k", "2", "--t", "3",
         "--out-graph", str(tmp_path / "bg.txt"),
         "--out-lists", str(tmp_path / "bl.txt")]
    ) == EXIT_OK
    args = [str(tmp_path / "bg.txt"), str(tmp_path / "bl.txt"), "--k", "2", "--t", "3"]
    assert main(["verify-witness", *args]) == EXIT_OK
    # the same lists are not a witness for a wider separation
    args_wide = args[:2] + ["--k", "2", "--t", "4"]
    assert main(["verify-witness", *args_wide]) == EXIT_NEGATIVE


def test_verify_witness_budget(tmp_path, capsys, monkeypatch):
    is_valid = listsep.cli.is_valid_assignment
    checks = []

    def counted(*args):
        checks.append(args)
        return is_valid(*args)

    monkeypatch.setattr(listsep.cli, "is_valid_assignment", counted)
    monkeypatch.setattr(listsep.choosability, "is_valid_assignment", counted)
    argv = ["--format", "machine", "verify-witness", *book37_files(tmp_path),
            "--k", "3", "--t", "7"]
    assert main([*argv, "--max-nodes", "154"]) == EXIT_RESOURCE
    assert capsys.readouterr().out == "assignment_valid=true\nconfirmed=unknown\n"
    assert main([*argv, "--max-nodes", "155"]) == EXIT_OK
    assert capsys.readouterr().out == "assignment_valid=true\nconfirmed=true\n"
    assert len(checks) == 2    # one validity check per run
    k8 = [write(tmp_path, "k8.g", format_graph(complete_graph(8))),
          write(tmp_path, "k8.l",
                format_lists(ListAssignment.from_sets([range(7)] * 8)))]
    assert main(["verify-witness", *k8, "--k", "7", "--t", "7",
                 "--max-seconds", "0"]) == EXIT_RESOURCE
    assert "confirmed: unknown" in capsys.readouterr().out


def test_audit_tuples_cli(capsys):
    assert main(["audit-tuples", "--golden", GOLDEN]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("fails (1)") == 77
    assert "PASS" in out


def test_machine_output_is_stable(capsys, tmp_path):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n1 2\n2 3\n3 0\n")
    argv = ["--format", "machine", "check-choosable", c4, "--k", "2", "--t", "2"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "verdict=CHOOSABLE" in first


def test_mad_and_sparse_and_kernel(tmp_path, capsys):
    k5 = write(tmp_path, "k5.txt", format_graph(
        __import__("listsep").complete_graph(5)))
    assert main(["mad", k5]) == EXIT_OK
    assert "4" in capsys.readouterr().out
    assert main(["--format", "machine", "mad", k5]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["mad=4", "witness=0,1,2,3,4", "flow_calls=1"]
    assert main(["verify-sparse", "--k", "4", "--t", "15"]) == EXIT_OK
    assert main(["verify-sparse", "--k", "1", "--t", "15"]) == EXIT_USAGE
    assert main(["kernel", k5, "--k", "5"]) == EXIT_OK
    assert "certified_colorable" in capsys.readouterr().out.replace(": ", "=")


def test_kernel_machine_output(tmp_path, capsys):
    k5 = write(tmp_path, "k5.txt", format_graph(complete_graph(5)))
    assert main(["--format", "machine", "kernel", k5, "--k", "4"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "kernel_size=5\nkernel_vertices=0,1,2,3,4\nremoval_order=\n"
        "certified_colorable=false\n"
    )
    p4 = write(tmp_path, "p4.txt", format_graph(path_graph(4)))
    assert main(["--format", "machine", "kernel", p4, "--k", "2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "kernel_size=0\nkernel_vertices=\nremoval_order=0,1,2,3\n"
        "certified_colorable=true\n"
    )


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    lists = write(tmp_path, "l.txt", "0: 1\n1: 2\n")
    assert main(["solve", g, lists]) == EXIT_OK
    assert main(["kernel", g, "--k", "2"]) == EXIT_OK
    assert built == []


def test_find_reducible_cli(tmp_path, capsys):
    c5 = write(tmp_path, "c5.txt", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["find-reducible", c5, "--k", "3", "--t", "4"]) == EXIT_OK
    assert main(["find-reducible", c5, "--k", "2", "--t", "4"]) == EXIT_USAGE


def test_suite_cli():
    assert main(["prop31-suite", "--count", "25"]) == EXIT_OK


@pytest.mark.parametrize("flags,message", [
    (["--count", "-3"], "count must be at least 1, got -3"),
    (["--count", "0"], "count must be at least 1, got 0"),
    (["--max-n", "3"], "max_n must be at least 4, got 3"),
])
def test_suite_rejects_bad_input(capsys, flags, message):
    assert main(["prop31-suite", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_usage_errors():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["solve", "/nonexistent/graph", "/nonexistent/lists"]) == EXIT_USAGE
