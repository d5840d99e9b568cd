"""Command-line surface: parsing, exit codes, round-trips, output stability."""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from test_choosability import no_certificate

import listsep.choosability
import listsep.cli
import listsep.tuple_audit
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
from listsep.graph import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
)

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
        # past the vertex cap: refused before any vertex is allocated
        ("1000000000000 0\n", "exceed the limit"),
        # past the digits int() converts
        pytest.param("1" * 5000 + " 0\n", "too many digits", id="5000-digit-header"),
        pytest.param("2 1\n0 " + "1" * 5000 + "\n", "number has too many digits",
                     id="5000-digit-vertex"),
        # a long line is quoted by a short prefix only
        pytest.param("2 1\n0 " + "x" * 5000 + "\n", "non-integer vertex in '0 xxx",
                     id="5000-char-vertex"),
        pytest.param("x" * 5000 + " 0\n", "expected 'n m', got 'xxx",
                     id="5000-char-header"),
        # a number int() converts is printed by a short prefix only
        pytest.param("2 1\n0 " + "1" * 4000 + "\n",
                     f"edge (0,{'1' * 20}...) out of range for n=2",
                     id="4000-digit-edge-vertex"),
        pytest.param("1" * 4000 + " 0\n", f"{'1' * 20}... vertices exceed the limit",
                     id="4000-digit-vertex-count"),
        pytest.param("2 " + "1" * 4000 + "\n", f"header announces {'1' * 20}... edges",
                     id="4000-digit-edge-count"),
    ],
)
def test_parse_graph_rejects(tmp_path, content, fragment):
    path = write(tmp_path, "bad.txt", content)
    with pytest.raises(ParseError) as err:
        parse_graph_file(path)
    assert fragment in str(err.value)
    assert len(str(err.value)) < len(path) + 100
    line = {"self-loop": 2, "duplicate": 3, "out of range": 2,
            "announces": 1, "expected": 1, "exceed the limit": 1,
            "too many digits": 1, "number has too many digits": 2,
            "non-integer vertex in '0 xxx": 2,
            "expected 'n m', got 'xxx": 1,
            f"edge (0,{'1' * 20}...) out of range for n=2": 2,
            f"{'1' * 20}... vertices exceed the limit": 1,
            f"header announces {'1' * 20}... edges": 1}[fragment]
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert main(["mad", path]) == EXIT_USAGE


# Blank and comment lines are skipped wherever they are, and a line ends at
# \n or \r\n.
LOOSE_GRAPH = "  # path\r\n \t \r\n3 2\r\n\t# edges\r\n0 1\r\n   \r\n  1 2  \r\n"
LOOSE_LISTS = "  # lists\r\n \t \r\n0: 1 2\r\n\t# more\r\n   \r\n 1: 3 \r\n"


def test_content_lines_are_read_loosely(tmp_path):
    assert parse_graph_file(write(tmp_path, "p3.g", LOOSE_GRAPH)) == path_graph(3)
    lists, names = parse_lists_file(write(tmp_path, "p3.l", LOOSE_LISTS))
    assert (lists.colors(0), lists.colors(1), names) == ((0, 1), (2,), (1, 2, 3))


@pytest.mark.parametrize("end", ["\r", "\f", "\x85", "\u2028"])
def test_any_line_boundary_ends_a_line(tmp_path, end):
    # The README promises every boundary str.splitlines knows, not just \n.
    graph = end.join(["3 2", "0 1", "1 2"])
    assert parse_graph_file(write(tmp_path, "p3.g", graph)) == path_graph(3)
    lists, _ = parse_lists_file(write(tmp_path, "p3.l", end.join(["0: 1", "1: 2"])))
    assert (lists.colors(0), lists.colors(1)) == ((0,), (1,))
    with pytest.raises(ParseError) as err:
        parse_graph_file(write(tmp_path, "bad.g", end.join(["3 2", "0 1", "x y"])))
    assert str(err.value).startswith(f"{tmp_path / 'bad.g'}:3: ")


@pytest.mark.parametrize("parse,content,line,fragment", [
    # a comment must have a line of its own
    (parse_graph_file, "3 2\n0 1 # note\n1 2\n", 2, "expected 'u v', got '0 1 # note'"),
    (parse_lists_file, "0: 1\n1: 2 # note\n", 2, "non-integer entry in '1: 2 # note'"),
    # the first faulty line is reported, whatever comes after it
    (parse_graph_file, "3 2\n0 5\nx y\n", 2, "edge (0,5) out of range for n=3"),
    (parse_graph_file, "3 3\n0 1 2\n0 1\n1 0\n", 2, "expected 'u v', got '0 1 2'"),
    (parse_graph_file, "3 3\n0 1\n1 0\n0 x\n", 3, "duplicate edge (1,0)"),
])
def test_parse_reports_the_first_faulty_line(tmp_path, parse, content, line, fragment):
    path = write(tmp_path, "bad.txt", content)
    with pytest.raises(ParseError) as err:
        parse(path)
    assert str(err.value) == f"{path}:{line}: {fragment}"


def _plain_graph_text(rng: random.Random, fault: str) -> str:
    """A random graph in the plain form, with one fault of the given kind."""
    n = rng.randrange(2, 30)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [[str(u), str(v)][::rng.choice((1, -1))]
             for u, v in rng.sample(pairs, rng.randrange(1, len(pairs) + 1))]
    i = rng.randrange(len(edges))
    if fault == "out-of-range":
        edges[i][rng.randrange(2)] = str(n + rng.randrange(3))
    elif fault == "self-loop":
        edges[i][1] = edges[i][0]
    elif fault in ("repeat", "reversed-repeat"):
        copy = edges[i][::-1] if fault == "reversed-repeat" else edges[i]
        edges.insert(rng.randrange(len(edges) + 1), copy)
    elif fault == "5000-digit-id":
        edges[i][rng.randrange(2)] = "1" * 5000
    elif fault == "too-many-vertices":
        n = MAX_VERTICES + 1
    elif fault == "zero-edges":
        edges = []
    elif fault == "leading-zero":
        j = rng.randrange(2)
        edges[i][j] = "0" + edges[i][j]
    m = len(edges) + (rng.choice((1, -1)) if fault == "header-off-by-one" else 0)
    return "".join(f"{u} {v}\n" for u, v in [(n, m), *edges])


@pytest.mark.parametrize("fault", [
    "none", "out-of-range", "self-loop", "repeat", "reversed-repeat",
    "header-off-by-one", "too-many-vertices", "5000-digit-id", "zero-edges",
    "leading-zero"])
def test_bulk_reader_agrees_with_the_line_reader(tmp_path, fault):
    for seed in range(20):
        text = _plain_graph_text(random.Random(f"{fault}:{seed}"), fault)
        assert listsep.cli._PLAIN.fullmatch(text)
        path = write(tmp_path, f"{seed}.g", text)
        outcomes = []
        for parse in (parse_graph_file, lambda p: listsep.cli._graph_by_lines(p, text)):
            try:
                outcomes.append(parse(path))
            except ParseError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (
            fault not in ("none", "zero-edges", "leading-zero"))


def test_only_plain_graph_files_skip_the_line_reader(tmp_path, monkeypatch):
    def refuse(path, text):
        raise AssertionError("line reader called")

    monkeypatch.setattr(listsep.cli, "_graph_by_lines", refuse)
    plain = format_graph(cycle_graph(5))
    assert parse_graph_file(write(tmp_path, "c5.g", plain)) == cycle_graph(5)
    crlf = plain.replace("\n", "\r\n")
    assert parse_graph_file(write(tmp_path, "c5crlf.g", crlf)) == cycle_graph(5)
    for name, text in [("c5c.g", "# a cycle\n" + plain), ("empty.g", "")]:
        with pytest.raises(AssertionError, match="line reader called"):
            parse_graph_file(write(tmp_path, name, text))


def _is_plain_graph_text(text: str) -> bool:
    """Every line is digits, one space, digits and a newline, and there is one."""
    lines = text.split("\n")
    if len(lines) < 2 or lines.pop():
        return False
    for line in lines:
        left, sep, right = line.partition(" ")
        if not (sep and left and right and set(left + right) <= set("0123456789")):
            return False
    return True


def test_plain_pattern_matches_exactly_the_plain_form():
    rng = random.Random(11)
    plain = 0
    for _ in range(5000):
        if rng.random() < 0.5:
            text = "".join(rng.choice("09 \n#a\t-") for _ in range(rng.randint(1, 14)))
        else:    # plain lines, perhaps with one character changed
            text = "".join(f"{rng.choice(['0', '9', '90'])} {rng.choice(['0', '09'])}\n"
                           for _ in range(rng.randint(1, 4)))
            if rng.random() < 0.5:
                i = rng.randrange(len(text))
                text = text[:i] + rng.choice(["", *"09 \n#a\t-"]) + text[i + 1:]
        assert bool(listsep.cli._PLAIN.fullmatch(text)) == _is_plain_graph_text(text)
        plain += _is_plain_graph_text(text)
    assert 1000 < plain < 4000


def test_plain_pattern_keeps_no_backtracking_state():
    text = "".join(f"{v} {v + 1}\n" for v in range(200_000))
    tracemalloc.start()
    try:
        assert listsep.cli._PLAIN.fullmatch(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 << 10


def test_parse_lists_file(tmp_path):
    path = write(tmp_path, "lists.txt", "0: 1 2\n1: 3\n")
    lists, names = parse_lists_file(path)
    # Colors are renamed by rank; names maps them back to the file's.
    assert (lists.colors(0), lists.colors(1)) == ((0, 1), (2,))
    assert names == (1, 2, 3)
    # --universe only bounds the colors: one above them all changes nothing,
    # and a huge one allocates nothing.
    assert parse_lists_file(path, universe=9) == (lists, names)
    tracemalloc.start()
    try:
        assert parse_lists_file(path, universe=10**12) == (lists, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_lists_file_keeps_no_mask_per_color(tmp_path):
    # 10,000 lists of 3 fresh colors: the lists' masks take about 19 MB, and
    # one single-bit mask per color, up to 30,000 bits wide, about 56 MB more.
    text = "".join(f"{v}: {3 * v} {3 * v + 1} {3 * v + 2}\n" for v in range(10_000))
    path = write(tmp_path, "fresh.l", text)
    tracemalloc.start()
    try:
        lists, names = parse_lists_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lists.colors(9_999) == (29_997, 29_998, 29_999)
    assert names == tuple(range(30_000))
    assert peak < 40 << 20


# List-file faults the line reader refuses; the others give valid lists.
LIST_ERRORS = ("repeated-vertex", "missing-vertex", "5000-digit-color",
               "color-at-universe", "universe-0", "empty-list")


def _plain_lists_text(rng: random.Random, fault: str) -> tuple[str, int | None]:
    """A random list file in the plain form, with one fault of the given
    kind, and the universe to read it with."""
    n = rng.randrange(2, 30)
    rows = [[str(v), *map(str, rng.sample(range(40), rng.randrange(1, 6)))]
            for v in range(n)]
    top = max(int(c) for row in rows for c in row[1:])
    universe = rng.choice((None, top + 1 + rng.randrange(3)))
    i = rng.randrange(n)
    if fault == "shuffled":
        j = rng.randrange(n - 1)
        rows[j], rows[j + 1] = rows[j + 1], rows[j]
    elif fault == "repeated-vertex":
        rows.insert(rng.randrange(n + 1), list(rows[i]))
    elif fault == "missing-vertex":    # not the last: that one leaves valid lists
        del rows[rng.randrange(n - 1)]
    elif fault == "leading-zero":
        j = rng.randrange(len(rows[i]))
        rows[i][j] = "0" + rows[i][j]
    elif fault == "5000-digit-color":
        rows[i][rng.randrange(1, len(rows[i]))] = "1" * 5000
    elif fault == "color-at-universe":
        universe = top
    elif fault == "universe-0":
        universe = 0
    elif fault == "empty-list":
        rows[i] = rows[i][:1]
    elif fault == "repeated-color":
        rows[i].append(rng.choice(rows[i][1:]))
    lines = [row[0] + ":" + "".join(" " + c for c in row[1:]) + "\n" for row in rows]
    if fault == "comment":
        lines.insert(rng.randrange(n + 1), "# comment\n")
    text = "".join(lines)
    if fault == "crlf":
        text = text.replace("\n", "\r\n")
    return text, universe


@pytest.mark.parametrize("fault", [
    "none", "shuffled", "repeated-vertex", "missing-vertex", "leading-zero",
    "5000-digit-color", "color-at-universe", "universe-0", "empty-list",
    "repeated-color", "crlf", "comment"])
def test_bulk_list_reader_agrees_with_the_line_reader(tmp_path, fault):
    for seed in range(20):
        text, universe = _plain_lists_text(random.Random(f"{fault}:{seed}"), fault)
        path = write(tmp_path, f"{seed}.l", text)
        outcomes = []
        for parse in (parse_lists_file, lambda p, u: listsep.cli._lists_by_lines(
                p, listsep.cli._read_text(p), u)):
            try:
                outcomes.append(parse(path, universe))
            except ParseError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (fault in LIST_ERRORS)


def test_only_plain_list_files_skip_the_line_reader(tmp_path, monkeypatch):
    def refuse(path, text, universe):
        raise AssertionError("line reader called")

    monkeypatch.setattr(listsep.cli, "_lists_by_lines", refuse)
    plain = format_lists(ListAssignment.from_sets([{1, 5}, {2}, {5, 7, 9}]))
    assert plain == "0: 1 5\n1: 2\n2: 5 7 9\n"
    want = (ListAssignment.from_sets([{0, 2}, {1}, {2, 3, 4}]), (1, 2, 5, 7, 9))
    for name, text, universe in [("p.l", plain, None), ("p10.l", plain, 10),
                                 ("pcrlf.l", plain.replace("\n", "\r\n"), None)]:
        assert parse_lists_file(write(tmp_path, name, text), universe) == want
    for name, text, universe in [
            ("pc.l", "# lists\n" + plain, None), ("empty.l", "", None),
            ("p9.l", plain, 9), ("p0.l", plain, 0), ("swap.l", "1: 2\n0: 1 5\n", None),
            ("zero.l", "0: 01\n", None), ("space.l", "0:  1\n", None)]:
        with pytest.raises(AssertionError, match="line reader called"):
            parse_lists_file(write(tmp_path, name, text), universe)


@pytest.mark.parametrize(
    "content,universe,line,fragment",
    [
        ("0: 1\n1 2\n", None, 2, "expected 'v: colors'"),
        ("0: 1\n1: x\n", None, 2, "non-integer entry"),
        ("0: 1\n-1: 2\n", None, 2, "negative vertex -1"),
        ("0: 1\n0: 2\n", None, 2, "vertex 0 listed twice"),
        ("0: 1\n1:\n", None, 2, "vertex 1 has an empty list"),
        ("# lists\n0: 1\n1: 2 -3\n2: 1\n", None, 3, "negative color -3"),
        ("0: 1\n2: 1\n", None, 2, "vertex 2 out of range for 2 lists"),
        ("1000000000000: 1\n", None, 1, "vertex 1000000000000 out of range"),
        ("# lists\n0: 1\n1: 3\n", 2, 3, "uses a color >= universe 2"),
        ("# lists\n0: 1\n1: 3\n", 0, 2, "universe must contain at least one"),
        pytest.param("0: 1 " + "1" * 5000 + "\n", None, 1, "number has too many digits",
                     id="5000-digit-color"),
        pytest.param("1" * 5000 + ": 1\n", None, 1, "number has too many digits",
                     id="5000-digit-vertex"),
        pytest.param("0: 1\n1: " + "x" * 5000 + "\n", None, 2,
                     "non-integer entry in '1: xxx", id="5000-char-entry"),
        pytest.param("0: 1\n" + "1" * 5000 + "\n", None, 2,
                     "expected 'v: colors', got '111", id="5000-char-line"),
        # a number int() converts is printed by a short prefix only
        pytest.param("-" + "1" * 4000 + ": 1\n", None, 1,
                     f"negative vertex -{'1' * 19}...", id="4000-digit-negative-vertex"),
        pytest.param("0: 1\n" + "1" * 4000 + ": 1\n", None, 2,
                     f"vertex {'1' * 20}... out of range for 2 lists",
                     id="4000-digit-vertex"),
        pytest.param("0: -" + "1" * 4000 + "\n", None, 1,
                     f"negative color -{'1' * 19}...", id="4000-digit-negative-color"),
        pytest.param("0: " + "2" * 4000 + "\n", int("1" * 4000), 1,
                     f"universe {'1' * 20}...", id="4000-digit-universe"),
    ],
)
def test_parse_lists_rejects(tmp_path, capsys, content, universe, line, fragment):
    path = write(tmp_path, "bad.txt", content)
    with pytest.raises(ParseError) as err:
        parse_lists_file(path, universe)
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert fragment in str(err.value)
    assert len(str(err.value)) < len(path) + 100
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    flags = [] if universe is None else ["--universe", str(universe)]
    assert main(["solve", g, path, *flags]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_roundtrip_gadget(tmp_path):
    inst = build_gadget35()
    gpath = write(tmp_path, "g.txt", format_graph(inst.graph))
    lpath = write(tmp_path, "l.txt", format_lists(inst.lists))
    assert parse_graph_file(gpath) == inst.graph
    assert parse_lists_file(lpath)[0] == inst.lists


def test_solve_exit_codes(tmp_path):
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    sat = write(tmp_path, "sat.txt", "0: 1\n1: 2\n")
    unsat = write(tmp_path, "unsat.txt", "0: 1\n1: 1\n")
    assert main(["solve", g, sat]) == EXIT_OK
    assert main(["solve", g, unsat]) == EXIT_NEGATIVE


def test_solve_prints_the_files_colors(tmp_path, capsys):
    # Colors are searched by rank, so a huge one allocates nothing, and the
    # witness names each color as the list file does.
    one = write(tmp_path, "one.txt", "1 0\n")
    huge = write(tmp_path, "huge.txt", "0: 1000000000000\n")
    tracemalloc.start()
    try:
        assert main(["--format", "machine", "solve", one, huge]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "witness=0:1000000000000" in capsys.readouterr().out.splitlines()
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    lists = write(tmp_path, "l.txt", "0: 7 40000000\n1: 7\n")
    assert main(["--format", "machine", "solve", g, lists]) == EXIT_OK
    assert "witness=0:40000000,1:7" in capsys.readouterr().out.splitlines()


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


def test_module_out_of_memory_on_import_is_a_resource_limit(tmp_path):
    """`python -m listsep` exits 3, not 1, when importing the command line
    raises MemoryError; a `sitecustomize` hook raises it for `listsep.cli`."""
    write(tmp_path, "sitecustomize.py", (
        "import sys\n"
        "class NoMemoryForCli:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'listsep.cli':\n"
        "            raise MemoryError\n"
        "sys.meta_path.insert(0, NoMemoryForCli())\n"
    ))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    run = subprocess.run(
        [sys.executable, "-m", "listsep", "--format", "machine",
         "construct", "book", "--k", "2", "--t", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (
        EXIT_RESOURCE, "", "error: out of memory\n")


def test_internal_error_is_not_a_negative_verdict(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(listsep.cli, "solve", broken)
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    lists = write(tmp_path, "l.txt", "0: 1\n1: 2\n")
    assert main(["solve", g, lists]) == EXIT_INTERNAL
    assert "internal error: RuntimeError: solver fault" in capsys.readouterr().err


def test_running_out_of_memory_is_a_resource_limit(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(listsep.cli, "greedy_kernel", exhausted)
    g = write(tmp_path, "k2.txt", "2 1\n0 1\n")
    assert main(["kernel", g, "--k", "2"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


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
    witness, _ = parse_lists_file(str(out))
    assert len(witness) == 5
    assert (
        main(["check-choosable", c5, "--k", "2", "--t", "2", "--max-nodes", "2"])
        == EXIT_RESOURCE
    )
    # The certificate's DP runs along all 1,200 edges, and on the odd cycle,
    # which has none, the enumeration walks all 1,201 core vertices deep to
    # its witness, neither of them recursing.
    for n, code in ((1200, EXIT_OK), (1201, EXIT_NEGATIVE)):
        cycle = write(tmp_path, f"c{n}.txt", format_graph(cycle_graph(n)))
        assert (
            main(["check-choosable", cycle, "--k", "2", "--t", "2",
                  "--max-nodes", "20000"])
            == code
        )


def test_unwritable_witness_path_prints_no_verdict(tmp_path, capsys):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n1 2\n2 3\n3 0\n")
    c5 = write(tmp_path, "c5.txt", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    bad = tmp_path / "missing" / "w.l"
    argv = ["--format", "machine", "check-choosable", "--k", "2", "--t", "2",
            "--emit-witness", str(bad)]
    assert main(argv + [c5]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # A CHOOSABLE decision has no witness to write, so the path goes unused.
    assert main(argv + [c4]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "verdict=CHOOSABLE"
    assert not bad.parent.exists()


def wheel_hub_last(rim: int) -> Graph:
    """The wheel on the cycle 0..rim-1, with the hub rim last."""
    return Graph(rim + 1, [(v, (v + 1) % rim) for v in range(rim)]
                 + [(v, rim) for v in range(rim)])


@pytest.mark.parametrize("rim, lines", [
    # The whole-graph certificate decides W6.
    (6, ["verdict=CHOOSABLE", "assignments_tested=0", "solves=0", "nodes=47",
         "certificate=alon-tarsi"]),
    # W5 has none: its level tests rule out every tight assignment.
    (5, ["verdict=CHOOSABLE", "assignments_tested=0", "solves=0",
         "nodes=4069403"]),
])
def test_wheels_with_the_hub_last_at_3_6(tmp_path, capsys, rim, lines):
    wheel = write(tmp_path, "w.g", format_graph(wheel_hub_last(rim)))
    argv = ["--format", "machine", "check-choosable", wheel, "--k", "3", "--t", "6"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == lines


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


def test_construct_gadget35_and_print(tmp_path, capsys):
    g, lists = str(tmp_path / "g35.txt"), str(tmp_path / "l35.txt")
    argv = ["construct", "gadget35", "--out-graph", g, "--out-lists", lists]
    assert main(["--format", "machine", *argv]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert {"n=47", "m=126", "k=3", "t=5"} <= set(lines)
    assert main(["solve", g, lists]) == EXIT_NEGATIVE
    capsys.readouterr()
    argv = ["--format", "machine", "verify-witness", g, lists, "--k", "3", "--t", "5"]
    assert main(argv) == EXIT_OK
    assert "confirmed=true" in capsys.readouterr().out.splitlines()
    argv = ["--format", "machine", "construct", "book", "--k", "2", "--t", "2"]
    assert main(argv) == EXIT_OK
    assert "note=built at t'=3" in capsys.readouterr().out.splitlines()
    # Without --out-* files, construct prints the instance itself.
    assert main(["construct", "book", "--k", "2", "--t", "3"]) == EXIT_OK
    inst = build_book(2, 3)
    assert capsys.readouterr().out.endswith(
        "-- graph --\n" + format_graph(inst.graph)
        + "-- lists --\n" + format_lists(inst.lists)
    )


@pytest.mark.parametrize("k,t", [("10", "30"), ("1000000000", "1000000000")])
def test_construct_rejects_huge_books(capsys, k, t):
    assert main(["construct", "book", "--k", k, "--t", t]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: book({k},{t}) has more than 100000 vertices\n"


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


def test_audit_tuples_reads_the_golden_file_first(tmp_path, capsys):
    assert main(["audit-tuples", "--golden", str(tmp_path / "missing")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing" in captured.err


def test_audit_tuples_runs_the_integer_cross_check(capsys, monkeypatch):
    # The scaled path disagreeing on a single row fails the whole audit.
    scaled = listsep.tuple_audit.fails_ineq1_scaled
    monkeypatch.setattr(listsep.tuple_audit, "fails_ineq1_scaled",
                        lambda rec: rec.counts != (0, 0, 0, 3) and scaled(rec))
    assert main(["audit-tuples"]) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert out.count("fails (1)") == 76
    assert "(0,0,0,3) VIOLATES" in out
    assert "overall: FAIL" in out


def test_machine_output_is_stable(capsys, tmp_path, monkeypatch):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n1 2\n2 3\n3 0\n")
    argv = ["--format", "machine", "check-choosable", c4, "--k", "2", "--t", "2"]
    # An Alon-Tarsi certificate, then the enumeration it saves: 17 tight
    # assignments, of which a pooled coloring settled 9. The human format
    # prints the same keys and values.
    for lines in (["verdict=CHOOSABLE", "assignments_tested=0", "solves=0",
                   "nodes=9", "certificate=alon-tarsi"],
                  ["verdict=CHOOSABLE", "assignments_tested=17", "solves=8",
                   "nodes=175"]):
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines() == lines
        assert main(argv[2:]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            line.replace("=", ": ") for line in lines]
        no_certificate(monkeypatch)


def test_mad_and_sparse_and_kernel(tmp_path, capsys):
    k5 = write(tmp_path, "k5.txt", format_graph(
        complete_graph(5)))
    assert main(["mad", k5]) == EXIT_OK
    assert "4" in capsys.readouterr().out
    assert main(["--format", "machine", "mad", k5]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["mad=4", "witness=0,1,2,3,4", "flow_calls=1"]
    # K4 on 0-3 beside C5 on 4-8: the whole graph is the 2-core, so the
    # first flow finds the K4 and a second shows nothing is denser.
    k4c5 = write(tmp_path, "k4c5.txt", format_graph(Graph(9, [
        *((u, v) for u in range(4) for v in range(u + 1, 4)),
        *((4 + i, 4 + (i + 1) % 5) for i in range(5))])))
    assert main(["--format", "machine", "mad", k4c5]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["mad=3", "witness=0,1,2,3", "flow_calls=2"]
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


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("command", [["kernel"], ["check-choosable", "--t", "3"]])
def test_k_below_one_is_a_usage_error(tmp_path, capsys, command, k):
    g = write(tmp_path, "p4.txt", format_graph(path_graph(4)))
    assert main([command[0], g, "--k", k, *command[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be at least 1\n"


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
    assert main(["prop31-suite", "--count", "1", "--max-n", "100"]) == EXIT_OK


@pytest.mark.parametrize("flags,message", [
    (["--count", "-3"], "count must be at least 1, got -3"),
    (["--count", "0"], "count must be at least 1, got 0"),
    (["--max-n", "3"], "max_n must be at least 4, got 3"),
    (["--max-n", "101"], "max_n must be at most 100, got 101"),
])
def test_suite_rejects_bad_input(capsys, flags, message):
    assert main(["prop31-suite", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_usage_errors():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["solve", "/nonexistent/graph", "/nonexistent/lists"]) == EXIT_USAGE


# Tokens a hand-written file can carry where a number belongs.
STRAY_TOKENS = ("x", "-1", "1.5", "+2", "0x1", "9" * 30, ":", "#", "1:")


def damaged(rng: random.Random, lines: list[str]) -> str:
    """lines as file text, with blank, comment and dropped lines, stray
    tokens and \\r\\n line ends mixed in at random."""
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(("", "   ", "# note", "#")))
        if rng.random() < 0.05:
            tokens = line.split()
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(STRAY_TOKENS))
            line = " ".join(tokens)
        if rng.random() > 0.03:
            out.append(line)
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(out) + (end if rng.random() < 0.8 else "")


def fuzz_graph_lines(rng: random.Random) -> tuple[int, list[str]]:
    """A random graph file's lines, sometimes with a bad count, an
    out-of-range id, a self-loop or a duplicate edge; and its n."""
    n = rng.randint(0, 7)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < rng.choice((0.3, 0.6, 0.9))]
    m = len(edges)
    if rng.random() < 0.1:
        n += rng.choice((-1, 1))
    if rng.random() < 0.1:
        m += rng.choice((-1, 1))
    if edges and rng.random() < 0.15:
        u, v = rng.choice(((-1, 0), (0, n), (n + 3, 1), (0, 0), edges[0][::-1]))
        edges[rng.randrange(len(edges))] = (u, v)
    return n, [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]


def fuzz_list_lines(rng: random.Random, n: int) -> list[str]:
    """List lines for about n vertices, sometimes empty, negative or out of
    range."""
    lines = []
    for v in range(max(0, n + rng.choice((0, 0, 0, -1, 1)))):
        colors = rng.sample(range(8), rng.randint(0, 4) if rng.random() < 0.1
                            else rng.randint(1, 4))
        if rng.random() < 0.05:
            colors.append(-rng.randint(1, 3))
        lines.append(f"{v}: " + " ".join(map(str, colors)))
    if rng.random() < 0.1:
        lines.append(f"{rng.choice((-1, n, n + 2))}: 1")
    if rng.random() < 0.3:
        rng.shuffle(lines)
    return lines


def test_fuzzed_files_never_exit_4(tmp_path, capsys):
    # Well-formed and malformed files through every command that reads them.
    rng = random.Random("cli-fuzz")
    graph, lists = str(tmp_path / "fuzz.g"), str(tmp_path / "fuzz.l")
    for _ in range(300):
        n, graph_lines = fuzz_graph_lines(rng)
        Path(graph).write_text(damaged(rng, graph_lines), encoding="utf-8", newline="")
        Path(lists).write_text(damaged(rng, fuzz_list_lines(rng, n)),
                               encoding="utf-8", newline="")
        k, t = str(rng.randint(0, 4)), str(rng.randint(-1, 8))
        budget = ["--max-nodes", str(rng.choice((50, 2_000)))]
        fmt = ["--format", rng.choice(("human", "machine"))]
        for command in (["solve", graph, lists, *budget],
                        ["verify-witness", graph, "--k", k, "--t", t, lists, *budget],
                        ["check-choosable", graph, "--k", k, "--t", t, *budget],
                        ["mad", graph],
                        ["kernel", graph, "--k", k],
                        ["find-reducible", graph, "--k", k, "--t", t]):
            code = main(fmt + command)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_RESOURCE), (
                command, Path(graph).read_text(encoding="utf-8"),
                Path(lists).read_text(encoding="utf-8"), err)
