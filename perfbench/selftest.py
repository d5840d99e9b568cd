"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: one pass of every workload with its heavy ops left out; every
   op must pass its check.
2. The checker must flag a tampered witness and a wrong verdict.
3. Deterministic counts must repeat exactly: solve on gadget35 takes
   1,860,101 nodes; check-choosable on K3,3 at (3,5) tests 216 assignments
   in 290,930 nodes; K5 at (3,5) with a 2M-node budget tests 2,156
   assignments. These pin the current program: a change that moves them
   must say so.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

run._require_source()

import checks      # noqa: E402  (needs the source path set up above)
import workloads   # noqa: E402

EXPECTED_COUNTS = (
    # (label, graph, argv after the graph file, expected machine keys)
    ("gadget35 solve", "gadget35", ["solve"], {"verdict": "UNSAT", "nodes": "1860101"}),
    ("K3,3 at (3,5)", "K33", ["check-choosable", "--k", "3", "--t", "5"],
     {"verdict": "CHOOSABLE", "assignments_tested": "216", "nodes": "290930"}),
    ("K5 at (3,5), 2M budget", "K5",
     ["check-choosable", "--k", "3", "--t", "5", "--max-nodes", "2000000"],
     {"verdict": "RESOURCE_LIMIT", "assignments_tested": "2156"}),
)


class SelfTest:
    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.runner = run.Runner()
        self.problems: list[str] = []

    def expect(self, condition: bool, what: str) -> None:
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            self.problems.append(what)

    def smoke(self) -> None:
        for workload in run.WORKLOADS:
            subdir = os.path.join(self.workdir, workload)
            os.makedirs(subdir)
            ops = [op for op in workloads.build(workload, 0, subdir) if not op.heavy]
            before = self.runner.failed
            self.runner.run_pass(ops)
            self.expect(self.runner.failed == before and ops,
                        f"smoke pass of {workload}: {len(ops)} ops checked")

    def _op(self, workload: str, label: str):
        subdir = os.path.join(self.workdir, f"tamper-{workload}")
        if not os.path.isdir(subdir):
            os.makedirs(subdir)
        return next(op for op in workloads.build(workload, 0, subdir)
                    if op.label == label)

    def _flags(self, op, code: int, stdout: str) -> bool:
        return checks.check(op, code, stdout, None).failed

    def tamper(self) -> None:
        sat = self._op("refute", "solve colourable0")
        _, code, stdout, _ = self.runner.call(sat)
        self.expect(not self._flags(sat, code, stdout), "untouched SAT witness passes")
        kv = checks.parse_machine(stdout)
        pairs = [item.split(":") for item in kv["witness"].split(",")]
        outside = next(c for c in range(8) if c not in sat.lists[0])
        pairs[0][1] = str(outside)
        bad = stdout.replace(kv["witness"], ",".join(":".join(p) for p in pairs))
        self.expect(self._flags(sat, code, bad), "SAT witness with a colour outside its list is flagged")
        u, v = sat.edges[0]
        common = set(sat.lists[u]) & set(sat.lists[v])
        if common:
            coloring = dict((int(a), b) for a, b in (item.split(":") for item in kv["witness"].split(",")))
            coloring[u] = coloring[v] = str(min(common))
            clash = ",".join(f"{w}:{coloring[w]}" for w in sorted(coloring))
            self.expect(self._flags(sat, code, stdout.replace(kv["witness"], clash)),
                        "SAT witness with a monochromatic edge is flagged")

        unsat = self._op("refute", "solve gadget35-r0")
        self.expect(self._flags(unsat, 0, "verdict=SAT\nnodes=1\nwitness=0:0\n"),
                    "SAT verdict on an UNSAT instance is flagged")

        c5 = self._op("decide", "decide C5-r0")
        _, code, stdout, _ = self.runner.call(c5)
        self.expect(not self._flags(c5, code, stdout), "untouched NOT_CHOOSABLE witness passes")
        with open(c5.witness_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{v}: {2 * v} {2 * v + 1}\n" for v in range(c5.n))
        self.expect(self._flags(c5, code, stdout), "colourable NOT_CHOOSABLE witness is flagged")
        self.expect(self._flags(c5, 0, "verdict=CHOOSABLE\n"), "CHOOSABLE verdict on C5 is flagged")

        mad = self._op("sparse", "mad small12")
        _, code, stdout, _ = self.runner.call(mad)
        self.expect(not self._flags(mad, code, stdout), "untouched mad output passes")
        kv = checks.parse_machine(stdout)
        members = kv["witness"].split(",")
        self.expect(self._flags(mad, code, stdout.replace(kv["witness"], ",".join(members[:-1]))),
                    "mad witness whose density differs from the value is flagged")

        kernel = self._op("sparse", "kernel tree150")
        _, code, stdout, _ = self.runner.call(kernel)
        self.expect(not self._flags(kernel, code, stdout), "untouched kernel order passes")
        order = checks.parse_machine(stdout)["removal_order"]
        reversed_order = ",".join(reversed(order.split(",")))
        self.expect(self._flags(kernel, code, stdout.replace(order, reversed_order)),
                    "kernel order that does not replay is flagged")

    def counts(self) -> None:
        from listsep.constructions import build_gadget35
        from listsep.graph import complete_bipartite_graph, complete_graph

        files = workloads._Files(self.workdir)
        gadget = build_gadget35()
        graphs = {
            "gadget35": gadget.graph,
            "K33": complete_bipartite_graph(3, 3),
            "K5": complete_graph(5),
        }
        lists_path = files.lists("gadget35", workloads._instance_lists(gadget))
        for label, graph_name, argv, expected in EXPECTED_COUNTS:
            g = graphs[graph_name]
            gpath = files.graph(graph_name, g.n, g.edges())
            args = [argv[0], gpath, *([lists_path] if argv[0] == "solve" else []), *argv[1:]]
            op = workloads.Op(label, argv[0], args, g.n, g.edges())
            _, _, stdout, error = self.runner.call(op)
            got = checks.parse_machine(stdout)
            same = error is None and all(got.get(k) == v for k, v in expected.items())
            self.expect(same, f"{label}: {expected} (got {got.get('nodes')} nodes, "
                              f"{got.get('assignments_tested')} assignments)")


def main() -> int:
    workdir = os.path.join(run.RUN_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        test = SelfTest(workdir)
        test.smoke()
        test.tamper()
        test.counts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(test.problems)} problem(s)")
    return 1 if test.problems else 0


if __name__ == "__main__":
    sys.exit(main())
