"""listsep benchmark: time to an exact verdict, per workload.

    python3 perfbench/run.py --workload {refute,decide,sparse,all} --seed N \
        --seconds S --trace {0,1}

One process, one thread, one client in a closed loop: each op is an
in-process `listsep.cli.main([... "--format", "machine"])` call and the next
op starts only when the previous one has returned. After each op, outside
the timed region, its exit code and machine keys are checked against the
op's known answer (see checks.py). Op and set-up times are CPU times
scaled to a reference machine speed sampled all through the run (see
speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same passes
untraced and then traced, and prints the per-layer metrics from the spans
(see spans.py). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Inputs are written under
.perfbench_run/ in the checkout and removed at exit; the span trace of a
traced run is kept there.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, process_time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

WORKLOADS = ("refute", "decide", "sparse")
MIN_PASSES = 3          # per measured phase
MIN_OPS = 100           # per measured phase; fixes the tail percentile
SETUP_SAMPLES = 5       # set-ups per run, one in this process
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "decided_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "solver.calls": "count",
    "solver.nodes": "count",
    "solver.self_s": "s",
    "solver.nodes_per_s": "1/s",
    "choosability.self_s": "s",
    "choosability.assignments": "count",
    "choosability.enum_steps": "count",
    "choosability.complete_ratio": "ratio",
    "graph.induced_subgraph.calls": "count",
    "graph.induced_subgraph_s": "s",
    "sparsity.mad.calls": "count",
    "sparsity.mad_s": "s",
    "reducibility.kernel_s": "s",
    "reducibility.peel_steps": "count",
    "reducibility.find_reducible_s": "s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "assignments.validity_s": "s",
    "constructions.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _require_source() -> None:
    """The program is built from the checkout's own source, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "listsep", "__init__.py")):
        sys.exit(f"error: no listsep source under {SRC}")
    sys.path.insert(0, SRC)


def _set_up(workload: str, seed: int, workdir: str):
    """Import, constructions, instance generation and file writes; their
    CPU time scaled to reference speed like an op's (see speed.py)."""
    with speed.Sampler() as sampler:
        children = speed.children_cpu_s()
        start = process_time()
        import workloads

        os.makedirs(workdir)
        ops = workloads.build(workload, seed, workdir)
        end = process_time()
        children = speed.children_cpu_s() - children
    return ops, sampler.scale(start, end, children)


def _child_set_up_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so its import is timed too."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


class Runner:
    """Runs ops through the CLI in this process and checks each one."""

    def __init__(self, tracer=None) -> None:
        import checks
        from listsep import cli

        self.cli = cli
        self.check = checks.check
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.failures: list[str] = []
        self.sampler = speed.Sampler()
        self.raw_pass_walls: list[float] = []

    def call(self, op):
        """Run one op; returns ((CPU start, CPU end, children's CPU, wall
        seconds), exit code, stdout, exception)."""
        if op.witness_path and os.path.exists(op.witness_path):
            os.remove(op.witness_path)
        # Every op starts from the same collector state, and the collector
        # does not walk the harness's objects (op lists, checker caches)
        # during the op, as it would not in a process of the op's own.
        gc.collect()
        gc.freeze()
        out, err = io.StringIO(), io.StringIO()
        error = code = None
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer:
                self.tracer.active = True
            wall = perf_counter()
            children = speed.children_cpu_s()
            start = process_time()
            try:
                code = self.cli.main(["--format", "machine", *op.argv])
            except Exception as exc:   # a crash is a failed op, not a harness error
                error = exc
            end = process_time()
            children = speed.children_cpu_s() - children
            wall = perf_counter() - wall
            if self.tracer:
                self.tracer.active = False
        return (start, end, children, wall), code, out.getvalue(), error

    def run_pass(self, ops) -> list[float]:
        """One pass, sampled; returns each op's time at reference speed."""
        timings = []
        with self.sampler:
            for op in ops:
                timing, code, stdout, error = self.call(op)
                timings.append(timing)
                outcome = self.check(op, code, stdout, error)
                self.attempted += 1
                self.decided += outcome.decided
                if outcome.failed:
                    self.failed += 1
                    self.failures.append(f"{op.label}: {outcome.reason}")
        self.raw_pass_walls.append(sum(timing[3] for timing in timings))
        return [self.sampler.scale(*timing[:3]) for timing in timings]

    def run_passes(self, ops, seconds: float) -> tuple[list[float], list[float]]:
        """Whole passes until the next one would overrun `seconds`, and at
        least min_passes(ops) of them."""
        pass_walls: list[float] = []
        op_times: list[float] = []
        start = perf_counter()
        while True:
            times = self.run_pass(ops)
            pass_walls.append(sum(times))
            op_times += times
            spent = perf_counter() - start
            done = len(pass_walls)
            if done >= min_passes(ops) and spent + spent / done > seconds:
                return pass_walls, op_times


def min_passes(ops) -> int:
    return max(MIN_PASSES, math.ceil(MIN_OPS / len(ops)))


def tail_percentile(guaranteed_ops: int) -> float:
    """Highest ladder percentile with at least ten ops beyond it in every run."""
    for p in TAIL_LADDER:
        if guaranteed_ops * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _known_defects(workload: str, workdir: str, runner: Runner) -> dict[str, str]:
    """Inputs that crash today. Each runs once, untimed, and is reported
    here instead of as a benchmark op, so the crash shows in every run."""
    import workloads

    report = {}
    for op in workloads.known_defect_ops(workload, workdir):
        _, code, stdout, error = runner.call(op)
        outcome = runner.check(op, code, stdout, error)
        report[op.label] = outcome.reason if outcome.failed else "ok"
    return report


def _result(runner: Runner, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def measure(workload: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    ops, own_setup = _set_up(workload, seed, workdir)
    setups = [own_setup] + [
        _child_set_up_seconds(workload, seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    runner = Runner()
    defects = _known_defects(workload, workdir, runner)
    pass_walls, op_times = runner.run_passes(ops, seconds)
    tail_p = tail_percentile(min_passes(ops) * len(ops))
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "op_p50_ms": 1000.0 * statistics.median(op_times),
        "op_tail_ms": 1000.0 * percentile(op_times, tail_p),
        "decided_ratio": runner.decided / runner.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"ops_per_pass": len(ops), "passes": len(pass_walls),
            "unscaled_wall_s": statistics.median(runner.raw_pass_walls),
            "probe_speed": statistics.median(runner.sampler.speeds),
            "tail_percentile": tail_p, "known_defects": defects,
            "failures": runner.failures[:10]}
    return _result(runner, metrics, END_TO_END_UNITS), info


def measure_traced(workload: str, seed: int, seconds: float, workdir: str,
                   trace_path: str) -> tuple[dict, dict]:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        ops, _ = _set_up(workload, seed, workdir)
    finally:
        tracer.active = False
        tracer.uninstall()
    runner = Runner()
    defects = _known_defects(workload, workdir, runner)
    plain_walls, _ = runner.run_passes(ops, seconds / 2)
    tracer.install()
    runner.tracer = tracer
    try:
        traced_walls, _ = runner.run_passes(ops, seconds / 2)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, len(traced_walls))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
    )
    tracer.write(trace_path)
    info = {"ops_per_pass": len(ops), "untraced_passes": len(plain_walls),
            "traced_passes": len(traced_walls), "spans": len(tracer.spans),
            "trace_file": os.path.relpath(trace_path, ROOT),
            "known_defects": defects, "failures": runner.failures[:10]}
    return _result(runner, metrics, PER_LAYER_UNITS), info


def _run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{workload}: {json.dumps(result)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)   # timed set-up in a child
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: remove the inputs, kill and reap a child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _require_source()
    if args.workload == "all":
        return _run_all(args)

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            _, elapsed = _set_up(args.workload, args.seed, workdir)
            print(repr(elapsed))
            return 0
        if args.trace:
            trace_path = os.path.join(
                RUN_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
            result, info = measure_traced(args.workload, args.seed, args.seconds,
                                          workdir, trace_path)
        else:
            result, info = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
