"""One workload process: import the program, make the inputs, warm up, then
either stop (a set-up probe), run the timed phase, or run the traced round.

Run by run.py in a fresh interpreter; prints one JSON object as its last
line. Usage:

    python3 perfbench/worker.py --workload NAME --seed N --mode probe|measure|trace
                                [--seconds S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import tracing  # noqa: E402  (standard library only)

# The benchmark's checks need numpy (workloads, oracle). main() imports them
# only after the timed import of h2body.cli, so that cli.import_s is the
# program's own import cost, numpy included.
workloads = None


def import_program():
    """Import h2body.cli from this checkout's src/, timing the import."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    if "numpy" in sys.modules:
        raise SystemExit("numpy was loaded before the timed import of h2body.cli")
    start = time.perf_counter()
    import h2body.cli as cli
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        raise SystemExit(f"h2body was imported from {cli.__file__}, not from {src}")
    return cli, import_s


class Runner:
    """Calls cli.main on each operation and checks what it produced."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[float] = []
        self.round_rates: list[float] = []
        self.items = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.json_bytes = 0
        self.csv_bytes = 0

    def call(self, op: workloads.Op) -> tuple[workloads.Result, float]:
        outdir = op.argv[op.argv.index("--out") + 1] if "--out" in op.argv else None
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a bare traceback is exit 1 for a user
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=err)
            elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        return workloads.Result(code, out.getvalue(), err.getvalue(), outdir), elapsed

    def run(self, op: workloads.Op) -> float:
        res, elapsed = self.call(op)
        self.attempted += 1
        cmd = " ".join(op.argv)
        self.json_bytes += len(res.stdout.encode())
        if res.outdir is not None:
            for name, attr in (("trajectory.csv", "csv_bytes"), ("conservation.json", "json_bytes")):
                path = os.path.join(res.outdir, name)
                if os.path.exists(path):
                    setattr(self, attr, getattr(self, attr) + os.path.getsize(path))
        if res.code != 0:
            self.failed += 1
            if op.known_fault is None:
                self.problems.append(f"{cmd}: exit {res.code}: {res.stderr.strip()}")
            return elapsed
        if op.known_fault is not None:
            self.notes.append(f"known fault no longer fails: {cmd}")
        self.items += op.items
        try:
            problems = op.check(res)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {type(exc).__name__}: {exc}"]
        self.problems += [f"{cmd}: {p}" for p in problems]
        return elapsed

    def round(self, wl: workloads.Workload, r: int) -> float:
        """Run round r; returns its call time and records its rate."""
        items = self.items
        call_time = sum(self.run(op) for op in wl.round_ops(r))
        self.round_rates.append((self.items - items) / call_time)
        return call_time


def warm_up(runner: Runner, wl: workloads.Workload) -> None:
    for op in wl.warmup:
        res, _ = runner.call(op)
        if res.code != 0:
            raise SystemExit(f"warm-up {' '.join(op.argv)} exited {res.code}: {res.stderr.strip()}")
    runner.latencies.clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, wl: workloads.Workload, seconds: float) -> dict:
    start = time.perf_counter()
    r = 0
    while True:
        runner.round(wl, r)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "rounds": r,
        "wall_s": time.perf_counter() - start,
        "call_p50_s": statistics.median(runner.latencies),
        # the median round, so that a slow spell of the host moves it less
        "items_per_s": statistics.median(runner.round_rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(runner: Runner, wl: workloads.Workload, cli_import_s: float, trace_path: str) -> dict:
    """Round 0 once untraced, then once traced: a fixed amount of work, so
    the counts repeat exactly."""
    plain = Runner(runner.cli)
    untraced_s = plain.round(wl, 0)
    tracer = tracing.Tracer()
    with tracer.patched():
        traced_s = runner.round(wl, 0)
    tracer.write(trace_path)
    # both passes count as attempted work, so their failures count too
    for attr in ("attempted", "failed", "problems", "notes"):
        setattr(runner, attr, getattr(runner, attr) + getattr(plain, attr))
    metrics = tracing.per_layer(tracer)
    metrics.update({
        "cli.import_s": cli_import_s,
        "cli.json.bytes": runner.json_bytes,
        "sim.csv.bytes": runner.csv_bytes,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return {"untraced_s": untraced_s, "traced_s": traced_s, "per_layer": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    cli, import_s = import_program()
    global workloads
    import workloads
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli)
        warm_up(runner, wl)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        doc = {"ready": ready, "import_s": import_s}
        if args.mode == "measure":
            doc.update(measure(runner, wl, args.seconds))
        elif args.mode == "trace":
            trace_path = os.path.join(OUT, f"trace-{args.workload}.csv")
            doc.update(traced(runner, wl, import_s, trace_path))
            doc["trace_file"] = os.path.relpath(trace_path, ROOT)
        doc.update({
            "attempted": runner.attempted,
            "failed": runner.failed,
            "problems": runner.problems,
            "notes": runner.notes,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
