"""h2body benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 it starts SETUP_PROBES
fresh interpreters that only set up (import h2body.cli, make the inputs,
warm up) and then one workload process that sets up and runs whole rounds
of the workload for S seconds; it reports the end-to-end metrics. With
--trace 1 it starts one process that runs the first round of the workload once
untraced and once traced, and reports the per-layer metrics. Processes run
one after another. The last line of standard output is the result as JSON;
a failed check prints its problems on standard error and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
BUDGET_S = 170.0
# one process, one thread: keep BLAS from starting a thread pool
ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def pick(values: dict, kind: str) -> dict:
    """The "end_to_end" or "per_layer" metrics BENCHMARK.json lists, as
    name -> (value, unit)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise WorkerError(f"the worker reported no {', '.join(missing)}")
    return {name: (values[name], unit) for name, unit in units.items()}


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to its end; its result gains the monotonic
    time at which it was started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ENV}, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran past the {BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerError(f"{mode} worker printed no result: {lines[-1][:200]!r}") from exc
    doc["started"] = started
    return doc


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    probes = [spawn(args, "probe", deadline) for _ in range(SETUP_PROBES)]
    main = spawn(args, "measure", deadline)
    setups = [d["ready"] - d["started"] for d in probes + [main]]
    metrics = pick({**main, "setup_s": statistics.median(setups)}, "end_to_end")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)
    print(f"timed phase: {main['rounds']} rounds in {main['wall_s']:.2f} s", file=sys.stderr)
    return main, metrics


def traced(args, deadline: float) -> tuple[dict, dict]:
    doc = spawn(args, "trace", deadline)
    metrics = pick(doc["per_layer"], "per_layer")
    print(f"traced round: untraced {doc['untraced_s']:.4f} s, "
          f"traced {doc['traced_s']:.4f} s; spans in {doc['trace_file']}", file=sys.stderr)
    return doc, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "h2body", "cli.py")):
        print(f"error: no h2body sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        doc, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops attempted {doc['attempted']}, failed {doc['failed']}")
    for note in doc["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for problem in doc["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not doc["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
