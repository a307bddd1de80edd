"""Tests of the benchmark itself: every output check passes a true output
and rejects a corrupted one, the oracles hold their own identities, and the
tracer counts, nests and restores what it wraps.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from h2body import cli  # noqa: E402


def call(argv, outdir=None) -> W.Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return W.Result(code, out.getvalue(), err.getvalue(), outdir)


def with_doc(res: W.Result, edit) -> W.Result:
    doc = json.loads(res.stdout)
    edit(doc)
    return W.Result(res.code, json.dumps(doc), res.stderr, res.outdir)


# -- oracle --------------------------------------------------------------

def test_threshold_at_equal_masses_is_one_over_root_three():
    assert oracle.threshold_u0(1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)


def test_rigid_rotation_closes_after_one_period():
    d1, c = 0.3, 2.0
    start = oracle.elliptic_initial_state(d1, c)
    w = math.sqrt(oracle.omega2(d1, c))
    ends = oracle.rigid_rotation(start["x1"], start["y1"], w, [0.0, 2.0 * math.pi / w])
    assert np.allclose(ends[0], ends[1], rtol=0, atol=1e-13)
    assert np.allclose(ends[0], [start["x1"], start["y1"]], rtol=0, atol=1e-15)


def test_exact_motion_conserves_energy_and_momentum():
    d1, c = 0.4, 0.5
    start = oracle.elliptic_initial_state(d1, c)
    w = math.sqrt(oracle.omega2(d1, c))
    t = np.linspace(0.0, 7.0, 11)
    q1 = oracle.rigid_rotation(start["x1"], start["y1"], w, t)
    q2 = oracle.rigid_rotation(start["x2"], start["y2"], w, t)
    cols = [q1[:, 0], q1[:, 1], q2[:, 0], q2[:, 1]]
    # momenta of the motion: m / y^2 times the rotation velocity at rate w
    for q, m in ((q1, c), (q2, 1.0)):
        v = -0.5 * w * ((q[:, 0] + 1j * q[:, 1]) ** 2 + 1.0)
        cols += [m * v.real / q[:, 1] ** 2, m * v.imag / q[:, 1] ** 2]
    states = np.column_stack(cols)
    assert oracle.separation(states) == pytest.approx(d1 + oracle.partner_d2(d1, c), rel=1e-13)
    e = oracle.energy(states, c, 1.0, 1.0)
    j = oracle.momentum_map(states)
    assert np.ptp(e) < 1e-13 and np.max(np.ptp(j, axis=0)) < 1e-13


# -- perturb checks ------------------------------------------------------

@pytest.fixture(scope="module")
def perturb_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("perturb"))
    out = {}
    for name in ("perturb_stable", "perturb_unstable"):
        op = W.build(name, 3, workdir).round_ops(0)[0]
        argv = list(op.argv)
        with open(argv[2]) as f:
            scenario = json.load(f)
        scenario["protocol"]["n_trials"] = 1
        path = os.path.join(workdir, f"{name}-one.json")
        with open(path, "w") as f:
            json.dump(scenario, f)
        argv[2] = path
        seed = int(argv[-1])
        res = call(argv)
        d1 = math.atanh(W.PERTURB_U[name])
        out[name] = (res, lambda r, stable=name == "perturb_stable", d1=d1, seed=seed:
                     W.check_perturb(r, stable=stable, d1=d1, n_trials=1, seed=seed))
    return out


def test_perturb_stable_passes_and_rejects_corruption(perturb_outputs):
    res, check = perturb_outputs["perturb_stable"]
    assert res.code == 0 and check(res) == []

    def escaped(doc):
        doc["trials"][0]["escaped"] = True
        doc["n_escaped"] = 1

    def outside_band(doc):
        doc["trials"][0]["max_distance_deviation"] = 2 * W.STABLE_BAND

    def errored(doc):
        doc["trials"][0]["error"] = "collision"

    def short(doc):
        doc["protocol"]["horizon"] *= 0.5

    for edit in (escaped, outside_band, errored, short):
        assert check(with_doc(res, edit)), edit.__name__


def test_perturb_unstable_passes_and_rejects_corruption(perturb_outputs):
    res, check = perturb_outputs["perturb_unstable"]
    assert res.code == 0 and check(res) == []

    def stayed(doc):
        doc["trials"][0]["escaped"] = False
        doc["n_escaped"] = 0

    def late(doc):
        doc["trials"][0]["escape_time"] = doc["protocol"]["horizon"] * 1.01

    def errored(doc):
        doc["trials"][0]["error"] = "step_underflow"

    for edit in (stayed, late, errored):
        assert check(with_doc(res, edit)), edit.__name__


# -- orbit checks --------------------------------------------------------

@pytest.fixture()
def orbit(tmp_path):
    d1, c = math.atanh(0.3), 0.5
    period = oracle.elliptic_period(d1, c)
    t_end, dt = 2 * period, period / 10
    scenario = W.write_orbit_scenario(str(tmp_path / "s.json"), d1, c, t_end, dt)
    outdir = str(tmp_path / "out")
    res = call(["simulate", "--scenario", scenario, "--out", outdir], outdir)
    assert res.code == 0

    def check():
        return W.check_orbit(res, d1=d1, c=c, t_end=t_end, dt=dt)

    return outdir, check


def _edit_csv(outdir, row, col, factor):
    path = os.path.join(outdir, "trajectory.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    fields = lines[2 + row].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[2 + row] = ",".join(fields)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def test_orbit_passes_a_true_output(orbit):
    _, check = orbit
    assert check() == []


@pytest.mark.parametrize("col, factor", [
    (1, 1 + 1e-3),          # x1 off the rigid rotation
    (6, 1 + 1e-6),          # py1: energy and momentum columns no longer match
    (9, 1 + 1e-11),         # energy column nudged past rounding
    (11, 1 + 1e-11),        # Je column nudged past rounding
    (13, 1 + 1e-11),        # dist column nudged
])
def test_orbit_rejects_a_nudged_value(orbit, col, factor):
    outdir, check = orbit
    _edit_csv(outdir, 7, col, factor)
    assert check()


def test_orbit_rejects_a_dropped_row_and_a_wrong_report(orbit):
    outdir, check = orbit
    report = os.path.join(outdir, "conservation.json")
    with open(report) as f:
        doc = json.load(f)
    doc["drift"]["energy"] *= 2.0
    with open(report, "w") as f:
        json.dump(doc, f)
    assert any("drift.energy" in p for p in check())
    path = os.path.join(outdir, "trajectory.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(lines[:-1]) + "\n")
    assert any("samples" in p for p in check())


# -- classify checks -----------------------------------------------------

@pytest.mark.parametrize("family", ["elliptic", "hyperbolic"])
def test_equilibrium_check(family):
    d1, c = 0.3, 2.5
    res = call(["equilibrium", family, repr(d1), "--m1", repr(c), "--m2", "1"])

    def check(r):
        return W.check_equilibrium(r, family=family, d1=d1, c=c)

    assert res.code == 0 and check(res) == []

    def flipped(doc):
        v = doc["stability"]["verdict"]
        doc["stability"]["verdict"] = "unstable" if v == "stable" else "stable"

    def rate(doc):
        doc["omega2"] *= 1 + 1e-6

    def intrinsic(doc):
        doc["intrinsic"]["ok"] = False

    for edit in (flipped, rate, intrinsic):
        assert check(with_doc(res, edit)), edit.__name__


@pytest.mark.parametrize("d1", [0.3, 1.2])
def test_stability_check(d1):
    c = 0.7
    res = call(["stability", repr(d1), "--m1", repr(c), "--m2", "1"])

    def check(r):
        return W.check_stability(r, d1=d1, c=c)

    assert res.code == 0 and check(res) == []

    def flipped(doc):
        v = doc["report"]["verdict"]
        doc["report"]["verdict"] = "unstable" if v == "stable" else "stable"

    def disagree(doc):
        doc["oracles_agree"] = False

    def threshold(doc):
        doc["threshold_d1"] *= 1 + 1e-6

    for edit in (flipped, disagree, threshold):
        assert check(with_doc(res, edit)), edit.__name__


def test_grid_keeps_clear_of_the_threshold_and_is_seeded():
    a, b = W.classify_grid(5), W.classify_grid(5)
    assert a == b and a != W.classify_grid(6)
    assert len(a) == W.GRID_D1[2] * W.GRID_C[2]
    assert all(abs(math.tanh(d1) - oracle.threshold_u0(c)) >= W.THRESHOLD_MARGIN for d1, c in a)


def test_known_faults_still_fail():
    codes = [call(list(argv)).code for argv, _ in W.KNOWN_FAULTS]
    assert codes == [5, 2, 2]


# -- tracing -------------------------------------------------------------

def test_patched_wraps_every_caller_name_and_restores_it():
    import h2body.equilibria
    import h2body.sim

    originals = (h2body.sim._field_array, h2body.equilibria.legendre, h2body.sim._collision_event)
    tracer = tracing.Tracer()
    with tracer.patched():
        assert h2body.sim._field_array is not originals[0]
        assert h2body.equilibria.legendre is not originals[1]
        event = h2body.sim._collision_event
        assert event.terminal is True and event.direction == -1
        call(["equilibrium", "elliptic", "0.4"])
    assert (h2body.sim._field_array, h2body.equilibria.legendre, h2body.sim._collision_event) == originals
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["equilibria.build_relative_equilibrium"]["calls"] == 1
    assert totals["dynamics.legendre"]["calls"] > 0
    # every span but cli.main has a parent, and self times add up to the total
    roots = [s for s in tracer.spans if s[1] < 0]
    assert [s[3] for s in roots] == ["cli.main"]
    total = roots[0][5] - roots[0][4]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(total, rel=1e-9)


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(W.NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "items_per_s", "call_p50_s", "peak_rss_mb"}
    # the worker adds these four to what per_layer() derives from the spans
    measured = {"cli.import_s", "cli.json.bytes", "sim.csv.bytes", "trace.overhead_s"}
    produced = set(tracing.per_layer(tracing.Tracer())) | measured
    assert {m["name"] for m in spec["per_layer"]} <= produced


# -- the worker's accounting ---------------------------------------------

class ExitsWith:
    """Stands in for h2body.cli: every call returns one exit code."""

    def __init__(self, code):
        self.code = code

    def main(self, argv):
        print("{}")
        return self.code


def test_an_unexpected_failure_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(worker, "workloads", W)
    grid_op = W.Op(["equilibrium", "elliptic", "0.4"], 1, lambda res: [])
    runner = worker.Runner(ExitsWith(2))
    runner.run(grid_op)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.problems and "exit 2" in runner.problems[0]


def test_a_known_fault_is_failed_but_not_a_failed_check(monkeypatch):
    monkeypatch.setattr(worker, "workloads", W)
    fault = W.Op(list(W.KNOWN_FAULTS[0][0]), 0, lambda res: [], known_fault=W.KNOWN_FAULTS[0][1])
    runner = worker.Runner(ExitsWith(5))
    runner.run(fault)
    assert (runner.attempted, runner.failed, runner.problems) == (1, 1, [])


def test_the_traced_run_counts_failures_of_both_passes(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "workloads", W)
    grid_op = W.Op(["equilibrium", "elliptic", "0.4"], 1, lambda res: [])
    wl = W.Workload("fake", [], lambda r: [grid_op])
    runner = worker.Runner(ExitsWith(2))
    worker.traced(runner, wl, 0.0, str(tmp_path / "trace.csv"))
    assert (runner.attempted, runner.failed, len(runner.problems)) == (2, 2, 2)
