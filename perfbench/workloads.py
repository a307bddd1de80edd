"""The four workloads: inputs made from the seed, and the checks on outputs.

A workload is a list of operations per round. An operation is one
``h2body.cli.main`` call; its ``check`` reads what the call printed or
wrote and returns the list of problems it found, judged only against
``oracle`` (never against h2body itself or a stored earlier output).
Every run attempts whole rounds, so the share of failed operations is the
same in every run whatever its length or seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

NAMES = ("perturb_stable", "perturb_unstable", "orbit_long", "classify_sweep")

# AC-10: equal masses, kick 1e-4, 20 periods; tanh d1 below / above 1/sqrt(3)
PERTURB_U = {"perturb_stable": 0.4, "perturb_unstable": 0.8}
# AC-10 runs 50 trials a call. A 50-trial stable call took 36.5 s, longer
# than a run, so perturb_stable runs 10 a call (about 7.5 s); see README.md
PERTURB_TRIALS = {"perturb_stable": 10, "perturb_unstable": 50}
PERTURB_SCALE = 1e-4
PERTURB_PERIODS = 20
STABLE_BAND = 1e-2  # the program's default for the protocol's stable band

# orbit_long: stable elliptic equilibria at these mass ratios, tanh d1 at
# ORBIT_U_SHARE of the threshold with a small seeded jitter
ORBIT_RATIOS = (0.5, 2.0)
ORBIT_U_SHARE = 0.6
ORBIT_JITTER = 0.02
ORBIT_PERIODS = 100
ORBIT_SAMPLES_PER_PERIOD = 50
ORBIT_CHART_TOL = 1e-4      # worst seen at 100 periods is about 4e-6
ORBIT_DRIFT_TOL = 1e-7
ROUNDING_TOL = 1e-12

# classify_sweep: one jittered point per cell of a log grid
GRID_D1 = (0.05, 3.0, 15)
GRID_C = (0.1, 10.0, 20)
THRESHOLD_MARGIN = 0.01    # keep |tanh d1 - u0(c)| at least this
KNOWN_FAULTS = (
    (("stability", "0.01"),
     "exits 5: internal_block_oracle error 2.1e-4, _HESS_STEP scaled by max(1, |q|)"),
    (("equilibrium", "elliptic", "0.001"),
     "exits 2: criticality check in build_relative_equilibrium is absolute"),
    (("equilibrium", "elliptic", "6"),
     "exits 2: intrinsic_checks, point outside a near-vertical HalfCircle"),
)


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    outdir: str | None = None


@dataclass
class Op:
    argv: list[str]
    items: float
    check: Callable[[Result], list[str]]
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    warmup: list[Op]
    round_ops: Callable[[int], list[Op]]


def _close(a, b, rel) -> bool:
    return a is not None and math.isfinite(a) and abs(a - b) <= rel * max(abs(b), 1e-300)


def _doc(res: Result, problems: list[str]):
    try:
        return json.loads(res.stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


# -- perturb -------------------------------------------------------------

def check_perturb(res: Result, *, stable: bool, d1: float, n_trials: int, seed: int) -> list[str]:
    problems: list[str] = []
    doc = _doc(res, problems)
    if doc is None:
        return problems
    proto = doc["protocol"]
    horizon = PERTURB_PERIODS * oracle.elliptic_period(d1, 1.0)
    if not _close(proto["horizon"], horizon, 1e-12):
        problems.append(f"horizon {proto['horizon']!r}, expected {horizon!r}")
    if proto["seed"] != seed or proto["n_trials"] != n_trials or proto["d1"] != d1:
        problems.append(f"protocol does not echo the inputs: {proto}")
    trials = doc["trials"]
    if len(trials) != n_trials:
        problems.append(f"{len(trials)} trials, expected {n_trials}")
    for tr in trials:
        tag = f"trial {tr['trial']}"
        if tr["error"] is not None:
            problems.append(f"{tag}: error {tr['error']!r}")
        dev = tr["max_distance_deviation"]
        if stable:
            if tr["escaped"]:
                problems.append(f"{tag}: escaped at a stable equilibrium")
            if dev is None or not 0.0 < dev < STABLE_BAND:
                problems.append(f"{tag}: max_distance_deviation {dev!r} not in (0, {STABLE_BAND})")
        else:
            t_esc = tr["escape_time"]
            if not tr["escaped"] or t_esc is None or not 0.0 < t_esc < horizon:
                problems.append(f"{tag}: escaped={tr['escaped']}, escape_time {t_esc!r}")
    want_escaped = 0 if stable else n_trials
    if doc["n_escaped"] != want_escaped:
        problems.append(f"n_escaped {doc['n_escaped']}, expected {want_escaped}")
    return problems


def _perturb(name: str, seed: int, workdir: str) -> Workload:
    u = PERTURB_U[name]
    u0 = oracle.threshold_u0(1.0)
    if (u < u0) != (name == "perturb_stable"):
        raise ValueError(f"tanh d1 = {u} is on the wrong side of u0 = {u0}")
    d1 = math.atanh(u)
    n = PERTURB_TRIALS[name]

    def scenario(path, n_trials, periods):
        with open(path, "w") as f:
            json.dump({
                "mode": "perturb",
                "params": {"m1": 1.0, "m2": 1.0, "k": 1.0},
                "equilibrium": {"family": "elliptic", "d1": d1},
                "protocol": {"scale": PERTURB_SCALE, "n_trials": n_trials,
                             "seed": 0, "horizon_periods": periods},
            }, f)
        return path

    main = scenario(os.path.join(workdir, f"{name}.json"), n, PERTURB_PERIODS)
    warm = scenario(os.path.join(workdir, f"{name}-warmup.json"), 1, 1)
    # each round draws its kicks from its own protocol seed
    seeds = random.Random(seed)
    round_seeds: list[int] = []

    def round_ops(r: int) -> list[Op]:
        while len(round_seeds) <= r:
            round_seeds.append(seeds.getrandbits(63))
        s = round_seeds[r]
        return [Op(
            ["perturb", "--scenario", main, "--seed", str(s)],
            items=n,
            check=lambda res, s=s: check_perturb(
                res, stable=name == "perturb_stable", d1=d1, n_trials=n, seed=s),
        )]

    warmup = [Op(["perturb", "--scenario", warm, "--seed", "1"], 1, lambda res: [])]
    return Workload(name, warmup, round_ops)


# -- orbit_long ----------------------------------------------------------

def check_orbit(res: Result, *, d1: float, c: float, t_end: float, dt: float) -> list[str]:
    problems: list[str] = []
    try:
        data = oracle.read_csv(os.path.join(res.outdir, "trajectory.csv"))
        with open(os.path.join(res.outdir, "conservation.json")) as f:
            report = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    n = int(math.floor(t_end / dt + 1e-9)) + 1
    if data.shape[0] != n:
        return [f"{data.shape[0]} samples, expected {n}"]
    t = data[:, 0]
    grid = dt * np.arange(n)
    grid[-1] = t_end
    if np.max(np.abs(t - grid)) > ROUNDING_TOL * t_end:
        problems.append("sample times are not the uniform grid")
    states = data[:, 1:9]
    w = math.sqrt(oracle.omega2(d1, c))
    start = oracle.elliptic_initial_state(d1, c)
    exact = np.hstack([
        oracle.rigid_rotation(start["x1"], start["y1"], w, t),
        oracle.rigid_rotation(start["x2"], start["y2"], w, t),
    ])
    chart = float(np.max(np.linalg.norm(states[:, :4] - exact, axis=1)))
    if not chart < ORBIT_CHART_TOL:
        problems.append(f"chart deviation from the rigid rotation {chart:.3e}")
    e = oracle.energy(states, c, 1.0, 1.0)
    j = oracle.momentum_map(states)
    for label, mine, col in (
        ("energy", e, data[:, 9]),
        ("Jh", j[:, 0], data[:, 10]),
        ("Je", j[:, 1], data[:, 11]),
        ("Jp", j[:, 2], data[:, 12]),
        ("dist", oracle.separation(states), data[:, 13]),
    ):
        err = float(np.max(np.abs(mine - col)))
        if not err <= ROUNDING_TOL * max(1.0, float(np.max(np.abs(col)))):
            problems.append(f"{label} column differs from the recomputed value by {err:.3e}")
        if label == "dist":
            continue
        drift = float(np.max(np.abs(mine - mine[0])))
        if not drift < ORBIT_DRIFT_TOL:
            problems.append(f"{label} drifts by {drift:.3e}")
        reported = report.get("drift", {}).get(label)
        if reported is None or abs(reported - float(np.max(np.abs(col - col[0])))) > 1e-15:
            problems.append(f"conservation.json drift.{label} {reported!r} does not match the CSV")
    if report.get("completed") is not True or report.get("samples") != n:
        problems.append(f"conservation.json: completed {report.get('completed')!r}, samples {report.get('samples')!r}")
    if report.get("t_final") != t[-1]:
        problems.append(f"conservation.json: t_final {report.get('t_final')!r}")
    return problems


def write_orbit_scenario(path: str, d1: float, c: float, t_end: float, dt: float | None = None) -> str:
    """A simulate scenario starting on the elliptic equilibrium (d1, c)."""
    integrator = {"t_end": t_end} if dt is None else {"t_end": t_end, "sample_dt": dt}
    with open(path, "w") as f:
        json.dump({
            "mode": "simulate",
            "params": {"m1": c, "m2": 1.0, "k": 1.0},
            "initial_state": oracle.elliptic_initial_state(d1, c),
            "integrator": integrator,
        }, f)
    return path


def _orbit(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops = []
    for i, c in enumerate(ORBIT_RATIOS):
        u = ORBIT_U_SHARE * oracle.threshold_u0(c) * (1.0 + ORBIT_JITTER * (2.0 * rng.random() - 1.0))
        d1 = math.atanh(u)
        period = oracle.elliptic_period(d1, c)
        t_end, dt = ORBIT_PERIODS * period, period / ORBIT_SAMPLES_PER_PERIOD
        path = write_orbit_scenario(os.path.join(workdir, f"orbit{i}.json"), d1, c, t_end, dt)
        ops.append(Op(
            ["simulate", "--scenario", path, "--out", os.path.join(workdir, f"orbit{i}")],
            items=ORBIT_PERIODS,
            check=lambda res, d1=d1, c=c, t_end=t_end, dt=dt: check_orbit(
                res, d1=d1, c=c, t_end=t_end, dt=dt),
        ))
    d1 = math.atanh(0.4)
    warm = write_orbit_scenario(os.path.join(workdir, "orbit-warmup.json"), d1, 1.0,
                                oracle.elliptic_period(d1, 1.0))
    warmup = [Op(["simulate", "--scenario", warm, "--out", os.path.join(workdir, "orbit-warmup")],
                 1, lambda res: [])]
    return Workload("orbit_long", warmup, lambda r: ops)


# -- classify_sweep ------------------------------------------------------

def check_equilibrium(res: Result, *, family: str, d1: float, c: float) -> list[str]:
    problems: list[str] = []
    doc = _doc(res, problems)
    if doc is None:
        return problems
    w2 = oracle.omega2(d1, c)
    if doc["family"] != family or doc["d1"] != d1:
        problems.append(f"echo: family {doc['family']!r}, d1 {doc['d1']!r}")
    if not _close(doc["d2"], oracle.partner_d2(d1, c), 1e-12):
        problems.append(f"d2 {doc['d2']!r}")
    if not _close(doc["omega2"], w2, 1e-9):
        problems.append(f"omega2 {doc['omega2']!r}, expected {w2!r}")
    if family == "elliptic" and not _close(doc["period"], 2.0 * math.pi / math.sqrt(w2), 1e-9):
        problems.append(f"period {doc['period']!r}")
    if doc["intrinsic"]["ok"] is not True:
        problems.append(f"intrinsic.ok is {doc['intrinsic']['ok']!r}")
    want = expected_verdict(family, d1, c)
    if doc["stability"]["verdict"] != want:
        problems.append(f"verdict {doc['stability']['verdict']!r}, expected {want!r}")
    return problems


def check_stability(res: Result, *, d1: float, c: float) -> list[str]:
    problems: list[str] = []
    doc = _doc(res, problems)
    if doc is None:
        return problems
    if doc["oracles_agree"] is not True:
        problems.append("oracles_agree is not true")
    if not _close(doc["omega"] ** 2, oracle.omega2(d1, c), 1e-9):
        problems.append(f"omega {doc['omega']!r}")
    if not _close(doc["threshold_d1"], math.atanh(oracle.threshold_u0(c)), 1e-9):
        problems.append(f"threshold_d1 {doc['threshold_d1']!r}")
    if not _close(doc["u"], math.tanh(d1), 1e-9):
        problems.append(f"u {doc['u']!r}")
    want = expected_verdict("elliptic", d1, c)
    if doc["report"]["verdict"] != want:
        problems.append(f"verdict {doc['report']['verdict']!r}, expected {want!r}")
    return problems


def expected_verdict(family: str, d1: float, c: float) -> str:
    if family == "hyperbolic":
        return "unstable"
    return "stable" if math.tanh(d1) < oracle.threshold_u0(c) else "unstable"


def classify_grid(seed: int) -> list[tuple[float, float]]:
    """One (d1, c) per cell of a log grid, jittered within the cell and
    redrawn while within THRESHOLD_MARGIN of the threshold."""
    rng = random.Random(seed)
    (d_lo, d_hi, nd), (c_lo, c_hi, nc) = GRID_D1, GRID_C
    ld, lc = math.log(d_hi / d_lo) / nd, math.log(c_hi / c_lo) / nc
    points = []
    for i in range(nd):
        for j in range(nc):
            for _ in range(1000):
                d1 = d_lo * math.exp((i + rng.random()) * ld)
                c = c_lo * math.exp((j + rng.random()) * lc)
                if abs(math.tanh(d1) - oracle.threshold_u0(c)) >= THRESHOLD_MARGIN:
                    break
            else:
                raise ValueError(f"grid cell ({i}, {j}) lies inside the threshold margin")
            points.append((d1, c))
    return points


def _mass_args(c: float) -> list[str]:
    return ["--m1", repr(c), "--m2", "1"]


def _classify(seed: int, workdir: str) -> Workload:
    ops = []
    for argv, reason in KNOWN_FAULTS:
        d1 = float(argv[-1])
        if argv[0] == "stability":
            check = lambda res, d1=d1: check_stability(res, d1=d1, c=1.0)
        else:
            check = lambda res, fam=argv[1], d1=d1: check_equilibrium(res, family=fam, d1=d1, c=1.0)
        ops.append(Op(list(argv), 0, check, known_fault=reason))
    for d1, c in classify_grid(seed):
        ops.append(Op(["equilibrium", "elliptic", repr(d1)] + _mass_args(c), 0.5,
                      lambda res, d1=d1, c=c: check_equilibrium(res, family="elliptic", d1=d1, c=c)))
        ops.append(Op(["stability", repr(d1)] + _mass_args(c), 0.5,
                      lambda res, d1=d1, c=c: check_stability(res, d1=d1, c=c)))
        ops.append(Op(["equilibrium", "hyperbolic", repr(d1)] + _mass_args(c), 1,
                      lambda res, d1=d1, c=c: check_equilibrium(res, family="hyperbolic", d1=d1, c=c)))
    warm = [Op(["equilibrium", fam, "0.5"], 0, lambda res: []) for fam in ("elliptic", "hyperbolic")]
    warm.append(Op(["stability", "0.5"], 0, lambda res: []))
    return Workload("classify_sweep", warm, lambda r: ops)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "orbit_long":
        return _orbit(seed, workdir)
    if name == "classify_sweep":
        return _classify(seed, workdir)
    if name in PERTURB_U:
        return _perturb(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
