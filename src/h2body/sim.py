"""Time integration, conservation accounting, and perturbation experiments.

Integration uses an adaptive embedded Runge-Kutta 5(4) pair behind a fixed
configuration surface; trajectories are sampled on a uniform grid and
carried around as plain arrays together with their conserved quantities.
Random draws come from a small counter-free shift-register generator so
every experiment is reproducible from its seed alone, independent of any
global random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import Collision, CollisionDuringIntegration, StepSizeUnderflow
from .dynamics import (
    COLLISION_EPSILON,
    Params,
    PhaseState,
    _field_array,
    _kinetic,
    _momentum,
    _potential,
)
from .equilibria import RelativeEquilibrium, analytic_states, initial_state
from .geom import separation

_CSV_SCHEMA = "#schema=v1"
_CSV_COLUMNS = "t,x1,y1,x2,y2,px1,py1,px2,py2,energy,Jh,Je,Jp,dist"


# -- deterministic random numbers ----------------------------------------

class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding.

    Small, fast, and fully specified here so that seeded experiments are
    bit-reproducible across platforms and library versions. uniform() maps
    the top 53 bits to [0, 1); normal() is Box-Muller on two uniforms.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        s = seed & self._MASK
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & self._MASK
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
            state.append(z ^ (z >> 31))
        self._s = state

    @staticmethod
    def _rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & Xoshiro256StarStar._MASK

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (self._rotl((s1 * 5) & self._MASK, 7) * 9) & self._MASK
        t = (s1 << 17) & self._MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        # open-interval uniform keeps log() finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# -- configuration and records -------------------------------------------

@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and horizon for one integration run."""

    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None
    sample_dt: float | None = None

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if not self.rel_tol > 0.0 or not self.abs_tol > 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and not self.max_step > 0.0:
            raise ValueError("max_step must be positive when given")
        if self.sample_dt is not None and not self.sample_dt > 0.0:
            raise ValueError("sample_dt must be positive when given")

    def sample_times(self) -> np.ndarray:
        dt = self.sample_dt if self.sample_dt is not None else self.t_end / 256.0
        n = int(math.floor(self.t_end / dt + 1e-9))
        ts = dt * np.arange(n + 1)
        if ts[-1] < self.t_end - 1e-12 * self.t_end:
            ts = np.append(ts, self.t_end)
        else:
            ts[-1] = self.t_end
        return ts


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with conserved quantities along it.

    ``states`` columns are ordered (x1, y1, x2, y2, px1, py1, px2, py2);
    ``momentum`` columns are the dilation, rotation and translation
    components (Jh, Je, Jp). ``completed`` is False for partial records
    attached to integration failures, with the reason in ``error``.
    """

    t: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    momentum: np.ndarray
    distance: np.ndarray
    completed: bool = True
    error: str | None = None


def record_from_states(t, states, params: Params, completed=True, error=None) -> TrajectoryRecord:
    """Assemble a record, recomputing energy, momentum and separation."""
    t = np.asarray(t, dtype=float)
    states = np.asarray(states, dtype=float)
    cols = states.T
    return TrajectoryRecord(
        t=t,
        states=states,
        energy=_kinetic(*cols, params) + _potential(*cols[:4], params),
        momentum=np.column_stack(_momentum(*cols)),
        distance=separation(*cols[:4]),
        completed=completed,
        error=error,
    )


# -- integration ---------------------------------------------------------

def _collision_event(t, z):
    return separation(z[0], z[1], z[2], z[3]) - COLLISION_EPSILON


_collision_event.terminal = True
_collision_event.direction = -1


def integrate(
    state: PhaseState, params: Params, config: IntegratorConfig
) -> TrajectoryRecord:
    """Integrate the equations of motion over [0, t_end].

    Adaptive Runge-Kutta 5(4) with the configured tolerances, sampling on
    the uniform grid of sample_dt (t_end / 256 when unset). A separation
    crossing the collision cutoff terminates the run and raises
    CollisionDuringIntegration carrying the partial record; an integrator
    failure raises StepSizeUnderflow the same way.
    """
    m1, m2, k = params.m1, params.m2, params.k

    def rhs(t, z):
        return _field_array(z, m1, m2, k)

    sol = solve_ivp(
        rhs,
        (0.0, config.t_end),
        state.as_array(),
        method="RK45",
        rtol=config.rel_tol,
        atol=config.abs_tol,
        max_step=config.max_step if config.max_step is not None else np.inf,
        t_eval=config.sample_times(),
        events=_collision_event,
    )
    ts = sol.t
    states = sol.y.T
    if sol.status == 1 and sol.t_events[0].size:
        # append the terminal event sample so the partial record ends at impact
        ts = np.append(ts, sol.t_events[0][0])
        states = np.vstack([states, sol.y_events[0][0]])
        rec = record_from_states(ts, states, params, completed=False, error="collision")
        raise CollisionDuringIntegration(
            f"separation reached the collision cutoff at t = {ts[-1]:.6g}",
            record=rec,
        )
    if sol.status < 0:
        rec = record_from_states(ts, states, params, completed=False, error="step_underflow")
        raise StepSizeUnderflow(sol.message, record=rec)
    return record_from_states(ts, states, params)


def conservation_report(record: TrajectoryRecord) -> dict:
    """Maximum drift of each conserved quantity from its initial value."""
    return {
        "energy": float(np.max(np.abs(record.energy - record.energy[0]))),
        "Jh": float(np.max(np.abs(record.momentum[:, 0] - record.momentum[0, 0]))),
        "Je": float(np.max(np.abs(record.momentum[:, 1] - record.momentum[0, 1]))),
        "Jp": float(np.max(np.abs(record.momentum[:, 2] - record.momentum[0, 2]))),
    }


def compare_analytic(re: RelativeEquilibrium, config: IntegratorConfig) -> float:
    """Integrate an equilibrium numerically and measure the worst chart
    distance to the exact trajectory over the sample grid."""
    rec = integrate(initial_state(re), re.params, config)
    return _max_chart_deviation(re, rec.t, rec.states)


def _max_chart_deviation(re: RelativeEquilibrium, ts, states) -> float:
    return float(np.max(np.linalg.norm(states - analytic_states(re, ts), axis=1)))


# -- trajectory CSV ------------------------------------------------------

def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """Write the record with a schema header line; 17 significant digits."""
    with open(path, "w") as f:
        f.write(_CSV_SCHEMA + "\n")
        f.write(_CSV_COLUMNS + "\n")
        for i in range(record.t.shape[0]):
            row = [record.t[i], *record.states[i], record.energy[i],
                   *record.momentum[i], record.distance[i]]
            f.write(",".join("%.17g" % v for v in row) + "\n")


def read_trajectory_csv(path) -> TrajectoryRecord:
    """Read a trajectory CSV written by write_trajectory_csv."""
    with open(path) as f:
        schema = f.readline().strip()
        if schema != _CSV_SCHEMA:
            raise ValueError(f"unrecognized schema line {schema!r}")
        header = f.readline().strip()
        if header != _CSV_COLUMNS:
            raise ValueError(f"unexpected column header {header!r}")
        data = np.array(
            [[float(v) for v in line.split(",")] for line in f if line.strip()]
        )
    if data.size == 0:
        data = data.reshape(0, 14)
    return TrajectoryRecord(
        t=data[:, 0],
        states=data[:, 1:9],
        energy=data[:, 9],
        momentum=data[:, 10:13],
        distance=data[:, 13],
    )


# -- perturbation experiments --------------------------------------------

@dataclass(frozen=True)
class PerturbationExperiment:
    """Protocol for kicking an equilibrium and watching the separation.

    Each trial adds a Gaussian direction of exact chart norm ``scale`` to
    the equilibrium state, then follows the motion for ``horizon`` time
    units. A trial ends early once |d(t) - d(0)| exceeds
    ``escape_threshold``; draws that start inside the collision cutoff or
    below the chart are redrawn.
    """

    base: RelativeEquilibrium
    scale: float
    n_trials: int
    horizon: float
    seed: int
    escape_threshold: float = 0.5
    stable_band: float = 1e-2
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")


def _draw_perturbed(rng: Xoshiro256StarStar, z0: np.ndarray, scale: float):
    """One valid perturbed start, with the number of redraws it took."""
    redraws = 0
    while True:
        delta = np.array([rng.normal() for _ in range(8)])
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            redraws += 1
            continue
        z = z0 + delta * (scale / norm)
        if z[1] > 0.0 and z[3] > 0.0:
            try:
                PhaseState.from_array(z)
            except Collision:
                redraws += 1
                continue
            return z, redraws
        redraws += 1


def perturb_and_measure(experiment: PerturbationExperiment) -> dict:
    """Run the perturbation protocol and summarize every trial.

    The report is reproducible bit for bit from the seed: the generator is
    fully specified, trials run sequentially, and the integrator is
    deterministic. Per-trial integration failures are recorded in place
    rather than aborting the batch.
    """
    re = experiment.base
    params = re.params
    z0 = initial_state(re).as_array()
    r0 = float(re.distance)
    rng = Xoshiro256StarStar(experiment.seed)
    m1, m2, k = params.m1, params.m2, params.k

    def rhs(t, z):
        return _field_array(z, m1, m2, k)

    def escape(t, z):
        d = separation(z[0], z[1], z[2], z[3])
        return abs(d - r0) - experiment.escape_threshold

    escape.terminal = True
    trials = []
    for i in range(experiment.n_trials):
        z, redraws = _draw_perturbed(rng, z0, experiment.scale)
        trial = {
            "trial": i,
            "redraws": redraws,
            "escaped": False,
            "escape_time": None,
            "max_distance_deviation": None,
            "max_chart_deviation": None,
            "error": None,
        }
        try:
            sol = solve_ivp(
                rhs,
                (0.0, experiment.horizon),
                z,
                method="RK45",
                rtol=experiment.rel_tol,
                atol=experiment.abs_tol,
                events=(_collision_event, escape),
            )
        except Exception as exc:  # pragma: no cover - defensive
            trial["error"] = f"integrator: {exc}"
            trials.append(trial)
            continue
        ts = sol.t
        states = sol.y.T
        if sol.status == 1:
            if sol.t_events[0].size:
                trial["error"] = "collision"
            else:
                trial["escaped"] = True
                trial["escape_time"] = float(sol.t_events[1][0])
                ts = np.append(ts, sol.t_events[1][0])
                states = np.vstack([states, sol.y_events[1][0]])
        elif sol.status < 0:
            trial["error"] = "step_underflow"
        if states.size:
            dist = separation(*states.T[:4])
            trial["max_distance_deviation"] = float(np.max(np.abs(dist - r0)))
            trial["max_chart_deviation"] = _max_chart_deviation(re, ts, states)
        trials.append(trial)

    measured = [t["max_distance_deviation"] for t in trials if t["max_distance_deviation"] is not None]
    n_escaped = sum(1 for t in trials if t["escaped"])
    n_bounded = sum(
        1
        for t in trials
        if not t["escaped"]
        and t["error"] is None
        and t["max_distance_deviation"] is not None
        and t["max_distance_deviation"] < experiment.stable_band
    )
    return {
        "protocol": {
            "family": re.family.value,
            "d1": re.d1,
            "d2": re.d2,
            "omega": re.omega,
            "separation": r0,
            "scale": experiment.scale,
            "n_trials": experiment.n_trials,
            "horizon": experiment.horizon,
            "seed": experiment.seed,
            "escape_threshold": experiment.escape_threshold,
            "stable_band": experiment.stable_band,
            "rel_tol": experiment.rel_tol,
            "abs_tol": experiment.abs_tol,
        },
        "n_escaped": n_escaped,
        "n_bounded": n_bounded,
        "max_distance_deviation": max(measured) if measured else None,
        "trials": trials,
    }
