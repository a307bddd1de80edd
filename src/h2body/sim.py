"""Time integration, conservation accounting, and perturbation experiments.

Integration runs on an in-house Dormand-Prince 5(4) engine, solve_ivp
(Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.4-5). It follows scipy's RK45 in its
tableau, error norm, step controller, starting step, quartic dense output
and event location, and needs nothing but numpy. A state of shape (8,) is
one trajectory; a state of shape (8, N) is a batch that keeps a time, a
step size and a status per column and evaluates the field once per stage
for all columns still running, which is how the perturbation trials run.
Trajectories are sampled on a uniform grid and carried around as plain
arrays together with their conserved quantities and the engine's counters.
Random draws come from a small counter-free shift-register generator so
every experiment is reproducible from its seed alone, independent of any
global random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

_EPS = float(np.finfo(float).eps)
# a relative tolerance below about 100 ulps asks for more than the
# arithmetic resolves, and the step controller would shrink without end
RTOL_FLOOR = 100 * _EPS


def _require_positive(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_tolerances(rel_tol, abs_tol):
    _require_positive("rel_tol", rel_tol)
    _require_positive("abs_tol", abs_tol)
    if rel_tol < RTOL_FLOOR:
        raise ValueError(f"rel_tol must be at least {RTOL_FLOOR:.3g}, got {rel_tol!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and horizon for one integration run."""

    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None
    sample_dt: float | None = None

    def __post_init__(self):
        _require_positive("t_end", self.t_end)
        _require_tolerances(self.rel_tol, self.abs_tol)
        for name in ("max_step", "sample_dt"):
            if getattr(self, name) is not None:
                _require_positive(name, getattr(self, name))

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
    ``stats`` holds the integrator's counters (nfev, accepted, rejected)
    for records that integrate() made.
    """

    t: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    momentum: np.ndarray
    distance: np.ndarray
    completed: bool = True
    error: str | None = None
    stats: dict | None = None


def record_from_states(
    t, states, params: Params, completed=True, error=None, stats=None
) -> TrajectoryRecord:
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
        stats=stats,
    )


# -- Dormand-Prince 5(4) engine ------------------------------------------

# Dormand & Prince (1980) with Shampine's (1986) quartic dense output, and
# scipy RK45's controller: safety 0.9, step ratio within [0.2, 10]
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = tuple(map(np.array, (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)))
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / 5  # the error estimate is of order 4


@dataclass
class OdeResult:
    """What solve_ivp returns.

    For one trajectory ``t`` has shape (m,), ``y`` shape (n, m), and
    ``t_events[e]`` / ``y_events[e]`` hold the roots of event e and the
    states there. ``status`` is 0 at the end of the span, 1 after a
    terminal event and -1 on step underflow. For a batch every field but
    ``nfev`` is a list with one such entry per row. ``nfev`` counts the
    calls of ``fun``, each of which evaluates every row still running.
    """

    t: object
    y: object
    t_events: list
    y_events: list
    status: object
    message: object
    accepted: object
    rejected: object
    nfev: int


def _rms(x):
    """Root mean square over axis 0, summed in a fixed order so that a
    batch column rounds exactly like the same trajectory run alone."""
    s = x * x
    return np.sqrt(sum(s[1:], s[0]) / len(s))


def _rk_step(fun, t, y, f, h):
    """One step from (t, y) with f = fun(t, y): the fifth-order solution
    and the seven stages, the last being fun at the new point. Stage i is
    row i of the returned (7, y.size) array."""
    shape = y.shape
    ks = np.empty((7,) + shape)
    flat = ks.reshape(7, -1)
    ks[0] = f
    for i, (c, a) in enumerate(zip(_C, _A), start=1):
        ks[i] = fun(t + c * h, y + np.dot(a, flat[:i]).reshape(shape) * h)
    y_new = y + np.dot(_B, flat[:6]).reshape(shape) * h
    ks[6] = fun(t + h, y_new)
    return y_new, flat


def _error_norm(y, y_new, ks, h, rtol, atol):
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    return _rms(np.dot(_E, ks).reshape(y.shape) * h / scale)


def _initial_step(fun, t0, y0, f0, interval, max_step, rtol, atol):
    """Starting step per column (Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.4); one call of fun."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), interval)
        d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            np.power(0.01 / np.maximum(d1, d2), 1 / 5),
        )
    return np.minimum(np.minimum(100 * h0, h1), min(interval, max_step))


def _dense(t_old, h, y_old, ks):
    """Quartic interpolant of one trajectory over [t_old, t_old + h], at a
    time or a 1-D array of times."""
    q = np.dot(ks.T, _P)

    def sol(t):
        x = (np.asarray(t, dtype=float) - t_old) / h
        p = np.cumprod(np.broadcast_to(x, (4,) + x.shape), axis=0)
        y = h * np.dot(q, p)
        return y + (y_old if y.ndim == 1 else y_old[:, None])

    return sol


def _crossed(g, g_new, direction):
    """Whether an event function reached zero in its direction."""
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    return up if direction > 0 else down if direction < 0 else up | down


def _brentq(f, xa, xb):
    """Root of f bracketed by [xa, xb] to about 4 ulps (Brent, Algorithms
    for Minimization Without Derivatives, 1973, ch. 4, in scipy's
    formulation)."""
    tol = 4 * _EPS
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def _fire(events, g, g_new, sol, t_old, t):
    """Roots in [t_old, t] of the events that crossed zero, as (root, event)
    in time order up to the first terminal one, and whether one was hit."""
    hits = sorted(
        (_brentq(lambda s, ev=ev: ev(s, sol(s)), t_old, t), e)
        for e, ev in enumerate(events)
        if _crossed(g[e], g_new[e], getattr(ev, "direction", 0))
    )
    for i, (_, e) in enumerate(hits):
        if getattr(events[e], "terminal", False):
            return hits[: i + 1], True
    return hits, False


def solve_ivp(fun, t_span, y0, *, rtol, atol, max_step=np.inf, t_eval=None, events=()):
    """Integrate y' = fun(t, y) forward over t_span with adaptive DP5(4).

    y0 of shape (n,) is one trajectory; (n, N) is a batch of N that keeps
    a time, a step size and a status per column, calls fun once per stage
    on the columns still running, and retires each column at the end of
    the span, at a terminal event or on step underflow. A column of a
    batch goes through the same operations as that trajectory run alone,
    so it does not depend on the other columns; for the equations of
    motion the two agree bit for bit, and the tests hold them to 1e-12.

    The step control, starting step, dense output and event location
    follow scipy's RK45 with these options. ``t_eval`` (one trajectory
    only) samples the dense output; without it every accepted step is
    returned. An event is a function ``event(t, y)`` with optional
    ``terminal`` (stop at its first root) and ``direction`` attributes;
    in a batch it receives (N,) times and (n, N) states.
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    y0 = np.array(y0, dtype=float)
    if not (math.isfinite(t0) and math.isfinite(t_bound) and t_bound > t0):
        raise ValueError(f"need a finite t_span with t0 < t_bound, got {t_span!r}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    _require_tolerances(rtol, atol)
    events = (events,) if callable(events) else tuple(events)
    if y0.ndim == 1:
        t_eval = None if t_eval is None else np.asarray(t_eval, dtype=float)
        return _solve_one(fun, t0, t_bound, y0, rtol, atol, max_step, t_eval, events)
    if t_eval is not None:
        raise ValueError("t_eval applies to a single trajectory")
    return _solve_batch(fun, t0, t_bound, y0, rtol, atol, max_step, events)


def _solve_one(fun, t, t_bound, y, rtol, atol, max_step, t_eval, events):
    n = y.size
    f = fun(t, y)
    h_abs = float(_initial_step(fun, t, y, f, t_bound - t, max_step, rtol, atol))
    nfev, accepted, rejected = 2, 0, 0
    g = [ev(t, y) for ev in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    ts, ys = ([t], [y]) if t_eval is None else ([], [])
    i_eval = 0
    status = None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            y_new, ks = _rk_step(fun, t, y, f, h)
            nfev += 6
            err = _error_norm(y, y_new, ks, h, rtol, atol)
            if err < 1:
                # np.power, not ** on a numpy float, rounds like numpy's
                # vectorized power in the batch
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * np.power(err, _EXPONENT))
                h_abs = h * (min(1.0, factor) if step_rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * np.power(err, _EXPONENT))
            step_rejected = True
            rejected += 1
        else:
            status = -1
            break
        accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, ks[6]
        if t >= t_bound:
            status = 0
        sol = None
        t_out, y_out = t, y
        if events:
            g_new = [ev(t, y) for ev in events]
            if any(_crossed(a, b, getattr(ev, "direction", 0)) for a, b, ev in zip(g, g_new, events)):
                sol = _dense(t_old, h, y_old, ks)
                hits, stop = _fire(events, g, g_new, sol, t_old, t)
                for root, e in hits:
                    t_events[e].append(root)
                    y_events[e].append(sol(root))
                if stop:
                    status = 1
                    t_out = hits[-1][0]
                    y_out = sol(t_out)
            g = g_new
        if t_eval is None:
            ts.append(t_out)
            ys.append(y_out)
        else:
            j = int(np.searchsorted(t_eval, t_out, side="right"))
            if j > i_eval:
                sol = sol or _dense(t_old, h, y_old, ks)
                ts.append(t_eval[i_eval:j])
                ys.append(sol(t_eval[i_eval:j]))
                i_eval = j
    if t_eval is None:
        t_out, y_out = np.array(ts), np.array(ys).T
    else:
        t_out = np.concatenate(ts) if ts else np.empty(0)
        y_out = np.hstack(ys) if ys else np.empty((n, 0))
    return OdeResult(
        t=t_out,
        y=y_out,
        t_events=[np.array(te) for te in t_events],
        y_events=[np.array(ye) for ye in y_events],
        status=status,
        message=_message(status, t),
        accepted=accepted,
        rejected=rejected,
        nfev=nfev,
    )


def _message(status, t):
    if status == 0:
        return "reached the end of the integration interval"
    if status == 1:
        return "a terminal event occurred"
    return f"step size underflow at t = {float(t)!r}: the step is below the spacing of floats"


def _solve_batch(fun, t0, t_bound, y, rtol, atol, max_step, events):
    n, size = y.shape
    rows = np.arange(size)  # batch row of each working column
    t = np.full(size, t0)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound - t0, max_step, rtol, atol)
    nfev = 2
    fresh = np.ones(size, dtype=bool)  # the next attempt starts a new step
    accepted = np.zeros(size, dtype=int)
    rejected = np.zeros(size, dtype=int)
    status = [None] * size
    g = [ev(t, y) for ev in events]
    t_events = [[[] for _ in events] for _ in range(size)]
    y_events = [[[] for _ in events] for _ in range(size)]
    log = [(rows, t, y)]  # accepted points as (rows, times, states)
    with np.errstate(divide="ignore"):  # a zero error norm grows the step tenfold
        while rows.size:
            min_step = 10 * (np.nextafter(t, np.inf) - t)
            h_abs = np.where(
                fresh, np.where(h_abs > max_step, max_step, np.maximum(h_abs, min_step)), h_abs
            )
            failed = h_abs < min_step
            if failed.any():
                for j in np.flatnonzero(failed):
                    status[rows[j]] = -1
                rows, t, y, f, h_abs, fresh, *g = (
                    a[..., ~failed] for a in (rows, t, y, f, h_abs, fresh, *g)
                )
                continue
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            y_new, ks = _rk_step(fun, t, y, f, h)
            nfev += 6
            err = _error_norm(y, y_new, ks, h, rtol, atol)
            ok = err < 1
            factor = _SAFETY * np.power(err, _EXPONENT)
            grow = np.minimum(_MAX_FACTOR, factor)
            h_abs = h * np.where(
                ok, np.where(fresh, grow, np.minimum(1.0, grow)), np.fmax(_MIN_FACTOR, factor)
            )
            fresh = ok
            accepted[rows] += ok
            rejected[rows] += ~ok
            if not ok.any():
                continue
            t_old, y_old = t, y
            t, y, f = np.where(ok, t_new, t), np.where(ok, y_new, y), np.where(ok, ks[6].reshape(n, -1), f)
            done = ok & (t_new >= t_bound)
            if events:
                g_new = [ev(t_new, y_new) for ev in events]
                hit = ok & np.logical_or.reduce([
                    _crossed(a, b, getattr(ev, "direction", 0)) for a, b, ev in zip(g, g_new, events)
                ])
                for j in np.flatnonzero(hit):
                    stages = np.ascontiguousarray(ks.reshape(7, n, -1)[:, :, j])
                    sol = _dense(t_old[j], h[j], y_old[:, j], stages)
                    hits, stop = _fire(
                        events, [a[j] for a in g], [b[j] for b in g_new], sol, t_old[j], t_new[j]
                    )
                    for root, e in hits:
                        t_events[rows[j]][e].append(root)
                        y_events[rows[j]][e].append(sol(root))
                    if stop:
                        status[rows[j]] = 1
                        done[j] = True
                        t_new[j] = hits[-1][0]
                        y_new[:, j] = sol(t_new[j])
                g = [np.where(ok, b, a) for a, b in zip(g, g_new)]
            log.append((rows[ok], t_new[ok], y_new[:, ok]))
            if done.any():
                for j in np.flatnonzero(done):
                    if status[rows[j]] is None:
                        status[rows[j]] = 0
                rows, t, y, f, h_abs, fresh, *g = (
                    a[..., ~done] for a in (rows, t, y, f, h_abs, fresh, *g)
                )
    which = np.concatenate([r for r, _, _ in log])
    order = np.argsort(which, kind="stable")
    bounds = np.searchsorted(which[order], np.arange(size + 1))
    times = np.concatenate([tt for _, tt, _ in log])[order]
    states = np.hstack([yy for _, _, yy in log])[:, order]
    spans = list(zip(bounds[:-1], bounds[1:]))
    return OdeResult(
        t=[times[a:b] for a, b in spans],
        y=[states[:, a:b] for a, b in spans],
        t_events=[[np.array(te) for te in row] for row in t_events],
        y_events=[[np.array(ye) for ye in row] for row in y_events],
        status=status,
        # a row that underflows fails at the time of its last step
        message=[_message(s, times[b - 1]) for s, (_, b) in zip(status, spans)],
        accepted=accepted.tolist(),
        rejected=rejected.tolist(),
        nfev=nfev,
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

    Adaptive Dormand-Prince 5(4) with the configured tolerances, sampling
    on the uniform grid of sample_dt (t_end / 256 when unset). A separation
    crossing the collision cutoff terminates the run and raises
    CollisionDuringIntegration carrying the partial record; a step size
    underflow raises StepSizeUnderflow the same way. The record's stats
    count field evaluations and accepted and rejected steps.
    """
    m1, m2, k = params.m1, params.m2, params.k

    def rhs(t, z):
        return _field_array(z, m1, m2, k)

    sol = solve_ivp(
        rhs,
        (0.0, config.t_end),
        state.as_array(),
        rtol=config.rel_tol,
        atol=config.abs_tol,
        max_step=config.max_step if config.max_step is not None else np.inf,
        t_eval=config.sample_times(),
        events=_collision_event,
    )
    ts = sol.t
    states = sol.y.T
    stats = {"nfev": sol.nfev, "accepted": sol.accepted, "rejected": sol.rejected}
    if sol.status == 1:
        # append the terminal event sample so the partial record ends at impact
        ts = np.append(ts, sol.t_events[0][0])
        states = np.vstack([states, sol.y_events[0][0]])
        rec = record_from_states(ts, states, params, False, "collision", stats)
        raise CollisionDuringIntegration(
            f"separation reached the collision cutoff at t = {ts[-1]:.6g}",
            record=rec,
        )
    if sol.status < 0:
        rec = record_from_states(ts, states, params, False, "step_underflow", stats)
        raise StepSizeUnderflow(sol.message, record=rec)
    return record_from_states(ts, states, params, stats=stats)


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
        for name in ("scale", "horizon", "escape_threshold", "stable_band"):
            _require_positive(name, getattr(self, name))
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        _require_tolerances(self.rel_tol, self.abs_tol)


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
    fully specified, every start is drawn before any integration, and the
    trials then run as one deterministic batch in which each row follows
    the arithmetic of a lone run, so a trial does not depend on n_trials.
    A row that collides or underflows is recorded in place rather than
    aborting the batch. Each trial reports its accepted and rejected
    steps; the report's stats give the field evaluations of the batch.
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
    starts = [_draw_perturbed(rng, z0, experiment.scale) for _ in range(experiment.n_trials)]
    sol = solve_ivp(
        rhs,
        (0.0, experiment.horizon),
        np.array([z for z, _ in starts]).T,
        rtol=experiment.rel_tol,
        atol=experiment.abs_tol,
        events=(_collision_event, escape),
    )
    trials = []
    for i, (_, redraws) in enumerate(starts):
        collided = sol.status[i] == 1 and sol.t_events[i][0].size > 0
        escaped = sol.status[i] == 1 and not collided
        # the samples are the accepted steps, ending at the event if one fired
        states = sol.y[i].T
        trials.append({
            "trial": i,
            "redraws": redraws,
            "escaped": escaped,
            "escape_time": float(sol.t_events[i][1][0]) if escaped else None,
            "max_distance_deviation": float(np.max(np.abs(separation(*states.T[:4]) - r0))),
            "max_chart_deviation": _max_chart_deviation(re, sol.t[i], states),
            "error": "collision" if collided else "step_underflow" if sol.status[i] < 0 else None,
            "stats": {"accepted": sol.accepted[i], "rejected": sol.rejected[i]},
        })

    n_escaped = sum(1 for t in trials if t["escaped"])
    n_bounded = sum(
        1
        for t in trials
        if not t["escaped"]
        and t["error"] is None
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
        "max_distance_deviation": max(t["max_distance_deviation"] for t in trials),
        "stats": {"nfev": sol.nfev},
        "trials": trials,
    }
