"""Time integration, conservation accounting, and perturbation experiments.

Integration runs on an in-house Runge-Kutta engine, solve_ivp, that
needs nothing but numpy: Dormand-Prince 8(5,3), "DOP853" (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.10), following scipy's DOP853
in tableau, error norm, step controller, starting step, seventh-order
dense output and event location. The two-body Hamiltonian has no
explicit time, so it solves the autonomous y' = f(y) from t = 0. One
loop runs a batch, states of shape (8, N) that keep a time, a step size
and a status per column and evaluate the field once per stage for all
columns still running, which is how the perturbation trials run (an
elliptic equilibrium's in the frame that rotates with it, whose field
X_H - X_xi is evaluated from one table of coefficients). A lone state of
shape (8,) is a run sampled on a time grid, one trajectory in a loop of
its own. In the chart it clips each step to end on the next sample time,
so every sample is a step's end point and none is interpolated. A start
nearly at rest in the frame that moves with the generator it is given
(simulate gives the start's locked velocity) runs in that frame instead,
with free steps and its samples read off each step's interpolant, until
a step ends far from rest; the samples are carried back to the chart
exactly. That loop keeps its stages in one matrix, the state as row 0,
and scales the weights by h, so a stage is one matrix product; the batch
keeps the rounding of each column independent of the others.
Neither loop caps the step, and both stop a trajectory at the first root
of any event: every event is terminal. Trajectories are sampled on a
uniform grid and carried around as plain arrays together with their
conserved quantities and the engine's counters.
Random draws come from a small counter-free shift-register generator so
every experiment is reproducible from its seed alone, independent of any
global random state.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .errors import CollisionDuringIntegration, StepSizeUnderflow
from .dynamics import (
    COLLISION_EPSILON,
    Params,
    PhaseState,
    _act_phase,
    _field_array,
    _generator_lift,
    _kinetic,
    _momentum,
    _potential,
    _require_positive,
    locked_inertia,
    momentum_map,
)
from .equilibria import Family, RelativeEquilibrium, analytic_states, initial_state
from .geom import separation
from .liegroup import AlgebraElement, flow_entries

_CSV_SCHEMA = "#schema=v1"
_CSV_COLUMNS = "t,x1,y1,x2,y2,px1,py1,px2,py2,energy,Jh,Je,Jp,dist"
_CSV_ROW = ",".join(["%.17g"] * len(_CSV_COLUMNS.split(","))) + "\n"
# rows are formatted from Python floats a block at a time, one % a block:
# one list of a whole 5,000-row record would raise peak memory by about 2.5 MB
_CSV_BLOCK = 512


# -- deterministic random numbers ----------------------------------------

class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding.

    Small, fast, and fully specified here so that seeded experiments are
    bit-reproducible across platforms and library versions. normal() is
    Box-Muller on two uniforms, each from the top 53 bits of a draw.
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
    sample_dt: float | None = None

    def __post_init__(self):
        _require_positive("t_end", self.t_end)
        _require_tolerances(self.rel_tol, self.abs_tol)
        if self.sample_dt is not None:
            _require_positive("sample_dt", self.sample_dt)
            if not math.isfinite(self.t_end / self.sample_dt):
                raise ValueError(
                    f"t_end / sample_dt must be a finite number of samples, got "
                    f"{self.t_end!r} / {self.sample_dt!r}"
                )

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
    ``stats`` holds the integrator's counters for records that integrate()
    made: field calls ``nfev``, ``accepted`` and ``rejected`` steps,
    interpolants built (``dense``), the smallest and largest accepted
    step (``h_min``, ``h_max``), and the frame the run started in
    (``frame_xi``) and the time it left it (``left_frame_at``).
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


# -- Runge-Kutta engine --------------------------------------------------

# scipy's step controller: safety 0.9, step ratio within [0.2, 10]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# the smallest positive float: a floor that keeps 0 / 0 out of an error norm
_TINY = 5e-324


def _from_sparse(rows, width):
    """An array built from rows given as {column: value}."""
    out = np.zeros((len(rows), width))
    for out_row, row in zip(out, rows):
        for j, value in row.items():
            out_row[j] = value
    return out


def _sum_squares(x):
    """Sum of squares over axis 0, added in a fixed order so that a batch
    column rounds exactly like the same trajectory run alone."""
    s = x * x
    return sum(s[1:], s[0])


def _rms(x):
    return np.sqrt(_sum_squares(x) / len(x))


def _scale(y, y_new, rtol, atol):
    return atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol


# Dormand-Prince 8(5,3), "DOP853" (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10), with the coefficients of Hairer's dop853.f, as in scipy's
# DOP853: stages 0-11 make the step, stage 12 is fun at the new point, and
# stages 13-15 serve only the seventh-order dense output. The nodes, the
# row sums of A, are not kept: the fields are autonomous, so no stage
# needs a time of its own
_DOP853_A = _from_sparse([
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # row 12 is the eighth-order weights B
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
], 16)
# a step takes _N_STAGES calls of fun, stages 1-12; the step controller's
# exponent is -1 / (order of the error estimate + 1)
_N_STAGES = 12
_EXPONENT = -1 / 8
# each stage's weights as a contiguous row, ready for the hot loop
_DOP853_WEIGHTS = tuple(row[:i].copy() for i, row in enumerate(_DOP853_A))
# the error estimators act on stages 0-12: E5 of order 5, and E3 = B minus
# the third-order weights
_DOP853_E5 = _from_sparse([{
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}], 13)[0]
_DOP853_E3 = np.append(_DOP853_A[12, :12], 0.0)
_DOP853_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
# rows 3-6 of the dense output's coefficients, from all 16 stages
_DOP853_D = _from_sparse([
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
], 16)
_EXTRA = range(13, 16)
# the sampled loop's stage matrix has the state as row 0 and stage i as row
# i + 1, so its weights gain a leading column for the state and its error
# estimators, stacked, are zero under the state and the dense-output rows
_LONE_A = np.hstack((np.zeros((16, 1)), _DOP853_A))
_LONE_E = np.zeros((2, 17))
_LONE_E[:, 1:14] = _DOP853_E5, _DOP853_E3


def _dop853_error_norm(y, y_new, ks, h, rtol, atol):
    """The fifth-order error estimate in units of the tolerance, damped by
    |e5| / hypot(|e5|, |e3| / 10) where the third-order one is small."""
    scale = _scale(y, y_new, rtol, atol)
    flat = ks[:13].reshape(13, -1)
    e5 = _sum_squares(np.dot(_DOP853_E5, flat).reshape(y.shape) / scale)
    e3 = _sum_squares(np.dot(_DOP853_E3, flat).reshape(y.shape) / scale)
    return h * e5 / np.sqrt(np.maximum(e5 + 0.01 * e3, _TINY) * len(y))


def _lone_step(fun, y, f, h, rtol, atol):
    """One DOP853 step of a lone (n,) trajectory at one matrix product per
    stage: the new solution, the (17, n) stage matrix (row 0 the state,
    then _rk_step's stage array up to fun at the new point) and the error
    norm of _dop853_error_norm as a float."""
    stages = np.zeros((17, y.size))
    stages[0], stages[1] = y, f
    hw = _LONE_A * h
    hw[:, 0] = 1.0
    for i in range(1, _N_STAGES + 1):
        y_new = np.dot(hw[i], stages)
        stages[i + 1] = fun(y_new)
    e = np.dot(_LONE_E, stages) / _scale(y, y_new, rtol, atol)
    e5, e3 = (e * e).sum(axis=1).tolist()
    return y_new, stages, h * e5 / math.sqrt(max(e5 + 0.01 * e3, _TINY) * y.size)


def _interpolant(t_old, h, y_old, y, ks):
    """DOP853's seventh-order interpolant of one trajectory over the step
    from (t_old, y_old) to y, from the (16, n) stage array with all rows
    filled, as a function of time."""
    dy = y - y_old
    rows = (dy, h * ks[0] - dy, 2 * dy - h * (ks[12] + ks[0]), *(h * np.dot(_DOP853_D, ks)))

    def sol(t):
        x = (t - t_old) / h
        p = 0.0
        for i, row in enumerate(reversed(rows)):
            p = (p + row) * (x if i % 2 == 0 else 1 - x)
        return p + y_old

    return sol


@dataclass
class OdeResult:
    """What solve_ivp returns.

    For a sampled trajectory ``t`` has shape (m,), ``y`` shape (n, m), and
    ``t_events[e]`` / ``y_events[e]`` hold the root of event e and the
    state there if it stopped the run, else nothing. ``status`` is 0 at
    the end of the span, 1 after an event and -1 on step underflow.
    ``accepted`` and ``rejected`` count steps, ``dense`` the interpolants
    built, and ``h_min`` and ``h_max`` bound the accepted steps (None if
    there is none). For a batch every field but ``nfev``, ``frame_xi``
    and ``left_frame_at`` is a list with one such entry per column, ``t``
    holding the column's accepted step times. ``nfev`` counts the calls
    of ``fun``, each of which evaluates every column it is given. Only a
    sampled run sets ``frame_xi``, the generator of the moving frame it
    started in, and ``left_frame_at``, the time it left that frame; each
    is None where there is none.
    """

    t: object
    y: object
    t_events: list
    y_events: list
    status: object
    message: object
    accepted: object
    rejected: object
    dense: object
    h_min: object
    h_max: object
    nfev: int
    frame_xi: object = None
    left_frame_at: object = None


def _fill(fun, y, h, ks, rows):
    """Fill the given rows of ks, the C-contiguous stage array of shape
    (16,) + y.shape of a step of size h from y, with one call of fun
    each, and return the state of the last call."""
    flat = ks.reshape(len(ks), -1)  # a view, so it sees each row filled
    weights, shape = _DOP853_WEIGHTS, y.shape
    for i in rows:
        arg = y + np.dot(weights[i], flat[:i]).reshape(shape) * h
        ks[i] = fun(arg)
    return arg


def _rk_step(fun, y, f, h):
    """One step from y with f = fun(y): the new solution, which is the
    state of the last stage, and the stage array filled up to that stage,
    fun at the new point."""
    ks = np.empty((len(_DOP853_A),) + y.shape)
    ks[0] = f
    return _fill(fun, y, h, ks, range(1, _N_STAGES + 1)), ks


def _initial_step(fun, y0, f0, interval, rtol, atol):
    """Starting step per column (Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.4); one call of fun."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), interval)
    d2 = _rms((fun(y0 + h0 * f0) - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        np.power(0.01 / np.maximum(d1, d2), -_EXPONENT),
    )
    return np.minimum(np.minimum(100 * h0, h1), interval)


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
    """The earliest root in [t_old, t] of the events that crossed zero, as
    (root, event); on a tie, the event listed first."""
    return min(
        (_brentq(lambda s, ev=ev: ev(sol(s)), t_old, t), e)
        for e, ev in enumerate(events)
        if _crossed(g[e], g_new[e], getattr(ev, "direction", 0))
    )


def solve_ivp(fun, t_end, y0, *, rtol, atol, t_eval=None, events=(), frame=None):
    """Integrate the autonomous system y' = fun(y) from t = 0 to t_end
    with DOP853, an adaptive Dormand-Prince 8(5,3) pair.

    Neither fun nor an event reads the time: the two-body field has none,
    so time enters only the step control, the sampling, the event roots
    and a frame's carry-back to the chart, and no stage has a time of its
    own. The shape of y0 picks the loop. y0 of shape (n,) is one
    trajectory sampled at the times ``t_eval``, which it needs; fun and
    the events receive (n,) states. y0 of shape (n, N) is a batch of N
    that returns every accepted step of each column and takes neither
    ``t_eval`` nor ``frame``. It keeps a time, a step size and a status
    per column, calls fun once per stage on the (n, N) states of the
    columns still running, and retires each column at t_end, at an event
    or on step underflow. A column goes through the same operations
    whatever the other columns are, so it does not depend on them; the
    tests hold a column equal bit for bit to the same start run as a
    batch of one. The sampled loop instead keeps a stage matrix, the state
    as row 0 and the weights scaled by h, at one matrix product a stage,
    and so rounds differently from a batch.

    The step control, starting step, dense output and event location
    follow scipy's DOP853, with no cap on the step size. A step costs 12
    calls of fun, and its seventh-order dense output 3 more, built only
    for a step in which an event crosses zero (in a batch, in one pass for
    the columns that do). An event is a function ``event(y)`` with an
    optional ``direction`` attribute. Every event is terminal: a
    trajectory stops at the first root of any of them, which is its only
    entry in ``t_events`` and ``y_events``. Both loops turn a trial stage
    that is not finite into a rejected step or a named NaN step, so
    numpy's floating-point warnings are silenced while they run.

    A sampled run returns the state at each time of ``t_eval``: each step
    is clipped to end on the next of them, and after an accepted clipped
    step the next one is the larger of the controller's proposal and the
    step that was clipped, so landing does not shorten the steps that
    follow. A grid finer than the controller's step makes every step one
    sample, at 12 calls a sample. Sampling the interpolant inside longer
    steps would take fewer calls, but in the chart it errs by up to about
    the tolerance: one period on a grid of 256 then drifts 2.6e-10 in the
    conserved quantities, against 1e-15 landing.

    ``frame``, for a sampled fun of the two-body phase space, is an
    algebra element xi, of any type, under whose flow fun and the events
    are invariant. If the start is nearly at rest in the frame that moves
    with xi, |fun - X_xi| <= _AT_REST |fun| at y0, the loop integrates
    z~' = fun(z~) - X_xi(z~) for z~(t) = exp(-t xi) z(t) there, at one
    call of fun a stage; otherwise the run is the chart's, call for call.
    In the frame the steps run freely and the samples inside a step are
    read off its interpolant, at 3 more calls for a step that holds any.
    The motion there is slow, so the interpolant errs far below the
    tolerance: one period at tanh d1 = 0.4 on a grid of 256 takes 32 calls
    and drifts 2e-14. The first accepted step that ends away from rest
    ends the frame; the run goes on from that state, carried back to the
    chart, as a fresh run (2 more calls) landing on the remaining samples.
    The states returned are chart states, carried back exactly by
    exp(t xi), and ``frame_xi`` and ``left_frame_at`` say what happened.
    """
    t_end = float(t_end)
    y0 = np.array(y0, dtype=float)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"need a finite t_end > 0, got {t_end!r}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    _require_tolerances(rtol, atol)
    events = (events,) if callable(events) else tuple(events)
    if y0.ndim == 1:
        if t_eval is None:
            raise ValueError("a single trajectory needs t_eval; a batch is y0 of shape (n, N)")
        t_eval = np.asarray(t_eval, dtype=float)
    elif t_eval is not None or frame is not None:
        raise ValueError("t_eval and frame apply to a single trajectory, y0 of shape (n,)")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if y0.ndim == 1:
            return _solve_sampled(fun, t_end, y0, rtol, atol, t_eval, events, frame)
        return _solve_batch(fun, t_end, y0, rtol, atol, events)


# the largest |X_H - X_xi| / |X_H| at which a state counts as nearly at
# rest in the frame of xi: a sampled run enters the frame only from such a
# start and leaves it at the first accepted step that ends elsewhere
_AT_REST = 1e-3


def _at_rest(residual, field):
    """Whether |residual| <= _AT_REST |field|, both finite, for the
    residual X_H - X_xi and the field X_H at one state as lists."""
    bound = _AT_REST * math.hypot(*field)
    return math.hypot(*residual) <= bound < math.inf


def _to_chart(xi, t, z):
    """States z of the frame of xi, (8,) at a time t or (8, m) at m times,
    carried back to the chart by exp(t xi)."""
    return np.array(_act_phase(*flow_entries(xi, t), z))


def _solve_sampled(fun, t_bound, y, rtol, atol, t_eval, events, xi):
    """DOP853 on one trajectory sampled at t_eval: in the chart each step
    is clipped to end on the next sample time, so that every sample is a
    step's end point; in the frame of xi the steps run freely and the
    samples inside a step come from its interpolant."""
    t = 0.0
    f = fun(y)
    rhs = fun
    if xi is not None:
        field = f.tolist()
        residual = list(map(sub, field, _generator_lift(xi, y.tolist()).tolist()))
        if _at_rest(residual, field):
            f = np.array(residual)

            def rhs(z):
                return fun(z) - _generator_lift(xi, z.tolist())
        else:
            xi = None
    frame_xi, left_frame_at = xi, None
    h_abs = float(_initial_step(rhs, y, f, t_bound, rtol, atol))
    nfev, accepted, rejected, dense = 2, 0, 0, 0
    h_min, h_max = math.inf, 0.0
    g = [ev(y) for ev in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    samples = t_eval.tolist()
    ts, ys = [], []
    i_eval = 0
    t_out = t
    status = None
    while True:
        while i_eval < len(samples) and samples[i_eval] <= t_out:
            ts.append(samples[i_eval])
            ys.append(y)
            i_eval += 1
        if status is not None:
            break
        # in the chart each step ends on the next sample; in the frame, freely
        t_stop = min(samples[i_eval], t_bound) if xi is None and i_eval < len(samples) else t_bound
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_stop)
            h = t_new - t
            y_new, stages, err = _lone_step(rhs, y, f, h, rtol, atol)
            nfev += _N_STAGES
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                proposal = h * (min(1.0, factor) if step_rejected else factor)
                # a step clipped onto a sample leaves the planned step as it was
                h_abs = max(proposal, h_abs) if t_new == t_stop else proposal
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            step_rejected = True
            rejected += 1
        else:
            status = -1
            break
        accepted += 1
        h_min, h_max = min(h_min, h), max(h_max, h)
        t_old, y_old, ks = t, y, stages[1:]
        t, y, f = t_new, y_new, ks[_N_STAGES]
        t_out = t
        if t >= t_bound:
            status = 0
        g_new = [ev(y) for ev in events]
        hit = any(_crossed(a, b, getattr(ev, "direction", 0)) for a, b, ev in zip(g, g_new, events))
        # in the frame, the samples inside the step come from its interpolant
        i_end = i_eval if xi is None else bisect_left(samples, t, i_eval)
        if hit or i_end > i_eval:
            _fill(rhs, y_old, h, ks, _EXTRA)
            nfev += len(_EXTRA)
            dense += 1
            sol = _interpolant(t_old, h, y_old, y, ks)
        if hit:
            t_out, e = _fire(events, g, g_new, sol, t_old, t)
            y_out = sol(t_out)
            t_events[e].append(t_out)
            y_events[e].append(y_out if xi is None else _to_chart(xi, t_out, y_out))
            status = 1
            i_end = min(i_end, bisect_right(samples, t_out, i_eval))
        g = g_new
        if i_end > i_eval:
            ts.extend(samples[i_eval:i_end])
            ys.extend(sol(np.array(samples[i_eval:i_end])[:, None]))
            i_eval = i_end
        if xi is None or status is not None:
            continue
        residual = f.tolist()
        lift = _generator_lift(xi, y.tolist()).tolist()
        if not _at_rest(residual, list(map(add, residual, lift))):
            # carry the run back to the chart and start it afresh there
            ys = list(_to_chart(xi, np.array(ts), np.reshape(ys, (-1, y.size)).T).T)
            y = _to_chart(xi, t, y)
            rhs, xi, left_frame_at = fun, None, t
            f = fun(y)
            h_abs = float(_initial_step(fun, y, f, t_bound - t, rtol, atol))
            nfev += 2
            g = [ev(y) for ev in events]
    ts, states = np.array(ts), np.reshape(ys, (-1, y.size)).T
    if xi is not None:
        states = _to_chart(xi, ts, states)
    return OdeResult(
        t=ts,
        y=states,
        t_events=[np.array(te) for te in t_events],
        y_events=[np.array(ye) for ye in y_events],
        status=status,
        message=_message(status, t, nan_step=math.isnan(h_abs)),
        accepted=accepted,
        rejected=rejected,
        dense=dense,
        h_min=float(h_min) if accepted else None,
        h_max=float(h_max) if accepted else None,
        frame_xi=frame_xi,
        left_frame_at=left_frame_at,
        nfev=nfev,
    )


def _message(status, t, nan_step=False):
    if status == 0:
        return "reached the end of the integration interval"
    if status == 1:
        return "a terminal event occurred"
    cause = ("the step size is not a number (the field overflows the error scale)" if nan_step
             else "the step is below the spacing of floats")
    return f"step size underflow at t = {float(t)!r}: {cause}"


def _solve_batch(fun, t_bound, y, rtol, atol, events):
    size = y.shape[1]
    rows = np.arange(size)  # batch row of each working column
    t = np.zeros(size)
    f = fun(y)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    nfev = 2
    fresh = np.ones(size, dtype=bool)  # the next attempt starts a new step
    accepted, rejected, dense = (np.zeros(size, dtype=int) for _ in range(3))
    h_min, h_max = np.full(size, np.inf), np.zeros(size)
    status = np.zeros(size, dtype=int)  # 0 unless a row fails or an event stops it
    nan_step = np.zeros(size, dtype=bool)
    g = [ev(y) for ev in events]
    t_events = [[[] for _ in events] for _ in range(size)]
    y_events = [[[] for _ in events] for _ in range(size)]
    log = [(rows, t, y)]  # accepted points as (rows, times, states)
    while rows.size:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = np.where(fresh, np.maximum(h_abs, min_step), h_abs)
        failed = ~(h_abs >= min_step)  # a NaN step fails too
        if failed.any():
            status[rows[failed]] = -1
            nan_step[rows[failed]] = np.isnan(h_abs[failed])
            rows, t, y, f, h_abs, fresh, *g = (
                a[..., ~failed] for a in (rows, t, y, f, h_abs, fresh, *g)
            )
            continue
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        y_new, ks = _rk_step(fun, y, f, h)
        nfev += _N_STAGES
        err = _dop853_error_norm(y, y_new, ks, h, rtol, atol)
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
        h_min[rows[ok]] = np.minimum(h_min[rows[ok]], h[ok])
        h_max[rows[ok]] = np.maximum(h_max[rows[ok]], h[ok])
        t_old, y_old = t, y
        t, y, f = np.where(ok, t_new, t), np.where(ok, y_new, y), np.where(ok, ks[_N_STAGES], f)
        done = ok & (t_new >= t_bound)
        if events:
            g_new = [ev(y_new) for ev in events]
            hit = ok & np.logical_or.reduce([
                _crossed(a, b, getattr(ev, "direction", 0)) for a, b, ev in zip(g, g_new, events)
            ])
            cols = np.flatnonzero(hit)
            if cols.size:
                # the extra stages of every row that hit, in one pass
                stages = np.ascontiguousarray(ks[..., cols])
                _fill(fun, y_old[:, cols], h[cols], stages, _EXTRA)
                nfev += len(_EXTRA)
                dense[rows[cols]] += 1
            for c, j in enumerate(cols):
                sol = _interpolant(
                    t_old[j], h[j], y_old[:, j], y_new[:, j], np.ascontiguousarray(stages[..., c])
                )
                root, e = _fire(
                    events, [a[j] for a in g], [b[j] for b in g_new], sol, t_old[j], t_new[j]
                )
                y_root = sol(root)
                t_events[rows[j]][e].append(root)
                y_events[rows[j]][e].append(y_root)
                t_new[j], y_new[:, j] = root, y_root
                status[rows[j]] = 1
            done |= hit
            g = [np.where(ok, b, a) for a, b in zip(g, g_new)]
        log.append((rows[ok], t_new[ok], y_new[:, ok]))
        if done.any():
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
        status=status.tolist(),
        # a row that underflows fails at the time of its last step
        message=[
            _message(s, times[b - 1], nan)
            for s, (_, b), nan in zip(status.tolist(), spans, nan_step.tolist())
        ],
        accepted=accepted.tolist(),
        rejected=rejected.tolist(),
        dense=dense.tolist(),
        h_min=[float(a) if k else None for a, k in zip(h_min, accepted)],
        h_max=[float(b) if k else None for b, k in zip(h_max, accepted)],
        nfev=nfev,
    )


# -- integration ---------------------------------------------------------

# the engine's counters as reported; a batch row has all but the shared nfev
_STATS = ("nfev", "accepted", "rejected", "dense", "h_min", "h_max")


def _collision_event(z):
    return separation(z[0], z[1], z[2], z[3]) - COLLISION_EPSILON


# this engine stops at every event; scipy's solve_ivp, which the tests run
# the same event through, stops only where terminal is set
_collision_event.terminal = True
_collision_event.direction = -1


def _locked_velocity(state: PhaseState, params: Params) -> AlgebraElement | None:
    """The locked velocity xi0 = II(q)^-1 J(z) of a state, the generator
    whose flow moves it most nearly as a rigid body, if it is finite; None
    otherwise, including where it cannot be computed."""
    try:
        with np.errstate(all="ignore"):
            ii = locked_inertia(state.config, params)
            xi = np.linalg.solve(ii, momentum_map(state).coords())
        return AlgebraElement(*xi.tolist()) if np.all(np.isfinite(xi)) else None
    except (ArithmeticError, np.linalg.LinAlgError):
        return None


def integrate(
    state: PhaseState, params: Params, config: IntegratorConfig
) -> TrajectoryRecord:
    """Integrate the equations of motion over [0, t_end].

    Adaptive DOP853 with the configured tolerances, sampled on the uniform
    grid of sample_dt (t_end / 256 when unset). A start whose locked
    velocity xi0 is finite and which is nearly at rest in the frame that
    moves with xi0 runs in that frame (see solve_ivp), with its samples
    read off the interpolant, until a step ends far from rest; any other
    run, and the rest of one that left the frame, lands its steps on the
    grid in the chart. A separation crossing the collision cutoff
    terminates the run and raises CollisionDuringIntegration carrying the
    partial record; a step size underflow raises StepSizeUnderflow the
    same way. The record's stats hold the engine's counters: field
    evaluations, accepted and rejected steps, interpolants built and the
    smallest and largest accepted step, then ``frame_xi``, the generator
    [E, H, P] of the frame the run started in (None in the chart), and
    ``left_frame_at``, the time it left that frame (None if it did not).
    """
    m1, m2, k = params.m1, params.m2, params.k

    def rhs(z):
        return _field_array(z, m1, m2, k)

    sol = solve_ivp(
        rhs,
        config.t_end,
        state.as_array(),
        rtol=config.rel_tol,
        atol=config.abs_tol,
        t_eval=config.sample_times(),
        events=_collision_event,
        frame=_locked_velocity(state, params),
    )
    ts = sol.t
    states = sol.y.T
    xi = sol.frame_xi
    stats = {key: getattr(sol, key) for key in _STATS}
    stats["frame_xi"] = None if xi is None else [xi.E, xi.H, xi.P]
    stats["left_frame_at"] = sol.left_frame_at
    if sol.status == 1:
        # append the event sample so the partial record ends at impact
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
    cols = (record.t, record.states, record.energy, record.momentum, record.distance)
    with open(path, "w") as f:
        f.write(_CSV_SCHEMA + "\n")
        f.write(_CSV_COLUMNS + "\n")
        for i in range(0, record.t.shape[0], _CSV_BLOCK):
            block = np.column_stack([c[i:i + _CSV_BLOCK] for c in cols])
            f.write(_CSV_ROW * block.shape[0] % tuple(block.ravel().tolist()))


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

# a trial escapes once |d(t) - d(0)| exceeds ESCAPE_THRESHOLD, and counts as
# bounded if it ran to the horizon with |d(t) - d(0)| below STABLE_BAND
ESCAPE_THRESHOLD = 0.5
STABLE_BAND = 1e-2


@dataclass(frozen=True)
class PerturbationExperiment:
    """Protocol for kicking an equilibrium and watching the separation.

    Each trial adds a Gaussian direction of exact chart norm ``scale`` to
    the equilibrium state, then follows the motion for ``horizon`` time
    units. A trial ends early once |d(t) - d(0)| exceeds
    ``ESCAPE_THRESHOLD``; draws that start inside the collision cutoff or
    below the chart are redrawn.
    """

    base: RelativeEquilibrium
    scale: float
    n_trials: int
    horizon: float
    seed: int
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("scale", "horizon"):
            _require_positive(name, getattr(self, name))
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        _require_tolerances(self.rel_tol, self.abs_tol)


# draws of one start before the scale is judged to leave none valid
_MAX_DRAWS = 1000


def _draw_perturbed(rng: Xoshiro256StarStar, z0: np.ndarray, scale: float):
    """One valid perturbed start, with the number of redraws it took;
    ValueError if none of _MAX_DRAWS draws is valid."""
    for redraws in range(_MAX_DRAWS):
        delta = np.array([rng.normal() for _ in range(8)])
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            continue
        z = z0 + delta * (scale / norm)
        # a separation that overflows is NaN and fails the test
        with np.errstate(over="ignore", invalid="ignore"):
            if z[1] > 0.0 and z[3] > 0.0 and separation(*z[:4]) > COLLISION_EPSILON:
                return z, redraws
    raise ValueError(f"no valid start in {_MAX_DRAWS} draws at scale {scale!r}")


def perturb_and_measure(experiment: PerturbationExperiment) -> dict:
    """Run the perturbation protocol and summarize every trial.

    The report is reproducible bit for bit from the seed: the generator is
    fully specified, every start is drawn before any integration, and the
    trials then run as one deterministic batch in which each row follows
    the arithmetic of a lone run, so a trial does not depend on n_trials.
    A row that collides or underflows is recorded in place rather than
    aborting the batch, with the engine's message. Each trial's stats give
    its accepted and rejected steps, the interpolants built for it and its
    smallest and largest accepted step; the report's stats give the field
    evaluations of the batch and the generator of its frame.

    An elliptic equilibrium's trials run in the frame that rotates with its
    generator xi, where the equilibrium is at rest: the batch integrates
    z~' = X_H(z~) - X_xi(z~) for z~(t) = exp(-t xi) z(t), so the steps need
    not follow the rotation, and each accepted state is carried back to
    the chart exactly by exp(t xi). The events read only the separation,
    which the frame leaves as it is. Both families share one right-hand
    side, _field_array with the frame's generator or None; in the frame it
    evaluates X_H - X_xi from a coefficient table built once per masses,
    coupling and generator, and rounds each column as it would alone. A
    hyperbolic equilibrium's trials stay in the chart, since a trial that
    wanders off the equilibrium would be swept along by the frame's own
    dilation and need more steps there.

    A trial's samples are its accepted steps. ``max_distance_deviation``
    is the largest change of the separation along them and is the
    stability signal. ``max_chart_deviation`` is the largest chart
    distance to the unkicked equilibrium at the same time, so on a stable
    point it also measures the phase drift of an orbit whose period the
    kick has changed, and it grows with the horizon (0.143 against a
    separation deviation of 8.3e-4 over AC-10's 50 stable trials, seed
    20260816).
    """
    re = experiment.base
    params = re.params
    z0 = initial_state(re).as_array()
    r0 = float(re.distance)
    rng = Xoshiro256StarStar(experiment.seed)
    m1, m2, k = params.m1, params.m2, params.k
    frame = re.xi if re.family is Family.ELLIPTIC else None

    def rhs(z):
        return _field_array(z, m1, m2, k, frame)

    def escape(z):
        d = separation(z[0], z[1], z[2], z[3])
        return abs(d - r0) - ESCAPE_THRESHOLD

    starts = [_draw_perturbed(rng, z0, experiment.scale) for _ in range(experiment.n_trials)]
    sol = solve_ivp(
        rhs,
        experiment.horizon,
        np.array([z for z, _ in starts]).T,
        rtol=experiment.rel_tol,
        atol=experiment.abs_tol,
        events=(_collision_event, escape),
    )
    trials = []
    for i, (_, redraws) in enumerate(starts):
        collided = sol.status[i] == 1 and sol.t_events[i][0].size > 0
        escaped = sol.status[i] == 1 and not collided
        # the samples are the accepted steps, ending at the event if one fired,
        # carried back to the chart by the flow of the frame
        states = sol.y[i]
        if frame is not None:
            states = _to_chart(frame, sol.t[i], states)
        error = "collision" if collided else "step_underflow" if sol.status[i] < 0 else None
        trials.append({
            "trial": i,
            "redraws": redraws,
            "escaped": escaped,
            "escape_time": float(sol.t_events[i][1][0]) if escaped else None,
            "max_distance_deviation": float(np.max(np.abs(separation(*states[:4]) - r0))),
            "max_chart_deviation": _max_chart_deviation(re, sol.t[i], states.T),
            "error": error,
            **({"message": sol.message[i]} if error is not None else {}),
            "stats": {key: getattr(sol, key)[i] for key in _STATS[1:]},
        })

    n_escaped = sum(1 for t in trials if t["escaped"])
    n_bounded = sum(
        1
        for t in trials
        if not t["escaped"]
        and t["error"] is None
        and t["max_distance_deviation"] < STABLE_BAND
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
            "escape_threshold": ESCAPE_THRESHOLD,
            "stable_band": STABLE_BAND,
            "rel_tol": experiment.rel_tol,
            "abs_tol": experiment.abs_tol,
        },
        "n_escaped": n_escaped,
        "n_bounded": n_bounded,
        "max_distance_deviation": max(t["max_distance_deviation"] for t in trials),
        "stats": {
            "nfev": sol.nfev,
            "frame_xi": None if frame is None else [frame.E, frame.H, frame.P],
        },
        "trials": trials,
    }
