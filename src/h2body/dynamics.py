"""Hamiltonian mechanics of two gravitating bodies on the hyperbolic plane.

States are cotangent: chart positions (x1, y1, x2, y2) and conjugate
momenta (px1, py1, px2, py2). The kinetic metric is the hyperbolic one
scaled by each mass, the potential is -k m1 m2 coth(distance), and the
isometry group acts by the cotangent lift of the Moebius action with an
equivariant momentum map.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import Collision
from .geom import Point, TangentVector, hyperbolic_distance
from .liegroup import (
    AlgebraElement,
    CoalgebraElement,
    GroupElement,
    generator_field,
    moebius_map,
)

# separations at or below this are treated as collision
COLLISION_EPSILON = 1e-8


def _require_positive(name, value):
    # a chained comparison, not math.isfinite, which overflows on huge ints
    if not 0.0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Params:
    """Masses and gravitational coupling, all positive and finite."""

    m1: float
    m2: float
    k: float = 1.0

    def __post_init__(self):
        for name in ("m1", "m2", "k"):
            _require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class Configuration:
    """Positions of the two bodies, bounded away from collision."""

    q1: Point
    q2: Point

    def __post_init__(self):
        if self.distance() <= COLLISION_EPSILON:
            raise Collision(
                f"separation {self.distance():.3e} is inside the collision cutoff"
            )

    def distance(self) -> float:
        return hyperbolic_distance(self.q1, self.q2)

    def coords(self) -> tuple:
        """Chart coordinates (x1, y1, x2, y2)."""
        return self.q1.x, self.q1.y, self.q2.x, self.q2.y


@dataclass(frozen=True)
class PhaseState:
    """Cotangent state: a configuration plus chart momenta."""

    config: Configuration
    px1: float
    py1: float
    px2: float
    py2: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [*self.config.coords(), self.px1, self.py1, self.px2, self.py2]
        )

    @staticmethod
    def from_array(arr) -> "PhaseState":
        x1, y1, x2, y2, px1, py1, px2, py2 = (float(v) for v in arr)
        return PhaseState(
            Configuration(Point(x1, y1), Point(x2, y2)), px1, py1, px2, py2
        )


def phase_state(x1, y1, x2, y2, px1, py1, px2, py2) -> PhaseState:
    """Convenience constructor from eight chart coordinates."""
    return PhaseState(Configuration(Point(x1, y1), Point(x2, y2)), px1, py1, px2, py2)


# -- potential -----------------------------------------------------------
#
# Each formula below takes chart coordinates as floats, arrays, complex
# numbers or mpmath mpf alike; the dataclass API passes floats, trajectory
# code passes columns and the stability oracles pass complex steps.

def _potential(x1, y1, x2, y2, params):
    """-k m1 m2 coth(d) through the chart formula, with no inverse
    hyperbolic function."""
    dx = x1 - x2
    a = dx * dx + (y1 - y2) ** 2
    b = dx * dx + (y1 + y2) ** 2
    num = dx * dx + y1 * y1 + y2 * y2
    return -params.k * params.m1 * params.m2 * num / np.sqrt(a * b)


def _potential_gradient(x1, y1, x2, y2, kmm):
    """Chart gradient (x1, y1, x2, y2) of -kmm coth(d).

    Chain rule through cosh(d): dV/dc = kmm * d(cosh d)/dc / sinh(d)^3.
    """
    dx = x1 - x2
    dy = y1 - y2
    half = 0.5 * (dx * dx + dy * dy)
    yy = y1 * y2
    u = half / yy
    # sinh(d)^2 = cosh(d)^2 - 1 factored as u (2 + u); the squared form
    # cancels catastrophically once the bodies are close. w sqrt(w) rather
    # than w ** 1.5: sqrt rounds correctly, so floats and arrays agree bit
    # for bit, where numpy's vectorized pow and the scalar one can differ
    w = u * (2.0 + u)
    c = kmm / (w * np.sqrt(w)) / yy
    gx1 = c * dx
    gy1 = c * (dy - half / y1)
    gy2 = -c * (dy + half / y2)
    return gx1, gy1, -gx1, gy2


def _kinetic(x1, y1, x2, y2, px1, py1, px2, py2, params):
    """Cometric kinetic energy, each body's momentum raised by y^2 / m."""
    t1 = y1 * y1 * (px1 * px1 + py1 * py1) / params.m1
    t2 = y2 * y2 * (px2 * px2 + py2 * py2) / params.m2
    return 0.5 * (t1 + t2)


def _momentum(x1, y1, x2, y2, px1, py1, px2, py2):
    """Momentum map components (Jh, Je, Jp)."""
    jh = x1 * px1 + y1 * py1 + x2 * px2 + y2 * py2
    je1 = 0.5 * px1 * (y1 * y1 - x1 * x1 - 1.0) - py1 * x1 * y1
    je2 = 0.5 * px2 * (y2 * y2 - x2 * x2 - 1.0) - py2 * x2 * y2
    return jh, je1 + je2, px1 + px2


def generator_momenta(xi: AlgebraElement, x1, y1, x2, y2, params):
    """Momenta (px1, py1, px2, py2) whose velocity is the generator flow of
    xi at each body: m/y^2 times the chart field."""
    gx1, gy1 = generator_field(xi, x1, y1)
    gx2, gy2 = generator_field(xi, x2, y2)
    c1 = params.m1 / (y1 * y1)
    c2 = params.m2 / (y2 * y2)
    return c1 * gx1, c1 * gy1, c2 * gx2, c2 * gy2


def potential(config: Configuration, params: Params) -> float:
    """Attractive cotangent potential -k m1 m2 coth(d).

    Agrees with the coth-of-distance form to rounding. Tends to -inf like
    -1/d at collision and to -k m1 m2 at infinite separation.
    """
    return float(_potential(*config.coords(), params))


# -- energy and equations of motion --------------------------------------

def kinetic_energy(state: PhaseState, params: Params) -> float:
    return _kinetic(*state.as_array().tolist(), params)


def hamiltonian(state: PhaseState, params: Params) -> float:
    """Total energy: cometric kinetic term plus potential."""
    return kinetic_energy(state, params) + potential(state.config, params)


def hamiltonian_vector_field(state: PhaseState, params: Params) -> np.ndarray:
    """Right-hand side of Hamilton's equations, ordered like as_array()."""
    return _field_array(state.as_array(), params.m1, params.m2, params.k)


def _field_array(z, m1, m2, k, xi=None):
    """Array-in, array-out equations of motion; hot path for integrators.

    Returns X_H at the states z, (8,) or (8, N), or for an (8, N) batch
    with xi the field X_H - X_xi of the frame that moves with the flow of
    xi (a state z~ of that frame is exp(-t xi) z(t)). A lone (8,) state
    runs on Python floats, which round as numpy scalars do at less cost
    per operation. A batch runs X_H on its rows, which is the reference
    definition; with xi it runs the coefficient table of _frame_field
    instead, which agrees with the definition, X_H less _generator_lift,
    to rounding."""
    if xi is not None:
        return _frame_field(m1, m2, k, xi.E, xi.H, xi.P)(z)
    x1, y1, x2, y2, px1, py1, px2, py2 = z.tolist() if z.ndim == 1 else z
    gx1, gy1, gx2, gy2 = _potential_gradient(x1, y1, x2, y2, k * m1 * m2)
    s1 = y1 / m1
    s2 = y2 / m2
    r1 = s1 * y1
    r2 = s2 * y2
    return np.array(
        [
            r1 * px1,
            r1 * py1,
            r2 * px2,
            r2 * py2,
            -gx1,
            -gy1 - s1 * (px1 * px1 + py1 * py1),
            -gx2,
            -gy2 - s2 * (px2 * px2 + py2 * py2),
        ]
    )


def _generator_lift(xi: AlgebraElement, z):
    """Cotangent lift of the generator field of xi at the states z, (8,) or
    (8, N), ordered like as_array(): the field the flow of xi moves a state
    with. Its chart part is the generator field at each body; its momentum
    part is minus the transposed chart Jacobian [[a, b], [-b, a]] of the
    generator applied to the momenta, a = H - E x and b = E y."""
    x1, y1, x2, y2, px1, py1, px2, py2 = z
    a1 = xi.H - xi.E * x1
    b1 = xi.E * y1
    a2 = xi.H - xi.E * x2
    b2 = xi.E * y2
    return np.array(
        [
            *generator_field(xi, x1, y1),
            *generator_field(xi, x2, y2),
            b1 * py1 - a1 * px1,
            -(b1 * px1 + a1 * py1),
            b2 * py2 - a2 * px2,
            -(b2 * px2 + a2 * py2),
        ]
    )


# X_H - X_xi is a polynomial in the state and in 4 gradient rows, with
# coefficients fixed by (m1, m2, k, xi). Its basis is the 8 state rows
# (0-7); 14 quadratic monomials (8-21), per body y^2, x^2, x y, y py, x px,
# y px and x py, each a product of two state rows; 8 cubic ones (22-29),
# per body y^2 px, y^2 py, y px^2 and y py^2, each a quadratic y px or
# y py times a state row; the gradient rows dx, dy, half / y1 and
# half / y2 over w^1.5 y1 y2 (30-33, see _potential_gradient); and a row
# of ones (34) that carries the constant and pads each row's terms.
_QUADRATIC = np.array([
    (1, 1), (0, 0), (0, 1), (1, 5), (0, 4), (1, 4), (0, 5),
    (3, 3), (2, 2), (2, 3), (3, 7), (2, 6), (3, 6), (2, 7),
]).T
_CUBIC = np.array([
    (5, 1), (3, 1), (5, 4), (3, 5), (12, 3), (10, 3), (12, 6), (10, 7),
]).T
_GRADIENT = 30
_ONE = 34


@functools.lru_cache(maxsize=16)
def _frame_field(m1, m2, k, e, h, p):
    """X_H - X_xi, xi = (E, H, P) = (e, h, p), as a function of (8, N)
    states, its terms tabulated once. Each row of the field is a list of
    coefficients times basis rows, summed in the table's order; that sum
    and every other step are elementwise or run along the term axis, so
    each column rounds as it would alone, whatever N is. The terms are
    associated differently from _field_array's formulas and
    _generator_lift, which stay the definition, so the two agree to
    rounding."""
    # memoised calls that differ only in a zero's sign share one entry,
    # built from +0.0 whichever call comes first
    e, h, p = e + 0.0, h + 0.0, p + 0.0
    kmm = k * m1 * m2
    dx, dy = _GRADIENT, _GRADIENT + 1
    rows = [None] * 8
    for body, m, sign in ((0, m1, -1.0), (1, m2, 1.0)):
        x, y, px, py = 2 * body, 2 * body + 1, 4 + 2 * body, 5 + 2 * body
        yy, xx, xy, ypy, xpx, ypx, xpy = range(8 + 7 * body, 15 + 7 * body)
        yypx, yypy, ypxpx, ypypy = range(22 + 4 * body, 26 + 4 * body)
        # the cometric raises the momenta by y^2 / m; X_xi is the lift
        # written out in its monomials (see _generator_lift)
        rows[x] = [(yypx, 1.0 / m), (yy, -0.5 * e), (xx, 0.5 * e), (x, -h),
                   (_ONE, 0.5 * e - p)]
        rows[y] = [(yypy, 1.0 / m), (xy, e), (y, -h)]
        # -grad V: body 1 takes -kmm (dx, dy - half / y1), body 2
        # kmm (dx, dy + half / y2)
        rows[px] = [(dx, sign * kmm), (ypy, -e), (xpx, -e), (px, h)]
        rows[py] = [(dy, sign * kmm), (_GRADIENT + 2 + body, kmm),
                    (ypxpx, -1.0 / m), (ypypy, -1.0 / m), (xpy, -e), (ypx, e), (py, h)]
    # pad every row to the longest, a py row, with zero times the ones
    width = max(map(len, rows))
    for row in rows:
        row += [(_ONE, 0.0)] * (width - len(row))
    basis_rows = np.array([[b for b, _ in row] for row in rows]).T
    coefficients = np.array([[c for _, c in row] for row in rows]).T[:, :, None]
    left, right = _QUADRATIC
    quadratic_left, cubic_right = _CUBIC

    def field(z):
        quadratic = z.take(left, 0) * z.take(right, 0)
        cubic = quadratic.take(quadratic_left, 0) * z.take(cubic_right, 0)
        # _potential_gradient's chain rule, its factor kmm in the table
        d = z[:2] - z[2:4]
        dd = d * d
        half = 0.5 * (dd[0] + dd[1])
        yy = z[1] * z[3]
        u = half / yy
        w = u * (2.0 + u)
        gradient = np.concatenate((d, half / z[1:4:2])) / (w * np.sqrt(w) * yy)
        basis = np.concatenate((z, quadratic, cubic, gradient, np.ones((1, z.shape[1]))))
        return np.add.reduce(basis.take(basis_rows, 0) * coefficients, axis=0)

    return field


def velocity_vectors(state: PhaseState, params: Params):
    """Chart velocities obtained by raising the momenta with the cometric."""
    q1, q2 = state.config.q1, state.config.q2
    r1 = q1.y * q1.y / params.m1
    r2 = q2.y * q2.y / params.m2
    return (
        TangentVector(q1, r1 * state.px1, r1 * state.py1),
        TangentVector(q2, r2 * state.px2, r2 * state.py2),
    )


def legendre(config: Configuration, params: Params, xi: AlgebraElement) -> PhaseState:
    """State whose velocity is the generator flow of xi at each body."""
    return PhaseState(config, *generator_momenta(xi, *config.coords(), params))


# -- symmetry ------------------------------------------------------------

def momentum_map(state: PhaseState) -> CoalgebraElement:
    """Conserved momentum of the isometry action; mass-independent in the
    momenta. Components pair with algebra elements: <J, xi> = sum p(xi_Q)."""
    jh, je, jp = _momentum(*state.as_array().tolist())
    return CoalgebraElement(je, jh, jp)


def _act_phase(a, b, c, d, z):
    """Cotangent lift of the Moebius map with entries (a, b, c, d) at the
    state z, ordered like as_array(); floats or arrays alike, so an (8, N)
    batch may take one map per column.

    Momenta transform by the inverse transpose of the chart Jacobian; for
    a conformal map that is complex multiplication by conj((c z + d)^2).
    """
    x1, y1, x2, y2, px1, py1, px2, py2 = z
    out = []
    for x, y, px, py in ((x1, y1, px1, py1), (x2, y2, px2, py2)):
        ux = c * x + d
        uy = c * y
        # conj((cz+d)^2)
        wx = ux * ux - uy * uy
        wy = -2.0 * ux * uy
        out.append((*moebius_map(a, b, c, d, x, y), px * wx - py * wy, px * wy + py * wx))
    (x1, y1, px1, py1), (x2, y2, px2, py2) = out
    return x1, y1, x2, y2, px1, py1, px2, py2


def group_act_phase(g: GroupElement, state: PhaseState) -> PhaseState:
    """Cotangent lift of the Moebius action; see _act_phase. The lift is
    metric-independent, hence mass-independent."""
    return phase_state(*_act_phase(g.a, g.b, g.c, g.d, state.as_array().tolist()))


# -- locked inertia and augmented potential ------------------------------

def _body_inertia(x, y, m):
    """One body's share of the locked inertia, entries (11, 22, 33, 12, 13,
    23): m <xi_i, xi_j> in the hyperbolic metric at (x, y)."""
    y2 = y * y
    r2 = x * x + y2
    c = m / y2
    return (
        0.25 * c * ((r2 + 1.0) ** 2 - 4.0 * y2),
        c * r2,
        c,
        -0.5 * c * x * (1.0 + r2),
        -0.5 * c * (1.0 + x * x - y2),
        c * x,
    )


def _locked_inertia(x1, y1, x2, y2, m1, m2):
    """Rows of the locked inertia tensor, index order (E, H, P)."""
    i11, i22, i33, i12, i13, i23 = (
        a + b for a, b in zip(_body_inertia(x1, y1, m1), _body_inertia(x2, y2, m2))
    )
    return (i11, i12, i13), (i12, i22, i23), (i13, i23, i33)


def _augmented_potential(x1, y1, x2, y2, params, xi):
    """V - 1/2 <II xi, xi>: the rotational term is the kinetic energy of the
    state that moves with the generator flow of xi."""
    p = generator_momenta(xi, x1, y1, x2, y2, params)
    return _potential(x1, y1, x2, y2, params) - _kinetic(x1, y1, x2, y2, *p, params)


def _rotational_gradient(xi, x, y, m):
    """Chart gradient of one body's rotational term m |gen(xi)|^2 / (2 y^2);
    the generator's chart Jacobian is [[a, b], [-b, a]], a = H - E x, b = E y."""
    gx, gy = generator_field(xi, x, y)
    a = xi.H - xi.E * x
    b = xi.E * y
    c = m / (y * y)
    return c * (gx * a - gy * b), c * (gx * b + gy * a - (gx * gx + gy * gy) / y)


def _augmented_potential_gradient(x1, y1, x2, y2, params, xi):
    """Chart gradient (x1, y1, x2, y2) of _augmented_potential."""
    kmm = params.k * params.m1 * params.m2
    gx1, gy1, gx2, gy2 = _potential_gradient(x1, y1, x2, y2, kmm)
    rx1, ry1 = _rotational_gradient(xi, x1, y1, params.m1)
    rx2, ry2 = _rotational_gradient(xi, x2, y2, params.m2)
    return gx1 - rx1, gy1 - ry1, gx2 - rx2, gy2 - ry2


def locked_inertia(config: Configuration, params: Params) -> np.ndarray:
    """Kinetic-metric Gram matrix of the three generator fields, a symmetric
    3x3 array on algebra coordinates, index order (E, H, P).

    Entry (i, j) is sum_bodies m <xi_i at q, xi_j at q> in the hyperbolic
    metric; closed forms avoid assembling the generators.
    """
    return np.array(_locked_inertia(*config.coords(), params.m1, params.m2))


def augmented_potential(
    config: Configuration, params: Params, xi: AlgebraElement
) -> float:
    """Potential corrected by the rotational kinetic term,
    V - 1/2 <II xi, xi>. Relative equilibria are its critical points."""
    return float(_augmented_potential(*config.coords(), params, xi))


def augmented_potential_gradient(
    config: Configuration, params: Params, xi: AlgebraElement
) -> np.ndarray:
    """Chart gradient of the augmented potential, ordered (x1, y1, x2, y2)."""
    return np.array(_augmented_potential_gradient(*config.coords(), params, xi))
