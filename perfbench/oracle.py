"""Reference computations made apart from the program.

Nothing here imports h2body. Every formula is derived from the model (the
upper half-plane with curvature -1, potential -k m1 m2 coth d) so that the
benchmark can judge the program's outputs without trusting the code it
measures and without a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

CSV_SCHEMA = "#schema=v1"
CSV_COLUMNS = ("t", "x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2",
               "energy", "Jh", "Je", "Jp", "dist")


def threshold_u0(c: float) -> float:
    """Stability threshold of the elliptic family at mass ratio c = m1/m2.

    The root in (0, 1) of 3u^8 + (16c^2 - 8)u^6 + 6u^4 - 1, taken from the
    companion-matrix eigenvalues of numpy.roots and polished by Newton steps
    on the same polynomial. In x = u^2 the polynomial is increasing on
    (0, 1) for every c > 0, so the root is unique.
    """
    a = 16.0 * c * c - 8.0
    roots = np.roots([3.0, 0.0, a, 0.0, 6.0, 0.0, 0.0, 0.0, -1.0])
    inside = [r.real for r in roots if abs(r.imag) < 1e-7 and 0.0 < r.real < 1.0]
    if len(inside) != 1:
        raise ValueError(f"expected one threshold root in (0, 1) at c={c!r}, got {inside}")
    u = inside[0]
    for _ in range(3):
        f = 3.0 * u ** 8 + a * u ** 6 + 6.0 * u ** 4 - 1.0
        df = 24.0 * u ** 7 + 6.0 * a * u ** 5 + 24.0 * u ** 3
        u -= f / df
    return u


def partner_d2(d1: float, c: float) -> float:
    """The d2 that balances d1 for masses (m1, m2) = (c, 1)."""
    return 0.5 * math.asinh(c * math.sinh(2.0 * d1))


def omega2(d1: float, c: float, k: float = 1.0) -> float:
    """Squared rate of both families: 2 k m1 / (sinh^2(d1 + d2) sinh 2 d2)."""
    d2 = partner_d2(d1, c)
    return 2.0 * k * c / (math.sinh(d1 + d2) ** 2 * math.sinh(2.0 * d2))


def elliptic_period(d1: float, c: float, k: float = 1.0) -> float:
    return 2.0 * math.pi / math.sqrt(omega2(d1, c, k))


# -- the elliptic motion: rigid rotation about (0, 1) ----------------------

def _rotation_field(x: float, y: float) -> tuple[float, float]:
    """Velocity of the unit-rate rotation about (0, 1): -(z^2 + 1)/2."""
    v = -0.5 * (complex(x, y) ** 2 + 1.0)
    return v.real, v.imag


def elliptic_initial_state(d1: float, c: float, k: float = 1.0) -> dict:
    """Phase state at t = 0 of the elliptic equilibrium with masses (c, 1).

    Bodies on the unit half-circle at (tanh d1, sech d1) and
    (-tanh d2, sech d2), so the center of mass is (0, 1); each momentum is
    m / y^2 times the rotation velocity at rate omega > 0.
    """
    d2 = partner_d2(d1, c)
    w = math.sqrt(omega2(d1, c, k))
    out = {}
    for i, (x, y, m) in enumerate(
        ((math.tanh(d1), 1.0 / math.cosh(d1), c), (-math.tanh(d2), 1.0 / math.cosh(d2), 1.0)),
        start=1,
    ):
        vx, vy = _rotation_field(x, y)
        out[f"x{i}"], out[f"y{i}"] = x, y
        out[f"px{i}"], out[f"py{i}"] = m * w * vx / (y * y), m * w * vy / (y * y)
    return {key: out[key] for key in ("x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2")}


def rigid_rotation(x0: float, y0: float, omega: float, t: np.ndarray) -> np.ndarray:
    """Chart positions at times t of the point (x0, y0) under the flow
    dz/dt = -omega (z^2 + 1) / 2.

    In the disk coordinate w = (z - i) / (z + i) the flow is w' = -i omega w,
    so w(t) = w0 exp(-i omega t) and z = i (1 + w) / (1 - w).
    """
    z0 = complex(x0, y0)
    w0 = (z0 - 1j) / (z0 + 1j)
    w = w0 * np.exp(-1j * omega * np.asarray(t, dtype=float))
    z = 1j * (1.0 + w) / (1.0 - w)
    return np.column_stack([z.real, z.imag])


# -- conserved quantities ------------------------------------------------

def separation(states: np.ndarray) -> np.ndarray:
    x1, y1, x2, y2 = states[:, 0], states[:, 1], states[:, 2], states[:, 3]
    u = ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2)
    return np.arccosh(1.0 + u)


def energy(states: np.ndarray, m1: float, m2: float, k: float) -> np.ndarray:
    """Kinetic energy y^2 |p|^2 / (2 m) per body plus -k m1 m2 coth d."""
    x1, y1, x2, y2, px1, py1, px2, py2 = states.T
    kinetic = y1 ** 2 * (px1 ** 2 + py1 ** 2) / (2.0 * m1) + y2 ** 2 * (px2 ** 2 + py2 ** 2) / (2.0 * m2)
    return kinetic - k * m1 * m2 / np.tanh(separation(states))


def momentum_map(states: np.ndarray) -> np.ndarray:
    """(Jh, Je, Jp): the momenta paired with the dilation field (x, y), the
    rotation field about (0, 1) and the translation field (1, 0)."""
    x1, y1, x2, y2, px1, py1, px2, py2 = states.T
    jh = px1 * x1 + py1 * y1 + px2 * x2 + py2 * y2
    z1, z2 = x1 + 1j * y1, x2 + 1j * y2
    r1, r2 = -0.5 * (z1 * z1 + 1.0), -0.5 * (z2 * z2 + 1.0)
    je = px1 * r1.real + py1 * r1.imag + px2 * r2.real + py2 * r2.imag
    jp = px1 + px2
    return np.column_stack([jh, je, jp])


# -- trajectory CSV ------------------------------------------------------

def read_csv(path: str) -> np.ndarray:
    """Parse a trajectory CSV into a (samples, 14) array, checking its
    schema line, header and row widths."""
    with open(path) as f:
        lines = f.read().splitlines()
    if len(lines) < 3:
        raise ValueError(f"{path}: {len(lines)} lines, need a schema, a header and data")
    if lines[0] != CSV_SCHEMA:
        raise ValueError(f"{path}: schema line {lines[0]!r}")
    if tuple(lines[1].split(",")) != CSV_COLUMNS:
        raise ValueError(f"{path}: header {lines[1]!r}")
    rows = []
    for n, line in enumerate(lines[2:], start=3):
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{n}: {len(fields)} fields")
        rows.append([float(v) for v in fields])
    data = np.array(rows)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values")
    return data
