"""Upper half-plane model of the hyperbolic plane.

Points live in the chart {(x, y) : y > 0} with metric (dx^2 + dy^2) / y^2.
A geodesic is given by a point and a unit initial velocity; the
exponential map walks it by arc length in closed form (Cannon, Floyd,
Kenyon & Parry, "Hyperbolic Geometry", MSRI 1997, sections 7-10), with no
case split between half-circles and vertical lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoincidentPoints


@dataclass(frozen=True)
class Point:
    """A point of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0.0:
            raise ValueError(f"point must have y > 0, got y={self.y!r}")


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector (vx, vy) in chart coordinates, attached at ``base``."""

    base: Point
    vx: float
    vy: float

    def chart_norm(self) -> float:
        return math.hypot(self.vx, self.vy)

    def hyperbolic_norm(self) -> float:
        return math.hypot(self.vx, self.vy) / self.base.y


def hyperbolic_inner(v: TangentVector, w: TangentVector) -> float:
    """Riemannian inner product of two vectors attached at the same point."""
    return (v.vx * w.vx + v.vy * w.vy) / (v.base.y * v.base.y)


class Orientation(Enum):
    EQUAL = "equal"
    OPPOSITE = "opposite"


def _tanh_sech(d: float) -> tuple[float, float]:
    """(tanh d, sech d): the point at arc distance d from (0, 1) along the
    unit half-circle, toward positive x."""
    return math.tanh(d), 1.0 / math.cosh(d)


def separation(x1, y1, x2, y2):
    """Distance between (x1, y1) and (x2, y2); floats or arrays alike.

    With u = |q1 - q2|^2 / (2 y1 y2) = cosh(d) - 1, the half-angle form
    sinh(d/2) = sqrt(u/2) keeps full precision for nearly coincident points.
    """
    dx = x1 - x2
    dy = y1 - y2
    u = (dx * dx + dy * dy) / (2.0 * y1 * y2)
    return 2.0 * np.arcsinh(np.sqrt(0.5 * u))


def hyperbolic_distance(a: Point, b: Point) -> float:
    """Distance between two points."""
    return float(separation(a.x, a.y, b.x, b.y))


def geodesic_direction(x1, y1, x2, y2):
    """Unit chart direction (tx, ty) at (x1, y1) of the geodesic toward
    (x2, y2); floats or arrays alike.

    It is the tangent of the circle through both points, centered on the
    x-axis, scaled by 2 (x1 - x2) so that it needs no division and covers
    vertical geodesics too.
    """
    dx = x1 - x2
    tx = -2.0 * y1 * dx
    ty = dx * dx + (y2 - y1) * (y2 + y1)
    n = np.hypot(tx, ty)
    return tx / n, ty / n


def exponential_map(x, y, tx, ty, s):
    """Walk arc length s from (x, y) along unit chart direction (tx, ty).

    Returns the point (x + y tx sinh(s) / D, y / D), D = cosh s - ty sinh s,
    and its unit velocity (y tx, -y (sinh s - ty cosh s)) / D^2 in chart
    components; floats or arrays alike. D is summed from two positive
    terms, with 1 -+ ty written as tx^2 / (1 +- ty), so nearly vertical
    directions keep full precision.
    """
    sign = np.copysign(1.0, ty)
    wide = 1.0 + np.abs(ty)
    a = 0.5 * wide * np.exp(-sign * s)
    b = 0.5 * tx * tx / wide * np.exp(sign * s)
    d = a + b
    scale = y / (d * d)
    return x + y * tx * np.sinh(s) / d, y / d, scale * tx, scale * sign * (a - b)


def geodesic_through(a: Point, b: Point) -> TangentVector:
    """Unit tangent vector at ``a`` of the geodesic running toward ``b``.

    The vector stands for the oriented geodesic: geodesic_point_at of it at
    arc length d(a, b) is b. Raises CoincidentPoints when a == b.
    """
    if a == b:
        raise CoincidentPoints(f"cannot join {a} to {b}: points coincide")
    tx, ty = geodesic_direction(a.x, a.y, b.x, b.y)
    return TangentVector(a, float(a.y * tx), float(a.y * ty))


def geodesic_point_at(g: TangentVector, s: float) -> TangentVector:
    """Point at arc length ``s`` along the geodesic leaving ``g.base`` in
    the direction of ``g``, with its unit tangent attached."""
    n = g.chart_norm()
    x, y, vx, vy = exponential_map(g.base.x, g.base.y, g.vx / n, g.vy / n, s)
    return TangentVector(Point(float(x), float(y)), float(vx), float(vy))
