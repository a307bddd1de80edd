"""Upper half-plane model of the hyperbolic plane.

Points live in the chart {(x, y) : y > 0} with metric (dx^2 + dy^2) / y^2.
Geodesics are half-circles centered on the x-axis together with vertical
lines; both carry a unit-speed arc-length parametrization so distances can
be read off parameter differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import CoincidentPoints, NotOnGeodesic, NotPerpendicular, ZeroVector

# |a.x - b.x| below this (scaled) means the joining geodesic is a vertical line
_VERTICAL_TIE = 1e-12
# chart mismatch allowed before a point is rejected as off-geodesic
_ON_GEODESIC_TOL = 1e-9
# relative tolerance for the perpendicularity test in normal_orientation
_PERP_TOL = 1e-9


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


@dataclass(frozen=True)
class HalfCircle:
    """Geodesic half-circle of radius ``radius`` centered at (center_x, 0).

    orientation +1 traverses it with x increasing, -1 with x decreasing.
    Arc-length parameter s = 0 sits at the apex (center_x, radius).
    """

    center_x: float
    radius: float
    orientation: int = 1

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class VerticalLine:
    """Geodesic vertical line x = x0.

    orientation +1 traverses it upward; s = 0 sits at height y = 1.
    """

    x0: float
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")


Geodesic = Union[HalfCircle, VerticalLine]


class Orientation(Enum):
    EQUAL = "equal"
    OPPOSITE = "opposite"


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


def geodesic_through(a: Point, b: Point) -> Geodesic:
    """The oriented geodesic through two distinct points.

    Orientation is chosen so travel from ``a`` to ``b`` runs in the +s
    direction. Raises CoincidentPoints when a and b agree within tolerance.
    """
    xscale = max(1.0, abs(a.x), abs(b.x))
    if abs(a.x - b.x) <= _VERTICAL_TIE * xscale:
        if abs(a.y - b.y) <= _VERTICAL_TIE * max(1.0, a.y, b.y):
            raise CoincidentPoints(f"cannot join {a} to {b}: points coincide")
        return VerticalLine(x0=0.5 * (a.x + b.x), orientation=1 if b.y > a.y else -1)
    # center is where the perpendicular bisector of the chord meets the x-axis
    c = (a.x * a.x + a.y * a.y - b.x * b.x - b.y * b.y) / (2.0 * (a.x - b.x))
    r = math.hypot(a.x - c, a.y)
    return HalfCircle(center_x=c, radius=r, orientation=1 if b.x > a.x else -1)


def geodesic_point_at(g: Geodesic, s: float) -> TangentVector:
    """Point of ``g`` at arc length ``s``, with its unit tangent attached.

    HalfCircle: (center_x + r*tanh(u), r*sech(u)) with u = orientation*s.
    VerticalLine: (x0, exp(u)). Both have unit hyperbolic speed in s.
    """
    if isinstance(g, VerticalLine):
        y = math.exp(g.orientation * s)
        return TangentVector(Point(g.x0, y), 0.0, g.orientation * y)
    u = g.orientation * s
    sech = 1.0 / math.cosh(u)
    tanh = math.tanh(u)
    p = Point(g.center_x + g.radius * tanh, g.radius * sech)
    vx = g.orientation * g.radius * sech * sech
    vy = -g.orientation * g.radius * sech * tanh
    return TangentVector(p, vx, vy)


def arc_coordinate(g: Geodesic, p: Point) -> float:
    """Arc-length coordinate of a point lying on ``g``.

    Raises NotOnGeodesic when reconstructing the point from the recovered
    coordinate misses ``p`` by more than 1e-9 (scaled) in the chart.
    """
    if isinstance(g, VerticalLine):
        s = g.orientation * math.log(p.y)
    else:
        xi = (p.x - g.center_x) / g.radius
        if not -1.0 < xi < 1.0:
            raise NotOnGeodesic(f"{p} is outside the span of {g}")
        s = g.orientation * math.atanh(xi)
    probe = geodesic_point_at(g, s).base
    scale = max(1.0, abs(p.x), p.y)
    if math.hypot(probe.x - p.x, probe.y - p.y) > _ON_GEODESIC_TOL * scale:
        raise NotOnGeodesic(f"{p} does not lie on {g}")
    return s


def normal_orientation(g: Geodesic, v1: TangentVector, v2: TangentVector) -> Orientation:
    """Do two normal vectors along ``g`` point to the same side?

    Both vectors must be attached at points of ``g`` and perpendicular to it.
    The verdict compares the sign of det(v, tangent) at each base point, so
    it does not depend on the orientation or parameter origin of ``g``.
    """
    dets = []
    for v in (v1, v2):
        if v.chart_norm() == 0.0:
            raise ZeroVector("normal vector has zero length")
        s = arc_coordinate(g, v.base)
        t = geodesic_point_at(g, s)
        inner = hyperbolic_inner(v, t)
        if abs(inner) > _PERP_TOL * v.hyperbolic_norm() * t.hyperbolic_norm():
            raise NotPerpendicular(
                f"vector at {v.base} is not normal to the geodesic "
                f"(tangential component {inner:.3e})"
            )
        dets.append(v.vx * t.vy - v.vy * t.vx)
    return Orientation.EQUAL if dets[0] * dets[1] > 0.0 else Orientation.OPPOSITE
