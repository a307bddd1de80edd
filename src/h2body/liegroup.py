"""The isometry group SL(2,R), its Lie algebra, and the dual.

Group elements act on the half-plane by Moebius maps. Algebra elements are
stored as coordinates (E, H, P) in a fixed basis of rotation, dilation and
horizontal-translation generators; coalgebra elements in the dual basis.
The trace pairing <mu, xi> = 2 tr(mu xi) reproduces the coordinate pairing
e*E + h*H + p*P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geom import Point, TangentVector

# |det(matrix of xi)| below 1e-12 * |xi|^2 counts as parabolic
_PARABOLIC_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """Element of SL(2,R) as matrix entries ((a, b), (c, d)).

    Any positive-determinant input is accepted and rescaled to det 1;
    non-positive determinants are rejected.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not det > 0.0:
            raise ValueError(f"matrix must have positive determinant, got {det!r}")
        if det != 1.0:
            s = math.sqrt(det)
            object.__setattr__(self, "a", self.a / s)
            object.__setattr__(self, "b", self.b / s)
            object.__setattr__(self, "c", self.c / s)
            object.__setattr__(self, "d", self.d / s)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Matrix product self * other (apply ``other`` first)."""
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)


def identity() -> GroupElement:
    return GroupElement(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class AlgebraElement:
    """sl(2,R) element with coordinates E (rotation), H (dilation),
    P (horizontal translation)."""

    E: float
    H: float
    P: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [0.5 * self.H, -0.5 * self.E + self.P],
                [0.5 * self.E, -0.5 * self.H],
            ]
        )

    @staticmethod
    def from_matrix(m) -> "AlgebraElement":
        # E = 2 m10, H = 2 m00, P = m01 + m10; traceless part is implied
        return AlgebraElement(
            2.0 * float(m[1][0]),
            2.0 * float(m[0][0]),
            float(m[0][1]) + float(m[1][0]),
        )

    def coords(self) -> np.ndarray:
        return np.array([self.E, self.H, self.P])

    def __add__(self, other):
        return AlgebraElement(self.E + other.E, self.H + other.H, self.P + other.P)

    def __mul__(self, t):
        return AlgebraElement(self.E * t, self.H * t, self.P * t)

    __rmul__ = __mul__


@dataclass(frozen=True)
class CoalgebraElement:
    """Element of the dual algebra in the basis dual to (E, H, P)."""

    e: float
    h: float
    p: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [0.5 * self.h, self.e + 0.5 * self.p],
                [0.5 * self.p, -0.5 * self.h],
            ]
        )

    @staticmethod
    def from_matrix(m) -> "CoalgebraElement":
        # h = 2 m00, p = 2 m10, e = m01 - m10
        return CoalgebraElement(
            float(m[0][1]) - float(m[1][0]),
            2.0 * float(m[0][0]),
            2.0 * float(m[1][0]),
        )

    def pair(self, xi: AlgebraElement) -> float:
        """Natural pairing; identical to 2 tr(self.matrix() @ xi.matrix())."""
        return self.e * xi.E + self.h * xi.H + self.p * xi.P

    def coords(self) -> np.ndarray:
        return np.array([self.e, self.h, self.p])

    def norm(self) -> float:
        m = self.matrix()
        return float(np.sqrt(np.sum(m * m)))


XI_E = AlgebraElement(1.0, 0.0, 0.0)  # rotation about (0, 1)
XI_H = AlgebraElement(0.0, 1.0, 0.0)  # dilation from the origin
XI_P = AlgebraElement(0.0, 0.0, 1.0)  # horizontal translation


class ElementType(Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ZERO = "zero"


@dataclass(frozen=True)
class Classification:
    type: ElementType
    # rotation/boost rate for elliptic/hyperbolic, 0 otherwise
    omega: float = 0.0
    # normal-form sign for parabolic elements, 0 otherwise
    sign: int = 0


def _discriminant(xi: AlgebraElement) -> float:
    """Minus the determinant of the matrix of xi."""
    return 0.25 * xi.H * xi.H + 0.5 * xi.E * xi.P - 0.25 * xi.E * xi.E


def classify(xi: AlgebraElement) -> Classification:
    """Conjugacy type of an algebra element.

    The discriminant is minus the matrix determinant; its sign separates
    rotations (negative) from boosts (positive). A discriminant within
    1e-12 * |xi|^2 of zero, |xi| the Frobenius norm of the matrix, is
    parabolic, with the sign chosen so the element is conjugate to sign *
    translation generator. Both are computed on xi scaled exactly by the
    power of two 2^-e that brings its largest component into [0.5, 1), so
    no square overflows or underflows, and the rate 2 sqrt|disc| is scaled
    back by 2^e (inf where it exceeds the float range): s * xi has the
    type of xi, and s times its rate, for every s > 0.
    """
    if xi.E == 0.0 and xi.H == 0.0 and xi.P == 0.0:
        return Classification(ElementType.ZERO)
    e = math.frexp(max(abs(xi.E), abs(xi.H), abs(xi.P)))[1]
    E, H, P = (math.ldexp(v, -e) for v in (xi.E, xi.H, xi.P))
    disc = _discriminant(AlgebraElement(E, H, P))
    fro2 = 0.5 * H * H + (P - 0.5 * E) ** 2 + 0.25 * E * E
    if abs(disc) < _PARABOLIC_TOL * fro2:
        if E < 0.0:
            sign = 1
        elif E > 0.0:
            sign = -1
        else:
            sign = 1 if P > 0.0 else -1
        return Classification(ElementType.PARABOLIC, sign=sign)
    # 2^e sqrt|disc| / 2 is below 2^1023, so only the last product can
    # overflow, and a float product overflows to inf rather than raising
    omega = 4.0 * math.ldexp(0.5 * math.sqrt(abs(disc)), e)
    kind = ElementType.ELLIPTIC if disc < 0.0 else ElementType.HYPERBOLIC
    return Classification(kind, omega=omega)


def flow_entries(xi: AlgebraElement, t):
    """Entries (a, b, c, d) of exp(t * xi) in closed form, at a time or an
    array of times alike, from the exact sign of disc = -det(M), M the
    matrix of xi, and half = sqrt(|disc|): cos(half t) I + sin(half t) /
    half M below zero, the same with cosh/sinh above, and I + t M at zero,
    where M is nilpotent. No tolerance decides the branch, so a tiny or
    nearly parabolic xi gets its own flow, of determinant 1."""
    disc = _discriminant(xi)
    half = math.sqrt(abs(disc))
    if disc < 0.0:
        diag, s = np.cos(half * t), np.sin(half * t) / half
    elif disc > 0.0:
        diag, s = np.cosh(half * t), np.sinh(half * t) / half
    else:
        diag, s = 1.0, t
    h = 0.5 * xi.H
    return diag + s * h, s * (-0.5 * xi.E + xi.P), s * (0.5 * xi.E), diag - s * h


def flow(xi: AlgebraElement, t: float) -> GroupElement:
    """Time-t flow exp(t * xi); see flow_entries."""
    return GroupElement(*map(float, flow_entries(xi, t)))


def moebius_map(a, b, c, d, x, y):
    """Chart image (x', y') of (x, y) under z -> (az + b)/(cz + d); floats
    or arrays alike."""
    ux = c * x + d
    uy = c * y
    den = ux * ux + uy * uy
    return ((a * x + b) * ux + a * c * y * y) / den, y / den


def moebius_act(g: GroupElement, p: Point) -> Point:
    """Action of g on the half-plane, z -> (az + b)/(cz + d)."""
    return Point(*moebius_map(g.a, g.b, g.c, g.d, p.x, p.y))


def moebius_act_tangent(g: GroupElement, v: TangentVector) -> TangentVector:
    """Derivative action on tangent vectors: multiply by 1/(cz + d)^2.

    Conformal, so hyperbolic norms are preserved exactly up to rounding.
    """
    p = v.base
    ux = g.c * p.x + g.d
    uy = g.c * p.y
    # w = 1/(cz+d)^2 as a complex number
    sx = ux * ux - uy * uy
    sy = 2.0 * ux * uy
    den = sx * sx + sy * sy
    wx, wy = sx / den, -sy / den
    return TangentVector(
        moebius_act(g, p),
        v.vx * wx - v.vy * wy,
        v.vx * wy + v.vy * wx,
    )


def generator_field(xi: AlgebraElement, x, y):
    """Chart components (gx, gy) of the flow field of xi at (x, y); floats
    or arrays alike."""
    gx = 0.5 * xi.E * (y * y - x * x - 1.0) + xi.H * x + xi.P
    gy = -xi.E * x * y + xi.H * y
    return gx, gy


def infinitesimal_generator(xi: AlgebraElement, p: Point) -> TangentVector:
    """Vector field of the one-parameter flow of xi, evaluated at p."""
    return TangentVector(p, *generator_field(xi, p.x, p.y))


def bracket(xi: AlgebraElement, eta: AlgebraElement) -> AlgebraElement:
    """Lie bracket [xi, eta] from the structure constants [E, H] = E + P,
    [E, P] = -H, [H, P] = P."""
    eh = xi.E * eta.H - xi.H * eta.E
    ep = xi.E * eta.P - xi.P * eta.E
    hp = xi.H * eta.P - xi.P * eta.H
    return AlgebraElement(eh, -ep, eh + hp)


def ad_star(xi: AlgebraElement, mu: CoalgebraElement) -> CoalgebraElement:
    """Coadjoint action ad*_xi mu = [mu, xi] under the trace pairing.

    Component i is <mu, [xi, basis_i]>, so <ad*_xi mu, eta> = <mu, [xi, eta]>
    for all eta.
    """
    return CoalgebraElement(*(mu.pair(bracket(xi, b)) for b in (XI_E, XI_H, XI_P)))


def adjoint(g: GroupElement, xi: AlgebraElement) -> AlgebraElement:
    """Adjoint action Ad_g xi = g xi g^{-1}."""
    m = g.matrix() @ xi.matrix() @ g.inverse().matrix()
    return AlgebraElement.from_matrix(m)


def coadjoint(g: GroupElement, mu: CoalgebraElement) -> CoalgebraElement:
    """Momentum transport g mu g^{-1}; this is Ad*_{g^{-1}} mu."""
    m = g.matrix() @ mu.matrix() @ g.inverse().matrix()
    return CoalgebraElement.from_matrix(m)


def normalizing_isometry(p: Point, theta: float) -> GroupElement:
    """Isometry sending p to (0, 1) and the chart direction ``theta`` at p
    to the rightward direction (1, 0) there.

    Factors as a rotation about (0, 1) after the affine map that lifts p to
    (0, 1); see the tests for the explicit two-step factorization.
    """
    ch = math.cos(0.5 * theta)
    sh = math.sin(0.5 * theta)
    ry = math.sqrt(p.y)
    return GroupElement(
        ch / ry,
        -(ch * p.x + sh * p.y) / ry,
        sh / ry,
        (-sh * p.x + ch * p.y) / ry,
    )
