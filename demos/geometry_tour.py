"""A short tour of the upper half-plane and its isometry group.

Every distance here comes from the single chart (x, y), y > 0, with the
metric scaled so the curvature is -1. A geodesic is given by a point and a
unit tangent vector there, and the exponential map walks it by arc length.
"""

import math

from h2body import Point, flow, hyperbolic_distance, moebius_act
from h2body.geom import geodesic_point_at, geodesic_through
from h2body.liegroup import AlgebraElement, classify, normalizing_isometry

######################
# Distances          #
######################

a = Point(-0.5, 0.5)
b = Point(0.5, 0.5)
print("d(a, b)            =", hyperbolic_distance(a, b))
print("expected acosh(3)  =", math.acosh(3.0))

# the same pair pushed far up: chart coordinates change, distance does not
g_up = flow(AlgebraElement(0.0, 1.0, 0.0), 2.0)
print("after an isometry  =", hyperbolic_distance(moebius_act(g_up, a), moebius_act(g_up, b)))

######################
# Geodesics          #
######################

# the unit tangent at a of the geodesic toward b
geo = geodesic_through(a, b)
print("\ngeodesic from a toward b, unit tangent:", geo)

# unit-speed parametrization: s is arc length, so walking d(a, b) reaches b
for s in (0.0, 0.5, 1.0, hyperbolic_distance(a, b)):
    tv = geodesic_point_at(geo, s)
    print(f"  s={s:.4f} -> ({tv.base.x:+.6f}, {tv.base.y:.6f})")

mid = geodesic_point_at(geo, 0.5).base
print("d(a, s=0.5) + d(s=0.5, b) =", hyperbolic_distance(a, mid) + hyperbolic_distance(mid, b),
      " (same as the distance above)")

######################
# Moving to (0, 1)   #
######################

# the normalizing isometry puts any point at (0,1) with a chosen heading
p0 = Point(1.0, 2.0)
g0 = normalizing_isometry(p0, math.pi / 4)
print("\ng0 . (1,2) =", moebius_act(g0, p0))

######################
# One-parameter flows #
######################

# the elliptic basis element rotates about (0,1), so track (0,2) instead
probe = Point(0.0, 2.0)
for name, xi in (
    ("rotation ", AlgebraElement(1.0, 0.0, 0.0)),
    ("boost    ", AlgebraElement(0.0, 1.0, 0.0)),
    ("parabolic", AlgebraElement(0.0, 0.0, 1.0)),
):
    cl = classify(xi)
    orbit = [moebius_act(flow(xi, t), probe) for t in (0.5, 1.0)]
    pts = ", ".join(f"({p.x:+.3f}, {p.y:.3f})" for p in orbit)
    print(f"{name}: type={cl.type.value:10s} rate={cl.omega:.3f}  orbit of (0,2): {pts}")
