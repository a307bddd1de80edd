"""Half-plane geometry: distances, geodesics, normal orientation."""

import math

import numpy as np
import pytest

from h2body import (
    HalfCircle,
    Orientation,
    Point,
    TangentVector,
    VerticalLine,
    arc_coordinate,
    geodesic_point_at,
    geodesic_through,
    hyperbolic_distance,
    hyperbolic_inner,
    moebius_act,
    normal_orientation,
)
from h2body.errors import (
    CoincidentPoints,
    NotOnGeodesic,
    NotPerpendicular,
    ZeroVector,
)

from conftest import random_group, random_point


def test_point_requires_positive_y():
    with pytest.raises(ValueError):
        Point(0.0, 0.0)
    with pytest.raises(ValueError):
        Point(1.0, -2.0)


class TestDistance:
    def test_identical_points(self):
        p = Point(0.3, 1.7)
        assert hyperbolic_distance(p, p) == 0.0

    def test_vertical_segment(self):
        # along x = 0 the metric integrates to log(y2/y1)
        assert hyperbolic_distance(Point(0, 1), Point(0, math.e)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_symmetric_chord(self):
        # cosh(d) = 1 + 1/(2 * 1/4) = 3, computed by hand
        a, b = Point(-0.5, 0.5), Point(0.5, 0.5)
        assert hyperbolic_distance(a, b) == pytest.approx(
            1.762747174039086, abs=1e-15
        )

    def test_unit_circle_angle_distance(self):
        # point at angle pi/3 on the unit half-circle: distance to the apex
        # equals atanh(cos theta)
        p = Point(math.cos(math.pi / 3), math.sin(math.pi / 3))
        d = hyperbolic_distance(p, Point(0.0, 1.0))
        assert d == pytest.approx(math.atanh(0.5), abs=1e-15)
        assert d == pytest.approx(0.5493061443340548, abs=1e-15)

    def test_symmetry_and_positivity(self, rng):
        for _ in range(200):
            a, b = random_point(rng), random_point(rng)
            d = hyperbolic_distance(a, b)
            assert d == hyperbolic_distance(b, a)
            assert d > 0.0

    def test_near_coincident_expansion(self):
        # tiny chord: cosh(d) is within 1e-12 of one, and the distance
        # must be the chart separation scaled by 1/y
        a = Point(0.0, 1.0)
        b = Point(1e-8, 1.0)
        d = hyperbolic_distance(a, b)
        assert d == pytest.approx(1e-8, rel=1e-9)
        assert d > 0.0
        # u = cosh(d) - 1 at and around 1e-12, where acosh(1 + u) keeps only
        # a few digits, against the series d = sqrt(2u) (1 - u/12 + ...)
        for u in (1e-13, 1e-12, 1e-11):
            b = Point(math.sqrt(2.0 * u), 1.0)
            u = 0.5 * b.x * b.x
            d = hyperbolic_distance(a, b)
            series = math.sqrt(2.0 * u) * (1.0 - u / 12.0)
            assert d == pytest.approx(series, rel=1e-12, abs=0.0)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (random_point(rng) for _ in range(3))
            assert hyperbolic_distance(a, c) <= (
                hyperbolic_distance(a, b) + hyperbolic_distance(b, c) + 1e-12
            )

    def test_isometry_invariance(self, rng):
        for _ in range(100):
            a, b = random_point(rng), random_point(rng)
            g = random_group(rng)
            d0 = hyperbolic_distance(a, b)
            d1 = hyperbolic_distance(moebius_act(g, a), moebius_act(g, b))
            assert abs(d0 - d1) < 1e-12 * max(1.0, d0)


class TestGeodesicThrough:
    def test_half_circle_example(self):
        # center from the perpendicular-bisector recipe: c = 0, r = sqrt(1/2)
        g = geodesic_through(Point(-0.5, 0.5), Point(0.5, 0.5))
        assert isinstance(g, HalfCircle)
        assert g.center_x == pytest.approx(0.0, abs=1e-15)
        assert g.radius == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert g.orientation == 1

    def test_vertical_line(self):
        g = geodesic_through(Point(2.0, 0.5), Point(2.0, 3.0))
        assert isinstance(g, VerticalLine)
        assert g.x0 == 2.0
        assert g.orientation == 1
        down = geodesic_through(Point(2.0, 3.0), Point(2.0, 0.5))
        assert down.orientation == -1

    def test_canonical_unit_circle(self):
        t1, t2 = 0.7, 0.7
        g = geodesic_through(
            Point(math.cos(t1), math.sin(t1)), Point(-math.cos(t2), math.sin(t2))
        )
        assert isinstance(g, HalfCircle)
        assert g.center_x == pytest.approx(0.0, abs=1e-15)
        assert g.radius == pytest.approx(1.0, abs=1e-15)
        assert g.orientation == -1  # travel from body 1 toward body 2

    def test_coincident_points_rejected(self):
        p = Point(0.1, 2.0)
        with pytest.raises(CoincidentPoints):
            geodesic_through(p, Point(0.1, 2.0))

    def test_contains_endpoints(self, rng):
        for _ in range(100):
            a, b = random_point(rng), random_point(rng)
            if math.hypot(a.x - b.x, a.y - b.y) < 1e-9:
                continue
            g = geodesic_through(a, b)
            sa, sb = arc_coordinate(g, a), arc_coordinate(g, b)
            assert sb > sa  # orientation runs from a to b
            assert hyperbolic_distance(a, b) == pytest.approx(sb - sa, abs=1e-10)


class TestPointAt:
    def test_unit_circle_apex(self):
        g = HalfCircle(0.0, 1.0)
        t = geodesic_point_at(g, 0.0)
        assert (t.base.x, t.base.y) == (0.0, 1.0)
        assert (t.vx, t.vy) == (1.0, 0.0)

    def test_unit_circle_matches_angle_parametrization(self):
        # arc length s from the apex lands at (tanh s, sech s)
        g = HalfCircle(0.0, 1.0)
        for s in (-1.3, -0.2, 0.4, 2.0):
            t = geodesic_point_at(g, s)
            assert t.base.x == pytest.approx(math.tanh(s), abs=1e-15)
            assert t.base.y == pytest.approx(1.0 / math.cosh(s), abs=1e-15)

    def test_vertical_exponential(self):
        g = VerticalLine(0.0)
        for s in (-2.0, 0.0, 1.5):
            t = geodesic_point_at(g, s)
            assert t.base.x == 0.0
            assert t.base.y == pytest.approx(math.exp(s), rel=1e-15)

    def test_unit_speed_and_fd_consistency(self, rng):
        # tangent must have unit hyperbolic norm and match a finite
        # difference of the curve
        for _ in range(100):
            if rng.random() < 0.3:
                g = VerticalLine(float(rng.normal()), 1 if rng.random() < 0.5 else -1)
            else:
                g = HalfCircle(
                    float(rng.normal()),
                    float(np.exp(rng.normal() * 0.7)),
                    1 if rng.random() < 0.5 else -1,
                )
            s = float(2.0 * rng.normal())
            t = geodesic_point_at(g, s)
            assert t.hyperbolic_norm() == pytest.approx(1.0, abs=1e-12)
            h = 1e-5
            plus = geodesic_point_at(g, s + h).base
            minus = geodesic_point_at(g, s - h).base
            assert (plus.x - minus.x) / (2 * h) == pytest.approx(t.vx, abs=1e-6)
            assert (plus.y - minus.y) / (2 * h) == pytest.approx(t.vy, abs=1e-6)

    def test_arc_length_is_distance(self, rng):
        for _ in range(100):
            g = HalfCircle(float(rng.normal()), float(np.exp(rng.normal() * 0.5)))
            s1, s2 = (float(2.0 * rng.normal()) for _ in range(2))
            d = hyperbolic_distance(
                geodesic_point_at(g, s1).base, geodesic_point_at(g, s2).base
            )
            assert d == pytest.approx(abs(s1 - s2), abs=1e-10)


class TestArcCoordinate:
    def test_round_trip(self, rng):
        for _ in range(50):
            g = HalfCircle(float(rng.normal()), float(np.exp(rng.normal() * 0.5)))
            s = float(2.0 * rng.normal())
            assert arc_coordinate(g, geodesic_point_at(g, s).base) == pytest.approx(
                s, abs=1e-12
            )

    def test_rejects_off_curve_point(self):
        g = HalfCircle(0.0, 1.0)
        with pytest.raises(NotOnGeodesic):
            arc_coordinate(g, Point(0.0, 2.0))
        with pytest.raises(NotOnGeodesic):
            arc_coordinate(g, Point(3.0, 0.1))
        with pytest.raises(NotOnGeodesic):
            arc_coordinate(VerticalLine(0.0), Point(0.5, 1.0))


class TestNormalOrientation:
    def test_same_side_on_unit_circle(self):
        g = HalfCircle(0.0, 1.0)
        t1 = geodesic_point_at(g, -0.6)
        t2 = geodesic_point_at(g, 0.9)
        # rotate each tangent a quarter turn in the chart: normals
        n1 = TangentVector(t1.base, -t1.vy, t1.vx)
        n2 = TangentVector(t2.base, -t2.vy, t2.vx)
        assert normal_orientation(g, n1, n2) is Orientation.EQUAL
        n2_flip = TangentVector(t2.base, t2.vy, -t2.vx)
        assert normal_orientation(g, n1, n2_flip) is Orientation.OPPOSITE

    def test_scaling_does_not_matter(self):
        g = VerticalLine(0.0)
        a = geodesic_point_at(g, 0.0)
        b = geodesic_point_at(g, 1.0)
        na = TangentVector(a.base, 3.0, 0.0)
        nb = TangentVector(b.base, 0.25, 0.0)
        assert normal_orientation(g, na, nb) is Orientation.EQUAL
        assert normal_orientation(
            g, na, TangentVector(b.base, -0.25, 0.0)
        ) is Orientation.OPPOSITE

    def test_independent_of_geodesic_orientation(self, rng):
        for _ in range(50):
            c = float(rng.normal())
            r = float(np.exp(rng.normal() * 0.5))
            s1, s2 = (float(rng.normal()) for _ in range(2))
            verdicts = []
            for orient in (1, -1):
                g = HalfCircle(c, r, orient)
                t1 = geodesic_point_at(g, orient * s1)
                t2 = geodesic_point_at(g, orient * s2)
                n1 = TangentVector(t1.base, -t1.vy, t1.vx)
                n2 = TangentVector(t2.base, t2.vy, -t2.vx)
                verdicts.append(normal_orientation(g, n1, n2))
            assert verdicts[0] is verdicts[1]

    def test_rejects_zero_vector(self):
        g = HalfCircle(0.0, 1.0)
        t = geodesic_point_at(g, 0.3)
        with pytest.raises(ZeroVector):
            normal_orientation(
                g, TangentVector(t.base, 0.0, 0.0), TangentVector(t.base, -t.vy, t.vx)
            )

    def test_rejects_tangential_vector(self):
        g = HalfCircle(0.0, 1.0)
        t = geodesic_point_at(g, 0.3)
        n = TangentVector(t.base, -t.vy, t.vx)
        with pytest.raises(NotPerpendicular):
            normal_orientation(g, t, n)

    def test_rejects_vector_off_geodesic(self):
        g = HalfCircle(0.0, 1.0)
        v = TangentVector(Point(5.0, 5.0), 1.0, 0.0)
        with pytest.raises(NotOnGeodesic):
            normal_orientation(g, v, v)


def test_hyperbolic_inner_matches_norm():
    v = TangentVector(Point(0.3, 2.0), 1.0, -2.0)
    assert hyperbolic_inner(v, v) == pytest.approx(v.hyperbolic_norm() ** 2, rel=1e-15)
