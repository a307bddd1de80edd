"""Half-plane geometry: distances, geodesics and the exponential map."""

import math

import pytest

from h2body import (
    Point,
    TangentVector,
    geodesic_point_at,
    geodesic_through,
    hyperbolic_distance,
    hyperbolic_inner,
    moebius_act,
)
from h2body.errors import CoincidentPoints

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
        assert d == pytest.approx(1e-8, rel=1e-9, abs=0.0)
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


def random_unit_vector(rng):
    """Unit tangent vector at a random point; about one in four is exactly
    or nearly vertical, where the chart geodesic is a line."""
    p = random_point(rng)
    phi = float(rng.uniform(-math.pi, math.pi))
    if rng.random() < 0.25:
        phi = math.copysign(0.5 * math.pi, phi) + float(rng.choice([0.0, 1e-9, -1e-12]))
    return TangentVector(p, p.y * math.cos(phi), p.y * math.sin(phi))


class TestGeodesicThrough:
    def test_half_circle_example(self):
        # the circle through both points has center 0 and radius sqrt(1/2);
        # at (-1/2, 1/2) its tangent toward (1/2, 1/2) is (1, 1) / sqrt(2)
        g = geodesic_through(Point(-0.5, 0.5), Point(0.5, 0.5))
        assert g.base == Point(-0.5, 0.5)
        assert g.vx == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-16)
        assert g.vy == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-16)
        assert g.hyperbolic_norm() == pytest.approx(1.0, abs=1e-15)

    def test_vertical_line(self):
        g = geodesic_through(Point(2.0, 0.5), Point(2.0, 3.0))
        assert (g.vx, g.vy) == (0.0, 0.5)
        down = geodesic_through(Point(2.0, 3.0), Point(2.0, 0.5))
        assert (down.vx, down.vy) == (0.0, -3.0)

    def test_canonical_unit_circle(self):
        # from body 1 toward body 2 the unit circle runs counterclockwise
        t1, t2 = 0.7, 0.7
        g = geodesic_through(
            Point(math.cos(t1), math.sin(t1)), Point(-math.cos(t2), math.sin(t2))
        )
        assert g.vx == pytest.approx(-math.sin(t1) ** 2, abs=1e-15)
        assert g.vy == pytest.approx(math.sin(t1) * math.cos(t1), abs=1e-15)

    def test_coincident_points_rejected(self):
        p = Point(0.1, 2.0)
        with pytest.raises(CoincidentPoints):
            geodesic_through(p, Point(0.1, 2.0))

    def test_contains_endpoints(self, rng):
        # walking the distance from a toward b lands on b
        for _ in range(200):
            a, b = random_point(rng), random_point(rng)
            d = hyperbolic_distance(a, b)
            end = geodesic_point_at(geodesic_through(a, b), d).base
            assert hyperbolic_distance(end, b) < 1e-13 * max(1.0, d)


class TestPointAt:
    def test_unit_circle_apex(self):
        t = geodesic_point_at(TangentVector(Point(0.0, 1.0), 1.0, 0.0), 0.0)
        assert (t.base.x, t.base.y) == (0.0, 1.0)
        assert (t.vx, t.vy) == (1.0, 0.0)

    def test_unit_circle_matches_angle_parametrization(self):
        # arc length s from the apex, heading right, lands at (tanh s, sech s)
        g = TangentVector(Point(0.0, 1.0), 1.0, 0.0)
        for s in (-1.3, -0.2, 0.4, 2.0):
            t = geodesic_point_at(g, s)
            assert t.base.x == pytest.approx(math.tanh(s), abs=1e-15)
            assert t.base.y == pytest.approx(1.0 / math.cosh(s), abs=1e-15)

    def test_vertical_exponential(self):
        g = TangentVector(Point(0.0, 1.0), 0.0, 1.0)
        for s in (-2.0, 0.0, 1.5):
            t = geodesic_point_at(g, s)
            assert t.base.x == 0.0
            assert t.base.y == pytest.approx(math.exp(s), rel=1e-15)

    def test_unit_speed_and_fd_consistency(self, rng):
        # tangent must have unit hyperbolic norm and match a finite
        # difference of the curve
        for _ in range(200):
            g = random_unit_vector(rng)
            s = float(2.0 * rng.normal())
            t = geodesic_point_at(g, s)
            assert t.hyperbolic_norm() == pytest.approx(1.0, abs=1e-12)
            h = 1e-5
            plus = geodesic_point_at(g, s + h).base
            minus = geodesic_point_at(g, s - h).base
            scale = max(1.0, t.base.y)
            assert (plus.x - minus.x) / (2 * h) == pytest.approx(t.vx, abs=1e-6 * scale)
            assert (plus.y - minus.y) / (2 * h) == pytest.approx(t.vy, abs=1e-6 * scale)

    def test_arc_length_is_distance(self, rng):
        for _ in range(200):
            g = random_unit_vector(rng)
            s1, s2 = (float(2.0 * rng.normal()) for _ in range(2))
            d = hyperbolic_distance(
                geodesic_point_at(g, s1).base, geodesic_point_at(g, s2).base
            )
            assert d == pytest.approx(abs(s1 - s2), abs=1e-10)

    def test_nearly_vertical_direction_keeps_arc_length(self):
        # cosh s - ty sinh s cancels when ty rounds to 1; the distance
        # walked must still be s
        p = Point(0.3, 2.0)
        for tx in (1e-9, -1e-12, 1e-15):
            for sgn in (1.0, -1.0):
                g = TangentVector(p, tx, sgn)
                for s in (5.0, 20.0, 35.0):
                    q = geodesic_point_at(g, s).base
                    assert hyperbolic_distance(p, q) == pytest.approx(s, rel=1e-13)


def test_hyperbolic_inner_matches_norm():
    v = TangentVector(Point(0.3, 2.0), 1.0, -2.0)
    assert hyperbolic_inner(v, v) == pytest.approx(v.hyperbolic_norm() ** 2, rel=1e-15)
