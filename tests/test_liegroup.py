"""Isometry group, algebra, dual, and their actions."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from h2body import (
    AlgebraElement,
    Classification,
    CoalgebraElement,
    ElementType,
    GroupElement,
    Point,
    TangentVector,
    XI_E,
    XI_H,
    XI_P,
    ad_star,
    adjoint,
    bracket,
    classify,
    coadjoint,
    flow,
    identity,
    infinitesimal_generator,
    moebius_act,
    moebius_act_tangent,
    normalizing_isometry,
)

from h2body.liegroup import flow_entries

from conftest import random_algebra, random_group, random_point

_G = GroupElement(1.3, 0.4, -0.7, 0.55)


class TestGroupElement:
    def test_renormalizes_determinant(self):
        g = GroupElement(2.0, 0.0, 0.0, 2.0)
        assert (g.a, g.b, g.c, g.d) == (1.0, 0.0, 0.0, 1.0)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(ValueError):
            GroupElement(1.0, 0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            GroupElement(1.0, 2.0, 2.0, 4.0)

    def test_inverse_and_identity(self, rng):
        for _ in range(100):
            g = random_group(rng)
            gi = g.compose(g.inverse()).matrix()
            assert np.allclose(gi, np.eye(2), atol=1e-12)

    def test_compose_is_matrix_product(self, rng):
        for _ in range(100):
            g, h = random_group(rng), random_group(rng)
            assert np.allclose(
                g.compose(h).matrix(), g.matrix() @ h.matrix(), rtol=1e-12, atol=1e-12
            )

    def test_associativity(self, rng):
        for _ in range(50):
            g, h, k = (random_group(rng) for _ in range(3))
            lhs = g.compose(h).compose(k).matrix()
            rhs = g.compose(h.compose(k)).matrix()
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestAlgebraCoords:
    def test_matrix_round_trip(self, rng):
        for _ in range(50):
            xi = random_algebra(rng)
            back = AlgebraElement.from_matrix(xi.matrix())
            assert np.allclose(back.coords(), xi.coords(), atol=1e-15)

    def test_coalgebra_round_trip(self, rng):
        for _ in range(50):
            mu = CoalgebraElement(*rng.normal(size=3))
            back = CoalgebraElement.from_matrix(mu.matrix())
            assert np.allclose(back.coords(), mu.coords(), atol=1e-15)

    def test_pairing_is_trace_pairing(self, rng):
        for _ in range(50):
            xi = random_algebra(rng)
            mu = CoalgebraElement(*rng.normal(size=3))
            tr = 2.0 * np.trace(mu.matrix() @ xi.matrix())
            assert mu.pair(xi) == pytest.approx(tr, rel=1e-12, abs=1e-12)


class TestClassify:
    def test_basis_elements(self):
        ce = classify(XI_E)
        assert ce.type is ElementType.ELLIPTIC
        assert ce.omega == pytest.approx(1.0, abs=1e-15)
        ch = classify(XI_H)
        assert ch.type is ElementType.HYPERBOLIC
        assert ch.omega == pytest.approx(1.0, abs=1e-15)
        cp = classify(XI_P)
        assert cp.type is ElementType.PARABOLIC
        assert cp.sign == 1
        assert classify(AlgebraElement(0.0, 0.0, -1.0)).sign == -1
        assert classify(AlgebraElement(0.0, 0.0, 0.0)).type is ElementType.ZERO

    def test_parabolic_signs_with_rotation_part(self):
        # discriminant H^2/4 + EP/2 - E^2/4 vanishes for (E, 0, E/2)
        minus = classify(AlgebraElement(2.0, 0.0, 1.0))
        assert minus.type is ElementType.PARABOLIC
        assert minus.sign == -1
        plus = classify(AlgebraElement(-2.0, 0.0, -1.0))
        assert plus.type is ElementType.PARABOLIC
        assert plus.sign == 1

    def test_rotation_generator_combination(self):
        # E = 2, P = 0, H = 0: disc = -1, rate 2
        c = classify(AlgebraElement(2.0, 0.0, 0.0))
        assert c.type is ElementType.ELLIPTIC
        assert c.omega == pytest.approx(2.0, abs=1e-15)

    def test_ad_invariance(self, rng):
        # conjugation must not change the type or the rate
        for _ in range(100):
            g = random_group(rng)
            xi = random_algebra(rng)
            c0 = classify(xi)
            if c0.type is ElementType.PARABOLIC:
                continue  # exercised separately with exact representatives
            c1 = classify(adjoint(g, xi))
            assert c1.type is c0.type
            assert c1.omega == pytest.approx(c0.omega, rel=1e-9, abs=1e-12)

    def test_ad_invariance_parabolic(self, rng):
        for _ in range(100):
            sign = 1 if rng.random() < 0.5 else -1
            g = random_group(rng)
            c = classify(adjoint(g, sign * XI_P))
            assert c.type is ElementType.PARABOLIC
            assert c.sign == sign

    @pytest.mark.parametrize("xi", [XI_E, XI_H, XI_P, adjoint(_G, XI_P)],
                             ids=["elliptic", "hyperbolic", "parabolic", "conjugate"])
    def test_type_does_not_depend_on_scale(self, xi):
        # s xi has the type of xi, and s times its rate, for every s > 0,
        # out to scales where the squares of the components would overflow
        # (from about 1e154) or underflow (below about 1e-154)
        ref = classify(xi)
        for s in np.geomspace(1e-300, 1e300, 121).tolist():
            c = classify(s * xi)
            assert c.type is ref.type, s
            assert c.omega == pytest.approx(s * ref.omega, rel=4 * np.finfo(float).eps, abs=0.0), s


class TestFlow:
    def test_rotation_half_period(self):
        # t = pi about (0,1) gives the quarter-turn matrix, acting as -1/z
        g = flow(XI_E, math.pi)
        assert np.allclose(g.matrix(), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_dilation_flow(self):
        g = flow(XI_H, 2.0)
        assert np.allclose(g.matrix(), [[math.e, 0.0], [0.0, 1.0 / math.e]], rtol=1e-15)
        p = moebius_act(g, Point(0.3, 1.1))
        # dilation z -> e^{2} z
        assert p.x == pytest.approx(0.3 * math.e**2, rel=1e-14)
        assert p.y == pytest.approx(1.1 * math.e**2, rel=1e-14)

    def test_translation_flow(self):
        g = flow(XI_P, 1.7)
        p = moebius_act(g, Point(0.0, 2.0))
        assert p.x == pytest.approx(1.7, abs=1e-15)
        assert p.y == pytest.approx(2.0, abs=1e-15)

    def test_matches_matrix_exponential(self, rng):
        # independent oracle: scipy expm on the raw matrix
        for _ in range(100):
            xi = random_algebra(rng)
            t = float(rng.uniform(-3.0, 3.0))
            ours = flow(xi, t).matrix()
            ref = expm(t * xi.matrix())
            assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12)

    def test_matches_expm_parabolic(self, rng):
        for _ in range(50):
            e = float(rng.normal())
            if abs(e) < 0.1:
                continue
            xi = AlgebraElement(e, 0.0, 0.5 * e)
            t = float(rng.uniform(-3.0, 3.0))
            assert np.allclose(
                flow(xi, t).matrix(), expm(t * xi.matrix()), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("xi", [
        *(AlgebraElement(1.0, 0.0, 0.5 + 2.0 * d) for d in (1e-13, -1e-13, 1e-15, -1e-15, 0.0)),
        AlgebraElement(2.0, 0.6, 0.91 + 1e-13),
        adjoint(_G, 3.0 * XI_P),
    ], ids=["disc+1e-13", "disc-1e-13", "disc+1e-15", "disc-1e-15", "disc0", "disc+1e-13H",
            "conjugate"])
    def test_matches_expm_near_parabolic(self, xi):
        # 0 < |disc| < 1e-12 of either sign, and disc = 0, up to t = 1e4.
        # A change delta of disc moves exp(t M) by about t^2 delta relative
        # to its largest entry, and disc is known to eps |M|^2, so the bound
        # is c eps (1 + t^2 |M|^2) relative to the largest entry: c reached 16 (the conjugate, whose
        # disc is rounding), where a tolerance that sent |disc| < 1e-12 to
        # I + t M reached 449 (1.7e-6 relative at t = 1e4, disc 1e-13)
        m = xi.matrix()
        norm2 = float(np.sum(m * m))
        eps = np.finfo(float).eps
        for t in np.geomspace(1e-2, 1e4, 61).tolist():
            ref = expm(t * m)
            err = np.max(np.abs(np.reshape(flow_entries(xi, t), (2, 2)) - ref))
            assert err <= 32 * eps * (1.0 + t * t * norm2) * np.max(np.abs(ref)), t

    def test_group_law(self, rng):
        # entries grow like exp of the boost rate, so the comparison is
        # relative with a small absolute floor
        for _ in range(100):
            xi = random_algebra(rng)
            s, t = (float(rng.uniform(-4.0, 4.0)) for _ in range(2))
            lhs = flow(xi, s).compose(flow(xi, t)).matrix()
            rhs = flow(xi, s + t).matrix()
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_determinant_one(self, rng):
        for _ in range(100):
            xi = random_algebra(rng)
            t = float(rng.uniform(-6.0, 6.0))
            m = flow(xi, t).matrix()
            scale = float(np.max(np.abs(m)))
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12 * max(1.0, scale * scale)


class TestMoebiusAction:
    def test_examples(self):
        shift = GroupElement(1.0, 1.0, 0.0, 1.0)
        p = moebius_act(shift, Point(0.5, 2.0))
        assert (p.x, p.y) == (1.5, 2.0)
        invert = GroupElement(0.0, -1.0, 1.0, 0.0)  # z -> -1/z
        q = moebius_act(invert, Point(1.0, 1.0))
        assert q.x == pytest.approx(-0.5, abs=1e-15)
        assert q.y == pytest.approx(0.5, abs=1e-15)
        assert moebius_act(invert, Point(0.0, 1.0)).y == pytest.approx(1.0)

    def test_left_action_law(self, rng):
        for _ in range(100):
            g, h = random_group(rng), random_group(rng)
            p = random_point(rng)
            lhs = moebius_act(g.compose(h), p)
            rhs = moebius_act(g, moebius_act(h, p))
            assert lhs.x == pytest.approx(rhs.x, rel=1e-10, abs=1e-12)
            assert lhs.y == pytest.approx(rhs.y, rel=1e-10, abs=1e-12)

    def test_tangent_action_preserves_norm(self, rng):
        for _ in range(100):
            g = random_group(rng)
            v = TangentVector(random_point(rng), *rng.normal(size=2))
            w = moebius_act_tangent(g, v)
            assert w.hyperbolic_norm() == pytest.approx(
                v.hyperbolic_norm(), rel=1e-11
            )

    def test_tangent_action_is_curve_derivative(self, rng):
        # push a short curve through the action and difference it
        for _ in range(50):
            g = random_group(rng)
            p = random_point(rng)
            v = TangentVector(p, *rng.normal(size=2))
            w = moebius_act_tangent(g, v)
            h = 1e-6
            plus = moebius_act(g, Point(p.x + h * v.vx, p.y + h * v.vy))
            minus = moebius_act(g, Point(p.x - h * v.vx, p.y - h * v.vy))
            assert (plus.x - minus.x) / (2 * h) == pytest.approx(w.vx, abs=2e-5)
            assert (plus.y - minus.y) / (2 * h) == pytest.approx(w.vy, abs=2e-5)


class TestGeneratorField:
    def test_closed_form(self):
        v = infinitesimal_generator(AlgebraElement(2.0, -1.0, 0.5), Point(0.3, 1.2))
        gx = 1.0 * (1.2**2 - 0.3**2 - 1.0) + (-1.0) * 0.3 + 0.5
        gy = -2.0 * 0.3 * 1.2 + (-1.0) * 1.2
        assert v.vx == pytest.approx(gx, abs=1e-15)
        assert v.vy == pytest.approx(gy, abs=1e-15)

    def test_fixed_point_of_rotation(self):
        v = infinitesimal_generator(XI_E, Point(0.0, 1.0))
        assert (v.vx, v.vy) == (0.0, 0.0)

    def test_is_flow_derivative(self, rng):
        for _ in range(100):
            xi = random_algebra(rng)
            p = random_point(rng)
            v = infinitesimal_generator(xi, p)
            h = 1e-6
            plus = moebius_act(flow(xi, h), p)
            minus = moebius_act(flow(xi, -h), p)
            assert (plus.x - minus.x) / (2 * h) == pytest.approx(v.vx, abs=2e-6)
            assert (plus.y - minus.y) / (2 * h) == pytest.approx(v.vy, abs=2e-6)


class TestBracketAndCoadjoint:
    def test_basis_brackets(self):
        # [xi_e, xi_h] coords, worked by hand from the matrix commutators
        assert np.allclose(bracket(XI_E, XI_H).coords(), [1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(bracket(XI_E, XI_P).coords(), [0.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(bracket(XI_H, XI_P).coords(), [0.0, 0.0, 1.0], atol=1e-15)

    def test_antisymmetry_and_jacobi(self, rng):
        for _ in range(50):
            x, y, z = (random_algebra(rng) for _ in range(3))
            assert np.allclose(
                bracket(x, y).coords(), -bracket(y, x).coords(), atol=1e-12
            )
            j = (
                bracket(x, bracket(y, z)).coords()
                + bracket(y, bracket(z, x)).coords()
                + bracket(z, bracket(x, y)).coords()
            )
            assert np.allclose(j, 0.0, atol=1e-10)

    def test_ad_star_duality(self, rng):
        # <ad*_xi mu, eta> = <mu, [xi, eta]>
        for _ in range(100):
            xi, eta = random_algebra(rng), random_algebra(rng)
            mu = CoalgebraElement(*rng.normal(size=3))
            lhs = ad_star(xi, mu).pair(eta)
            rhs = mu.pair(bracket(xi, eta))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_coadjoint_preserves_pairing(self, rng):
        for _ in range(100):
            g = random_group(rng)
            xi = random_algebra(rng)
            mu = CoalgebraElement(*rng.normal(size=3))
            lhs = coadjoint(g, mu).pair(adjoint(g, xi))
            assert lhs == pytest.approx(mu.pair(xi), rel=1e-9, abs=1e-9)

    def test_adjoint_of_flow_matches_bracket_derivative(self, rng):
        for _ in range(50):
            xi, eta = random_algebra(rng), random_algebra(rng)
            h = 1e-6
            plus = adjoint(flow(xi, h), eta).coords()
            minus = adjoint(flow(xi, -h), eta).coords()
            fd = (plus - minus) / (2 * h)
            assert np.allclose(fd, bracket(xi, eta).coords(), atol=1e-7)


class TestNormalizingIsometry:
    def test_sends_point_to_apex(self, rng):
        for _ in range(100):
            p = random_point(rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            g = normalizing_isometry(p, theta)
            q = moebius_act(g, p)
            assert q.x == pytest.approx(0.0, abs=1e-12)
            assert q.y == pytest.approx(1.0, abs=1e-12)

    def test_aligns_direction(self, rng):
        # the hyperbolic-unit vector along chart direction theta lands on
        # (1, 0) at the apex
        for _ in range(100):
            p = random_point(rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            g = normalizing_isometry(p, theta)
            v = TangentVector(p, math.cos(theta) * p.y, math.sin(theta) * p.y)
            w = moebius_act_tangent(g, v)
            assert w.vx == pytest.approx(1.0, abs=1e-11)
            assert w.vy == pytest.approx(0.0, abs=1e-11)

    def test_two_step_factorization(self, rng):
        for _ in range(50):
            p = random_point(rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            lift = GroupElement(
                1.0 / math.sqrt(p.y), -p.x / math.sqrt(p.y), 0.0, math.sqrt(p.y)
            )
            rot = GroupElement(
                math.cos(0.5 * theta),
                -math.sin(0.5 * theta),
                math.sin(0.5 * theta),
                math.cos(0.5 * theta),
            )
            assert np.allclose(
                normalizing_isometry(p, theta).matrix(),
                rot.compose(lift).matrix(),
                atol=1e-13,
            )


def test_identity_and_matrix_round_trip():
    g = identity()
    assert np.allclose(g.matrix(), np.eye(2))
    h = GroupElement(2.0, 1.0, 1.0, 1.0)
    assert np.allclose(h.matrix(), [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)
