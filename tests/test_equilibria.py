"""Relative equilibria: center of mass, canonical form, both families."""

import math

import numpy as np
import pytest

from h2body import (
    Family,
    NonPositiveDistance,
    OracleMismatch,
    Orientation,
    OutOfRange,
    Params,
    Point,
    TangentVector,
    admissible_generators,
    analytic_trajectory,
    augmented_potential_gradient,
    build_relative_equilibrium,
    canonical_configuration,
    center_of_mass,
    geodesic_point_at,
    hamiltonian,
    hamiltonian_vector_field,
    hyperbolic_distance,
    initial_state,
    intrinsic_checks,
    moebius_act,
    momentum_map,
    partner_distance,
    to_canonical,
)

from conftest import _bisect_secant, random_balanced_re, random_group, random_point


def pair_at_distance(rng, d):
    """A random point and the point at distance d from it in a random
    direction."""
    a = random_point(rng)
    phi = float(rng.uniform(-math.pi, math.pi))
    b = geodesic_point_at(TangentVector(a, math.cos(phi), math.sin(phi)), d).base
    return a, b


class TestCenterOfMass:
    def test_three_to_one_vertical_pair(self):
        # frozen: 3 sinh(2t) = sinh(2(1-t)) has root t = 0.29950420928649657,
        # so the center sits at height e^t on the common vertical line
        split = center_of_mass(Point(0.0, 1.0), Point(0.0, math.e), Params(3.0, 1.0))
        assert split.d1 == pytest.approx(0.29950420928649657, abs=1e-12)
        assert split.d2 == pytest.approx(1.0 - 0.29950420928649657, abs=1e-12)
        assert split.com.x == pytest.approx(0.0, abs=1e-13)
        assert split.com.y == pytest.approx(1.3491897259905898, rel=1e-12)

    def test_equal_masses_midpoint(self, rng):
        for _ in range(20):
            a, b = random_point(rng), random_point(rng)
            if hyperbolic_distance(a, b) < 1e-3:
                continue
            split = center_of_mass(a, b, Params(1.7, 1.7))
            assert split.d1 == pytest.approx(split.d2, abs=1e-12)

    def test_balance_and_additivity(self, rng):
        for _ in range(50):
            a, b = random_point(rng), random_point(rng)
            d = hyperbolic_distance(a, b)
            if d < 1e-2:
                continue
            m1, m2 = 0.5 + 2.0 * rng.random(2)
            split = center_of_mass(a, b, Params(m1, m2))
            assert split.d1 + split.d2 == pytest.approx(d, abs=1e-11)
            lhs = m1 * math.sinh(2.0 * split.d1)
            rhs = m2 * math.sinh(2.0 * split.d2)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=0.0)
            # the point really is on the connecting geodesic at distance d1
            assert hyperbolic_distance(a, split.com) == pytest.approx(
                split.d1, abs=1e-10
            )

    def test_isometry_equivariance(self, rng):
        for _ in range(50):
            a, b = random_point(rng), random_point(rng)
            if hyperbolic_distance(a, b) < 1e-2:
                continue
            params = Params(0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random())
            g = random_group(rng)
            moved = center_of_mass(moebius_act(g, a), moebius_act(g, b), params)
            expected = moebius_act(g, center_of_mass(a, b, params).com)
            assert hyperbolic_distance(moved.com, expected) < 1e-9

    @pytest.mark.parametrize("c", [1e-3, 0.1, 1.0 / 3.0, 1.0, 3.0, 10.0, 1e3])
    def test_closed_form_matches_bisection_oracle(self, rng, c):
        # the closed-form offset against a root of the balance function
        params = Params(c, 1.0)
        for d in np.geomspace(1e-6, 17.0, 40):
            a, b = pair_at_distance(rng, float(d))
            dist = hyperbolic_distance(a, b)

            def balance(t):
                return c * math.sinh(2.0 * t) - math.sinh(2.0 * (dist - t))

            root = _bisect_secant(balance, 0.0, dist, 1e-13)
            split = center_of_mass(a, b, params)
            assert split.d1 == pytest.approx(root, abs=1e-13 * max(1.0, dist))

    @pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 10.0, 1e3])
    def test_lies_on_the_geodesic_up_to_large_distances(self, rng, c):
        # past d = 17 the bisection stalls in sinh, so the check is the
        # geodesic defect: the center splits the distance exactly
        params = Params(c, 1.0)
        for d in np.geomspace(1e-6, 38.0, 60):
            a, b = pair_at_distance(rng, float(d))
            split = center_of_mass(a, b, params)
            defect = (
                hyperbolic_distance(a, split.com)
                + hyperbolic_distance(split.com, b)
                - hyperbolic_distance(a, b)
            )
            assert abs(defect) <= 1e-12


class TestPartnerDistance:
    def test_frozen_value(self):
        # asinh(3 sinh(0.5)) / 2
        assert partner_distance(0.25, Params(3.0, 1.0)) == pytest.approx(
            0.6146814667640284, abs=1e-15
        )

    def test_balances(self, rng):
        for _ in range(50):
            d1 = 0.05 + 1.5 * rng.random()
            m1, m2 = 0.5 + 2.0 * rng.random(2)
            d2 = partner_distance(d1, Params(m1, m2))
            assert m1 * math.sinh(2 * d1) == pytest.approx(
                m2 * math.sinh(2 * d2), rel=1e-14
            )

    def test_equal_masses_identity(self):
        assert partner_distance(0.8, Params(2.0, 2.0)) == pytest.approx(0.8, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveDistance):
            partner_distance(0.0, Params(1.0, 1.0))
        with pytest.raises(NonPositiveDistance):
            partner_distance(-0.3, Params(1.0, 1.0))

    def test_rejects_distances_where_tanh_rounds_to_one(self):
        # tanh(19.5) == 1.0 in binary64; sinh(2 * 400) overflows
        for d1 in (19.5, 400.0, math.inf):
            with pytest.raises(OutOfRange):
                partner_distance(d1, Params(1.0, 1.0))
        assert math.tanh(19.0) < 1.0
        partner_distance(19.0, Params(1.0, 1.0))
        # a legal d1 whose partner is out of range: d2 is about 21.4
        with pytest.raises(OutOfRange):
            build_relative_equilibrium(Family.ELLIPTIC, 18.0, Params(1e3, 1.0))


class TestCanonicalConfiguration:
    def test_tanh_sech_position(self, rng):
        # body 1 at (tanh d1, sech d1), body 2 at (-tanh d2, sech d2)
        for _ in range(50):
            d1, d2 = (float(d) for d in 0.05 + 1.5 * rng.random(2))
            cfg = canonical_configuration(d1, d2)
            assert (cfg.q1.x, cfg.q1.y) == (math.tanh(d1), 1.0 / math.cosh(d1))
            assert (cfg.q2.x, cfg.q2.y) == (-math.tanh(d2), 1.0 / math.cosh(d2))
            for q in (cfg.q1, cfg.q2):
                assert q.x ** 2 + q.y ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_bodies_in_open_quadrants(self, rng):
        for _ in range(20):
            d1, d2 = (float(d) for d in 0.05 + 2.5 * rng.random(2))
            cfg = canonical_configuration(d1, d2)
            assert cfg.q1.x > 0.0 and cfg.q1.y > 0.0
            assert cfg.q2.x < 0.0 and cfg.q2.y > 0.0

    def test_apex_distance_is_arc_distance(self):
        # (0, 1) and (tanh d, sech d) are d apart
        for d in (1e-6, 0.3, 1.1, 5.0, 18.0):
            cfg = canonical_configuration(d, d)
            for q in (cfg.q1, cfg.q2):
                assert hyperbolic_distance(q, Point(0, 1)) == pytest.approx(
                    d, rel=1e-13, abs=0.0
                )

    def test_rejections(self):
        with pytest.raises(NonPositiveDistance):
            canonical_configuration(0.0, 1.0)
        with pytest.raises(NonPositiveDistance):
            canonical_configuration(1.0, -0.3)
        with pytest.raises(OutOfRange):
            canonical_configuration(0.5, 19.5)


class TestToCanonical:
    def test_canonical_input_is_fixed(self):
        d1, d2 = 0.9, 0.6
        cfg = canonical_configuration(d1, d2)
        u1, s1 = math.tanh(d1), 1.0 / math.cosh(d1)
        u2, s2 = math.tanh(d2), 1.0 / math.cosh(d2)
        m2 = 1.4
        m1 = m2 * u2 * s1 * s1 / (s2 * s2 * u1)
        form = to_canonical(cfg.q1, cfg.q2, Params(m1, m2))
        assert form.d1 == pytest.approx(d1, abs=1e-10)
        assert form.d2 == pytest.approx(d2, abs=1e-10)
        img = moebius_act(form.isometry, cfg.q1)
        assert img.x == pytest.approx(u1, abs=1e-10)
        assert img.y == pytest.approx(s1, abs=1e-10)

    def test_normalizes_arbitrary_pairs(self, rng):
        # the isometry puts the center of mass at the apex and both bodies
        # on the unit circle with body 1 in the first quadrant
        for _ in range(50):
            a, b = random_point(rng), random_point(rng)
            if hyperbolic_distance(a, b) < 5e-2:
                continue
            params = Params(0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random())
            form = to_canonical(a, b, params)
            img1 = moebius_act(form.isometry, a)
            img2 = moebius_act(form.isometry, b)
            assert img1.x ** 2 + img1.y ** 2 == pytest.approx(1.0, abs=1e-9)
            assert img2.x ** 2 + img2.y ** 2 == pytest.approx(1.0, abs=1e-9)
            assert img1.x > 0.0
            assert img2.x < 0.0
            split = center_of_mass(a, b, params)
            com_img = moebius_act(form.isometry, split.com)
            assert com_img.x == pytest.approx(0.0, abs=1e-9)
            assert com_img.y == pytest.approx(1.0, abs=1e-9)
            # the form carries the balance distances, and the images sit at
            # those distances from the apex
            assert (form.d1, form.d2) == (split.d1, split.d2)
            apex = Point(0.0, 1.0)
            assert hyperbolic_distance(img1, apex) == pytest.approx(split.d1, abs=1e-9)
            assert hyperbolic_distance(img2, apex) == pytest.approx(split.d2, abs=1e-9)

    def test_isometry_invariant_angles(self, rng):
        for _ in range(30):
            a, b = random_point(rng), random_point(rng)
            if hyperbolic_distance(a, b) < 5e-2:
                continue
            params = Params(0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random())
            g = random_group(rng)
            f0 = to_canonical(a, b, params)
            f1 = to_canonical(moebius_act(g, a), moebius_act(g, b), params)
            assert f1.d1 == pytest.approx(f0.d1, abs=1e-8)
            assert f1.d2 == pytest.approx(f0.d2, abs=1e-8)


class TestAdmissibleGenerators:
    @staticmethod
    def _cases(rng):
        d1 = float(rng.uniform(0.27, 1.9))
        d2 = float(rng.uniform(0.27, 1.9))
        m2 = float(rng.uniform(0.5, 2.0))
        m1 = m2 * math.tanh(d2) * math.cosh(d2) ** 2 / (math.cosh(d1) ** 2 * math.tanh(d1))
        params = Params(m1, m2, float(rng.uniform(0.5, 2.0)))
        return admissible_generators(d1, params), params

    def test_dilation_and_rotation_admit(self, rng):
        for _ in range(20):
            cases, _ = self._cases(rng)
            assert cases.dilation_admissible
            assert cases.rotation_admissible

    def test_mixed_direction_never_critical(self, rng):
        for _ in range(20):
            cases, params = self._cases(rng)
            assert not cases.mixed_admissible
            scale = params.k * params.m1 * params.m2
            # numerical route: the best rate still leaves a sizeable gradient
            assert cases.mixed_min_gradient_norm > 1e-4 * scale
            # closed-form route: the obstruction is strictly positive
            assert cases.mixed_residual > 1e-10 * params.m2 ** 2 * params.k

    def test_parabolic_commutator_nonzero(self, rng):
        for _ in range(20):
            cases, _ = self._cases(rng)
            assert cases.parabolic_commutator_norm > 1e-8
            comm = cases.commutator(0.0, 0.0, 1.0)
            assert np.max(np.abs(comm)) == pytest.approx(
                cases.parabolic_commutator_norm / math.sqrt(2.0), rel=10.0
            )

    def test_equilibrium_generators_commute_with_momentum(self, rng):
        # the momentum matrix commutes with the generator exactly for the
        # two admissible directions at their equilibrium rate
        for _ in range(20):
            cases, _ = self._cases(rng)
            w = math.sqrt(cases.omega2)
            assert np.max(np.abs(cases.commutator(0.0, w, 0.0))) < 1e-12
            assert np.max(np.abs(cases.commutator(w, 0.0, 0.0))) < 1e-12


class TestBuildRelativeEquilibrium:
    def test_equal_mass_unit_distance_rate(self):
        # d1 = d2 = 1/2, m1 = m2 = k = 1: omega^2 = 2 / sinh(1)^3
        re = build_relative_equilibrium(Family.ELLIPTIC, 0.5, Params(1.0, 1.0, 1.0))
        assert re.omega ** 2 == pytest.approx(1.2322343865586145, rel=1e-14)
        assert re.distance == pytest.approx(1.0, abs=1e-15)
        # same rate through the canonical-position form with u = tanh(1/2),
        # s = sech(1/2) for both bodies: k m s^6 / (4 u^3)
        u, s = math.tanh(0.5), 1.0 / math.cosh(0.5)
        assert re.omega ** 2 == pytest.approx(s ** 6 / (4.0 * u ** 3), rel=1e-12)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3])
    def test_canonical_position_exact_over_domain_grid(self, family, ratio):
        # every build either holds the bodies at (+-tanh d, sech d) bit for
        # bit or refuses a partner distance past the binary64 domain; none
        # fails its own rate cross-check, down to d1 = 1e-7
        params = Params(ratio, 1.0)
        built = 0
        for d1 in np.geomspace(1e-7, 19.0, 120):
            d1 = float(d1)
            d2 = partner_distance(d1, params)
            try:
                re = build_relative_equilibrium(family, d1, params)
            except OutOfRange:
                assert math.tanh(d2) == 1.0
                continue
            built += 1
            q1, q2 = re.config.q1, re.config.q2
            assert (q1.x, q1.y) == (math.tanh(d1), 1.0 / math.cosh(d1))
            assert (q2.x, q2.y) == (-math.tanh(d2), 1.0 / math.cosh(d2))
        assert built >= 118

    def test_rejects_bad_sign_and_distance(self):
        with pytest.raises(ValueError):
            build_relative_equilibrium(Family.ELLIPTIC, 0.5, Params(1.0, 1.0), sign=2)
        with pytest.raises(NonPositiveDistance):
            build_relative_equilibrium(Family.ELLIPTIC, -0.5, Params(1.0, 1.0))

    @pytest.mark.parametrize("family", [Family.ELLIPTIC, Family.HYPERBOLIC])
    @pytest.mark.parametrize("d1", [0.001, 1.0])
    def test_criticality_check_rejects_a_detuned_rate(self, monkeypatch, family, d1):
        # the tolerance follows the force scale k m1 m2 / sinh(d)^2, so close
        # pairs are accepted, yet a rate off by 1e-6 still fails the check
        import h2body.equilibria as eq

        params = Params(1.0, 1.0)
        build_relative_equilibrium(family, d1, params)
        exact = eq.augmented_potential_gradient
        monkeypatch.setattr(
            eq,
            "augmented_potential_gradient",
            lambda config, params, xi: exact(config, params, xi * (1.0 + 1e-6)),
        )
        with pytest.raises(OracleMismatch, match="not critical"):
            build_relative_equilibrium(family, d1, params)

    def test_generator_direction_per_family(self, rng):
        hyp = random_balanced_re(rng, Family.HYPERBOLIC)
        assert hyp.xi.E == 0.0 and hyp.xi.P == 0.0
        assert hyp.xi.H == pytest.approx(hyp.omega)
        ell = random_balanced_re(rng, Family.ELLIPTIC)
        assert ell.xi.H == 0.0 and ell.xi.P == 0.0
        assert ell.xi.E == pytest.approx(ell.omega)

    def test_augmented_potential_critical(self, rng):
        for _ in range(30):
            family = Family.HYPERBOLIC if rng.random() < 0.5 else Family.ELLIPTIC
            re = random_balanced_re(rng, family)
            grad = augmented_potential_gradient(re.config, re.params, re.xi)
            scale = re.params.k * re.params.m1 * re.params.m2
            assert float(np.linalg.norm(grad)) < 1e-8 * max(1.0, scale)

    def test_period(self, rng):
        re = random_balanced_re(rng, Family.ELLIPTIC)
        assert re.period == pytest.approx(2.0 * math.pi / abs(re.omega), rel=1e-15)

    def test_sign_flips_omega(self):
        params = Params(2.0, 1.0)
        d1 = 0.4
        plus = build_relative_equilibrium(Family.ELLIPTIC, d1, params, sign=1)
        minus = build_relative_equilibrium(Family.ELLIPTIC, d1, params, sign=-1)
        assert minus.omega == -plus.omega


class TestAnalyticTrajectory:
    def test_time_zero_is_initial_state(self, rng):
        for family in Family:
            re = random_balanced_re(rng, family)
            z0 = initial_state(re).as_array()
            zt = analytic_trajectory(re, 0.0).as_array()
            assert np.allclose(z0, zt, atol=1e-15)

    def test_solves_equations_of_motion(self, rng):
        # dual route: differentiate the closed-form motion in time and
        # compare with the Hamiltonian vector field
        for _ in range(10):
            family = Family.HYPERBOLIC if rng.random() < 0.5 else Family.ELLIPTIC
            re = random_balanced_re(rng, family)
            for t in (0.0, 0.31, 1.7):
                h = 1e-6
                zp = analytic_trajectory(re, t + h).as_array()
                zm = analytic_trajectory(re, t - h).as_array()
                fd = (zp - zm) / (2.0 * h)
                f = hamiltonian_vector_field(analytic_trajectory(re, t), re.params)
                scale = max(1.0, float(np.max(np.abs(f))))
                assert np.allclose(fd, f, atol=5e-7 * scale)

    def test_exact_conservation(self, rng):
        for family in Family:
            re = random_balanced_re(rng, family)
            e0 = hamiltonian(initial_state(re), re.params)
            mu0 = momentum_map(initial_state(re)).coords()
            for t in (0.5, 1.5, 3.0):
                s = analytic_trajectory(re, t)
                assert hamiltonian(s, re.params) == pytest.approx(e0, rel=1e-11)
                assert np.allclose(momentum_map(s).coords(), mu0, atol=1e-11)

    def test_elliptic_period_closes(self, rng):
        re = random_balanced_re(rng, Family.ELLIPTIC)
        z0 = initial_state(re).as_array()
        z1 = analytic_trajectory(re, re.period).as_array()
        assert np.allclose(z0, z1, atol=1e-9)

    def test_hyperbolic_rides_common_geodesic(self, rng):
        # both bodies and the center of mass stay on the vertical axis
        # geodesic's circle family: x^2 + y^2 = e^{2 w t}
        re = random_balanced_re(rng, Family.HYPERBOLIC)
        for t in (0.2, 0.9):
            s = analytic_trajectory(re, t)
            lam2 = math.exp(2.0 * re.omega * t)
            for q in (s.config.q1, s.config.q2):
                assert q.x ** 2 + q.y ** 2 == pytest.approx(lam2, rel=1e-12)

    def test_separation_constant(self, rng):
        for family in Family:
            re = random_balanced_re(rng, family)
            d0 = re.distance
            for t in (0.4, 1.1, 2.7):
                s = analytic_trajectory(re, t)
                assert s.config.distance() == pytest.approx(d0, abs=1e-11)


class TestIntrinsicChecks:
    def test_hyperbolic_report(self, rng):
        re = random_balanced_re(rng, Family.HYPERBOLIC)
        rep = intrinsic_checks(re)
        assert rep.ok
        assert rep.orientation is Orientation.EQUAL
        assert rep.expected_speeds[0] == pytest.approx(
            abs(re.omega) * math.cosh(re.d1), rel=1e-14
        )
        assert rep.com_speed == pytest.approx(abs(re.omega))

    def test_elliptic_report(self, rng):
        re = random_balanced_re(rng, Family.ELLIPTIC)
        rep = intrinsic_checks(re)
        assert rep.ok
        assert rep.orientation is Orientation.OPPOSITE
        assert rep.expected_speeds[1] == pytest.approx(
            abs(re.omega) * math.sinh(re.d2), rel=1e-14
        )
        assert rep.com_speed == 0.0

    def test_as_dict_round_trips_enums(self, rng):
        rep = intrinsic_checks(random_balanced_re(rng, Family.ELLIPTIC))
        d = rep.as_dict()
        assert d["family"] == "elliptic"
        assert d["orientation"] == "opposite"
        assert d["ok"] is True

    def test_velocities_normal_to_chord(self, rng):
        # spot check the perpendicularity residual the report aggregates
        re = random_balanced_re(rng, Family.ELLIPTIC)
        rep = intrinsic_checks(re)
        assert rep.max_perp_residual < 1e-10

    @pytest.mark.parametrize("family", [Family.ELLIPTIC, Family.HYPERBOLIC])
    @pytest.mark.parametrize("c", [0.1, 1.0 / 3.0, 1.0, 3.0, 10.0])
    def test_passes_across_the_supported_distances(self, family, c):
        # near-vertical and far-apart chords included; only distances
        # outside the binary64 domain are skipped
        params = Params(c, 1.0)
        for d1 in np.geomspace(1e-4, 19.0, 40):
            try:
                re = build_relative_equilibrium(family, float(d1), params)
            except OutOfRange:
                continue
            rep = intrinsic_checks(re)
            assert rep.ok, (float(d1), rep.as_dict())
