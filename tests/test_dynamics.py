"""Two-body Hamiltonian system: potential, motion, symmetry, inertia."""

import math

import numpy as np
import pytest

from h2body import (
    AlgebraElement,
    CoalgebraElement,
    Collision,
    Configuration,
    ElementType,
    Family,
    Params,
    PhaseState,
    Point,
    augmented_potential,
    augmented_potential_gradient,
    build_relative_equilibrium,
    classify,
    coadjoint,
    flow,
    group_act_phase,
    hamiltonian,
    hamiltonian_vector_field,
    hyperbolic_distance,
    hyperbolic_inner,
    infinitesimal_generator,
    initial_state,
    kinetic_energy,
    legendre,
    locked_inertia,
    momentum_at_canonical,
    momentum_map,
    partner_distance,
    phase_state,
    potential,
    velocity_vectors,
)

from h2body.dynamics import (
    _act_phase,
    _field_array,
    _generator_lift,
    _generator_lift_table,
    _potential_gradient,
)
from h2body.liegroup import flow_entries
from h2body.stability import _inverse_apply

from conftest import fd_gradient, random_algebra, random_config_state, random_group


def _potential_of_coords(coords, params):
    cfg = Configuration(Point(coords[0], coords[1]), Point(coords[2], coords[3]))
    return potential(cfg, params)


class TestParamsAndStates:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            Params(-1.0, 2.0)
        with pytest.raises(ValueError):
            Params(1.0, 0.0)
        with pytest.raises(ValueError):
            Params(1.0, 1.0, k=-0.1)

    # an int beyond the float range, where math.isfinite would overflow
    @pytest.mark.parametrize(
        "value", [math.inf, math.nan, pytest.param(10**400, id="int1e400")]
    )
    @pytest.mark.parametrize("field", ["m1", "m2", "k"])
    def test_params_must_be_finite(self, field, value):
        kwargs = {"m1": 1.0, "m2": 1.0, "k": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            Params(**kwargs)

    def test_configuration_rejects_collision(self):
        with pytest.raises(Collision):
            Configuration(Point(0.0, 1.0), Point(0.0, 1.0))
        with pytest.raises(Collision):
            Configuration(Point(0.0, 1.0), Point(1e-10, 1.0))

    def test_array_round_trip(self):
        s = phase_state(0.1, 1.2, -0.4, 0.8, 1.0, -2.0, 3.0, 0.5)
        arr = s.as_array()
        assert np.allclose(arr, [0.1, 1.2, -0.4, 0.8, 1.0, -2.0, 3.0, 0.5])
        back = PhaseState.from_array(arr)
        assert back == s


class TestPotential:
    def test_matches_coth_of_distance(self, rng):
        # dual route: the coordinate formula against coth(acosh-based d)
        for _ in range(100):
            s, params = random_config_state(rng)
            d = s.config.distance()
            ref = -params.k * params.m1 * params.m2 / math.tanh(d)
            assert potential(s.config, params) == pytest.approx(ref, rel=1e-12)

    def test_unit_distance_value(self):
        cfg = Configuration(Point(0.0, 1.0), Point(0.0, math.e))
        params = Params(2.0, 3.0, k=1.5)
        # coth(1), fixed reference
        assert potential(cfg, params) == pytest.approx(
            -2.0 * 3.0 * 1.5 * 1.3130352854993312, rel=1e-14
        )

    def test_far_field_plateau(self):
        cfg = Configuration(Point(0.0, 1.0), Point(0.0, math.exp(30.0)))
        params = Params(1.0, 1.0)
        assert potential(cfg, params) == pytest.approx(-1.0, rel=1e-12)

    def test_gradient_matches_fd(self, rng):
        for _ in range(50):
            s, params = random_config_state(rng)
            coords = s.as_array()[:4]
            grad = _potential_gradient(*s.config.coords(), params.k * params.m1 * params.m2)
            fd = fd_gradient(lambda c: _potential_of_coords(c, params), coords)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_survives_near_collision(self):
        # vertical pair a chart distance 1e-6 apart; the y2 entry must match
        # k m1 m2 / sinh(d)^2 to high relative accuracy. A naive
        # cosh^2 - 1 evaluation loses four digits here.
        h = 1e-6
        cfg = Configuration(Point(0.0, 1.0), Point(0.0, 1.0 + h))
        params = Params(1.0, 1.0)
        d = hyperbolic_distance(cfg.q1, cfg.q2)
        g = _potential_gradient(*cfg.coords(), params.k * params.m1 * params.m2)
        ref = 1.0 / math.sinh(d) ** 2 / (1.0 + h)  # chain rule d(d)/dy2 = 1/y2
        assert g[3] == pytest.approx(ref, rel=1e-9)
        assert g[1] == pytest.approx(-ref * (1.0 + h), rel=1e-9)

    def test_gradient_pair_antisymmetry_in_x(self, rng):
        for _ in range(20):
            s, params = random_config_state(rng)
            g = _potential_gradient(*s.config.coords(), params.k * params.m1 * params.m2)
            assert g[2] == -g[0]


class TestEnergyAndField:
    def test_kinetic_by_hand(self):
        s = phase_state(0.0, 2.0, 1.0, 0.5, 3.0, 0.0, 0.0, 4.0)
        params = Params(2.0, 1.0)
        # y^2 |p|^2 / (2m) per body
        assert kinetic_energy(s, params) == pytest.approx(
            4.0 * 9.0 / 4.0 + 0.25 * 16.0 / 2.0, rel=1e-15
        )

    def test_hamiltonian_splits(self, rng):
        s, params = random_config_state(rng)
        assert hamiltonian(s, params) == pytest.approx(
            kinetic_energy(s, params) + potential(s.config, params), rel=1e-14
        )

    def test_field_is_symplectic_gradient(self, rng):
        # dq/dt = dH/dp, dp/dt = -dH/dq against finite differences
        for _ in range(50):
            s, params = random_config_state(rng)
            z = s.as_array()

            def ham_of(arr):
                return hamiltonian(PhaseState.from_array(arr), params)

            dh = fd_gradient(ham_of, z)
            f = hamiltonian_vector_field(s, params)
            assert np.allclose(f[:4], dh[4:], rtol=1e-6, atol=1e-7)
            assert np.allclose(f[4:], -dh[:4], rtol=1e-6, atol=1e-7)

    def test_lone_field_is_the_batch_formula(self, rng):
        # a lone state runs the field on Python floats, a batch on its rows;
        # each column of a batch must equal its lone call bit for bit
        n = 64
        x1, x2 = 3.0 * (2.0 * rng.random((2, n)) - 1.0)
        y1, y2 = np.exp(4.0 * (2.0 * rng.random((2, n)) - 1.0))
        y1[:8] = 1e6 * (1.0 + rng.random(8))  # far up the chart
        y2[:8] = 1e6 * (1.0 + rng.random(8))
        # near collision: body 2 a few 1e-6 of y1 away from body 1
        x2[8:16] = x1[8:16] + 1e-6 * y1[8:16] * rng.standard_normal(8)
        y2[8:16] = y1[8:16] * (1.0 + 1e-6 * rng.standard_normal(8))
        Z = np.vstack([x1, y1, x2, y2, 10.0 * rng.standard_normal((4, n))])
        m1, m2, k = 0.3, 2.7, 1.3
        batch = _field_array(Z, m1, m2, k)
        assert np.all(np.isfinite(batch))
        for j in range(n):
            lone = _field_array(Z[:, j], m1, m2, k)
            assert lone.shape == (8,) and lone.dtype == np.float64
            assert np.array_equal(lone, batch[:, j]), j

    def test_velocities_raise_momenta(self, rng):
        s, params = random_config_state(rng)
        v1, v2 = velocity_vectors(s, params)
        assert v1.vx == pytest.approx(s.config.q1.y ** 2 * s.px1 / params.m1)
        assert v2.vy == pytest.approx(s.config.q2.y ** 2 * s.py2 / params.m2)

    def test_legendre_inverts_velocity(self, rng):
        # lowering the generator field then raising it returns the field
        for _ in range(50):
            s, params = random_config_state(rng)
            xi = random_algebra(rng)
            state = legendre(s.config, params, xi)
            v1, v2 = velocity_vectors(state, params)
            g1 = infinitesimal_generator(xi, s.config.q1)
            g2 = infinitesimal_generator(xi, s.config.q2)
            assert np.allclose([v1.vx, v1.vy], [g1.vx, g1.vy], atol=1e-12)
            assert np.allclose([v2.vx, v2.vy], [g2.vx, g2.vy], atol=1e-12)


class TestMomentumMap:
    def test_pairing_definition(self, rng):
        # <J(z), xi> = p1 . gen(xi)(q1) + p2 . gen(xi)(q2)
        for _ in range(100):
            s, _ = random_config_state(rng)
            xi = random_algebra(rng)
            g1 = infinitesimal_generator(xi, s.config.q1)
            g2 = infinitesimal_generator(xi, s.config.q2)
            ref = (
                s.px1 * g1.vx + s.py1 * g1.vy + s.px2 * g2.vx + s.py2 * g2.vy
            )
            assert momentum_map(s).pair(xi) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_equivariance(self, rng):
        # J(g . z) = g-transport of J(z)
        for _ in range(100):
            s, _ = random_config_state(rng)
            g = random_group(rng)
            lhs = momentum_map(group_act_phase(g, s)).coords()
            rhs = coadjoint(g, momentum_map(s)).coords()
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestGroupActPhase:
    def test_preserves_hamiltonian(self, rng):
        for _ in range(100):
            s, params = random_config_state(rng)
            g = random_group(rng)
            h0 = hamiltonian(s, params)
            h1 = hamiltonian(group_act_phase(g, s), params)
            assert h1 == pytest.approx(h0, rel=1e-10, abs=1e-10)

    def test_left_action(self, rng):
        for _ in range(50):
            s, _ = random_config_state(rng)
            g, h = random_group(rng), random_group(rng)
            lhs = group_act_phase(g.compose(h), s).as_array()
            rhs = group_act_phase(g, group_act_phase(h, s)).as_array()
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_momenta_transform_is_mass_free(self):
        # the lift never sees Params; transforming then pairing with any
        # velocity reproduces the chart pairing
        s = phase_state(0.2, 1.0, -0.3, 2.0, 1.0, 2.0, -1.0, 0.5)
        from h2body import GroupElement

        g = GroupElement(1.2, 0.3, -0.4, 0.7)
        moved = group_act_phase(g, s)
        assert isinstance(moved, PhaseState)


# one generator of each conjugacy type
_FRAME_XIS = {
    ElementType.ELLIPTIC: AlgebraElement(1.5, 0.3, 0.2),
    ElementType.HYPERBOLIC: AlgebraElement(0.2, 1.0, 0.3),
    ElementType.PARABOLIC: AlgebraElement(0.8, 0.0, 0.4),
    ElementType.ZERO: AlgebraElement(0.0, 0.0, 0.0),
}


def _columns(rng, n):
    states = [random_config_state(rng)[0] for _ in range(n)]
    return states, np.array([s.as_array() for s in states]).T


class TestArrayForms:
    """The array flow, phase action and generator lift that move a batch
    between the chart and the frame of a generator."""

    @pytest.mark.parametrize("kind", list(_FRAME_XIS), ids=lambda k: k.value)
    def test_array_flow_and_action_match_the_dataclass_forms(self, rng, kind):
        xi = _FRAME_XIS[kind]
        assert classify(xi).type is kind
        ts = rng.uniform(-2.0, 2.0, 50)
        states, z = _columns(rng, ts.size)
        entries = np.broadcast_arrays(*flow_entries(xi, ts))
        moved = np.array(_act_phase(*entries, z))
        for j, (t, s) in enumerate(zip(ts, states)):
            g = flow(xi, t)
            ref = np.array([g.a, g.b, g.c, g.d])
            got = np.array([e[j] for e in entries])
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
            ref = group_act_phase(g, s).as_array()
            # flow() rescales its entries to det 1, a change of about an ulp
            # that the momenta, quadratic in the entries, feel twice
            assert np.max(np.abs(moved[:, j] - ref)) <= 2e-15 * np.max(np.abs(ref))
        if kind is ElementType.ZERO:
            np.testing.assert_array_equal(moved, z)

    @pytest.mark.parametrize("kind", list(_FRAME_XIS), ids=lambda k: k.value)
    def test_lift_is_the_derivative_of_the_flowed_action(self, rng, kind):
        # complex step in t through the closed-form flow and the action,
        # exact to rounding since both are analytic in t
        xi = _FRAME_XIS[kind]
        _, z = _columns(rng, 20)
        step = 1e-30
        moved = np.array(_act_phase(*flow_entries(xi, complex(0.0, step)), z))
        lift = _generator_lift(xi, z)
        scale = np.max(np.abs(lift), axis=0) + 1e-300
        assert np.max(np.abs(moved.imag / step - lift) / scale) <= 1e-14

    @pytest.mark.parametrize(
        "xi",
        [*_FRAME_XIS.values(),
         build_relative_equilibrium(Family.ELLIPTIC, math.atanh(0.4), Params(1.0, 1.0)).xi],
        ids=[*(k.value for k in _FRAME_XIS), "ac10"],
    )
    def test_lift_table_matches_the_lift_column_by_column(self, rng, xi):
        # the table sums the lift's terms in another order, so the two agree
        # to rounding; each column rounds as it does alone, whatever N is
        lift = _generator_lift_table(xi)
        _, z = _columns(rng, 50)
        got, ref = lift(z), _generator_lift(xi, z)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.max(np.abs(ref), axis=0))
        for n in (1, 7, 50):
            batch = lift(z[:, :n])
            for j in range(n):
                assert batch[:, j].tobytes() == lift(z[:, j:j + 1])[:, 0].tobytes()

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_equilibrium_is_at_rest_in_its_frame(self, family):
        for u in (0.2, 0.4, 0.8):
            re = build_relative_equilibrium(family, math.atanh(u), Params(1.0, 2.0))
            z = initial_state(re).as_array()[:, None]
            field = _field_array(z, 1.0, 2.0, 1.0)
            rest = field - _generator_lift(re.xi, z)
            assert np.max(np.abs(rest)) <= 1e-14 * np.max(np.abs(field))


def _canonical_setup(d1, d2, m2=1.0, k=1.0):
    # bodies at (tanh d1, sech d1) and (-tanh d2, sech d2), masses balanced
    u1, s1 = math.tanh(d1), 1.0 / math.cosh(d1)
    u2, s2 = math.tanh(d2), 1.0 / math.cosh(d2)
    m1 = m2 * u2 * s1 * s1 / (s2 * s2 * u1)
    params = Params(m1, m2, k)
    cfg = Configuration(Point(u1, s1), Point(-u2, s2))
    return cfg, params


class TestMomentumAtCanonical:
    def test_matches_legendre_route(self, rng):
        # dual route: closed-form matrix against momentum_map(legendre(...))
        for _ in range(50):
            d1 = float(rng.uniform(0.27, 1.9))
            params = Params(*(float(m) for m in rng.uniform(0.5, 2.0, size=2)))
            # bodies at (tanh d1, sech d1) and (-tanh d2, sech d2)
            d2 = partner_distance(d1, params)
            cfg = Configuration(
                Point(math.tanh(d1), 1.0 / math.cosh(d1)),
                Point(-math.tanh(d2), 1.0 / math.cosh(d2)),
            )
            E, H, P = (float(v) for v in rng.normal(size=3))
            mu = momentum_map(legendre(cfg, params, AlgebraElement(E, H, P)))
            closed = momentum_at_canonical(d1, E, H, P, params)
            assert np.allclose(mu.matrix(), closed, rtol=1e-10, atol=1e-12)


class TestLockedInertia:
    def test_gram_matrix_oracle(self, rng):
        # definitional route: mass-weighted inner products of the three
        # generator fields
        basis = [
            AlgebraElement(1.0, 0.0, 0.0),
            AlgebraElement(0.0, 1.0, 0.0),
            AlgebraElement(0.0, 0.0, 1.0),
        ]
        for _ in range(50):
            s, params = random_config_state(rng)
            closed = locked_inertia(s.config, params)
            gram = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    acc = 0.0
                    for (p, m) in (
                        (s.config.q1, params.m1),
                        (s.config.q2, params.m2),
                    ):
                        acc += m * hyperbolic_inner(
                            infinitesimal_generator(basis[i], p),
                            infinitesimal_generator(basis[j], p),
                        )
                    gram[i, j] = acc
            assert np.allclose(closed, gram, rtol=1e-10, atol=1e-10)

    def test_canonical_closed_form(self, rng):
        # at the canonical configuration the tensor collapses to a sparse
        # matrix in u = tanh d1, v = tanh d2
        for _ in range(20):
            d1 = float(rng.uniform(0.27, 1.9))
            d2 = float(rng.uniform(0.27, 1.9))
            m2 = float(rng.uniform(0.5, 2.0))
            cfg, params = _canonical_setup(d1, d2, m2)
            u, v = math.tanh(d1), math.tanh(d2)
            s2 = 1.0 / math.cosh(d2)
            closed = (
                m2
                * (u + v)
                / (s2 * s2)
                * np.array(
                    [[v, 0.0, -v], [0.0, 1.0 / u, 0.0], [-v, 0.0, 1.0 / u]]
                )
            )
            assert np.allclose(
                locked_inertia(cfg, params), closed, rtol=1e-12, atol=1e-12
            )

    def test_apply_inverse_round_trip(self, rng):
        s, params = random_config_state(rng)
        ii = locked_inertia(s.config, params)
        xi = random_algebra(rng)
        (back,) = _inverse_apply(ii, CoalgebraElement(*ii @ xi.coords()))
        assert np.allclose(back.coords(), xi.coords(), rtol=1e-10, atol=1e-12)

    def test_inverse_of_several_is_each_inverse(self, rng):
        # one solve for several right-hand sides gives each lone solve to
        # rounding (a blocked solve may round differently)
        for _ in range(20):
            s, params = random_config_state(rng)
            ii = locked_inertia(s.config, params)
            mus = [CoalgebraElement(*ii @ random_algebra(rng).coords()) for _ in range(3)]
            together = _inverse_apply(ii, *mus)
            assert len(together) == 3
            for mu, xi in zip(mus, together):
                (lone,) = _inverse_apply(ii, mu)
                lone = lone.coords()
                err = np.max(np.abs(xi.coords() - lone))
                assert err <= 1e-14 * np.max(np.abs(lone))

    def test_positive_definite(self, rng):
        for _ in range(50):
            s, params = random_config_state(rng)
            ii = locked_inertia(s.config, params)
            ell = np.linalg.cholesky(ii)  # raises if not PD
            assert np.allclose(ell @ ell.T, ii, rtol=1e-12, atol=1e-12)

    def test_bilinear_is_quadratic_form(self, rng):
        s, params = random_config_state(rng)
        ii = locked_inertia(s.config, params)
        xi, eta = random_algebra(rng), random_algebra(rng)
        xi_eta = xi.coords() @ ii @ eta.coords()
        assert xi_eta == pytest.approx(eta.coords() @ ii @ xi.coords(), rel=1e-12)
        mu = CoalgebraElement(*ii @ xi.coords())
        assert mu.pair(eta) == pytest.approx(xi_eta, rel=1e-12)


class TestAugmentedPotential:
    def test_reduces_to_plain_potential_at_zero(self, rng):
        s, params = random_config_state(rng)
        xi0 = AlgebraElement(0.0, 0.0, 0.0)
        assert augmented_potential(s.config, params, xi0) == potential(
            s.config, params
        )

    def test_definition(self, rng):
        for _ in range(20):
            s, params = random_config_state(rng)
            xi = random_algebra(rng)
            va = augmented_potential(s.config, params, xi)
            m = locked_inertia(s.config, params)
            ref = potential(s.config, params) - 0.5 * (xi.coords() @ m @ xi.coords())
            assert va == pytest.approx(ref, rel=1e-13)

    def test_gradient_matches_fd(self, rng):
        for _ in range(50):
            s, params = random_config_state(rng)
            xi = random_algebra(rng)
            coords = s.as_array()[:4]

            def va_of(c):
                cfg = Configuration(Point(c[0], c[1]), Point(c[2], c[3]))
                return augmented_potential(cfg, params, xi)

            grad = augmented_potential_gradient(s.config, params, xi)
            fd = fd_gradient(va_of, coords)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6)


def test_momentum_map_returns_coalgebra():
    s = phase_state(0.0, 1.0, 1.0, 1.0, 0.5, -0.5, 0.25, 0.75)
    mu = momentum_map(s)
    assert isinstance(mu, CoalgebraElement)
    # horizontal translation component is the plain momentum sum
    assert mu.p == pytest.approx(0.75, abs=1e-15)
