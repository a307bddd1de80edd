"""Release gate: eleven end-to-end checks at fixed tolerances.

Each test exercises one release criterion through the public API and
prints a single summary line with the measured margin. Random draws are
seeded, so the whole gate is reproducible bit for bit. Wall-clock budgets
are asserted too; they are generous on purpose.
"""

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

from conftest import (
    fd_gradient,
    random_algebra,
    random_balanced_re,
    random_config_state,
    random_group,
    random_point,
)

from h2body import Family, Params, build_relative_equilibrium, partner_distance
from h2body.dynamics import (
    Configuration,
    Point,
    _field_array,
    augmented_potential,
    locked_inertia,
)
from h2body.equilibria import (
    admissible_generators,
    initial_state,
)
from h2body.geom import geodesic_point_at, geodesic_through, hyperbolic_distance
from h2body.liegroup import adjoint, classify, flow, moebius_act
from h2body.sim import (
    IntegratorConfig,
    PerturbationExperiment,
    conservation_report,
    integrate,
    perturb_and_measure,
)
from h2body.stability import (
    classify_stability,
    internal_block,
    internal_block_oracle,
    internal_correction,
    intrinsic_stability_bound,
    momentum_norm_profile,
    rig_block,
    rig_block_oracle,
    threshold,
)

SEED = 20260816


def _too_close(t, z):
    dx, dy = z[0] - z[2], z[1] - z[3]
    u = (dx * dx + dy * dy) / (2.0 * z[1] * z[3])
    return math.acosh(1.0 + u) - 0.25


_too_close.terminal = True


def test_ac01_conservation_along_random_trajectories():
    """Energy and all three momentum components drift < 1e-7 to t = 50."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    accepted = 0
    drawn = 0
    worst = 0.0
    while accepted < 20:
        state, params = random_config_state(rng, min_sep=0.7)
        drawn += 1
        # Drift at default tolerance is only meaningful away from close
        # encounters, so draws whose trajectory dips below separation 0.25
        # are redrawn. The screen must terminate at the first dip; letting
        # a grazing trajectory grind to t = 50 at shrinking steps costs
        # minutes, hence the raw event-stopped probe on the array field.
        z0 = state.as_array()
        m1, m2, k = params.m1, params.m2, params.k
        probe = solve_ivp(
            lambda t, z: _field_array(z, m1, m2, k),
            (0.0, 50.0),
            z0,
            method="RK45",
            rtol=1e-6,
            atol=1e-9,
            events=_too_close,
        )
        if probe.status != 0:
            continue
        accepted += 1
        record = integrate(state, params, IntegratorConfig(t_end=50.0))
        worst = max(worst, max(conservation_report(record).values()))
    elapsed = time.time() - t0
    assert worst < 1e-7
    assert elapsed < 30.0
    print(f"AC-01 PASS: worst drift {worst:.3e} < 1e-7 "
          f"({accepted}/{drawn} draws, {elapsed:.1f}s)")


def test_ac02_criticality_and_rotation_rate_forms():
    """Both families: critical augmented potential, consistent rate forms."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_grad = 0.0
    worst_rate = 0.0
    for family in (Family.ELLIPTIC, Family.HYPERBOLIC):
        for _ in range(50):
            re = random_balanced_re(rng, family)
            p = re.params

            def v_aug(v):
                cfg = Configuration(Point(v[0], v[1]), Point(v[2], v[3]))
                return augmented_potential(cfg, p, re.xi)

            coords = np.array(
                [re.config.q1.x, re.config.q1.y, re.config.q2.x, re.config.q2.y]
            )
            worst_grad = max(
                worst_grad, float(np.linalg.norm(fd_gradient(v_aug, coords)))
            )

            d = re.d1 + re.d2
            sh2 = math.sinh(d) ** 2
            form_a = 2.0 * p.k * p.m1 / (sh2 * math.sinh(2.0 * re.d2))
            form_b = 2.0 * p.k * p.m2 / (sh2 * math.sinh(2.0 * re.d1))
            trig = admissible_generators(re.d1, re.d2, p).omega2
            worst_rate = max(
                worst_rate,
                abs(form_a - trig) / trig,
                abs(form_b - trig) / trig,
            )
    elapsed = time.time() - t0
    assert worst_grad < 1e-7
    assert worst_rate < 1e-10
    assert elapsed < 5.0
    print(f"AC-02 PASS: gradient norm {worst_grad:.3e} < 1e-7, "
          f"rate-form spread {worst_rate:.3e} < 1e-10 ({elapsed:.1f}s)")


def test_ac03_excluded_generator_cases():
    """Parabolic and mixed generator directions never give equilibria."""
    t0 = time.time()
    worst_residual = math.inf
    worst_comm = math.inf
    n = 0
    for d1 in np.linspace(0.1, 1.5, 10):
        for c in np.geomspace(0.2, 5.0, 5):
            params = Params(c, 1.0, 1.0)
            d2 = partner_distance(d1, params)
            cases = admissible_generators(d1, d2, params)
            # the obstruction has an explicit product form; check it on the fly
            expect = (
                params.m2 ** 2 * params.k
                * math.tanh(d2) / math.cosh(d2) ** 2 / math.cosh(d1) ** 4
                * (math.tanh(d1) + math.tanh(d2))
            )
            assert abs(cases.mixed_residual - expect) <= 1e-12 * expect
            worst_residual = min(worst_residual, cases.mixed_residual)
            worst_comm = min(worst_comm, cases.parabolic_commutator_norm)
            n += 1
    elapsed = time.time() - t0
    scale = 1.0  # m2 = k = 1 on this grid
    assert worst_residual > 1e-12 * scale
    assert worst_comm > 1e-12 * scale
    assert n == 50
    assert elapsed < 1.0
    print(f"AC-03 PASS: min residual {worst_residual:.3e}, "
          f"min commutator norm {worst_comm:.3e}, both > 1e-12 ({elapsed:.1f}s)")


def test_ac04_elliptic_period_closure():
    """Ten elliptic equilibria close up after one period."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        re = random_balanced_re(rng, Family.ELLIPTIC)
        z0 = initial_state(re).as_array()
        # tighter than default: closure of slow, internally unstable draws
        # sits right at 1e-6 when integrated at 1e-10
        cfg = IntegratorConfig(t_end=re.period, rel_tol=1e-12, abs_tol=1e-14)
        record = integrate(initial_state(re), re.params, cfg)
        worst = max(worst, float(np.linalg.norm(record.states[-1] - z0)))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    print(f"AC-04 PASS: worst closure {worst:.3e} < 1e-6 ({elapsed:.1f}s)")


def test_ac05_hyperbolic_rigid_translation():
    """Hyperbolic family: constant separation and constant speeds to t = 10.

    The family is always unstable, so tracking error grows like
    exp(const * |omega| * t); the draw box keeps |omega| below about 0.3,
    where the default integrator holds the 1e-7 target with two decades
    to spare.
    """
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_d = 0.0
    worst_v = 0.0
    for _ in range(10):
        d1 = 1.0 + 0.45 * rng.random()
        c = math.exp(math.log(0.5) + math.log(4.0) * rng.random())
        sign = 1 if rng.random() < 0.5 else -1
        params = Params(c, 1.0, 1.0)
        re = build_relative_equilibrium(
            Family.HYPERBOLIC, d1, partner_distance(d1, params), params, sign=sign
        )
        record = integrate(initial_state(re), params, IntegratorConfig(t_end=10.0))
        worst_d = max(
            worst_d, float(np.max(np.abs(record.distance - record.distance[0])))
        )
        s1_expect = abs(re.omega) * math.cosh(re.d1)
        s2_expect = abs(re.omega) * math.cosh(re.d2)
        for row in record.states:
            s1 = math.hypot(row[4], row[5]) * row[1] / params.m1
            s2 = math.hypot(row[6], row[7]) * row[3] / params.m2
            worst_v = max(worst_v, abs(s1 - s1_expect), abs(s2 - s2_expect))
    elapsed = time.time() - t0
    assert worst_d < 1e-7
    assert worst_v < 1e-7
    assert elapsed < 10.0
    print(f"AC-05 PASS: separation dev {worst_d:.3e}, speed dev {worst_v:.3e}, "
          f"both < 1e-7 ({elapsed:.1f}s)")


def test_ac06_stability_blocks_match_oracles():
    """Closed-form stability blocks against their definitional oracles."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_ar = 0.0
    worst_in = 0.0
    resampled = 0
    for family in (Family.ELLIPTIC, Family.HYPERBOLIC):
        done = 0
        while done < 50:
            re = random_balanced_re(rng, family)
            inner = internal_block(re)
            # a relative comparison is meaningless inside the sign-change
            # band, so draws that land there are redrawn
            if abs(inner) < 1e-6 * re.params.m2 ** 2 * re.params.k:
                resampled += 1
                continue
            done += 1
            ii = locked_inertia(re.config, re.params)
            correction, _ = internal_correction(re, ii)
            worst_ar = max(
                worst_ar,
                float(np.max(np.abs(rig_block(re) - rig_block_oracle(re, ii)))),
            )
            worst_in = max(
                worst_in,
                abs(inner - internal_block_oracle(re, correction)) / abs(inner),
            )
    elapsed = time.time() - t0
    assert worst_ar < 1e-9
    assert worst_in < 1e-5
    assert elapsed < 30.0
    print(f"AC-06 PASS: rig block {worst_ar:.3e} < 1e-9 entrywise, "
          f"internal {worst_in:.3e} < 1e-5 relative "
          f"({resampled} redraws, {elapsed:.1f}s)")


def test_ac07_threshold_exactness_and_sign_flip():
    """Threshold root at equal masses, sign flip of the internal block."""
    t0 = time.time()
    assert abs(threshold(1.0).u0 - 1.0 / math.sqrt(3.0)) < 1e-12
    for c in np.geomspace(0.02, 50.0, 100):
        u0 = threshold(float(c)).u0
        params = Params(float(c), 1.0, 1.0)
        for du, expect_positive in ((-1e-3, True), (1e-3, False)):
            d1 = math.atanh(u0 + du)
            re = build_relative_equilibrium(
                Family.ELLIPTIC, d1, partner_distance(d1, params), params
            )
            assert (internal_block(re) > 0.0) is expect_positive, (c, du)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"AC-07 PASS: u0(1) = 3^-1/2 within 1e-12, sign flips at u0 +- 1e-3 "
          f"on a 100-point mass-ratio grid ({elapsed:.1f}s)")


def test_ac08_intrinsic_bound_matches_classifier():
    """The scalar distance bound reproduces the block-by-block verdict."""
    t0 = time.time()
    degenerate = 0
    for d1 in np.linspace(0.1, 1.6, 50):
        for c in np.geomspace(0.05, 20.0, 20):
            params = Params(float(c), 1.0, 1.0)
            re = build_relative_equilibrium(
                Family.ELLIPTIC, float(d1), partner_distance(float(d1), params), params
            )
            report = classify_stability(re)
            if report.verdict.value == "degenerate":
                degenerate += 1
                continue
            assert intrinsic_stability_bound(float(d1), float(c)) is (
                report.verdict.value == "stable"
            ), (d1, c)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"AC-08 PASS: bound agrees with classifier on 1000 grid points "
          f"({degenerate} degenerate skipped, {elapsed:.1f}s)")


def test_ac09_momentum_norm_fold_at_threshold():
    """The momentum norm peaks exactly at the stability threshold."""
    t0 = time.time()
    grid = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    cell = grid[1] - grid[0]
    for c in (0.5, 1.0, 2.0):
        profile = momentum_norm_profile(c, grid)
        u_star = grid[int(np.argmax(profile))]
        gap = abs(u_star - threshold(c).u0)
        assert gap <= cell + 1e-15, (c, gap)
    elapsed = time.time() - t0
    assert elapsed < 2.0
    print(f"AC-09 PASS: discrete maximizer within one cell of u0 for "
          f"c in (0.5, 1, 2) on a 10^4 grid ({elapsed:.1f}s)")


def test_ac10_perturbation_dichotomy():
    """Stable side stays in a tight band; unstable side escapes."""
    t0 = time.time()
    params = Params(1.0, 1.0, 1.0)

    def experiment(u):
        d1 = math.atanh(u)
        re = build_relative_equilibrium(
            Family.ELLIPTIC, d1, partner_distance(d1, params), params
        )
        return perturb_and_measure(
            PerturbationExperiment(
                base=re,
                scale=1e-4,
                n_trials=50,
                horizon=20.0 * re.period,
                seed=SEED,
            )
        )

    stable = experiment(0.4)
    assert stable["n_escaped"] == 0
    assert stable["n_bounded"] == 50
    assert all(t["error"] is None for t in stable["trials"])
    assert all(t["max_distance_deviation"] < 1e-2 for t in stable["trials"])

    unstable = experiment(0.8)
    assert unstable["n_escaped"] >= 1
    elapsed = time.time() - t0
    assert elapsed < 180.0
    print(f"AC-10 PASS: stable max dev {stable['max_distance_deviation']:.3e} "
          f"< 1e-2 over 50 trials, unstable escaped {unstable['n_escaped']}/50 "
          f"({elapsed:.1f}s)")


def test_ac11_geometry_group_property_suite():
    """Core geometric and group-theoretic identities on random samples."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)

    worst_iso = 0.0
    for _ in range(100):
        a, b, g = random_point(rng), random_point(rng), random_group(rng)
        worst_iso = max(
            worst_iso,
            abs(
                hyperbolic_distance(moebius_act(g, a), moebius_act(g, b))
                - hyperbolic_distance(a, b)
            ),
        )
    assert worst_iso < 1e-12

    worst_act = 0.0
    for _ in range(100):
        g1, g2, p = random_group(rng), random_group(rng), random_point(rng)
        lhs = moebius_act(g1, moebius_act(g2, p))
        rhs = moebius_act(g1.compose(g2), p)
        worst_act = max(worst_act, abs(lhs.x - rhs.x), abs(lhs.y - rhs.y))
    assert worst_act < 1e-12

    worst_flow = 0.0
    for _ in range(100):
        xi = random_algebra(rng, 1.0)
        s, t = 2.0 * (2.0 * rng.random(2) - 1.0)
        gap = np.max(
            np.abs(flow(xi, s + t).matrix() - flow(xi, s).compose(flow(xi, t)).matrix())
        )
        worst_flow = max(worst_flow, float(gap))
    assert worst_flow < 1e-10

    worst_ad = 0.0
    for _ in range(100):
        xi, g = random_algebra(rng), random_group(rng)
        c1, c2 = classify(xi), classify(adjoint(g, xi))
        assert c1.type is c2.type
        worst_ad = max(worst_ad, abs(c1.omega - c2.omega))
    assert worst_ad < 1e-9

    worst_speed = 0.0
    h = 1e-5
    for _ in range(100):
        a, b = random_point(rng), random_point(rng)
        if math.hypot(a.x - b.x, a.y - b.y) < 1e-3:
            continue
        geo = geodesic_through(a, b)
        s = 2.0 * (2.0 * rng.random() - 1.0)
        mid = geodesic_point_at(geo, s).base
        fwd = geodesic_point_at(geo, s + h).base
        bwd = geodesic_point_at(geo, s - h).base
        speed = math.hypot(fwd.x - bwd.x, fwd.y - bwd.y) / (2.0 * h * mid.y)
        worst_speed = max(worst_speed, abs(speed - 1.0))
    assert worst_speed < 1e-6

    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"AC-11 PASS: isometry {worst_iso:.1e}, action {worst_act:.1e}, "
          f"flow law {worst_flow:.1e}, conjugation {worst_ad:.1e}, "
          f"unit speed {worst_speed:.1e} ({elapsed:.1f}s)")
