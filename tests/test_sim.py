"""Integration, conservation accounting, CSV round trips, perturbations."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import h2body.sim as sim_mod
from h2body import (
    CollisionDuringIntegration,
    Family,
    IntegratorConfig,
    Params,
    PerturbationExperiment,
    PhaseState,
    TrajectoryRecord,
    Xoshiro256StarStar,
    analytic_states,
    analytic_trajectory,
    build_relative_equilibrium,
    compare_analytic,
    conservation_report,
    hamiltonian,
    initial_state,
    integrate,
    momentum_map,
    partner_distance,
    perturb_and_measure,
    phase_state,
    read_trajectory_csv,
    record_from_states,
    write_trajectory_csv,
)
from h2body.dynamics import _field_array
from h2body.geom import separation


def _equal_mass_elliptic(u=0.4, k=1.0, sign=1):
    d1 = math.atanh(u)
    return build_relative_equilibrium(
        Family.ELLIPTIC, d1, d1, Params(1.0, 1.0, k), sign=sign
    )


def _kicked_bound_state(re, size=1e-2):
    z0 = initial_state(re).as_array()
    kick = np.array([1.0, -2.0, 1.5, 0.5, -1.0, 2.0, 0.5, -1.5])
    kick *= size / np.linalg.norm(kick)
    return PhaseState.from_array(z0 + kick)


class TestXoshiro:
    def test_splitmix_seeding_reference(self):
        # first splitmix64 output for seed 0, from the published reference
        assert Xoshiro256StarStar(0)._s[0] == 0xE220A8397B1DCDAF

    def test_first_outputs_from_unit_state(self):
        # state (1, 2, 3, 4): output rotl(2 * 5, 7) * 9 = 1280 * 9, worked by
        # hand; the second draw sees s1 = 0 and must return 0
        gen = Xoshiro256StarStar(0)
        gen._s = [1, 2, 3, 4]
        assert gen.next_u64() == 11520
        assert gen.next_u64() == 0

    def test_deterministic_streams(self):
        a = Xoshiro256StarStar(42)
        b = Xoshiro256StarStar(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
        c = Xoshiro256StarStar(43)
        assert a.normal() != c.normal()

    def test_normal_moments(self):
        gen = Xoshiro256StarStar(11)
        xs = [gen.normal() for _ in range(4000)]
        assert np.mean(xs) == pytest.approx(0.0, abs=0.05)
        assert np.var(xs) == pytest.approx(1.0, abs=0.08)

    def test_seed_masking(self):
        # seeds are taken mod 2^64; a huge seed is valid
        gen = Xoshiro256StarStar(2 ** 80 + 5)
        same = Xoshiro256StarStar(5)
        assert gen.next_u64() == same.next_u64()


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, sample_dt=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("t_end", math.inf), ("t_end", math.nan), ("rel_tol", math.inf),
         ("abs_tol", math.nan), ("sample_dt", math.nan),
         ("rel_tol", 2.2e-14), pytest.param("t_end", 10**400, id="t_end-int1e400")],
    )
    def test_rejects_non_finite_values_and_sub_ulp_rel_tol(self, field, value):
        # rel_tol must be at least 100 ulps (2.22e-14)
        kwargs = {"t_end": 1.0, field: value}
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_rel_tol_floor_is_accepted(self):
        assert sim_mod.RTOL_FLOOR == 100 * np.finfo(float).eps
        IntegratorConfig(t_end=1.0, rel_tol=sim_mod.RTOL_FLOOR)

    def test_default_grid(self):
        ts = IntegratorConfig(t_end=2.0).sample_times()
        assert ts.shape == (257,)
        assert ts[0] == 0.0
        assert ts[-1] == 2.0

    def test_non_dividing_sample_dt_appends_endpoint(self):
        ts = IntegratorConfig(t_end=1.0, sample_dt=0.3).sample_times()
        assert np.allclose(ts, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_dividing_sample_dt_snaps_endpoint(self):
        ts = IntegratorConfig(t_end=1.0, sample_dt=0.25).sample_times()
        assert np.allclose(ts, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert ts[-1] == 1.0


class TestRecords:
    def test_analytic_samples_have_zero_drift(self):
        # conserved quantities recomputed from exact states never drift
        re = _equal_mass_elliptic()
        ts = np.linspace(0.0, re.period, 64)
        rec = record_from_states(ts, analytic_states(re, ts), re.params)
        rep = conservation_report(rec)
        assert max(rep.values()) < 1e-10
        assert np.max(np.abs(rec.distance - re.distance)) < 1e-12

    @pytest.mark.parametrize("family", [Family.ELLIPTIC, Family.HYPERBOLIC])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_analytic_states_rows_match_scalar_trajectory(self, family, sign):
        params = Params(2.0, 1.0, 1.5)
        re = build_relative_equilibrium(
            family, 0.4, partner_distance(0.4, params), params, sign=sign
        )
        ts = np.linspace(0.0, 3.0, 25)
        states = analytic_states(re, ts)
        assert states.shape == (25, 8)
        for t, row in zip(ts, states):
            exact = analytic_trajectory(re, float(t)).as_array()
            np.testing.assert_allclose(row, exact, rtol=1e-15, atol=0.0)

    def test_record_columns_match_scalar_api(self):
        # the array columns of a record against the dataclass functions
        params = Params(2.0, 1.0, 1.5)
        state = _kicked_bound_state(_equal_mass_elliptic())
        rec = integrate(state, params, IntegratorConfig(t_end=1.0, sample_dt=0.125))
        assert rec.t.size == 9
        for row, energy, jrow, dist in zip(rec.states, rec.energy, rec.momentum, rec.distance):
            s = PhaseState.from_array(row)
            mu = momentum_map(s)
            assert energy == pytest.approx(hamiltonian(s, params), rel=1e-15, abs=0.0)
            np.testing.assert_allclose(jrow, [mu.h, mu.e, mu.p], rtol=1e-15, atol=0.0)
            assert dist == pytest.approx(s.config.distance(), rel=1e-15, abs=0.0)

    def test_csv_round_trip_is_exact(self, tmp_path):
        re = _equal_mass_elliptic()
        rec = integrate(
            initial_state(re), re.params, IntegratorConfig(t_end=1.0, sample_dt=0.125)
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        back = read_trajectory_csv(path)
        # 17 significant digits round-trip binary64 exactly
        assert np.array_equal(back.t, rec.t)
        assert np.array_equal(back.states, rec.states)
        assert np.array_equal(back.energy, rec.energy)
        assert np.array_equal(back.momentum, rec.momentum)
        assert np.array_equal(back.distance, rec.distance)

    def test_csv_layout(self, tmp_path):
        re = _equal_mass_elliptic()
        rec = integrate(
            initial_state(re), re.params, IntegratorConfig(t_end=0.5, sample_dt=0.25)
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "#schema=v1"
        assert lines[1].startswith("t,x1,y1,x2,y2,")
        assert len(lines) == 2 + rec.t.shape[0]

    def test_csv_bytes(self, tmp_path):
        # each data line is its 14 values at %.17g, comma-separated, even
        # for a signed zero, the smallest subnormal and the largest float
        values = np.resize([-0.0, 5e-324, 0.1, 1.7976931348623157e308], (3, 14))
        rec = TrajectoryRecord(
            t=values[:, 0],
            states=values[:, 1:9],
            energy=values[:, 9],
            momentum=values[:, 10:13],
            distance=values[:, 13],
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        lines = path.read_bytes().decode().split("\n")
        assert lines[2:] == [",".join("%.17g" % v for v in row) for row in values] + [""]
        assert lines[2].startswith("-0,4.9406564584124654e-324,0.10000000000000001,")

    def test_csv_rows_cross_write_blocks(self, tmp_path):
        # rows are formatted a block at a time; none is lost or repeated
        # where one block ends and the next begins
        n = 2 * sim_mod._CSV_BLOCK + 1
        values = np.arange(14.0 * n).reshape(n, 14) / 7.0
        rec = TrajectoryRecord(values[:, 0], values[:, 1:9], values[:, 9], values[:, 10:13],
                               values[:, 13])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        lines = path.read_text().split("\n")
        assert lines[2:] == [",".join("%.17g" % v for v in row) for row in values] + [""]

    def test_csv_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("#schema=v2\nt,x\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(bad)
        bad.write_text("#schema=v1\nt,x\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(bad)


class TestIntegrate:
    def test_elliptic_period_closes(self):
        re = _equal_mass_elliptic()
        rec = integrate(initial_state(re), re.params, IntegratorConfig(t_end=re.period))
        assert rec.completed
        gap = np.linalg.norm(rec.states[-1] - rec.states[0])
        assert gap < 1e-6
        rep = conservation_report(rec)
        assert max(rep.values()) < 1e-10

    def test_bound_orbit_long_run_drift(self):
        # kicked stable equilibrium stays bounded for t = 100 with every
        # conserved quantity held to 1e-7 at default tolerances
        re = _equal_mass_elliptic()
        state = _kicked_bound_state(re)
        rec = integrate(state, re.params, IntegratorConfig(t_end=100.0))
        rep = conservation_report(rec)
        assert max(rep.values()) < 1e-7
        assert 0.5 < rec.distance.min() < rec.distance.max() < 1.2

    def test_drift_shrinks_with_tolerance(self):
        # each 10x tightening of rel_tol cuts the worst drift by well over
        # 5x on a fixed orbit (measured 6.8x, 8.5x, 9.2x), on a grid coarse
        # enough that the tolerance, not the sample spacing, bounds the
        # step; at every tolerance the drift stays within what Dormand-
        # Prince 5(4) with its quartic interpolant gave on this orbit
        re = _equal_mass_elliptic()
        state = _kicked_bound_state(re)
        drifts = []
        for rt in (1e-8, 1e-9, 1e-10, 1e-11):
            rec = integrate(
                state,
                re.params,
                IntegratorConfig(t_end=20.0, rel_tol=rt, abs_tol=1e-14, sample_dt=2.5),
            )
            drifts.append(max(conservation_report(rec).values()))
        for loose, tight in zip(drifts, drifts[1:]):
            assert tight < loose / 5.0
        for drift, ceiling in zip(drifts, (7.1e-8, 4.3e-9, 2.6e-10, 1.6e-11)):
            assert drift < ceiling

    def test_time_reversal_round_trip(self):
        # flip momenta, integrate the same horizon, flip back: lands within
        # 10x the one-way deviation from the exact trajectory
        re = _equal_mass_elliptic()
        cfg = IntegratorConfig(t_end=re.period)
        one_way = compare_analytic(re, cfg)
        rec = integrate(initial_state(re), re.params, cfg)
        turned = rec.states[-1].copy()
        turned[4:] = -turned[4:]
        back = integrate(PhaseState.from_array(turned), re.params, cfg)
        final = back.states[-1].copy()
        final[4:] = -final[4:]
        round_trip = float(np.linalg.norm(final - initial_state(re).as_array()))
        assert round_trip < 10.0 * one_way

    def test_collision_raises_with_partial_record(self):
        # radial infall from rest must terminate at the collision cutoff
        state = phase_state(0.0, 1.0, 0.0, 1.2, 0.0, 0.0, 0.0, 0.0)
        params = Params(1.0, 1.0)
        with pytest.raises(CollisionDuringIntegration) as err:
            integrate(state, params, IntegratorConfig(t_end=5.0))
        rec = err.value.record
        assert rec is not None
        assert not rec.completed
        assert rec.error == "collision"
        assert rec.distance[-1] == pytest.approx(1e-8, rel=1e-2, abs=0.0)
        assert rec.t[-1] < 5.0

    def test_sample_grid_respected(self):
        re = _equal_mass_elliptic()
        rec = integrate(
            initial_state(re), re.params, IntegratorConfig(t_end=1.0, sample_dt=0.5)
        )
        assert np.allclose(rec.t, [0.0, 0.5, 1.0])

    def test_compare_analytic_small_at_defaults(self):
        re = _equal_mass_elliptic()
        dev = compare_analytic(re, IntegratorConfig(t_end=re.period))
        assert dev < 1e-6

    def test_compare_analytic_grows_with_loose_tolerance(self):
        # one sample a period, so that the tolerance bounds the step (on a
        # grid finer than the step both tolerances give the same steps)
        re = _equal_mass_elliptic()
        cfg = dict(t_end=10.0 * re.period, sample_dt=re.period)
        tight = compare_analytic(re, IntegratorConfig(**cfg))
        loose = compare_analytic(re, IntegratorConfig(**cfg, rel_tol=1e-5, abs_tol=1e-8))
        assert loose > 10.0 * tight

    def test_steps_land_on_a_grid_finer_than_the_step(self):
        # 256 samples a period is finer than the controller's step, so each
        # step is one sample: twelve field calls a sample, no interpolant
        re = _equal_mass_elliptic()
        cfg = IntegratorConfig(t_end=re.period)
        rec = integrate(initial_state(re), re.params, cfg)
        np.testing.assert_array_equal(rec.t, cfg.sample_times())
        assert rec.stats["nfev"] == 2 + 12 * 256
        assert (rec.stats["accepted"], rec.stats["rejected"], rec.stats["dense"]) == (256, 0, 0)
        assert max(conservation_report(rec).values()) < 1e-13

    def test_hyperbolic_family_tracked_too(self):
        params = Params(1.0, 1.0)
        re = build_relative_equilibrium(Family.HYPERBOLIC, 0.5, 0.5, params)
        dev = compare_analytic(re, IntegratorConfig(t_end=2.0))
        assert dev < 1e-6


class TestPerturbation:
    def test_validation(self):
        re = _equal_mass_elliptic()
        with pytest.raises(ValueError):
            PerturbationExperiment(re, scale=0.0, n_trials=1, horizon=1.0, seed=1)
        with pytest.raises(ValueError):
            PerturbationExperiment(re, scale=1e-4, n_trials=0, horizon=1.0, seed=1)
        with pytest.raises(ValueError):
            PerturbationExperiment(re, scale=1e-4, n_trials=1, horizon=0.0, seed=1)
        # an int beyond the float range, where math.isfinite would overflow
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            PerturbationExperiment(re, scale=10**400, n_trials=1, horizon=1.0, seed=1)

    def test_stable_side_stays_bounded(self):
        re = _equal_mass_elliptic(u=0.4)
        exp = PerturbationExperiment(
            re, scale=1e-4, n_trials=3, horizon=re.period, seed=2026
        )
        report = perturb_and_measure(exp)
        assert report["n_escaped"] == 0
        assert report["n_bounded"] == 3
        assert report["max_distance_deviation"] < 1e-2
        assert report["protocol"]["seed"] == 2026
        assert report["protocol"]["scale"] == 1e-4
        assert len(report["trials"]) == 3
        for trial in report["trials"]:
            assert trial["error"] is None
            assert trial["escaped"] is False
            assert trial["max_chart_deviation"] is not None

    def test_unstable_side_escapes(self):
        re = _equal_mass_elliptic(u=0.8)
        exp = PerturbationExperiment(
            re, scale=1e-4, n_trials=2, horizon=2.0 * re.period, seed=99
        )
        report = perturb_and_measure(exp)
        assert report["n_escaped"] >= 1
        escaped = [t for t in report["trials"] if t["escaped"]]
        assert all(t["escape_time"] is not None for t in escaped)
        assert report["max_distance_deviation"] > 0.5 - 1e-6

    def test_bit_reproducible(self):
        re = _equal_mass_elliptic(u=0.4)
        exp = PerturbationExperiment(
            re, scale=1e-4, n_trials=2, horizon=0.5 * re.period, seed=31415
        )
        a = perturb_and_measure(exp)
        b = perturb_and_measure(exp)
        assert a == b

    def test_deviation_shrinks_with_scale(self):
        # bounded response: smaller kicks keep the separation closer
        re = _equal_mass_elliptic(u=0.4)
        devs = []
        for scale in (1e-3, 1e-4, 1e-5):
            exp = PerturbationExperiment(
                re, scale=scale, n_trials=2, horizon=re.period, seed=555
            )
            devs.append(perturb_and_measure(exp)["max_distance_deviation"])
        assert devs[0] > devs[1] > devs[2]


def _rhs(params):
    return lambda t, z: _field_array(z, params.m1, params.m2, params.k)


def _kicked_starts(re, n, size=1e-4, seed=5):
    # columns are kicked copies of the equilibrium state
    z0 = initial_state(re).as_array()
    kicks = np.random.default_rng(seed).standard_normal((8, n))
    return z0[:, None] + kicks * (size / np.linalg.norm(kicks, axis=0))


def _escape_event(re, threshold=0.5):
    r0 = float(re.distance)

    def escape(t, z):
        return abs(separation(z[0], z[1], z[2], z[3]) - r0) - threshold

    escape.terminal = True
    return escape


class TestEngine:
    """The in-house engine against scipy, an independent implementation
    of the same method, and batch rows against lone runs."""

    def test_dop853_tableau_matches_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        a, c = sim_mod._DOP853_A, sim_mod._DOP853_C
        np.testing.assert_array_equal(a, ref.A)
        np.testing.assert_array_equal(c, ref.C)
        np.testing.assert_array_equal(sim_mod._DOP853_E3, ref.E3)
        np.testing.assert_array_equal(sim_mod._DOP853_E5, ref.E5)
        np.testing.assert_array_equal(sim_mod._DOP853_D, ref.D)
        # the lone loop's copies: a leading column for the state, and the
        # two error estimators over stages 0-12 only
        np.testing.assert_array_equal(sim_mod._LONE_A[:, 0], 0.0)
        np.testing.assert_array_equal(sim_mod._LONE_A[:, 1:], ref.A)
        np.testing.assert_array_equal(sim_mod._LONE_E[:, 1:14], [ref.E5, ref.E3])
        np.testing.assert_array_equal(sim_mod._LONE_E[:, [0, 14, 15, 16]], 0.0)
        # consistency: each stage's weights sum to its node, the solution's to 1
        np.testing.assert_allclose(a.sum(axis=1), c, rtol=0.0, atol=4e-15)
        assert a[sim_mod._N_STAGES].sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)

    def test_unsampled_trajectory_matches_scipy_dop853_over_100_periods(self):
        re = _equal_mass_elliptic()
        state = _kicked_bound_state(re)
        span = (0.0, 100.0 * re.period)
        ours = sim_mod.solve_ivp(_rhs(re.params), span, state.as_array(), rtol=1e-9, atol=1e-11)
        ref = scipy_solve_ivp(_rhs(re.params), span, state.as_array(), method="DOP853",
                              rtol=1e-9, atol=1e-11)
        assert ours.status == ref.status == 0
        # the same controller takes the same number of steps; their sizes
        # differ in the last digits of a cancelling error estimate, so the
        # states are compared where both land, at the end of the span
        assert ours.t.size == ref.t.size
        assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev
        assert ours.t[-1] == ref.t[-1] == span[1]
        np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=0.0, atol=1e-9)

    def test_unsampled_run_needs_under_40_percent_of_rk45_field_calls(self):
        # AC-10's stable point, one kicked trial over 20 periods, as perturb runs it
        re = _equal_mass_elliptic()
        start = _kicked_starts(re, 1)[:, 0]
        events = (sim_mod._collision_event, _escape_event(re))
        span = (0.0, 20.0 * re.period)
        ours = sim_mod.solve_ivp(_rhs(re.params), span, start, rtol=1e-10, atol=1e-12,
                                 events=events)
        ref = scipy_solve_ivp(_rhs(re.params), span, start, method="RK45", rtol=1e-10,
                              atol=1e-12, events=events)
        assert ours.status == ref.status == 0
        assert ours.nfev < 0.4 * ref.nfev

    def test_sampled_trajectory_matches_tight_scipy_dop853_over_100_periods(self):
        # no scipy method lands its steps on the samples, so the reference
        # is scipy's DOP853 at a far tighter tolerance on the same grid
        re = _equal_mass_elliptic()
        state = _kicked_bound_state(re)
        cfg = IntegratorConfig(
            t_end=100.0 * re.period, rel_tol=1e-9, abs_tol=1e-11, sample_dt=re.period / 8
        )
        rec = integrate(state, re.params, cfg)
        ref = scipy_solve_ivp(
            _rhs(re.params), (0.0, cfg.t_end), state.as_array(), method="DOP853",
            rtol=1e-13, atol=1e-15, t_eval=cfg.sample_times(),
        )
        assert ref.status == 0
        np.testing.assert_array_equal(rec.t, ref.t)
        np.testing.assert_allclose(rec.states, ref.y.T, rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("u, c", [(0.4, 1.0), (0.3, 3.0)])
    def test_sampled_loop_steps_like_the_batch(self, u, c):
        # with t_eval = [0, T] only the last step is clipped, so the lone
        # loop, whose stage matrix rounds differently, must take the batch's
        # steps; stable points only, where rounding is not amplified. The
        # error estimate cancels to about 1e-10 of its terms, so an ulp in
        # a stage moves it by about 1e-6 and the next step by 1/8 of that
        d1 = math.atanh(u)
        params = Params(c, 1.0)
        re = build_relative_equilibrium(Family.ELLIPTIC, d1, partner_distance(d1, params), params)
        start = _kicked_starts(re, 1)[:, 0]
        span = (0.0, 10.0 * re.period)
        lone = sim_mod.solve_ivp(_rhs(params), span, start, rtol=1e-10, atol=1e-12,
                                 t_eval=list(span))
        batch = sim_mod.solve_ivp(_rhs(params), span, start, rtol=1e-10, atol=1e-12)
        assert lone.status == batch.status == 0
        assert (lone.accepted, lone.rejected, lone.nfev) == (
            batch.accepted, batch.rejected, batch.nfev)
        assert lone.h_min == pytest.approx(batch.h_min, rel=1e-5, abs=0.0)
        assert lone.h_max == pytest.approx(batch.h_max, rel=1e-5, abs=0.0)
        np.testing.assert_array_equal(lone.t, span)
        np.testing.assert_allclose(lone.y[:, -1], batch.y[:, -1], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("u, periods", [(0.4, 3.0), (0.8, 20.0)])
    def test_batch_rows_match_lone_runs(self, u, periods):
        # stable rows run the whole span; unstable ones retire at escape
        re = _equal_mass_elliptic(u=u)
        starts = _kicked_starts(re, 5)
        events = (sim_mod._collision_event, _escape_event(re))
        span = (0.0, periods * re.period)
        batch = sim_mod.solve_ivp(_rhs(re.params), span, starts, rtol=1e-10, atol=1e-12,
                                  events=events)
        for i in range(starts.shape[1]):
            one = sim_mod.solve_ivp(_rhs(re.params), span, starts[:, i], rtol=1e-10,
                                    atol=1e-12, events=events)
            assert batch.status[i] == one.status == (1 if u > 0.5 else 0)
            assert (batch.accepted[i], batch.rejected[i]) == (one.accepted, one.rejected)
            assert (batch.dense[i], batch.h_min[i], batch.h_max[i]) == (
                one.dense, one.h_min, one.h_max)
            np.testing.assert_array_equal(batch.t[i], one.t)
            np.testing.assert_array_equal(batch.y[i], one.y)
            assert len(batch.t_events[i]) == len(one.t_events)
            for mine, lone in zip(batch.t_events[i], one.t_events):
                np.testing.assert_array_equal(mine, lone)

    def test_trials_do_not_depend_on_n_trials(self):
        re = _equal_mass_elliptic(u=0.8)
        few, many = (
            perturb_and_measure(PerturbationExperiment(
                re, scale=1e-4, n_trials=n, horizon=re.period, seed=4242))
            for n in (2, 5)
        )
        assert few["trials"] == many["trials"][:2]

    def test_escape_times_match_scipy(self):
        re = _equal_mass_elliptic(u=0.8)
        escape = _escape_event(re)
        starts = _kicked_starts(re, 3)
        span = (0.0, 2.0 * re.period)
        batch = sim_mod.solve_ivp(_rhs(re.params), span, starts, rtol=1e-10, atol=1e-12,
                                  events=escape)
        for i in range(starts.shape[1]):
            ref = scipy_solve_ivp(_rhs(re.params), span, starts[:, i], method="DOP853",
                                  rtol=1e-10, atol=1e-12, events=escape)
            assert ref.status == batch.status[i] == 1
            assert batch.t_events[i][0][0] == pytest.approx(ref.t_events[0][0], rel=0.0, abs=1e-9)
            assert batch.t[i][-1] == batch.t_events[i][0][0]

    def test_collision_time_matches_scipy(self):
        # radial infall from rest, stopped at the collision cutoff
        params = Params(1.0, 1.0)
        state = phase_state(0.0, 1.0, 0.0, 1.2, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(CollisionDuringIntegration) as err:
            integrate(state, params, IntegratorConfig(t_end=5.0))
        ref = scipy_solve_ivp(_rhs(params), (0.0, 5.0), state.as_array(), method="RK45",
                              rtol=1e-10, atol=1e-12, events=sim_mod._collision_event)
        assert ref.status == 1
        assert err.value.record.t[-1] == pytest.approx(ref.t_events[0][0], rel=0.0, abs=1e-9)

    def test_step_underflow_like_scipy(self):
        # y' = y^2, y(0) = 1 blows up at t = 1; both engines give up within
        # about 1e-11 of it (DOP853 steps just past it)
        def blow_up(t, y):
            return y * y

        ours = sim_mod.solve_ivp(blow_up, (0.0, 2.0), np.array([1.0]), rtol=1e-10, atol=1e-12)
        ref = scipy_solve_ivp(blow_up, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10,
                              atol=1e-12)
        assert ours.status == ref.status == -1
        assert "underflow" in ours.message
        assert ours.t[-1] == pytest.approx(ref.t[-1], rel=0.0, abs=1e-12)
        assert ours.t[-1] - 1.0 == pytest.approx(8.2e-12, rel=0.05, abs=0.0)
        assert ours.nfev == ref.nfev

    @pytest.mark.parametrize("t_eval", [None, [0.0, 1.0]], ids=["batch", "sampled"])
    def test_nan_step_is_named(self, t_eval):
        # the field overflows the error scale, so the starting step is NaN
        def huge(t, y):
            return np.full_like(y, 1e300)

        sol = sim_mod.solve_ivp(huge, (0.0, 1.0), np.array([1.0]), rtol=1e-10, atol=1e-12,
                                t_eval=t_eval)
        assert sol.status == -1
        assert sol.message == (
            "step size underflow at t = 0.0: "
            "the step size is not a number (the field overflows the error scale)")

    def test_rejects_bad_input(self):
        rhs = _rhs(Params(1.0, 1.0))
        z = initial_state(_equal_mass_elliptic()).as_array()
        bad = z.copy()
        bad[0] = math.nan
        for kwargs in (
            dict(y0=bad),
            dict(y0=z, rtol=1e-16),
            dict(y0=z, t_span=(0.0, math.inf)),
            dict(y0=np.column_stack([z, z]), t_eval=[0.0, 1.0]),
        ):
            args = {"t_span": (0.0, 1.0), "rtol": 1e-10, "atol": 1e-12, **kwargs}
            with pytest.raises(ValueError):
                sim_mod.solve_ivp(rhs, args.pop("t_span"), args.pop("y0"), **args)


class TestCounters:
    """nfev counts the calls of the field; steps and interpolants are
    counted per trajectory."""

    @staticmethod
    def _count_field_calls(monkeypatch):
        calls = []

        def counted(z, m1, m2, k):
            calls.append(1)
            return _field_array(z, m1, m2, k)

        monkeypatch.setattr(sim_mod, "_field_array", counted)
        return calls

    def test_integrate_stats(self, monkeypatch):
        calls = self._count_field_calls(monkeypatch)
        re = _equal_mass_elliptic()
        rec = integrate(initial_state(re), re.params, IntegratorConfig(t_end=re.period))
        stats = rec.stats
        assert set(stats) == {"nfev", "accepted", "rejected", "dense", "h_min", "h_max"}
        assert stats["nfev"] == len(calls)
        # DOP853: two calls choose the first step, then twelve per attempted
        # step and three per interpolant, which only an event builds
        assert stats["nfev"] == 2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["dense"]
        assert stats["dense"] == 0
        # the accepted steps tile [0, t_end], so their mean lies between the bounds
        assert 0.0 < stats["h_min"] <= re.period / stats["accepted"] <= stats["h_max"]

    def test_lone_run_stats(self, monkeypatch):
        calls = self._count_field_calls(monkeypatch)
        re = _equal_mass_elliptic(u=0.8)
        start = _kicked_starts(re, 1)[:, 0]
        sol = sim_mod.solve_ivp(
            lambda t, z: sim_mod._field_array(z, 1.0, 1.0, 1.0), (0.0, 2.0 * re.period), start,
            rtol=1e-10, atol=1e-12, events=(sim_mod._collision_event, _escape_event(re)),
        )
        assert sol.status == 1 and sol.dense == 1
        # DOP853: twelve calls per attempted step, three per interpolant
        assert sol.nfev == len(calls) == 2 + 12 * (sol.accepted + sol.rejected) + 3 * sol.dense

    def test_step_range_brackets_every_accepted_step(self):
        re = _equal_mass_elliptic()
        span = (0.0, 3.0 * re.period)
        starts = _kicked_starts(re, 3)
        lone = sim_mod.solve_ivp(_rhs(re.params), span, starts[:, 0], rtol=1e-10, atol=1e-12)
        batch = sim_mod.solve_ivp(_rhs(re.params), span, starts, rtol=1e-10, atol=1e-12)
        runs = [(lone.t, lone.h_min, lone.h_max)]
        runs += list(zip(batch.t, batch.h_min, batch.h_max))
        for t, h_min, h_max in runs:
            steps = np.diff(t)
            assert steps.min() == h_min and steps.max() == h_max
            assert np.all((h_min <= steps) & (steps <= h_max))

    def test_perturb_stats(self, monkeypatch):
        calls = self._count_field_calls(monkeypatch)
        re = _equal_mass_elliptic(u=0.8)
        report = perturb_and_measure(PerturbationExperiment(
            re, scale=1e-4, n_trials=4, horizon=re.period, seed=17))
        assert report["stats"]["nfev"] == len(calls)
        trials = report["trials"]
        assert all(t["escaped"] and t["stats"]["dense"] == 1 for t in trials)
        # the batch calls the field once per stage for all running rows, so
        # it makes as many attempts as its longest-running row; a row builds
        # its interpolant in its last attempt, one pass of three calls for
        # all rows that escape in the same attempt
        attempts = [t["stats"]["accepted"] + t["stats"]["rejected"] for t in trials]
        passes = len(set(attempts))
        assert report["stats"]["nfev"] == 2 + 12 * max(attempts) + 3 * passes
        assert min(t["stats"]["accepted"] for t in trials) > 0
