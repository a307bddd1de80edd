"""Integration, conservation accounting, CSV round trips, perturbations."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from conftest import random_config_state

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
    perturb_and_measure,
    phase_state,
    read_trajectory_csv,
    record_from_states,
    write_trajectory_csv,
)
from h2body.dynamics import _field_array
from h2body.geom import separation
from h2body.stability import threshold


def _equal_mass_elliptic(u=0.4, k=1.0, sign=1):
    d1 = math.atanh(u)
    return build_relative_equilibrium(Family.ELLIPTIC, d1, Params(1.0, 1.0, k), sign=sign)


def _unstable_kicked_start():
    """An unstable equilibrium (tanh d1 = 0.8, equal masses) kicked by 1e-4
    times a standard normal, numpy seed 0, with its params."""
    re = _equal_mass_elliptic(u=0.8)
    kick = 1e-4 * np.random.default_rng(0).standard_normal(8)
    return PhaseState.from_array(initial_state(re).as_array() + kick), re.params


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
        re = build_relative_equilibrium(family, 0.4, params, sign=sign)
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
        # in the chart 256 samples a period is finer than the controller's
        # step, so each step is one sample: twelve field calls a sample, no
        # interpolant (a kicked start is not at rest in a rotating frame)
        re = _equal_mass_elliptic()
        cfg = IntegratorConfig(t_end=re.period)
        rec = integrate(_kicked_bound_state(re), re.params, cfg)
        assert rec.stats["frame_xi"] is None
        np.testing.assert_array_equal(rec.t, cfg.sample_times())
        assert rec.stats["nfev"] == 2 + 12 * 256
        assert (rec.stats["accepted"], rec.stats["rejected"], rec.stats["dense"]) == (256, 0, 0)
        assert max(conservation_report(rec).values()) < 1e-13

    def test_frame_steps_run_free_of_the_grid(self):
        # at rest in the rotating frame the steps span many samples, which
        # are read off each step's interpolant at three more field calls
        re = _equal_mass_elliptic()
        cfg = IntegratorConfig(t_end=re.period)
        rec = integrate(initial_state(re), re.params, cfg)
        assert rec.stats["frame_xi"] == pytest.approx(
            [re.xi.E, re.xi.H, re.xi.P], rel=1e-14, abs=1e-15)
        assert rec.stats["left_frame_at"] is None
        np.testing.assert_array_equal(rec.t, cfg.sample_times())
        assert rec.states[0].tobytes() == initial_state(re).as_array().tobytes()
        assert rec.stats["nfev"] <= (2 + 12 * 256) / 10
        assert rec.stats["dense"] == rec.stats["accepted"]
        assert max(conservation_report(rec).values()) < 1e-13
        assert sim_mod._max_chart_deviation(re, rec.t, rec.states) < 1e-12

    def test_hyperbolic_family_tracked_too(self):
        params = Params(1.0, 1.0)
        re = build_relative_equilibrium(Family.HYPERBOLIC, 0.5, params)
        dev = compare_analytic(re, IntegratorConfig(t_end=2.0))
        assert dev < 1e-6


class TestSampledFrame:
    """integrate runs a start nearly at rest in the frame of its locked
    velocity there, reading its samples off the interpolant, and goes back
    to the chart once a step ends far from rest."""

    @pytest.mark.parametrize("c, drift_j", [(0.5, 4.1e-11), (2.0, 1.7e-10)])
    def test_long_stable_orbit(self, c, drift_j):
        # the settings of the orbit_long benchmark without its jitter: 100
        # periods at 50 samples a period, tanh d1 at 0.6 of the threshold;
        # landing in the chart took 60,014 field calls at c = 0.5 and gave
        # |dJ| 4.1e-11 and 1.7e-10
        d1 = math.atanh(0.6 * threshold(c).u0)
        re = build_relative_equilibrium(Family.ELLIPTIC, d1, Params(c, 1.0, 1.0))
        cfg = IntegratorConfig(t_end=100.0 * re.period, sample_dt=re.period / 50.0)
        rec = integrate(initial_state(re), re.params, cfg)
        assert rec.stats["left_frame_at"] is None
        assert rec.t.size == 5001
        assert rec.stats["nfev"] <= 6001
        assert sim_mod._max_chart_deviation(re, rec.t, rec.states) <= 1e-8
        drift = conservation_report(rec)
        assert drift["energy"] <= 1e-12
        assert max(drift["Jh"], drift["Je"], drift["Jp"]) <= drift_j

    def test_start_that_wanders_off_leaves_the_frame(self):
        # an unstable equilibrium's kick grows until the rotating frame no
        # longer pays; the rest of the run lands in the chart, as a chart
        # run from that start would (5.25e-10 drift there)
        state, params = _unstable_kicked_start()
        period = _equal_mass_elliptic(u=0.8).period
        cfg = IntegratorConfig(t_end=20.0 * period)
        rec = integrate(state, params, cfg)
        assert rec.completed
        np.testing.assert_array_equal(rec.t, cfg.sample_times())
        assert 0.0 < rec.stats["left_frame_at"] < period
        assert max(conservation_report(rec).values()) < 1e-9

    def test_event_in_the_frame_is_located_and_carried_back(self):
        # the separation leaves a band of 3e-4 about its start at t = 2.05,
        # before the run leaves the frame; against a chart run at rel_tol
        # 1e-13 (measured: 3e-8 in time, 4e-9 in the state, 1e-11 sampled)
        state, _ = _unstable_kicked_start()
        z0 = state.as_array()
        d0 = float(separation(*z0[:4]))

        def band(t, z):
            return abs(separation(z[0], z[1], z[2], z[3]) - d0) - 3e-4

        def rhs(t, z):
            return sim_mod._field_array(z, 1.0, 1.0, 1.0)

        def run(frame, rtol, atol):
            rhs.frame = frame
            return sim_mod.solve_ivp(rhs, (0.0, 20.0), z0, rtol=rtol, atol=atol,
                                     t_eval=np.linspace(0.0, 20.0, 201), events=band)

        ref = run(None, 1e-13, 1e-15)
        sol = run(sim_mod._locked_velocity(state, Params(1.0, 1.0)), 1e-10, 1e-12)
        assert sol.frame_xi is not None and sol.left_frame_at is None
        assert sol.status == ref.status == 1
        assert abs(sol.t_events[0][0] - ref.t_events[0][0]) < 1e-7
        assert np.max(np.abs(sol.y_events[0] - ref.y_events[0])) < 1e-8
        np.testing.assert_array_equal(sol.t, ref.t)
        assert np.max(np.abs(sol.y - ref.y)) < 1e-10

    def test_generic_starts_stay_in_the_chart(self):
        # the first 53 draws of AC-01, which hold its 20 accepted ones, and
        # README's simulate example are far from rest in any frame
        rng = np.random.default_rng(20260816)
        starts = [random_config_state(rng, min_sep=0.7) for _ in range(53)]
        starts.append((phase_state(0.4, 0.9, -0.5, 0.8, 0.0, 0.3, 0.0, -0.3), Params(1.0, 1.0)))
        cfg = IntegratorConfig(t_end=1e-3, sample_dt=1e-3)
        for state, params in starts:
            assert integrate(state, params, cfg).stats["frame_xi"] is None

    @pytest.mark.parametrize("z", [
        (0.4, 1e-300, -0.5, 0.8, 0.0, 0.3, 0.0, -0.3),
        (0.4, 0.9, -0.5, 0.8, 1e200, 0.3, 0.0, -0.3),
        (0.4, 1e300, -0.5, 0.8, 0.0, 0.3, 0.0, -0.3),
    ])
    def test_frame_choice_never_raises(self, z):
        assert sim_mod._locked_velocity(phase_state(*z), Params(1.0, 1.0)) is None

    def test_unresolved_frame_runs_as_the_chart(self, monkeypatch):
        # a body at y = 1e-300 has no finite locked inertia; the run is the
        # chart's bit for bit
        state = phase_state(0.4, 1e-300, -0.5, 0.8, 0.0, 0.3, 0.0, -0.3)
        cfg = IntegratorConfig(t_end=20.0, sample_dt=0.1)
        rec = integrate(state, Params(1.0, 1.0), cfg)
        monkeypatch.setattr(sim_mod, "_locked_velocity", lambda state, params: None)
        chart = integrate(state, Params(1.0, 1.0), cfg)
        assert rec.states.tobytes() == chart.states.tobytes()
        assert rec.stats == chart.stats


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
        re = build_relative_equilibrium(Family.ELLIPTIC, d1, params)
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
        rec = integrate(_kicked_bound_state(re), re.params, IntegratorConfig(t_end=re.period))
        stats = rec.stats
        assert set(stats) == {"nfev", "accepted", "rejected", "dense", "h_min", "h_max",
                              "frame_xi", "left_frame_at"}
        assert stats["frame_xi"] is None and stats["left_frame_at"] is None
        assert stats["nfev"] == len(calls)
        # DOP853: two calls choose the first step, then twelve per attempted
        # step and three per interpolant, which only an event builds
        assert stats["nfev"] == 2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["dense"]
        assert stats["dense"] == 0
        # the accepted steps tile [0, t_end], so their mean lies between the bounds
        assert 0.0 < stats["h_min"] <= re.period / stats["accepted"] <= stats["h_max"]

    def test_integrate_stats_in_the_frame(self, monkeypatch):
        calls = self._count_field_calls(monkeypatch)
        re = _equal_mass_elliptic()
        rec = integrate(initial_state(re), re.params, IntegratorConfig(t_end=3.0 * re.period))
        stats = rec.stats
        assert stats["frame_xi"] is not None and stats["left_frame_at"] is None
        # each stage calls the field once, and so does each of the three
        # stages of an interpolant, built for every step that holds samples
        assert stats["nfev"] == len(calls)
        assert stats["nfev"] == 2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["dense"]
        assert 0 < stats["dense"] <= stats["accepted"]
        assert 0.0 < stats["h_min"] <= 3.0 * re.period / stats["accepted"] <= stats["h_max"]

    def test_integrate_stats_across_a_frame_exit(self, monkeypatch):
        # the exit test reads the step's last stage, and the chart run that
        # follows chooses its first step afresh, at two more calls
        calls = self._count_field_calls(monkeypatch)
        rec = integrate(*_unstable_kicked_start(), IntegratorConfig(t_end=8.0))
        stats = rec.stats
        assert stats["frame_xi"] is not None and 0.0 < stats["left_frame_at"] < 8.0
        assert stats["nfev"] == len(calls)
        assert stats["nfev"] == (
            2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["dense"] + 2)

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


# AC-10's seed
_AC10_SEED = 20260816


def _drawn_starts(re, n, seed, scale=1e-4):
    """The starts perturb_and_measure draws for n trials from seed, as columns."""
    rng = Xoshiro256StarStar(seed)
    z0 = initial_state(re).as_array()
    return np.array([sim_mod._draw_perturbed(rng, z0, scale)[0] for _ in range(n)]).T


def _fixed_frame_batch(re, starts, horizon, rtol, atol):
    """perturb's batch and events, integrated in the chart."""
    return sim_mod.solve_ivp(_rhs(re.params), (0.0, horizon), starts, rtol=rtol, atol=atol,
                             events=(sim_mod._collision_event, _escape_event(re)))


def _record_rebuilds(monkeypatch):
    """The chart states perturb_and_measure rebuilds, one (8, m) array per trial."""
    rebuilt = []
    act = sim_mod._act_phase

    def recorded(*args):
        out = np.array(act(*args))
        rebuilt.append(out)
        return out

    monkeypatch.setattr(sim_mod, "_act_phase", recorded)
    return rebuilt


class TestMovingFrame:
    """perturb runs an elliptic equilibrium's trials in the frame that
    rotates with its generator, where the equilibrium is at rest, and
    carries each accepted state back to the chart; a hyperbolic one stays
    in the chart."""

    def test_rebuilt_start_is_the_drawn_start(self, monkeypatch):
        rebuilt = _record_rebuilds(monkeypatch)
        re = _equal_mass_elliptic(u=0.4)
        perturb_and_measure(PerturbationExperiment(re, 1e-4, 3, re.period, 11))
        starts = _drawn_starts(re, 3, 11)
        assert len(rebuilt) == 3
        for i, states in enumerate(rebuilt):
            assert states[:, 0].tobytes() == starts[:, i].tobytes()

    def test_stable_point_takes_a_third_of_the_fixed_frame_field_calls(self):
        # AC-10's stable point over 20 periods: in the chart its 50 trials
        # took 9,170 field calls, and these 10 took 9,158
        re = _equal_mass_elliptic(u=0.4)
        report = perturb_and_measure(
            PerturbationExperiment(re, 1e-4, 10, 20.0 * re.period, _AC10_SEED))
        assert report["stats"]["frame_xi"] == [re.xi.E, re.xi.H, re.xi.P]
        assert report["stats"]["nfev"] <= 9170 / 3
        assert report["n_bounded"] == 10

    @pytest.mark.parametrize("u, nfev, n_escaped", [(0.4, 2066, 0), (0.8, 527, 50)])
    def test_ac10_batch_work_and_verdicts(self, u, nfev, n_escaped):
        # pinned so that a rounding change in the frame's right-hand side
        # that moves the step counts shows
        re = _equal_mass_elliptic(u=u)
        report = perturb_and_measure(
            PerturbationExperiment(re, 1e-4, 50, 20.0 * re.period, _AC10_SEED))
        assert report["stats"]["nfev"] == nfev
        assert (report["n_escaped"], report["n_bounded"]) == (n_escaped, 50 - n_escaped)

    def test_hyperbolic_family_stays_in_the_chart(self):
        # a boosting frame loses there: trials that wander off the
        # equilibrium are dominated by the frame's own dilation
        re = build_relative_equilibrium(Family.HYPERBOLIC, 0.5, Params(1.0, 1.0))
        horizon = 10.0 / abs(re.omega)
        report = perturb_and_measure(PerturbationExperiment(re, 1e-4, 3, horizon, 7))
        assert report["stats"] == {"nfev": 392, "frame_xi": None}
        ref = _fixed_frame_batch(re, _drawn_starts(re, 3, 7), horizon, 1e-10, 1e-12)
        assert [t["escape_time"] for t in report["trials"]] == [
            float(te[1][0]) for te in ref.t_events]

    def test_escape_times_no_worse_than_the_fixed_frame(self):
        # against a fixed-frame run at rel_tol 1e-13, abs_tol 1e-15 from the
        # same starts; the period is 41.6 and every trial escapes in it
        re = _equal_mass_elliptic(u=0.8)
        horizon = 20.0 * re.period
        starts = _drawn_starts(re, 20, _AC10_SEED)
        ref = _fixed_frame_batch(re, starts, horizon, 1e-13, 1e-15)
        fixed = _fixed_frame_batch(re, starts, horizon, 1e-10, 1e-12)
        report = perturb_and_measure(PerturbationExperiment(re, 1e-4, 20, horizon, _AC10_SEED))
        assert report["n_escaped"] == 20
        assert all(len(te[1]) == 1 for te in ref.t_events + fixed.t_events)
        t_ref = np.array([te[1][0] for te in ref.t_events])
        t_fixed = np.array([te[1][0] for te in fixed.t_events])
        t_moving = np.array([t["escape_time"] for t in report["trials"]])
        assert np.max(np.abs(t_moving - t_ref)) <= np.max(np.abs(t_fixed - t_ref))

    def test_stable_trials_match_a_tight_fixed_frame_run(self, monkeypatch):
        # the samples are the accepted steps, about 4 times fewer than in
        # the chart, so the largest separation change is sampled less
        # finely; the end states, where every run lands, show the rebuild
        rebuilt = _record_rebuilds(monkeypatch)
        re = _equal_mass_elliptic(u=0.4)
        horizon = 20.0 * re.period
        starts = _drawn_starts(re, 10, _AC10_SEED)
        ref = _fixed_frame_batch(re, starts, horizon, 1e-13, 1e-15)
        fixed = _fixed_frame_batch(re, starts, horizon, 1e-10, 1e-12)
        report = perturb_and_measure(PerturbationExperiment(re, 1e-4, 10, horizon, _AC10_SEED))
        assert ref.status == fixed.status == [0] * 10
        r0 = float(re.distance)
        for trial, y_ref in zip(report["trials"], ref.y):
            dev_ref = float(np.max(np.abs(separation(*y_ref[:4]) - r0)))
            assert trial["max_distance_deviation"] == pytest.approx(dev_ref, rel=1e-2, abs=0.0)
        end_ref = np.array([y[:, -1] for y in ref.y])
        moving_error = np.max(np.abs(np.array([s[:, -1] for s in rebuilt]) - end_ref))
        fixed_error = np.max(np.abs(np.array([y[:, -1] for y in fixed.y]) - end_ref))
        assert moving_error <= fixed_error
