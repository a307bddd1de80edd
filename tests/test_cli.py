"""Command-line surface: subcommands, scenario validation, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h2body
from h2body import (
    Family,
    Params,
    analytic_trajectory,
    build_relative_equilibrium,
    initial_state,
    read_trajectory_csv,
)
from h2body.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# the start of README's simulate example
README_START = {"x1": 0.4, "y1": 0.9, "x2": -0.5, "y2": 0.8,
                "px1": 0.0, "py1": 0.3, "px2": 0.0, "py2": -0.3}


def simulate_scenario(tmp_path, **overrides):
    re = build_relative_equilibrium(Family.ELLIPTIC, 0.5, Params(1.0, 1.0, 1.0))
    z = initial_state(re).as_array()
    doc = {
        "mode": "simulate",
        "params": {"m1": 1.0, "m2": 1.0, "k": 1.0},
        "initial_state": dict(
            zip(("x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2"), map(float, z))
        ),
        "integrator": {"t_end": re.period, "sample_dt": re.period / 64.0},
    }
    doc.update(overrides)
    return write_json(tmp_path / "scenario.json", doc), re


class TestEquilibriumCommand:
    def test_equal_mass_elliptic(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "elliptic", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "elliptic"
        assert doc["omega2"] == pytest.approx(1.2322343865586145, rel=1e-12)
        assert doc["period"] == pytest.approx(
            2.0 * math.pi / math.sqrt(doc["omega2"]), rel=1e-12
        )
        assert doc["d2"] == pytest.approx(0.5, rel=1e-12)
        assert doc["intrinsic"]["ok"] is True
        assert doc["stability"]["verdict"] in ("stable", "unstable", "degenerate")
        assert doc["momentum"]["h"] == pytest.approx(0.0, abs=1e-12)

    def test_seventeen_digit_round_trip(self, capsys):
        # the JSON floats must reproduce the in-process doubles exactly
        code, out, _ = run(capsys, "equilibrium", "elliptic", "0.5", "--m1", "2.5")
        assert code == 0
        doc = json.loads(out)
        params = Params(2.5, 1.0, 1.0)
        re = build_relative_equilibrium(Family.ELLIPTIC, 0.5, params)
        assert doc["omega"] == re.omega
        assert doc["d2"] == re.d2
        # the canonical angles are output only, computed as they always were
        assert doc["theta1"] == math.atan2(1.0 / math.cosh(re.d1), math.tanh(re.d1))
        assert doc["theta2"] == math.atan2(1.0 / math.cosh(re.d2), math.tanh(re.d2))
        assert (doc["theta1"], doc["theta2"]) == (1.0904152476611673, 0.7727827827876905)

    def test_small_distance_builds(self, capsys):
        # the rate cross-check holds at d1 = 1e-7 (no atan2 round trip)
        code, out, err = run(capsys, "equilibrium", "hyperbolic", "1e-7")
        assert code == 0, err
        assert json.loads(out)["d1"] == 1e-7

    def test_distance_inside_collision_cutoff_exits_2(self, capsys):
        # d = 2e-9 is inside the collision cutoff: a typed refusal
        code, out, err = run(capsys, "equilibrium", "elliptic", "1e-9")
        assert code == 2
        assert out == ""
        assert err == "error: separation 2.000e-09 is inside the collision cutoff\n"

    @pytest.mark.parametrize(
        "argv, separation",
        [
            (("equilibrium", "elliptic", "1e-104"), "2.000e-104"),
            (("equilibrium", "elliptic", "1e-150"), "2.000e-150"),
            # the separation itself underflows
            (("stability", "1e-300"), "0.000e+00"),
        ],
    )
    def test_tiny_distances_stop_at_the_collision_cutoff(self, capsys, argv, separation):
        # the cutoff is checked before the rate formulas, whose sinh(d)^2
        # underflows to 0 at these distances
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: separation {separation} is inside the collision cutoff\n"

    @pytest.mark.parametrize("m1", ["1e-150", "1e-200"])
    def test_extreme_mass_ratio_hyperbolic(self, capsys, m1):
        # (tanh d1 tanh d2)^2 underflows below m1 ~ 1e-154; the rigid block
        # must stay finite and positive definite on both sides
        code, out, err = run(capsys, "equilibrium", "hyperbolic", "0.5", "--m1", m1)
        assert code == 0, err
        report = json.loads(out)["stability"]
        (a, b), (_, d) = report["rig_block"]
        assert a > 0.0 and d > 0.0 and math.isfinite(d)
        assert b == -a
        assert report["rig_definite"] is True
        assert report["verdict"] == "unstable"

    @pytest.mark.parametrize(
        "argv",
        [
            ("equilibrium", "hyperbolic", "19", "--m1", "1e-300"),
            ("equilibrium", "hyperbolic", "19", "--m1", "1e-310"),
            ("stability", "19", "--m1", "1e-300"),
        ],
    )
    def test_tiny_mass_far_apart_passes_the_rate_cross_check(self, capsys, argv):
        # the canonical rate multiplies by m1 last, so no partial product
        # of it is subnormal
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["d1"] == 19.0 and doc["omega"] > 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("equilibrium", family, d1, "--k", k)
            for family in ("elliptic", "hyperbolic")
            for k in ("1e200", "1e300")
            for d1 in ("0.01", "0.5", "3")
            # the rigid block's hyperbolic corner is beyond binary64 there
            if (family, k, d1) != ("hyperbolic", "1e300", "0.01")
        ]
        + [
            ("stability", "0.5", "--k", "1e300"),
            ("equilibrium", "elliptic", "0.5", "--m1", "1e150", "--m2", "1e150"),
        ],
        ids="_".join,
    )
    def test_huge_force_passes_the_criticality_check(self, capsys, argv):
        # gradient components past about 1e154 would overflow a norm that
        # squares them
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["omega"] > 0.0

    @pytest.mark.parametrize("d1, k", [("0.5", "1e-290"), ("0.01", "1e-307"), ("3", "1.94e-297")])
    def test_tiny_coupling_passes_the_internal_oracle(self, capsys, d1, k):
        # a complex step taken at coupling k would leave subnormal terms in
        # the imaginary part; the oracle steps at coupling 1
        code, out, err = run(capsys, "stability", d1, "--k", k)
        assert code == 0, err
        assert json.loads(out)["omega"] > 0.0

    def test_hyperbolic_has_no_period(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "hyperbolic", "0.7", "--m2", "1.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["period"] is None
        assert doc["generator"]["E"] == 0.0
        assert doc["generator"]["H"] != 0.0
        assert doc["intrinsic"]["expected_orientation"] == "equal"

    def test_sign_flag(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "elliptic", "0.5", "--sign", "-1")
        assert code == 0
        assert json.loads(out)["omega"] < 0.0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "re.json"
        code, out, _ = run(
            capsys, "equilibrium", "elliptic", "0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["family"] == "elliptic"

    def test_invalid_distance_exits_2(self, capsys):
        code, _, err = run(capsys, "equilibrium", "elliptic", "-0.5")
        assert code == 2
        assert "error" in err

    def test_largest_supported_distance(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "hyperbolic", "18")
        assert code == 0
        assert json.loads(out)["d1"] == 18.0

    @pytest.mark.parametrize(
        "family, d1",
        [("elliptic", d) for d in ("5", "6", "8", "12", "16", "18", "19")]
        + [("hyperbolic", "19")],
    )
    def test_far_apart_bodies_pass_the_intrinsic_checks(self, capsys, family, d1):
        # nearly vertical chords and centers of mass far along the geodesic
        code, out, err = run(capsys, "equilibrium", family, d1)
        assert code == 0, err
        assert json.loads(out)["intrinsic"]["ok"] is True

    def test_unknown_family_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["equilibrium", "parabolic", "0.5"])
        assert exc.value.code == 2


class TestStabilityCommand:
    def test_oracles_agree_on_stable_point(self, capsys):
        code, out, _ = run(capsys, "stability", "0.4")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracles_agree"] is True
        assert doc["rig_block_max_error"] < 1e-9 * max(
            1.0, max(abs(v) for row in doc["rig_block_closed"] for v in row)
        )
        assert doc["internal_rel_error"] < 1e-5
        assert doc["report"]["verdict"] == "stable"
        assert doc["intrinsic_bound_stable"] is True
        assert doc["threshold_d1"] == pytest.approx(
            math.atanh(1.0 / math.sqrt(3.0)), abs=1e-12
        )
        assert doc["membership"]["complement_norm"] < 1e-7

    def test_unstable_point(self, capsys):
        code, out, _ = run(capsys, "stability", "1.2")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "unstable"
        assert doc["intrinsic_bound_stable"] is False
        assert doc["internal_closed"] < 0.0

    def test_mass_ratio_changes_threshold(self, capsys):
        code, out, _ = run(capsys, "stability", "0.4", "--m1", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["mass_ratio"] == pytest.approx(2.0)
        assert doc["threshold_d1"] < math.atanh(1.0 / math.sqrt(3.0))

    @pytest.mark.parametrize("d1", ["0.01", "6.5", "8", "12"])
    def test_oracles_agree_far_from_the_middle(self, capsys, d1):
        # the internal oracle differentiates the chart definitions exactly,
        # so no step leaves the chart or swamps a small block; far apart
        # the verdict is unstable, not degenerate
        code, out, err = run(capsys, "stability", d1)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["internal_rel_error"] < 1e-9
        assert doc["report"]["verdict"] == ("stable" if d1 == "0.01" else "unstable")

    def test_oracles_share_one_locked_inertia(self, capsys, monkeypatch):
        # the locked inertia is built once and the internal correction run
        # once per call: one evaluation for the matrix, one complex step of
        # it, one solve for the rig block and one for the correction
        import numpy as np

        import h2body.dynamics
        import h2body.stability

        counts = {"inertia": 0, "solve": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        inertia = counting("inertia", h2body.dynamics._locked_inertia)
        monkeypatch.setattr(h2body.dynamics, "_locked_inertia", inertia)
        monkeypatch.setattr(h2body.stability, "_locked_inertia", inertia)
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        code, _, err = run(capsys, "stability", "0.4")
        assert code == 0, err
        assert counts["inertia"] <= 2
        assert counts["solve"] <= 2


def _key_paths(doc, prefix=""):
    """Every key of a JSON document as a dotted path, in document order."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += _key_paths(value, prefix + key + ".")
    return paths


_REPORT_KEYS = [
    "family", "d1", "d2", "omega", "mass_ratio", "u", "v", "rig_block",
    "rig_definite", "internal_block", "signature", "verdict",
]


class TestOneLineDocuments:
    """JSON goes out on one line with the keys, and their order, it always had."""

    def _one_line(self, out):
        assert out.endswith("\n") and out.count("\n") == 1
        return json.loads(out)

    def test_equilibrium(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "elliptic", "0.5")
        assert code == 0
        expected = (
            ["family", "params", "params.m1", "params.m2", "params.k", "d1", "d2",
             "distance", "theta1", "theta2", "omega", "omega2", "period",
             "generator", "generator.E", "generator.H", "generator.P",
             "configuration"]
            + [f"configuration.{n}" for n in ("x1", "y1", "x2", "y2")]
            + ["initial_state"]
            + [f"initial_state.{n}" for n in ("x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2")]
            + ["momentum", "momentum.e", "momentum.h", "momentum.p", "intrinsic"]
            + [f"intrinsic.{n}" for n in (
                "family", "n_samples", "expected_orientation", "orientation",
                "orientation_consistent", "expected_speeds", "max_speed_error",
                "max_perp_residual", "max_com_error", "com_speed", "ok")]
            + ["stability"]
            + [f"stability.{n}" for n in _REPORT_KEYS]
        )
        assert _key_paths(self._one_line(out)) == expected

    def test_stability(self, capsys):
        code, out, _ = run(capsys, "stability", "0.5")
        assert code == 0
        expected = (
            ["d1", "d2", "mass_ratio", "omega", "u", "v", "rig_block_closed",
             "rig_block_oracle", "rig_block_max_error", "internal_closed",
             "internal_oracle", "internal_rel_error", "membership",
             "membership.coords", "membership.member_norm",
             "membership.complement_norm", "threshold_d1",
             "intrinsic_bound_stable", "oracles_agree", "report"]
            + [f"report.{n}" for n in _REPORT_KEYS]
        )
        assert _key_paths(self._one_line(out)) == expected

    def test_perturb(self, capsys, tmp_path):
        scenario = TestPerturbCommand._scenario(tmp_path)
        code, out, _ = run(capsys, "perturb", "--scenario", scenario)
        assert code == 0
        doc = self._one_line(out)
        expected = (
            ["protocol"]
            + [f"protocol.{n}" for n in (
                "family", "d1", "d2", "omega", "separation", "scale", "n_trials",
                "horizon", "seed", "escape_threshold", "stable_band", "rel_tol",
                "abs_tol")]
            + ["n_escaped", "n_bounded", "max_distance_deviation", "stats",
               "stats.nfev", "stats.frame_xi", "trials"]
        )
        assert _key_paths(doc) == expected
        assert list(doc["trials"][0]) == [
            "trial", "redraws", "escaped", "escape_time", "max_distance_deviation",
            "max_chart_deviation", "error", "stats",
        ]


class TestThresholdCurveCommand:
    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "threshold-curve", "0.5", "2.0", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "#schema=v1"
        assert lines[1] == "c,u0,d1"
        assert len(lines) == 7
        mid = [float(v) for v in lines[4].split(",")]
        assert mid[0] == pytest.approx(1.0, rel=1e-12)
        assert mid[1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert mid[2] == pytest.approx(math.atanh(mid[1]), rel=1e-12)

    def test_monotone_threshold(self, capsys):
        code, out, _ = run(capsys, "threshold-curve", "0.1", "10", "9")
        assert code == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.strip().splitlines()[2:]
        ]
        u0s = [r[1] for r in rows]
        assert all(a > b for a, b in zip(u0s, u0s[1:]))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "threshold-curve", "0.5", "2.0", "3", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("#schema=v1\n")

    def test_huge_mass_ratios(self, capsys):
        # the residual's 16 c^2 x^6 term is squared as (4 c x^3)^2, which
        # stays finite while the threshold itself is representable
        code, out, err = run(capsys, "threshold-curve", "1e150", "1e160", "3")
        assert code == 0, err
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[2:]]
        assert len(rows) == 3
        assert all(0.0 < u0 < 1e-49 for _, u0, _ in rows)

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "threshold-curve", "2.0", "0.5", "5")
        assert code == 2
        assert "c_min" in err

    @pytest.mark.parametrize("c_min, c_max", [("0.5", "inf"), ("nan", "3"), ("0.5", "nan"), ("-inf", "3")])
    def test_non_finite_range_exits_2(self, capsys, c_min, c_max):
        # an infinite c_max used to pass the range check and print inf,nan,nan
        # rows; "--" lets argparse take "-inf" as a number
        code, out, err = run(capsys, "threshold-curve", "--", c_min, c_max, "3")
        assert code == 2
        assert out == ""
        assert "c_min" in err


class TestSimulateCommand:
    def test_closed_orbit_run(self, capsys, tmp_path):
        scenario, re = simulate_scenario(tmp_path)
        outdir = tmp_path / "out"
        code, _, _ = run(
            capsys, "simulate", "--scenario", scenario, "--out", str(outdir)
        )
        assert code == 0
        rec = read_trajectory_csv(outdir / "trajectory.csv")
        report = json.loads((outdir / "conservation.json").read_text())
        assert report["completed"] is True
        assert report["error"] is None
        assert report["samples"] == rec.t.shape[0]
        assert max(report["drift"].values()) < 1e-7
        # the trajectory tracks the exact motion
        final = analytic_trajectory(re, float(rec.t[-1])).as_array()
        assert max(abs(a - b) for a, b in zip(rec.states[-1], final)) < 1e-6

    def test_run_that_leaves_its_frame_prints_nothing(self, capsys, tmp_path):
        # the unstable hyperbolic equilibrium at m1 = 100, d1 = 2 leaves its
        # frame and its chart coordinates grow to about 1e10; trial stages
        # on the way overflow the potential gradient, which the engine
        # rejects as steps, so no numpy warning reaches stderr
        re = build_relative_equilibrium(Family.HYPERBOLIC, 2.0, Params(100.0, 1.0, 1.0))
        start = dict(zip(("x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2"),
                         map(float, initial_state(re).as_array())))
        scenario, _ = simulate_scenario(
            tmp_path, params={"m1": 100.0, "m2": 1.0, "k": 1.0}, initial_state=start,
            integrator={"t_end": 5.0 / abs(re.omega)})
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))
        assert (code, out, err) == (0, "", "")
        stats = json.loads((outdir / "conservation.json").read_text())["stats"]
        assert stats["left_frame_at"] is not None

    def test_collision_scenario_exits_3(self, capsys, tmp_path):
        scenario, _ = simulate_scenario(
            tmp_path,
            initial_state={
                "x1": 0.0,
                "y1": 1.0,
                "x2": 0.0,
                "y2": 1.2,
                "px1": 0.0,
                "py1": 0.0,
                "px2": 0.0,
                "py2": 0.0,
            },
            integrator={"t_end": 5.0},
        )
        outdir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--scenario", scenario, "--out", str(outdir)
        )
        assert code == 3
        assert "collision" in err
        report = json.loads((outdir / "conservation.json").read_text())
        assert report["completed"] is False
        assert report["error"] == "collision"
        rec = read_trajectory_csv(outdir / "trajectory.csv")
        assert rec.distance[-1] == pytest.approx(1e-8, rel=1e-2, abs=0.0)

    def test_rel_tol_loosens_drift(self, capsys, tmp_path):
        # one sample a period, so that the tolerance bounds the step (on a
        # grid finer than the step both tolerances give the same steps)
        re = build_relative_equilibrium(Family.ELLIPTIC, 0.5, Params(1.0, 1.0, 1.0))
        grid = {"t_end": 10.0 * re.period, "sample_dt": re.period}
        drift = {}
        for name, tolerances in (("tight", {}), ("loose", {"rel_tol": 1e-5, "abs_tol": 1e-8})):
            scenario, _ = simulate_scenario(tmp_path, integrator={**grid, **tolerances})
            outdir = tmp_path / name
            assert run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))[0] == 0
            drift[name] = json.loads((outdir / "conservation.json").read_text())["drift"]
        assert drift["loose"]["energy"] > 10.0 * drift["tight"]["energy"]

    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("simulate", None, "extra_field"),
            # the integrator has no step cap
            ("simulate", "integrator", "max_step"),
            ("perturb", None, "extra_field"),
            # the escape threshold and the stable band are fixed
            ("perturb", "protocol", "escape_threshold"),
            ("perturb", "protocol", "stable_band"),
        ],
    )
    def test_unknown_field_exits_2(self, capsys, tmp_path, command, section, key):
        if command == "simulate":
            scenario, _ = simulate_scenario(tmp_path)
        else:
            scenario = TestPerturbCommand._scenario(tmp_path)
        doc = json.loads(Path(scenario).read_text())
        (doc[section] if section else doc)[key] = 0.1
        code, _, err = run(capsys, command, "--scenario", write_json(tmp_path / "unknown.json", doc))
        assert code == 2
        assert f"unknown field(s) [{key!r}]" in err

    def test_wrong_mode_exits_2(self, capsys, tmp_path):
        scenario, _ = simulate_scenario(tmp_path, mode="perturb")
        code, _, err = run(capsys, "simulate", "--scenario", scenario)
        assert code == 2
        assert "mode" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--scenario", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot read scenario" in err

    def test_conservation_report_carries_counters(self, capsys, tmp_path):
        # README's start, which is far from rest in any frame
        scenario, _ = simulate_scenario(tmp_path, initial_state=README_START)
        outdir = tmp_path / "out"
        assert run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))[0] == 0
        stats = json.loads((outdir / "conservation.json").read_text())["stats"]
        assert set(stats) == {"nfev", "accepted", "rejected", "dense", "h_min", "h_max",
                              "frame_xi", "left_frame_at"}
        assert stats["frame_xi"] is None and stats["left_frame_at"] is None
        # DOP853: two field calls choose the first step, then twelve per
        # attempted step and three per interpolant, which in the chart only
        # an event builds
        assert stats["nfev"] == 2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["dense"]
        assert stats["dense"] == 0
        assert 0.0 < stats["h_min"] <= stats["h_max"]

    def test_conservation_report_names_the_frame(self, capsys, tmp_path):
        # an equilibrium start runs in the frame of its generator, reading
        # its samples off an interpolant built in each step that holds any
        scenario, re = simulate_scenario(tmp_path)
        outdir = tmp_path / "out"
        assert run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))[0] == 0
        stats = json.loads((outdir / "conservation.json").read_text())["stats"]
        assert stats["frame_xi"] == pytest.approx(
            [re.xi.E, re.xi.H, re.xi.P], rel=1e-14, abs=1e-15)
        assert stats["left_frame_at"] is None
        assert stats["nfev"] == 2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["dense"]
        assert 0 < stats["dense"] <= stats["accepted"]

    @pytest.mark.parametrize("key, value", [("px1", 1e200), ("y1", 1e300)])
    def test_start_with_overflowing_energy_exits_2(self, capsys, tmp_path, key, value):
        scenario, _ = simulate_scenario(tmp_path, initial_state={**README_START, key: value})
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid initial state: energy ")
        assert err.count("\n") == 1
        assert not outdir.exists()

    def test_start_without_a_finite_locked_velocity_runs(self, capsys, tmp_path):
        # a body at y = 1e-300 has no finite locked inertia, so the run
        # stays in the chart
        scenario, _ = simulate_scenario(
            tmp_path, initial_state={**README_START, "y1": 1e-300},
            integrator={"t_end": 20.0, "sample_dt": 0.1})
        outdir = tmp_path / "out"
        assert run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))[0] == 0
        report = json.loads((outdir / "conservation.json").read_text())
        assert report["completed"] is True
        assert report["stats"]["frame_xi"] is None
        assert report["stats"]["nfev"] == 2414

    def test_step_underflow_exits_4_with_partial_record(self, capsys, tmp_path, monkeypatch):
        # a field that blows up in finite time (y' = y^2 in every entry, so
        # y2 = 1.2 diverges at t = 1/1.2) drives the real engine to underflow
        import h2body.sim as sim_mod

        monkeypatch.setattr(sim_mod, "_field_array", lambda z, m1, m2, k: z * z)
        start = dict.fromkeys(("x1", "x2", "px1", "py1", "px2", "py2"), 0.0)
        scenario, _ = simulate_scenario(
            tmp_path, initial_state={**start, "y1": 1.0, "y2": 1.2}, integrator={"t_end": 2.0}
        )
        outdir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", "--scenario", scenario, "--out", str(outdir))
        assert code == 4
        assert err.startswith("error: step size underflow at t = 0.8333")
        report = json.loads((outdir / "conservation.json").read_text())
        assert report["completed"] is False
        assert report["error"] == "step_underflow"
        assert 0.8 < report["t_final"] < 1.0 / 1.2
        assert report["stats"]["accepted"] > 0

    def test_bad_initial_state_exits_2(self, capsys, tmp_path):
        scenario, _ = simulate_scenario(tmp_path)
        doc = json.loads(Path(scenario).read_text())
        doc["initial_state"]["y1"] = -1.0
        scenario2 = write_json(tmp_path / "bad.json", doc)
        code, _, err = run(capsys, "simulate", "--scenario", scenario2)
        assert code == 2
        assert "invalid initial state" in err


class TestPerturbCommand:
    @staticmethod
    def _scenario(tmp_path, **protocol_overrides):
        protocol = {
            "scale": 1e-4,
            "n_trials": 2,
            "seed": 7,
            "horizon_periods": 0.5,
        }
        protocol.update(protocol_overrides)
        doc = {
            "mode": "perturb",
            "params": {"m1": 1.0, "m2": 1.0, "k": 1.0},
            "equilibrium": {"family": "elliptic", "d1": math.atanh(0.4)},
            "protocol": protocol,
        }
        return write_json(tmp_path / "perturb.json", doc)

    def test_stable_report(self, capsys, tmp_path):
        scenario = self._scenario(tmp_path)
        code, out, _ = run(capsys, "perturb", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["n_escaped"] == 0
        assert doc["n_bounded"] == 2
        assert doc["protocol"]["seed"] == 7
        assert doc["max_distance_deviation"] < 1e-2
        assert len(doc["trials"]) == 2

    def test_report_carries_counters(self, capsys, tmp_path):
        scenario = self._scenario(tmp_path)
        code, out, _ = run(capsys, "perturb", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        attempts = []
        for trial in doc["trials"]:
            assert set(trial["stats"]) == {"accepted", "rejected", "dense", "h_min", "h_max"}
            assert trial["stats"]["dense"] == 0  # no event fires on a stable run
            assert 0.0 < trial["stats"]["h_min"] <= trial["stats"]["h_max"]
            attempts.append(trial["stats"]["accepted"] + trial["stats"]["rejected"])
        # one DOP853 batch: the field runs once per stage of the longest row,
        # in the frame that rotates with the elliptic equilibrium's generator
        re = build_relative_equilibrium(Family.ELLIPTIC, math.atanh(0.4), Params(1.0, 1.0))
        assert doc["stats"] == {
            "nfev": 2 + 12 * max(attempts), "frame_xi": [re.xi.E, re.xi.H, re.xi.P]}

    def test_tiny_rate_is_judged_in_its_own_frame(self, capsys, tmp_path):
        # at k = 1e-12 the rate is 1.5e-6; carried back by I + t M, which
        # is no isometry, the same trials read n_bounded 0 and a deviation
        # of 15.4 (measured 4.1e-4 with the exact flow)
        doc = json.loads(Path(self._scenario(
            tmp_path, scale=1e-10, n_trials=3, horizon_periods=20)).read_text())
        doc["params"]["k"] = 1e-12
        scenario = write_json(tmp_path / "tiny.json", doc)
        code, out, _ = run(capsys, "perturb", "--scenario", scenario)
        assert code == 0
        report = json.loads(out)
        assert report["n_bounded"] == report["protocol"]["n_trials"] == 3
        assert report["max_distance_deviation"] < report["protocol"]["stable_band"]

    def test_seed_override(self, capsys, tmp_path):
        scenario = self._scenario(tmp_path)
        code, out, _ = run(
            capsys, "perturb", "--scenario", scenario, "--seed", "123"
        )
        assert code == 0
        assert json.loads(out)["protocol"]["seed"] == 123

    def test_negative_seed_override_exits_2(self, capsys, tmp_path):
        # as a negative seed in the scenario does; mod 2^64, -1 would name
        # the stream of 18446744073709551615, and 2^64 would run seed 0's
        # trials under its own name, from either source
        big = 2**64
        for seed, extra, message in (
            (7, ("--seed", "-1"), "--seed must be at least 0, got -1"),
            (7, ("--seed", str(big)), f"--seed must be below 2**64, got {big}"),
            (big, (), f"protocol.seed must be below 2**64, got {big}"),
        ):
            scenario = self._scenario(tmp_path, seed=seed)
            code, out, err = run(capsys, "perturb", "--scenario", scenario, *extra)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"
        code, out, _ = run(capsys, "perturb", "--scenario", scenario, "--seed", str(big - 1))
        assert code == 0
        assert json.loads(out)["protocol"]["seed"] == big - 1

    def test_horizon_exclusivity(self, capsys, tmp_path):
        scenario = self._scenario(tmp_path, horizon=5.0)
        code, _, err = run(capsys, "perturb", "--scenario", scenario)
        assert code == 2
        assert "exactly one" in err

    def test_hyperbolic_rejects_period_horizon(self, capsys, tmp_path):
        doc = json.loads(Path(self._scenario(tmp_path)).read_text())
        doc["equilibrium"] = {"family": "hyperbolic", "d1": 0.5}
        scenario = write_json(tmp_path / "hyp.json", doc)
        code, _, err = run(capsys, "perturb", "--scenario", scenario)
        assert code == 2
        assert "horizon" in err

    def test_bad_sign_exits_2(self, capsys, tmp_path):
        # true and -1.0 compare equal to 1 and -1, yet neither is +1 or -1
        doc = json.loads(Path(self._scenario(tmp_path)).read_text())
        for sign in (2, True, -1.0):
            doc["equilibrium"]["sign"] = sign
            scenario = write_json(tmp_path / "sign.json", doc)
            code, _, err = run(capsys, "perturb", "--scenario", scenario)
            assert code == 2, sign
            assert err == "error: equilibrium.sign must be +1 or -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("equilibrium", "elliptic", "19.5"),
        ("equilibrium", "hyperbolic", "400"),
        ("stability", "20"),
        ("stability", "1e308"),
        ("perturb", "--scenario"),
    ],
)
def test_distance_past_the_binary64_domain_exits_2(capsys, tmp_path, argv):
    # tanh(d1) rounds to 1 for d1 above about 19.06: a typed error, no traceback
    if argv[0] == "perturb":
        doc = json.loads(Path(TestPerturbCommand._scenario(tmp_path)).read_text())
        doc["equilibrium"]["d1"] = 400.0
        argv += (write_json(tmp_path / "far.json", doc),)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("flag", ["m1", "m2", "k"])
@pytest.mark.parametrize("command", ["equilibrium elliptic", "stability"])
def test_non_finite_mass_or_coupling_flag_exits_2(capsys, command, flag, value):
    # refused when Params is built, before any computation or output; the
    # "=" form keeps argparse from reading "-inf" as an option
    code, out, err = run(capsys, *command.split(), "0.5", f"--{flag}={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be positive and finite, got {float(value)!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        f"equilibrium {family} {d1} --k {k}"
        for family in ("elliptic", "hyperbolic")
        for d1, k in ((5, "1e-320"), (5, "5e-324"), (18, "1e-320"), (18, "5e-324"),
                      (18, "1e-310"), (18, "1e-300"))
    ] + [
        "equilibrium elliptic 1e-3 --m1 1e-320",
        "equilibrium hyperbolic 1e-3 --m1 1e-320",
        "stability 1e-3 --m1 1e-320",
    ],
)
def test_rate_that_underflows_exits_2(capsys, argv):
    # omega^2, or its denominator sinh(d)^2 sinh(2 d2), underflows to 0
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: the rate is out of range: ")


@pytest.mark.parametrize(
    "argv",
    [
        "equilibrium elliptic 0.5 --k 1e308",
        "stability 0.001 --k 1e303",
        "equilibrium elliptic 0.5 --m2 1.7e308",
    ],
)
def test_rate_that_overflows_exits_2(capsys, argv):
    # omega^2 = 2 k m1 / (sinh(d)^2 sinh(2 d2)) overflows to inf, which no
    # JSON document can hold
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: the rate is out of range: ")
    assert err.endswith(" overflows\n")


@pytest.mark.parametrize(
    "argv, field",
    [
        ("equilibrium hyperbolic 1e-3 --k 1e296", "stability.rig_block[1][1]"),
        ("equilibrium elliptic 0.5 --m2 1e300", "stability.rig_block[0][0]"),
    ],
)
def test_non_finite_result_is_named(capsys, argv, field):
    # the rate is finite, and a block entry built from it overflows after
    # it; the one error: line names the first field no JSON document holds
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == f"error: result is not finite: {field} = inf\n"


@pytest.mark.parametrize("command", ["threshold-curve", "simulate"])
def test_input_too_large_for_memory_exits_2(capsys, tmp_path, command):
    # 1e17 float64 values are 711 PiB, more than a 64-bit address space
    # holds, so the allocation fails at once whatever the overcommit policy
    if command == "threshold-curve":
        argv = ("threshold-curve", "0.5", "2", str(10**17))
    else:
        scenario, _ = simulate_scenario(tmp_path, integrator={"t_end": 1e17, "sample_dt": 1.0})
        argv = ("simulate", "--scenario", scenario, "--out", str(tmp_path / "out"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: out of memory: ")


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(h2body.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _non_finite_case(tmp_path, case):
    """Command and scenario path for one invalid-number case."""
    if case.startswith("perturb"):
        doc = json.loads(Path(TestPerturbCommand._scenario(tmp_path)).read_text())
        if case == "perturb-horizon-inf":
            del doc["protocol"]["horizon_periods"]
            doc["protocol"]["horizon"] = math.inf
        else:
            doc["integrator"] = {"rel_tol": 1e-15}
        return "perturb", write_json(tmp_path / "p.json", doc)
    doc = json.loads(Path(simulate_scenario(tmp_path)[0]).read_text())
    if case == "simulate-rel_tol-inf":
        doc["integrator"]["rel_tol"] = math.inf
    elif case == "simulate-k-inf":
        doc["params"]["k"] = math.inf
    elif case == "simulate-state-nan":
        doc["initial_state"]["x1"] = math.nan
    elif case == "simulate-t_end-huge-int":
        doc["integrator"]["t_end"] = 10 ** 400
    elif case == "simulate-rel_tol-below-floor":
        doc["integrator"]["rel_tol"] = 2e-14
    elif case == "simulate-sample-count-overflow":
        doc["integrator"].update(t_end=1e300, sample_dt=1e-300)
    return "simulate", write_json(tmp_path / "s.json", doc)


@pytest.mark.parametrize(
    "case",
    [
        "simulate-rel_tol-inf",
        "simulate-k-inf",
        "simulate-state-nan",
        "simulate-t_end-huge-int",
        "simulate-rel_tol-below-floor",
        "simulate-sample-count-overflow",
        "perturb-horizon-inf",
        "perturb-rel_tol-below-floor",
    ],
)
def test_non_finite_or_sub_floor_numbers_exit_2(tmp_path, case):
    # JSON admits NaN and Infinity; each must be refused up front, in a
    # fresh process that would otherwise run without end or crash
    command, scenario = _non_finite_case(tmp_path, case)
    argv = [command, "--scenario", scenario]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "h2body.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_src_env(), timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")


def _run_cli(tmp_path, *argv):
    """One h2body call in a fresh process, stopped after 60 s so that a
    call that never returns fails instead of hanging the suite."""
    return subprocess.run(
        [sys.executable, "-m", "h2body.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_src_env(), timeout=60,
    )


def test_perturb_with_an_overflowing_field_ends_each_trial(tmp_path):
    # a 1e-4 kick on a body of mass 1e-300 overflows the field, so the
    # starting step is NaN; each row ends as a step underflow, warning-free
    doc = json.loads(Path(TestPerturbCommand._scenario(tmp_path)).read_text())
    doc["params"]["m1"] = 1e-300
    proc = _run_cli(tmp_path, "perturb", "--scenario", write_json(tmp_path / "p.json", doc))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert [t["error"] for t in report["trials"]] == ["step_underflow"] * 2
    for trial in report["trials"]:
        assert trial["message"].startswith("step size underflow at t = ")
        assert trial["message"].endswith(
            ": the step size is not a number (the field overflows the error scale)")


def test_simulate_with_an_overflowing_field_exits_4(tmp_path):
    scenario, _ = simulate_scenario(tmp_path)
    doc = json.loads(Path(scenario).read_text())
    doc["params"]["m1"] = 1e-300
    doc["initial_state"]["px1"] = 1e-4
    proc = _run_cli(tmp_path, "simulate", "--scenario", write_json(tmp_path / "s.json", doc),
                    "--out", str(tmp_path / "out"))
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: step size underflow at t = ")
    assert proc.stderr.endswith(
        ": the step size is not a number (the field overflows the error scale)\n")
    assert proc.stderr.count("\n") == 1


def test_perturb_scale_with_no_valid_start_exits_2(tmp_path):
    # every kick of chart norm 1e300 overflows the separation test
    scenario = TestPerturbCommand._scenario(tmp_path, scale=1e300)
    proc = _run_cli(tmp_path, "perturb", "--scenario", scenario)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: no valid start in 1000 draws at scale 1e+300\n"


@pytest.mark.parametrize(
    "argv",
    [
        "equilibrium elliptic 0.5 --m2 1e300",
        "equilibrium hyperbolic 1e-3 --k 1e300",
        "equilibrium elliptic 18 --m1 1e-310",
        "stability 5 --k 1.7e308",
    ],
)
def test_failed_call_prints_no_warning(tmp_path, argv):
    # each overflows in numpy on its way to a typed error; the error: line
    # is all that reaches stderr
    proc = _run_cli(tmp_path, *argv.split())
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1


def test_succeeding_call_still_shows_its_warnings(capsys, monkeypatch):
    import h2body.cli as cli

    exact = cli.classify_stability

    def noisy(re):
        np.float64(1e300) * np.float64(1e300)
        return exact(re)

    monkeypatch.setattr(cli, "classify_stability", noisy)
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, _, _ = run(capsys, "stability", "0.5")
    assert code == 0


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is a test-side oracle only; the program runs on numpy alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, h2body.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_builds_no_parser(tmp_path):
    # the parser is built on the first main() call, not at import
    script = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import h2body.cli as cli\n"
        "at_import = len(made)\n"
        "assert cli.main(['threshold-curve', '0.5', '2', '2', '--out', 'c.csv']) == 0\n"
        "print(at_import, len(made))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=tmp_path, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after_main = map(int, proc.stdout.split())
    assert at_import == 0
    assert after_main > 0  # the counter sees the build


@pytest.mark.parametrize(
    "command", ["simulate", "equilibrium", "stability", "threshold-curve", "perturb"]
)
def test_unwritable_output_exits_2(capsys, tmp_path, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a regular file cannot hold the output
    out = str(blocker / "out")
    argv = {
        "simulate": ("simulate", "--scenario", simulate_scenario(tmp_path)[0]),
        "equilibrium": ("equilibrium", "elliptic", "0.5"),
        "stability": ("stability", "0.5"),
        "threshold-curve": ("threshold-curve", "0.5", "2", "3"),
        "perturb": ("perturb", "--scenario", TestPerturbCommand._scenario(tmp_path)),
    }[command]
    # simulate makes its output directory, which fails where a file is
    code, stdout, err = run(capsys, *argv, "--out", str(blocker) if command == "simulate" else out)
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write output: ")
    assert str(blocker) in err


class TestParserReuse:
    """main() reuses one parser; no call may see what an earlier one parsed."""

    def test_seed_override_does_not_stick(self, capsys, tmp_path):
        scenario = TestPerturbCommand._scenario(tmp_path)
        seeds = []
        for extra in (("--seed", "5"), ()):
            code, out, _ = run(capsys, "perturb", "--scenario", scenario, *extra)
            assert code == 0
            seeds.append(json.loads(out)["protocol"]["seed"])
        assert seeds == [5, 7]  # 7 is the scenario's own seed

    def test_valid_call_after_a_rejected_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equilibrium", "elliptic", "abc"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "equilibrium", "elliptic", "0.5")
        assert code == 0, err
        assert json.loads(out)["d1"] == 0.5

    def test_no_parser_built_after_the_first_call(self, capsys, monkeypatch):
        import h2body.cli as cli_mod

        run(capsys, "stability", "0.4")
        made = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli_mod.build_parser.__wrapped__()  # the counter sees a fresh build
        assert made
        made.clear()
        for argv in (("stability", "0.4"), ("equilibrium", "elliptic", "0.5"), ("stability", "0.3")):
            assert run(capsys, *argv)[0] == 0
        assert made == []

    @pytest.mark.parametrize(
        "command",
        ["", "simulate", "equilibrium", "stability", "threshold-curve", "perturb"],
    )
    def test_help_matches_a_fresh_parser(self, capsys, command):
        import h2body.cli as cli_mod

        texts = []
        for parse in (main, main, cli_mod.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*command.split(), "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: h2body")
        assert texts[0] == texts[1] == texts[2]


class TestErrorPlumbing:
    """Exit codes 4 and 5 cannot be reached with healthy inputs, so these
    patch the underlying call and only exercise the reporting path."""

    def test_step_underflow_exits_4(self, capsys, tmp_path, monkeypatch):
        import h2body.cli as cli_mod
        from h2body.sim import StepSizeUnderflow

        def fail(state, params, config):
            raise StepSizeUnderflow("step size underflow at t=0.1", record=None)

        monkeypatch.setattr(cli_mod, "integrate", fail)
        scenario, _ = simulate_scenario(tmp_path)
        code, _, err = run(
            capsys, "simulate", "--scenario", scenario, "--out", str(tmp_path / "o")
        )
        assert code == 4
        assert "underflow" in err

    def test_oracle_mismatch_exits_5(self, capsys, monkeypatch):
        import h2body.cli as cli_mod

        monkeypatch.setattr(cli_mod, "internal_block_oracle", lambda re, correction: 1e6)
        code, out, err = run(capsys, "stability", "0.4")
        assert code == 5
        assert "oracle mismatch" in err
        # the document is still emitted so the mismatch can be inspected
        assert json.loads(out)["oracles_agree"] is False

    def test_failed_intrinsic_check_exits_5(self, capsys, monkeypatch):
        import dataclasses

        import h2body.cli as cli_mod

        exact = cli_mod.intrinsic_checks
        monkeypatch.setattr(
            cli_mod,
            "intrinsic_checks",
            lambda re: dataclasses.replace(exact(re), ok=False),
        )
        code, out, err = run(capsys, "equilibrium", "elliptic", "0.5")
        assert code == 5
        assert "intrinsic check failed" in err
        # the document is still emitted so the failure can be inspected
        assert json.loads(out)["intrinsic"]["ok"] is False

    @pytest.mark.parametrize("command", ["equilibrium", "perturb"])
    def test_detuned_rate_exits_5(self, capsys, tmp_path, monkeypatch, command):
        # the criticality cross-check of build_relative_equilibrium is an
        # oracle mismatch, not an input error
        import h2body.equilibria as eq

        exact = eq.augmented_potential_gradient
        monkeypatch.setattr(
            eq,
            "augmented_potential_gradient",
            lambda config, params, xi: exact(config, params, xi * (1.0 + 1e-6)),
        )
        if command == "equilibrium":
            argv = ("equilibrium", "elliptic", "0.5")
        else:
            argv = ("perturb", "--scenario", TestPerturbCommand._scenario(tmp_path))
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert "not critical" in err
        assert out == ""

    def test_threshold_residual_exits_5(self, capsys, monkeypatch):
        import h2body.cli as cli_mod
        from h2body.stability import MassRatioCurve

        monkeypatch.setattr(
            cli_mod,
            "threshold",
            lambda c: MassRatioCurve(c=c, u0=0.5, d1=math.atanh(0.5), residual=1e-6),
        )
        code, _, err = run(capsys, "threshold-curve", "0.5", "2.0", "3")
        assert code == 5
        assert "residual" in err

    def test_nan_threshold_residual_exits_5(self, capsys, monkeypatch):
        import h2body.cli as cli_mod
        from h2body.stability import MassRatioCurve

        monkeypatch.setattr(
            cli_mod,
            "threshold",
            lambda c: MassRatioCurve(c=c, u0=math.nan, d1=math.nan, residual=math.nan),
        )
        code, out, err = run(capsys, "threshold-curve", "0.5", "2.0", "3")
        assert code == 5
        assert out == ""
        assert "residual nan" in err


def test_console_script_installed(tmp_path):
    # Run the `h2body` target declared in this checkout's pyproject.toml the
    # way a generated console-script wrapper does, so the test needs no
    # install and cannot pick up a stale copy from elsewhere on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["h2body"]
    module, attr = target.split(":")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "equilibrium",
            "elliptic",
            "0.5",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["family"] == "elliptic"


def test_readme_scenario_examples_run(capsys, tmp_path):
    # the scenario files README.md prints, byte for byte, so the documented
    # schema cannot drift from the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```")[0] for part in readme.split("```json\n")[1:]]
    modes = [json.loads(block)["mode"] for block in blocks]
    assert modes == ["simulate", "perturb"]
    for mode, block in zip(modes, blocks):
        scenario = tmp_path / f"{mode}.json"
        scenario.write_text(block)
        out = ["--out", str(tmp_path / "out")] if mode == "simulate" else []
        code, _, err = run(capsys, mode, "--scenario", str(scenario), *out)
        assert code == 0, err
    # the simulate example starts far from rest in any frame
    assert json.loads(blocks[0])["initial_state"] == README_START
    stats = json.loads((tmp_path / "out" / "conservation.json").read_text())["stats"]
    assert stats["frame_xi"] is None and stats["left_frame_at"] is None


def test_readme_python_examples_run(capsys):
    # the Python blocks of "Quick start" and "From Python", run as printed,
    # so that a change of signature cannot leave them stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```")[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    missing = [
        (name, opt)
        for name, sub in commands.items()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt not in readme
    ]
    assert missing == []
