"""Command-line interface.

Five subcommands: simulate (scenario file to trajectory CSV plus
conservation report), equilibrium (build and describe a relative
equilibrium), stability (closed-form blocks against their numerical
oracles), threshold-curve (stability threshold over a mass-ratio range),
and perturb (seeded perturbation experiment from a scenario file).

Exit codes: 0 success, 2 validation failure, an output path that cannot
be written or an input too large for memory, 3 collision during
integration, 4 integrator step underflow, 5 a closed form disagreeing
with its oracle (stability blocks, rate or criticality cross-checks,
intrinsic geometry checks).
JSON documents are written on one line (pipe them through
``python -m json.tool`` to indent them), numbers as the shortest repr that
round-trips binary64; CSV numbers with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import (
    CollisionDuringIntegration,
    H2BodyError,
    IntegrationError,
    OracleMismatch,
    ScenarioError,
)
from .dynamics import Params, locked_inertia, momentum_map, phase_state
from .equilibria import (
    Family,
    build_relative_equilibrium,
    initial_state,
    intrinsic_checks,
    partner_distance,
)
from .stability import (
    classify_stability,
    internal_block_oracle,
    internal_correction,
    internal_membership,
    intrinsic_stability_bound,
    rig_block_oracle,
    threshold,
)
from .sim import (
    IntegratorConfig,
    PerturbationExperiment,
    conservation_report,
    integrate,
    perturb_and_measure,
    write_trajectory_csv,
)

# agreement cutoffs for the closed-form-versus-oracle comparison
_AR_ORACLE_TOL = 1e-9
_INTERNAL_ORACLE_TOL = 1e-5


# -- output --------------------------------------------------------------

def _write(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout when no path is given."""
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out_path: str | None) -> None:
    # one line, so the C encoder runs; floats print as their shortest
    # round-tripping repr; NaN and inf raise ValueError
    _write(json.dumps(doc, allow_nan=False) + "\n", out_path)


# -- scenario validation -------------------------------------------------

def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"unknown field(s) {unknown} in {path}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioError(f"missing required field(s) {missing} in {path}")


def _num(obj, path, key, positive=False):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key} must be a number")
    try:
        finite = math.isfinite(v)  # JSON admits NaN and Infinity
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ScenarioError(f"{path}.{key} must be finite, got {v!r}")
    if positive and not v > 0:
        raise ScenarioError(f"{path}.{key} must be positive, got {v!r}")
    return float(v)


def _intval(obj, path, key, minimum):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key} must be an integer")
    if v < minimum:
        raise ScenarioError(f"{path}.{key} must be at least {minimum}")
    return v


def _load_scenario(path: str, mode: str) -> dict:
    try:
        with open(path) as f:
            scenario = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    if scenario.get("mode") != mode:
        raise ScenarioError(
            f"scenario mode must be {mode!r}, got {scenario.get('mode')!r}"
        )
    return scenario


def _parse_params(scenario) -> Params:
    _check_keys(scenario["params"], "params", ("m1", "m2", "k"))
    p = scenario["params"]
    return Params(
        _num(p, "params", "m1", positive=True),
        _num(p, "params", "m2", positive=True),
        _num(p, "params", "k", positive=True),
    )


def _positive_numbers(scenario, block, required, optional) -> dict:
    """Check the keys of scenario[block] and read each as a positive number."""
    obj = scenario[block]
    _check_keys(obj, block, required, optional)
    keys = (*required, *optional)
    return {key: _num(obj, block, key, positive=True) for key in keys if key in obj}


# -- subcommands ---------------------------------------------------------

def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario, "simulate")
    _check_keys(scenario, "scenario", ("mode", "params", "initial_state", "integrator"))
    params = _parse_params(scenario)
    st = scenario["initial_state"]
    names = ("x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2")
    _check_keys(st, "initial_state", names)
    coords = [_num(st, "initial_state", n) for n in names]
    try:
        state = phase_state(*coords)
    except (ValueError, H2BodyError) as exc:
        raise ScenarioError(f"invalid initial state: {exc}") from exc
    optional = ("rel_tol", "abs_tol", "sample_dt")
    config = IntegratorConfig(**_positive_numbers(scenario, "integrator", ("t_end",), optional))

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "trajectory.csv")
    report_path = os.path.join(args.out, "conservation.json")
    code = 0
    try:
        record = integrate(state, params, config)
    except IntegrationError as exc:
        record = exc.record
        code = 3 if isinstance(exc, CollisionDuringIntegration) else 4
        print(f"error: {exc}", file=sys.stderr)
        if record is None or record.t.size == 0:
            return code
    write_trajectory_csv(record, csv_path)
    doc = {
        "completed": record.completed,
        "error": record.error,
        "samples": int(record.t.size),
        "t_final": float(record.t[-1]),
        "drift": conservation_report(record),
        "stats": record.stats,
    }
    _emit(doc, report_path)
    return code


def _build_re(family: Family, d1: float, params: Params, sign: int):
    d2 = partner_distance(d1, params)
    return build_relative_equilibrium(family, d1, d2, params, sign=sign)


def cmd_equilibrium(args) -> int:
    params = Params(args.m1, args.m2, args.k)
    family = Family(args.family)
    re = _build_re(family, args.d1, params, args.sign)
    z0 = initial_state(re)
    mu = momentum_map(z0)
    report = classify_stability(re)
    intrinsic = intrinsic_checks(re).as_dict()
    doc = {
        "family": family.value,
        "params": {"m1": params.m1, "m2": params.m2, "k": params.k},
        "d1": re.d1,
        "d2": re.d2,
        "distance": re.distance,
        # canonical angles, for output only: (cos, sin) = (tanh d, sech d)
        "theta1": math.atan2(1.0 / math.cosh(re.d1), math.tanh(re.d1)),
        "theta2": math.atan2(1.0 / math.cosh(re.d2), math.tanh(re.d2)),
        "omega": re.omega,
        "omega2": re.omega * re.omega,
        "period": re.period if family is Family.ELLIPTIC else None,
        "generator": {"E": re.xi.E, "H": re.xi.H, "P": re.xi.P},
        "configuration": dict(zip(("x1", "y1", "x2", "y2"), re.config.coords())),
        "initial_state": dict(
            zip(
                ("x1", "y1", "x2", "y2", "px1", "py1", "px2", "py2"),
                map(float, z0.as_array()),
            )
        ),
        "momentum": {"e": mu.e, "h": mu.h, "p": mu.p},
        "intrinsic": intrinsic,
        "stability": report.as_dict(),
    }
    _emit(doc, args.out)
    if not intrinsic["ok"]:
        print(
            f"error: intrinsic check failed (perp {intrinsic['max_perp_residual']:.3e}, "
            f"speed {intrinsic['max_speed_error']:.3e}, com {intrinsic['max_com_error']:.3e}, "
            f"orientation {intrinsic['orientation']})",
            file=sys.stderr,
        )
        return 5
    return 0


def cmd_stability(args) -> int:
    params = Params(args.m1, args.m2, args.k)
    re = _build_re(Family.ELLIPTIC, args.d1, params, 1)
    report = classify_stability(re)
    # shared by the oracles; kept out of classify_stability, which equilibrium calls too
    ii = locked_inertia(re.config, re.params)
    correction, eta = internal_correction(re, ii)
    ar = report.rig
    ar_oracle = rig_block_oracle(re, ii)
    ar_err = float(np.max(np.abs(ar - ar_oracle)))
    inner = report.internal
    inner_oracle = internal_block_oracle(re, correction)
    inner_err = abs(inner - inner_oracle) / max(abs(inner), 1e-300)
    ar_ok = ar_err <= _AR_ORACLE_TOL * max(1.0, float(np.max(np.abs(ar))))
    inner_ok = inner_err <= _INTERNAL_ORACLE_TOL
    c = params.m1 / params.m2
    curve = threshold(c)
    doc = {
        "d1": re.d1,
        "d2": re.d2,
        "mass_ratio": c,
        "omega": re.omega,
        "u": report.u,
        "v": report.v,
        "rig_block_closed": [list(map(float, r)) for r in ar],
        "rig_block_oracle": [list(map(float, r)) for r in ar_oracle],
        "rig_block_max_error": ar_err,
        "internal_closed": inner,
        "internal_oracle": inner_oracle,
        "internal_rel_error": inner_err,
        "membership": internal_membership(re.family, eta),
        "threshold_d1": curve.d1,
        "intrinsic_bound_stable": intrinsic_stability_bound(re.d1, c),
        "oracles_agree": bool(ar_ok and inner_ok),
        "report": report.as_dict(),
    }
    _emit(doc, args.out)
    if not (ar_ok and inner_ok):
        print(
            f"error: oracle mismatch (rig {ar_err:.3e}, internal {inner_err:.3e})",
            file=sys.stderr,
        )
        return 5
    return 0


def cmd_threshold_curve(args) -> int:
    if not (0 < args.c_min < args.c_max and math.isfinite(args.c_max)):
        raise ScenarioError("need finite 0 < c_min < c_max")
    if args.n_points < 2:
        raise ScenarioError("n_points must be at least 2")
    rows = []
    for c in np.geomspace(args.c_min, args.c_max, args.n_points):
        point = threshold(float(c))
        if not point.residual < 1e-12:  # NaN fails too
            print(
                f"error: threshold residual {point.residual:.3e} at c={c:.6g}",
                file=sys.stderr,
            )
            return 5
        rows.append((point.c, point.u0, point.d1))
    lines = ["#schema=v1", "c,u0,d1"]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_perturb(args) -> int:
    scenario = _load_scenario(args.scenario, "perturb")
    _check_keys(
        scenario, "scenario", ("mode", "params", "equilibrium", "protocol"), ("integrator",)
    )
    params = _parse_params(scenario)
    eq = scenario["equilibrium"]
    _check_keys(eq, "equilibrium", ("family", "d1"), ("sign",))
    if eq["family"] not in ("elliptic", "hyperbolic"):
        raise ScenarioError(f"unknown family {eq['family']!r}")
    sign = eq.get("sign", 1)
    if sign not in (-1, 1):
        raise ScenarioError("equilibrium.sign must be +1 or -1")
    family = Family(eq["family"])
    try:
        re = _build_re(family, _num(eq, "equilibrium", "d1", positive=True), params, sign)
    except OracleMismatch:
        raise
    except (ValueError, H2BodyError) as exc:
        raise ScenarioError(f"invalid equilibrium: {exc}") from exc

    proto = scenario["protocol"]
    _check_keys(
        proto,
        "protocol",
        ("scale", "n_trials", "seed"),
        ("horizon", "horizon_periods"),
    )
    if ("horizon" in proto) == ("horizon_periods" in proto):
        raise ScenarioError("protocol needs exactly one of horizon, horizon_periods")
    if "horizon" in proto:
        horizon = _num(proto, "protocol", "horizon", positive=True)
    else:
        if family is Family.HYPERBOLIC:
            raise ScenarioError(
                "horizon_periods applies only to the elliptic family; give horizon"
            )
        horizon = _num(proto, "protocol", "horizon_periods", positive=True) * re.period

    kwargs = {}
    if "integrator" in scenario:
        kwargs = _positive_numbers(scenario, "integrator", (), ("rel_tol", "abs_tol"))
    seed = args.seed if args.seed is not None else _intval(proto, "protocol", "seed", 0)
    if seed < 0:  # _intval holds the scenario's seed to 0 and up, so this is --seed
        raise ScenarioError(f"--seed must be at least 0, got {seed}")
    experiment = PerturbationExperiment(
        base=re,
        scale=_num(proto, "protocol", "scale", positive=True),
        n_trials=_intval(proto, "protocol", "n_trials", 1),
        horizon=horizon,
        seed=seed,
        **kwargs,
    )
    report = perturb_and_measure(experiment)
    _emit(report, args.out)
    return 0


# -- parser --------------------------------------------------------------

# Built on the first main() call and reused: parse_args keeps no state
# between calls, and building costs more than most subcommands. Every
# caller gets the same parser, so none may modify it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2body",
        description="Two-body problem on the hyperbolic plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equilibrium", help="build a relative equilibrium")
    p.add_argument("family", choices=("elliptic", "hyperbolic"))
    p.add_argument("d1", type=float, help="arc distance of body 1 to the center of mass")
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("stability", help="stability blocks against their oracles")
    p.add_argument("d1", type=float)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("threshold-curve", help="stability threshold over a mass-ratio range")
    p.add_argument("c_min", type=float)
    p.add_argument("c_max", type=float)
    p.add_argument("n_points", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_threshold_curve)

    p = sub.add_parser("perturb", help="seeded perturbation experiment")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_perturb)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ScenarioError, H2BodyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # scenario reads raise ScenarioError, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input that asks for more samples or points than memory holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
