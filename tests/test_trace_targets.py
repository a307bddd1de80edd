"""The benchmark's tracer wraps h2body functions by module and name.

perfbench/tracing.py looks each target up with getattr and no fallback, so
a renamed or deleted function would break a traced benchmark run without
any other test noticing. The tracer imports only the standard library and
is loaded here by path.
"""

import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

import h2body.cli
from h2body import Family, Params, build_relative_equilibrium

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
ORACLES = (
    "stability.rig_block_oracle",
    "stability.internal_block_oracle",
    "stability.internal_membership",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, target", sorted(_tracing().TARGETS.items()))
def test_trace_target_resolves(name, target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_oracle_spans_come_from_stability_only(capsys):
    # each oracle must stay behind its traced name: one span each in a
    # stability call, and none in an equilibrium call, which runs no oracle;
    # main is looked up on the module, where the tracer wraps it, and each
    # call to it is one request
    tracer = _tracing().Tracer()
    with tracer.patched():
        assert h2body.cli.main(["stability", "0.4"]) == 0
        assert h2body.cli.main(["equilibrium", "elliptic", "0.4"]) == 0
    capsys.readouterr()
    spans = Counter((request, name) for _, _, request, name, _, _ in tracer.spans)
    for name in ORACLES:
        assert spans[(0, name)] == 1, name
        assert spans[(1, name)] == 0, name


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_field_spans_count_every_field_evaluation(family, tmp_path, capsys):
    # perturb reaches the field, in the rotating frame as in the chart,
    # through one traced _field_array call per stage, so the layer view
    # times every evaluation that the report's nfev counts
    re = build_relative_equilibrium(family, 0.5, Params(1.0, 1.0))
    scenario = tmp_path / "perturb.json"
    scenario.write_text(json.dumps({
        "mode": "perturb",
        "params": {"m1": 1.0, "m2": 1.0, "k": 1.0},
        "equilibrium": {"family": family.value, "d1": 0.5},
        "protocol": {"scale": 1e-4, "n_trials": 2, "seed": 7, "horizon": re.period},
    }))
    tracer = _tracing().Tracer()
    with tracer.patched():
        assert h2body.cli.main(["perturb", "--scenario", str(scenario)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["stats"]["frame_xi"] is None) is (family is Family.HYPERBOLIC)
    spans = Counter(name for _, _, _, name, _, _ in tracer.spans)
    assert spans["dynamics.field"] == report["stats"]["nfev"] > 0
