"""The benchmark's tracer wraps h2body functions by module and name.

perfbench/tracing.py looks each target up with getattr and no fallback, so
a renamed or deleted function would break a traced benchmark run without
any other test noticing. The tracer imports only the standard library and
is loaded here by path.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import h2body.cli

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
