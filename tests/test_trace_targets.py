"""The benchmark's tracer wraps h2body functions by module and name.

perfbench/tracing.py looks each target up with getattr and no fallback, so
a renamed or deleted function would break a traced benchmark run without
any other test noticing. The tracer imports only the standard library and
is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, target", sorted(_targets().items()))
def test_trace_target_resolves(name, target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr, None)), name
