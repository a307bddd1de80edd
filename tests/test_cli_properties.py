"""Property suite over cli.main: any distance and mass ratio in the stated
domain gives a documented exit code and, on failure, one error line.

The strategies cover the whole domain; known failures inside it (exit 5
from an oracle or intrinsic check, exit 2 inside the collision cutoff) are
allowed outcomes here, not filtered out.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from h2body.cli import main

DOCUMENTED_CODES = {0, 2, 3, 4, 5}

distances = st.floats(min_value=1e-9, max_value=19.0)
mass_ratios = st.floats(min_value=1e-3, max_value=1e3)
commands = st.sampled_from(
    [("equilibrium", "elliptic"), ("equilibrium", "hyperbolic"), ("stability",)]
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(command=commands, d1=distances, ratio=mass_ratios)
def test_every_call_exits_with_a_documented_code(command, d1, ratio):
    code, _, err = run_cli(*command, repr(d1), f"--m1={ratio!r}")
    assert code in DOCUMENTED_CODES
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1, err
