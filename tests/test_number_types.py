"""Each chart formula is written once and runs on any number type.

The float path is what the program runs; complex numbers carry the
complex-step derivatives of the stability oracles; 40-digit mpmath numbers
give a reference that binary64 rounding cannot reach. Float results must
equal the real part of the others to rounding, and the closed-form gradient
of the augmented potential must equal its exact complex-step derivative.
"""

import dataclasses

import mpmath
import numpy as np
import pytest

from h2body.dynamics import (
    _augmented_potential,
    _augmented_potential_gradient,
    _kinetic,
    _locked_inertia,
    _momentum,
    _potential,
    _potential_gradient,
)
from h2body.liegroup import AlgebraElement, CoalgebraElement, ad_star, bracket, generator_field
from h2body.stability import _cs_derivative

from conftest import random_algebra, random_config_state


def _flat(r):
    """Nested tuples and algebra elements as a flat list of numbers."""
    if dataclasses.is_dataclass(r):
        r = dataclasses.astuple(r)
    if isinstance(r, (tuple, list)):
        return [x for item in r for x in _flat(item)]
    return [r]


def _real(x):
    return float(x.real) if isinstance(x, (complex, np.complexfloating, mpmath.mpc)) else float(x)


def _lift_float(x, rng):
    return float(x)


def _lift_complex(x, rng):
    # a complex step of the size the stability oracles take
    return complex(x, 1e-30 * rng.standard_normal())


def _lift_mpf(x, rng):
    return mpmath.mpf(x)


def _cases(rng):
    """(name, function, float arguments) at a random configuration."""
    state, params = random_config_state(rng)
    z = state.as_array().tolist()
    q = z[:4]
    xi, eta = random_algebra(rng), random_algebra(rng)
    mu = CoalgebraElement(*rng.standard_normal(3))
    kmm = params.k * params.m1 * params.m2
    return [
        ("_potential", lambda *a: _potential(*a, params), q),
        ("_potential_gradient", lambda *a: _potential_gradient(*a, kmm), q),
        ("_kinetic", lambda *a: _kinetic(*a, params), z),
        ("_momentum", _momentum, z),
        (
            "generator_field",
            lambda *a: generator_field(AlgebraElement(*a[2:]), a[0], a[1]),
            q[:2] + [xi.E, xi.H, xi.P],
        ),
        ("_locked_inertia", lambda *a: _locked_inertia(*a, params.m1, params.m2), q),
        (
            "_augmented_potential",
            lambda *a: _augmented_potential(*a[:4], params, AlgebraElement(*a[4:])),
            q + [xi.E, xi.H, xi.P],
        ),
        (
            "_augmented_potential_gradient",
            lambda *a: _augmented_potential_gradient(*a[:4], params, AlgebraElement(*a[4:])),
            q + [xi.E, xi.H, xi.P],
        ),
        (
            "bracket",
            lambda *a: bracket(AlgebraElement(*a[:3]), AlgebraElement(*a[3:])),
            [xi.E, xi.H, xi.P, eta.E, eta.H, eta.P],
        ),
        (
            "ad_star",
            lambda *a: ad_star(AlgebraElement(*a[:3]), CoalgebraElement(*a[3:])),
            [xi.E, xi.H, xi.P, mu.e, mu.h, mu.p],
        ),
    ]


@pytest.mark.parametrize("lift", [_lift_complex, _lift_mpf], ids=["complex", "mpf"])
def test_float_result_is_the_real_part(rng, lift):
    worst = {}
    with mpmath.workdps(40):
        for _ in range(20):
            for name, f, args in _cases(rng):
                ref = _flat(f(*(_lift_float(a, rng) for a in args)))
                raw = _flat(f(*(lift(a, rng) for a in args)))
                assert all(isinstance(v, (float, np.floating)) for v in ref), name
                if lift is _lift_mpf:  # no step fell back to binary64
                    assert all(isinstance(v, mpmath.mpf) for v in raw), name
                other = [_real(v) for v in raw]
                scale = max(abs(v) for v in other)
                err = max(abs(float(a) - b) for a, b in zip(ref, other)) / scale
                worst[name] = max(worst.get(name, 0.0), err)
    assert len(worst) == 10
    assert max(worst.values()) <= 1e-14, worst


def test_gradient_is_the_complex_step_of_the_augmented_potential(rng):
    # the exact oracle for the gradient the internal-block oracle rests on
    for _ in range(50):
        state, params = random_config_state(rng)
        q = state.as_array()[:4]
        xi = random_algebra(rng)
        grad = np.array(_augmented_potential_gradient(*q, params, xi))
        exact = np.array(
            [_cs_derivative(_augmented_potential, q, e, params, xi) for e in np.eye(4)]
        )
        assert np.max(np.abs(grad - exact)) <= 1e-12 * np.max(np.abs(exact))
