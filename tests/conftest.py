"""Shared helpers for the test suite.

Randomized tests draw from seeded generators so every run sees the same
samples. Finite-difference helpers here are test-local on purpose: they
give the closed-form code an independent check.
"""

import math

import numpy as np
import pytest

from h2body import (
    Family,
    Params,
    Point,
    build_relative_equilibrium,
    flow,
    phase_state,
)
from h2body.liegroup import AlgebraElement


def random_point(rng, spread=2.0):
    return Point(spread * (2.0 * rng.random() - 1.0), math.exp(spread * (2.0 * rng.random() - 1.0) * 0.5))


def random_algebra(rng, scale=2.0):
    return AlgebraElement(*(scale * (2.0 * rng.random(3) - 1.0)))


def random_group(rng, scale=1.0):
    """Moderate group element: product of two one-parameter flows."""
    g = flow(random_algebra(rng, scale), rng.random())
    return g.compose(flow(random_algebra(rng, scale), rng.random()))


def random_config_state(rng, min_sep=0.3):
    """Generic (phase state, params) pair with the bodies not too close."""
    while True:
        x1, x2 = 1.5 * (2.0 * rng.random(2) - 1.0)
        y1, y2 = np.exp(0.8 * (2.0 * rng.random(2) - 1.0))
        p = 0.8 * (2.0 * rng.random(4) - 1.0)
        try:
            state = phase_state(x1, y1, x2, y2, *p)
        except Exception:
            continue
        if state.config.distance() >= min_sep:
            params = Params(
                0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random(), 0.5 + 1.5 * rng.random()
            )
            return state, params


def random_balanced_re(rng, family, d1_range=(0.15, 1.3), c_range=(0.25, 4.0)):
    """Relative equilibrium from random intrinsic data.

    Draws d1 and the mass ratio, sets d2 from the balance relation, and
    scales m2 and k randomly too.
    """
    d1 = d1_range[0] + (d1_range[1] - d1_range[0]) * rng.random()
    logc = math.log(c_range[0]) + (math.log(c_range[1]) - math.log(c_range[0])) * rng.random()
    c = math.exp(logc)
    m2 = 0.5 + 1.5 * rng.random()
    k = 0.5 + 1.5 * rng.random()
    params = Params(c * m2, m2, k)
    sign = 1 if rng.random() < 0.5 else -1
    return build_relative_equilibrium(family, d1, params, sign=sign)


def _bisect_secant(f, lo, hi, tol):
    """Root of f on a sign-changing bracket: bisection, secant polish.

    The numerical oracle for the closed-form center-of-mass offset.
    """
    flo = f(lo)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-6:
            break
    a, b = lo, hi
    fa, fb = f(a), f(b)
    for _ in range(60):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not lo - 1e-9 <= c <= hi + 1e-9:
            c = 0.5 * (a + b)
        fc = f(c)
        a, fa, b, fb = b, fb, c, fc
        if abs(b - a) < tol:
            break
    return b


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
