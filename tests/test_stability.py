"""Reduced energy-momentum test: blocks, verdicts, threshold curve."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from h2body import (
    AlgebraElement,
    Family,
    NonPositiveDistance,
    OutOfRange,
    Params,
    Verdict,
    XI_E,
    XI_H,
    XI_P,
    ad_star,
    bracket,
    build_relative_equilibrium,
    classify_stability,
    internal_block,
    internal_block_oracle,
    internal_correction,
    internal_membership,
    intrinsic_stability_bound,
    locked_inertia,
    momentum_norm_profile,
    momentum_of,
    partner_distance,
    rig_basis,
    rig_block,
    rig_block_oracle,
    stability_indicator,
    stability_polynomial,
    threshold,
    v_int_generator,
    v_of_u,
)

from h2body.dynamics import _locked_inertia
from h2body.stability import _cs_derivative

from conftest import random_balanced_re


def _elliptic_re(u, c, m2=1.0, k=1.0, sign=1):
    d1 = math.atanh(u)
    params = Params(c * m2, m2, k)
    return build_relative_equilibrium(Family.ELLIPTIC, d1, params, sign=sign)


RATIOS = (1e-2, 0.3, 1.0, 3.0, 1e2)


def _rig_oracle(re):
    return rig_block_oracle(re, locked_inertia(re.config, re.params))


def _internal_oracle(re):
    correction, _ = internal_correction(re, locked_inertia(re.config, re.params))
    return internal_block_oracle(re, correction)


def _domain_grid(d1s, ratios):
    """(family, d1, c, d2) over a grid, leaving out the points whose partner
    distance is past the binary64 domain (tanh(d2) rounds to 1)."""
    for c in ratios:
        params = Params(float(c), 1.0)
        for d1 in map(float, d1s):
            d2 = partner_distance(d1, params)
            if math.tanh(d2) == 1.0:
                continue
            for family in Family:
                yield family, d1, float(c), d2


def _re_on_grid(family, d1, c):
    return build_relative_equilibrium(family, d1, Params(c, 1.0))


class TestShapeFunctions:
    def test_indicator_zero_at_symmetric_threshold(self):
        u = 1.0 / math.sqrt(3.0)
        assert stability_indicator(u, u) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_signs(self):
        assert stability_indicator(0.4, 0.4) > 0.0
        assert stability_indicator(0.8, 0.8) < 0.0

    def test_v_of_u_equal_masses(self, rng):
        for _ in range(20):
            u = float(rng.uniform(0.05, 0.95))
            assert v_of_u(u, 1.0) == pytest.approx(u, rel=1e-13)

    def test_v_of_u_solves_balance_quadratic(self, rng):
        for _ in range(50):
            u = float(rng.uniform(0.05, 0.95))
            c = math.exp(float(rng.uniform(math.log(0.05), math.log(20.0))))
            v = v_of_u(u, c)
            assert 0.0 < v < 1.0
            assert c * u * v * v + (1.0 - u * u) * v - c * u == pytest.approx(
                0.0, abs=1e-13
            )

    def test_v_of_u_matches_partner_distance(self, rng):
        # dual route through arc distances
        for _ in range(50):
            u = float(rng.uniform(0.05, 0.95))
            c = math.exp(float(rng.uniform(math.log(0.1), math.log(10.0))))
            v = v_of_u(u, c)
            ref = math.tanh(partner_distance(math.atanh(u), Params(c, 1.0)))
            assert v == pytest.approx(ref, rel=1e-12)

    def test_v_of_u_rejections(self):
        with pytest.raises(OutOfRange):
            v_of_u(0.0, 1.0)
        with pytest.raises(OutOfRange):
            v_of_u(1.0, 1.0)
        with pytest.raises(OutOfRange):
            v_of_u(0.5, -1.0)

    def test_polynomial_sign_tracks_indicator(self, rng):
        # p(u, c) < 0 exactly where the indicator at (u, v(u)) is positive
        for _ in range(200):
            u = float(rng.uniform(0.05, 0.95))
            c = math.exp(float(rng.uniform(math.log(0.05), math.log(20.0))))
            f = stability_indicator(u, v_of_u(u, c))
            if abs(f) < 1e-8:
                continue
            assert (stability_polynomial(u, c) < 0.0) == (f > 0.0)

    def test_polynomial_symmetric_root(self):
        assert stability_polynomial(1.0 / math.sqrt(3.0), 1.0) == pytest.approx(
            0.0, abs=1e-14
        )


class TestRigBlock:
    def test_basis_choice(self):
        assert rig_basis(Family.HYPERBOLIC) == (XI_E, XI_P)
        lam1, lam2 = rig_basis(Family.ELLIPTIC)
        assert lam1 == XI_H
        assert np.allclose(lam2.coords(), (XI_E + XI_P).coords())

    def test_closed_form_matches_definitional_assembly(self, rng):
        # the acceptance-grade dual route at module scope
        for _ in range(40):
            family = Family.HYPERBOLIC if rng.random() < 0.5 else Family.ELLIPTIC
            re = random_balanced_re(rng, family)
            a = rig_block(re)
            b = _rig_oracle(re)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.allclose(a, b, atol=1e-9 * scale)

    def test_oracle_matches_its_entrywise_definition(self):
        # the oracle solves for all three right-hand sides at once; this is
        # the loop it replaced, one solve per entry
        def entrywise(re):
            mu = momentum_of(re)
            ii = locked_inertia(re.config, re.params)

            def inverse(m):
                return AlgebraElement(*np.linalg.solve(ii, m.coords()))

            xi0 = inverse(mu)
            lams = rig_basis(re.family)
            out = np.empty((2, 2))
            for i, li in enumerate(lams):
                lhs = ad_star(li, mu)
                for j, lj in enumerate(lams):
                    rhs = inverse(ad_star(lj, mu)) + bracket(lj, xi0)
                    out[i, j] = lhs.pair(rhs)
            return out

        checked = 0
        for family, d1, c, _ in _domain_grid(np.geomspace(1e-3, 18.0, 30), (0.1, 1.0, 10.0)):
            re = _re_on_grid(family, d1, c)
            ref = entrywise(re)
            scale = float(np.max(np.abs(ref)))
            err = float(np.max(np.abs(_rig_oracle(re) - ref)))
            assert err <= 1e-14 * scale, (family, d1, c, err / scale)
            checked += 1
        assert checked >= 170

    def test_extreme_mass_ratio_corner(self):
        # (u1 u2)^2 underflows below m1 ~ 1e-154; the corner entry must stay
        # the closed form, on both sides of that boundary
        with mpmath.workdps(50):
            for m1 in (1e-150, 1e-200, 1e-300):
                params = Params(m1, 1.0)
                re = build_relative_equilibrium(Family.HYPERBOLIC, 0.5, params)
                u1, u2 = mpmath.tanh(re.d1), mpmath.tanh(re.d2)
                pre = mpmath.mpf(re.omega) ** 2 * (u1 + u2) * u2 * mpmath.cosh(re.d2) ** 2
                pre /= 1 - u1 * u2
                a = rig_block(re)
                assert a[0, 0] == pytest.approx(float(pre), rel=1e-13)
                exact = pre / (u1 * u1 * u2 * u2)
                assert a[1, 1] == pytest.approx(float(exact), rel=1e-13), m1

    def test_always_positive_definite(self, rng):
        for _ in range(40):
            family = Family.HYPERBOLIC if rng.random() < 0.5 else Family.ELLIPTIC
            re = random_balanced_re(rng, family)
            np.linalg.cholesky(rig_block(re))  # raises on failure

    def test_elliptic_block_is_diagonal(self, rng):
        re = random_balanced_re(rng, Family.ELLIPTIC)
        a = rig_block(re)
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0

    def test_sign_of_omega_is_irrelevant(self, rng):
        d1, c = 0.45, 1.7
        plus = _elliptic_re(math.tanh(d1), c, sign=1)
        minus = _elliptic_re(math.tanh(d1), c, sign=-1)
        assert np.allclose(rig_block(plus), rig_block(minus), rtol=1e-14)

    def test_matches_80_digit_closed_form(self):
        # the same closed form with 1 - u1 u2 evaluated in 80 digits; in
        # binary64 that difference cancels as both tanh approach 1
        with mpmath.workdps(80):
            checked = 0
            for family, d1, c, d2 in _domain_grid(np.geomspace(1e-6, 19.0, 60), RATIOS):
                re = _re_on_grid(family, d1, c)
                u1, u2 = mpmath.tanh(d1), mpmath.tanh(d2)
                pre = mpmath.mpf(re.omega) ** 2 * (u1 + u2) * u2 * mpmath.cosh(d2) ** 2
                if family is Family.HYPERBOLIC:
                    pre /= 1 - u1 * u2
                    exact = [[pre, -pre], [-pre, pre / (u1 * u1 * u2 * u2)]]
                else:
                    exact = [[pre / (1 - u1 * u2), 0], [0, pre * (1 + u1 * u2)]]
                a = rig_block(re)
                for i in range(2):
                    for j in range(2):
                        if exact[i][j] == 0:
                            assert a[i, j] == 0.0
                        else:
                            err = abs((a[i, j] - exact[i][j]) / exact[i][j])
                            assert err < 1e-13, (family, d1, c, i, j, float(err))
                checked += 1
        assert checked >= 590


class TestInternalBlock:
    def test_matches_fd_oracle(self, rng):
        # closed form against the complex-step second derivative of the
        # augmented potential plus the inertia correction
        checked = 0
        while checked < 30:
            family = Family.HYPERBOLIC if rng.random() < 0.5 else Family.ELLIPTIC
            re = random_balanced_re(rng, family)
            closed = internal_block(re)
            band = 1e-6 * re.params.m2 ** 2 * re.params.k
            if abs(closed) < band:
                continue  # a vanishing block has no relative error to check
            oracle = _internal_oracle(re)
            assert oracle == pytest.approx(closed, rel=1e-5)
            checked += 1

    def test_oracle_matches_on_a_grid(self):
        # the complex-step oracle against the closed form across mass
        # ratios, both families, and d1 from 0.01 to 6
        for family, d1, c, _ in _domain_grid(np.geomspace(0.01, 6.0, 25), RATIOS):
            re = _re_on_grid(family, d1, c)
            closed = internal_block(re)
            oracle = _internal_oracle(re)
            assert oracle == pytest.approx(closed, rel=1e-8, abs=0.0), (family, d1, c)

    def test_hyperbolic_always_negative(self, rng):
        for _ in range(40):
            re = random_balanced_re(rng, Family.HYPERBOLIC)
            assert internal_block(re) < 0.0

    def test_elliptic_sign_follows_indicator(self, rng):
        for _ in range(40):
            re = random_balanced_re(rng, Family.ELLIPTIC)
            u, v = math.tanh(re.d1), math.tanh(re.d2)
            f = stability_indicator(u, v)
            if abs(f) < 1e-10:
                continue
            assert (internal_block(re) > 0.0) == (f > 0.0)

    def test_internal_direction_shape(self, rng):
        re = random_balanced_re(rng, Family.ELLIPTIC)
        w = v_int_generator(re.d1, re.d2)
        q1, q2 = re.config.q1, re.config.q2
        # tangential to the unit circle at each body
        assert w[0] * q1.x + w[1] * q1.y == pytest.approx(0.0, abs=1e-15)
        assert w[2] * q2.x + w[3] * q2.y == pytest.approx(0.0, abs=1e-15)

    def test_membership_in_isotropy(self, rng):
        # the correction element must sit in the momentum isotropy algebra
        for _ in range(30):
            family = Family.HYPERBOLIC if rng.random() < 0.5 else Family.ELLIPTIC
            re = random_balanced_re(rng, family)
            _, eta = internal_correction(re, locked_inertia(re.config, re.params))
            rep = internal_membership(re.family, eta)
            assert rep["complement_norm"] < 1e-7 * max(1.0, rep["member_norm"])

    def test_inertia_derivative_is_symmetric_fd(self, rng):
        # the complex step of the locked inertia along v_int, against
        # central differences of the same definition
        for _ in range(10):
            re = random_balanced_re(rng, Family.ELLIPTIC)
            w = v_int_generator(re.d1, re.d2)
            q = np.array(re.config.coords())
            m1, m2 = re.params.m1, re.params.m2
            dii = _cs_derivative(_locked_inertia, q, w, m1, m2)
            h = 1e-6
            fd = (
                np.array(_locked_inertia(*(q + h * w), m1, m2))
                - np.array(_locked_inertia(*(q - h * w), m1, m2))
            ) / (2.0 * h)
            scale = float(np.max(np.abs(dii)))
            assert 0.0 < scale < 1e6
            assert np.array_equal(dii, dii.T)
            assert np.allclose(dii, fd, rtol=0.0, atol=1e-7 * scale)


class TestClassifyStability:
    def test_stable_elliptic_example(self):
        rep = classify_stability(_elliptic_re(0.4, 1.0))
        assert rep.verdict is Verdict.STABLE
        assert rep.signature == ("+", "+", "+", "+")
        assert rep.rig_definite
        assert rep.internal > 0.0
        assert rep.u == pytest.approx(0.4, rel=1e-13)
        assert rep.d1 == pytest.approx(0.42364893019360184, rel=1e-14)

    def test_unstable_elliptic_example(self):
        rep = classify_stability(_elliptic_re(0.8, 1.0))
        assert rep.verdict is Verdict.UNSTABLE
        assert rep.signature == ("+", "+", "-", "+")

    def test_degenerate_at_threshold(self):
        u0 = threshold(1.0).u0
        rep = classify_stability(_elliptic_re(u0, 1.0))
        assert rep.verdict is Verdict.DEGENERATE
        assert rep.signature[2] == "0"

    def test_verdicts_over_the_domain(self):
        # elliptic verdicts follow the intrinsic bound and hyperbolic ones
        # are unstable, out to d1 = 19 where the internal block is ~1e-33;
        # degenerate only next to the threshold
        u0 = {c: threshold(c).u0 for c in np.geomspace(1e-2, 1e2, 15).tolist()}
        checked = 0
        for family, d1, c, _ in _domain_grid(np.geomspace(1e-6, 19.0, 120), u0):
            rep = classify_stability(_re_on_grid(family, d1, c))
            if rep.verdict is Verdict.DEGENERATE:
                assert family is Family.ELLIPTIC
                assert abs(math.tanh(d1) - u0[c]) < 1e-8, (d1, c)
            elif family is Family.HYPERBOLIC:
                assert rep.verdict is Verdict.UNSTABLE, (d1, c)
            else:
                stable = intrinsic_stability_bound(d1, c)
                assert rep.verdict is (Verdict.STABLE if stable else Verdict.UNSTABLE), (d1, c)
            checked += 1
        assert checked >= 3550

    def test_hyperbolic_always_unstable(self, rng):
        for _ in range(20):
            re = random_balanced_re(rng, Family.HYPERBOLIC)
            rep = classify_stability(re)
            assert rep.verdict is Verdict.UNSTABLE
            assert rep.rig_definite
            assert rep.signature == ("+", "+", "-", "+")

    def test_report_dict(self):
        rep = classify_stability(_elliptic_re(0.4, 2.0, m2=1.3, k=0.8))
        d = rep.as_dict()
        assert d["family"] == "elliptic"
        assert d["verdict"] in ("stable", "unstable", "degenerate")
        assert d["mass_ratio"] == pytest.approx(2.0, rel=1e-12)
        assert len(d["rig_block"]) == 2
        assert d["signature"][3] == "+"


class TestThreshold:
    def test_equal_mass_root(self):
        res = threshold(1.0)
        assert res.u0 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert res.d1 == pytest.approx(math.atanh(1.0 / math.sqrt(3.0)), abs=1e-12)
        assert res.residual < 1e-14

    def test_residual_small_on_log_grid(self):
        # out to c = 1e300, where 16 c^2 alone would overflow
        grid = np.concatenate([np.geomspace(0.02, 50.0, 40), np.geomspace(1e-12, 1e300, 200)])
        for c in grid:
            res = threshold(float(c))
            assert 0.0 < res.u0 < 1.0
            assert res.residual <= 1e-15, c

    def test_sign_change_across_root(self):
        for c in (0.3, 1.0, 5.0):
            u0 = threshold(c).u0
            assert stability_polynomial(u0 - 1e-3, c) < 0.0
            assert stability_polynomial(u0 + 1e-3, c) > 0.0

    def test_accurate_over_mass_ratio_range(self):
        # two checks independent of the solver: the intrinsic bound at d1
        # gives c back, and the threshold polynomial, evaluated exactly in
        # rationals, changes sign within 2 ulps of u0 (the root in u turns
        # triple at u = 1 as c -> 0, so float evaluation cannot tell)
        def poly(x, c):
            x, c = Fraction(x), Fraction(c)
            return (3 * x * x + 1) * (x * x - 1) ** 3 + 16 * c * c * x ** 6

        for c in np.geomspace(1e-12, 1e6, 37):
            c = float(c)
            res = threshold(c)
            back = math.sqrt(3.0 * math.tanh(res.d1) ** 2 + 1.0) / (
                4.0 * math.sinh(res.d1) ** 3
            )
            assert back == pytest.approx(c, rel=1e-14, abs=0.0)
            below = math.nextafter(math.nextafter(res.u0, 0.0), 0.0)
            above = math.nextafter(math.nextafter(res.u0, 1.0), 1.0)
            assert poly(below, c) < 0 < poly(above, c)

    def test_heavier_companion_shrinks_threshold(self):
        # the stable window in u shrinks as the mass ratio grows
        roots = [threshold(c).u0 for c in (0.25, 1.0, 4.0, 16.0)]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_rejects_bad_ratio(self):
        with pytest.raises(OutOfRange):
            threshold(0.0)
        with pytest.raises(OutOfRange):
            threshold(-2.0)


class TestIntrinsicBound:
    def test_matches_verdicts(self, rng):
        for _ in range(40):
            u = float(rng.uniform(0.1, 0.9))
            c = math.exp(float(rng.uniform(math.log(0.2), math.log(5.0))))
            re = _elliptic_re(u, c)
            rep = classify_stability(re)
            if rep.verdict is Verdict.DEGENERATE:
                continue
            assert intrinsic_stability_bound(re.d1, c) == (
                rep.verdict is Verdict.STABLE
            )

    def test_underflowing_cube(self):
        # sinh(d1)^3 underflows to 0: the bound is above any finite c
        assert intrinsic_stability_bound(1e-150, 1e160) is True

    def test_rejections(self):
        with pytest.raises(NonPositiveDistance):
            intrinsic_stability_bound(0.0, 1.0)
        with pytest.raises(OutOfRange):
            intrinsic_stability_bound(0.5, 0.0)


class TestMomentumProfile:
    def test_matches_phase_space_route(self, rng):
        # closed-form norm against the full momentum map at the same family
        # member, normalized masses
        for _ in range(20):
            u = float(rng.uniform(0.1, 0.9))
            c = math.exp(float(rng.uniform(math.log(0.3), math.log(3.0))))
            re = _elliptic_re(u, c)
            direct = momentum_of(re).norm()
            closed = momentum_norm_profile(c, [u])[0]
            assert direct == pytest.approx(closed, rel=1e-11)

    def test_fold_sits_at_threshold(self):
        for c in (0.5, 1.0, 2.0):
            grid = np.linspace(1e-4, 1.0 - 1e-4, 2001)
            prof = momentum_norm_profile(c, grid)
            imax = int(np.argmax(prof))
            u0 = threshold(c).u0
            assert abs(grid[imax] - u0) <= grid[1] - grid[0]

    def test_vanishes_at_family_ends(self):
        prof = momentum_norm_profile(1.0, [1e-6, 1.0 - 1e-7])
        assert prof[0] < 1e-3
        assert prof[1] < 1e-3


def test_momentum_of_uses_full_map(rng):
    # omega sign flips the momentum but not its norm
    plus = _elliptic_re(0.5, 1.5, sign=1)
    minus = _elliptic_re(0.5, 1.5, sign=-1)
    assert momentum_of(plus).norm() == pytest.approx(
        momentum_of(minus).norm(), rel=1e-13
    )
    assert momentum_of(plus).e == pytest.approx(-momentum_of(minus).e, rel=1e-13)
