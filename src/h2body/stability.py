"""Nonlinear stability of the relative equilibria.

The reduced energy-momentum test splits the admissible variations at an
equilibrium into a rigid part, spanned by algebra directions transverse to
the momentum isotropy, and an internal shape part. Definiteness of the
second variation on each part decides stability. Both blocks have closed
forms here; each also has an independent numerical oracle so the closed
forms never go unchecked. The rigid block is assembled from its definition.
The internal block is differentiated exactly through the chart definitions
of the augmented potential and the locked inertia, by the complex step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonPositiveDistance, OutOfRange
from .geom import _tanh_sech
from .liegroup import (
    XI_E,
    XI_H,
    XI_P,
    AlgebraElement,
    CoalgebraElement,
    ad_star,
    bracket,
)
from .dynamics import (
    Params,
    _augmented_potential_gradient,
    _locked_inertia,
    legendre,
    momentum_map,
)
from .equilibria import Family, RelativeEquilibrium

# |stability indicator| below this is reported as degenerate
_DEGENERATE_BAND = 1e-9
# imaginary step of the complex-step derivative; it enters only at second
# order, so any step this small is exact to rounding
_CS_STEP = 1e-30


class Verdict(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    DEGENERATE = "degenerate"


# -- shape functions of the elliptic family ------------------------------

def stability_indicator(u: float, v: float) -> float:
    """Sign decides elliptic stability: positive on the stable side.

    u and v are tanh of the arc distances of the bodies to the center of
    mass.
    """
    return 1.0 - 3.0 * u * u * v * v - u * u - v * v


def v_of_u(u: float, c: float) -> float:
    """Partner cosine: the v in (0, 1) balancing mass ratio c at cosine u.

    Positive root of c u v^2 + (1 - u^2) v - c u = 0, the mass-balance
    relation cleared of denominators; v = u when c = 1.
    """
    if not 0.0 < u < 1.0:
        raise OutOfRange(f"u must lie in (0, 1), got {u!r}")
    if not c > 0.0:
        raise OutOfRange(f"mass ratio must be positive, got {c!r}")
    t = u * u - 1.0
    return (t + math.sqrt(t * t + 4.0 * c * c * u * u)) / (2.0 * c * u)


def stability_polynomial(x: float, c: float) -> float:
    """Polynomial whose unique root in (0, 1) is the stability threshold.

    Equals (3 x^2 + 1)(x^2 - 1)^3 + 16 c^2 x^6; negative exactly on the
    stable side. The last term is squared as (4 c x^3)^2, grouped so that
    no factor overflows while the threshold is representable."""
    x2 = x * x
    return (3.0 * x2 + 1.0) * (x2 - 1.0) ** 3 + (4.0 * (c * x) * x2) ** 2


# -- momentum and rigid block --------------------------------------------

def momentum_of(re: RelativeEquilibrium) -> CoalgebraElement:
    """Momentum of the equilibrium motion, via the full phase-space map."""
    return momentum_map(legendre(re.config, re.params, re.xi))


def rig_basis(family: Family) -> tuple[AlgebraElement, AlgebraElement]:
    """Algebra directions transverse to the momentum isotropy subalgebra.

    The hyperbolic family's momentum is dual to the dilation, so rotation
    and translation are transverse; the elliptic family's momentum is dual
    to the rotation, leaving the dilation and a rotation-translation mix.
    """
    if family is Family.HYPERBOLIC:
        return XI_E, XI_P
    return XI_H, XI_E + XI_P


def rig_block(re: RelativeEquilibrium) -> np.ndarray:
    """Closed-form rigid block of the second variation, in rig_basis order."""
    u1, s1 = _tanh_sech(re.d1)
    u2, s2 = _tanh_sech(re.d2)
    # 1 - u1 u2 without the cancellation as both tanh approach 1
    one_minus = s1 * s2 * math.cosh(re.d1 - re.d2)
    w2 = re.omega * re.omega
    m2 = re.params.m2
    if re.family is Family.HYPERBOLIC:
        pre = m2 * w2 * (u1 + u2) * u2 / (s2 * s2 * one_minus)
        # pre / (u1 u2)^2, dividing by u1 u2 twice: at extreme mass ratios
        # (u1 u2)^2 underflows while pre / (u1 u2) does not
        corner = pre / (u1 * u2) / (u1 * u2)
        return np.array([[pre, -pre], [-pre, corner]])
    pre = m2 * w2 * (u1 + u2) * u2 / (s2 * s2)
    # the zeros are exact, so an infinite pre leaves them zero, not NaN
    return np.array(
        [[pre * (1.0 / one_minus), 0.0], [0.0, pre * (1.0 + u1 * u2)]]
    )


def _inverse_apply(ii: np.ndarray, *mus: CoalgebraElement) -> list[AlgebraElement]:
    """II^{-1} of each coalgebra element, from one solve."""
    sol = np.linalg.solve(ii, np.array([c.coords() for c in mus]).T)
    return [AlgebraElement(*col) for col in sol.T.tolist()]


def rig_block_oracle(re: RelativeEquilibrium, ii: np.ndarray) -> np.ndarray:
    """Rigid block assembled from its definition, on the locked inertia ii.

    Entry (i, j) pairs ad*_{lam_i} mu against the algebra correction
    II^{-1} ad*_{lam_j} mu + [lam_j, II^{-1} mu], with mu taken from the
    phase-space momentum map rather than any closed form.
    """
    mu = momentum_of(re)
    lams = rig_basis(re.family)
    lhs = [ad_star(lam, mu) for lam in lams]
    xi0, *inv_lhs = _inverse_apply(ii, mu, *lhs)
    out = np.empty((2, 2))
    for j, lj in enumerate(lams):
        rhs = inv_lhs[j] + bracket(lj, xi0)
        for i in range(2):
            out[i, j] = lhs[i].pair(rhs)
    return out


# -- internal block ------------------------------------------------------

def v_int_generator(d1: float, d2: float) -> np.ndarray:
    """Chart direction spanning the internal variation space, ordered
    (x1, y1, x2, y2). The same direction works for both families: it is
    tangential at each body, hence metric-orthogonal to the radial
    isotropy orbit directions."""
    u1, s1 = _tanh_sech(d1)
    u2, s2 = _tanh_sech(d2)
    return np.array(
        [
            -s1 * s1 * u1 * (u2 * u2 + 1.0),
            s1 * u1 * u1 * (u2 * u2 + 1.0),
            s2 * s2 * u2 * (u1 * u1 + 1.0),
            s2 * u2 * u2 * (u1 * u1 + 1.0),
        ]
    )


def internal_block(re: RelativeEquilibrium) -> float:
    """Closed-form internal (shape) block on the v_int direction.

    Negative for every hyperbolic-family equilibrium. For the elliptic
    family the sign follows the stability indicator at u = tanh(d1),
    v = tanh(d2)."""
    u, s1 = _tanh_sech(re.d1)
    v = math.tanh(re.d2)
    m2, k = re.params.m2, re.params.k
    if re.family is Family.HYPERBOLIC:
        return (
            -k
            * m2
            * m2
            * v
            * s1 ** 4
            * (u * v + 1.0)
            * (u * u + s1 * s1 * v * v + 3.0)
            / ((u + v) * u)
        )
    return (
        m2
        * m2
        * k
        * v
        * s1 ** 4
        * (1.0 + u * v)
        * stability_indicator(u, v)
        / (u * (u + v))
    )


def _cs_derivative(f, q, w, *args):
    """Derivative of f(q, *args) along w at the chart point q, by the
    complex step Im f(q + i h w, *args) / h (Squire & Trapp, SIAM Rev. 40,
    1998).

    Exact to rounding for any f built from + - * / and sqrt: nothing is
    subtracted, so no step size trades truncation against cancellation.
    """
    z = f(*(qi + 1j * _CS_STEP * wi for qi, wi in zip(q, w)), *args)
    return np.imag(z) / _CS_STEP


def internal_correction(re: RelativeEquilibrium, ii: np.ndarray) -> tuple[float, AlgebraElement]:
    """Momentum-constraint correction <(DII w) xi, II^{-1} (DII w) xi> along
    the internal direction w, on the locked inertia ii, and the algebra
    element eta = II^{-1} (DII w) xi it hinges on."""
    w = v_int_generator(re.d1, re.d2)
    q, p = re.config.coords(), re.params
    dii = _cs_derivative(_locked_inertia, q, w, p.m1, p.m2)
    mvec = dii @ re.xi.coords()
    (eta,) = _inverse_apply(ii, CoalgebraElement(*mvec))
    return float(mvec @ eta.coords()), eta


def internal_block_oracle(re: RelativeEquilibrium, correction: float) -> float:
    """Internal block from the definitions, independent of the closed form.

    Second derivative of the augmented potential along the internal
    direction w, as w . (complex step of its chart gradient along w), plus
    the correction of internal_correction. The tests hold that gradient to
    the complex step of the augmented potential itself.

    The augmented potential at coupling k and generator xi is k times its
    value at coupling 1 and xi / sqrt(k), so the step is taken there, in
    units where a tiny k leaves no term of the imaginary part subnormal."""
    w = v_int_generator(re.d1, re.d2)
    q = re.config.coords()
    k = re.params.k
    unit = Params(re.params.m1, re.params.m2, 1.0)
    hess_w = _cs_derivative(_augmented_potential_gradient, q, w, unit, re.xi * (1 / math.sqrt(k)))
    return k * float(w @ hess_w) + correction


def internal_membership(family: Family, eta: AlgebraElement) -> dict:
    """Check that eta of internal_correction lies in the momentum isotropy.

    Returns the coordinates of II^{-1} (DII w) xi together with the norms
    of its isotropy component and of the complement; the complement should
    vanish, which is what makes the one-direction internal block complete.
    """
    if family is Family.HYPERBOLIC:
        member = abs(eta.H)
        complement = math.hypot(eta.E, eta.P)
    else:
        member = abs(eta.E)
        complement = math.hypot(eta.H, eta.P)
    return {
        "coords": (eta.E, eta.H, eta.P),
        "member_norm": member,
        "complement_norm": complement,
    }


# -- verdicts ------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the reduced energy-momentum test at one equilibrium."""

    family: Family
    d1: float
    d2: float
    omega: float
    mass_ratio: float
    u: float
    v: float
    rig: np.ndarray
    rig_definite: bool
    internal: float
    signature: tuple[str, str, str, str]
    verdict: Verdict

    def as_dict(self) -> dict:
        return {
            "family": self.family.value,
            "d1": self.d1,
            "d2": self.d2,
            "omega": self.omega,
            "mass_ratio": self.mass_ratio,
            "u": self.u,
            "v": self.v,
            "rig_block": [list(map(float, row)) for row in self.rig],
            "rig_definite": self.rig_definite,
            "internal_block": self.internal,
            "signature": list(self.signature),
            "verdict": self.verdict.value,
        }


def classify_stability(re: RelativeEquilibrium) -> StabilityReport:
    """Run the reduced energy-momentum test on an equilibrium.

    The signature lists the sign of the two rigid directions, the internal
    direction, and the kinetic block (positive by construction). All plus
    means nonlinearly stable modulo the residual symmetry; a minus means
    unstable. A zero marks the degenerate band where the quadratic test is
    silent: elliptic equilibria whose stability indicator, the dimensionless
    factor that sets the sign of the internal block, is below 1e-9 in
    magnitude. The hyperbolic block is minus a product of positive factors,
    so that family is never degenerate.
    """
    ar = rig_block(re)
    try:
        np.linalg.cholesky(ar)
        ar_definite = True
    except np.linalg.LinAlgError:
        ar_definite = False
    internal = internal_block(re)
    u, v = math.tanh(re.d1), math.tanh(re.d2)

    ar_signs = ("+", "+") if ar_definite else ("-", "-")
    if (
        re.family is Family.ELLIPTIC
        and abs(stability_indicator(u, v)) < _DEGENERATE_BAND
    ):
        internal_sign = "0"
        verdict = Verdict.DEGENERATE
    elif internal > 0.0:
        internal_sign = "+"
        verdict = Verdict.STABLE if ar_definite else Verdict.UNSTABLE
    else:
        internal_sign = "-"
        verdict = Verdict.UNSTABLE

    return StabilityReport(
        family=re.family,
        d1=re.d1,
        d2=re.d2,
        omega=re.omega,
        mass_ratio=re.params.m1 / re.params.m2,
        u=u,
        v=v,
        rig=ar,
        rig_definite=ar_definite,
        internal=internal,
        signature=ar_signs + (internal_sign, "+"),
        verdict=verdict,
    )


# -- threshold curve -----------------------------------------------------

@dataclass(frozen=True)
class MassRatioCurve:
    """A point of the stability threshold curve at mass ratio c."""

    c: float
    u0: float
    d1: float
    residual: float


def threshold(c: float) -> MassRatioCurve:
    """Stability threshold for the elliptic family at mass ratio c.

    Solves the boundary of intrinsic_stability_bound, cleared of roots, for
    r = sinh(d1)^2: f(r) = 16 c^2 r^3 (1 + r) - (1 + 4 r) = 0. Unlike the
    stability polynomial in u0 = tanh(d1), whose root turns triple at u = 1
    as c -> 0, this root stays simple. f is convex, f(r0) < 0 < f(2 r0) at
    r0 = (4 c)^(-2/3), so Newton's method from 2 r0 falls monotonically
    onto the root. At c = 1, u0 = 1/sqrt(3).
    """
    if not c > 0.0:
        raise OutOfRange(f"mass ratio must be positive, got {c!r}")
    # 2 r0, with (4 c)^(-2/3) split so that 4 c cannot overflow
    r = 2.0 * 4.0 ** (-2.0 / 3.0) * c ** (-2.0 / 3.0)
    for _ in range(100):
        q2 = (4.0 * (c * r) * math.sqrt(r)) ** 2  # 16 c^2 r^3, no factor overflows
        f = q2 * (1.0 + r) - (1.0 + 4.0 * r)
        df = q2 * (3.0 / r + 4.0) - 4.0
        nxt = r - f / df
        if not nxt < r:
            break
        r = nxt
    u0 = math.sqrt(r / (1.0 + r))
    residual = abs(stability_polynomial(u0, c))
    return MassRatioCurve(c=c, u0=u0, d1=math.asinh(math.sqrt(r)), residual=residual)


def intrinsic_stability_bound(d1: float, c: float) -> bool:
    """Stability test in intrinsic data: true when the mass ratio sits
    below sqrt(3 tanh(d1)^2 + 1) / (4 sinh(d1)^3)."""
    if not d1 > 0.0:
        raise NonPositiveDistance(f"d1 must be positive, got {d1!r}")
    if not c > 0.0:
        raise OutOfRange(f"mass ratio must be positive, got {c!r}")
    t = math.tanh(d1)
    cube = math.sinh(d1) ** 3
    # a cube that underflows puts the bound above every finite c
    return cube == 0.0 or c < math.sqrt(3.0 * t * t + 1.0) / (4.0 * cube)


def momentum_norm_profile(c: float, u_grid) -> np.ndarray:
    """Frobenius norm of the elliptic-family momentum along the family.

    Normalized to m2 = k = 1, m1 = c. Vanishes at both ends of (0, 1) and
    is extremal exactly where the stability indicator vanishes, which ties
    the fold of this curve to the loss of stability.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    lam = c / math.sqrt(2.0)
    out = np.empty_like(u_grid)
    for i, u in enumerate(u_grid):
        v = v_of_u(float(u), c)
        out[i] = lam * math.sqrt(u * (1.0 - v * v))
    return out
