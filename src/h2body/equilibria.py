"""Relative equilibria of the two-body problem.

Every relative equilibrium can be moved by an isometry to a canonical
position: center of mass at (0, 1) and both bodies on the unit
half-circle, body 1 at (tanh d1, sech d1) and body 2 at (-tanh d2, sech d2),
where d1 and d2 are their arc distances to the center of mass. Two
one-parameter families exist, generated by the dilation field (bodies race
along a common geodesic) and the rotation field (bodies circle the fixed
center of mass). Mixed rotation-translation and parabolic generators admit
no equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonPositiveDistance, OracleMismatch, OutOfRange
from .geom import (
    Orientation,
    Point,
    _tanh_sech,
    exponential_map,
    geodesic_direction,
    separation,
)
from .liegroup import (
    XI_E,
    XI_H,
    XI_P,
    AlgebraElement,
    GroupElement,
    generator_field,
    moebius_act,
    normalizing_isometry,
)
from .dynamics import (
    Configuration,
    Params,
    PhaseState,
    augmented_potential_gradient,
    generator_momenta,
    legendre,
)

# z -> -1/z; on the unit half-circle this is the reflection (x, y) -> (-x, y)
_QUARTER_TURN = GroupElement(0.0, -1.0, 1.0, 0.0)


class Family(Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"


# -- center of mass ------------------------------------------------------

@dataclass(frozen=True)
class CenterOfMassSplit:
    """Center of mass with the arc distances to each body, d1 + d2 = d."""

    com: Point
    d1: float
    d2: float


def _center_of_mass(x1, y1, x2, y2, m1, m2):
    """Center of mass (cx, cy), its distance a to body 1 and the distance d
    between the bodies; floats or arrays alike.

    m1 sinh(2 a) = m2 sinh(2 (d - a)) solves to
    e^(4a) = (m1 + m2 e^(2d)) / (m1 + m2 e^(-2d)), written with log1p and
    expm1 so it keeps full precision at small and large d alike.
    """
    d = separation(x1, y1, x2, y2)
    ratio = (m2 - m1) * -np.expm1(-2.0 * d) / (m1 + m2 * np.exp(-2.0 * d))
    a = 0.5 * d + 0.25 * np.log1p(ratio)
    tx, ty = geodesic_direction(x1, y1, x2, y2)
    cx, cy, _, _ = exponential_map(x1, y1, tx, ty, a)
    return cx, cy, a, d


def center_of_mass(q1: Point, q2: Point, params: Params) -> CenterOfMassSplit:
    """Point on the connecting geodesic where m1 sinh(2 d1) = m2 sinh(2 d2).

    d1 and d2 are the arc distances to bodies 1 and 2; the balance has the
    closed-form root of _center_of_mass.
    """
    cx, cy, a, d = _center_of_mass(q1.x, q1.y, q2.x, q2.y, params.m1, params.m2)
    return CenterOfMassSplit(com=Point(float(cx), float(cy)), d1=float(a), d2=float(d - a))


def _check_distances(**named: float) -> None:
    """Arc distances must be positive, and small enough that tanh(d) < 1 in
    binary64 (d below about 19.06): the canonical position needs it."""
    for name, d in named.items():
        if not d > 0.0:
            raise NonPositiveDistance(f"{name} must be positive, got {d!r}")
        if math.tanh(d) == 1.0:
            raise OutOfRange(f"{name} = {d!r} is out of range: tanh({name}) rounds to 1")


def partner_distance(d1: float, params: Params) -> float:
    """The d2 that balances d1: m1 sinh(2 d1) = m2 sinh(2 d2)."""
    _check_distances(d1=d1)
    return 0.5 * math.asinh(params.m1 / params.m2 * math.sinh(2.0 * d1))


# -- canonical position --------------------------------------------------

def canonical_configuration(d1: float, d2: float) -> Configuration:
    """Bodies at (tanh d1, sech d1) and (-tanh d2, sech d2) on the unit
    circle, at arc distances d1 and d2 from (0, 1)."""
    _check_distances(d1=d1, d2=d2)
    u1, s1 = _tanh_sech(d1)
    u2, s2 = _tanh_sech(d2)
    return Configuration(Point(u1, s1), Point(-u2, s2))


def momentum_at_canonical(d1: float, E: float, H: float, P: float, params: Params) -> np.ndarray:
    """Momentum matrix at the canonical configuration of d1 and its partner
    distance, moving with generator (E, H, P), as a 2x2 coalgebra matrix."""
    u1, s1 = _tanh_sech(d1)
    u2, s2 = _tanh_sech(partner_distance(d1, params))
    f = params.m2 * (u2 + u1) / (2.0 * s2 * s2 * u1)
    return f * np.array(
        [
            [H, (1.0 - 2.0 * u1 * u2) * P + u1 * u2 * E],
            [P - u1 * u2 * E, -H],
        ]
    )


@dataclass(frozen=True)
class CanonicalForm:
    """Result of moving a configuration to canonical position."""

    isometry: GroupElement
    d1: float
    d2: float


def to_canonical(q1: Point, q2: Point, params: Params) -> CanonicalForm:
    """Isometry taking the pair to canonical position.

    Sends the center of mass to (0, 1) and the connecting geodesic to the
    unit half-circle; if body 1 lands in the second quadrant, a quarter
    turn (z -> -1/z) flips the circle so it lands in the first. d1 and d2
    are the arc distances of center_of_mass.
    """
    split = center_of_mass(q1, q2, params)
    com = split.com
    tx, ty = geodesic_direction(com.x, com.y, q2.x, q2.y)
    g = normalizing_isometry(com, math.atan2(ty, tx))
    if moebius_act(g, q1).x < 0.0:
        g = _QUARTER_TURN.compose(g)
    return CanonicalForm(isometry=g, d1=split.d1, d2=split.d2)


# -- admissible generators -----------------------------------------------

@dataclass(frozen=True)
class GeneratorCases:
    """Which generator directions can produce relative equilibria at a
    canonical configuration.

    The dilation and rotation cases each come with the rate that makes the
    augmented potential critical (the same squared rate for both). The
    mixed rotation-translation direction has no critical rate: its
    closed-form obstruction ``mixed_residual`` is positive whenever both
    distances are, and the reported minimum of the gradient norm over rates
    stays positive as the numerical route to the same fact. Parabolic
    generators fail earlier, their momentum commutator is nonzero for any
    nonzero rate.
    """

    d1: float
    d2: float
    params: Params
    omega2: float
    dilation_gradient_norm: float
    rotation_gradient_norm: float
    mixed_residual: float
    mixed_min_gradient_norm: float
    parabolic_commutator_norm: float

    def commutator(self, E: float, H: float, P: float) -> np.ndarray:
        """[J, xi] at the canonical configuration moving with (E, H, P)."""
        j = momentum_at_canonical(self.d1, E, H, P, self.params)
        m = AlgebraElement(E, H, P).matrix()
        return j @ m - m @ j

    @property
    def dilation_admissible(self) -> bool:
        return self.dilation_gradient_norm <= 1e-8 * self._scale()

    @property
    def rotation_admissible(self) -> bool:
        return self.rotation_gradient_norm <= 1e-8 * self._scale()

    @property
    def mixed_admissible(self) -> bool:
        return self.mixed_min_gradient_norm <= 1e-8 * self._scale()

    def _scale(self):
        return self.params.k * self.params.m1 * self.params.m2


def _omega2_canonical(d1: float, d2: float, params: Params) -> float:
    """Squared equilibrium rate in canonical position, from u = tanh(d) and
    s = sech(d) of each body; shared by the dilation and rotation families."""
    u1, s1 = _tanh_sech(d1)
    u2, s2 = _tanh_sech(d2)
    # the mass last: at tiny m1 an earlier product of it would be subnormal
    return params.k * (s1 * s1 * s2 * s2 / (u1 + u2) ** 2 * (s2 * s2 / u2)) * params.m1


def admissible_generators(d1: float, params: Params) -> GeneratorCases:
    """Scan the commuting generator directions at the canonical configuration of d1.

    For each direction the relevant test is whether some rate makes the
    augmented potential critical there; the returned report carries the
    gradient norms. Mixed directions are scanned over a rate grid and
    polished with a golden-section refinement.
    """
    d2 = partner_distance(d1, params)
    config = canonical_configuration(d1, d2)
    omega2 = _omega2_canonical(d1, d2, params)
    omega = math.sqrt(omega2)

    def grad_norm(xi):
        return float(
            np.linalg.norm(augmented_potential_gradient(config, params, xi))
        )

    dilation = grad_norm(omega * XI_H)
    rotation = grad_norm(omega * XI_E)

    mixed_dir = AlgebraElement(1.0, 0.0, 1.0)
    mixed = min(grad_norm(w * mixed_dir) for w in np.linspace(0.0, 4.0 * omega, 161))
    lo, hi = 0.0, 4.0 * omega
    for _ in range(80):
        probe_a = lo + (hi - lo) / 3.0
        probe_b = hi - (hi - lo) / 3.0
        if grad_norm(probe_a * mixed_dir) < grad_norm(probe_b * mixed_dir):
            hi = probe_b
        else:
            lo = probe_a
    mixed = min(mixed, grad_norm(0.5 * (lo + hi) * mixed_dir))

    u1, s1 = _tanh_sech(d1)
    u2, s2 = _tanh_sech(d2)
    # criticality obstruction of the mixed direction in closed form
    residual = params.m2 ** 2 * params.k * u2 * s2 * s2 * s1 ** 4 * (u1 + u2)

    j = momentum_at_canonical(d1, 0.0, 0.0, 1.0, params)
    m = XI_P.matrix()
    comm = j @ m - m @ j
    parabolic = float(np.sqrt(np.sum(comm * comm)))

    return GeneratorCases(
        d1=d1,
        d2=d2,
        params=params,
        omega2=omega2,
        dilation_gradient_norm=dilation,
        rotation_gradient_norm=rotation,
        mixed_residual=residual,
        mixed_min_gradient_norm=mixed,
        parabolic_commutator_norm=parabolic,
    )


# -- the two families ----------------------------------------------------

@dataclass(frozen=True)
class RelativeEquilibrium:
    """A relative equilibrium in canonical position.

    ``omega`` is the signed rate; the generator is omega times the
    dilation field (hyperbolic family) or the rotation field (elliptic
    family). The distance between the bodies is d1 + d2.
    """

    family: Family
    params: Params
    d1: float
    d2: float
    omega: float
    xi: AlgebraElement
    config: Configuration

    @property
    def distance(self) -> float:
        return self.d1 + self.d2

    @property
    def period(self) -> float:
        """Period of the elliptic motion, 2 pi / |omega|."""
        return 2.0 * math.pi / abs(self.omega)


def build_relative_equilibrium(
    family: Family, d1: float, params: Params, sign: int = 1
) -> RelativeEquilibrium:
    """Construct the relative equilibrium with body 1 at arc distance d1.

    Body 2 sits at the d2 that balances the masses, m1 sinh(2 d1) =
    m2 sinh(2 d2). ``sign`` picks the sense of motion. The construction
    cross-checks the intrinsic and canonical-position rate formulas and the
    criticality of the augmented potential before returning, and raises
    OracleMismatch if either fails.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    d2 = partner_distance(d1, params)

    # the collision cutoff first: at tiny d the rate formulas divide by an
    # underflowed sinh(d)^2
    config = canonical_configuration(d1, d2)
    d = d1 + d2
    num, den = 2.0 * params.k * params.m1, math.sinh(d) ** 2 * math.sinh(2.0 * d2)
    omega2 = num / den if den else 0.0
    if not 0.0 < omega2 < math.inf:
        # the denominator or the quotient underflowed (no motion, no period),
        # or the quotient overflowed
        raise OutOfRange(
            "the rate is out of range: omega^2 = 2 k m1 / (sinh(d)^2 sinh(2 d2)) "
            f"= {num!r} / {den!r} {'overflows' if omega2 else 'underflows'}"
        )
    omega2_alt = 2.0 * params.k * params.m2 / (math.sinh(d) ** 2 * math.sinh(2.0 * d1))
    omega2_canonical = _omega2_canonical(d1, d2, params)
    if (
        abs(omega2 - omega2_canonical) > 1e-10 * omega2
        or abs(omega2 - omega2_alt) > 1e-8 * omega2
    ):
        raise OracleMismatch(
            "rate formulas disagree: intrinsic "
            f"{omega2:.17g} / {omega2_alt:.17g}, canonical {omega2_canonical:.17g}"
        )

    omega = sign * math.sqrt(omega2)
    basis = XI_H if family is Family.HYPERBOLIC else XI_E
    xi = omega * basis

    grad = augmented_potential_gradient(config, params, xi)
    # the gradient's terms scale like the force k m1 m2 / sinh(d)^2
    force = params.k * params.m1 * params.m2 / math.sinh(d) ** 2
    # hypot scales before it squares, so large components do not overflow
    grad_norm = math.hypot(*grad)
    if grad_norm > 1e-8 * max(1.0, force):
        raise OracleMismatch(f"augmented potential is not critical (|grad| = {grad_norm:.3e})")

    return RelativeEquilibrium(
        family=family,
        params=params,
        d1=d1,
        d2=d2,
        omega=omega,
        xi=xi,
        config=config,
    )


def initial_state(re: RelativeEquilibrium) -> PhaseState:
    """Phase state of the equilibrium motion at t = 0."""
    return legendre(re.config, re.params, re.xi)


def _one_plus_u_sin(u, s, cw, sw):
    """1 + u sin(w) for u = tanh(d), s = sech(d), without cancellation.

    Near u = 1 it is (1 + sin) - (1 - u) sin with 1 - u = s^2 / (1 + u),
    and 1 + sin = cos^2 / (1 - sin) where sin < 0. Below u = 1/2 the direct
    form is accurate to rounding and the split would cancel instead.
    """
    if u < 0.5:
        return 1.0 + u * sw
    one_plus = np.where(sw >= 0.0, 1.0 + sw, cw * cw / (1.0 + np.abs(sw)))
    return one_plus - s * s / (1.0 + u) * sw


def analytic_states(re: RelativeEquilibrium, ts) -> np.ndarray:
    """Exact states at the times ts, as an (..., 8) array.

    Hyperbolic family: both bodies slide along the common geodesic, the
    canonical picture scaled by exp(omega t). Elliptic family: rigid
    rotation of the unit circle about (0, 1). Momenta come from the
    generator at the transported configuration. Positions are built from
    u = tanh(d) and s = sech(d) of each body.
    """
    w = re.omega * np.asarray(ts, dtype=float)
    u1, s1 = _tanh_sech(re.d1)
    u2, s2 = _tanh_sech(re.d2)
    if re.family is Family.HYPERBOLIC:
        lam = np.exp(w)
        x1, y1, x2, y2 = lam * u1, lam * s1, -lam * u2, lam * s2
    else:
        cw, sw = np.cos(w), np.sin(w)
        f1 = _one_plus_u_sin(u1, s1, cw, sw)
        f2 = _one_plus_u_sin(u2, s2, cw, -sw)
        x1, y1 = u1 * cw / f1, s1 / f1
        x2, y2 = -u2 * cw / f2, s2 / f2
    p = generator_momenta(re.xi, x1, y1, x2, y2, re.params)
    return np.stack([x1, y1, x2, y2, *p], axis=-1)


def analytic_trajectory(re: RelativeEquilibrium, t: float) -> PhaseState:
    """Exact state at time t; see analytic_states."""
    return PhaseState.from_array(analytic_states(re, t))


# -- intrinsic verification ----------------------------------------------

# times per orbit (elliptic) or per 10 / max(1, |omega|) (hyperbolic)
# at which intrinsic_checks samples the motion
_INTRINSIC_SAMPLES = 16


@dataclass(frozen=True)
class IntrinsicReport:
    """Geometric facts checked along an equilibrium trajectory."""

    family: Family
    n_samples: int
    expected_orientation: Orientation
    orientation: Orientation | None
    orientation_consistent: bool
    expected_speeds: tuple[float, float]
    max_speed_error: float
    max_perp_residual: float
    max_com_error: float
    com_speed: float
    ok: bool

    def as_dict(self) -> dict:
        return {
            "family": self.family.value,
            "n_samples": self.n_samples,
            "expected_orientation": self.expected_orientation.value,
            "orientation": self.orientation.value if self.orientation else None,
            "orientation_consistent": self.orientation_consistent,
            "expected_speeds": list(self.expected_speeds),
            "max_speed_error": self.max_speed_error,
            "max_perp_residual": self.max_perp_residual,
            "max_com_error": self.max_com_error,
            "com_speed": self.com_speed,
            "ok": self.ok,
        }


def intrinsic_checks(re: RelativeEquilibrium) -> IntrinsicReport:
    """Verify the hallmark geometry of the motion at sampled times.

    Checks that body velocities stay normal to the connecting geodesic,
    that the two normals point to the same side for the hyperbolic family
    and to opposite sides for the elliptic one, that speeds match
    |omega| cosh(d_i) respectively |omega| sinh(d_i), and that the center
    of mass moves up a vertical geodesic at speed |omega| (hyperbolic) or
    stays pinned at (0, 1) (elliptic).
    """
    w = abs(re.omega)
    if re.family is Family.HYPERBOLIC:
        expected = Orientation.EQUAL
        speeds = (w * math.cosh(re.d1), w * math.cosh(re.d2))
        t_max = 10.0 / max(1.0, w)
    else:
        expected = Orientation.OPPOSITE
        speeds = (w * math.sinh(re.d1), w * math.sinh(re.d2))
        t_max = re.period
    # linspace(0, t_max, _INTRINSIC_SAMPLES, endpoint=False), bit for bit
    times = np.arange(_INTRINSIC_SAMPLES) * (t_max / _INTRINSIC_SAMPLES)
    z = analytic_states(re, times)

    # columns: body 1, body 2; each looks along the geodesic at the other
    bodies = z[:, :4].reshape(-1, 2, 2)
    x, y = bodies[..., 0], bodies[..., 1]
    tx, ty = geodesic_direction(x, y, x[:, ::-1], y[:, ::-1])
    vx, vy = generator_field(re.xi, x, y)
    vnorm = np.hypot(vx, vy)
    max_perp = float(np.max(np.abs(vx * tx + vy * ty) / vnorm))
    max_speed_err = float(np.max(np.abs(vnorm / y - np.array(speeds))))
    # the two tangents point opposite ways, so equal sides flip one sign
    det = np.sign(tx * vy - ty * vx)
    equal_side = -det[:, 0] * det[:, 1] > 0.0

    cx, cy, _, _ = _center_of_mass(*z[:, :4].T, re.params.m1, re.params.m2)
    com_y = np.exp(re.omega * times) if re.family is Family.HYPERBOLIC else 1.0
    max_com_err = float(np.max(separation(cx, cy, 0.0, com_y)))

    verdict = None
    if equal_side.all():
        verdict = Orientation.EQUAL
    elif not equal_side.any():
        verdict = Orientation.OPPOSITE
    ok = (
        verdict is expected
        and max_perp <= 1e-9
        and max_speed_err <= 1e-9 * max(1.0, speeds[0], speeds[1])
        and max_com_err <= 1e-9
    )
    return IntrinsicReport(
        family=re.family,
        n_samples=len(times),
        expected_orientation=expected,
        orientation=verdict,
        orientation_consistent=verdict is not None,
        expected_speeds=speeds,
        max_speed_error=max_speed_err,
        max_perp_residual=max_perp,
        max_com_error=max_com_err,
        com_speed=w if re.family is Family.HYPERBOLIC else 0.0,
        ok=ok,
    )
