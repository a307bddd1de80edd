"""Two-body problem on the hyperbolic plane.

Geometry of the upper half-plane, its isometry group, the two-body
Hamiltonian system, both families of relative equilibria, their nonlinear
stability by the reduced energy-momentum test, and a reproducible
simulation layer. See the demos directory for worked examples.
"""

from .errors import (
    Collision,
    CollisionDuringIntegration,
    CoincidentPoints,
    H2BodyError,
    IntegrationError,
    NonPositiveDistance,
    OracleMismatch,
    OutOfRange,
    ScenarioError,
    StepSizeUnderflow,
)
from .geom import (
    Orientation,
    Point,
    TangentVector,
    geodesic_point_at,
    geodesic_through,
    hyperbolic_distance,
    hyperbolic_inner,
    separation,
)
from .liegroup import (
    XI_E,
    XI_H,
    XI_P,
    AlgebraElement,
    Classification,
    CoalgebraElement,
    ElementType,
    GroupElement,
    ad_star,
    adjoint,
    bracket,
    classify,
    coadjoint,
    flow,
    identity,
    infinitesimal_generator,
    moebius_act,
    moebius_act_tangent,
    normalizing_isometry,
)
from .dynamics import (
    COLLISION_EPSILON,
    Configuration,
    Params,
    PhaseState,
    augmented_potential,
    augmented_potential_gradient,
    group_act_phase,
    hamiltonian,
    hamiltonian_vector_field,
    kinetic_energy,
    legendre,
    locked_inertia,
    momentum_map,
    phase_state,
    potential,
    velocity_vectors,
)
from .equilibria import (
    CanonicalForm,
    CenterOfMassSplit,
    Family,
    GeneratorCases,
    IntrinsicReport,
    RelativeEquilibrium,
    admissible_generators,
    analytic_states,
    analytic_trajectory,
    build_relative_equilibrium,
    canonical_configuration,
    center_of_mass,
    initial_state,
    intrinsic_checks,
    momentum_at_canonical,
    partner_distance,
    to_canonical,
)
from .stability import (
    MassRatioCurve,
    StabilityReport,
    Verdict,
    classify_stability,
    intrinsic_stability_bound,
    internal_block,
    internal_block_oracle,
    internal_correction,
    internal_membership,
    momentum_norm_profile,
    momentum_of,
    rig_basis,
    rig_block,
    rig_block_oracle,
    stability_indicator,
    stability_polynomial,
    threshold,
    v_int_generator,
    v_of_u,
)
from .sim import (
    IntegratorConfig,
    PerturbationExperiment,
    TrajectoryRecord,
    Xoshiro256StarStar,
    compare_analytic,
    conservation_report,
    integrate,
    perturb_and_measure,
    read_trajectory_csv,
    record_from_states,
    write_trajectory_csv,
)

__version__ = "0.1.0"
