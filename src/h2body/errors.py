"""Exception types shared across the package.

Everything user-facing derives from H2BodyError so callers can catch one
base class. Exceptions raised mid-integration carry the partial trajectory
on a ``record`` attribute when one exists.
"""


class H2BodyError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPoints(H2BodyError):
    """Two points that must be distinct agree within tolerance."""


class OracleMismatch(H2BodyError):
    """A closed form disagrees with its independent cross-check."""


class Collision(H2BodyError):
    """Particle separation at or below the collision cutoff."""


class NotCanonical(H2BodyError):
    """Angles and masses violate the canonical center-of-mass relation."""


class MassDistanceMismatch(H2BodyError):
    """Distances to the center of mass are inconsistent with the masses."""


class NonPositiveDistance(H2BodyError):
    """A distance parameter that must be positive is not."""


class OutOfRange(H2BodyError):
    """A scalar argument lies outside its admissible interval."""


class IntegrationError(H2BodyError):
    """Base class for failures during time integration.

    ``record`` holds the trajectory accumulated before the failure, or None.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class CollisionDuringIntegration(IntegrationError):
    """The separation crossed the collision cutoff while integrating."""


class StepSizeUnderflow(IntegrationError):
    """The adaptive integrator could not keep its error tolerance."""


class ScenarioError(H2BodyError):
    """A scenario file failed schema validation."""
