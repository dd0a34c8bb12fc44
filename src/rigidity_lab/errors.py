"""Exception hierarchy shared by all modules."""


class RigidityError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRadiusError(RigidityError):
    """The radial profile dips to zero or below somewhere on the boundary."""


class NonConvexError(RigidityError):
    """The curvature changes sign: the domain is not strictly convex."""


class DegenerateChordError(RigidityError):
    """Two consecutive polygon vertices coincide."""


class NoConvergenceError(RigidityError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class NotMaximalError(RigidityError):
    """The critical orbit found is not a length maximum (indefinite Hessian)."""


class SingularAngleError(RigidityError):
    """A bounce angle is too close to grazing to divide by sin(phi)."""


class InsufficientLadderError(RigidityError):
    """Asymptotic fits need at least three distinct orbit periods."""


class NotContractiveError(RigidityError):
    """Inversion requested without a passing contraction certificate."""


class SingularBlockError(RigidityError):
    """The square block to invert is singular."""


class ResidualTooLargeError(RigidityError):
    """Recovered coefficients do not reproduce the supplied data."""


class SymmetryViolationError(RigidityError):
    """Input domain or boundary function lacks the required symmetry."""
