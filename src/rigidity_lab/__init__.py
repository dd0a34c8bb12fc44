"""Numerical laboratory for Robin boundary reconstruction on near-circular
convex billiard tables: boundary geometry and the Lazutkin chart, symmetric
maximal periodic orbits, bounce-sum functionals, certified operator
inversion, trace-data synthesis, and the inverse pipelines.

The package namespace holds the pipeline entry points and the typed errors;
everything else lives in its submodule."""

from .billiards import compute_orbits, genericity_report, shoot_orbit
from .errors import (
    DegenerateChordError,
    InsufficientLadderError,
    NoConvergenceError,
    NonConvexError,
    NonPositiveRadiusError,
    NotContractiveError,
    NotMaximalError,
    ResidualTooLargeError,
    RigidityError,
    SingularAngleError,
    SymmetryViolationError,
)
from .functionals import CosineSeries, InvariantVector, robin_data
from .geometry import LazutkinChart, build_frame, build_profile
from .operator import contraction_certificate
from .reconstruction import RecoveryOptions, RecoveryPlan, recover_robin, rigidity_suite
from .traces import build_trace_data, heat_defect

__version__ = "0.1.0"
