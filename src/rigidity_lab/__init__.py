"""Numerical laboratory for Robin boundary reconstruction on near-circular
convex billiard tables: boundary geometry and the Lazutkin chart, symmetric
maximal periodic orbits, bounce-sum functionals, certified operator
inversion, trace-data synthesis, and the inverse pipelines."""

from .billiards import (
    PeriodicOrbit,
    PoincareData,
    billiard_map,
    compute_orbits,
    fit_alpha_beta,
    genericity_report,
    linearized_poincare,
    maximal_marked_orbit,
    orbit_length,
    shoot_orbit,
)
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
    SingularTransferError,
    SymmetryViolationError,
)
from .functionals import (
    CosineSeries,
    InvariantVector,
    S_q_eval,
    ell_0,
    ell_1,
    ell_q,
    riemann_limit_check,
    robin_data,
    script_L_0,
    script_L_1,
    script_L_q,
    sigma_p,
    tilde_sigma,
)
from .geometry import (
    BoundaryFrame,
    ClosenessReport,
    DomainProfile,
    LazutkinChart,
    build_frame,
    build_profile,
    closeness_report,
    unit_circle_profile,
)
from .operator import (
    ContractionCertificate,
    GammaSpaceParams,
    OperatorMatrix,
    analytic_contraction_bound,
    assemble_T,
    assemble_T_star_R,
    assemble_delta,
    assemble_delta_prime,
    assemble_remainder,
    calibrate_remainder_constant,
    contraction_certificate,
    decompose_T,
    gamma_norm,
    neumann_invert,
)
from .reconstruction import (
    RecoveryOptions,
    RecoveryPlan,
    RecoveryResult,
    SuiteOptions,
    recover_robin,
    rigidity_suite,
    triple_disambiguate,
    two_symmetry_pin,
)
from .traces import TraceData, build_trace_data, heat_defect, length_spectrum, wave_c0

__version__ = "0.1.0"
