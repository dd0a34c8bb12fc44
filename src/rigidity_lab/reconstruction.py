"""Inverse pipelines: Robin function recovery and uniqueness audits.

`recover_robin` inverts the forward data model. Writing the unknown as
v = K/mu, the period-q data row reads L_q(v) = d_q / q^2, the marked row
pins v(0) (the marked value of K must be supplied, matching the uniqueness
hypothesis), and the limit entry gives the mean of v. The mean-zero part
is solved through the certified divisor-plus-remainder block: the rank-one
second-order term is eliminated by a scalar fixed point (two Neumann
solves), then K = mu * v.

The work splits at the Robin function: `RecoveryPlan` builds, once per table
and data depth, everything that depends only on the domain (ladder fit,
contraction certificate, the square block, the full-depth rows and the solves
of the K-independent right-hand side b*), and `RecoveryPlan.solve_many` does
the K-dependent rest for a batch of K at once: their right-hand sides are the
columns of one matrix, inverted by one Neumann series and cross-checked by one
direct solve (both return plain arrays), then projected and gated per K.
`RecoveryPlan.solve` is the batch of one and `recover_robin` a one-shot plan;
`rigidity_suite` synthesizes the data of all K of a domain in one batch and
inverts them with one `solve_many`.

`triple_disambiguate` replays the three-function argument as a numerical
audit, and `two_symmetry_pin` replays the doubly-symmetric marked-value
pinning through the axis 2-orbit.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .billiards import LADDER, PeriodicOrbit, compute_orbits, fit_alpha_beta
from .errors import (
    NotContractiveError,
    ResidualTooLargeError,
    SymmetryViolationError,
)
from .functionals import CosineSeries, InvariantVector, bounce_sums, cosine_coeffs
from .geometry import BoundaryFrame, LazutkinChart, build_frame, build_profile
from .operator import (
    ContractionCertificate,
    GammaSpaceParams,
    assemble_T,
    contraction_certificate,
    lstsq_invert,
    neumann_invert,
    square_block,
)
from .traces import build_trace_data, heat_defect


NORM_JMAX = 48  # column truncation of the certificate norm


@dataclass(frozen=True)
class RecoveryOptions:
    gamma: float = 3.5
    jmax: int | None = None          # square-system size; default min(q_max - 4, 16), >= 8
    neumann_order: int = 40          # terms of every Neumann solve
    residual_tol: float = 1e-6       # gate on held-out rows and marked entry; a NaN fails it
    override_certificate: bool = False


@dataclass
class RecoveryResult:
    K_hat: CosineSeries
    v: CosineSeries                   # recovered K/mu
    second_order_value: float         # the eliminated rank-one scalar
    certificate: ContractionCertificate
    lstsq_max_diff: float
    solve_residual: float             # on the square block rows
    holdout_residual: float | None    # on data rows beyond the block
    marked_residual: float            # |mu(0) v(0) - K0|
    data_marked_gap: float            # |K0 supplied - marked entry of the data|
    heat_residual: tuple              # |heat(K_hat) - (H0, H1) of the data|


class RecoveryPlan:
    """The K-independent half of the recovery, built once per domain and depth.

    Holds everything that depends only on the table and the data depth
    ``q_max``: the ladder fit, the contraction certificate (checked here), the
    square divisor-plus-remainder block and its rank-one row ``lss``, the
    full-depth rows for the limit-entry column and the holdout check, and the
    two solves of the K-independent right-hand side ``b*``.
    """

    def __init__(
        self,
        frame: BoundaryFrame,
        chart: LazutkinChart,
        orbits: Mapping[int, PeriodicOrbit],
        q_max: int,
        options: RecoveryOptions | None = None,
    ):
        opt = options or RecoveryOptions()
        n, hold = _plan_rows(orbits, q_max, opt)
        need = sorted({*range(2, n + 1), *LADDER} - set(orbits))
        if need:
            orbits = dict(orbits) | compute_orbits(frame, need)

        # one assembly of T: its rows up to n are the certified block, and its rows
        # up to q_max feed the limit-entry column and the holdout check
        params = GammaSpaceParams(gamma=opt.gamma, J=max(NORM_JMAX, n), Q=n)
        T = assemble_T(chart, orbits, GammaSpaceParams(opt.gamma, params.J, q_max))
        fit = fit_alpha_beta(chart, {q: orbits[q] for q in LADDER})
        cert = contraction_certificate(frame, params, fit=fit, full=T)
        if not (cert.inversion_certified or opt.override_certificate):
            raise NotContractiveError(
                f"numeric contraction norm {cert.numeric_norm_completed:.4f} >= 1 "
                "and no override requested"
            )

        # invert exactly the block whose norm was certified
        A = square_block(cert.T_star_R, n)
        lss = cert.T_star_R.extras["lss"][1 : n + 1]

        b = np.concatenate([[0.0], 1.0 / np.arange(2, n + 1).astype(float) ** 2])  # b*
        w_b, _ = neumann_invert(A, b, order=opt.neumann_order, gamma=opt.gamma)

        self.frame, self.chart, self.options = frame, chart, opt
        self.q_max, self.n = q_max, n
        self.certificate = cert
        self.block, self.lss = A, lss
        self.col0 = T.entries[2:n + 1, 0]  # limit-entry column, rows q = 2..n
        self.b, self.w_b, self.ls_b = b, w_b, lstsq_invert(A, b)
        self.hold_q = np.array(hold, dtype=int)
        self.hold_rows = T.entries[np.isin(T.row_q, hold), : n + 1]

    def solve(self, data: InvariantVector, K0_at_marked: float) -> RecoveryResult:
        """Recover the Robin function from one invariant vector and marked value:
        `solve_many` on a batch of one."""
        return self.solve_many([data], [K0_at_marked])[0]

    def solve_many(
        self, data_list: Sequence[InvariantVector], K0s: Sequence[float]
    ) -> list[RecoveryResult]:
        """Recover one Robin function per invariant vector and marked value.

        The pairs share every solve: their right-hand sides are the columns of
        one (n, m) matrix, inverted by one Neumann series and cross-checked by
        one direct solve. Every input is validated before any work starts, down to
        the periods the plan reads (2..n and the held-out rows) being among the
        data's `InvariantVector.periods`. The residual gate and the finiteness of
        every reported value are checked per pair; the first failing pair raises.
        """
        opt, chart, A, lss, b = self.options, self.chart, self.block, self.lss, self.b
        if len(data_list) != len(K0s):
            raise ValueError(f"{len(data_list)} invariant vectors for {len(K0s)} marked values")
        for data in data_list:
            _check_data(data, self.q_max, self.n, self.hold_q.tolist())
        for K0 in K0s:
            if not np.isfinite(K0):
                raise ValueError(f"marked value K0 must be finite, got {K0!r}")
        if not data_list:
            return []
        d = np.stack([data.d for data in data_list])      # one row per pair
        K0 = np.array(K0s, dtype=float)
        v0 = d[:, 0]

        # right-hand sides, one column per pair: the marked row, then the period rows
        mu0 = chart.mu_at_marked
        qs = np.arange(2, self.n + 1)
        g = np.empty((self.n, len(data_list)))
        g[0] = K0 / mu0 - v0
        g[1:] = d[:, qs].T / qs[:, None] ** 2 - np.outer(self.col0, v0)

        # the Neumann solve of g is the certified audit; a direct solve cross-checks it
        w_g = neumann_invert(A, g, order=opt.neumann_order, gamma=opt.gamma)[0].T
        lam = (w_g @ lss) / (1.0 + float(lss @ self.w_b))
        w = w_g - np.outer(lam, self.w_b)

        ls_g = lstsq_invert(A, g).T
        lam_ls = (ls_g @ lss) / (1.0 + float(lss @ self.ls_b))
        lstsq_diff = np.max(np.abs(w - (ls_g - np.outer(lam_ls, self.ls_b))), axis=1)

        v = CosineSeries(np.column_stack([v0, w]))
        out_j = min(2 * self.n, chart.n_grid // 4)
        K_hat = CosineSeries(cosine_coeffs(chart.mu_at_x_nodes * v.on_grid(chart.n_grid), out_j))

        solve_residual = np.max(np.abs(w @ A.entries.T - (g.T - np.outer(lam, b))), axis=1)
        marked_residual = np.abs(mu0 * (v0 + np.sum(w, axis=1)) - K0)

        # the period rows alone cannot see the marked value (which is exactly why
        # it must be supplied); consistency with the data's own marked entry and
        # with the quadratic heat coefficient is what flags a wrong pin
        data_marked_gap = np.abs(K0 - d[:, 1])
        h0_hat, h1_hat = heat_defect(self.frame, K_hat)

        heat = np.abs(np.column_stack([h0_hat, h1_hat]) - [(x.H0, x.H1) for x in data_list])
        reported = [K_hat.coeffs, v.coeffs, lam, lstsq_diff, solve_residual, marked_residual,
                    data_marked_gap, heat]
        holdout = [None] * len(data_list)
        if len(self.hold_q):
            rows = self.hold_rows
            resid = (np.outer(v0, rows[:, 0]) + w @ rows[:, 1:].T
                     - d[:, self.hold_q] / self.hold_q ** 2)
            reported.append(np.max(np.abs(resid), axis=1))
            holdout = reported[-1].tolist()
        finite = np.all(np.isfinite(np.column_stack(reported)), axis=1)

        results = []
        for i in range(len(data_list)):
            # written as "not <=" so that a NaN residual fails the gate
            bad_holdout = holdout[i] is not None and not (holdout[i] <= opt.residual_tol)
            if bad_holdout or not (data_marked_gap[i] <= opt.residual_tol):
                raise ResidualTooLargeError(
                    f"data inconsistent at this truncation: marked-entry gap "
                    f"{data_marked_gap[i]:.3e}, held-out row residual "
                    f"{holdout[i] if holdout[i] is not None else float('nan'):.3e} "
                    f"(tolerance {opt.residual_tol:.1e})"
                )
            if not finite[i]:
                raise ResidualTooLargeError("recovery is not finite: the data overflow floats")
            results.append(RecoveryResult(
                K_hat=CosineSeries(K_hat.coeffs[i]),
                v=CosineSeries(v.coeffs[i]),
                second_order_value=float(lam[i]),
                certificate=self.certificate,
                lstsq_max_diff=float(lstsq_diff[i]),
                solve_residual=float(solve_residual[i]),
                holdout_residual=holdout[i],
                marked_residual=float(marked_residual[i]),
                data_marked_gap=float(data_marked_gap[i]),
                heat_residual=tuple(heat[i].tolist()),
            ))
        return results


def _plan_rows(orbits, q_max: int, opt: RecoveryOptions) -> tuple:
    """Block size n and held-out rows (the given orbits past n) of a plan at ``q_max``."""
    if not opt.residual_tol >= 0.0:  # NaN included; inf gates nothing and is allowed
        raise ValueError(f"residual tolerance must be >= 0, got {opt.residual_tol}")
    n = opt.jmax if opt.jmax is not None else max(8, min(q_max - 4, 16))
    if n > q_max:
        raise ValueError(f"square block size {n} exceeds data depth q_max={q_max}")
    return n, [q for q in range(n + 1, q_max + 1) if q in orbits]


def _check_data(data: InvariantVector, q_max: int, n: int, hold) -> None:
    """Refuse data of another depth, or lacking a period the recovery reads (2..n, hold)."""
    if data.q_max != q_max:
        raise ValueError(f"data depth q_max={data.q_max} does not match the plan's q_max={q_max}")
    if missing := {*range(2, n + 1), *hold}.difference(data.periods):
        raise ValueError(f"invariant vector lacks the periods {sorted(missing)} that "
                         "the recovery reads")


def recover_robin(
    data: InvariantVector,
    frame: BoundaryFrame,
    chart: LazutkinChart,
    orbits: Mapping[int, PeriodicOrbit],
    K0_at_marked: float,
    options: RecoveryOptions | None = None,
) -> RecoveryResult:
    """Recover the Robin function from its invariant vector and marked value.

    A one-shot ``RecoveryPlan``, refusing data that lack a period it would read
    first; build the plan once to invert many data vectors on the same table.
    """
    opt = options or RecoveryOptions()
    _check_data(data, data.q_max, *_plan_rows(orbits, data.q_max, opt))
    return RecoveryPlan(frame, chart, orbits, data.q_max, opt).solve(data, K0_at_marked)


# -- three-function disambiguation audit ---------------------------------------


@dataclass
class TripleVerdict:
    verdict: str                      # "pair_identical" | "data_inconsistent" | "inconclusive"
    pair: tuple | None
    marked_values: tuple
    f_square_integral: float | None
    spectral_residuals: tuple | None  # sup |L_q((Ki-Kj-c f)/mu)| for the two combinations
    identity_residual: float | None   # |int (K2-K3) f - (K2(0)-K3(0)) int f^2|
    notes: str = ""


def triple_disambiguate(
    K1: CosineSeries,
    K2: CosineSeries,
    K3: CosineSeries,
    chart: LazutkinChart,
    orbits: Mapping[int, PeriodicOrbit],
    marked_tol: float = 1e-10,
) -> TripleVerdict:
    """Replay the three-function argument on concrete boundary functions.

    With two equal marked values the conclusion routes through the pinned
    uniqueness result; with three distinct marked values the audit forms f,
    checks the proportionality relations and the identity
    int (K2 - K3) f = (K2(0) - K3(0)) int f^2, and reduces to a positive square
    integral, i.e. the data could not all have been equal.
    """
    ks = (K1, K2, K3)
    marked = tuple(float(k.at_zero) for k in ks)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(marked[i] - marked[j]) <= marked_tol:
                return TripleVerdict(
                    verdict="pair_identical",
                    pair=(i + 1, j + 1),
                    marked_values=marked,
                    f_square_integral=None,
                    spectral_residuals=None,
                    identity_residual=None,
                    notes=(
                        f"marked values {i + 1} and {j + 1} agree; equal data plus "
                        "the pinned-value uniqueness route forces those two "
                        "functions to coincide"
                    ),
                )

    f = (K2 - K3) * (1.0 / (marked[1] - marked[2]))
    K12 = (K1 - K2) - (marked[0] - marked[1]) * f
    K13 = (K1 - K3) - (marked[0] - marked[2]) * f

    qs = sorted(orbits)

    def spectral_sup(K: CosineSeries) -> float:
        sums = bounce_sums(K, [orbits[q] for q in qs])
        return float(np.max(np.abs(sums) / np.square(qs), initial=0.0))

    r12, r13 = spectral_sup(K12), spectral_sup(K13)

    dsigma = chart.integrate_dsigma
    k2v, k3v, fv = (k.on_grid(chart.n_grid) for k in (K2, K3, f))
    cross = dsigma((k2v - k3v) * fv)
    f_sq = dsigma(fv * fv)
    identity_residual = abs(cross - (marked[1] - marked[2]) * f_sq)

    if f_sq > marked_tol:
        verdict, notes = "data_inconsistent", (
            "equal-data hypothesis forces the square integral of f to vanish, "
            f"but it equals {f_sq:.6g} > 0 while f(0) = 1"
        )
    else:
        verdict, notes = "inconclusive", "square integral of f below tolerance"
    return TripleVerdict(
        verdict=verdict,
        pair=None,
        marked_values=marked,
        f_square_integral=f_sq,
        spectral_residuals=(r12, r13),
        identity_residual=identity_residual,
        notes=notes,
    )


# -- doubly symmetric pinning ---------------------------------------------------


@dataclass
class TwoSymmetryReport:
    constraint_gap: float        # difference of the axis 2-orbit data rows
    marked_difference: float     # K1(0) - K2(0), computed directly
    axis_values: tuple           # (K1(0), K1(1/2), K2(0), K2(1/2))
    sin_phi: float
    detected: bool               # constraint gap resolves a marked offset
    verdict: str


def two_symmetry_pin(
    frame: BoundaryFrame,
    K1: CosineSeries,
    K2: CosineSeries,
    symmetry_tol: float = 1e-12,
    detection_tol: float = 1e-10,
) -> TwoSymmetryReport:
    """Pin the marked values through the 2-orbit joining the two axis points.

    Requires the domain and both functions to carry the second reflection
    symmetry (even radial harmonics, even cosine frequencies); then both
    functions take equal values at the two axis points, and the 2-orbit data
    row differing by 2(K1(0) - K2(0))/sin(phi) detects any marked offset.
    """
    odd_dom = [a for idx, a in enumerate(frame.profile.radial_coeffs) if idx % 2 and abs(a) > symmetry_tol]
    if odd_dom:
        raise SymmetryViolationError(
            "domain has odd radial harmonics; no second perpendicular symmetry axis"
        )
    for name, K in (("K1", K1), ("K2", K2)):
        odd = [c for j, c in enumerate(K.coeffs) if j % 2 and abs(c) > symmetry_tol]
        if odd:
            raise SymmetryViolationError(f"{name} has odd cosine frequencies; not doubly symmetric")

    orbit2 = compute_orbits(frame, [2])[2]
    x_far = orbit2.x[1]
    sin_phi = float(np.min(orbit2.sin_phi))
    gap = float(bounce_sums(K1, [orbit2])[0] - bounce_sums(K2, [orbit2])[0])
    vals = (float(K1(0.0)), float(K1(x_far)), float(K2(0.0)), float(K2(x_far)))
    marked_diff = vals[0] - vals[2]
    detected = abs(gap) > detection_tol
    verdict = (
        "marked offset detected by the axis 2-orbit"
        if detected
        else "marked values pinned equal; with equal data and a passing "
             "certificate the two functions coincide"
    )
    return TwoSymmetryReport(
        constraint_gap=gap,
        marked_difference=marked_diff,
        axis_values=vals,
        sin_phi=sin_phi,
        detected=detected,
        verdict=verdict,
    )


# -- batch round-trip harness ----------------------------------------------------


@dataclass(frozen=True)
class SuiteOptions:
    frame_samples: int = 512
    q_max: int = 16
    n_random_K: int = 20
    k_jmax: int = 6
    seed: int = 2024
    recovery: RecoveryOptions = field(default_factory=RecoveryOptions)


@dataclass
class SuiteSummary:
    rows: list
    options: dict

    @property
    def max_error(self) -> float:
        errs = [r["recovery_error_sup"] for r in self.rows if r["recovery_error_sup"] is not None]
        return max(errs) if errs else 0.0

    def to_json_dict(self) -> dict:
        return {"options": self.options, "rows": self.rows, "max_error": self.max_error}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv_text(self) -> str:
        cols = [
            "domain", "K_label", "K0", "recovery_error_sup", "coeff_error_sup",
            "lstsq_max_diff", "holdout_residual", "certificate_numeric",
            "certificate_analytic", "certified", "passed",
        ]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        for r in self.rows:
            writer.writerow(r[c] if isinstance(r[c], str) else repr(r[c]) for c in cols)
        return out.getvalue()


def draw_random_K(rng: np.random.Generator, k_jmax: int) -> CosineSeries:
    """Random function in span(e_1..e_k) with vanishing marked value."""
    c = np.zeros(k_jmax + 1)
    c[1:] = rng.standard_normal(k_jmax)
    c[1:] -= np.mean(c[1:])  # coefficient sum zero <=> value 0 at the marked point
    return CosineSeries(c)


def rigidity_suite(
    domain_coeffs: Sequence[Sequence[float]],
    K_list: Sequence[CosineSeries] | None = None,
    options: SuiteOptions | None = None,
) -> SuiteSummary:
    """Forward-synthesize data and invert it across a (domain x K) grid."""
    opt = options or SuiteOptions()
    rows = []
    for coeffs in domain_coeffs:
        profile = build_profile(list(coeffs))
        frame = build_frame(profile, opt.frame_samples)
        chart = frame.chart
        qs = sorted(set(range(2, opt.q_max + 1)) | set(LADDER))
        orbits = compute_orbits(frame, qs)
        if K_list is None:
            rng = np.random.default_rng(opt.seed)
            ks = [(f"random_{i}", draw_random_K(rng, opt.k_jmax)) for i in range(opt.n_random_K)]
        else:
            ks = [(f"K_{i}", k) for i, k in enumerate(K_list)]
        if not ks:
            continue
        plan = RecoveryPlan(frame, chart, orbits, opt.q_max, opt.recovery)
        batch = CosineSeries.stack([K for _, K in ks])
        data = build_trace_data(frame, batch, {q: orbits[q] for q in range(2, opt.q_max + 1)})
        results = plan.solve_many(data, [K.at_zero for _, K in ks])
        diff = CosineSeries.stack([res.K_hat for res in results]) - batch
        errors = np.max(np.abs(diff.on_grid(2048)), axis=1)
        coeff_errors = np.max(np.abs(diff.coeffs), axis=1)
        for (label, K), res, err, coeff_err in zip(ks, results, errors, coeff_errors):
            rows.append(
                {
                    "domain": repr(list(coeffs)),
                    "epsilon": plan.certificate.epsilon,
                    "K_label": label,
                    "K0": K.at_zero,
                    "recovery_error_sup": float(err),
                    "coeff_error_sup": float(coeff_err),
                    "lstsq_max_diff": res.lstsq_max_diff,
                    "holdout_residual": res.holdout_residual,
                    "certificate_numeric": res.certificate.numeric_norm_completed,
                    "certificate_analytic": res.certificate.analytic_bound,
                    "certified": res.certificate.inversion_certified,
                    "passed": res.certificate.passed,
                }
            )
    return SuiteSummary(
        rows=rows,
        options={
            "frame_samples": opt.frame_samples,
            "q_max": opt.q_max,
            "n_random_K": opt.n_random_K,
            "k_jmax": opt.k_jmax,
            "seed": opt.seed,
            "neumann_order": opt.recovery.neumann_order,
            "gamma": opt.recovery.gamma,
        },
    )
