"""Truncated operator matrices, weighted norms, contraction certificates, inversion.

The matrix of the invariant operator has rows indexed by orbit period q and
columns by cosine frequency j. Its leading structure is the divisor pattern
``delta_{q|j}``; subtracting the rank-one second-order column functional
leaves a perturbation of the divisor operator whose weighted norm distance
from the identity can be pushed below 1. That bound is the certificate that
the truncated inverse problem is well posed, and the Neumann series built
on it is the reconstruction engine. The layer solves no orbit: its callers
pass one `assemble_T` and the ladder fit to `contraction_certificate`, and
gate `neumann_invert`, which always sums ``order`` terms, on its result.
It and `lstsq_invert` (an LU cross-check) solve on arrays shaped like the right-hand side.

The weighted operator norm is ``sup_q sum_j q^gamma j^(-gamma) |T_qj|``
over labels q, j >= 1; rows with divisor structure get their j > J tails
completed analytically with Hurwitz zeta sums, evaluated here by a short
Euler-Maclaurin sum (DLMF 25.11; Johansson, Numer. Algorithms 2015).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .billiards import AlphaBetaFit, PeriodicOrbit, guarded_half
from .errors import SingularBlockError
from .functionals import sigma_p, tilde_sigma_table  # sigma_p unread: perfbench/spans.py wraps it
from .geometry import TWO_PI, BoundaryFrame, LazutkinChart, closeness_report, harmonics

#: B_2j / (2j)! for j = 1..10, the Euler-Maclaurin weights through B_20
_EM_WEIGHTS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                           -3617 / 510, 43867 / 798, -174611 / 330), start=1)
)
_EM_HEAD = 10  # explicit terms before the Euler-Maclaurin tail


def hurwitz_zeta(s: float, a):
    """Hurwitz zeta ``sum_{k >= 0} (a + k)^(-s)`` for s > 1, a > 0, vectorized over a.

    Sums ``_EM_HEAD`` terms explicitly and adds the Euler-Maclaurin tail at
    ``x = a + _EM_HEAD`` through B_20 (DLMF 25.11.5), whose remainder is below
    1e-19 relative for s in [3, 4] and a >= 1.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"Hurwitz zeta needs s > 1, got {s}")
    a = np.asarray(a, dtype=float)
    if not a.min() > 0.0:
        raise ValueError("Hurwitz zeta needs a > 0")
    # tail weights B_2j/(2j)! s(s+1)...(s+2j-2) of x^(1-2j) = x^(-1) y^(j-1), y = x^(-2)
    weights, rising = [], s
    for j, w in enumerate(_EM_WEIGHTS):
        weights.append(w * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
    x = a + _EM_HEAD
    y = np.repeat((1.0 / (x * x))[..., None], len(weights) - 1, axis=-1)
    y_powers = np.multiply.accumulate(y, axis=-1)  # y, y^2, ..., y^9
    poly = weights[0] + y_powers @ weights[1:]
    tail = x ** (-s) * (x / (s - 1.0) + 0.5 + poly / x)
    total = tail + ((a[..., None] + np.arange(_EM_HEAD)) ** (-s)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


ZETA3 = 1.2020569031595942  # zeta(3), correctly rounded

#: y/sin y = sum c_k y^(2k), |y| < pi, c_k = 2 eta(2k) pi^(-2k) > 0 by one triangular Toeplitz
#: solve of (sin y/y)(y/sin y) = 1, on first use (LAPACK at import adds ~1 MB to every process's
#: RSS); a 2^-60 tail at (max mu/(q pi))^2 = 9/16 (q=2, |mu-pi|=pi/2)
_SERIES_REACH = 9.0 / 16.0
_k = np.arange(math.ceil(60 * math.log(2.0) / -math.log(_SERIES_REACH)) + 1)
_y_over_sin_y = functools.cache(lambda: np.linalg.solve(np.tril(((-1.0) ** _k / np.cumprod(
    np.maximum(2.0 * _k * (2 * _k + 1), 1.0)))[np.abs(_k[:, None] - _k)]), 1.0 * (_k == 0)))

#: remainder-norm constant, calibrated as max over an a_2 sweep
#: {0.005, 0.01, 0.02} of (weighted remainder norm)/(C0 weight offset),
#: which is stable near 16.2 at gamma = 3.5; rounded up for headroom
#: (the sweep is replayed in tests/test_operator.py)
DEFAULT_C_CONSTANT = 17.0


@dataclass(frozen=True)
class GammaSpaceParams:
    """Weight exponent and truncation sizes for the sequence-space norms."""

    gamma: float = 3.5
    J: int = 48
    Q: int = 16

    def __post_init__(self):
        if not 3.0 < self.gamma < 4.0:
            raise ValueError(f"gamma must lie in (3, 4), got {self.gamma}")
        if self.J < 2 or self.Q < 2:
            raise ValueError("truncations J, Q must be >= 2")


@dataclass
class OperatorMatrix:
    """Dense truncation with integer row/column labels and optional tail data."""

    entries: np.ndarray
    row_q: np.ndarray
    col_j: np.ndarray
    row_tail_coeff: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def row(self, q: int) -> np.ndarray:
        return self.entries[int(np.nonzero(self.row_q == q)[0][0])]


def assemble_T(
    chart: LazutkinChart,
    orbits: Mapping[int, PeriodicOrbit],
    params: GammaSpaceParams,
) -> OperatorMatrix:
    """Rows 0, 1 and one row per available orbit period up to Q.

    Entries are exact functional evaluations on the computed orbits: row 0
    is the mean functional (delta_{j0}), row 1 the marked-point row (all
    ones), and row q the bounce sum weighted by mu/(q^2 sin phi). All periods
    are evaluated in one pass over their orbits' free halves, bounce q - k counted
    as k (`billiards.guarded_half`): the weight of their ``kappa``, one cosine table
    by `harmonics`, split with ``np.add.reduceat``. A grazing bounce raises.
    """
    qs = [q for q in sorted(orbits) if 2 <= q <= params.Q]
    cols = np.arange(params.J + 1)
    entries = np.zeros((len(qs) + 2, len(cols)))
    entries[0, 0] = 1.0
    entries[1, :] = 1.0
    if qs:
        orbs = [orbits[q] for q in qs]
        idx, x, sin_phi, starts = guarded_half(orbs)
        q = np.repeat(qs, qs)[idx]  # a period-q orbit has q bounces
        w = chart.mu_of_kappa(np.concatenate([orb.kappa for orb in orbs])[idx]) / (sin_phi * q * q)
        cos = np.stack(harmonics(TWO_PI * x, len(cols))[0])
        entries[2:] = np.add.reduceat(cos * w, starts, axis=1).T
    return OperatorMatrix(entries=entries, row_q=np.array([0, 1] + qs), col_j=cols)


def script_L_star_star_table(chart: LazutkinChart, fit: AlphaBetaFit, jmax: int) -> np.ndarray:
    """Second-order column functional per basis frequency, j = 0..jmax.

    Convention: exponential-basis coefficients, so for j >= 1 the cosine
    coefficients of the even parts are halved and the odd part enters
    through its sine coefficient as pi*j*A_j. Frequencies beyond the fit
    grid's resolution contribute only their (machine-small) weight term.
    """
    j = np.arange(jmax + 1)
    beta, alpha = np.zeros(jmax + 1), np.zeros(jmax + 1)
    beta[: len(fit.beta_cos)] = fit.beta_cos[: jmax + 1]
    beta[1:] *= 0.5
    alpha[: len(fit.alpha_sine)] = fit.alpha_sine[: jmax + 1]
    return tilde_sigma_table(chart, jmax).real - (beta + np.pi * j * alpha)


def angle_correction_mean(chart: LazutkinChart, qs) -> np.ndarray:
    """sigma_0(q), the mean of ``S_q = y/sin y - 1`` at ``y = mu/q`` over the x nodes, per q
    (`functionals.sigma_p` at frequency 0, there by a transform).

    The series ``sum_k c_k M_k q^(-2k)`` in the moments ``M_k = mean(mu^(2k))`` of one
    running power. Term k is below ``2 (max mu / (q pi))^(2k)``, which sets the term
    count at the smallest q; a table beyond the series' reach raises ValueError.
    """
    qs = np.asarray(qs, dtype=int)
    mu2, q_min = chart.mu_at_x_nodes ** 2, qs.min(initial=2)  # no periods, nothing to sum
    ratio = float(np.max(mu2)) / (np.pi * q_min) ** 2
    if not ratio <= _SERIES_REACH:
        raise ValueError(f"the angle correction at q={q_min} has max mu/q = "
                         f"{np.sqrt(ratio) * np.pi:.6g}, beyond the reach 3 pi/4 of its series")
    power, moments = np.ones_like(mu2), []
    for _ in range(max(1, math.ceil(60 * math.log(2.0) / -math.log(ratio)))):
        power *= mu2
        moments.append(power.sum())
    k = np.arange(1, len(moments) + 1)
    return (1.0 / qs.astype(float)[:, None] ** 2) ** k @ (_y_over_sin_y()[k] * moments / len(mu2))


def divisor_weight(chart: LazutkinChart, fit: AlphaBetaFit, qs) -> np.ndarray:
    """Weight ``1 + sigma_0(q) - beta_0/q^2`` of the divisor part on the multiples of each q,
    with sigma_0 from one moment pass (`angle_correction_mean`)."""
    qs = np.asarray(qs, dtype=int)
    return 1.0 + angle_correction_mean(chart, qs) - fit.beta0 / qs**2


def assemble_T_star_R(
    chart: LazutkinChart,
    full: OperatorMatrix,
    params: GammaSpaceParams,
    fit: AlphaBetaFit,
) -> OperatorMatrix:
    """The divisor-plus-remainder part: full rows minus the rank-one piece.

    Row 1 equals the all-ones divisor row exactly; rows q >= 2 subtract
    ``Lss_j / q^2`` from the exact entries. ``extras`` keeps ``lss`` and the
    signed divisor ``weight`` per row (1 on row 1); its size is the tail
    coefficient for analytic completion. The exact entries are read from
    ``full``, an `assemble_T` with at least columns 0..J; its rows past Q
    are left out.
    """
    if full.col_j[-1] < params.J:
        raise ValueError(f"assembled T has columns up to {full.col_j[-1]}, need {params.J}")
    sel = (full.row_q >= 2) & (full.row_q <= params.Q)
    qs = full.row_q[sel]
    lss = script_L_star_star_table(chart, fit, params.J)
    weight = np.concatenate([[1.0], divisor_weight(chart, fit, qs)])
    rows = full.entries[sel, 1 : params.J + 1]
    entries = np.vstack([np.ones(params.J), rows - lss[1:] / qs[:, None] ** 2])
    return OperatorMatrix(
        entries=entries,
        row_q=np.concatenate([[1], qs]),
        col_j=np.arange(1, params.J + 1),
        row_tail_coeff=np.abs(weight),
        extras={"lss": lss, "weight": weight},
    )


def subtract_identity(mat: OperatorMatrix) -> OperatorMatrix:
    """Entrywise difference with the identity on matching labels."""
    return OperatorMatrix(
        entries=mat.entries - (mat.row_q[:, None] == mat.col_j[None, :]),
        row_q=mat.row_q,
        col_j=mat.col_j,
        row_tail_coeff=mat.row_tail_coeff,
    )


@dataclass
class GammaNormResult:
    truncated: float
    tail_completed: float


def gamma_norm(mat: OperatorMatrix, gamma: float) -> GammaNormResult:
    """Weighted norm sup_q sum_j q^gamma j^(-gamma) |T_qj|, with divisor tails.

    The truncated value uses the assembled columns only; rows carrying a
    tail coefficient get ``coeff * sum_{m > J/q} m^(-gamma)`` added, the
    exact contribution of entries at all higher multiples of q.
    """
    if np.any(mat.row_q < 1) or np.any(mat.col_j < 1):
        raise ValueError("norm rows/columns must have labels >= 1")
    q = mat.row_q.astype(float)
    j = mat.col_j.astype(float)
    row_sums = (np.abs(mat.entries) * j[None, :] ** (-gamma)) @ np.ones(len(j))
    row_sums = row_sums * q**gamma
    tails = 0.0
    if mat.row_tail_coeff is not None:
        jmax = int(mat.col_j[-1])
        tails = mat.row_tail_coeff * hurwitz_zeta(gamma, jmax // mat.row_q + 1)
    return GammaNormResult(truncated=float(np.max(row_sums)),
                           tail_completed=float(np.max(row_sums + tails)))


# -- contraction certificate ---------------------------------------------------


def analytic_contraction_bound(eps: float, c_constant: float = DEFAULT_C_CONSTANT) -> float:
    """Closed-form norm bound: (zeta(3)-1) + ((pi+eps)^3/(48 cos eps) + C eps/4) zeta(3) + C eps."""
    if not 0.0 <= eps < np.pi / 2:
        raise ValueError(f"eps must lie in [0, pi/2) for the cosine bound, got {eps}")
    if not (math.isfinite(c_constant) and c_constant >= 0.0):
        raise ValueError(f"remainder constant must be finite and >= 0, got {c_constant}")
    return float(
        (ZETA3 - 1.0)
        + ((np.pi + eps) ** 3 / (48.0 * np.cos(eps)) + c_constant * eps / 4.0) * ZETA3
        + c_constant * eps
    )


@dataclass
class ContractionCertificate:
    gamma: float
    epsilon: float
    c_constant: float
    analytic_bound: float
    numeric_norm: float | None        # truncated weighted norm of T_*R - Id
    numeric_norm_completed: float | None
    passed: bool
    # the T_*R whose norm was measured: the block a plan inverts
    T_star_R: OperatorMatrix | None = field(default=None, compare=False, repr=False)

    @property
    def inversion_certified(self) -> bool:
        """Gate used by the reconstruction pipeline.

        The truncated Neumann series converges exactly when the computed
        norm of T_*R - Id is below 1, so inversion is gated on the numeric
        (tail-completed) value alone, and an analytic-only certificate gates
        none; the closed-form bound only certifies far smaller weight offsets.
        """
        return self.numeric_norm_completed is not None and self.numeric_norm_completed < 1.0

    def to_json_dict(self) -> dict:
        opt = lambda v: None if v is None else float(v)
        return {
            "gamma": float(self.gamma),
            "epsilon": float(self.epsilon),
            "c_constant": float(self.c_constant),
            "analytic_bound": float(self.analytic_bound),
            "numeric_norm": opt(self.numeric_norm),
            "numeric_norm_completed": opt(self.numeric_norm_completed),
            "pass": bool(self.passed),
        }


def contraction_certificate(
    frame: BoundaryFrame | None,
    params: GammaSpaceParams,
    eps: float | None = None,
    fit: AlphaBetaFit | None = None,
    c_constant: float = DEFAULT_C_CONSTANT,
    full: OperatorMatrix | None = None,
) -> ContractionCertificate:
    """Evaluate both the analytic bound and the truncated numerical norm.

    Passes only when every computed bound is below 1. Without a frame the
    certificate is analytic-only (eps must then be given). With one, the
    certificate measures the assembly it is given: ``full``, an `assemble_T`
    over at least periods 2..Q and columns 0..J, with ``fit`` the ladder fit
    on the same table, becomes `assemble_T_star_R` on ``frame.chart``; a
    frame without either raises ValueError. A failing certificate is
    reported, not raised.
    """
    if frame is None:
        if eps is None:
            raise ValueError("analytic-only certificate needs an explicit eps")
        bound = analytic_contraction_bound(eps, c_constant)
        return ContractionCertificate(
            gamma=params.gamma,
            epsilon=float(eps),
            c_constant=c_constant,
            analytic_bound=float(bound),
            numeric_norm=None,
            numeric_norm_completed=None,
            passed=bool(bound < 1.0),
        )

    missing = [name for name, value in (("full", full), ("fit", fit)) if value is None]
    if missing:
        raise ValueError(f"a certificate with a frame needs {' and '.join(missing)}")
    if eps is None:
        eps = closeness_report(frame, order=0).eps  # the C0 distance; no derivative norms
    tsr = assemble_T_star_R(frame.chart, full, params, fit)
    norm = gamma_norm(subtract_identity(tsr), params.gamma)
    bound = analytic_contraction_bound(eps, c_constant)
    return ContractionCertificate(
        gamma=params.gamma,
        epsilon=float(eps),
        c_constant=c_constant,
        analytic_bound=bound,
        numeric_norm=norm.truncated,
        numeric_norm_completed=norm.tail_completed,
        passed=bool(bound < 1.0 and norm.tail_completed < 1.0),
        T_star_R=tsr,
    )


# -- inversion -----------------------------------------------------------------


def square_block(mat: OperatorMatrix, n: int) -> OperatorMatrix:
    """Leading square block over labels 1..n (rows and columns)."""
    rsel = np.nonzero((mat.row_q >= 1) & (mat.row_q <= n))[0]
    csel = np.nonzero((mat.col_j >= 1) & (mat.col_j <= n))[0]
    if len(rsel) != n or len(csel) != n:
        raise ValueError(f"matrix does not contain a contiguous 1..{n} block")
    return OperatorMatrix(
        entries=mat.entries[np.ix_(rsel, csel)],
        row_q=mat.row_q[rsel],
        col_j=mat.col_j[csel],
    )


@dataclass
class NeumannInfo:
    iterations: int
    # one row per term, and one column per system for an (n, m) right-hand side
    weighted_update_norms: np.ndarray  # max_j j^gamma |update_j|; ratios <= ||Id - T||_gamma

    @property
    def contraction_ratios(self) -> np.ndarray:
        u = self.weighted_update_norms
        return u[1:] / np.maximum(u[:-1], 1e-300)


def neumann_invert(
    T_star_R: OperatorMatrix,
    rhs,
    order: int = 40,
    gamma: float = 3.5,
) -> tuple:
    """Solve T w = rhs by ``order`` terms of the series w = sum (Id - T)^k rhs on a square block.

    Returns (w, NeumannInfo), with w the coefficients 1..n shaped like ``rhs``:
    an (n, m) right-hand side is m systems solved together, one column each,
    and the update norms get one column per system. Successive weighted
    update norms contract at least as fast as the certified norm of Id - T;
    gating on that certificate is the caller's.
    """
    if order < 0:
        raise ValueError(f"Neumann order must be >= 0, got {order}")
    A = T_star_R.entries
    n = A.shape[0]
    if A.shape[1] != n or not (
        np.array_equal(T_star_R.row_q, np.arange(1, n + 1))
        and np.array_equal(T_star_R.col_j, np.arange(1, n + 1))
    ):
        raise ValueError("neumann_invert needs the square block over labels 1..n")
    rhs = np.asarray(rhs, dtype=float)
    weights = (np.arange(1, n + 1, dtype=float) ** gamma).reshape((n,) + (1,) * (rhs.ndim - 1))
    B = np.eye(n) - A
    w = np.zeros((order + 1,) + rhs.shape)  # w[k]: the sum of the first k terms
    for k in range(1, order + 1):
        np.matmul(B, w[k - 1], out=w[k])
        w[k] += rhs
    weighted = (np.abs(np.diff(w, axis=0)) * weights).max(axis=1)
    return w[order], NeumannInfo(iterations=order, weighted_update_norms=weighted)


def lstsq_invert(T_star_R: OperatorMatrix, rhs) -> np.ndarray:
    """Direct LU solve of the same square system, for cross-checks.

    The coefficients 1..n come shaped like ``rhs``; an (n, m) right-hand side
    is solved in one call. A singular block, which only an overridden
    certificate lets through, raises SingularBlockError.
    """
    try:
        return np.linalg.solve(T_star_R.entries, np.asarray(rhs, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"the square block is singular: {exc}") from None
