"""Shared fixtures, and the test oracles that no command runs: the full-polygon length
derivatives, the full-orbit bounce sums, the divisor matrix, the mean functional L_0 and
the large-q limit check of L_q against it (import them from ``conftest``)."""

from dataclasses import dataclass

import numpy as np
import pytest

from rigidity_lab import billiards, geometry
from rigidity_lab import functionals as fn
from rigidity_lab import operator as op
from rigidity_lab.errors import InsufficientLadderError

LADDER = (8, 16, 32, 64)


@pytest.fixture(scope="session")
def circle_frame():
    return geometry.build_frame(geometry.build_profile(()), 512)


@pytest.fixture(scope="session")
def perturbed_frame():
    """The a_2 = 0.01 workhorse domain."""
    return geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)


@pytest.fixture(scope="session")
def circle_orbits(circle_frame):
    qs = sorted(set(range(2, 17)) | set(LADDER))
    return billiards.compute_orbits(circle_frame, qs)


@pytest.fixture(scope="session")
def perturbed_orbits(perturbed_frame):
    qs = sorted(set(range(2, 17)) | set(LADDER))
    return billiards.compute_orbits(perturbed_frame, qs)


@pytest.fixture(scope="session")
def perturbed_fit(perturbed_frame, perturbed_orbits):
    ladder = {q: perturbed_orbits[q] for q in LADDER}
    return billiards.fit_alpha_beta(perturbed_frame.chart, ladder)


@pytest.fixture(scope="session")
def circle_fit(circle_frame, circle_orbits):
    ladder = {q: circle_orbits[q] for q in LADDER}
    return billiards.fit_alpha_beta(circle_frame.chart, ladder)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def _per_row_T(chart, orbits, params):
    """`operator.assemble_T` one row at a time: per period, on its free half (bounces
    0..q//2, each mirrored one counted twice), one weight evaluation and one product of
    its own cosine table (from `geometry.harmonics`, as in the batch) with the weights."""
    qs = [q for q in sorted(orbits) if 2 <= q <= params.Q]
    cols = np.arange(params.J + 1)
    entries = np.zeros((len(qs) + 2, len(cols)))
    entries[0, 0] = 1.0
    entries[1, :] = 1.0
    for i, q in enumerate(qs, start=2):
        orb, k = orbits[q], np.arange(q // 2 + 1)
        sin_phi = orb.sin_phi[k] / np.where((k == 0) | (2 * k == q), 1.0, 2.0)
        w = chart.mu_of_theta(orb.theta[k]) / (sin_phi * q * q)
        entries[i] = np.stack(geometry.harmonics(2.0 * np.pi * orb.x[k], len(cols))[0]) @ w
    return op.OperatorMatrix(entries=entries, row_q=np.array([0, 1] + qs), col_j=cols)


@pytest.fixture(scope="session")
def per_row_T():
    """Oracle for the batched operator assembly: the per-row loop it replaced."""
    return _per_row_T


def length_grad_hess(profile, thetas):
    """Chords, gradient and cyclic tridiagonal Hessian of one closed polygon's length,
    over all its bounces: the oracle of `billiards._reduced_grad_hess`, which reads
    the free half of a symmetric polygon only.

    Returns ``(ell, grad, diag, off)``: chord k joins bounces k and k+1, ``diag[k]``
    is the Hessian entry at bounce k and ``off[k]`` the entry coupling k and k+1.
    """
    k = np.arange(len(thetas))
    nxt, prv = (k + 1) % len(k), (k - 1) % len(k)
    (px, py), (vx, vy), (ax, ay) = profile.point_jet(thetas)

    dx, dy = px[nxt] - px, py[nxt] - py
    ell = np.hypot(dx, dy)
    ux, uy = dx / ell, dy / ell

    # gradient: tangential mismatch of incoming vs outgoing unit chords
    grad = vx * (ux[prv] - ux) + vy * (uy[prv] - uy)

    vx1, vy1 = vx[nxt], vy[nxt]
    vu_tail = vx * ux + vy * uy            # V_k . u_k
    vu_head = vx1 * ux + vy1 * uy          # V_{k+1} . u_k
    vv = vx * vx + vy * vy
    vv_cross = vx * vx1 + vy * vy1
    au_tail = ax * ux + ay * uy
    au_head = ax[nxt] * ux + ay[nxt] * uy

    diag_tail = (vv - vu_tail**2) / ell - au_tail
    diag_head = (vv[nxt] - vu_head**2) / ell + au_head
    off = -(vv_cross - vu_tail * vu_head) / ell
    # chord k contributes diag_tail[k] at bounce k and diag_head[k] at bounce k+1
    diag = diag_tail + diag_head[prv]
    return ell, grad, diag, off


def full_orbit_sums(orbits, terms):
    """Per orbit, the sum over all its q bounces of ``terms(orbit)``, and the sum of
    their magnitudes (the scale of the sum's roundoff): the oracle of the sums that
    `billiards.guarded_half` takes over the free half."""
    sums = np.array([np.sum(terms(orb), axis=-1) for orb in orbits])
    scale = np.array([np.sum(np.abs(terms(orb)), axis=-1) for orb in orbits])
    return sums, scale


def assemble_delta(params):
    """Divisor matrix: entry 1 where the row period divides the column frequency."""
    rows = np.arange(1, params.Q + 1)
    cols = np.arange(1, params.J + 1)
    entries = (cols[None, :] % rows[:, None] == 0).astype(float)
    return op.OperatorMatrix(entries=entries, row_q=rows, col_j=cols,
                             row_tail_coeff=np.ones(len(rows)))


def script_L_0(u, n_grid=4096):
    """Mean of u over one period of x (uniform-grid quadrature)."""
    x = np.arange(n_grid) / n_grid
    return float(np.mean(u(x)))


@dataclass
class RiemannLimitReport:
    qs: tuple
    values: dict           # q -> script_L_q(u)
    limit: float           # script_L_0(u)
    diffs: dict            # q -> |value - limit|
    decay_exponent: float  # fitted slope of log|diff| vs log q, sign flipped


def riemann_limit_check(u, orbits, chart):
    """Tabulate |L_q(u) - mean(u)| over a q ladder and fit its decay rate."""
    qs = tuple(sorted(orbits))
    if len(qs) < 3:
        raise InsufficientLadderError(f"need at least 3 ladder periods, got {len(qs)}")
    limit = script_L_0(u)
    values = {q: fn.script_L_q(u, orbits[q], chart) for q in qs}
    diffs = {q: abs(values[q] - limit) for q in qs}
    logq = np.log(np.array(qs, dtype=float))
    logd = np.log(np.maximum([diffs[q] for q in qs], 1e-300))
    slope = float(np.polyfit(logq, logd, 1)[0])
    return RiemannLimitReport(qs=qs, values=values, limit=limit, diffs=diffs,
                              decay_exponent=-slope)
