"""Periodic billiard orbits on convex axis-symmetric tables.

The central solver finds, for each period q >= 2, the reflection-symmetric
orbit of rotation number 1/q through the marked point that maximizes the
polygon length. It runs damped Newton on the length gradient in reduced
coordinates (only the bounces in the open upper half are free; mirror
bounces are slaved, and for even q the antipodal axis bounce is pinned).
Every step costs O(q) and forms no dense matrix:

- it starts from the Lazutkin points ``x = k/q``, which the orbit misses by
  O(q^-2), interpolated in the frame's own (x, theta) table;
- the reduced Hessian is a tridiagonal band, and the Newton step is its
  LDL^T (Thomas) solve;
- once ``|grad| < tol`` one more full Newton step is taken, because the
  smallest Hessian eigenvalue falls like q^-3 and the gradient alone does
  not bound the error in theta; its size is kept as ``final_step``;
- the orbit is maximal when every LDL^T pivot of ``H - HESSIAN_POS_TOL*I``
  is negative (Sylvester's inertia), and its largest Hessian eigenvalue
  comes from Laguerre's iteration on the same pivot recurrence.

A geometric shooting map (`billiard_map`) provides an independent route to
the same orbits and to finite-difference return-map Jacobians; it shares no
code with the variational solver beyond the boundary parametrization. Each
bounce is bracketed by a scan of the boundary and polished by a safeguarded
Newton solve that falls back to bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateChordError,
    InsufficientLadderError,
    NoConvergenceError,
    NotMaximalError,
    SingularTransferError,
)
from .geometry import MARKED_THETA, TWO_PI, BoundaryFrame, LazutkinChart

GRADIENT_TOL = 1e-13
MAX_NEWTON_ITER = 60
MAX_EIG_ITER = 50
HESSIAN_POS_TOL = 1e-8
MAX_SHOOT_ITER = 100  # bisection alone needs ~40 steps from a scan bracket to 1e-14

#: bounces with sin(phi) below this are treated as grazing by every
#: functional, trace and transfer matrix built on an orbit
SIN_PHI_TOL = 1e-9


@dataclass
class PeriodicOrbit:
    """Reflection-symmetric maximal q-periodic orbit through the marked point."""

    q: int
    theta: np.ndarray        # bounce parameters, lifted to [pi, 3*pi)
    sigma: np.ndarray
    x: np.ndarray            # Lazutkin coordinates, increasing from 0
    phi: np.ndarray          # bounce angles against the tangent, in (0, pi/2]
    sin_phi: np.ndarray
    chords: np.ndarray       # chord lengths, chord k joins bounces k and k+1
    length: float
    maximal: bool
    hessian_max_eig: float
    reflection_residual: float
    gradient_residual: float
    iterations: int          # gradient checks until |grad| < tol
    final_step: float = 0.0  # size of the polishing Newton step taken after that

    @property
    def rotation_number(self) -> float:
        return 1.0 / self.q


@dataclass
class PoincareData:
    """Linearized q-bounce return map in (arclength, angle) variables."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    trace: float
    det: float
    nondegenerate: bool
    unit_eigen_tol: float


def orbit_length(frame: BoundaryFrame, thetas) -> float:
    """Total length of the closed polygon with vertices at boundary parameters."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size < 2:
        raise ValueError("need at least two bounce parameters")
    pts = frame.profile.position(thetas)
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    if np.min(chords) < 1e-12:
        raise DegenerateChordError(
            f"consecutive bounce points coincide (chord {np.min(chords):.3g})"
        )
    return float(np.sum(chords))


def _bounce_jet(profile, thetas):
    """Position, velocity and acceleration at each bounce as ``(x, y)`` pairs."""
    r, r1, r2, c, s = profile.jet(thetas)
    pos = (profile.center_offset + r * c, r * s)
    vel = (r1 * c - r * s, r1 * s + r * c)
    acc = ((r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c)
    return pos, vel, acc


def _length_grad_hess(profile, thetas):
    """Gradient and cyclic tridiagonal Hessian of the closed polygon length.

    Returns ``(length, grad, diag, off)``: ``diag[k]`` is the Hessian entry at
    bounce k and ``off[k]`` the entry coupling bounces k and k+1 (cyclic).
    """
    q = len(thetas)
    nxt, prv = np.arange(1, q + 1) % q, np.arange(-1, q - 1) % q
    (px, py), (vx, vy), (ax, ay) = _bounce_jet(profile, thetas)

    dx, dy = px[nxt] - px, py[nxt] - py
    ell = np.hypot(dx, dy)
    if np.min(ell) < 1e-12:
        raise DegenerateChordError("degenerate chord during orbit solve")
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
    return float(np.sum(ell)), grad, diag, off


def _symmetric_assemble(q: int, s):
    """Full offset vector from the free upper-half bounce offsets ``s``.

    t_0 = 0 is the marked point, t_{q-k} = 2*pi - t_k is mirrored, and for
    even q the antipodal bounce is pinned at pi.
    """
    half = (q - 1) // 2
    t = np.zeros(q)
    t[1 : half + 1] = s
    t[q - half :] = (TWO_PI - s)[::-1]
    if q % 2 == 0:
        t[q // 2] = np.pi
    return t


def _reduced_grad_hess(profile, t):
    """Length, gradient and Hessian band of a symmetric orbit in its free offsets.

    ``t`` is the full offset vector from `_symmetric_assemble`. Free bounce j
    (j = 1..half) moves with its mirror q-j in the opposite direction, so the
    reduced gradient is ``grad[j] - grad[q-j]`` and the reduced Hessian stays
    tridiagonal: it is returned as the band ``(d, e)`` of its diagonal and
    off-diagonal. For odd q the mirror pair half, half+1 are neighbours, which
    adds the coupling ``-2*off[half]`` to the last diagonal entry.
    """
    q = len(t)
    half = (q - 1) // 2
    length, grad, diag, off = _length_grad_hess(profile, MARKED_THETA + t)
    j = np.arange(1, half + 1)
    gr = grad[j] - grad[q - j]
    d = diag[j] + diag[q - j]
    if q % 2:
        d[-1] -= 2.0 * off[half]
    i = np.arange(half - 1)
    return length, gr, (d, off[i + 1] + off[q - i - 2])


# -- symmetric tridiagonal bands (d, e): O(n) per pass, no dense matrix ----------


def _band_solve(band, b):
    """Solve ``H x = b`` for the band ``H = (d, e)`` by LDL^T (Thomas).

    No pivoting: backward stable where H is definite, as the length Hessian
    is near a nondegenerate maximum. A zero pivot raises ZeroDivisionError.
    """
    d, e, b = band[0].tolist(), band[1].tolist(), b.tolist()
    n = len(d)
    piv, mult, y = [d[0]] * n, [0.0] * n, [b[0]] * n
    for i in range(1, n):
        m = e[i - 1] / piv[i - 1]
        mult[i], piv[i], y[i] = m, d[i] - m * e[i - 1], b[i] - m * y[i - 1]
    x = [y[-1] / piv[-1]] * n
    for i in range(n - 2, -1, -1):
        x[i] = y[i] / piv[i] - mult[i + 1] * x[i + 1]
    return np.array(x)


def _band_inertia(band, shift: float) -> int:
    """Number of eigenvalues of the band below ``shift``.

    By Sylvester's law of inertia it is the number of negative LDL^T pivots
    of ``H - shift*I`` (a Sturm count; Barth, Martin & Wilkinson, Numer.
    Math. 1967). A zero pivot counts as a tiny negative one, and a NaN pivot
    as non-negative, so a NaN band never counts as definite.
    """
    d, e = band
    # LAPACK dstebz's stand-in for a zero pivot: tiny, yet e^2 / pivmin stays finite
    pivmin = float(np.finfo(float).tiny * max(1.0, float(np.max(e * e, initial=0.0))))
    count, p = 0, 1.0
    for di, e2 in zip(d.tolist(), [0.0] + (e * e).tolist()):
        p = di - shift - e2 / p
        if p == 0.0:
            p = -pivmin
        count += p < 0.0
    return count


def _band_max_eig(band, upper: float = math.inf) -> float:
    """Largest eigenvalue of the band, by Laguerre's iteration from above.

    The logarithmic derivatives of ``det(H - x I)`` are sums over the LDL^T
    pivots of ``H - x I`` and their x-derivatives, one O(n) pass per step.
    The characteristic polynomial has only real roots, so from above the
    largest one the iterates decrease monotonically onto it, cubically near
    a simple root (Li & Zeng, SIAM J. Sci. Comput. 15, 1994). Any symmetric
    band qualifies, definite or not; accuracy is absolute, about eps * |H|.
    The start is ``upper`` or the Gershgorin bound, whichever is lower.
    """
    d, e = band
    n = len(d)
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0))
    norm = float(np.max(np.abs(d) + radius))
    if not norm > 0.0:  # the zero band, or NaN
        return norm
    # work on H / 2^k with |H / 2^k| in [1/2, 1): exact, and nothing over- or underflows
    scale = 2.0 ** math.frexp(norm)[1]
    floor = 4.0 * np.finfo(float).eps
    x = float(np.minimum(upper / scale, np.max(d + radius) / scale + floor))
    d, e2 = (d / scale).tolist(), [0.0] + ((e / scale) ** 2).tolist()
    for _ in range(MAX_EIG_ITER):
        # g = p'/p and h = p''/p of each pivot p; s1 = sum 1/(x - lam), s2 = sum 1/(x - lam)^2
        p, g, h, s1, s2 = 1.0, 0.0, 0.0, 0.0, 0.0
        for di, ei2 in zip(d, e2):
            w = ei2 / p
            p = di - x - w
            if not p < 0.0:  # H - xI is not negative definite: x reached the root
                return x * scale
            g, h = (w * g - 1.0) / p, w * (h - 2.0 * g * g) / p
            s1 += g
            s2 += g * g - h
        step = n / (s1 + math.sqrt(max((n - 1) * (n * s2 - s1 * s1), 0.0)))
        x -= step
        if step <= floor + 1e-15 * abs(x):
            return x * scale
    raise NoConvergenceError(f"band eigenvalue iteration hit its cap of {MAX_EIG_ITER}")


def _newton_step(band, gr):
    """Newton step for gradient ``gr``, or a short ascent step where a pivot vanishes."""
    try:
        return _band_solve(band, -gr)
    except ZeroDivisionError:
        return gr * (0.1 / max(np.max(np.abs(gr)), 1.0))


def maximal_marked_orbit(
    frame: BoundaryFrame,
    q: int,
    tol: float = GRADIENT_TOL,
    max_iter: int = MAX_NEWTON_ITER,
    require_maximal: bool = True,
) -> PeriodicOrbit:
    """Solve for the symmetric maximal q-periodic orbit through the marked point."""
    if q < 2:
        raise ValueError(f"period must be >= 2, got {q}")
    profile = frame.profile
    half = (q - 1) // 2

    # Lazutkin start: x_q^k = k/q + O(q^-2), read off the frame's own table
    s = np.interp(np.arange(1, half + 1) / q, frame.x, frame.theta) - MARKED_THETA
    iterations, final_step = 0, 0.0
    if half:
        _, gr, band = _reduced_grad_hess(profile, _symmetric_assemble(q, s))
        for iterations in range(1, max_iter + 1):
            step = _newton_step(band, gr)
            if np.max(np.abs(gr)) < tol:
                # polished stop: |grad| bounds the error only by |grad| / |lambda_min|,
                # which grows like q^3, so one more full step resolves it to roundoff
                s = s + step
                final_step = float(np.max(np.abs(step)))
                break
            lam, accepted = 1.0, False
            for _ in range(50):
                cand = s + lam * step
                t_cand = _symmetric_assemble(q, cand)
                if np.all(np.diff(t_cand) > 1e-12) and t_cand[-1] < TWO_PI - 1e-12:
                    _, gr_c, band_c = _reduced_grad_hess(profile, t_cand)
                    if np.max(np.abs(gr_c)) < np.max(np.abs(gr)) or lam < 1e-8:
                        s, gr, band = cand, gr_c, band_c
                        accepted = True
                        break
                lam *= 0.5
            if not accepted:
                raise NoConvergenceError(f"orbit solve stalled at q={q}")
        else:
            raise NoConvergenceError(
                f"orbit solve hit the iteration cap at q={q}, "
                f"|grad|={np.max(np.abs(gr)):.3g}"
            )

    t = _symmetric_assemble(q, s)
    theta = MARKED_THETA + t
    length, gr, band = _reduced_grad_hess(profile, t)
    if half:
        # maximal <=> every eigenvalue below HESSIAN_POS_TOL, which then bounds the largest
        maximal = _band_inertia(band, HESSIAN_POS_TOL) == half
        max_eig = _band_max_eig(band, HESSIAN_POS_TOL if maximal else math.inf)
    else:
        maximal, max_eig = True, -np.inf
    if require_maximal and not maximal:
        raise NotMaximalError(
            f"second variation indefinite at q={q} (max eigenvalue {max_eig:.3g})"
        )

    nxt, prv = np.arange(1, q + 1) % q, np.arange(-1, q - 1) % q
    (px, py), (vx, vy), _ = _bounce_jet(profile, theta)
    speed = np.hypot(vx, vy)
    tx, ty = vx / speed, vy / speed
    dx, dy = px[nxt] - px, py[nxt] - py
    chords = np.hypot(dx, dy)
    ux, uy = dx / chords, dy / chords
    ux_in, uy_in = ux[prv], uy[prv]

    cross_out = tx * uy - ty * ux
    dot_out = tx * ux + ty * uy
    cross_in = ux_in * ty - uy_in * tx
    dot_in = ux_in * tx + uy_in * ty
    phi_out = np.arctan2(cross_out, dot_out)
    phi_in = np.arctan2(cross_in, dot_in)

    chart = frame.chart
    orbit = PeriodicOrbit(
        q=q,
        theta=theta,
        sigma=chart.sigma_of_theta(theta),
        x=chart.x_of_theta(theta),
        phi=0.5 * (phi_in + phi_out),
        sin_phi=0.5 * (cross_in + cross_out),
        chords=chords,
        length=length,
        maximal=maximal,
        hessian_max_eig=max_eig,
        reflection_residual=float(np.max(np.abs(phi_in - phi_out))),
        gradient_residual=float(np.max(np.abs(gr))) if half else 0.0,
        iterations=iterations,
        final_step=final_step,
    )
    orbit.x[0] = 0.0  # marked point, exact by convention
    return orbit


def compute_orbits(
    frame: BoundaryFrame, qs, threads: int = 1, **kwargs
) -> dict:
    """Solve orbits for each period in qs, serially.

    ``threads`` is accepted and ignored: the solves hold the GIL, so a
    thread pool was no faster than the serial loop.
    """
    return {q: maximal_marked_orbit(frame, q, **kwargs) for q in sorted(set(int(q) for q in qs))}


# -- linearized return map ----------------------------------------------------


def linearized_poincare(
    frame: BoundaryFrame,
    orbit: PeriodicOrbit,
    sin_phi_tol: float = SIN_PHI_TOL,
    unit_eigen_tol: float = 1e-8,
) -> PoincareData:
    """Product of per-bounce transfer matrices in (arclength, angle) variables."""
    kappa = frame.profile.curvature(orbit.theta)
    sin_phi = orbit.sin_phi
    if np.min(sin_phi) < sin_phi_tol:
        raise SingularTransferError(
            f"bounce angle too close to grazing (sin phi = {np.min(sin_phi):.3g})"
        )
    nxt = np.arange(1, orbit.q + 1) % orbit.q
    tau = orbit.chords
    k0c, k1c = kappa, kappa[nxt]
    s0, s1 = sin_phi, sin_phi[nxt]
    # transfer matrix of bounce k -> k+1, stacked over k
    steps = np.empty((orbit.q, 2, 2))
    steps[:, 0, 0] = k0c * tau - s0
    steps[:, 0, 1] = tau
    steps[:, 1, 0] = k0c * k1c * tau - k0c * s1 - k1c * s0
    steps[:, 1, 1] = k1c * tau - s1
    steps /= s1[:, None, None]
    # step[q-1] @ ... @ step[0] by a pairwise tree, log2(q) batched passes
    while len(steps) > 1:
        odd = steps[-1:] if len(steps) % 2 else steps[:0]
        steps = np.concatenate([steps[1::2] @ steps[0:-1:2], odd])
    mat = steps[0]
    eig = np.linalg.eigvals(mat)
    trace = float(np.trace(mat))
    # unit eigenvalue of an area-preserving map <=> det(M - I) = 2 - trace = 0;
    # the trace is stable where the eigenvalues of a near-parabolic map are not
    return PoincareData(
        matrix=mat,
        eigenvalues=eig,
        trace=trace,
        det=float(np.linalg.det(mat)),
        nondegenerate=bool(abs(trace - 2.0) > unit_eigen_tol),
        unit_eigen_tol=unit_eigen_tol,
    )


# -- geometric shooting map (independent of the variational solver) -----------


def billiard_map(frame: BoundaryFrame, theta: float, direction, scan: int = 1024):
    """One bounce of the billiard map: next boundary parameter and reflected direction.

    The next intersection is bracketed by scanning the signed cross product of
    the ray direction against the boundary, then polished with a safeguarded
    Newton solve; convexity guarantees a single crossing away from the start
    point.
    """
    profile = frame.profile
    p0 = profile.position(theta)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def side(dtheta):
        p = profile.position(theta + dtheta)
        return d[0] * (p[..., 1] - p0[1]) - d[1] * (p[..., 0] - p0[0])

    grid = TWO_PI * np.arange(1, scan) / scan
    vals = side(grid)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    hit = None
    for i in flips:
        mid = 0.5 * (grid[i] + grid[i + 1])
        p = profile.position(theta + mid)
        if np.dot(p - p0, d) > 0:
            hit = i
            break
    if hit is None:
        raise NoConvergenceError("shooting failed to bracket the next bounce")
    dtheta = _polish_crossing(
        profile, theta, p0, d, grid[hit], grid[hit + 1], vals[hit], vals[hit + 1]
    )
    theta1 = theta + dtheta
    t1 = profile.tangent(theta1)
    if t1.ndim > 1:
        t1 = t1[0]
    d_out = 2.0 * np.dot(d, t1) * t1 - d
    return float(theta1), d_out


def _polish_crossing(profile, theta, p0, d, lo, hi, f_lo, f_hi):
    """Root of side(t) = d x (position(theta + t) - p0) inside the bracket [lo, hi].

    Newton with side'(t) = d x velocity, started at the secant point; any
    step that leaves the current bracket is replaced by bisection. Stops once
    a step is below 1e-14 + 8.9e-16 |t|.
    """
    x0, y0 = float(p0[0]) - profile.center_offset, float(p0[1])
    dx, dy = float(d[0]), float(d[1])
    t = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(MAX_SHOOT_ITER):
        th = theta + t
        r, r1, _, c, s = (float(v) for v in profile.jet(th))
        f = dx * (r * s - y0) - dy * (r * c - x0)
        if (f > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f
        else:
            hi = t
        slope = dx * (r1 * s + r * c) - dy * (r1 * c - r * s)
        tol = 1e-14 + 8.9e-16 * abs(t)
        step = f / slope if slope != 0.0 else math.inf
        if abs(step) > tol and not lo < t - step < hi:
            step = t - 0.5 * (lo + hi)  # the Newton step leaves the bracket: bisect
        t -= step
        if abs(step) <= tol:
            return t
    raise NoConvergenceError(f"shooting root solve hit the iteration cap of {MAX_SHOOT_ITER}")


def shoot_orbit(frame: BoundaryFrame, q: int, phi0: float, theta0: float = MARKED_THETA):
    """Iterate the shooting map q times from (theta0, launch angle phi0)."""
    t0 = frame.profile.tangent(theta0)
    normal = np.array([-t0[1], t0[0]])  # interior side for counter-clockwise boundary
    d = np.cos(phi0) * t0 + np.sin(phi0) * normal
    thetas = [float(theta0)]
    for _ in range(q):
        theta0, d = billiard_map(frame, theta0, d)
        thetas.append(theta0)
    return np.array(thetas), d


# -- diagnostics ---------------------------------------------------------------


@dataclass
class GenericityReport:
    """Distinct-length and nondegeneracy diagnostics over computed orbits."""

    qs: tuple
    lengths: dict
    min_length_gap: float
    closest_pair: tuple
    traces: dict
    nondegenerate: dict
    warning: str = (
        "only marked symmetric maximal orbits are enumerated; the distinct-length "
        "check does not cover other periodic orbits"
    )


def genericity_report(
    frame: BoundaryFrame, orbits: Mapping[int, PeriodicOrbit], unit_eigen_tol: float = 1e-8
) -> GenericityReport:
    qs = tuple(sorted(orbits))
    lengths = {q: orbits[q].length for q in qs}
    gap, pair = np.inf, ()
    for i, qa in enumerate(qs):
        for qb in qs[i + 1 :]:
            g = abs(lengths[qa] - lengths[qb])
            if g < gap:
                gap, pair = g, (qa, qb)
    traces, flags = {}, {}
    for q in qs:
        pd = linearized_poincare(frame, orbits[q], unit_eigen_tol=unit_eigen_tol)
        traces[q] = pd.trace
        flags[q] = pd.nondegenerate
    return GenericityReport(
        qs=qs,
        lengths=lengths,
        min_length_gap=float(gap),
        closest_pair=pair,
        traces=traces,
        nondegenerate=flags,
    )


@dataclass
class AlphaBetaFit:
    """Creeping-orbit corrections: bounce drift (odd) and angle correction (even).

    alpha_hat[q][k] = q^2 (x_q^k - k/q) and beta_hat[q][k] = q^2 (q phi_q^k /
    mu(x_q^k) - 1) on each orbit's own grid; `alpha`/`beta` are the Richardson
    limits from the two finest ladder rungs, tabulated on the second-finest
    grid, with sine/cosine coefficients against sin(2 pi j x), cos(2 pi j x).
    """

    qs: tuple
    grid: np.ndarray
    alpha_hat: dict
    beta_hat: dict
    alpha: np.ndarray
    beta: np.ndarray
    alpha_sine: np.ndarray
    beta_cos: np.ndarray
    alpha_parity_residual: float
    beta_parity_residual: float
    alpha_residuals: dict
    beta_residuals: dict
    alpha_slope: float
    beta_slope: float

    @property
    def beta0(self) -> float:
        return float(self.beta_cos[0])


def fit_alpha_beta(chart: LazutkinChart, orbits: Mapping[int, PeriodicOrbit]) -> AlphaBetaFit:
    """Fit the 1/q^2 corrections of bounce positions and angles over a q ladder."""
    qs = tuple(sorted(orbits))
    if len(qs) < 3:
        raise InsufficientLadderError(f"need at least 3 ladder periods, got {len(qs)}")
    for qa, qb in zip(qs, qs[1:]):
        if qb % qa:
            raise ValueError("ladder periods must divide each other (use a dyadic ladder)")

    alpha_hat, beta_hat = {}, {}
    for q in qs:
        orb = orbits[q]
        k_over_q = np.arange(q) / q
        mu = chart.mu_of_theta(orb.theta)
        alpha_hat[q] = q * q * (orb.x - k_over_q)
        beta_hat[q] = q * q * (q * orb.phi / mu - 1.0)

    q_fit, q_top = qs[-2], qs[-1]
    stride = q_top // q_fit
    wa, wb = q_top**2, q_fit**2
    alpha = (wa * alpha_hat[q_top][::stride] - wb * alpha_hat[q_fit]) / (wa - wb)
    beta = (wa * beta_hat[q_top][::stride] - wb * beta_hat[q_fit]) / (wa - wb)
    grid = np.arange(q_fit) / q_fit

    mirror = (q_fit - np.arange(q_fit)) % q_fit
    alpha_parity = float(np.max(np.abs(alpha + alpha[mirror])))
    beta_parity = float(np.max(np.abs(beta - beta[mirror])))

    spec_a = np.fft.rfft(alpha) / q_fit
    spec_b = np.fft.rfft(beta) / q_fit
    alpha_sine = -2.0 * spec_a.imag
    alpha_sine[0] = 0.0
    beta_cos = 2.0 * spec_b.real
    beta_cos[0] = spec_b[0].real

    alpha_res, beta_res = {}, {}
    for q in qs:
        sub = q // np.gcd(q, q_fit)            # orbit indices landing on the fit grid
        take = np.arange(0, q, sub) if sub > 1 else np.arange(q)
        pts = (take / q * q_fit).round().astype(int) % q_fit
        alpha_res[q] = float(np.max(np.abs(alpha_hat[q][take] - alpha[pts])) / q**2)
        beta_res[q] = float(np.max(np.abs(beta_hat[q][take] - beta[pts])) / q**2)

    logq = np.log(np.array(qs, dtype=float))
    slope_a = float(np.polyfit(logq, np.log([max(alpha_res[q], 1e-300) for q in qs]), 1)[0])
    slope_b = float(np.polyfit(logq, np.log([max(beta_res[q], 1e-300) for q in qs]), 1)[0])

    return AlphaBetaFit(
        qs=qs,
        grid=grid,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        alpha=alpha,
        beta=beta,
        alpha_sine=alpha_sine,
        beta_cos=beta_cos,
        alpha_parity_residual=alpha_parity,
        beta_parity_residual=beta_parity,
        alpha_residuals=alpha_res,
        beta_residuals=beta_res,
        alpha_slope=slope_a,
        beta_slope=slope_b,
    )
