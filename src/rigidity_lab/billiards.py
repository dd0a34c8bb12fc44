"""Periodic billiard orbits on convex axis-symmetric tables.

The central solver finds, for each period q >= 2, the reflection-symmetric
orbit of rotation number 1/q through the marked point that maximizes the
polygon length. It runs damped Newton on the length gradient in reduced
coordinates (only the bounces in the open upper half are free; mirror
bounces are slaved, and for even q the antipodal axis bounce is pinned).
`compute_orbits` solves all its periods in one lockstep Newton, each step one
jet over their free halves (bounces 0..q//2) and O(sum q) with no dense matrix:

- it starts from the Lazutkin points ``x = k/q``, which the orbit misses by
  O(q^-2), interpolated in the chart's own (x, theta) grid table;
- each reduced Hessian is a tridiagonal band; with zero couplings between
  periods one LDL^T (Thomas) pass gives every period's Newton step, and the
  line search and stop run per period on masks, so each period takes the
  steps it would take alone;
- once ``|grad| < tol`` one more full Newton step is taken, because the
  smallest Hessian eigenvalue falls like q^-3 and the gradient alone does
  not bound the error in theta; its size is kept as ``final_step``;
- the orbit is maximal when every LDL^T pivot of ``H - HESSIAN_POS_TOL*I``
  is negative (a Sturm count, by Sylvester's inertia); the bands of all
  periods are set up for it in one array pass (`_band_blocks`), and only
  the pivot loop runs per period;
- one jet on the free half at the solution gives the angles and the curvature
  ``kappa`` each orbit keeps for the return maps and the weight mu (T, fit,
  `script_L_q`), mirrored exactly onto bounces q - k (`guarded_half` sums halves).

The linearized return maps of many orbits come from one pass
(`_return_maps`): one stack of transfer matrices over all bounces and one
segmented pairwise product tree (planned once per period layout), each
orbit's product associated as it would be alone. `genericity_report` reads
their traces, and the CLI's `orbits` table reads the report.

Every division by an orbit's ``sin phi`` (the return maps here; the bounce
sums, `script_L_q` and the T assembly downstream) reads it through one
grazing guard, `guarded_sin_phi`, which refuses a bounce below
``SIN_PHI_TOL`` with SingularAngleError.

A geometric shooting map (`billiard_map`) provides an independent route to
the same orbits and to finite-difference return-map Jacobians; it shares no
code with the variational solver beyond the boundary parametrization, which
both read from `DomainProfile.point_jet`. Strict convexity brackets each
bounce by the whole boundary, and a safeguarded Halley solve from the
circle's chord angle polishes it. `shoot_orbit` iterates the same float
bounce (`_bounce`), carrying each landing point and tangent into the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    DegenerateChordError,
    InsufficientLadderError,
    NoConvergenceError,
    NotMaximalError,
    SingularAngleError,
)
from .geometry import MARKED_THETA, TWO_PI, BoundaryFrame, LazutkinChart

GRADIENT_TOL = 1e-13
MAX_NEWTON_ITER = 60
HESSIAN_POS_TOL = 1e-8
MAX_SHOOT_ITER = 100  # bisection alone needs ~50 steps from (0, 2 pi) to 1e-14

#: a return map with |trace - 2| at or below this has a unit eigenvalue: an area-preserving map
#: has det(M - I) = 2 - trace, stable where the eigenvalues of a near-parabolic map are not
UNIT_EIGEN_TOL = 1e-8

#: dyadic periods whose orbits feed `fit_alpha_beta` in every pipeline
LADDER = (8, 16, 32, 64)

#: bounces with sin(phi) below this are grazing, refused by `guarded_sin_phi`
SIN_PHI_TOL = 1e-9


def guarded_sin_phi(orbits) -> np.ndarray:
    """The grazing guard: ``sin phi`` of the bounces of ``orbits`` (a non-empty
    sequence) laid end to end.

    The first orbit, in the given order, with a bounce closer to grazing than
    ``SIN_PHI_TOL`` raises SingularAngleError quoting its own min ``sin phi``.
    """
    sin_phi = np.concatenate([orbit.sin_phi for orbit in orbits])
    starts = np.cumsum([0] + [len(orbit.sin_phi) for orbit in orbits[:-1]])
    low = np.minimum.reduceat(sin_phi, starts)
    grazing = np.flatnonzero(low < SIN_PHI_TOL)
    if grazing.size:
        i = int(grazing[0])
        raise SingularAngleError(
            f"bounce angle too close to grazing at q={orbits[i].q} (sin phi = {low[i]:.3g})"
        )
    return sin_phi


def guarded_half(orbits) -> tuple:
    """For sums taking bounce q - k as its mirror k: the indices of the bounces 0..q//2
    of ``orbits`` laid end to end, their x, their guarded ``sin phi`` over the
    multiplicity (2; 1 at the marked and even-q axis bounce) and where each half starts."""
    # the key from a list: tuple() of a generator grows by realloc, and per call that
    # fragmented the heap of long runs (peak RSS +0.3 MB over 2,000 suite units)
    lay = _periods(tuple([orbit.q for orbit in orbits]))
    idx, sin_phi = lay.bounce, guarded_sin_phi(orbits)[lay.bounce] / 2.0
    sin_phi[np.r_[lay.hstart, lay.axis_half]] *= 2.0
    return idx, np.concatenate([orbit.x for orbit in orbits])[idx], sin_phi, lay.hstart


@dataclass
class PeriodicOrbit:
    """Reflection-symmetric maximal q-periodic orbit through the marked point; bounce
    q - k is bounce k mirrored exactly (x to 1 - x; phi, sin_phi, kappa copied; chords
    reversed)."""

    q: int
    theta: np.ndarray        # bounce parameters, lifted to [pi, 3*pi)
    x: np.ndarray            # Lazutkin coordinates, increasing from 0
    phi: np.ndarray          # bounce angles against the tangent, in (0, pi/2]
    sin_phi: np.ndarray
    kappa: np.ndarray        # boundary curvature at the bounces, as `DomainProfile.curvature`
    chords: np.ndarray       # chord lengths, chord k joins bounces k and k+1
    length: float
    reflection_residual: float
    gradient_residual: float
    iterations: int          # gradient checks until |grad| < tol
    final_step: float = 0.0  # size of the polishing Newton step taken after that


class _Periods:
    """Index arrays for the bounces of the periods ``qs`` laid end to end.

    Period p owns bounces ``start[p] : start[p] + q`` (bounce 0 is the marked
    point) and free offsets ``free[p] : free[p] + half``. Free offset j moves
    bounce ``up`` = j and, oppositely, its mirror ``down`` = q - j; for even q
    the ``axis`` bounce q/2 is pinned at pi.

    The free half, bounces k = 0..q//2 (``bounce``), has points ``hstart[p] + k``
    (free offset j moves ``fp``), each chord from k to ``head`` = k + 1; from the
    ``last`` point it ends at the mirror (x, -y) of itself (odd q) or of k - 1.
    """

    def __init__(self, qs):
        self.qs = q = np.array(qs, dtype=int)
        self.half = half = (q - 1) // 2
        self.start, self.free = np.cumsum(q) - q, np.cumsum(half) - half
        self.hstart, self.last = np.cumsum(q // 2 + 1) - (q // 2 + 1), np.cumsum(q // 2 + 1) - 1
        self.axis, self.axis_half = (self.start + q // 2)[q % 2 == 0], self.last[q % 2 == 0]
        self.end = (self.free + half - 1)[half > 0]
        self.odd_end = self.end[q[half > 0] % 2 == 1]
        fowner, hown = np.repeat(np.arange(len(q)), half), np.repeat(np.arange(len(q)), q // 2 + 1)
        j = np.arange(len(fowner)) - self.free[fowner] + 1
        self.up, self.down = self.start[fowner] + j, self.start[fowner] + q[fowner] - j
        self.fp = self.hstart[fowner] + j
        self.bounce = self.start[hown] + np.arange(len(hown)) - self.hstart[hown]
        self.head = np.arange(1, len(hown) + 1)
        self.head[self.last] = self.last - 1 + q % 2

    @cached_property
    def nxt(self) -> np.ndarray:  # each bounce's successor in its period
        nxt = np.arange(1, int(self.qs.sum()) + 1)
        nxt[self.start + self.qs - 1] = self.start
        return nxt

    @cached_property
    def record(self) -> tuple:  # the half's point of bounce k (q - k if mirrored), of chord k
        owner = np.repeat(np.arange(len(self.qs)), self.qs)
        k, q, base = np.arange(len(owner)) - self.start[owner], self.qs[owner], self.hstart[owner]
        mirrored, chord = 2 * k > q, base + np.where(2 * k < q, k, q - 1 - k)
        return base + np.where(mirrored, q - k, k), mirrored, chord

    @cached_property
    def tree(self) -> list:
        """`_return_maps`' product tree, per level ``(head, pair, k)``: the matrices kept
        (a pair's first or an odd last one), which of them pair, and each pair's first."""
        plan, count = [], self.qs
        while count.sum() > len(count):
            pos = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
            head = np.flatnonzero(pos % 2 == 0)
            pair = (pos + 1 < np.repeat(count, count))[head]
            plan.append((head, pair, head[pair]))
            count = (count + 1) // 2
        return plan

    def assemble(self, s):
        """Full offset vector from the free offsets: t_0 = 0 and t_{q-j} = 2 pi - t_j."""
        t = np.zeros(int(self.qs.sum()))
        t[self.up], t[self.down], t[self.axis] = s, TWO_PI - s, np.pi
        return t

    def increasing(self, t):
        """Per period: the offsets rise by more than 1e-12 and stay 1e-12 below 2 pi."""
        ok, wrap = t[self.nxt] - t > 1e-12, self.start + self.qs - 1
        ok[wrap] = t[wrap] < TWO_PI - 1e-12
        return np.logical_and.reduceat(ok, self.start)


_periods = lru_cache(maxsize=32)(_Periods)  # shared between callers: read only


def _half_chords(lay, px, py):
    """Lengths and unit vectors of the free half's chords from its points (`_Periods`)."""
    hy = py[lay.head]
    hy[lay.last] *= -1.0
    dx, dy = px[lay.head] - px, hy - py
    ell = np.hypot(dx, dy)
    return ell, dx / ell, dy / ell


def _reduced_grad_hess(profile, t, lay=None):
    """Chords, gradient and Hessian band of symmetric orbits in their free offsets.

    ``t`` (from `_Periods.assemble`) is read on the free half: one jet at bounces
    0..q//2, a mirror point (x, -y) taking the velocity (-vx, vy) and acceleration
    (ax, -ay). Free bounce j moves with its mirror q-j oppositely and alike, so the
    reduced gradient and tridiagonal Hessian are twice the polygon's at j: the band
    ``(d, e)``, zero-coupled between periods; for odd q the neighbouring mirror pair
    adds ``-e`` to the last diagonal entry. A half chord below 1e-12 raises
    DegenerateChordError, whose ``qs`` lists the periods at fault.
    """
    lay = lay or _periods((len(t),))
    (px, py), (vx, vy), (ax, ay) = profile.point_jet(MARKED_THETA + t[lay.bounce])
    ell, ux, uy = _half_chords(lay, px, py)
    short = np.minimum.reduceat(ell, lay.hstart) < 1e-12
    if short.any():
        err = DegenerateChordError("degenerate chord during orbit solve")
        err.qs = lay.qs[short]
        raise err

    head, last = lay.head, lay.last
    vx1, vy1, ay1 = vx[head], vy[head], ay[head]
    vx1[last], ay1[last] = -vx1[last], -ay1[last]
    vu_tail = vx * ux + vy * uy            # V_k . u_k
    vu_head = vx1 * ux + vy1 * uy          # V_{k+1} . u_k
    vv = vx * vx + vy * vy
    au_tail = ax * ux + ay * uy
    au_head = ax[head] * ux + ay1 * uy
    # chord k contributes diag_tail[k] at point k and diag_head[k] at its head
    diag_tail = (vv - vu_tail**2) / ell - au_tail
    diag_head = (vv[head] - vu_head**2) / ell + au_head
    off = -(vx * vx1 + vy * vy1 - vu_tail * vu_head) / ell

    f = lay.fp  # free j: its point, with chords f - 1 in and f out
    grad = 2.0 * (vx[f] * (ux[f - 1] - ux[f]) + vy[f] * (uy[f - 1] - uy[f]))
    d = 2.0 * (diag_tail[f] + diag_head[f - 1])
    e = 2.0 * off[f]  # couples free j and j+1; at j = half of odd q, the mirror pair
    d[lay.odd_end] -= e[lay.odd_end]
    e[lay.end] = 0.0
    return ell, grad, (d, e[:-1])


# -- symmetric tridiagonal bands (d, e): O(n) per pass, no dense matrix ----------


def _band_solve(band, b):
    """Solve ``H x = b`` for the band ``H = (d, e)`` by LDL^T (Thomas).

    No pivoting: backward stable where H is definite, as the length Hessian
    is near a nondegenerate maximum. Zero couplings cut H into blocks that
    are solved apart; a block that meets a zero pivot comes back as NaN and
    leaves every other block as it would be alone.
    """
    d, e, b = band[0].tolist(), band[1].tolist(), b.tolist()
    n, x = len(d), []
    cuts = [0, *(np.flatnonzero(band[1] == 0.0) + 1).tolist(), n]
    for lo, hi in zip(cuts, cuts[1:]):
        try:
            m, p, y = 0.0, d[lo], b[lo]
            rows = [(m, p, y)]  # (multiplier, pivot, y) per row; the last row's in locals
            for di, ei, bi in zip(d[lo + 1 : hi], e[lo : hi - 1], b[lo + 1 : hi]):
                m = ei / p
                p, y = di - m * ei, bi - m * y
                rows.append((m, p, y))
            block = [y / p]  # backward, m the multiplier of the row below
            for m_i, p_i, y_i in rows[-2::-1]:
                block.append(y_i / p_i - m * block[-1])
                m = m_i
            x += block[::-1]
        except ZeroDivisionError:
            x += [math.nan] * (hi - lo)
    return np.array(x)


class _Block(NamedTuple):
    """One diagonal block of a band, set up for `_band_inertia`."""

    d: list           # diagonal
    e2: list          # squared couplings: e2[i] couples rows i - 1 and i, e2[0] = 0
    pivmin: float     # stand-in for a zero pivot


def _band_blocks(band, start=(0,)) -> list:
    """The blocks of the band ``(d, e)`` that begin at rows ``start``, set up in one pass.

    ``start`` rises from 0, and the couplings across block boundaries are
    taken as zero. The squared couplings and ``pivmin`` of every block come
    from whole-band array operations and one ``tolist``, so the per-block
    Sturm count starts on ready lists. The pivot arithmetic is that of a
    band set up alone, bit for bit.
    """
    d, e = band
    start = np.asarray(start, dtype=int)
    if not len(start):
        return []
    e_prev = np.concatenate([[0.0], e])  # coupling of row i to row i - 1
    e_prev[start] = 0.0
    e2 = e_prev * e_prev
    # LAPACK dstebz's stand-in for a zero pivot: tiny, yet e^2 / pivmin stays finite
    pivmin = np.finfo(float).tiny * np.fmax(1.0, np.maximum.reduceat(e2, start))
    cuts = [*start.tolist(), len(d)]
    d, e2, pivmin = np.asarray(d, dtype=float).tolist(), e2.tolist(), pivmin.tolist()
    return [_Block(d[lo:hi], e2[lo:hi], pm) for lo, hi, pm in zip(cuts, cuts[1:], pivmin)]


def _band_inertia(block: _Block, shift: float) -> int:
    """Number of eigenvalues of the block below ``shift``.

    By Sylvester's law of inertia it is the number of negative LDL^T pivots
    of ``H - shift*I`` (a Sturm count; Barth, Martin & Wilkinson, Numer.
    Math. 1967). A zero pivot counts as a tiny negative one, and a NaN pivot
    as non-negative, so a NaN band never counts as definite.
    """
    count, p, pivmin = 0, 1.0, block.pivmin
    for di, e2 in zip(block.d, block.e2):
        p = di - shift - e2 / p
        if p == 0.0:
            p = -pivmin
        count += p < 0.0
    return count


def _evaluate(profile, lay, mask, s, failed):
    """`_reduced_grad_hess` of the periods of ``lay`` in ``mask`` at free offsets ``s``.

    Returns ``(mask, gr, d, e)`` laid out as ``lay``, zero outside
    ``mask``; ``e`` ends each period with a zero coupling, so the band of any
    set of whole periods is ``(d[f], e[f][:-1])``. A period with a degenerate
    chord is recorded in ``failed`` (q -> error) and dropped from ``mask``.
    """
    while True:
        sub, f = _periods(tuple(lay.qs[mask].tolist())), np.repeat(mask, lay.half)
        try:
            _, g, (d, e) = _reduced_grad_hess(profile, sub.assemble(s[f]), sub)
            break
        except DegenerateChordError as err:
            failed.update(dict.fromkeys(err.qs.tolist(), err))
            mask = mask & ~np.isin(lay.qs, err.qs)
    terms = np.zeros((3, len(s)))
    terms[:, f] = g, d, np.append(e, 0.0)[: len(d)]
    return mask, *terms


def _solve_offsets(frame, lay, tol, max_iter, failed):
    """Damped Newton on the free offsets of every period of ``lay`` in lockstep.

    Each step evaluates the gradient and band of all live periods at once and
    solves the block band in one pass; the line search, the monotone check
    and the polished stop run per period on masks, so each period takes the
    steps it would take alone. Returns the offsets and, per period, the
    iteration count and the size of the polishing step. A failing period is
    recorded in ``failed`` (q -> error) and drops out.
    """
    profile, n = frame.profile, len(lay.qs)
    # Lazutkin start: x_q^k = k/q + O(q^-2), read off the chart's grid table
    x0 = (lay.up - np.repeat(lay.start, lay.half)) / np.repeat(lay.qs, lay.half)
    s = np.interp(x0, frame.chart.x_grid, frame.chart.theta_grid) - MARKED_THETA
    live, gr, d, e = _evaluate(profile, lay, lay.half > 0, s, failed)
    iterations, final_step = np.zeros(n, dtype=int), np.zeros(n)
    for it in range(1, max_iter + 1):
        if not live.any():
            break
        gmax = np.maximum.reduceat(np.abs(gr), lay.free)
        f = np.repeat(live, lay.half)
        step = np.zeros_like(s)
        step[f] = _band_solve((d[f], e[f][:-1]), -gr[f])
        # a zero pivot leaves its period's block NaN: take a short ascent step there
        ascent = np.repeat(np.logical_or.reduceat(np.isnan(step), lay.free) & live, lay.half)
        step[ascent] = (gr * np.repeat(0.1 / np.maximum(gmax, 1.0), lay.half))[ascent]
        # polished stop: |grad| bounds the error only by |grad| / |lambda_min|,
        # which grows like q^3, so one more full step resolves it to roundoff
        done = live & (gmax < tol)
        fd = np.repeat(done, lay.half)
        s[fd] = s[fd] + step[fd]
        final_step[done] = np.maximum.reduceat(np.abs(step), lay.free)[done]
        iterations[done], live = it, live & ~done
        search, lam = live.copy(), 1.0
        for _ in range(50):
            if not search.any():
                break
            cand = s + lam * step
            ok = search & lay.increasing(lay.assemble(cand))
            if ok.any():
                got, gr_c, d_c, e_c = _evaluate(profile, lay, ok, cand, failed)
                live, search = live & ~(ok & ~got), search & ~(ok & ~got)
                gmax_c = np.maximum.reduceat(np.abs(gr_c), lay.free)
                take = got & ((gmax_c < gmax) | (lam < 1e-8))
                ft = np.repeat(take, lay.half)
                s[ft], gr[ft], d[ft], e[ft] = cand[ft], gr_c[ft], d_c[ft], e_c[ft]
                search &= ~take
            lam *= 0.5
        failed.update((q, NoConvergenceError(f"orbit solve stalled at q={q}"))
                      for q in lay.qs[search].tolist())
        live &= ~search
    for q, a, h in zip(lay.qs[live].tolist(), lay.free[live].tolist(), lay.half[live].tolist()):
        g = np.max(np.abs(gr[a : a + h]))
        failed[q] = NoConvergenceError(f"orbit solve hit the iteration cap at q={q}, |grad|={g:.3g}")
    return s, iterations, final_step


def compute_orbits(
    frame: BoundaryFrame, qs, tol: float = GRADIENT_TOL,
    max_iter: int = MAX_NEWTON_ITER,
) -> dict:
    """Solve the maximal marked orbits of every period in qs, all in one lockstep Newton.

    Each period gets the iterations and the result it would get alone. A
    converged orbit that is not a length maximum fails with
    `NotMaximalError`. If some fail, the error of the smallest failing
    period is raised. One jet of the solution's free half gives angles, ``kappa`` and x.
    """
    qs = tuple(sorted({int(q) for q in qs}))
    if qs and qs[0] < 2:
        raise ValueError(f"period must be >= 2, got {qs[0]}")
    profile, lay, failed = frame.profile, _periods(qs), {}
    s, iterations, final_step = _solve_offsets(frame, lay, tol, max_iter, failed)
    _, gr, d, e = _evaluate(profile, lay, ~np.isin(lay.qs, list(failed)), s, failed)

    # every period's band set up at once; the per-period Sturm count below reads its lists
    free = lay.half > 0
    starts = lay.free[free]
    blocks = dict(zip(lay.qs[free].tolist(), _band_blocks((d, e[:-1]), starts)))
    grad_res = np.zeros(len(qs))
    grad_res[free] = np.maximum.reduceat(np.abs(gr), starts)
    for q, h in zip(qs, lay.half.tolist()):
        if q in failed:
            continue
        if failed and min(failed) < q:
            raise failed[min(failed)]
        # maximal <=> every eigenvalue of the reduced Hessian below HESSIAN_POS_TOL
        above = h - _band_inertia(blocks[q], HESSIAN_POS_TOL) if h else 0
        if above:
            raise NotMaximalError(
                f"second variation indefinite at q={q} "
                f"({above} of {h} eigenvalues at or above {HESSIAN_POS_TOL:g})"
            )
    if failed:
        raise failed[min(failed)]

    theta = MARKED_THETA + lay.assemble(s)
    (px, py), (vx, vy), _, kappa = profile.point_jet(theta[lay.bounce], curvature=True)
    speed = np.hypot(vx, vy)
    tx, ty = vx / speed, vy / speed
    chords, ux, uy = _half_chords(lay, px, py)  # point k's own chord leaves it
    # the chord before arrives; at the marked point, the mirror of its own chord reversed
    ux_in, uy_in = np.roll(ux, 1), np.roll(uy, 1)
    ux_in[lay.hstart], uy_in[lay.hstart] = -ux[lay.hstart], uy[lay.hstart]

    cross_out, dot_out = tx * uy - ty * ux, tx * ux + ty * uy
    cross_in, dot_in = ux_in * ty - uy_in * tx, ux_in * tx + uy_in * ty
    phi_out, phi_in = np.arctan2(cross_out, dot_out), np.arctan2(cross_in, dot_in)
    reflection = np.maximum.reduceat(np.abs(phi_in - phi_out), lay.hstart)
    x = frame.chart.x_of_theta(theta[lay.bounce])
    x[lay.hstart], x[lay.axis_half] = 0.0, 0.5  # marked and axis points, exact by convention
    mirror, mirrored, chord = lay.record
    x = np.where(mirrored, 1.0 - x[mirror], x[mirror])
    per_bounce = dict(theta=theta, x=x, phi=(0.5 * (phi_in + phi_out))[mirror],
                      sin_phi=(0.5 * (cross_in + cross_out))[mirror],
                      kappa=kappa[mirror], chords=chords[chord])

    orbits = {}
    for p, (q, res) in enumerate(zip(qs, grad_res.tolist())):
        b = slice(lay.start[p], lay.start[p] + q)
        orbits[q] = PeriodicOrbit(
            q=q, **{k: v[b] for k, v in per_bounce.items()},
            length=float(np.sum(per_bounce["chords"][b])),
            reflection_residual=float(reflection[p]), gradient_residual=res,
            iterations=int(iterations[p]), final_step=float(final_step[p]),
        )
    return orbits


def maximal_marked_orbit(
    frame: BoundaryFrame, q: int, tol: float = GRADIENT_TOL, max_iter: int = MAX_NEWTON_ITER,
) -> PeriodicOrbit:
    """Solve for the symmetric maximal q-periodic orbit through the marked point."""
    return compute_orbits(frame, [q], tol=tol, max_iter=max_iter)[q]


# -- linearized return map ----------------------------------------------------


def _return_maps(orbits) -> np.ndarray:
    """Linearized return maps of ``orbits``, a (P, 2, 2) stack, in one pass.

    The bounces of all orbits are laid end to end: one stack of per-bounce transfer
    matrices in (arclength, angle) variables from the orbits' ``kappa``, and one
    segmented pairwise product tree (`_Periods.tree`), whose levels pair each orbit's
    matrices (0, 1), (2, 3), ... and carry an odd last one, so each product is
    step[q-1] @ ... @ step[0] as for the orbit alone. A grazing bounce raises.
    """
    if not orbits:
        return np.empty((0, 2, 2))
    sin_phi = guarded_sin_phi(orbits)
    lay = _periods(tuple([orbit.q for orbit in orbits]))
    kappa = np.concatenate([orbit.kappa for orbit in orbits])
    tau = np.concatenate([orbit.chords for orbit in orbits])
    k0c, k1c = kappa, kappa[lay.nxt]
    s0, s1 = sin_phi, sin_phi[lay.nxt]
    # transfer matrix of bounce k -> k+1, stacked over all bounces
    steps = np.empty((len(tau), 2, 2))
    steps[:, 0, 0] = k0c * tau - s0
    steps[:, 0, 1] = tau
    steps[:, 1, 0] = k0c * k1c * tau - k0c * s1 - k1c * s0
    steps[:, 1, 1] = k1c * tau - s1
    steps /= s1[:, None, None]
    for head, pair, k in lay.tree:  # log2(max q) batched passes
        merged = steps[head]
        merged[pair] = steps[k + 1] @ steps[k]
        steps = merged
    return steps


# -- geometric shooting map (independent of the variational solver) -----------


def billiard_map(frame: BoundaryFrame, theta: float, direction):
    """One bounce of the billiard map: next boundary parameter and reflected direction.

    For an inward ray at angle phi from the tangent, strict convexity splits
    the boundary at the next bounce t*: the side function (the ray direction
    crossed with the chord to ``theta + t``) is negative on (0, t*) and
    positive on (t*, 2 pi). A safeguarded Halley solve on that bracket starts
    from the circle's ``t = 2 phi``.
    """
    theta = float(theta)
    point, tangent = _point_and_tangent(frame.profile, theta)
    theta1, _, _, d1 = _bounce(frame.profile, theta, point, tangent, direction)
    return theta1, np.array(d1)


def _point_and_tangent(profile, theta: float):
    """Boundary point and unit tangent at one parameter, as pairs of floats."""
    (px, py), (vx, vy), _ = profile.point_jet(theta)
    speed = math.hypot(vx, vy)
    return (px, py), (vx / speed, vy / speed)


def _bounce(profile, theta: float, point, tangent, direction):
    """The body of `billiard_map` on floats.

    From the boundary point and unit tangent at ``theta`` along
    ``direction`` (renormalized here), returns the next parameter, its point
    and unit tangent, and the reflected unit direction, so that the next
    bounce starts from them without evaluating the boundary again.
    """
    (x0, y0), (tx, ty) = point, tangent
    norm = math.hypot(direction[0], direction[1])
    dx, dy = float(direction[0]) / norm, float(direction[1]) / norm
    phi = math.atan2(tx * dy - ty * dx, tx * dx + ty * dy)
    if not phi > 0.0:  # an outward ray: the bracket needs the boundary ahead of it
        raise NoConvergenceError("shooting failed to bracket the next bounce")
    theta1 = theta + _polish_crossing(profile, theta, point, (dx, dy), 0.0, TWO_PI, -1.0, 1.0,
                                      2.0 * phi)
    point1, tangent1 = _point_and_tangent(profile, theta1)
    (x1, y1), (tx1, ty1) = point1, tangent1
    if not dx * (x1 - x0) + dy * (y1 - y0) > 0.0:  # the crossing found lies behind the start
        raise NoConvergenceError("shooting failed to bracket the next bounce")
    along = 2.0 * (dx * tx1 + dy * ty1)
    return theta1, point1, tangent1, (along * tx1 - dx, along * ty1 - dy)


def _polish_crossing(profile, theta, p0, d, lo, hi, f_lo, f_hi, start=None):
    """Root of side(t) = d x (position(theta + t) - p0) inside the bracket [lo, hi].

    Halley's iteration with side'(t) = d x velocity and side''(t) = d x
    acceleration, all from one `point_jet`, started at ``start`` or else at
    the secant point (only the sign of ``f_lo`` is read once ``start`` is
    given). Where Halley's correction to the Newton step exceeds half of it,
    the Newton step is taken instead, and any step that leaves the current
    bracket is replaced by bisection. Stops once a step is below
    1e-14 + 8.9e-16 |t|.
    """
    x0, y0 = float(p0[0]), float(p0[1])
    dx, dy = float(d[0]), float(d[1])
    t = lo - f_lo * (hi - lo) / (f_hi - f_lo) if start is None else start
    for _ in range(MAX_SHOOT_ITER):
        th = theta + t
        (px, py), (vx, vy), (ax, ay) = profile.point_jet(th)
        f = dx * (py - y0) - dy * (px - x0)
        if (f > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f
        else:
            hi = t
        slope = dx * vy - dy * vx
        tol = 1e-14 + 8.9e-16 * abs(t)
        step = math.inf
        if slope != 0.0:
            step = f / slope
            # Halley: the Newton step over 1 - step * side'' / (2 side')
            bend = 0.5 * step * (dx * ay - dy * ax) / slope
            if abs(bend) < 0.5:
                step /= 1.0 - bend
        if abs(step) > tol and not lo < t - step < hi:
            step = t - 0.5 * (lo + hi)  # the step leaves the bracket: bisect
        t -= step
        if abs(step) <= tol:
            return t
    raise NoConvergenceError(f"shooting root solve hit the iteration cap of {MAX_SHOOT_ITER}")


def shoot_orbit(frame: BoundaryFrame, q: int, phi0: float, theta0: float = MARKED_THETA):
    """Iterate the shooting map q times from (theta0, launch angle phi0).

    The same as q calls of `billiard_map`, bit for bit, but each landing
    point and tangent is carried into the next bounce as floats.
    """
    profile, theta = frame.profile, float(theta0)
    t0 = profile.tangent(theta)
    normal = np.array([-t0[1], t0[0]])  # interior side for counter-clockwise boundary
    d = np.cos(phi0) * t0 + np.sin(phi0) * normal
    point, tangent = _point_and_tangent(profile, theta)
    thetas = [theta]
    for _ in range(q):
        theta, point, tangent, d = _bounce(profile, theta, point, tangent, d)
        thetas.append(theta)
    return np.array(thetas), np.array(d)


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
    frame: BoundaryFrame, orbits: Mapping[int, PeriodicOrbit]
) -> GenericityReport:
    """Length gaps and return-map traces of ``orbits``, the maps from one `_return_maps` pass.

    ``frame`` is not read; it stays first because callers pass it by position.

    ``min_length_gap`` is the smallest ``|length_a - length_b|`` over pairs of
    periods, found between neighbours in length order; ``closest_pair`` is
    the first pair ``(qa, qb)``, qa < qb, in ascending order that attains it.
    Fewer than two orbits leave the gap ``inf`` and the pair empty.
    """
    qs = tuple(sorted(orbits))
    lengths = {q: orbits[q].length for q in qs}
    order = sorted(qs, key=lengths.get)
    ell = [lengths[q] for q in order]
    gap = min((b - a for a, b in zip(ell, ell[1:])), default=math.inf)
    # rounding is monotone, so the pairs at the gap are runs of neighbours in length order
    ties = []
    for i in range(len(ell)):
        j = i + 1
        while j < len(ell) and ell[j] - ell[i] <= gap:
            ties.append(tuple(sorted((order[i], order[j]))))
            j += 1
    maps = _return_maps([orbits[q] for q in qs])
    traces = dict(zip(qs, (maps[:, 0, 0] + maps[:, 1, 1]).tolist()))
    return GenericityReport(
        qs=qs,
        lengths=lengths,
        min_length_gap=float(gap),
        closest_pair=min(ties, default=()),
        traces=traces,
        nondegenerate={q: abs(tr - 2.0) > UNIT_EIGEN_TOL for q, tr in traces.items()},
    )


@dataclass
class AlphaBetaFit:
    """Creeping-orbit corrections: bounce drift (odd) and angle correction (even).

    alpha_hat[q][k] = q^2 (x_q^k - k/q) and beta_hat[q][k] = q^2 (q phi_q^k /
    mu(x_q^k) - 1) on each orbit's own grid; `alpha`/`beta` are the Richardson
    limits from the two finest ladder rungs, tabulated on the second-finest
    grid, with sine/cosine coefficients against sin(2 pi j x), cos(2 pi j x).
    The diagnostics (parity and per-rung residuals, log-log slopes) are
    computed when first read.
    """

    qs: tuple
    grid: np.ndarray
    alpha_hat: dict
    beta_hat: dict
    alpha: np.ndarray
    beta: np.ndarray
    alpha_sine: np.ndarray
    beta_cos: np.ndarray

    @property
    def beta0(self) -> float:
        return float(self.beta_cos[0])

    alpha_parity_residual = cached_property(lambda self: self._parity(self.alpha, -1.0))
    beta_parity_residual = cached_property(lambda self: self._parity(self.beta, 1.0))
    alpha_residuals = cached_property(lambda self: self._rungs(self.alpha_hat, self.alpha))
    beta_residuals = cached_property(lambda self: self._rungs(self.beta_hat, self.beta))
    alpha_slope = cached_property(lambda self: self._slope(self.alpha_residuals))
    beta_slope = cached_property(lambda self: self._slope(self.beta_residuals))

    def _parity(self, limit, sign) -> float:  # max |limit(x) - sign limit(-x)| on the grid
        q_fit = len(self.grid)
        return float(np.max(np.abs(limit - sign * limit[(q_fit - np.arange(q_fit)) % q_fit])))

    def _rungs(self, hat, limit) -> dict:  # per rung q, max |hat - limit| / q^2 on the grid
        q_fit, out = len(self.grid), {}
        for q in self.qs:
            sub = q // np.gcd(q, q_fit)            # orbit indices landing on the fit grid
            take = np.arange(0, q, sub) if sub > 1 else np.arange(q)
            pts = (take / q * q_fit).round().astype(int) % q_fit
            out[q] = float(np.max(np.abs(hat[q][take] - limit[pts])) / q**2)
        return out

    def _slope(self, residuals) -> float:  # of log residual against log q over the rungs
        logq = np.log(np.array(self.qs, dtype=float))
        return float(np.polyfit(logq, np.log([max(residuals[q], 1e-300) for q in self.qs]), 1)[0])


def fit_alpha_beta(chart: LazutkinChart, orbits: Mapping[int, PeriodicOrbit]) -> AlphaBetaFit:
    """Fit the 1/q^2 corrections of bounce positions and angles over a q ladder."""
    qs = tuple(sorted(orbits))
    if len(qs) < 3:
        raise InsufficientLadderError(f"need at least 3 ladder periods, got {len(qs)}")
    for qa, qb in zip(qs, qs[1:]):
        if qb % qa:
            raise ValueError("ladder periods must divide each other (use a dyadic ladder)")

    alpha_hat, beta_hat = {}, {}
    # the weight at every rung's bounces in one evaluation, from the orbits' curvature
    mus = np.split(chart.mu_of_kappa(np.concatenate([orbits[q].kappa for q in qs])),
                   np.cumsum(qs[:-1]))
    for q, mu in zip(qs, mus):
        orb = orbits[q]
        k_over_q = np.arange(q) / q
        alpha_hat[q] = q * q * (orb.x - k_over_q)
        beta_hat[q] = q * q * (q * orb.phi / mu - 1.0)

    q_fit, q_top = qs[-2], qs[-1]
    stride = q_top // q_fit
    wa, wb = q_top**2, q_fit**2
    alpha = (wa * alpha_hat[q_top][::stride] - wb * alpha_hat[q_fit]) / (wa - wb)
    beta = (wa * beta_hat[q_top][::stride] - wb * beta_hat[q_fit]) / (wa - wb)

    spec_a = np.fft.rfft(alpha) / q_fit
    spec_b = np.fft.rfft(beta) / q_fit
    alpha_sine = -2.0 * spec_a.imag
    alpha_sine[0] = 0.0
    beta_cos = 2.0 * spec_b.real
    beta_cos[0] = spec_b[0].real

    return AlphaBetaFit(qs=qs, grid=np.arange(q_fit) / q_fit, alpha_hat=alpha_hat,
                        beta_hat=beta_hat, alpha=alpha, beta=beta, alpha_sine=alpha_sine,
                        beta_cos=beta_cos)
