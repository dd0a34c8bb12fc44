import dataclasses
import functools
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from rigidity_lab import billiards, functionals as fn, geometry
from rigidity_lab import operator as op
from rigidity_lab.errors import (
    DegenerateChordError,
    InsufficientLadderError,
    NoConvergenceError,
    NotMaximalError,
    SingularAngleError,
)

from conftest import length_grad_hess

LADDER = (8, 16, 32, 64)


# -- closed forms on the circle -------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 7, 16])
def test_circle_orbit_closed_forms(circle_frame, circle_orbits, q):
    orb = circle_orbits[q]
    assert_allclose(orb.length, 2 * q * np.sin(np.pi / q), rtol=0, atol=1e-10)
    assert_allclose(orb.x, np.arange(q) / q, rtol=0, atol=1e-10)
    assert_allclose(orb.phi, np.pi / q, rtol=0, atol=1e-10)
    assert orb.reflection_residual < 1e-12


def _polygon_length(frame, thetas):
    """Length of the closed polygon with vertices at the boundary parameters."""
    pts = frame.profile.position(np.asarray(thetas, dtype=float))
    return float(np.sum(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)))


def test_inscribed_polygon_lengths(circle_frame):
    triangle = np.pi + 2 * np.pi * np.arange(3) / 3
    assert_allclose(_polygon_length(circle_frame, triangle),
                    5.196152422706632, rtol=0, atol=1e-12)  # 3*sqrt(3)
    square = np.pi + 2 * np.pi * np.arange(4) / 4
    assert_allclose(_polygon_length(circle_frame, square),
                    5.656854249492381, rtol=0, atol=1e-12)  # 4*sqrt(2)


def test_degenerate_chord_rejected(circle_frame):
    with pytest.raises(DegenerateChordError):
        billiards._reduced_grad_hess(circle_frame.profile,
                                     _symmetric_assemble(3, np.array([1e-15])))


# -- perturbed domain ------------------------------------------------------------


def test_perturbed_orbit_quality(perturbed_orbits):
    orb = perturbed_orbits[8]
    assert orb.reflection_residual < 1e-10
    assert orb.gradient_residual < 1e-12
    circle_len = 16 * np.sin(np.pi / 8)
    assert abs(orb.length - circle_len) < 0.1
    gaps = np.diff(np.append(orb.x, 1.0))
    assert np.max(np.abs(gaps - 1.0 / 8.0)) < 0.01  # near-uniform bounce spacing


def test_orbit_length_perturbation_sweep():
    """Length offsets track the domain coefficient at the order the bounce sums allow.

    For the second-harmonic perturbation the 2-orbit sees it at first order,
    while the 8-orbit bounce sum annihilates it (orthogonality), leaving a
    quadratic response; both stay well within the offset bound.
    """
    off2, off8 = {}, {}
    for a2 in (0.005, 0.01, 0.02):
        frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, a2]), 512)
        off2[a2] = billiards.maximal_marked_orbit(frame, 2).length - 4.0
        off8[a2] = billiards.maximal_marked_orbit(frame, 8).length - 16 * np.sin(np.pi / 8)
    assert 1.8 < off2[0.01] / off2[0.005] < 2.2
    assert 1.8 < off2[0.02] / off2[0.01] < 2.2
    assert 3.6 < off8[0.01] / off8[0.005] < 4.4
    assert 3.6 < off8[0.02] / off8[0.01] < 4.4
    assert all(abs(v) < 0.1 for v in list(off2.values()) + list(off8.values()))


def test_shooting_oracle_confirms_variational_orbit(perturbed_frame, perturbed_orbits):
    """Independent geometric route: iterate the reflection map from the marked point."""
    orb = perturbed_orbits[8]
    thetas, _ = billiards.shoot_orbit(perturbed_frame, 8, float(orb.phi[0]))
    assert abs((thetas[-1] - thetas[0]) - 2 * np.pi) < 1e-9   # closes up
    assert_allclose(thetas[:-1], orb.theta, rtol=0, atol=1e-9)


def _launch(frame, theta, phi):
    t0 = frame.profile.tangent(theta)
    return np.cos(phi) * t0 + np.sin(phi) * np.array([-t0[1], t0[0]])


def _forward_bracket(frame, theta, d, scan=1024):
    """Side function and the first forward sign change on the same scan grid."""
    profile = frame.profile
    p0 = profile.position(theta)

    def side(dtheta):
        p = profile.position(theta + dtheta)
        return d[0] * (p[..., 1] - p0[1]) - d[1] * (p[..., 0] - p0[0])

    grid = 2 * np.pi * np.arange(1, scan) / scan
    vals = side(grid)
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        mid = profile.position(theta + 0.5 * (grid[i] + grid[i + 1]))
        if np.dot(mid - p0, d) > 0:
            return side, grid[i], grid[i + 1]
    raise AssertionError("no forward crossing")


@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.01], [0.0, 0.0, 0.0, 0.0, 0.0, 0.005]])
def test_billiard_map_against_brentq(coeffs):
    """The safeguarded Newton bounce agrees with brentq run on the same bracket."""
    frame = geometry.build_frame(geometry.build_profile(coeffs), 512)
    rng = np.random.default_rng(5)
    thetas = np.pi + 2 * np.pi * rng.random(40)
    phis = np.concatenate([[0.02, 0.3, np.pi / 2, np.pi - 0.02], 0.05 + 3.0 * rng.random(36)])
    for theta, phi in zip(thetas, phis):
        d = _launch(frame, theta, phi)
        side, lo, hi = _forward_bracket(frame, theta, d)
        expect = theta + brentq(side, lo, hi, xtol=1e-14, rtol=8.9e-16)
        theta1, d_out = billiards.billiard_map(frame, theta, d)
        assert abs(theta1 - expect) <= 1e-14
        assert abs(np.linalg.norm(d_out) - 1.0) < 1e-14


def test_root_solve_bisects_when_newton_leaves_the_bracket(perturbed_frame):
    """From a bracket spanning almost the whole boundary, plain Newton runs off
    to other roots of the side function; the safeguard keeps the solve inside."""
    profile = perturbed_frame.profile
    lo, hi = 1e-3, 2 * np.pi - 1e-3
    for theta, phi in [(np.pi, 0.3), (np.pi, 1.2), (4.0, 2.9), (5.0, 0.05)]:
        d = _launch(perturbed_frame, theta, phi)
        side, _, _ = _forward_bracket(perturbed_frame, theta, d)
        expect = brentq(side, lo, hi, xtol=1e-14, rtol=8.9e-16)
        got = billiards._polish_crossing(
            profile, theta, profile.position(theta), d, lo, hi, side(lo), side(hi)
        )
        assert abs(got - expect) <= 1e-14


def test_billiard_map_without_forward_crossing(perturbed_frame):
    outward = -_launch(perturbed_frame, np.pi, np.pi / 2)
    with pytest.raises(NoConvergenceError, match="bracket"):
        billiards.billiard_map(perturbed_frame, np.pi, outward)


def test_billiard_map_iteration_cap(perturbed_frame, monkeypatch):
    monkeypatch.setattr(billiards, "MAX_SHOOT_ITER", 2)
    with pytest.raises(NoConvergenceError, match="iteration cap"):
        billiards.billiard_map(perturbed_frame, np.pi, _launch(perturbed_frame, np.pi, 0.7))


@functools.lru_cache(maxsize=None)
def _frame(coeffs, n=512):
    return geometry.build_frame(geometry.build_profile(list(coeffs)), n)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(0.0, 0.0, 0.01), (0.0, 0.0, 0.0, 0.0, 0.0, 0.005)]),
    st.floats(np.pi, 3 * np.pi, exclude_max=True),
    st.floats(1e-3, np.pi - 1e-3),
)
def test_billiard_map_launch_angles_against_brentq(coeffs, theta, phi):
    """The convexity bracket finds the bounce at every launch angle, down to near grazing.

    The oracle scans 8192 points, so its grid step stays below the bounce
    distance of about 2 phi (a 1024-point scan misses bounces closer than
    2 pi / 1024). Tolerance: the oracle's own (xtol + rtol |t| < 2e-14) plus
    the root's conditioning, since both sides evaluate the side function to
    a few ulp of |p| ~ 1 and its slope at the root is |V| sin phi.
    """
    frame = _frame(coeffs)
    d = _launch(frame, theta, phi)
    side, lo, hi = _forward_bracket(frame, theta, d, scan=8192)
    expect = theta + brentq(side, lo, hi, xtol=1e-14, rtol=8.9e-16)
    theta1, d_out = billiards.billiard_map(frame, theta, d)
    assert abs(theta1 - expect) <= 2e-14 + 2e-15 / np.sin(phi)
    assert abs(np.linalg.norm(d_out) - 1.0) < 1e-14


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.01), (0.0, 0.0, 0.0, 0.0, 0.0, 0.005)])
def test_shoot_orbit_is_billiard_map_iterated(coeffs):
    """Carrying each landing point and tangent into the next bounce changes no bit."""
    frame = _frame(coeffs)
    for q, orb in billiards.compute_orbits(frame, [8, 64]).items():
        phi0 = float(orb.phi[0])
        thetas, d_end = billiards.shoot_orbit(frame, q, phi0)
        theta, d = geometry.MARKED_THETA, _launch(frame, geometry.MARKED_THETA, phi0)
        expect = [theta]
        for _ in range(q):
            theta, d = billiards.billiard_map(frame, theta, d)
            expect.append(theta)
        assert np.array_equal(thetas, expect)
        assert np.array_equal(d_end, d)


def test_shooting_jet_calls_per_bounce(perturbed_frame, perturbed_orbits, monkeypatch):
    """Each bounce evaluates the boundary in its Halley steps and once at the landing
    point, which the next bounce starts from."""
    calls, jet = [], geometry.DomainProfile.jet

    def counted(profile, theta):
        calls.append(theta)
        return jet(profile, theta)

    monkeypatch.setattr(geometry.DomainProfile, "jet", counted)
    thetas, _ = billiards.shoot_orbit(perturbed_frame, 64, float(perturbed_orbits[64].phi[0]))
    assert_allclose(thetas[:-1], perturbed_orbits[64].theta, rtol=0, atol=1e-10)
    assert len(calls) <= 5 * 64


def test_orbit_symmetry_multiset(perturbed_orbits):
    for q in (3, 8, 16):
        x = perturbed_orbits[q].x
        mirrored = np.sort(np.mod(1.0 - x, 1.0))
        assert_allclose(np.sort(x), mirrored, rtol=0, atol=1e-12)


def test_length_monotonicity(perturbed_frame, perturbed_orbits):
    for q in (2, 4, 8, 16, 32):
        assert perturbed_orbits[2 * q].length > perturbed_orbits[q].length
    for q, orb in perturbed_orbits.items():
        assert orb.length < perturbed_frame.chart.perimeter


def test_solver_iteration_cap(perturbed_frame):
    with pytest.raises(NoConvergenceError):
        billiards.maximal_marked_orbit(perturbed_frame, 8, max_iter=1)


def _dense(band):
    """The symmetric tridiagonal matrix of a band (d, e)."""
    d, e = band
    hess = np.diag(d)
    i = np.arange(len(e))
    hess[i, i + 1] = hess[i + 1, i] = e
    return hess


def _dense_cyclic(diag, off):
    """The cyclic tridiagonal Hessian of all q bounces, assembled densely."""
    q = len(diag)
    k = np.arange(q)
    hess = np.diag(diag)
    np.add.at(hess, (k, (k + 1) % q), off)
    np.add.at(hess, ((k + 1) % q, k), off)
    return hess


def _symmetric_assemble(q, s):
    """Full offset vector of one period q from its free upper-half offsets s."""
    return billiards._periods((q,)).assemble(s)


def _reduction(q):
    """R with dt = R ds: free bounce j moves with s_j, its mirror q-j opposite."""
    half = (q - 1) // 2
    reduction = np.zeros((q, half))
    for j in range(1, half + 1):
        reduction[j, j - 1] = 1.0
        reduction[q - j, j - 1] = -1.0
    return reduction


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16, 17, 64])
def test_reduced_hessian_matches_dense_reduction(perturbed_frame, q):
    """Tridiagonal reduced Hessian against R^T H R with H assembled densely."""
    profile = perturbed_frame.profile
    half = (q - 1) // 2
    rng = np.random.default_rng(q)
    s = 2 * np.pi * np.arange(1, half + 1) / q + 1e-3 * rng.standard_normal(half)
    t = _symmetric_assemble(q, s)
    _, grad, diag, off = length_grad_hess(profile, geometry.MARKED_THETA + t)
    hess, reduction = _dense_cyclic(diag, off), _reduction(q)

    _, gr, band = billiards._reduced_grad_hess(profile, t)
    hr = _dense(band)
    assert hr.shape == (half, half)
    assert_allclose(hr, reduction.T @ hess @ reduction, rtol=0, atol=1e-14)
    assert_allclose(gr, reduction.T @ grad, rtol=0, atol=1e-14)


def test_reduced_gradient_and_hessian_finite_difference(perturbed_frame):
    """Central differences of the polygon length in the free offsets."""
    q, h = 9, 1e-5
    frame = perturbed_frame
    s = 2 * np.pi * np.arange(1, 5) / q + np.array([3e-3, -2e-3, 1e-3, 4e-3])

    def reduced(s):
        return billiards._reduced_grad_hess(frame.profile, _symmetric_assemble(q, s))

    def length(s):
        return _polygon_length(frame, geometry.MARKED_THETA + _symmetric_assemble(q, s))

    _, gr, band = reduced(s)
    hr = _dense(band)

    fd_grad = np.zeros(4)
    fd_hess = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd_grad[j] = (length(s + e) - length(s - e)) / (2 * h)
        fd_hess[:, j] = (reduced(s + e)[1] - reduced(s - e)[1]) / (2 * h)
    assert np.max(np.abs(gr)) > 1e-3  # away from the orbit, so the check has teeth
    assert_allclose(gr, fd_grad, rtol=0, atol=1e-9)
    assert_allclose(hr, fd_hess, rtol=0, atol=1e-9)


# -- symmetric tridiagonal band algebra -------------------------------------------


@st.composite
def _bands(draw):
    """A symmetric tridiagonal band (d, e) and whether it was drawn negative definite."""
    n = draw(st.integers(1, 40))
    entry = st.floats(-1.0, 1.0)
    e = np.array(draw(st.lists(entry, min_size=n - 1, max_size=n - 1)))
    definite = draw(st.booleans())
    if definite:  # strictly diagonally dominant with a negative diagonal
        margin = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        d = -(np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0)) + margin)
    else:
        d = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    return (d, e), definite


@settings(max_examples=300, deadline=None)
@given(_bands(), st.data())
def test_band_solve_and_inertia_against_dense(drawn, data):
    """Band LDL^T solve and Sturm count against numpy's dense routines.

    The solve does not pivot, so it is compared where it is used: on
    definite bands. The count holds on any band.
    """
    band, definite = drawn
    hess = _dense(band)
    n = len(band[0])
    # eigh, not eigvalsh: with d = (0, 1, 0), e = (2.7e-81, 0.09375) the root-free QR
    # behind eigvalsh puts the top eigenvalue 1.7e-6 low, where eigh and a 50-digit
    # mpmath solve agree
    eig = np.linalg.eigh(hess)[0]
    scale = max(np.max(np.abs(eig)), 1e-300)
    if definite:
        b = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        expect = np.linalg.solve(hess, b)
        got = billiards._band_solve(band, b)
        assert np.max(np.abs(got - expect)) <= 1e-10 * max(np.max(np.abs(expect)), 1e-300)
    shift = billiards.HESSIAN_POS_TOL
    assume(np.min(np.abs(eig - shift)) > 1e-9 * scale)
    [block] = billiards._band_blocks(band)
    assert billiards._band_inertia(block, shift) == np.sum(eig < shift)


_zero_bands = st.integers(1, 6).map(lambda n: (np.zeros(n), np.zeros(n - 1)))
_any_bands = st.one_of(_bands().map(lambda drawn: drawn[0]), _zero_bands)


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_bands, min_size=1, max_size=6))
def test_band_blocks_match_per_block_dense(bands):
    """Blocks set up together in one block band: each equals its own setup, and its
    count matches numpy's dense eigenvalues of that block."""
    d = np.concatenate([band[0] for band in bands])
    e = np.concatenate([np.append(band[1], 0.0) for band in bands])[:-1]
    start = np.cumsum([0] + [len(band[0]) for band in bands[:-1]])
    shift = billiards.HESSIAN_POS_TOL
    for block, band in zip(billiards._band_blocks((d, e), start), bands, strict=True):
        assert block == billiards._band_blocks(band)[0]
        eig = np.linalg.eigh(_dense(band))[0]
        scale = max(np.max(np.abs(eig)), 1e-300)
        if np.min(np.abs(eig - shift)) > 1e-9 * scale:
            assert billiards._band_inertia(block, shift) == np.sum(eig < shift)


def test_band_solve_zero_pivot_stays_in_its_block():
    """A zero coupling splits the band; a zero pivot NaNs its own block only."""
    rng = np.random.default_rng(3)
    blocks = []
    for n in (3, 4, 2):
        e = rng.uniform(-1.0, 1.0, n - 1)
        d = -(np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0)) + 0.5)
        blocks.append((d, e))
    blocks[1][0][0] = 0.0  # first pivot of the middle block vanishes
    d = np.concatenate([blk[0] for blk in blocks])
    e = np.concatenate([np.append(blk[1], 0.0) for blk in blocks])[:-1]
    b = rng.uniform(-1.0, 1.0, len(d))
    x = billiards._band_solve((d, e), b)
    assert np.all(np.isnan(x[3:7]))
    for lo, blk in ((0, blocks[0]), (7, blocks[2])):
        alone = billiards._band_solve(blk, b[lo : lo + len(blk[0])])
        assert np.array_equal(x[lo : lo + len(blk[0])], alone)
        assert_allclose(alone, np.linalg.solve(_dense(blk), b[lo : lo + len(blk[0])]),
                        rtol=1e-12, atol=0)


def test_orbit_maximality_matches_dense_eigenvalues(perturbed_frame, perturbed_orbits):
    """Every returned orbit with free offsets is a length maximum by eigvalsh of the
    assembled reduced Hessian: its largest eigenvalue is below HESSIAN_POS_TOL."""
    orbits = dict(perturbed_orbits)
    orbits[256] = billiards.maximal_marked_orbit(perturbed_frame, 256)
    for q, orb in orbits.items():
        if not (q - 1) // 2:
            continue
        _, _, band = billiards._reduced_grad_hess(perturbed_frame.profile, orb.theta - np.pi)
        assert np.linalg.eigvalsh(_dense(band))[-1] < billiards.HESSIAN_POS_TOL


# -- 30-digit orbit oracle -----------------------------------------------------------


def _mp_reduced_gradient(coeffs, q, s):
    """Reduced length gradient of the symmetric orbit with free offsets ``s``, in mpmath."""
    half = (q - 1) // 2
    pi = mpmath.pi
    offset = 1 + sum(mpmath.mpf(a) * (-1) ** n for n, a in enumerate(coeffs))
    t = [mpmath.mpf(0)] * q
    for j in range(1, half + 1):
        t[j], t[q - j] = s[j - 1], 2 * pi - s[j - 1]
    if q % 2 == 0:
        t[q // 2] = pi
    pts, vel = [], []
    for tk in t:
        th = pi + tk
        r = 1 + sum(mpmath.mpf(a) * mpmath.cos(n * th) for n, a in enumerate(coeffs))
        r1 = -sum(n * mpmath.mpf(a) * mpmath.sin(n * th) for n, a in enumerate(coeffs))
        c, sn = mpmath.cos(th), mpmath.sin(th)
        pts.append((offset + r * c, r * sn))
        vel.append((r1 * c - r * sn, r1 * sn + r * c))
    unit = []
    for k in range(q):
        dx = pts[(k + 1) % q][0] - pts[k][0]
        dy = pts[(k + 1) % q][1] - pts[k][1]
        ell = mpmath.sqrt(dx * dx + dy * dy)
        unit.append((dx / ell, dy / ell))
    # d(length)/d(theta_k) = V_k . (u_{k-1} - u_k)
    grad = [vel[k][0] * (unit[k - 1][0] - unit[k][0]) + vel[k][1] * (unit[k - 1][1] - unit[k][1])
            for k in range(q)]
    return [grad[j] - grad[q - j] for j in range(1, half + 1)]


def _mp_orbit_theta(frame, q, theta):
    """Bounce parameters of the symmetric orbit near ``theta``, solved to 30 digits.

    Newton-chord in the free offsets: the gradient is evaluated in mpmath and
    the step solved with the reduced Hessian assembled densely in double
    precision. The iteration matrix only sets the rate of convergence; the
    fixed point is the zero of the 30-digit gradient.
    """
    coeffs = frame.profile.radial_coeffs
    half = (q - 1) // 2
    _, _, diag, off = length_grad_hess(frame.profile, theta)
    reduction = _reduction(q)
    inverse = np.linalg.inv(reduction.T @ _dense_cyclic(diag, off) @ reduction)
    with mpmath.workdps(30):
        s = [mpmath.mpf(float(v)) - mpmath.pi for v in theta[1 : half + 1]]
        for _ in range(4):
            grad = _mp_reduced_gradient(coeffs, q, s)
            step = inverse @ np.array([float(g) for g in grad])
            s = [sj - mpmath.mpf(float(dj)) for sj, dj in zip(s, step)]
            if np.max(np.abs(step)) < 1e-24:
                break
        else:
            raise AssertionError("30-digit Newton-chord solve did not settle")
        full = [mpmath.mpf(0)] * q
        for j in range(1, half + 1):
            full[j], full[q - j] = s[j - 1], 2 * mpmath.pi - s[j - 1]
        if q % 2 == 0:
            full[q // 2] = mpmath.pi
        return np.array([float(mpmath.pi + tk) for tk in full])


@pytest.mark.parametrize(
    "coeffs, q, tol",
    [
        ([0.0, 0.0, 0.01], 256, 1e-12),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.005], 256, 1e-12),
        ([0.0, 0.0, 0.01], 1024, 1e-11),
    ],
)
def test_orbit_matches_30_digit_solve(coeffs, q, tol):
    """The polished stop resolves the orbit to roundoff.

    The smallest Hessian eigenvalue falls like q^-3 (1.1e-7 at q=1024), so
    ``|grad| < tol`` alone bounds the error in theta only by tol / 1.1e-7.
    The step taken after the gradient test closes that gap: even a stop at
    |grad| < 1e-9, which leaves up to 8e-7 rad without it, meets the oracle.
    """
    frame = geometry.build_frame(geometry.build_profile(coeffs), 2048)
    orb = billiards.maximal_marked_orbit(frame, q)
    exact = _mp_orbit_theta(frame, q, orb.theta)
    assert 0.0 < orb.final_step < 1e-6
    assert np.max(np.abs(orb.theta - exact)) <= tol
    loose = billiards.maximal_marked_orbit(frame, q, tol=1e-9)
    assert np.max(np.abs(loose.theta - exact)) <= tol


def test_poincare_tree_product_matches_per_bounce_loop(perturbed_frame, perturbed_orbits):
    """The batched pairwise product keeps the order step[q-1] @ ... @ step[0]."""

    def loop(orbit):
        kappa, sin_phi, q = orbit.kappa, orbit.sin_phi, orbit.q
        mat = np.eye(2)
        for k in range(q):
            k1 = (k + 1) % q
            tau, k0c, k1c, s0, s1 = orbit.chords[k], kappa[k], kappa[k1], sin_phi[k], sin_phi[k1]
            step = np.array(
                [[k0c * tau - s0, tau], [k0c * k1c * tau - k0c * s1 - k1c * s0, k1c * tau - s1]]
            ) / s1
            mat = step @ mat
        return mat

    orbits = [perturbed_orbits[q] for q in (2, 3, 8, 64)]
    orbits += [billiards.maximal_marked_orbit(perturbed_frame, q) for q in (17, 1024)]
    for orbit in orbits:
        expect = loop(orbit)
        got = billiards._return_maps([orbit])[0]
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def _per_orbit_tree(frame, orbit):
    """The return map of one orbit alone: its own transfer stack and pairwise tree."""
    kappa, sin_phi = orbit.kappa, orbit.sin_phi
    nxt = np.arange(1, orbit.q + 1) % orbit.q
    tau, k0c, k1c, s0, s1 = orbit.chords, kappa, kappa[nxt], sin_phi, sin_phi[nxt]
    steps = np.empty((orbit.q, 2, 2))
    steps[:, 0, 0] = k0c * tau - s0
    steps[:, 0, 1] = tau
    steps[:, 1, 0] = k0c * k1c * tau - k0c * s1 - k1c * s0
    steps[:, 1, 1] = k1c * tau - s1
    steps /= s1[:, None, None]
    while len(steps) > 1:
        odd = steps[-1:] if len(steps) % 2 else steps[:0]
        steps = np.concatenate([steps[1::2] @ steps[0:-1:2], odd])
    return steps[0]


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.01), (0.0, 0.0, 0.01, 0.0, 0.002)])
def test_return_maps_equal_per_orbit_trees(coeffs):
    """All return maps in one segmented tree are bit-equal to each orbit's own tree,
    and so is each orbit's batch of one."""
    frame = _frame(coeffs)
    orbits = billiards.compute_orbits(frame, (2, 3, 5, 8, 64, 1024))
    maps = billiards._return_maps(list(orbits.values()))
    assert maps.shape == (len(orbits), 2, 2)
    for got, orbit in zip(maps, orbits.values()):
        expect = _per_orbit_tree(frame, orbit)
        assert np.array_equal(got, expect)
        assert np.array_equal(billiards._return_maps([orbit])[0], expect)


@pytest.mark.parametrize("coeffs", [(), (0.0, 0.0, 0.01), (0.0, 0.0, 0.01, 0.0, 0.002)])
def test_orbit_kappa_is_the_boundary_curvature(coeffs):
    """Each orbit keeps the curvature at its free half, bounces 0..q//2, from the
    solution's one jet, bit for bit what `DomainProfile.curvature` gives there, and
    copies it onto the mirror bounces, where it is the curvature to roundoff."""
    frame = _frame(coeffs, 2048)
    for orbit in billiards.compute_orbits(frame, (2, 3, 5, 8, 17, 48, 64, 1024)).values():
        half = orbit.q // 2 + 1
        expect = frame.profile.curvature(orbit.theta)
        assert np.array_equal(orbit.kappa[:half], expect[:half])
        assert np.array_equal(orbit.kappa[half:], orbit.kappa[1 : orbit.q - half + 1][::-1])
        assert np.max(np.abs(orbit.kappa - expect)) <= 1e-14 * np.max(expect)


def test_orbit_readers_evaluate_no_boundary_point(perturbed_frame, perturbed_orbits,
                                                  monkeypatch):
    """Given orbits, the return maps, the T assembly, the ladder fit and the weighted
    bounce sums read each orbit's kappa: not one `DomainProfile.jet` call."""
    jet, calls = geometry.DomainProfile.jet, []
    monkeypatch.setattr(geometry.DomainProfile, "jet",
                        lambda self, theta: calls.append(np.size(theta)) or jet(self, theta))
    chart, orbits = perturbed_frame.chart, {q: perturbed_orbits[q] for q in range(2, 17)}
    billiards.genericity_report(perturbed_frame, orbits)
    billiards._return_maps([orbits[5]])
    op.assemble_T(chart, orbits, op.GammaSpaceParams(J=8, Q=16))
    billiards.fit_alpha_beta(chart, {q: perturbed_orbits[q] for q in LADDER})
    fn.script_L_q(fn.CosineSeries([1.0, 0.5]), orbits[5], chart)
    assert calls == []
    billiards.compute_orbits(perturbed_frame, [5])  # the solve itself does evaluate
    assert calls


def _assert_same_orbit(got, expect):
    for field in dataclasses.fields(billiards.PeriodicOrbit):
        a, b = getattr(got, field.name), getattr(expect, field.name)
        assert np.array_equal(a, b), (expect.q, field.name)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(), (0.0, 0.0, 0.01), (0.0, 0.0, 0.0, 0.0, 0.0, 0.005)]),
    st.sets(st.sampled_from(list(range(2, 65)) + [128, 256]), min_size=1, max_size=10),
)
def test_lockstep_orbits_equal_single_period_solves(coeffs, qs):
    """Every field of a period solved among others, iterations included, is bit-equal
    to that period solved alone."""
    frame = _frame(coeffs)
    together = billiards.compute_orbits(frame, qs)
    assert sorted(together) == sorted(qs)
    for q in qs:
        _assert_same_orbit(together[q], billiards.compute_orbits(frame, [q])[q])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(), (0.0, 0.0, 0.01), (0.0, 0.0, 0.01, 0.0, 0.002),
                     (0.0, 0.0, 0.0, 0.0, 0.0, 0.005), (0.0, 0.004, 0.01)]),
    st.sets(st.sampled_from(list(range(2, 65)) + [128, 256]), max_size=8),
)
def test_orbits_are_mirrored_exactly(coeffs, qs):
    """Bounce q - k of every orbit is bounce k mirrored, bit for bit: x[q-k] = 1 - x[k],
    phi, sin phi and kappa copied and the chords reversed; the marked bounce sits at
    x = 0 and, for even q, the axis bounce at x = 1/2 and theta = 2 pi."""
    for q, orb in billiards.compute_orbits(_frame(coeffs), sorted(qs | set(LADDER))).items():
        k, h = np.arange(1, q), np.arange(1, q // 2 + 1)
        assert np.array_equal(orb.x[q - h], 1.0 - orb.x[h]), q
        for field in ("phi", "sin_phi", "kappa"):
            assert np.array_equal(getattr(orb, field)[q - k], getattr(orb, field)[k]), (q, field)
        assert np.array_equal(orb.chords[::-1], orb.chords), q
        assert orb.x[0] == 0.0 and orb.theta[0] == np.pi
        if q % 2 == 0:
            assert orb.x[q // 2] == 0.5 and orb.theta[q // 2] == 2.0 * np.pi
        assert np.all(np.diff(orb.x) > 0.0) and orb.x[-1] < 1.0
        assert orb.reflection_residual < 1e-10


def test_damped_steps_equal_single_period_solves(perturbed_frame, monkeypatch):
    """Tripled Newton steps overshoot, so every period backtracks in its line
    search; each still takes exactly the steps it takes alone."""
    qs = (3, 5, 8, 16, 64, 256)
    plain = billiards.compute_orbits(perturbed_frame, qs)
    solve = billiards._band_solve
    monkeypatch.setattr(billiards, "_band_solve", lambda band, b: 3.0 * solve(band, b))
    together = billiards.compute_orbits(perturbed_frame, qs)
    for q in qs:
        assert together[q].iterations > plain[q].iterations
        _assert_same_orbit(together[q], billiards.compute_orbits(perturbed_frame, [q])[q])


def test_zero_pivot_in_one_period_leaves_the_others(perturbed_frame, monkeypatch):
    """A period whose block meets a zero pivot takes the short ascent step; the
    other periods' steps, and so their orbits, do not change."""
    qs = (3, 8, 64)
    expect = billiards.compute_orbits(perturbed_frame, qs)
    solve, solved = billiards._band_solve, []

    def first_block_fails(band, b):
        x = solve(band, b)
        if not solved:
            x[0] = np.nan  # q=3 owns the first free offset, a block of its own
        solved.append(True)
        return x

    monkeypatch.setattr(billiards, "_band_solve", first_block_fails)
    got = billiards.compute_orbits(perturbed_frame, qs)
    for q in (8, 64):
        _assert_same_orbit(got[q], expect[q])
    assert got[3].iterations > expect[3].iterations  # the ascent step cost iterations
    assert got[3].gradient_residual < 1e-13
    assert_allclose(got[3].theta, expect[3].theta, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "qs, error, q",
    [
        ((4, 5, 128), NotMaximalError, 4),
        ((5, 8, 128), NoConvergenceError, 5),
        ((8, 16, 3, 6), NoConvergenceError, 3),
        ((5, 64), NoConvergenceError, 5),
        ((64, 128), NoConvergenceError, 64),
    ],
)
def test_compute_orbits_raises_the_smallest_failing_period(perturbed_frame, monkeypatch,
                                                           qs, error, q):
    """With several periods failing, the error raised is the smallest period's, as a
    solve of that period alone raises it.

    At max_iter=3, periods 3, 5, 6 and 7 hit the iteration cap at the end of
    the Newton phase, while 4 and 8 and up converge. Two patches add the other
    failures: q=64 never passes the monotone check, so it stalls in its first
    line search, before any cap is reached; and the inertia finds every
    converged orbit with free offsets not maximal, which only the checks
    after the Newton phase see.
    """
    increasing = billiards._Periods.increasing
    monkeypatch.setattr(billiards._Periods, "increasing",
                        lambda lay, t: increasing(lay, t) & (lay.qs != 64))
    monkeypatch.setattr(billiards, "_band_inertia", lambda band, shift: -1)
    with pytest.raises(error) as alone:
        billiards.compute_orbits(perturbed_frame, [q], max_iter=3)
    assert f"q={q}" in str(alone.value)
    with pytest.raises(error) as batch:
        billiards.compute_orbits(perturbed_frame, qs, max_iter=3)
    assert str(batch.value) == str(alone.value)


def test_not_maximal_error_counts_the_eigenvalues_above(perturbed_frame, monkeypatch):
    """`NotMaximalError` names the period and how many of its reduced Hessian's
    eigenvalues sit at or above HESSIAN_POS_TOL; no option turns the check off."""
    monkeypatch.setattr(billiards, "_band_inertia", lambda block, shift: len(block.d) - 1)
    with pytest.raises(NotMaximalError) as err:
        billiards.compute_orbits(perturbed_frame, [8])
    assert "q=8" in str(err.value) and "1 of 3" in str(err.value)
    with pytest.raises(TypeError):
        billiards.compute_orbits(perturbed_frame, [8], require_maximal=False)


# -- linearized return map -------------------------------------------------------


def test_poincare_circle_is_degenerate(circle_frame, circle_orbits):
    rep = billiards.genericity_report(circle_frame, {2: circle_orbits[2]})
    assert_allclose(rep.traces[2], 2.0, rtol=0, atol=1e-12)
    assert_allclose(np.linalg.det(billiards._return_maps([circle_orbits[2]])[0]), 1.0,
                    rtol=0, atol=1e-12)
    assert not rep.nondegenerate[2]


def test_poincare_symplectic(perturbed_orbits):
    maps = billiards._return_maps([perturbed_orbits[q] for q in (2, 3, 8, 16)])
    for mat in maps:
        assert abs(np.linalg.det(mat) - 1.0) < 1e-8


def test_poincare_against_finite_difference_oracle(perturbed_frame, perturbed_orbits):
    """Jacobian of the composed shooting map, centered differences."""
    frame, chart = perturbed_frame, perturbed_frame.chart
    orb = perturbed_orbits[3]
    mat = billiards._return_maps([orb])[0]

    def composed(s, phi):
        theta = float(chart._invert(chart.sigma_of_theta, frame.profile.speed, s,
                                    chart.perimeter, chart.sigma_grid))
        t0 = frame.profile.tangent(theta)
        normal = np.array([-t0[1], t0[0]])
        d = np.cos(phi) * t0 + np.sin(phi) * normal
        for _ in range(orb.q):
            theta, d = billiards.billiard_map(frame, theta, d)
        t1 = frame.profile.tangent(theta)
        s_out = float(chart.sigma_of_theta(theta))
        L = chart.perimeter
        while s_out - s > L / 2:
            s_out -= L
        while s_out - s < -L / 2:
            s_out += L
        phi_out = np.arctan2(t1[0] * d[1] - t1[1] * d[0], t1 @ d)
        return np.array([s_out, phi_out])

    s0, phi0 = float(chart.sigma_of_theta(orb.theta)[0]), float(orb.phi[0])
    h = 1e-6
    jac = np.zeros((2, 2))
    jac[:, 0] = (composed(s0 + h, phi0) - composed(s0 - h, phi0)) / (2 * h)
    jac[:, 1] = (composed(s0, phi0 + h) - composed(s0, phi0 - h)) / (2 * h)
    assert np.max(np.abs(jac - mat)) < 1e-6


# -- diagnostics ------------------------------------------------------------------


def test_genericity_circle_flags_degenerate(circle_frame, circle_orbits):
    orbits = {q: circle_orbits[q] for q in range(2, 9)}
    rep = billiards.genericity_report(circle_frame, orbits)
    assert not any(rep.nondegenerate.values())


def test_genericity_perturbed_lengths_distinct(perturbed_frame, perturbed_orbits):
    orbits = {q: perturbed_orbits[q] for q in range(2, 13)}
    rep = billiards.genericity_report(perturbed_frame, orbits)
    assert rep.min_length_gap > 1e-6
    assert "marked symmetric maximal" in rep.warning


def test_genericity_deterministic():
    frames = [geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)
              for _ in range(2)]
    reports = [
        billiards.genericity_report(f, billiards.compute_orbits(f, range(2, 7)))
        for f in frames
    ]
    assert reports[0].lengths == reports[1].lengths
    assert reports[0].traces == reports[1].traces


def test_genericity_edge_cases(perturbed_frame, perturbed_orbits):
    empty = billiards.genericity_report(perturbed_frame, {})
    assert empty.min_length_gap == np.inf and empty.closest_pair == ()
    assert empty.lengths == empty.traces == empty.nondegenerate == {}
    one = billiards.genericity_report(perturbed_frame, {5: perturbed_orbits[5]})
    assert one.min_length_gap == np.inf and one.closest_pair == ()
    trace = float(np.trace(billiards._return_maps([perturbed_orbits[5]])[0]))
    assert one.traces == {5: trace}
    assert one.nondegenerate == {5: abs(trace - 2.0) > billiards.UNIT_EIGEN_TOL}
    assert billiards.compute_orbits(perturbed_frame, []) == {}


def _closest_pair_loop(lengths):
    """Every pair in ascending (qa, qb) order; the first at the smallest gap wins."""
    qs = sorted(lengths)
    gap, pair = np.inf, ()
    for i, qa in enumerate(qs):
        for qb in qs[i + 1 :]:
            g = abs(lengths[qa] - lengths[qb])
            if g < gap:
                gap, pair = g, (qa, qb)
    return gap, pair


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 1.0, 1.0 + 2**-52, 3.0]),
                min_size=1, max_size=8))
def test_closest_pair_tie_rule(perturbed_frame, perturbed_orbits, drawn):
    """Sorted neighbours give the gap and pair of the all-pairs loop, ties included."""
    orbits = {q: dataclasses.replace(perturbed_orbits[q], length=ell)
              for q, ell in zip(range(2, 10), drawn)}
    rep = billiards.genericity_report(perturbed_frame, orbits)
    assert (rep.min_length_gap, rep.closest_pair) == _closest_pair_loop(rep.lengths)


def test_grazing_bounce_raises_for_the_smallest_period(perturbed_frame, perturbed_orbits):
    """The smallest period with a grazing bounce raises, quoting its own min sin phi."""
    orbits = {q: perturbed_orbits[q] for q in range(2, 9)}
    for q, low in ((6, 2e-12), (4, 3e-10)):
        sin_phi = orbits[q].sin_phi.copy()
        sin_phi[1] = low
        orbits[q] = dataclasses.replace(orbits[q], sin_phi=sin_phi)
    with pytest.raises(SingularAngleError, match=r"sin phi = 3e-10\)"):
        billiards.genericity_report(perturbed_frame, orbits)
    with pytest.raises(SingularAngleError, match=r"sin phi = 2e-12\)"):
        billiards._return_maps([orbits[6]])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_grazing_guard_for_sums_assembly_and_return_maps(perturbed_frame, perturbed_orbits,
                                                             data):
    """Bounce sums, the T assembly and the return maps share one guard: on any
    subset of periods 2..12, the smallest period given a grazing bounce raises,
    quoting its own min sin phi, and with none given all three succeed."""
    qs = sorted(data.draw(st.sets(st.integers(2, 12), min_size=1), label="periods"))
    grazed = sorted(data.draw(st.sets(st.sampled_from(qs)), label="grazed"))
    orbits = {q: perturbed_orbits[q] for q in qs}
    for q in grazed:
        sin_phi = orbits[q].sin_phi.copy()
        for k in data.draw(st.sets(st.integers(0, q - 1), min_size=1), label=f"bounces of {q}"):
            sin_phi[k] = data.draw(st.floats(0.0, billiards.SIN_PHI_TOL, exclude_max=True))
        orbits[q] = dataclasses.replace(orbits[q], sin_phi=sin_phi)
    params = op.GammaSpaceParams(J=8, Q=12)
    calls = (
        lambda: fn.bounce_sums(fn.CosineSeries([1.0, 0.5]), [orbits[q] for q in qs]),
        lambda: op.assemble_T(perturbed_frame.chart, orbits, params).entries,
        lambda: list(billiards.genericity_report(perturbed_frame, orbits).traces.values()),
    )
    if grazed:
        q = grazed[0]
        message = f"at q={q} (sin phi = {np.min(orbits[q].sin_phi):.3g})"
        for call in calls:
            with pytest.raises(SingularAngleError, match=re.escape(message)):
                call()
    else:
        for call in calls:
            assert np.all(np.isfinite(call()))


# -- creeping-orbit asymptotics ----------------------------------------------------


def test_fit_requires_three_rungs(perturbed_frame, perturbed_orbits):
    with pytest.raises(InsufficientLadderError):
        billiards.fit_alpha_beta(
            perturbed_frame.chart, {q: perturbed_orbits[q] for q in (8, 16)}
        )


def test_fit_circle_corrections_vanish(circle_fit):
    assert np.max(np.abs(circle_fit.alpha)) < 1e-9
    assert np.max(np.abs(circle_fit.beta)) < 1e-9


def test_fit_parity_and_decay(perturbed_fit):
    fit = perturbed_fit
    assert fit.alpha_parity_residual < 1e-6
    assert fit.beta_parity_residual < 1e-6
    assert -4.5 < fit.alpha_slope < -3.5
    assert -4.5 < fit.beta_slope < -3.5
    # corrections are small together with the domain perturbation
    assert np.max(np.abs(fit.alpha)) < 0.05
    assert np.max(np.abs(fit.beta)) < 0.2


def test_fit_diagnostics_are_computed_when_read(perturbed_frame, perturbed_orbits):
    """A plan reads only the fit's limits; its diagnostics wait until first read and
    are then kept."""
    fit = billiards.fit_alpha_beta(perturbed_frame.chart, {q: perturbed_orbits[q] for q in LADDER})
    names = ("alpha_parity_residual", "beta_parity_residual", "alpha_residuals",
             "beta_residuals", "alpha_slope", "beta_slope")
    assert not set(names) & set(vars(fit))
    values = [getattr(fit, name) for name in names]
    assert set(names) <= set(vars(fit))
    assert [getattr(fit, name) for name in names] == values


def test_fit_residuals_shrink_along_ladder(perturbed_fit):
    res = perturbed_fit.alpha_residuals
    for qa, qb in zip(LADDER, LADDER[1:]):
        assert res[qb] < res[qa]
