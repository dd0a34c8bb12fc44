import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from rigidity_lab import billiards, geometry
from rigidity_lab.errors import (
    DegenerateChordError,
    InsufficientLadderError,
    NoConvergenceError,
)

LADDER = (8, 16, 32, 64)


# -- closed forms on the circle -------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 7, 16])
def test_circle_orbit_closed_forms(circle_frame, circle_orbits, q):
    orb = circle_orbits[q]
    assert_allclose(orb.length, 2 * q * np.sin(np.pi / q), rtol=0, atol=1e-10)
    assert_allclose(orb.x, np.arange(q) / q, rtol=0, atol=1e-10)
    assert_allclose(orb.phi, np.pi / q, rtol=0, atol=1e-10)
    assert orb.reflection_residual < 1e-12


def test_inscribed_polygon_lengths(circle_frame):
    triangle = np.pi + 2 * np.pi * np.arange(3) / 3
    assert_allclose(billiards.orbit_length(circle_frame, triangle),
                    5.196152422706632, rtol=0, atol=1e-12)  # 3*sqrt(3)
    square = np.pi + 2 * np.pi * np.arange(4) / 4
    assert_allclose(billiards.orbit_length(circle_frame, square),
                    5.656854249492381, rtol=0, atol=1e-12)  # 4*sqrt(2)


def test_degenerate_chord_rejected(circle_frame):
    with pytest.raises(DegenerateChordError):
        billiards.orbit_length(circle_frame, [np.pi, np.pi + 1e-15, 4.0])


# -- perturbed domain ------------------------------------------------------------


def test_perturbed_orbit_quality(perturbed_orbits):
    orb = perturbed_orbits[8]
    assert orb.reflection_residual < 1e-10
    assert orb.gradient_residual < 1e-12
    assert orb.maximal
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


def test_orbit_symmetry_multiset(perturbed_orbits):
    for q in (3, 8, 16):
        x = perturbed_orbits[q].x
        mirrored = np.sort(np.mod(1.0 - x, 1.0))
        assert_allclose(np.sort(x), mirrored, rtol=0, atol=1e-12)


def test_length_monotonicity(perturbed_frame, perturbed_orbits):
    for q in (2, 4, 8, 16, 32):
        assert perturbed_orbits[2 * q].length > perturbed_orbits[q].length
    for q, orb in perturbed_orbits.items():
        assert orb.length < perturbed_frame.perimeter


def test_solver_iteration_cap(perturbed_frame):
    with pytest.raises(NoConvergenceError):
        billiards.maximal_marked_orbit(perturbed_frame, 8, max_iter=1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16, 17, 64])
def test_reduced_hessian_matches_dense_reduction(perturbed_frame, q):
    """Tridiagonal reduced Hessian against R^T H R with H assembled densely."""
    profile = perturbed_frame.profile
    half = (q - 1) // 2
    rng = np.random.default_rng(q)
    s = 2 * np.pi * np.arange(1, half + 1) / q + 1e-3 * rng.standard_normal(half)
    t = billiards._symmetric_assemble(q, s)
    _, grad, diag, off = billiards._length_grad_hess(profile, geometry.MARKED_THETA + t)
    k = np.arange(q)
    hess = np.diag(diag)
    np.add.at(hess, (k, (k + 1) % q), off)
    np.add.at(hess, ((k + 1) % q, k), off)
    reduction = np.zeros((q, half))
    for j in range(1, half + 1):
        reduction[j, j - 1] = 1.0
        reduction[q - j, j - 1] = -1.0

    _, gr, hr = billiards._reduced_grad_hess(profile, t)
    assert hr.shape == (half, half)
    assert_allclose(hr, reduction.T @ hess @ reduction, rtol=0, atol=1e-14)
    assert_allclose(gr, reduction.T @ grad, rtol=0, atol=1e-14)


def test_reduced_gradient_and_hessian_finite_difference(perturbed_frame):
    """Central differences of the polygon length in the free offsets."""
    q, h = 9, 1e-5
    frame = perturbed_frame
    s = 2 * np.pi * np.arange(1, 5) / q + np.array([3e-3, -2e-3, 1e-3, 4e-3])

    def reduced(s):
        return billiards._reduced_grad_hess(frame.profile, billiards._symmetric_assemble(q, s))

    def length(s):
        return billiards.orbit_length(
            frame, geometry.MARKED_THETA + billiards._symmetric_assemble(q, s)
        )

    _, gr, hr = reduced(s)

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


def test_compute_orbits_threaded_matches_serial(perturbed_frame):
    serial = billiards.compute_orbits(perturbed_frame, [3, 5, 9])
    threaded = billiards.compute_orbits(perturbed_frame, [3, 5, 9], threads=3)
    for q in (3, 5, 9):
        assert serial[q].length == threaded[q].length
        assert np.array_equal(serial[q].theta, threaded[q].theta)


# -- linearized return map -------------------------------------------------------


def test_poincare_circle_is_degenerate(circle_frame, circle_orbits):
    pd = billiards.linearized_poincare(circle_frame, circle_orbits[2])
    assert_allclose(pd.trace, 2.0, rtol=0, atol=1e-12)
    assert_allclose(pd.det, 1.0, rtol=0, atol=1e-12)
    assert not pd.nondegenerate


def test_poincare_symplectic(perturbed_frame, perturbed_orbits):
    for q in (2, 3, 8, 16):
        pd = billiards.linearized_poincare(perturbed_frame, perturbed_orbits[q])
        assert abs(pd.det - 1.0) < 1e-8


def test_poincare_against_finite_difference_oracle(perturbed_frame, perturbed_orbits):
    """Jacobian of the composed shooting map, centered differences."""
    frame, chart = perturbed_frame, perturbed_frame.chart
    orb = perturbed_orbits[3]
    pd = billiards.linearized_poincare(frame, orb)

    def composed(s, phi):
        theta = float(chart.theta_of_sigma(s))
        t0 = frame.profile.tangent(theta)
        normal = np.array([-t0[1], t0[0]])
        d = np.cos(phi) * t0 + np.sin(phi) * normal
        for _ in range(orb.q):
            theta, d = billiards.billiard_map(frame, theta, d)
        t1 = frame.profile.tangent(theta)
        s_out = float(chart.sigma_of_theta(theta))
        L = frame.perimeter
        while s_out - s > L / 2:
            s_out -= L
        while s_out - s < -L / 2:
            s_out += L
        phi_out = np.arctan2(t1[0] * d[1] - t1[1] * d[0], t1 @ d)
        return np.array([s_out, phi_out])

    s0, phi0 = float(orb.sigma[0]), float(orb.phi[0])
    h = 1e-6
    jac = np.zeros((2, 2))
    jac[:, 0] = (composed(s0 + h, phi0) - composed(s0 - h, phi0)) / (2 * h)
    jac[:, 1] = (composed(s0, phi0 + h) - composed(s0, phi0 - h)) / (2 * h)
    assert np.max(np.abs(jac - pd.matrix)) < 1e-6


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


def test_fit_residuals_shrink_along_ladder(perturbed_fit):
    res = perturbed_fit.alpha_residuals
    for qa, qb in zip(LADDER, LADDER[1:]):
        assert res[qb] < res[qa]
