import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.optimize import brentq

from rigidity_lab import geometry
from rigidity_lab.errors import NoConvergenceError, NonConvexError, NonPositiveRadiusError

TWO_PI = 2.0 * np.pi


def test_unit_circle_closed_forms(circle_frame):
    c = circle_frame.chart
    assert_allclose(c.perimeter, TWO_PI, rtol=0, atol=1e-13)
    assert_allclose(c.lazutkin_const, 1.0 / TWO_PI, rtol=0, atol=1e-14)
    assert_allclose(c.mu_grid, np.pi, rtol=0, atol=1e-12)
    assert_allclose(c.x_grid, c.sigma_grid / TWO_PI, rtol=0, atol=1e-12)
    assert_allclose(c.kappa_grid, 1.0, rtol=0, atol=1e-13)


def test_marked_point_convention(circle_frame, perturbed_frame):
    for f in (circle_frame, perturbed_frame):
        position = f.profile.position(f.chart.theta_grid)
        assert_allclose(position[0], [0.0, 0.0], atol=1e-13)
        assert np.min(position[:, 0]) > -1e-12  # domain sits in {x >= 0}
        # reflection symmetry of the table
        th = np.linspace(0.1, 3.0, 7)
        up = f.profile.position(th)
        dn = f.profile.position(-th)
        assert_allclose(up[:, 0], dn[:, 0], atol=1e-14)
        assert_allclose(up[:, 1], -dn[:, 1], atol=1e-14)


def test_curvature_against_finite_difference_oracle():
    profile = geometry.build_profile([0.0, 0.0, 0.01])
    theta = np.linspace(0.0, TWO_PI, 101)
    h = 1e-4  # balances truncation vs roundoff in the second difference
    p0 = profile.position(theta)
    pp = profile.position(theta + h)
    pm = profile.position(theta - h)
    vel = (pp - pm) / (2 * h)
    acc = (pp - 2 * p0 + pm) / h**2
    cross = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
    kappa_fd = cross / np.linalg.norm(vel, axis=1) ** 3
    assert_allclose(profile.curvature(theta), kappa_fd, rtol=0, atol=1e-6)


def _per_mode_sums(coeffs, theta):
    """The radial series summed one mode at a time: r, r', r'' as separate loops."""
    r, r1, r2 = np.ones_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    for n, a in enumerate(coeffs):
        r = r + a * np.cos(n * theta)
        r1 = r1 - a * n * np.sin(n * theta)
        r2 = r2 - a * n * n * np.cos(n * theta)
    return r, r1, r2


def _per_mode_quantities(profile, theta):
    """Boundary quantities from the per-mode sums and the polar parametrization."""
    r, r1, r2 = _per_mode_sums(profile.radial_coeffs, theta)
    c, s = np.cos(theta), np.sin(theta)
    return {
        "radius": r,
        "position": np.stack([profile.center_offset + r * c, r * s], axis=-1),
        "velocity": np.stack([r1 * c - r * s, r1 * s + r * c], axis=-1),
        "acceleration": np.stack([(r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c],
                                 axis=-1),
        "speed": np.sqrt(r * r + r1 * r1),
        "curvature": (r * r + 2.0 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5,
    }


def _one_evaluator_quantities(profile, theta):
    return {
        "radius": profile.jet(theta)[0],
        "position": profile.position(theta),
        "velocity": profile.velocity(theta),
        "acceleration": np.stack(profile.point_jet(theta)[2], axis=-1),
        "speed": profile.speed(theta),
        "curvature": profile.curvature(theta),
    }


# convex by a margin: sum n^2 |a_n| <= 0.3 keeps r'' and r' small against r ~ 1
_convex_modes = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8).map(
    lambda w: [0.3 * v / (len(w) * max(n * n, 1)) for n, v in enumerate(w)]
)
_thetas = TWO_PI * np.arange(64) / 64 + 0.05


@settings(max_examples=60, deadline=None)
@given(_convex_modes)
def test_one_evaluator_matches_per_mode_sums(coeffs):
    """jet and every quantity built on it agree with the radial series summed
    mode by mode, to a few ulp of the largest term scale 1 + sum n^2 |a_n|."""
    profile = geometry.build_profile(coeffs)
    scale = 1.0 + sum(n * n * abs(a) for n, a in enumerate(coeffs))
    got = _one_evaluator_quantities(profile, _thetas)
    for name, want in _per_mode_quantities(profile, _thetas).items():
        assert_allclose(got[name], want, rtol=0, atol=8 * np.finfo(float).eps * scale,
                        err_msg=name)


def _mpmath_jet(coeffs, theta, dps=50):
    """r, r' and r'' at each float theta, summed at ``dps`` digits."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(v) for v in coeffs]
        out = []
        for th in map(mpmath.mpf, theta):
            cos = [mpmath.cos(n * th) for n in range(len(a))]
            sin = [mpmath.sin(n * th) for n in range(len(a))]
            out.append([1 + sum(an * c for an, c in zip(a, cos)),
                        -sum(n * an * s for n, (an, s) in enumerate(zip(a, sin))),
                        -sum(n * n * an * c for n, (an, c) in enumerate(zip(a, cos)))])
        return np.array(out, dtype=float).T


def _assert_jet_matches_mpmath(coeffs):
    """The bound of the per-mode comparison: a few ulp of 1 + sum n^2 |a_n|."""
    profile = geometry.build_profile(coeffs)
    scale = 1.0 + sum(n * n * abs(a) for n, a in enumerate(coeffs))
    got = profile.jet(_thetas)[:3]
    for name, g, want in zip(("r", "r'", "r''"), got, _mpmath_jet(coeffs, _thetas)):
        assert_allclose(g, want, rtol=0, atol=8 * np.finfo(float).eps * scale, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.floats(-0.3 / 64, 0.3 / 64))
def test_jet_matches_mpmath_on_single_mode_tables(n, a):
    """The harmonics of one mode, rotated up from cos/sin theta, against a
    50-digit sum."""
    _assert_jet_matches_mpmath([0.0] * n + [a])


@pytest.mark.parametrize("coeffs", [
    [0.0, 0.0, 0.01, 0.0, 0.002],
    [0.0, 0.0, 0.01, -0.003, 0.002, 0.001, -0.0005, 0.0004],
])
def test_jet_matches_mpmath_on_multi_mode_tables(coeffs):
    _assert_jet_matches_mpmath(coeffs)


def _harmonics_jet(profile, theta):
    """`DomainProfile.jet` summed from the `geometry.harmonics` lists of every mode."""
    cos, sin = geometry.harmonics(theta, max(len(profile.radial_coeffs), 2))
    r, r1, r2 = cos[0], 0.0 * cos[0], 0.0 * cos[0]
    for n, a in enumerate(profile.radial_coeffs):
        if a:
            r = r + a * cos[n]
            r1 = r1 - (n * a) * sin[n]
            r2 = r2 - (n * (n * a)) * cos[n]
    return r, r1, r2, cos[1], sin[1]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(), (0.0, 0.0, 0.01), (0.0, 0.0, 0.01, 0.0, 0.002, 0.0, 0.0),
                        (0.0, 0.0, 0.0, 0.0, 0.0, 0.005), (0.0, 0.004, 0.01, -0.003, 0.0)]),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
def test_jet_by_one_rotation_equals_the_harmonics_sum(coeffs, thetas):
    """One running rotation up to the last nonzero mode gives every jet value of the
    harmonics lists bit for bit (zero signs included), for arrays and, on Python
    floats, for each scalar theta."""
    profile = geometry.build_profile(coeffs)
    arr = np.array(thetas)
    for got, want in zip(profile.jet(arr), _harmonics_jet(profile, arr), strict=True):
        assert got.tobytes() == want.tobytes()
    for theta in thetas:
        got, want = profile.jet(theta), _harmonics_jet(profile, theta)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_point_jet_derivatives_against_central_differences():
    profile = geometry.build_profile([0.0, 0.0, 0.01, 0.0, 0.002])
    theta = np.linspace(0.0, TWO_PI, 101)
    h = 1e-4
    (px, py), (vx, vy), (ax, ay) = profile.point_jet(theta)
    (px_p, py_p), (vx_p, vy_p), _ = profile.point_jet(theta + h)
    (px_m, py_m), (vx_m, vy_m), _ = profile.point_jet(theta - h)
    # O(h^2) truncation against O(eps/h) roundoff in the first differences
    assert_allclose(vx, (px_p - px_m) / (2 * h), rtol=0, atol=1e-8)
    assert_allclose(vy, (py_p - py_m) / (2 * h), rtol=0, atol=1e-8)
    assert_allclose(ax, (vx_p - vx_m) / (2 * h), rtol=0, atol=1e-8)
    assert_allclose(ay, (vy_p - vy_m) / (2 * h), rtol=0, atol=1e-8)
    # one point gives Python floats equal to the vectorized values bit for bit
    (qx, qy), (wx, wy), (bx, by) = profile.point_jet(float(theta[17]))
    assert all(type(v) is float for v in (qx, qy, wx, wy, bx, by))
    assert_array_equal([qx, qy, wx, wy, bx, by], [px[17], py[17], vx[17], vy[17], ax[17], ay[17]])


def test_small_perturbation_accepted_large_rejected():
    geometry.build_profile([0.0, 0.0, 0.01])  # convex, accepted
    with pytest.raises(NonConvexError):
        geometry.build_profile([0.0, 0.0, 0.9])
    # the curvature formula itself shows the sign change on the raw series
    bad = geometry.DomainProfile((0.0, 0.0, 0.9), 8, 1.0 + 0.9)
    theta = TWO_PI * np.arange(4096) / 4096
    assert np.min(bad.curvature(theta)) < 0


def test_radius_positivity_rejected():
    with pytest.raises(NonPositiveRadiusError):
        geometry.build_profile([-1.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        geometry.build_profile([0.0, 0.0, bad])


def test_parameter_validation():
    with pytest.raises(ValueError):
        geometry.build_profile([], smoothness_order=7)
    profile = geometry.build_profile(())
    with pytest.raises(ValueError):
        geometry.build_frame(profile, 200)
    with pytest.raises(ValueError):
        geometry.build_frame(profile, 511)


def test_frame_tables_monotone(perturbed_frame):
    c = perturbed_frame.chart
    assert np.all(np.diff(c.sigma_grid) > 0)
    assert np.all(np.diff(c.x_grid) > 0)
    assert c.sigma_grid[0] == 0.0 and c.x_grid[0] == 0.0
    assert c.x_grid[-1] < 1.0
    # last gap closes the period
    assert_allclose(c.sigma_grid[-1] + (c.sigma_grid[1] - c.sigma_grid[0]), c.perimeter, rtol=1e-9)


def test_frame_table_is_read_only(perturbed_frame):
    for name, column in perturbed_frame.table().items():
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0] = 0.0


def test_mu_against_adaptive_quadrature_oracle(perturbed_frame, rng):
    """Independent route: adaptive quadrature + root solve, no FFT machinery."""
    profile = perturbed_frame.profile
    chart = perturbed_frame.chart

    def density(theta):
        return profile.curvature(theta) ** (2.0 / 3.0) * profile.speed(theta)

    total = quad(density, np.pi, 3 * np.pi, limit=200, epsabs=1e-13, epsrel=1e-13)[0]

    def x_of_theta(theta):
        return quad(density, np.pi, theta, limit=200, epsabs=1e-13, epsrel=1e-13)[0] / total

    for x_target in rng.uniform(0.02, 0.98, size=10):
        theta_star = brentq(lambda t: x_of_theta(t) - x_target, np.pi + 1e-12, 3 * np.pi - 1e-12,
                            xtol=1e-13)
        mu_oracle = profile.curvature(theta_star) ** (1.0 / 3.0) * total / 2.0
        assert_allclose(chart.mu_of_theta(chart.theta_of_x(x_target)), mu_oracle,
                        rtol=0, atol=1e-9)


def test_mu_two_routes_agree(perturbed_frame):
    """Direct curvature formula vs chain rule through the arclength map."""
    chart = perturbed_frame.chart
    x = np.linspace(0.0, 1.0, 257, endpoint=False)
    theta = chart.theta_of_x(x)
    direct = chart.mu_of_theta(theta)
    dx_dsigma = chart.dx_dtheta(theta) / chart.profile.speed(theta)
    via_chain = np.sqrt(dx_dsigma / chart.lazutkin_const) / (2.0 * chart.lazutkin_const)
    assert_allclose(direct, via_chain, rtol=0, atol=1e-9)


def test_mu_evenness(perturbed_frame):
    chart = perturbed_frame.chart
    x = np.linspace(0.01, 0.49, 33)
    assert_allclose(chart.mu_of_theta(chart.theta_of_x(x)),
                    chart.mu_of_theta(chart.theta_of_x(1.0 - x)), rtol=0, atol=1e-12)


def test_chart_normalizations(perturbed_frame):
    chart = perturbed_frame.chart
    # the Lazutkin density integrates to exactly one unit of x
    profile = perturbed_frame.profile
    total = quad(
        lambda t: profile.curvature(t) ** (2.0 / 3.0) * profile.speed(t),
        np.pi, 3 * np.pi, limit=200, epsabs=1e-13, epsrel=1e-13,
    )[0]
    assert_allclose(chart.lazutkin_const * total, 1.0, rtol=0, atol=1e-12)
    # unit mass under the frame's x quadrature
    assert_allclose(chart.integrate_dx(np.ones(chart.n_grid)), 1.0, rtol=0, atol=1e-13)


def test_roundtrip_inverse_maps(perturbed_frame):
    chart = perturbed_frame.chart
    x = np.linspace(0.0, 0.999, 41)
    assert_allclose(chart.x_of_theta(chart.theta_of_x(x)), x, rtol=0, atol=1e-12)
    s = np.linspace(0.0, 0.999 * chart.perimeter, 41)
    theta = chart._invert(chart.sigma_of_theta, chart.profile.speed, s, chart.perimeter,
                          chart.sigma_grid)
    assert_allclose(chart.sigma_of_theta(theta), s, rtol=0, atol=1e-11)


def test_inversion_iteration_cap_raises(perturbed_frame):
    chart = perturbed_frame.chart

    def wrong_deriv(theta):  # 1000x too steep: Newton creeps and never converges
        return 1e3 * chart.dx_dtheta(theta)

    with pytest.raises(NoConvergenceError, match="iteration cap"):
        chart._invert(chart.x_of_theta, wrong_deriv, np.array([0.3, 0.7]), 1.0)


def _mp_speed_and_density(coeffs):
    """Arclength and Lazutkin densities of the radial series, in mpmath."""

    def radial(theta):
        r = 1 + sum(a * mpmath.cos(n * theta) for n, a in enumerate(coeffs))
        r1 = -sum(n * a * mpmath.sin(n * theta) for n, a in enumerate(coeffs))
        r2 = -sum(n * n * a * mpmath.cos(n * theta) for n, a in enumerate(coeffs))
        return r, r1, r2

    def speed(theta):
        r, r1, _ = radial(theta)
        return mpmath.sqrt(r * r + r1 * r1)

    def density(theta):
        r, r1, r2 = radial(theta)
        kappa = (r * r + 2 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5
        return kappa ** (mpmath.mpf(2) / 3) * speed(theta)

    return speed, density


@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.01], [0.0] * 5 + [0.005]])
def test_chopped_chart_against_mpmath_quadrature(coeffs):
    """Arclength, Lazutkin coordinate and constant against adaptive mpmath quadrature."""
    speed, density = _mp_speed_and_density(coeffs)
    theta = np.pi + TWO_PI * np.array([0.05, 0.21, 0.5, 0.66, 0.93])
    with mpmath.workdps(20):
        # integrate piece by piece between the sample points, then accumulate
        ends = [mpmath.pi] + [mpmath.mpf(t) for t in theta] + [3 * mpmath.pi]
        arc = np.cumsum([mpmath.quad(speed, ends[i : i + 2]) for i in range(len(ends) - 1)])
        mass = np.cumsum([mpmath.quad(density, ends[i : i + 2]) for i in range(len(ends) - 1)])
        sigma_ref = np.array([float(v) for v in arc[:-1]])
        x_ref = np.array([float(v / mass[-1]) for v in mass[:-1]])
        const_ref = float(1 / mass[-1])
    for n in (512, 4096):
        chart = geometry.build_frame(geometry.build_profile(coeffs), n).chart
        assert_allclose(chart.sigma_of_theta(theta), sigma_ref, rtol=0, atol=1e-13)
        assert_allclose(chart.x_of_theta(theta), x_ref, rtol=0, atol=1e-13)
        assert_allclose(chart.lazutkin_const, const_ref, rtol=0, atol=1e-13)
        if n == 4096:
            # only the resolved bandwidth is kept, not the roundoff plateau
            assert len(chart._speed_series.k) <= 64
            assert len(chart._density_series.k) <= 64


MULTI_MODE = (0.0, 0.0, 0.01, 0.0, 0.002)


@pytest.mark.parametrize("n", [256, 2048])
def test_multi_mode_chart_against_30_digit_quadrature(n):
    """The Horner-summed antiderivatives of a two-mode table against mpmath at
    30 digits, on the coarsest grid and a fine one."""
    speed, density = _mp_speed_and_density(MULTI_MODE)
    theta = np.pi + TWO_PI * np.array([0.0, 0.013, 0.21, 0.5, 0.66, 0.93, 0.999])
    with mpmath.workdps(30):
        ends = [mpmath.mpf(t) for t in theta] + [3 * mpmath.pi]
        arc = np.cumsum([mpmath.quad(speed, ends[i : i + 2]) for i in range(len(theta))])
        mass = np.cumsum([mpmath.quad(density, ends[i : i + 2]) for i in range(len(theta))])
        sigma_ref = np.array([0.0] + [float(v) for v in arc[:-1]])
        x_ref = np.array([0.0] + [float(v / mass[-1]) for v in mass[:-1]])
    chart = geometry.build_frame(geometry.build_profile(MULTI_MODE), n).chart
    assert_allclose(chart.sigma_of_theta(theta), sigma_ref, rtol=0, atol=1e-13)
    assert_allclose(chart.x_of_theta(theta), x_ref, rtol=0, atol=1e-13)
    assert_allclose(chart.perimeter, float(arc[-1]), rtol=0, atol=1e-13)
    # every point is summed on its own: a value does not depend on its batch
    t = TWO_PI * np.random.default_rng(n).uniform(size=37)
    series = chart._density_series
    whole = series.antideriv(t)
    assert all(series.antideriv(t[i : i + k])[0] == whole[i] for i in range(37) for k in (1, 5))


_CHARTS = {}


def _chart(coeffs, n):
    if (coeffs, n) not in _CHARTS:
        _CHARTS[coeffs, n] = geometry.build_frame(geometry.build_profile(coeffs), n).chart
    return _CHARTS[coeffs, n]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(MULTI_MODE, 256), (MULTI_MODE, 512), ((0.0, 0.0, 0.01), 512),
                     ((0.0, 0.0, 0.005), 256), ((0.0,) * 5 + (0.005,), 256)]),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
)
def test_inverse_from_table_start_property(table, xs):
    """theta_of_x inverts x_of_theta to 1e-14 modulo 1 (x_of_theta maps into
    [0, 1), so an x a rounding step below 1 comes back as 0), and from linear
    interpolation in the chart's grid table Newton needs at most three forward
    evaluations."""
    chart, x = _chart(*table), np.array(xs)
    gap = np.mod(chart.x_of_theta(chart.theta_of_x(x)) - x + 0.5, 1.0) - 0.5
    assert np.max(np.abs(gap)) <= 1e-14
    evaluations = []

    def forward(theta):
        evaluations.append(theta)
        return chart.x_of_theta(theta)

    chart._invert(forward, chart.dx_dtheta, x, 1.0, chart.x_grid)
    assert len(evaluations) <= 3


def _plateau_scan(envelope, tol):
    """The scalar plateau scan of Aurentz & Trefethen: (plateau, j2), or None past the end."""
    n = len(envelope)
    for j in range(2, n + 1):
        j2 = int(np.floor(1.25 * j + 5.5))
        if j2 > n:
            return None
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)):
            return j - 1, j2


def _chop_by_scalar_scan(coeffs):
    tol = np.finfo(float).eps
    n = len(coeffs)
    if n < 17:
        return n
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    found = _plateau_scan(envelope, tol)
    if found is None:
        return n
    plateau, j2 = found
    if envelope[plateau - 1] == 0.0:
        return plateau
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    biased = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(17, 400), st.floats(0.05, 0.999), st.integers(-20, -8),
       st.integers(0, 2**32 - 1), st.booleans())
def test_standard_chop_matches_the_scalar_plateau_scan(n, rate, noise, seed, zero_tail):
    """The plateau test runs on every j at once and keeps the first hit: the same
    cut as the scan from j = 2, on decaying spectra with a noise floor or zeros."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    coeffs = rate ** k * (1.0 + 0.1 * rng.standard_normal(n))
    coeffs += 10.0 ** noise * rng.standard_normal(n)
    if zero_tail:
        coeffs[rng.integers(1, n):] = 0.0
    assert geometry._standard_chop(coeffs) == _chop_by_scalar_scan(coeffs.copy())


def test_standard_chop_plateau_rules():
    k = np.arange(200)
    noisy = 0.5**k + 1e-16 * np.random.default_rng(0).standard_normal(200)
    assert 45 <= geometry._standard_chop(noisy) <= 56   # 0.5^k meets eps near k=52
    assert geometry._standard_chop(0.9**k) == 200        # unresolved: keep everything
    assert geometry._standard_chop(np.zeros(200)) == 1
    assert geometry._standard_chop(np.ones(16)) == 16    # too short to judge


def test_spectral_convergence_on_doubling():
    profile = geometry.build_profile([0.0, 0.0, 0.01])
    f1 = geometry.build_frame(profile, 512)
    f2 = geometry.build_frame(profile, 1024)
    assert abs(f1.chart.perimeter - f2.chart.perimeter) < 1e-10
    assert abs(f1.chart.lazutkin_const - f2.chart.lazutkin_const) < 1e-10


def test_closeness_circle_is_zero(circle_frame):
    rep = geometry.closeness_report(circle_frame)
    assert rep.eps < 1e-12
    assert rep.eps_all < 1e-9


def test_closeness_monotone_and_linear():
    values = {}
    for a2 in (0.005, 0.01, 0.02, 0.1):
        frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, a2]), 512)
        values[a2] = geometry.closeness_report(frame).eps
    assert values[0.005] < values[0.01] < values[0.02]
    # leading-order linearity in the small regime
    assert 1.8 < values[0.01] / values[0.005] < 2.3
    assert 1.8 < values[0.02] / values[0.01] < 2.3
    # tenfold coefficient gives roughly tenfold offset (superlinear drift at
    # a_2 = 0.1 is outside the linear regime)
    assert 9.0 < values[0.1] / values[0.01] < 17.0


def test_closeness_derivative_table(perturbed_frame):
    rep = geometry.closeness_report(perturbed_frame)
    assert rep.order == 8 and len(rep.derivative_sup) == 8
    assert rep.eps_all >= rep.eps
    assert all(s >= 0 for s in rep.derivative_sup)


def test_domain_spec_file_roundtrip(tmp_path):
    path = tmp_path / "dom.json"
    profile = geometry.build_profile([0.0, 0.0, 0.01])
    path.write_text(json.dumps({"radial_cosine_coeffs": profile.radial_coeffs,
                                "smoothness_order": profile.smoothness_order,
                                "frame_samples": 512}))
    loaded, n = geometry.load_domain_spec(path)
    assert n == 512
    assert loaded.radial_coeffs == profile.radial_coeffs
    path2 = tmp_path / "bad.json"
    path2.write_text('{"radial_cosine_coeffs": [], "bogus": 1}')
    with pytest.raises(ValueError, match="unknown domain spec keys"):
        geometry.load_domain_spec(path2)
