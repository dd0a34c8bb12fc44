import bisect
import json

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from rigidity_lab import billiards, functionals as fn, geometry, traces
from rigidity_lab.errors import SingularAngleError


def _wave_c0(orbit, K):
    """Leading wave-trace coefficient at the orbit length, C_gamma = 1."""
    return float(fn.bounce_sums(K, [orbit])[0])


def test_wave_c0_circle_frozen_values(circle_orbits):
    one = fn.CosineSeries.basis(0)
    assert_allclose(_wave_c0(circle_orbits[2], one), 2.0, rtol=0, atol=1e-12)
    assert_allclose(_wave_c0(circle_orbits[3], one),
                    3.4641016151377544, rtol=0, atol=1e-12)  # 3/sin(pi/3) = 2*sqrt(3)
    assert _wave_c0(circle_orbits[5], fn.CosineSeries.zero()) == 0.0


def test_wave_c0_linear_and_homogeneous(circle_orbits, rng):
    orb = circle_orbits[4]
    u = fn.CosineSeries(rng.standard_normal(5))
    v = fn.CosineSeries(rng.standard_normal(5))
    a, b = rng.standard_normal(2)
    lhs = _wave_c0(orb, a * u + b * v)
    rhs = a * _wave_c0(orb, u) + b * _wave_c0(orb, v)
    assert abs(lhs - rhs) < 1e-12
    assert_allclose(_wave_c0(orb, 2.5 * u), 2.5 * _wave_c0(orb, u), rtol=1e-14)


def test_heat_defect_circle_frozen(circle_frame):
    h0, h1 = traces.heat_defect(circle_frame, fn.CosineSeries.basis(0))
    assert_allclose(h0, 1.0, rtol=0, atol=1e-12)
    assert_allclose(h1, 1.3293403881791369, rtol=0, atol=1e-12)  # 3*sqrt(pi)/4
    z0, z1 = traces.heat_defect(circle_frame, fn.CosineSeries.zero())
    assert z0 == 0.0 and z1 == 0.0


def test_heat_defect_sign_structure(perturbed_frame, rng):
    K = fn.CosineSeries(rng.standard_normal(6))
    h0p, h1p = traces.heat_defect(perturbed_frame, K)
    h0m, h1m = traces.heat_defect(perturbed_frame, -1.0 * K)
    assert_allclose(h0m, -h0p, rtol=0, atol=1e-12)
    # linear part flips, quadratic part survives:
    # H1(K) - H1(-K) = (1/(4 sqrt(pi))) * int K kappa dsigma
    chart = perturbed_frame.chart
    speed = chart.profile.speed(chart.theta_grid)
    kk = np.mean(K(chart.x_grid) * chart.kappa_grid * speed) * 2 * np.pi
    assert_allclose(h1p - h1m, kk / (4.0 * np.sqrt(np.pi)), rtol=0, atol=1e-12)


def test_heat_defect_quadratic_split(perturbed_frame, rng):
    """H1(aK) = a * linear + a^2 * quadratic, solved from a = 1 and a = 2."""
    K = fn.CosineSeries(rng.standard_normal(5))
    _, h1_1 = traces.heat_defect(perturbed_frame, K)
    _, h1_2 = traces.heat_defect(perturbed_frame, 2.0 * K)
    linear = 2.0 * h1_1 - h1_2 / 2.0
    quadratic = (h1_2 - 2.0 * h1_1) / 2.0
    _, h1_3 = traces.heat_defect(perturbed_frame, 3.0 * K)
    assert_allclose(h1_3, 3.0 * linear + 9.0 * quadratic, rtol=0, atol=1e-10)


def _heat_theta_trapezoid(frame, K):
    """(H0, H1) by the periodic trapezoid on the frame's uniform theta grid."""
    chart = frame.chart
    speed = chart.profile.speed(chart.theta_grid)
    k = K(chart.x_grid)
    h0 = np.mean(k * speed)
    h1 = np.mean((k * chart.kappa_grid + 2.0 * k**2) * speed) * 2.0 * np.pi / (8.0 * np.sqrt(np.pi))
    return h0, h1


@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("coeffs", [[], [0.0, 0.0, 0.01], [0.0, 0.0, 0.0, 0.01],
                                    [0.0] * 5 + [0.005], [0.0, 0.0, 0.01, 0.0, 0.002]])
def test_heat_on_x_nodes_matches_theta_trapezoid(coeffs, n, rng):
    frame = geometry.build_frame(geometry.build_profile(coeffs), n)
    c = rng.standard_normal(9)
    s = np.sum(np.abs(c))
    h0, h1 = traces.heat_defect(frame, fn.CosineSeries(c))
    t0, t1 = _heat_theta_trapezoid(frame, fn.CosineSeries(c))
    assert abs(h0 - t0) <= 1e-13 * s
    assert abs(h1 - t1) <= 1e-13 * (s + s * s)
    # the same weight integrates the radius of curvature
    chart = frame.chart
    theta_ell0 = np.mean(chart.profile.speed(chart.theta_grid) / chart.kappa_grid) * 2.0 * np.pi
    assert abs(chart.integrate_dsigma(1.0 / chart.kappa_at_x_nodes) - theta_ell0) <= 1e-13


def _heat_mpmath(radial, k_coeffs, dps=20):
    """(H0, H1) by mpmath.quad over theta, x(theta) by nested quadrature of the density."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(v) for v in radial]
        pi = mpmath.pi

        def kappa_speed(th):
            r = 1 + sum(an * mpmath.cos(n * th) for n, an in enumerate(a))
            r1 = -sum(n * an * mpmath.sin(n * th) for n, an in enumerate(a))
            r2 = -sum(n * n * an * mpmath.cos(n * th) for n, an in enumerate(a))
            s2 = r * r + r1 * r1
            return (r * r + 2 * r1 * r1 - r * r2) / s2**1.5, mpmath.sqrt(s2)

        def density(th):
            kappa, speed = kappa_speed(th)
            return mpmath.cbrt(kappa) ** 2 * speed

        c_l = 1 / mpmath.quad(density, [pi, 3 * pi])
        nodes, integrals = [pi], [mpmath.mpf(0)]

        def x_of(th):  # integrate from the nearest theta already done
            i = bisect.bisect(nodes, th) - 1
            if nodes[i] != th:
                val = integrals[i] + mpmath.quad(density, [nodes[i], th], method="gauss-legendre")
                nodes.insert(i + 1, th)
                integrals.insert(i + 1, val)
                i += 1
            return c_l * integrals[i]

        def K(th):
            x = x_of(th)
            return sum(c * mpmath.cos(2 * pi * j * x) for j, c in enumerate(k_coeffs))

        def h1_integrand(th):
            kappa, speed = kappa_speed(th)
            k = K(th)
            return (k * kappa + 2 * k * k) * speed

        h0 = mpmath.quad(lambda th: K(th) * kappa_speed(th)[1], [pi, 3 * pi]) / (2 * pi)
        h1 = mpmath.quad(h1_integrand, [pi, 3 * pi]) / (8 * mpmath.sqrt(pi))
        return float(h0), float(h1)


def test_heat_coefficients_match_mpmath_oracle():
    k_coeffs = [0.3, 1.0, -0.5, 0.25]
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)
    h0, h1 = traces.heat_defect(frame, fn.CosineSeries(k_coeffs))
    o0, o1 = _heat_mpmath([0.0, 0.0, 0.01], k_coeffs)
    assert abs(h0 - o0) <= 1e-13
    assert abs(h1 - o1) <= 1e-13


DISK_X_MAX = 160.0  # spectral cutoff k <= 160, on the unit disk and on radius 0.8


@pytest.fixture(scope="module")
def disk_brackets():
    """Order n, Neumann zero and Dirichlet zero of every bracket with Neumann zero <= 160.

    A root of ``x J_n'(x) = KR J_n(x)`` with KR < 0 lies between the Neumann zero
    j'_{n,m} (where the left side is 0) and the Dirichlet zero j_{n,m}; the first
    n = 0 bracket starts at 0, the Neumann eigenvalue 0. In x = kR the zeros do
    not depend on the radius, so one table serves both radii.
    """
    n_all, lo_all, hi_all = [], [], []
    for n in range(int(DISK_X_MAX) + 1):
        m = int((DISK_X_MAX - n) / np.pi) + 3  # a few more zeros than lie below the cutoff
        lo = special.jnp_zeros(n, m) if n else np.r_[0.0, special.jnp_zeros(0, m - 1)]
        keep = lo <= DISK_X_MAX
        if not keep.any():
            break
        n_all.append(np.full(keep.sum(), n))
        lo_all.append(lo[keep])
        hi_all.append(special.jn_zeros(n, m)[keep])
    return np.concatenate(n_all), np.concatenate(lo_all), np.concatenate(hi_all)


def _robin_disk_roots(n, lo, hi, KR, halvings=12, newton=3):
    """x in (lo, hi) with ``x J_n'(x) / J_n(x) = KR``, for every bracket at once.

    The log-derivative y = x J_n'/J_n falls monotonically from 0 to -inf across a
    bracket. One vectorized bisection shrinks every bracket 2^halvings-fold; Newton
    steps on the Riccati form of Bessel's equation, y' = (n^2 - x^2 - y^2)/x, which
    needs no further Bessel call, then take each root to roundoff.
    """
    def y(x):
        return x * special.jv(n - 1, x) / special.jv(n, x) - n

    a, b = lo.copy(), hi.copy()
    for _ in range(halvings):
        x = 0.5 * (a + b)
        above = y(x) > KR
        a, b = np.where(above, x, a), np.where(above, b, x)
    x = 0.5 * (a + b)
    for _ in range(newton):
        yx = y(x)
        x = np.clip(x - (yx - KR) * x / (n * n - x * x - yx * yx), a, b)
    return x


@pytest.mark.parametrize("coeffs, R", [([], 1.0), ([-0.2], 0.8)])
def test_heat_defect_matches_a_robin_disk_spectrum(disk_brackets, coeffs, R):
    """H0 and H1 are the t^0 and t^(1/2) coefficients of the Robin-minus-Neumann heat
    trace of the disk of radius R with constant K < 0, under d_nu u = K u.

    The eigenvalues k^2 with k <= 160 (all n, multiplicity 2 for n >= 1) give the
    trace difference D(t), fitted on t in [1e-3, 4e-3] by a + b t^(1/2) + c t + d t^(3/2).
    A sweep of windows from [1e-3, 3e-3] to [2e-3, 6e-3] over both radii and all
    three K gave |a - H0| <= 9.6e-7 and |b - H1| <= 6.4e-5, the error growing with
    the window; the tolerances 2e-6 and 1.5e-4 hold that sweep with room. K = -0.5 on
    the unit disk has H1 = 0, and R = 0.8 separates the K kappa term from 2 K^2.
    """
    frame = geometry.build_frame(geometry.build_profile(coeffs), 512)
    assert_allclose(frame.chart.perimeter, 2 * np.pi * R, rtol=1e-12)
    sel = disk_brackets[1] / R <= DISK_X_MAX
    n, lo, hi = (col[sel] for col in disk_brackets)
    Ks = (-0.3, -0.5, -1.0)
    x = _robin_disk_roots(np.tile(n, 3), np.tile(lo, 3), np.tile(hi, 3),
                          np.repeat([K * R for K in Ks], len(n)))
    t = np.linspace(1e-3, 4e-3, 40)
    mult = np.where(n == 0, 1.0, 2.0)
    neumann = np.exp(-np.outer(t, (lo / R) ** 2)) @ mult
    basis = np.column_stack([np.ones_like(t), np.sqrt(t), t, t ** 1.5])
    for K, roots in zip(Ks, x.reshape(3, -1)):
        D = np.exp(-np.outer(t, (roots / R) ** 2)) @ mult - neumann
        a, b, _, _ = np.linalg.lstsq(basis, D, rcond=None)[0]
        H0, H1 = traces.heat_defect(frame, fn.CosineSeries([K]))
        assert abs(a - H0) <= 2e-6, (K, a, H0)
        assert abs(b - H1) <= 1.5e-4, (K, b, H1)


def test_equal_data_difference_identity_circle(circle_frame, rng):
    """Half-period shift preserves both heat coefficients on the circle, and the
    mixed difference integral vanishes."""
    coeffs = rng.standard_normal(7)
    K1 = fn.CosineSeries(coeffs)
    K2 = fn.CosineSeries(coeffs * (-1.0) ** np.arange(7))   # K1(x + 1/2)
    h1 = traces.heat_defect(circle_frame, K1)
    h2 = traces.heat_defect(circle_frame, K2)
    assert_allclose(h1, h2, rtol=0, atol=1e-12)
    speed = circle_frame.profile.speed(circle_frame.chart.theta_grid)
    k1v, k2v = K1(circle_frame.chart.x_grid), K2(circle_frame.chart.x_grid)
    integral = np.mean(
        (k1v - k2v) * (circle_frame.chart.kappa_grid + 2.0 * (k1v + k2v)) * speed
    ) * 2 * np.pi
    assert abs(integral) < 1e-9


def test_equal_data_difference_identity_even_harmonic_domain(rng):
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01, 0.0, 0.002]), 512)
    coeffs = np.concatenate([[0.0], rng.standard_normal(6)])
    K1 = fn.CosineSeries(coeffs)
    K2 = fn.CosineSeries(coeffs * (-1.0) ** np.arange(7))
    h1 = traces.heat_defect(frame, K1)
    h2 = traces.heat_defect(frame, K2)
    assert_allclose(h1, h2, rtol=0, atol=1e-12)
    chart = frame.chart
    speed = chart.profile.speed(chart.theta_grid)
    k1v, k2v = K1(chart.x_grid), K2(chart.x_grid)
    integral = np.mean((k1v - k2v) * (chart.kappa_grid + 2.0 * (k1v + k2v)) * speed) * 2 * np.pi
    assert abs(integral) < 1e-9


def test_trace_data_bundle(tmp_path, circle_frame, circle_orbits):
    """The trace data of one K are its invariant vector, which saves and loads unchanged."""
    orbits = {q: circle_orbits[q] for q in (2, 3)}
    data = traces.build_trace_data(circle_frame, fn.CosineSeries.basis(0), orbits)
    assert data.normalization == "C_gamma=1" and data.q_max == 3
    assert data.d[2] == 2.0
    assert_allclose(data.d[3], 2 * np.sqrt(3), rtol=0, atol=1e-12)  # 3/sin(pi/3)
    assert_allclose(data.H0, 1.0, rtol=0, atol=1e-12)  # (1/2pi) int 1 dsigma
    assert data.provenance == {"orbit_periods": [2, 3]}
    path = tmp_path / "traces.json"
    data.save(path)
    assert fn.InvariantVector.load(path).to_json_dict() == data.to_json_dict()


@pytest.fixture(scope="module")
def deep_orbits():
    """The gappy period set of an N=2048 study: 2..48 plus the dyadic rungs 64..1024."""
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 2048)
    return frame, billiards.compute_orbits(frame, list(range(2, 49)) + [64, 128, 256, 512, 1024])


def _bits(vector):
    """The vector as JSON text: floats by repr, so equal text is equal bits."""
    return json.dumps(vector.to_json_dict(), sort_keys=True)


def test_build_trace_data_is_robin_data_with_its_heat(perturbed_frame, perturbed_orbits,
                                                      deep_orbits, rng):
    """One K, a batch of K and the gappy deep set give, bit for bit, the vectors of
    `robin_data` with the heat coefficients of `heat_defect`."""
    def alone(frame, K, orbits):
        return fn.robin_data(frame, frame.chart, K, orbits, traces.heat_defect(frame, K))

    orbits = {q: perturbed_orbits[q] for q in range(2, 17)}
    K = fn.CosineSeries(rng.standard_normal(7))
    assert _bits(traces.build_trace_data(perturbed_frame, K, orbits)) == _bits(
        alone(perturbed_frame, K, orbits))
    batch = fn.CosineSeries.stack([fn.CosineSeries(rng.standard_normal(n)) for n in (1, 7, 4)])
    got, want = traces.build_trace_data(perturbed_frame, batch, orbits), alone(
        perturbed_frame, batch, orbits)
    assert len(got) == 3 and list(map(_bits, got)) == list(map(_bits, want))

    frame, deep = deep_orbits
    data = traces.build_trace_data(frame, K, deep)
    assert _bits(data) == _bits(alone(frame, K, deep))
    present = sorted(deep)
    assert data.q_max == 1024 and data.provenance == {"orbit_periods": present}
    absent = np.setdiff1d(np.arange(2, 1025), present)
    assert len(absent) == 1023 - 52 and np.all(data.d[absent] == 0.0)
    assert np.all(data.d[present] != 0.0)


def test_grazing_angle_guard(circle_frame, circle_orbits):
    orb = circle_orbits[3]
    hacked = billiards.PeriodicOrbit(
        q=orb.q, theta=orb.theta, x=orb.x, phi=orb.phi, kappa=orb.kappa,
        sin_phi=np.array([1e-12, 1.0, 1.0]), chords=orb.chords, length=orb.length,
        reflection_residual=0.0, gradient_residual=0.0, iterations=0,
    )
    with pytest.raises(SingularAngleError):
        traces.build_trace_data(circle_frame, fn.CosineSeries.basis(0), {3: hacked})
