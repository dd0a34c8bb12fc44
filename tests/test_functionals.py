import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rigidity_lab import billiards, traces
from rigidity_lab import functionals as fn
from rigidity_lab import geometry
from rigidity_lab.errors import InsufficientLadderError, SingularAngleError

from conftest import full_orbit_sums, riemann_limit_check, script_L_0

LADDER = (8, 16, 32, 64)


# -- cosine series ---------------------------------------------------------------


def test_series_evaluation_and_marked_value():
    u = fn.CosineSeries([0.5, -1.0, 2.0])
    assert_allclose(u.at_zero, 1.5, rtol=0, atol=1e-15)
    x = np.array([0.0, 0.25, 0.5])
    expect = 0.5 - np.cos(2 * np.pi * x) + 2 * np.cos(4 * np.pi * x)
    assert_allclose(u(x), expect, rtol=0, atol=1e-14)


def test_series_algebra():
    u = fn.CosineSeries([1.0, 2.0])
    v = fn.CosineSeries([0.0, -2.0, 5.0])
    assert_allclose((u + v).coeffs, [1.0, 0.0, 5.0], atol=1e-15)
    assert_allclose((u - v).coeffs, [1.0, 4.0, -5.0], atol=1e-15)
    assert_allclose((3.0 * u).coeffs, [3.0, 6.0], atol=1e-15)
    assert_allclose((-u).coeffs, [-1.0, -2.0], atol=1e-15)


def test_series_projection_roundtrip(rng):
    coeffs = rng.standard_normal(9)
    u = fn.CosineSeries(coeffs)
    v = fn.cosine_coeffs(u(np.arange(256) / 256), 8)
    assert_allclose(v, coeffs, rtol=0, atol=1e-13)


def test_projection_alias_guard():
    with pytest.raises(ValueError, match="anti-alias"):
        fn.cosine_coeffs(np.arange(256) / 256, 100)


def _grid_direct_sum(coeffs, n):
    """Cosine sum at x = k/n with the phase reduced exactly: j k mod n in integers."""
    j = np.arange(len(coeffs))
    rows = np.array_split(np.arange(n), max(1, n // 256))  # bounded memory at n = 4096
    return np.concatenate([np.cos(2.0 * np.pi * (np.outer(k, j) % n) / n) @ coeffs for k in rows])


@settings(max_examples=80, deadline=None)
@given(st.integers(128, 2048), st.data())
def test_on_grid_matches_direct_sum_and_inverts_cosine_coeffs(half_n, data):
    n = 2 * half_n
    size = data.draw(st.integers(1, half_n), label="size")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    c0 = data.draw(st.floats(-10.0, 10.0), label="c0")
    decay = data.draw(st.sampled_from([0.0, 0.01, 0.2]), label="decay")
    j = np.arange(size)
    coeffs = np.random.default_rng(seed).standard_normal(size) * np.exp(-decay * j)
    coeffs[0] = c0
    total = np.sum(np.abs(coeffs))
    vals = fn.CosineSeries(coeffs).on_grid(n)
    assert vals.shape == (n,)
    assert np.max(np.abs(vals - _grid_direct_sum(coeffs, n))) <= 1e-13 * total
    # __call__ rounds each phase 2 pi j x to about 2 eps of itself
    call_tol = 1e-13 * total + 4.0 * np.pi * np.finfo(float).eps * np.sum(j * np.abs(coeffs))
    direct = np.concatenate([fn.CosineSeries(coeffs)(x)
                             for x in np.array_split(np.arange(n) / n, n // 256)])
    assert np.max(np.abs(vals - direct)) <= call_tol
    jmax = min(size - 1, n // 4)
    assert np.max(np.abs(fn.cosine_coeffs(vals, jmax) - coeffs[: jmax + 1])) <= 1e-13 * total


@pytest.mark.parametrize("n", [256, 258, 255])
def test_on_grid_nyquist_and_aliased_frequencies(n, rng):
    """Frequencies at and past n/2 take the value they alias to on the grid."""
    for size in (n // 2 + 1, 3 * n + 5):
        coeffs = rng.standard_normal(size)
        vals = fn.CosineSeries(coeffs).on_grid(n)
        assert_allclose(vals, _grid_direct_sum(coeffs, n), rtol=0,
                        atol=1e-13 * np.sum(np.abs(coeffs)))


def test_cosine_coeffs_alias_guard():
    with pytest.raises(ValueError, match="anti-alias"):
        fn.cosine_coeffs(np.ones(256), 65)


def test_series_from_arclength_circle(circle_frame):
    chart = circle_frame.chart
    u = fn.cosine_coeffs(np.cos(chart.sigma_of_theta(chart.theta_at_x_nodes)), 4)
    assert_allclose(u, [0.0, 1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)


# -- plain bounce sums -------------------------------------------------------------


@pytest.fixture(scope="module")
def a5_orbits():
    frame = geometry.build_frame(geometry.build_profile([0.0] * 5 + [0.005]), 512)
    return frame, billiards.compute_orbits(frame, range(2, 17))


@pytest.mark.parametrize("domain", ["circle", "a2=0.01", "a5=0.005"])
def test_bounce_sums_match_per_orbit_loop(domain, request, a5_orbits, rng):
    if domain == "a5=0.005":
        frame, orbits = a5_orbits
    else:
        name = "circle" if domain == "circle" else "perturbed"
        frame = request.getfixturevalue(f"{name}_frame")
        orbits = request.getfixturevalue(f"{name}_orbits")
    qs = sorted(orbits)
    K = fn.CosineSeries(rng.standard_normal(7))
    loop = np.array([np.sum(K(orbits[q].x) / orbits[q].sin_phi) for q in qs])
    scale = np.array([np.sum(np.abs(K(orbits[q].x) / orbits[q].sin_phi)) for q in qs])
    batched = fn.bounce_sums(K, [orbits[q] for q in qs])
    assert np.max(np.abs(batched - loop) / scale) <= 1e-14
    # every caller takes its sums from the helper
    deep = {q: orbits[q] for q in qs if q <= 16}
    data = fn.robin_data(frame, frame.chart, K, deep, (0.0, 0.0))
    assert np.array_equal(data.d[sorted(deep)], fn.bounce_sums(K, [deep[q] for q in sorted(deep)]))
    d = traces.build_trace_data(frame, K, orbits).d
    assert np.max(np.abs(d[qs] - loop) / scale) <= 1e-14
    assert fn.bounce_sums(K, [orbits[qs[-1]]])[0] == pytest.approx(loop[-1], rel=1e-14)


def test_bounce_sums_on_the_free_half_match_full_orbit_sums(perturbed_frame, perturbed_orbits,
                                                            a5_orbits, rng):
    """Summed on the free halves, the bounce sums of a batch of cosine series are the
    sums over all bounces (`conftest.full_orbit_sums`) to 1e-14 of their scale, odd
    and even periods and the ladder up to q = 1024 included."""
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01, 0.0, 0.002]), 2048)
    deep = billiards.compute_orbits(frame, [2, 3, 17, 48, 255, 256, 1024])
    K = fn.CosineSeries(rng.standard_normal((3, 9)))
    for orbits in (perturbed_orbits, a5_orbits[1], deep):
        orbs = [orbits[q] for q in sorted(orbits)]
        expect, scale = full_orbit_sums(orbs, lambda orb: K(orb.x) / orb.sin_phi)
        assert np.max(np.abs(fn.bounce_sums(K, orbs) - expect.T) / scale.T) <= 1e-14


def test_bounce_sums_grazing_guard_names_the_period(circle_orbits):
    orb = circle_orbits[3]
    hacked = billiards.PeriodicOrbit(
        q=3, theta=orb.theta, x=orb.x, phi=orb.phi, kappa=orb.kappa,
        sin_phi=np.array([1.0, 1e-12, 1.0]), chords=orb.chords, length=orb.length,
        reflection_residual=0.0, gradient_residual=0.0, iterations=0,
    )
    with pytest.raises(SingularAngleError, match="q=3"):
        fn.bounce_sums(fn.CosineSeries.basis(0), [circle_orbits[2], hacked, circle_orbits[4]])
    assert fn.bounce_sums(fn.CosineSeries.basis(0), []).shape == (0,)


def _ell_0(u, frame):
    """Boundary integral of u against the radius of curvature d sigma."""
    chart = frame.chart
    return chart.integrate_dsigma(u(chart.x_nodes) / chart.kappa_at_x_nodes)


def test_ell_q_circle_values(circle_orbits):
    """The period-q bounce sum on the circle: q/sin(pi/q) for e_0, zero for e_1."""
    e0, e1 = fn.CosineSeries.basis(0), fn.CosineSeries.basis(1)
    assert_allclose(fn.bounce_sums(e0, [circle_orbits[4]])[0], 4.0 * np.sqrt(2.0),
                    rtol=0, atol=1e-12)
    assert_allclose(fn.bounce_sums(e1, [circle_orbits[4]])[0], 0.0, rtol=0, atol=1e-12)


def test_ell_0_and_ell_1_circle(circle_frame):
    e0, e1 = fn.CosineSeries.basis(0), fn.CosineSeries.basis(1)
    assert_allclose(_ell_0(e0, circle_frame), 2.0 * np.pi, rtol=0, atol=1e-12)
    assert_allclose(_ell_0(e1, circle_frame), 0.0, rtol=0, atol=1e-12)
    assert_allclose(circle_frame.chart.mu_at_marked * e0(0.0), np.pi, rtol=0, atol=1e-12)


def test_ell_q_high_mode_near_circle(perturbed_orbits):
    """At j = q the bounce sum sits near its circle value q/sin(pi/q)."""
    val = fn.bounce_sums(fn.CosineSeries.basis(8), [perturbed_orbits[8]])[0]
    assert abs(val - 8.0 / np.sin(np.pi / 8.0)) < 0.1


def test_ell_0_two_resolutions_agree():
    profile = geometry.build_profile([0.0, 0.0, 0.01])
    e0 = fn.CosineSeries.basis(0)
    vals = [_ell_0(e0, geometry.build_frame(profile, n)) for n in (512, 1024)]
    assert abs(vals[0] - vals[1]) < 1e-9


# -- normalized bounce sums ---------------------------------------------------------


def test_script_L_q_circle_frozen_values(circle_frame, circle_orbits):
    chart = circle_frame.chart
    assert_allclose(
        fn.script_L_q(fn.CosineSeries.basis(2), circle_orbits[2], chart),
        1.5707963267948966, rtol=0, atol=1e-12)          # (pi/2)/sin(pi/2)
    assert_allclose(
        fn.script_L_q(fn.CosineSeries.basis(1), circle_orbits[3], chart),
        0.0, rtol=0, atol=1e-12)
    assert_allclose(
        fn.script_L_q(fn.CosineSeries.basis(0), circle_orbits[3], chart),
        1.2091995761561452, rtol=0, atol=1e-12)          # (pi/3)/sin(pi/3)


def test_circle_diagonalization(circle_frame, circle_orbits):
    chart = circle_frame.chart
    for q in range(2, 9):
        vals = np.array([
            fn.script_L_q(fn.CosineSeries.basis(j, 25), circle_orbits[q], chart)
            for j in range(25)
        ])
        expect = np.where(np.arange(25) % q == 0, (np.pi / q) / np.sin(np.pi / q), 0.0)
        assert_allclose(vals, expect, rtol=0, atol=1e-10)


def test_script_L_0_and_1():
    e0 = fn.CosineSeries.basis(0)
    e5 = fn.CosineSeries.basis(5)
    assert_allclose(script_L_0(e0), 1.0, rtol=0, atol=1e-14)
    assert_allclose(script_L_0(e5), 0.0, rtol=0, atol=1e-14)
    assert_allclose(e0(0.0), 1.0, rtol=0, atol=1e-15)
    assert_allclose(e5(0.0), 1.0, rtol=0, atol=1e-15)
    assert_allclose(fn.CosineSeries([0.0, -1.0, 1.0])(0.0), 0.0, rtol=0, atol=1e-15)


def test_functional_linearity(circle_frame, perturbed_frame, perturbed_orbits, rng):
    chart = perturbed_frame.chart
    orb = perturbed_orbits[5]
    a, b = rng.standard_normal(2)
    u = fn.CosineSeries(rng.standard_normal(7))
    v = fn.CosineSeries(rng.standard_normal(7))
    comb = a * u + b * v
    for func in (
        lambda w: fn.bounce_sums(w, [orb])[0],
        lambda w: _ell_0(w, perturbed_frame),
        lambda w: chart.mu_at_marked * w(0.0),
        lambda w: fn.script_L_q(w, orb, chart),
        script_L_0,
        lambda w: w(0.0),
    ):
        assert abs(func(comb) - (a * func(u) + b * func(v))) < 1e-12


# -- angle-correction function -------------------------------------------------------


def _sigma_table(chart, q, pmax):
    """sigma_p(q) for p = 0..pmax from one transform of S_q."""
    return fn._fourier_coeffs(fn._s_q_node_values(chart, q), pmax)


def test_S_q_circle_is_constant(circle_frame):
    chart = circle_frame.chart
    assert_allclose(fn._s_q_node_values(chart, 2), np.pi / 2 - 1.0, rtol=0, atol=1e-12)


def test_S_q_nonnegative(perturbed_frame):
    chart = perturbed_frame.chart
    for q in (2, 3, 8, 64):
        assert np.min(fn._s_q_node_values(chart, q)) >= 0.0


def test_S_q_supnorm_bound(perturbed_frame):
    chart = perturbed_frame.chart
    eps = geometry.closeness_report(perturbed_frame).eps
    for q in (2, 3, 8, 16, 64):
        sup = float(np.max(np.abs(fn._s_q_node_values(chart, q))))
        bound = (np.pi + eps) ** 3 / (12.0 * q * q * np.cos(eps))
        assert sup < bound


def test_sigma_p_circle(circle_frame):
    chart = circle_frame.chart
    assert_allclose(fn.sigma_p(chart, 2, 0).real, np.pi / 2 - 1.0, rtol=0, atol=1e-12)
    for p in (1, 2, 5):
        assert abs(fn.sigma_p(chart, 2, p)) < 1e-12


def test_sigma_p_real_for_even_weight(perturbed_frame):
    chart = perturbed_frame.chart
    for q in (2, 8):
        spec = _sigma_table(chart, q, 16)
        assert np.max(np.abs(spec.imag)) < 1e-10


def test_tilde_sigma_circle(circle_frame):
    chart = circle_frame.chart
    ts = fn.tilde_sigma_table(chart, 2)
    assert_allclose(ts[0].real, np.pi**2 / 6.0, rtol=0, atol=1e-12)
    assert abs(ts[2]) < 1e-12


def test_sigma_j_limit_rate(perturbed_frame):
    """q^2 sigma_j(q) approaches its limit at second order, faster for higher j."""
    chart = perturbed_frame.chart
    ts = fn.tilde_sigma_table(chart, 6).real
    gaps = {}
    for q in (16, 32, 64):
        tab = _sigma_table(chart, q, 6).real
        gaps[q] = abs(q * q * tab[2] - ts[2])
    assert 3.0 < gaps[16] / gaps[32] < 5.5
    assert 3.0 < gaps[32] / gaps[64] < 5.5
    # frequency decay at fixed q
    tab = _sigma_table(chart, 16, 6).real
    assert abs(16**2 * tab[4] - ts[4]) < abs(16**2 * tab[2] - ts[2])


def test_sigma_p_frequency_decay_bound(perturbed_frame):
    """p^4 q^2 |sigma_p| stays bounded by its low-frequency values."""
    chart = perturbed_frame.chart
    p = np.arange(1, 33)
    for q in (8, 16):
        spec = np.abs(_sigma_table(chart, q, 32)[1:])
        weighted = spec * p**4.0 * q**2
        assert np.max(weighted[8:]) <= np.max(weighted[:8])


# -- large-q limit -------------------------------------------------------------------


def test_riemann_limit_circle_closed_form(circle_frame, circle_orbits):
    chart = circle_frame.chart
    e0 = fn.CosineSeries.basis(0)
    ladder = {q: circle_orbits[q] for q in LADDER}
    rep = riemann_limit_check(e0, ladder, chart)
    for q in LADDER:
        expect = (np.pi / q) / np.sin(np.pi / q) - 1.0
        assert_allclose(rep.diffs[q], expect, rtol=0, atol=1e-12)
    assert 1.7 < rep.decay_exponent < 2.3


def test_riemann_limit_mean_zero_mode_is_exact(circle_frame, circle_orbits):
    chart = circle_frame.chart
    e1 = fn.CosineSeries.basis(1)
    ladder = {q: circle_orbits[q] for q in LADDER}
    rep = riemann_limit_check(e1, ladder, chart)
    assert all(d < 1e-12 for d in rep.diffs.values())


def test_riemann_limit_needs_ladder(circle_frame, circle_orbits):
    with pytest.raises(InsufficientLadderError):
        riemann_limit_check(
            fn.CosineSeries.basis(0), {8: circle_orbits[8]}, circle_frame.chart
        )


# -- invariant vector ------------------------------------------------------------------


def test_robin_data_zero_function(circle_frame, circle_orbits):
    """Also for a series given no coefficients, as ``--robin-coeffs ""`` gives it."""
    orbits = {q: circle_orbits[q] for q in range(2, 9)}
    for zero in (fn.CosineSeries.zero(), fn.CosineSeries([])):
        data = fn.robin_data(circle_frame, circle_frame.chart, zero, orbits, (0.0, 0.0))
        assert np.all(data.d == 0.0)


def test_robin_data_circle_values(circle_frame, circle_orbits):
    chart = circle_frame.chart
    orbits = {2: circle_orbits[2]}
    d_e2 = fn.robin_data(circle_frame, chart, fn.CosineSeries.basis(2), orbits, (0, 0))
    assert_allclose(d_e2.d[2], 2.0, rtol=0, atol=1e-12)
    assert_allclose(d_e2.d[1], 1.0, rtol=0, atol=1e-15)      # marked value
    assert_allclose(d_e2.d[0], 0.0, rtol=0, atol=1e-14)      # mean of e2/pi
    d_e1 = fn.robin_data(circle_frame, chart, fn.CosineSeries.basis(1), orbits, (0, 0))
    assert_allclose(d_e1.d[2], 0.0, rtol=0, atol=1e-12)
    d_e0 = fn.robin_data(circle_frame, chart, fn.CosineSeries.basis(0), orbits, (0, 0))
    assert_allclose(d_e0.d[0], 1.0 / np.pi, rtol=0, atol=1e-12)


def test_robin_data_batch_matches_single(perturbed_frame, perturbed_orbits, rng):
    """A batch of K (of unequal lengths) is synthesized in one pass, as each K alone."""
    chart, orbits = perturbed_frame.chart, {q: perturbed_orbits[q] for q in range(2, 17)}
    Ks = [fn.CosineSeries(rng.standard_normal(size)) for size in (1, 7, 4, 12)]
    batch = fn.CosineSeries.stack(Ks)
    heat = traces.heat_defect(perturbed_frame, batch)
    vectors = fn.robin_data(perturbed_frame, chart, batch, orbits, heat)
    assert len(vectors) == len(Ks)
    for i, (K, got) in enumerate(zip(Ks, vectors)):
        h0, h1 = traces.heat_defect(perturbed_frame, K)
        alone = fn.robin_data(perturbed_frame, chart, K, orbits, (h0, h1))
        assert (heat[0][i], heat[1][i]) == (h0, h1)
        assert (got.H0, got.H1, got.q_max) == (alone.H0, alone.H1, alone.q_max)
        assert np.max(np.abs(got.d - alone.d)) <= 1e-14 * np.max(np.abs(alone.d))


def test_invariant_vector_json_roundtrip(tmp_path, circle_frame, circle_orbits):
    orbits = {q: circle_orbits[q] for q in range(2, 6)}
    data = fn.robin_data(circle_frame, circle_frame.chart,
                         fn.CosineSeries([0.0, -1.0, 1.0]), orbits, (0.25, 0.5))
    path = tmp_path / "iv.json"
    data.save(path)
    loaded = fn.InvariantVector.load(path)
    assert_allclose(loaded.d, data.d, rtol=0, atol=0)
    assert loaded.H0 == data.H0 and loaded.H1 == data.H1
    assert loaded.normalization == "C_gamma=1"
    assert loaded.q_max == data.q_max
