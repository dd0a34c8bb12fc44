"""Acceptance criteria, one test per criterion with its stated tolerance.

Each test prints a single PASS/FAIL line (run with `pytest -s` or `-v` to
see them); every numeric threshold is pinned here, nothing deferred.
"""

import time

import numpy as np
from scipy.special import zeta

from rigidity_lab import billiards, functionals as fn, geometry, traces
from rigidity_lab import operator as op
from rigidity_lab import reconstruction as rec

from conftest import assemble_delta, riemann_limit_check

LADDER = (8, 16, 32, 64)
GRID_COEFFS = ([], [0.0, 0.0, 0.005], [0.0, 0.0, 0.01])
XS = np.arange(4096) / 4096.0


def _report(name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f} s) {detail}")


def test_c01_circle_closed_forms():
    t0 = time.monotonic()
    frame = geometry.build_frame(geometry.build_profile(()), 512)
    chart = frame.chart
    mu_err = float(np.max(np.abs(frame.chart.mu_grid - np.pi)))
    orbits = billiards.compute_orbits(frame, range(2, 17))
    len_err = max(
        abs(orbits[q].length - 2 * q * np.sin(np.pi / q)) for q in range(2, 17)
    )
    diag_err = 0.0
    cols = np.arange(49)
    for q in range(2, 17):
        orb = orbits[q]
        w = chart.mu_of_theta(orb.theta) / (orb.sin_phi * q * q)
        row = np.cos(2.0 * np.pi * np.outer(cols, orb.x)) @ w
        expect = np.where(cols % q == 0, (np.pi / q) / np.sin(np.pi / q), 0.0)
        diag_err = max(diag_err, float(np.max(np.abs(row - expect))))
    elapsed = time.monotonic() - t0
    ok = mu_err < 1e-9 and len_err < 1e-9 and diag_err < 1e-8 and elapsed < 10.0
    _report("01 circle-closed-forms", ok, elapsed,
            f"mu_err={mu_err:.2e} len_err={len_err:.2e} diag_err={diag_err:.2e}")
    assert mu_err < 1e-9
    assert len_err < 1e-9
    assert diag_err < 1e-8
    assert elapsed < 10.0


def test_c02_contraction_certificate():
    t0 = time.monotonic()
    params = op.GammaSpaceParams(gamma=3.5, J=48, Q=16)
    analytic = op.analytic_contraction_bound(0.0)
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)
    orbits = billiards.compute_orbits(frame, sorted(set(range(2, 17)) | set(LADDER)))
    fit = billiards.fit_alpha_beta(frame.chart, {q: orbits[q] for q in LADDER})
    cert = op.contraction_certificate(
        frame, params, fit=fit,
        full=op.assemble_T(frame.chart, {q: orbits[q] for q in range(2, 17)}, params),
    )
    elapsed = time.monotonic() - t0
    ok = (0.9784 < analytic < 0.9786 and analytic < 1.0
          and cert.numeric_norm_completed < 1.0 and elapsed < 60.0)
    _report("02 contraction-certificate", ok, elapsed,
            f"analytic={analytic:.6f} numeric={cert.numeric_norm_completed:.6f}")
    assert 0.9784 < analytic < 0.9786
    assert analytic < 1.0
    assert cert.numeric_norm_completed < 1.0
    assert elapsed < 60.0


def test_c03_divisor_operator_norm():
    t0 = time.monotonic()
    worst = 0.0
    values = {}
    for gamma in (3.1, 3.5, 3.9):
        params = op.GammaSpaceParams(gamma=gamma, J=48, Q=16)
        res = op.gamma_norm(op.subtract_identity(assemble_delta(params)), gamma)
        values[gamma] = res.tail_completed
        worst = max(worst, abs(res.tail_completed - (zeta(gamma, 1) - 1.0)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and all(v < 0.202057 for v in values.values())
    _report("03 divisor-norm", ok, elapsed, f"max_gap={worst:.2e}")
    assert worst < 1e-10
    assert all(v < 0.202057 for v in values.values())


def test_c04_orbit_asymptotics():
    t0 = time.monotonic()
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)
    orbits = billiards.compute_orbits(frame, LADDER)
    fit = billiards.fit_alpha_beta(frame.chart, orbits)
    elapsed = time.monotonic() - t0
    ok = (fit.alpha_parity_residual < 1e-4 and fit.beta_parity_residual < 1e-4
          and -4.5 < fit.alpha_slope < -3.5 and -4.5 < fit.beta_slope < -3.5
          and elapsed < 120.0)
    _report("04 orbit-asymptotics", ok, elapsed,
            f"parity=({fit.alpha_parity_residual:.1e},{fit.beta_parity_residual:.1e}) "
            f"slopes=({fit.alpha_slope:.2f},{fit.beta_slope:.2f})")
    assert fit.alpha_parity_residual < 1e-4
    assert fit.beta_parity_residual < 1e-4
    assert -4.5 < fit.alpha_slope < -3.5
    assert -4.5 < fit.beta_slope < -3.5
    assert elapsed < 120.0


def test_c05_angle_correction_bound():
    t0 = time.monotonic()
    ok = True
    detail = []
    for coeffs in GRID_COEFFS:
        frame = geometry.build_frame(geometry.build_profile(list(coeffs)), 512)
        chart = frame.chart
        eps = geometry.closeness_report(frame).eps
        margin = np.inf
        for q in range(2, 65):
            sup = float(np.max(np.abs(
                chart.mu_at_x_nodes / q / np.sin(chart.mu_at_x_nodes / q) - 1.0)))
            bound = (np.pi + eps) ** 3 / (12.0 * q * q * np.cos(eps))
            margin = min(margin, bound - sup)
            ok = ok and sup < bound
        detail.append(f"eps={eps:.4f} min_margin={margin:.2e}")
    elapsed = time.monotonic() - t0
    _report("05 angle-correction-bound", ok, elapsed, "; ".join(detail))
    assert ok


def test_c06_large_period_limit():
    t0 = time.monotonic()
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)
    orbits = billiards.compute_orbits(frame, LADDER)
    rng = np.random.default_rng(61)
    slopes = []
    for _ in range(5):
        coeffs = 0.5 * rng.standard_normal(7)
        coeffs[0] = 1.0 + 0.5 * rng.standard_normal()   # nonzero mean mode
        rep = riemann_limit_check(fn.CosineSeries(coeffs), orbits, frame.chart)
        slopes.append(rep.decay_exponent)
    circle = geometry.build_frame(geometry.build_profile(()), 512)
    orb64 = billiards.maximal_marked_orbit(circle, 64)
    gap = fn.script_L_q(fn.CosineSeries.basis(0), orb64, circle.chart) - 1.0
    leading = np.pi**2 / (6.0 * 64.0**2)
    rel = abs(gap - leading) / leading
    elapsed = time.monotonic() - t0
    ok = all(1.7 < s < 2.3 for s in slopes) and rel < 0.05
    _report("06 large-period-limit", ok, elapsed,
            f"slopes={['%.2f' % s for s in slopes]} circle_rel={rel:.2e}")
    assert all(1.7 < s < 2.3 for s in slopes)
    assert rel < 0.05


def test_c07_reconstruction_round_trip():
    t0 = time.monotonic()
    options = rec.SuiteOptions(
        q_max=16, n_random_K=20, k_jmax=6, seed=2024,
        recovery=rec.RecoveryOptions(neumann_order=40),
    )
    summary = rec.rigidity_suite(GRID_COEFFS, None, options)
    elapsed = time.monotonic() - t0
    max_err = summary.max_error
    max_ls = max(r["lstsq_max_diff"] for r in summary.rows)
    ok = (len(summary.rows) == 60 and max_err < 1e-5 and max_ls < 1e-6
          and elapsed < 300.0)
    _report("07 reconstruction-round-trip", ok, elapsed,
            f"rows={len(summary.rows)} max_err={max_err:.2e} lstsq_gap={max_ls:.2e}")
    assert len(summary.rows) == 60
    assert max_err < 1e-5
    assert max_ls < 1e-6
    assert elapsed < 300.0


def test_c08_injectivity_witness():
    t0 = time.monotonic()
    worst = 0.0
    for coeffs in GRID_COEFFS:
        frame = geometry.build_frame(geometry.build_profile(list(coeffs)), 512)
        orbits = billiards.compute_orbits(frame, sorted(set(range(2, 17)) | set(LADDER)))
        data = fn.InvariantVector(d=np.zeros(17), H0=0.0, H1=0.0, q_max=16)
        res = rec.recover_robin(data, frame, frame.chart, orbits, 0.0)
        assert res.certificate.inversion_certified
        worst = max(worst, float(np.max(np.abs(res.K_hat(XS)))))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8
    _report("08 injectivity-witness", ok, elapsed, f"max|K_hat|={worst:.2e}")
    assert worst < 1e-8


def test_c09_heat_identities():
    t0 = time.monotonic()
    circle = geometry.build_frame(geometry.build_profile(()), 512)
    h0, h1 = traces.heat_defect(circle, fn.CosineSeries.basis(0))
    err0 = abs(h0 - 1.0)
    err1 = abs(h1 - 3.0 * np.sqrt(np.pi) / 4.0)
    rng = np.random.default_rng(91)
    worst_identity = 0.0
    for coeffs in ([], [0.0, 0.0, 0.01]):   # domains with the half-shift symmetry
        frame = geometry.build_frame(geometry.build_profile(list(coeffs)), 512)
        speed = frame.profile.speed(frame.chart.theta_grid)
        for _ in range(5):
            c = rng.standard_normal(7)
            K1 = fn.CosineSeries(c)
            K2 = fn.CosineSeries(c * (-1.0) ** np.arange(7))
            ha = traces.heat_defect(frame, K1)
            hb = traces.heat_defect(frame, K2)
            assert abs(ha[0] - hb[0]) < 1e-12 and abs(ha[1] - hb[1]) < 1e-12
            k1v, k2v = K1(frame.chart.x_grid), K2(frame.chart.x_grid)
            integral = np.mean(
                (k1v - k2v) * (frame.chart.kappa_grid + 2.0 * (k1v + k2v)) * speed) * 2 * np.pi
            worst_identity = max(worst_identity, abs(integral))
    elapsed = time.monotonic() - t0
    ok = err0 < 1e-10 and err1 < 1e-10 and worst_identity < 1e-9
    _report("09 heat-identities", ok, elapsed,
            f"H0_err={err0:.2e} H1_err={err1:.2e} identity={worst_identity:.2e}")
    assert err0 < 1e-10
    assert err1 < 1e-10
    assert worst_identity < 1e-9


def test_c10_three_function_truth_table():
    t0 = time.monotonic()
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)
    orbits = billiards.compute_orbits(frame, range(2, 17))
    from test_reconstruction import TRUTH_TABLE, _triple

    agree = 0
    for marked, verdict, pair in TRUTH_TABLE:
        rng = np.random.default_rng(hash(marked) % 2**32)
        base = fn.CosineSeries(np.concatenate([[0.4], 0.3 * rng.standard_normal(5)]))
        shape = fn.CosineSeries(np.concatenate([[1.0], 0.25 * rng.standard_normal(4)]))
        K1, K2, K3 = _triple(base, shape, marked)
        out = rec.triple_disambiguate(K1, K2, K3, frame.chart, orbits)
        if out.verdict == verdict and out.pair == pair:
            agree += 1
    elapsed = time.monotonic() - t0
    ok = agree == len(TRUTH_TABLE) == 12
    _report("10 three-function-replay", ok, elapsed, f"agreement={agree}/12")
    assert agree == 12


def test_c11_two_symmetry_pin():
    t0 = time.monotonic()
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01, 0.0, 0.002]), 512)
    K1 = fn.CosineSeries([0.4, 0.0, 0.25, 0.0, -0.05])
    detected_all = True
    min_gap = np.inf
    for c in (1e-9, 1e-6, 1e-2):
        rep = rec.two_symmetry_pin(frame, K1, K1 + fn.CosineSeries([c]))
        detected_all = detected_all and rep.detected and abs(rep.constraint_gap) > 1e-10
        min_gap = min(min_gap, abs(rep.constraint_gap) / (2.0 * c / rep.sin_phi))
    clean = rec.two_symmetry_pin(frame, K1, K1)
    elapsed = time.monotonic() - t0
    ok = detected_all and not clean.detected and 0.99 < min_gap < 1.01
    _report("11 two-symmetry-pin", ok, elapsed, f"gap_ratio={min_gap:.6f}")
    assert detected_all
    assert not clean.detected
    assert 0.99 < min_gap < 1.01
