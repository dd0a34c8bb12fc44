from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import zeta

from rigidity_lab import billiards, functionals as fn, geometry
from rigidity_lab import operator as op
from rigidity_lab.errors import RigidityError, SingularBlockError

from conftest import assemble_delta, full_orbit_sums

LADDER = (8, 16, 32, 64)
PARAMS = op.GammaSpaceParams(gamma=3.5, J=48, Q=16)


def test_params_validation():
    with pytest.raises(ValueError):
        op.GammaSpaceParams(gamma=3.0)
    with pytest.raises(ValueError):
        op.GammaSpaceParams(gamma=4.0)
    with pytest.raises(ValueError):
        op.GammaSpaceParams(J=1)


# -- Hurwitz zeta -----------------------------------------------------------------

ZETA_S = (3.0,) + tuple(np.linspace(3.0001, 3.9999, 21))
ZETA_A = np.arange(1, 1001)


def test_hurwitz_zeta_against_scipy():
    for s in ZETA_S:
        ref = zeta(s, ZETA_A)
        assert np.max(np.abs(op.hurwitz_zeta(s, ZETA_A) / ref - 1.0)) <= 2e-15
        for a in (1, 2, 3, 10, 49, 1000):
            value = op.hurwitz_zeta(s, a)
            assert isinstance(value, float)
            assert abs(value / ref[a - 1] - 1.0) <= 2e-15


def test_hurwitz_zeta_against_mpmath():
    a_values = np.array([1, 2, 3, 4, 7, 10, 11, 17, 49, 100, 999, 1000])
    with mpmath.workdps(30):
        for s in ZETA_S:
            ref = np.array([float(mpmath.zeta(s, int(a))) for a in a_values])
            assert np.max(np.abs(op.hurwitz_zeta(s, a_values) / ref - 1.0)) <= 2e-15
            for a, r in zip(a_values, ref):
                assert abs(op.hurwitz_zeta(s, int(a)) / r - 1.0) <= 2e-15
        assert op.ZETA3 == float(mpmath.zeta(3))  # correctly rounded


def test_hurwitz_zeta_domain():
    with pytest.raises(ValueError):
        op.hurwitz_zeta(1.0, 1)
    with pytest.raises(ValueError):
        op.hurwitz_zeta(3.5, [1.0, 0.0])


# -- divisor matrix ---------------------------------------------------------------


def test_delta_entries():
    delta = assemble_delta(PARAMS)
    get = lambda q, j: delta.entries[q - 1, j - 1]
    assert get(2, 6) == 1.0 and get(2, 5) == 0.0
    assert np.all(delta.row(1) == 1.0)
    col12 = delta.entries[:, 11]
    hits = {int(q) for q in delta.row_q[col12 == 1.0]}
    assert hits == {1, 2, 3, 4, 6, 12}


@pytest.mark.parametrize("gamma", [3.1, 3.5, 3.9])
def test_delta_minus_identity_norm(gamma):
    dmi = op.subtract_identity(assemble_delta(PARAMS))
    res = op.gamma_norm(dmi, gamma)
    assert abs(res.tail_completed - (zeta(gamma, 1) - 1.0)) < 1e-10
    assert res.tail_completed < 0.202057  # below the gamma -> 3 limit


def test_delta_norm_and_identity_norm():
    assert op.gamma_norm(assemble_delta(PARAMS), 3.5).tail_completed < zeta(3.0, 1)
    rows, cols = np.arange(1, PARAMS.Q + 1), np.arange(1, PARAMS.J + 1)
    identity = op.OperatorMatrix(entries=(rows[:, None] == cols).astype(float), row_q=rows,
                                 col_j=cols, row_tail_coeff=np.zeros(len(rows)))
    assert_allclose(op.gamma_norm(identity, 3.5).tail_completed, 1.0, rtol=0, atol=1e-12)


def test_truncated_norm_monotone_in_J():
    values = []
    for J in (12, 24, 48, 96):
        params = op.GammaSpaceParams(3.5, J, 16)
        dmi = op.subtract_identity(assemble_delta(params))
        res = op.gamma_norm(dmi, 3.5)
        values.append(res.truncated)
        assert res.truncated <= res.tail_completed + 1e-15
    assert all(a < b for a, b in zip(values, values[1:]))


def test_gamma_norm_rejects_label_zero(circle_frame, circle_orbits):
    T = op.assemble_T(circle_frame.chart, {q: circle_orbits[q] for q in range(2, 5)}, PARAMS)
    with pytest.raises(ValueError):
        op.gamma_norm(T, 3.5)


def test_gamma_norm_submultiplicative(rng):
    labels = np.arange(1, 9)
    for _ in range(5):
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        mk = lambda M: op.OperatorMatrix(M, labels, labels)
        na = op.gamma_norm(mk(A), 3.5).truncated
        nb = op.gamma_norm(mk(B), 3.5).truncated
        nab = op.gamma_norm(mk(A @ B), 3.5).truncated
        assert nab <= na * nb * (1 + 1e-12)


# -- assembled operator ------------------------------------------------------------


def test_circle_matrix_closed_form(circle_frame, circle_orbits):
    T = op.assemble_T(circle_frame.chart, {q: circle_orbits[q] for q in range(2, 17)}, PARAMS)
    assert_allclose(T.entries[0], np.eye(49)[0], rtol=0, atol=1e-13)
    assert np.all(T.entries[1] == 1.0)
    for i, q in enumerate(T.row_q):
        if q < 2:
            continue
        expect = np.where(T.col_j % q == 0, (np.pi / q) / np.sin(np.pi / q), 0.0)
        assert_allclose(T.entries[i], expect, rtol=0, atol=1e-10)


def test_matrix_perturbation_scales_linearly(circle_frame, circle_orbits):
    T1 = op.assemble_T(circle_frame.chart, {q: circle_orbits[q] for q in range(2, 17)}, PARAMS)
    diffs = {}
    for a2 in (0.005, 0.01):
        frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, a2]), 512)
        orbits = billiards.compute_orbits(frame, range(2, 17))
        T2 = op.assemble_T(frame.chart, orbits, PARAMS)
        diffs[a2] = np.max(np.abs(T2.entries - T1.entries))
    assert 1.7 < diffs[0.01] / diffs[0.005] < 2.4
    assert diffs[0.01] < 20 * 0.0326  # entrywise O(eps), frame offset ~0.0326


@pytest.mark.parametrize("periods, Q", [((2, 3, 5, 9), 16), (tuple(range(2, 17)) + LADDER, 64)])
def test_batched_assembly_matches_per_row_loop(perturbed_frame, perturbed_orbits, per_row_T,
                                               periods, Q):
    """One pass over all bounces gives the rows of the per-period loop, also
    for a period set with gaps and rows past the ladder's first rungs."""
    orbits = {q: perturbed_orbits[q] for q in periods}
    params = op.GammaSpaceParams(3.5, 48, Q)
    T = op.assemble_T(perturbed_frame.chart, orbits, params)
    expect = per_row_T(perturbed_frame.chart, orbits, params)
    assert np.array_equal(T.row_q, expect.row_q)
    assert np.array_equal(T.col_j, expect.col_j)
    assert_allclose(T.entries, expect.entries, rtol=0, atol=1e-15)


@pytest.mark.parametrize("coeffs, n",
                         [((0.0, 0.0, 0.01), 512), ((0.0, 0.0, 0.01, 0.0, 0.002), 2048)])
def test_assembly_on_the_free_half_matches_full_orbit_sums(coeffs, n):
    """Each row summed on its orbit's free half is the sum over all q bounces of
    cos(2 pi j x) mu / (q^2 sin phi) (`conftest.full_orbit_sums`, the cosines from
    `geometry.harmonics` as in the assembly), entry by entry to 1e-14 of the scale
    for j <= 16. Past that the bound grows by 2 pi j eps (6.7e-14 at j = 48), by which
    the full sum's cosine moves at the mirror's rounded x = 1 - x_k."""
    frame = geometry.build_frame(geometry.build_profile(coeffs), n)
    orbits = billiards.compute_orbits(frame, [*range(2, 17), 31, 48, 64, 255, 256, 1024])
    params = op.GammaSpaceParams(3.5, 48, 1024)
    chart, j = frame.chart, np.arange(49)

    def terms(orb):
        w = chart.mu_of_kappa(orb.kappa) / (orb.sin_phi * orb.q**2)
        return np.stack(geometry.harmonics(2.0 * np.pi * orb.x, len(j))[0]) * w

    expect, scale = full_orbit_sums([orbits[q] for q in sorted(orbits)], terms)
    T = op.assemble_T(chart, orbits, params)
    diff = np.abs(T.entries[2:] - expect) / scale
    assert np.max(diff[:, :17]) <= 1e-14
    assert np.all(diff <= 1e-14 + 2.0 * np.pi * j * np.finfo(float).eps)


def test_rotated_cosine_table_is_as_accurate_as_rounded_phases(perturbed_orbits):
    """On the assembly's bounce points, cos(2 pi j x) for j <= 48 by rotation
    (`geometry.harmonics`) is no further from a 50-digit value than np.cos of
    the rounded phase 2 pi j x."""
    x = np.concatenate([orb.x for orb in perturbed_orbits.values()])
    j = np.arange(49)
    rotated = np.stack(geometry.harmonics(2.0 * np.pi * x, len(j))[0], axis=-1)
    rounded = np.cos(2.0 * np.pi * np.multiply.outer(x, j))
    with mpmath.workdps(50):
        exact = np.array([[mpmath.cos(2 * mpmath.pi * mpmath.mpf(v) * k) for k in j] for v in x],
                         dtype=float)
    assert np.max(np.abs(rotated - exact)) <= np.max(np.abs(rounded - exact))


def test_T_star_R_reads_a_given_assembly(perturbed_frame, perturbed_orbits, perturbed_fit):
    """Rows past Q and columns past J of a larger assembly are left out; a
    narrower one is refused."""
    chart, orbits = perturbed_frame.chart, perturbed_orbits
    own = op.assemble_T_star_R(chart, op.assemble_T(chart, orbits, PARAMS), PARAMS, perturbed_fit)
    wide = op.assemble_T(chart, orbits, op.GammaSpaceParams(3.5, 64, 64))
    read = op.assemble_T_star_R(chart, wide, PARAMS, perturbed_fit)
    assert np.array_equal(read.row_q, own.row_q)
    assert np.array_equal(read.col_j, own.col_j)
    assert_allclose(read.entries, own.entries, rtol=0, atol=1e-15)
    narrow = op.assemble_T(chart, orbits, op.GammaSpaceParams(3.5, 32, 16))
    with pytest.raises(ValueError, match="columns"):
        op.assemble_T_star_R(chart, narrow, PARAMS, perturbed_fit)


def test_certificate_measures_only_the_weight_offset(perturbed_frame, perturbed_orbits,
                                                     perturbed_fit, monkeypatch):
    """The certificate consumes the C0 distance alone, so it asks for no
    derivative norms."""
    orders, report = [], geometry.closeness_report

    def recording(frame, order=None):
        orders.append(order)
        return report(frame, order)

    monkeypatch.setattr(op, "closeness_report", recording)
    full = op.assemble_T(perturbed_frame.chart, perturbed_orbits, PARAMS)
    cert = op.contraction_certificate(perturbed_frame, PARAMS, fit=perturbed_fit, full=full)
    assert orders == [0]
    assert cert.epsilon == report(perturbed_frame).eps


# -- second-order column functional --------------------------------------------------


def test_second_order_functional_circle(circle_frame, circle_fit):
    lss = op.script_L_star_star_table(circle_frame.chart, circle_fit, 16)
    assert_allclose(lss[0], np.pi**2 / 6.0, rtol=0, atol=1e-9)
    assert np.max(np.abs(lss[1:])) < 1e-9


def test_second_order_functional_decay(perturbed_frame, perturbed_fit):
    lss = op.script_L_star_star_table(perturbed_frame.chart, perturbed_fit, 48)
    j = np.arange(1, 49, dtype=float)
    weighted = np.abs(lss[1:]) * j**3
    assert np.max(weighted[8:]) < np.max(weighted[:8])


def test_second_order_functional_extrapolation_oracle(perturbed_frame, perturbed_orbits,
                                                      perturbed_fit):
    """Richardson limit of q^2 L_q(e_j) over the ladder matches the table."""
    chart = perturbed_frame.chart
    lss = op.script_L_star_star_table(chart, perturbed_fit, 8)
    for j in (1, 2, 3, 5):
        vals = {q: q * q * fn.script_L_q(fn.CosineSeries.basis(j), perturbed_orbits[q], chart)
                for q in (32, 64)}
        extrap = (64**2 * vals[64] - 32**2 * vals[32]) / (64**2 - 32**2)
        assert abs(extrap - lss[j]) < 1e-5


# -- certificate ----------------------------------------------------------------------


def _remainder(tsr):
    """The remainder R of the split T_*R = D Delta + R: rows q >= 2 of T_*R minus
    their divisor weight 1 + sigma_0(q) - beta_0/q^2 on the multiples of q."""
    sel = tsr.row_q >= 2
    qs, cols = tsr.row_q[sel], tsr.col_j
    divisor = (cols[None, :] % qs[:, None] == 0) * tsr.extras["weight"][sel, None]
    return op.OperatorMatrix(entries=tsr.entries[sel] - divisor, row_q=qs, col_j=cols)


def test_remainder_constant_calibration():
    """DEFAULT_C_CONSTANT is the largest (weighted remainder norm)/(C0 weight offset)
    over a second-harmonic sweep, rounded up."""
    ratios = []
    for a2 in (0.005, 0.01):
        frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, a2]), 512)
        orbits = billiards.compute_orbits(frame, sorted(set(range(2, 17)) | set(LADDER)))
        fit = billiards.fit_alpha_beta(frame.chart, {q: orbits[q] for q in LADDER})
        full = op.assemble_T(frame.chart, orbits, PARAMS)  # rows q <= 16
        cert = op.contraction_certificate(frame, PARAMS, fit=fit, full=full)
        rem_norm = op.gamma_norm(_remainder(cert.T_star_R), PARAMS.gamma).truncated
        ratios.append(rem_norm / cert.epsilon)
    assert 15.0 < max(ratios) < op.DEFAULT_C_CONSTANT   # default keeps headroom


def test_analytic_bound_frozen_value():
    bound = op.analytic_contraction_bound(0.0)
    assert 0.9784 < bound < 0.9786
    assert bound < 0.979
    with pytest.raises(ValueError):
        op.analytic_contraction_bound(1.6)
    for c in (-10.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="remainder constant"):
            op.analytic_contraction_bound(0.01, c)


def test_certificate_analytic_only_pass_and_fail():
    cert = op.contraction_certificate(None, PARAMS, eps=0.0)
    assert cert.passed and cert.numeric_norm is None
    cert_bad = op.contraction_certificate(None, PARAMS, eps=0.3)
    assert not cert_bad.passed            # graceful, no exception
    assert cert_bad.analytic_bound > 1.0
    # inversion is gated on a measured norm, which an analytic-only certificate lacks
    assert not cert.inversion_certified and not cert_bad.inversion_certified


def test_certificate_with_a_frame_names_what_is_missing(perturbed_frame, perturbed_orbits,
                                                        perturbed_fit):
    full = op.assemble_T(perturbed_frame.chart,
                         {q: perturbed_orbits[q] for q in range(2, 17)}, PARAMS)
    for kwargs, missing in (({}, "full and fit"), ({"fit": perturbed_fit}, "full"),
                            ({"full": full}, "fit")):
        with pytest.raises(ValueError, match=f"needs {missing}$"):
            op.contraction_certificate(perturbed_frame, PARAMS, **kwargs)


def test_certificate_circle_numeric(circle_frame, circle_orbits, circle_fit):
    full = op.assemble_T(circle_frame.chart, {q: circle_orbits[q] for q in range(2, 17)}, PARAMS)
    cert = op.contraction_certificate(circle_frame, PARAMS, fit=circle_fit, full=full)
    assert 0.76 < cert.numeric_norm_completed < 0.78
    assert cert.passed and cert.inversion_certified


def test_certificate_perturbed_numeric(perturbed_frame, perturbed_orbits, perturbed_fit):
    full = op.assemble_T(perturbed_frame.chart,
                         {q: perturbed_orbits[q] for q in range(2, 17)}, PARAMS)
    cert = op.contraction_certificate(perturbed_frame, PARAMS, fit=perturbed_fit, full=full)
    assert cert.numeric_norm_completed < 1.0
    assert cert.inversion_certified
    payload = cert.to_json_dict()
    assert set(payload) == {"gamma", "epsilon", "c_constant", "analytic_bound",
                            "numeric_norm", "numeric_norm_completed", "pass"}


def test_certificate_triangle_inequality(perturbed_frame, perturbed_orbits, perturbed_fit):
    """Numeric norm is controlled by the three-part split, and the divisor-scaled
    part obeys its closed-form bound."""
    frame, chart, fit = perturbed_frame, perturbed_frame.chart, perturbed_fit
    orbits = {q: perturbed_orbits[q] for q in range(2, 17)}
    eps = geometry.closeness_report(frame).eps
    tsr = op.assemble_T_star_R(chart, op.assemble_T(chart, orbits, PARAMS), PARAMS, fit)
    norm_total = op.gamma_norm(op.subtract_identity(tsr), 3.5).tail_completed

    dmi = op.subtract_identity(assemble_delta(PARAMS))
    norm_dmi = op.gamma_norm(dmi, 3.5).tail_completed

    # the divisor matrix scaled per row by sigma_0(q) - beta_0/q^2, zero on row 1
    rows, cols = np.arange(1, PARAMS.Q + 1), np.arange(1, PARAMS.J + 1)
    coeffs = np.concatenate([[0.0], op.divisor_weight(chart, fit, rows[1:]) - 1.0])
    dp = op.OperatorMatrix(entries=(cols % rows[:, None] == 0) * coeffs[:, None],
                           row_q=rows, col_j=cols, row_tail_coeff=np.abs(coeffs))
    norm_dp = op.gamma_norm(dp, 3.5).tail_completed
    c = op.DEFAULT_C_CONSTANT
    dp_bound = ((np.pi + eps) ** 3 / (48 * np.cos(eps)) + c * eps / 4.0) * op.ZETA3
    assert norm_dp <= dp_bound

    rem = _remainder(tsr)
    norm_rem = op.gamma_norm(rem, 3.5).truncated
    assert norm_rem <= c * eps
    assert norm_total <= norm_dmi + norm_dp + norm_rem + 1e-9


# -- inversion -------------------------------------------------------------------------


def _T_star_R(frame, orbits, params, fit):
    """`operator.assemble_T_star_R` on an assembly of ``orbits``."""
    return op.assemble_T_star_R(frame.chart, op.assemble_T(frame.chart, orbits, params),
                                params, fit)


def _square_tsr(frame, orbits, fit, n=12):
    params = op.GammaSpaceParams(3.5, max(48, n), n)
    return op.square_block(_T_star_R(frame, orbits, params, fit), n)


def test_neumann_zero_rhs(circle_frame, circle_orbits, circle_fit):
    A = _square_tsr(circle_frame, circle_orbits, circle_fit)
    w, info = op.neumann_invert(A, np.zeros(12))
    assert w.shape == (12,) and np.all(w == 0.0)


def test_neumann_round_trip_basis(circle_frame, circle_orbits, circle_fit):
    A = _square_tsr(circle_frame, circle_orbits, circle_fit)
    rhs = A.entries[:, 2].copy()     # image of e_3
    w, info = op.neumann_invert(A, rhs, order=60)
    expect = np.zeros(12)
    expect[2] = 1.0
    assert_allclose(w, expect, rtol=0, atol=1e-8)


def test_neumann_ratio_below_certified_bound(circle_frame, circle_orbits, circle_fit):
    full = op.assemble_T(circle_frame.chart, {q: circle_orbits[q] for q in range(2, 17)}, PARAMS)
    cert = op.contraction_certificate(circle_frame, PARAMS, fit=circle_fit, full=full)
    A = _square_tsr(circle_frame, circle_orbits, circle_fit)
    rng = np.random.default_rng(3)
    _, info = op.neumann_invert(A, rng.standard_normal(12), order=40)
    ratios = info.contraction_ratios
    assert np.all(ratios[1:] <= cert.numeric_norm_completed + 1e-9)


def test_lstsq_invert_is_a_direct_solve_and_refuses_a_singular_block(
        perturbed_frame, perturbed_orbits, perturbed_fit, rng):
    """The cross-check solves the square block directly: it agrees with least squares
    on a certified block, and an exactly singular block (which only an overridden
    certificate lets through) is a typed error, not a LinAlgError."""
    A = _square_tsr(perturbed_frame, perturbed_orbits, perturbed_fit)
    rhs = rng.standard_normal((12, 3))
    x = op.lstsq_invert(A, rhs)
    assert x.shape == rhs.shape
    assert_allclose(x, np.linalg.lstsq(A.entries, rhs, rcond=None)[0], rtol=0, atol=1e-13)
    singular = op.OperatorMatrix(entries=np.ones((3, 3)), row_q=np.arange(1, 4),
                                 col_j=np.arange(1, 4))
    with pytest.raises(SingularBlockError, match="square block is singular"):
        op.lstsq_invert(singular, np.ones(3))
    assert issubclass(SingularBlockError, RigidityError)


def test_neumann_agrees_with_lstsq(perturbed_frame, perturbed_orbits, perturbed_fit, rng):
    A = _square_tsr(perturbed_frame, perturbed_orbits, perturbed_fit)
    rhs = rng.standard_normal(12) * 0.1
    w, _ = op.neumann_invert(A, rhs, order=200)
    ls = op.lstsq_invert(A, rhs)
    assert w.shape == ls.shape == rhs.shape
    assert np.max(np.abs(w - ls)) < 1e-6


def _neumann_per_term(A, rhs, order, gamma=3.5):
    """The series one term at a time, each update norm taken as the term is added."""
    n = A.shape[0]
    weights = np.arange(1, n + 1, dtype=float) ** gamma
    B, w = np.eye(n) - A, np.zeros_like(rhs)
    weighted = []
    for _ in range(order):
        w_next = rhs + B @ w
        weighted.append((np.abs(w_next - w).T * weights).max(axis=-1))
        w = w_next
    return w, np.array(weighted)


@pytest.mark.parametrize("m", [None, 5])
def test_neumann_matches_per_term_loop(perturbed_frame, perturbed_orbits, perturbed_fit,
                                       rng, m):
    """Iterates kept in one array, with the norms taken after the loop, are bit-equal
    to the per-term loop, for one system and a batch."""
    order = 80
    A = _square_tsr(perturbed_frame, perturbed_orbits, perturbed_fit)
    rhs = rng.standard_normal(12 if m is None else (12, m))
    w, info = op.neumann_invert(A, rhs, order=order)
    expect, weighted = _neumann_per_term(A.entries, rhs, order)
    assert np.array_equal(w, expect)
    assert type(info.iterations) is int and info.iterations == len(weighted) == order
    assert np.array_equal(info.weighted_update_norms, weighted)


def test_neumann_negative_order_is_refused(circle_frame, circle_orbits, circle_fit):
    A = _square_tsr(circle_frame, circle_orbits, circle_fit)
    with pytest.raises(ValueError, match="Neumann order must be >= 0, got -3"):
        op.neumann_invert(A, np.ones(12), order=-3)


def test_square_block_validation(circle_frame, circle_orbits, circle_fit):
    A = _square_tsr(circle_frame, circle_orbits, circle_fit)
    with pytest.raises(ValueError):
        op.square_block(A, 20)


# -- structural decomposition -----------------------------------------------------------


def _remainder_residuals(rem, u):
    """|R u| for rows u of cosine coefficients 0..k, k <= J: one row per function,
    one column per period q >= 2 (R acts on the columns j = 1..J)."""
    u = np.atleast_2d(u)
    return np.abs(u[:, 1:] @ rem.entries[:, : u.shape[1] - 1].T)


def test_decompose_circle_basis_vector(circle_frame, circle_orbits, circle_fit):
    params = op.GammaSpaceParams(3.5, 48, 16)
    tsr = _T_star_R(circle_frame, {q: circle_orbits[q] for q in range(2, 17)}, params, circle_fit)
    rem = _remainder(tsr)
    assert np.max(_remainder_residuals(rem, fn.CosineSeries.basis(5, 9).coeffs)) < 1e-6
    assert np.max(_remainder_residuals(rem, np.zeros(9))) == 0.0


def test_decompose_remainder_decays_on_ladder(perturbed_frame, perturbed_orbits,
                                              perturbed_fit):
    params = op.GammaSpaceParams(3.5, 48, 64)
    tsr = _T_star_R(perturbed_frame, {q: perturbed_orbits[q] for q in LADDER}, params,
                    perturbed_fit)
    rem = _remainder(tsr)
    rng = np.random.default_rng(5)
    u = np.array([rng.standard_normal(9) for _ in range(4)])
    u[:, 0] = 0.0  # mean-zero
    sup_q = np.max(_remainder_residuals(rem, u), axis=0)
    slope = np.polyfit(np.log(rem.row_q.astype(float)), np.log(sup_q), 1)[0]
    assert -8.0 < slope < -3.5
    assert np.all(np.diff(np.max(np.abs(rem.entries), axis=1)) < 0)


def test_decompose_circle_remainder_is_roundoff(circle_frame, circle_orbits, circle_fit):
    """On the circle T_*R is its divisor part: the remainder is roundoff on every row."""
    tsr = _T_star_R(circle_frame, {q: circle_orbits[q] for q in range(2, 17)}, PARAMS, circle_fit)
    assert np.max(np.abs(_remainder(tsr).entries)) < 1e-10


def test_T_star_R_divisor_weight(perturbed_frame, perturbed_orbits, perturbed_fit):
    """The signed weight is 1 + sigma_0(q) - beta_0/q^2 (1 on row 1); its size
    is the tail coefficient."""
    chart, fit = perturbed_frame.chart, perturbed_fit
    tsr = _T_star_R(perturbed_frame, {q: perturbed_orbits[q] for q in range(2, 17)}, PARAMS, fit)
    expect = [1.0] + [1.0 + fn.sigma_p(chart, q, 0).real - fit.beta0 / q**2
                      for q in range(2, 17)]
    assert_allclose(tsr.extras["weight"], expect, rtol=0, atol=1e-15)
    assert np.array_equal(tsr.row_tail_coeff, np.abs(tsr.extras["weight"]))


@pytest.mark.parametrize("coeffs", [(), (0.0, 0.0, 0.01), (0.0, 0.0, 0.01, 0.0, 0.002)])
def test_angle_correction_mean_against_mpmath(coeffs):
    """The moment series against a 40-digit mean of y/sin y - 1 over the x nodes
    (N=512, q=2..16): within 4e-16 relative (measured 3.1e-16, on the circle), at
    least three times closer than the transform `sigma_p` (measured 6.7-30 times),
    and the weight 1 + sigma_0 within 1.5e-16 of its exact value (measured 1.2e-16)."""
    chart = geometry.build_frame(geometry.build_profile(list(coeffs)), 512).chart
    qs = np.arange(2, 17)
    with mpmath.workdps(40):
        mu = [mpmath.mpf(float(m)) for m in chart.mu_at_x_nodes]
        exact = [mpmath.fsum(y / mpmath.sin(y) - 1 for y in (m / q for m in mu)) / len(mu)
                 for q in qs]

        def rel(values):
            return max(abs((mpmath.mpf(float(v)) - e) / e) for v, e in zip(values, exact))

        moment_err = rel(op.angle_correction_mean(chart, qs))
        table_err = rel(fn.sigma_p(chart, qs, 0).real)
        weight = op.divisor_weight(chart, SimpleNamespace(beta0=0.0), qs)
        weight_err = max(abs(mpmath.mpf(float(w)) - 1 - e) for w, e in zip(weight, exact))
    assert moment_err <= 4e-16
    assert 3.0 * moment_err <= table_err
    assert weight_err <= 1.5e-16


def test_angle_correction_beyond_the_series_reach_is_refused(circle_frame):
    """The series converges for max mu/q < pi and is summed up to 3 pi/4 (sup |mu - pi| =
    pi/2 at q = 2), where it still matches the closed form; past that it refuses by
    name, as at q = 1 on the circle, where mu/q = pi is the pole of y/sin y."""
    with pytest.raises(ValueError, match=r"q=1 has max mu/q = 3.14159, beyond the reach"):
        op.divisor_weight(circle_frame.chart, SimpleNamespace(beta0=0.0), [1, 2])
    edge = SimpleNamespace(mu_at_x_nodes=np.full(512, 1.5 * np.pi))
    y = 0.75 * np.pi
    assert_allclose(op.angle_correction_mean(edge, [2]), y / np.sin(y) - 1.0, rtol=1e-15)
    past = SimpleNamespace(mu_at_x_nodes=np.append(np.full(511, np.pi), 1.5 * np.pi * (1 + 1e-15)))
    with pytest.raises(ValueError, match=r"q=2 has max mu/q = 2.35619"):
        op.angle_correction_mean(past, [2, 3])
    assert op.angle_correction_mean(edge, []).shape == (0,)


def test_T_star_R_marked_row_is_divisor_row(perturbed_frame, perturbed_orbits,
                                            perturbed_fit):
    tsr = _T_star_R(perturbed_frame, {q: perturbed_orbits[q] for q in range(2, 17)}, PARAMS,
                    perturbed_fit)
    assert tsr.row_q[0] == 1
    assert np.all(tsr.entries[0] == 1.0)
    assert tsr.row_tail_coeff[0] == 1.0


def test_kernel_margin_bounded_away_from_zero(perturbed_frame):
    """Smallest singular value on the admissible subspace, square truncations."""
    threshold = 0.05
    values = []
    for n in (8, 12, 16):
        orbits = billiards.compute_orbits(perturbed_frame, range(2, n + 1))
        T = op.assemble_T(perturbed_frame.chart, orbits, op.GammaSpaceParams(3.5, n, n))
        A = T.entries[T.row_q >= 2][:, T.col_j >= 1]
        m = A.shape[1]
        basis = np.eye(m, m - 1) - np.eye(m, m - 1, k=-1)  # columns e_i - e_(i+1)
        values.append(np.linalg.svd(A @ basis, compute_uv=False)[-1])
    assert all(v > threshold for v in values)
