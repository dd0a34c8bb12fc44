import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rigidity_lab import billiards, functionals as fn, geometry, traces
from rigidity_lab import operator as op
from rigidity_lab import reconstruction as rec
from rigidity_lab.errors import (
    NotContractiveError,
    ResidualTooLargeError,
    SymmetryViolationError,
)

XS = np.arange(2048) / 2048.0


def _forward(frame, orbits, K):
    data_orbits = {q: orbits[q] for q in range(2, 17)}
    heat = traces.heat_defect(frame, K)
    return fn.robin_data(frame, frame.chart, K, data_orbits, heat)


def test_zero_data_recovers_zero(circle_frame, circle_orbits):
    data = fn.InvariantVector(d=np.zeros(17), H0=0.0, H1=0.0, q_max=16)
    res = rec.recover_robin(data, circle_frame, circle_frame.chart, circle_orbits, 0.0)
    assert np.max(np.abs(res.K_hat.coeffs)) < 1e-12
    assert res.solve_residual == 0.0


def test_circle_round_trip_named_function(circle_frame, circle_orbits):
    K = fn.CosineSeries([0.0, -1.0, 1.0])
    data = _forward(circle_frame, circle_orbits, K)
    res = rec.recover_robin(data, circle_frame, circle_frame.chart, circle_orbits,
                            K.at_zero)
    expect = np.zeros(len(res.K_hat.coeffs))
    expect[1], expect[2] = -1.0, 1.0
    assert_allclose(res.K_hat.coeffs, expect, rtol=0, atol=1e-6)
    assert res.lstsq_max_diff < 1e-6
    assert res.holdout_residual < 1e-9


def test_perturbed_round_trip_random_functions(perturbed_frame, perturbed_orbits, rng):
    for _ in range(3):
        K = rec.draw_random_K(rng, 6)
        data = _forward(perturbed_frame, perturbed_orbits, K)
        res = rec.recover_robin(data, perturbed_frame, perturbed_frame.chart,
                                perturbed_orbits, K.at_zero)
        assert np.max(np.abs(res.K_hat(XS) - K(XS))) < 1e-5
        assert res.lstsq_max_diff < 1e-6


def test_wrong_marked_value_flagged(perturbed_frame, perturbed_orbits, rng):
    K = rec.draw_random_K(rng, 6)
    data = _forward(perturbed_frame, perturbed_orbits, K)
    with pytest.raises(ResidualTooLargeError):
        rec.recover_robin(data, perturbed_frame, perturbed_frame.chart,
                          perturbed_orbits, K.at_zero + 1.0)
    res = rec.recover_robin(data, perturbed_frame, perturbed_frame.chart,
                            perturbed_orbits, K.at_zero + 1.0,
                            rec.RecoveryOptions(residual_tol=np.inf))
    assert res.data_marked_gap > 0.999
    assert res.heat_residual[1] > 1e-3     # quadratic heat coefficient disagrees
    assert abs(res.K_hat.at_zero - (K.at_zero + 1.0)) < 1e-6


def test_recovery_equivariance(perturbed_frame, perturbed_orbits, rng):
    """Adding a known function's forward image to the data shifts the output."""
    K = rec.draw_random_K(rng, 6)
    G = rec.draw_random_K(rng, 5)
    dK = _forward(perturbed_frame, perturbed_orbits, K)
    dG = _forward(perturbed_frame, perturbed_orbits, G)
    both = fn.InvariantVector(d=dK.d + dG.d, H0=0.0, H1=0.0, q_max=16)
    opt = rec.RecoveryOptions(residual_tol=np.inf)
    res_sum = rec.recover_robin(both, perturbed_frame, perturbed_frame.chart,
                                perturbed_orbits, 0.0, opt)
    res_k = rec.recover_robin(dK, perturbed_frame, perturbed_frame.chart,
                              perturbed_orbits, 0.0, opt)
    shift = res_sum.K_hat(XS) - res_k.K_hat(XS)
    assert np.max(np.abs(shift - G(XS))) < 1e-5


def test_neumann_order_controls_error(circle_frame, circle_orbits):
    K = fn.CosineSeries([0.0, 0.5, -1.0, 0.5])
    data = _forward(circle_frame, circle_orbits, K)
    errs = []
    for order in (5, 10, 20, 40):
        res = rec.recover_robin(
            data, circle_frame, circle_frame.chart, circle_orbits, K.at_zero,
            rec.RecoveryOptions(neumann_order=order, residual_tol=np.inf))
        errs.append(np.max(np.abs(res.K_hat(XS) - K(XS))))
    assert errs[-1] <= errs[0]
    assert errs[-1] < 1e-6


def test_limit_entry_extrapolation(perturbed_frame, perturbed_orbits, rng):
    """d_q/q^2 tends to the limit entry d_0: the Richardson limit of the two deepest
    rows is close to it, and recovery from data carrying that estimate still works."""
    K = rec.draw_random_K(rng, 6)
    data = _forward(perturbed_frame, perturbed_orbits, K)
    est = (data.d[16] - data.d[15]) / (16**2 - 15**2)  # d_q = d_0 q^2 + c + O(q^-2)
    assert abs(est - data.d[0]) < 1e-5
    estimated = dataclasses.replace(data, d=np.concatenate([[est], data.d[1:]]))
    res = rec.recover_robin(
        estimated, perturbed_frame, perturbed_frame.chart, perturbed_orbits, K.at_zero,
        rec.RecoveryOptions(residual_tol=np.inf))
    assert np.max(np.abs(res.K_hat(XS) - K(XS))) < 1e-4


# -- recovery plan ------------------------------------------------------------------


@pytest.fixture(scope="module")
def perturbed_plan(perturbed_frame, perturbed_orbits):
    return rec.RecoveryPlan(perturbed_frame, perturbed_frame.chart, perturbed_orbits, 16)


def _assert_same_result(a, b):
    for f in dataclasses.fields(rec.RecoveryResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, fn.CosineSeries):
            assert np.array_equal(x.coeffs, y.coeffs), f.name
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        elif f.name == "certificate":
            assert x.to_json_dict() == y.to_json_dict()
        else:
            assert x == y, f.name


def test_plan_solve_matches_recover_robin(perturbed_frame, perturbed_orbits,
                                          perturbed_plan, rng):
    for _ in range(3):
        K = rec.draw_random_K(rng, 6)
        data = _forward(perturbed_frame, perturbed_orbits, K)
        one_shot = rec.recover_robin(data, perturbed_frame, perturbed_frame.chart,
                                     perturbed_orbits, K.at_zero)
        _assert_same_result(perturbed_plan.solve(data, K.at_zero), one_shot)


def test_plan_certificate_gate_at_build():
    """a2 = 0.02 has numeric norm about 1.44: refused at build unless overridden."""
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.02]), 512)
    orbits = billiards.compute_orbits(frame, sorted(set(range(2, 17)) | {32, 64}))
    with pytest.raises(NotContractiveError, match="no override"):
        rec.RecoveryPlan(frame, frame.chart, orbits, 16)
    plan = rec.RecoveryPlan(frame, frame.chart, orbits, 16,
                            rec.RecoveryOptions(override_certificate=True))
    assert plan.certificate.numeric_norm_completed > 1.0
    K = fn.CosineSeries([0.0, 0.2, -0.1])
    res = plan.solve(_forward(frame, orbits, K), K.at_zero)
    assert np.max(np.abs(res.K_hat(XS) - K(XS))) < 1e-6


def test_plan_rejects_depth_mismatch_and_non_finite_k0(perturbed_plan):
    with pytest.raises(ValueError, match="q_max"):
        perturbed_plan.solve(fn.InvariantVector(d=np.zeros(13), H0=0.0, H1=0.0, q_max=12),
                             0.0)
    data = fn.InvariantVector(d=np.zeros(17), H0=0.0, H1=0.0, q_max=16)
    for k0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            perturbed_plan.solve(data, k0)


def test_nan_residual_fails_strict_gate(perturbed_frame, perturbed_orbits, perturbed_plan):
    """A NaN fails the gate at the default tolerance and at residual_tol=inf."""
    data = fn.InvariantVector(d=np.zeros(17), H0=0.0, H1=0.0, q_max=16)
    data.d[16] = np.nan       # past construction-time validation, e.g. mutated in place
    loose = rec.RecoveryPlan(perturbed_frame, perturbed_frame.chart, perturbed_orbits, 16,
                             rec.RecoveryOptions(residual_tol=np.inf))
    for plan in (perturbed_plan, loose):
        with pytest.raises(ResidualTooLargeError, match="held-out row residual nan"):
            plan.solve(data, 0.0)


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
def test_plan_refuses_a_tolerance_no_residual_meets(perturbed_frame, perturbed_orbits, tol,
                                                   monkeypatch):
    """A NaN or negative residual tolerance is refused by name before any assembly."""
    assembled = _count_calls(monkeypatch, op, "assemble_T")
    with pytest.raises(ValueError, match="residual tolerance must be >= 0"):
        rec.RecoveryPlan(perturbed_frame, perturbed_frame.chart, perturbed_orbits, 16,
                         rec.RecoveryOptions(residual_tol=tol))
    assert assembled == []


def test_gappy_vector_is_refused_where_the_plan_reads_a_gap(perturbed_frame, perturbed_orbits,
                                                            perturbed_plan, rng):
    """A vector synthesized on 2..9 plus 16 reads 0 at 10..15: the plan, which reads
    2..12 and the held-out rows 13..16, names those periods; a one-shot recovery on
    the same orbits holds out only 16 and succeeds."""
    K = rec.draw_random_K(rng, 6)
    orbits = {q: perturbed_orbits[q] for q in [*range(2, 10), 16]}
    data = traces.build_trace_data(perturbed_frame, K, orbits)
    with pytest.raises(ValueError, match=r"lacks the periods \[10, 11, 12, 13, 14, 15\]"):
        perturbed_plan.solve(data, K.at_zero)
    orbits = {q: perturbed_orbits[q] for q in [*range(2, 13), 16]}
    data = traces.build_trace_data(perturbed_frame, K, orbits)
    with pytest.raises(ValueError, match=r"lacks the periods \[13, 14, 15\]"):
        perturbed_plan.solve(data, K.at_zero)
    res = rec.recover_robin(data, perturbed_frame, perturbed_frame.chart, orbits, K.at_zero)
    assert np.max(np.abs(res.K_hat(XS) - K(XS))) < 1e-5
    for bad in ("abc", [[2, 3]], None):
        malformed = dataclasses.replace(data, provenance={"orbit_periods": bad})
        with pytest.raises(ValueError, match="'orbit_periods' has a malformed value"):
            perturbed_plan.solve(malformed, K.at_zero)


def test_missing_block_periods_are_refused_before_any_solve(perturbed_frame, perturbed_orbits,
                                                            rng, monkeypatch):
    """A one-shot recovery of a vector on 2..10 plus 16 (as `reconstruct` gets it, with
    the ladder's orbits) names the block periods 11, 12 it lacks without solving them
    or building the plan."""
    K = rec.draw_random_K(rng, 6)
    data = traces.build_trace_data(perturbed_frame, K,
                                   {q: perturbed_orbits[q] for q in [*range(2, 11), 16]})
    orbits = {q: perturbed_orbits[q] for q in [*range(2, 11), 16, *billiards.LADDER]}
    solved, built = [], []
    solve = rec.compute_orbits
    monkeypatch.setattr(rec, "compute_orbits",
                        lambda frame, qs, **kw: solved.extend(qs) or solve(frame, qs, **kw))
    monkeypatch.setattr(rec, "assemble_T", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"lacks the periods \[11, 12\] that the recovery reads"):
        rec.recover_robin(data, perturbed_frame, perturbed_frame.chart, orbits, K.at_zero)
    assert solved == [] and built == []


def test_invariant_vector_validation():
    with pytest.raises(ValueError, match="entries"):
        fn.InvariantVector(d=np.zeros(9), H0=0.0, H1=0.0, q_max=16)
    with pytest.raises(ValueError, match="q_max"):
        fn.InvariantVector(d=np.zeros(2), H0=0.0, H1=0.0, q_max=1)
    for bad in ({"d": np.r_[np.zeros(16), np.nan]}, {"H0": np.inf}, {"H1": np.nan}):
        kwargs = {"d": np.zeros(17), "H0": 0.0, "H1": 0.0, "q_max": 16} | bad
        with pytest.raises(ValueError, match="finite"):
            fn.InvariantVector(**kwargs)
    payload = fn.InvariantVector(d=np.zeros(17), H0=0.0, H1=0.0, q_max=16).to_json_dict()
    payload["d"] = payload["d"][:9]
    with pytest.raises(ValueError, match="entries"):
        fn.InvariantVector.from_json_dict(payload)


def test_suite_builds_one_plan_per_domain(monkeypatch):
    calls = {"contraction_certificate": 0, "fit_alpha_beta": 0}

    def counting(name):
        original = getattr(rec, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(rec, name, counting(name))
    summary = rec.rigidity_suite([[0.0, 0.0, 0.01]], None, rec.SuiteOptions(n_random_K=5))
    assert len(summary.rows) == 5
    assert calls == {"contraction_certificate": 1, "fit_alpha_beta": 1}


def _count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call of ``module.name``, through
    every name the package binds it by."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (billiards, geometry, op, rec):
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_suite_measures_closeness_once_per_domain(monkeypatch):
    """The rows' epsilon is the one the plan's certificate measured."""
    calls = _count_calls(monkeypatch, geometry, "closeness_report")
    summary = rec.rigidity_suite([[], [0.0, 0.0, 0.01]], None, rec.SuiteOptions(n_random_K=2))
    assert len(summary.rows) == 4
    assert len(calls) == 2


def test_suite_solves_all_k_of_a_domain_in_one_batch(monkeypatch):
    """Beyond the plan's two solves of b*, one Neumann series and one lstsq take
    the stacked right-hand side of all five K."""
    neumann = _count_calls(monkeypatch, op, "neumann_invert")
    lstsq = _count_calls(monkeypatch, op, "lstsq_invert")
    summary = rec.rigidity_suite([[0.0, 0.0, 0.01]], None, rec.SuiteOptions(n_random_K=5))
    assert len(summary.rows) == 5
    for calls in (neumann, lstsq):
        assert [np.shape(args[1]) for args in calls] == [(12,), (12, 5)]


def test_plan_assembles_once_and_solves_missing_rungs_in_one_batch(
        perturbed_frame, perturbed_orbits, perturbed_plan, monkeypatch):
    tsr_calls = _count_calls(monkeypatch, op, "assemble_T_star_R")
    orbit_calls = _count_calls(monkeypatch, billiards, "compute_orbits")
    orbits = {q: perturbed_orbits[q] for q in range(2, 17)}  # lacks rungs 32 and 64
    plan = rec.RecoveryPlan(perturbed_frame, perturbed_frame.chart, orbits, 16)
    assert len(tsr_calls) == 1
    assert len(orbit_calls) == 1
    assert np.array_equal(plan.block.entries, perturbed_plan.block.entries)
    assert np.array_equal(plan.w_b, perturbed_plan.w_b)


def test_plan_assembles_T_once(perturbed_frame, perturbed_orbits, monkeypatch):
    """One assembly at J = max(NORM_JMAX, n) and Q = q_max feeds the certificate,
    the limit-entry column and the holdout rows."""
    calls = _count_calls(monkeypatch, op, "assemble_T")
    plan = rec.RecoveryPlan(perturbed_frame, perturbed_frame.chart, perturbed_orbits, 16)
    assert [(args[2].J, args[2].Q) for args in calls] == [(max(rec.NORM_JMAX, plan.n), 16)]


def test_plan_rows_match_two_per_row_assemblies(perturbed_frame, perturbed_orbits,
                                                perturbed_plan, per_row_T):
    """The one assembly gives what a certificate of its own assembly (J = 48, Q = n)
    and a second full-depth one (J = n, Q = q_max), each row by row, gave."""
    plan, chart = perturbed_plan, perturbed_frame.chart
    n, orbits = plan.n, perturbed_orbits
    assert len(plan.hold_q) > 0
    fit = billiards.fit_alpha_beta(chart, {q: orbits[q] for q in billiards.LADDER})
    params = op.GammaSpaceParams(3.5, rec.NORM_JMAX, n)
    cert = op.contraction_certificate(perturbed_frame, params, fit=fit,
                                      full=per_row_T(chart, orbits, params))
    full = per_row_T(chart, orbits, op.GammaSpaceParams(3.5, n, 16))
    for got, expect in ((plan.certificate.numeric_norm, cert.numeric_norm),
                        (plan.certificate.numeric_norm_completed, cert.numeric_norm_completed)):
        assert abs(got - expect) <= 1e-15 * abs(expect)
    assert_allclose(plan.col0, [full.row(q)[0] for q in range(2, n + 1)], rtol=0, atol=1e-15)
    assert_allclose(plan.hold_rows, [full.row(q) for q in plan.hold_q], rtol=0, atol=1e-15)


def test_plan_inverts_its_certified_block(perturbed_plan):
    certified = op.square_block(perturbed_plan.certificate.T_star_R, perturbed_plan.n)
    assert np.array_equal(perturbed_plan.block.entries, certified.entries)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_plan_round_trip_property(perturbed_frame, perturbed_orbits, perturbed_plan, c):
    """Mean-free K on e_1..e_6, marked value K(0) = sum(c): recovered to 1e-5."""
    K = fn.CosineSeries([0.0] + c)
    res = perturbed_plan.solve(_forward(perturbed_frame, perturbed_orbits, K), K.at_zero)
    assert np.max(np.abs(res.K_hat(XS) - K(XS))) <= 1e-5
    assert res.holdout_residual <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7), min_size=1, max_size=8))
def test_solve_many_matches_single_solves(perturbed_frame, perturbed_orbits, perturbed_plan,
                                         coeff_lists):
    """Each result of a batch is the solve of its K alone, marked values included."""
    Ks = [fn.CosineSeries(c) for c in coeff_lists]
    data = [_forward(perturbed_frame, perturbed_orbits, K) for K in Ks]
    batch = perturbed_plan.solve_many(data, [K.at_zero for K in Ks])
    assert len(batch) == len(Ks)
    for got, d, K in zip(batch, data, Ks):
        alone = perturbed_plan.solve(d, K.at_zero)
        for name in ("K_hat", "v"):
            a, b = getattr(got, name).coeffs, getattr(alone, name).coeffs
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-13, name
        assert abs(got.second_order_value - alone.second_order_value) <= 1e-13
        assert abs(got.lstsq_max_diff - alone.lstsq_max_diff) <= 1e-15
        assert abs(got.holdout_residual - alone.holdout_residual) <= 1e-15


def test_solve_many_gates_per_pair(perturbed_frame, perturbed_orbits, perturbed_plan,
                                   monkeypatch, rng):
    Ks = [rec.draw_random_K(rng, 6) for _ in range(4)]
    data = [_forward(perturbed_frame, perturbed_orbits, K) for K in Ks]
    K0s = [K.at_zero for K in Ks]
    data[2].d[16] = np.nan    # past construction-time validation, e.g. mutated in place
    with pytest.raises(ResidualTooLargeError) as alone:
        perturbed_plan.solve(data[2], K0s[2])
    with pytest.raises(ResidualTooLargeError) as batch:
        perturbed_plan.solve_many(data, K0s)
    assert str(batch.value) == str(alone.value)
    # the first failing pair in input order raises: here a wrong marked value
    with pytest.raises(ResidualTooLargeError, match="marked-entry gap 1.000e"):
        perturbed_plan.solve_many(data, [K0s[0], K0s[1] + 1.0, *K0s[2:]])

    neumann = _count_calls(monkeypatch, op, "neumann_invert")
    for bad in (float("nan"), float("inf"), -float("inf")):
        for i in range(len(Ks)):
            with pytest.raises(ValueError, match="finite"):
                perturbed_plan.solve_many(data, [*K0s[:i], bad, *K0s[i + 1:]])
    short = fn.InvariantVector(d=np.zeros(13), H0=0.0, H1=0.0, q_max=12)
    with pytest.raises(ValueError, match="q_max"):
        perturbed_plan.solve_many([*data, short], [*K0s, 0.0])
    with pytest.raises(ValueError, match="marked values"):
        perturbed_plan.solve_many(data, K0s[:3])
    assert neumann == []
    assert perturbed_plan.solve_many([], []) == []


# -- three-function audit -----------------------------------------------------------


def _triple(base, shape, marked):
    """Functions satisfying the proportionality relations with given marked values."""
    f = shape * (1.0 / shape.at_zero)
    K1 = base - fn.CosineSeries([base.at_zero - marked[0]])
    K2 = K1 - (marked[0] - marked[1]) * f
    K3 = K1 - (marked[0] - marked[2]) * f
    return K1, K2, K3


TRUTH_TABLE = [
    # (marked values, expected verdict, expected pair)
    ((2.0, 0.5, -1.0), "data_inconsistent", None),
    ((0.0, 1.0, -1.0), "data_inconsistent", None),
    ((1.0, 2.0, 3.0), "data_inconsistent", None),
    ((-0.5, 0.25, 1.75), "data_inconsistent", None),
    ((0.1, 0.2, 0.3), "data_inconsistent", None),
    ((2.0, -0.5, 0.5), "data_inconsistent", None),
    ((1.0, 1.0, 0.0), "pair_identical", (1, 2)),
    ((1.0, 0.0, 1.0), "pair_identical", (1, 3)),
    ((0.0, 1.0, 1.0), "pair_identical", (2, 3)),
    ((1.0, 1.0, 1.0), "pair_identical", (1, 2)),
    ((0.0, 0.0, 2.0), "pair_identical", (1, 2)),
    ((-1.0, 2.0, -1.0), "pair_identical", (1, 3)),
]


@pytest.mark.parametrize("marked,verdict,pair", TRUTH_TABLE)
def test_triple_truth_table(perturbed_frame, perturbed_orbits, marked, verdict, pair):
    rng = np.random.default_rng(hash(marked) % 2**32)
    base = fn.CosineSeries(np.concatenate([[0.4], 0.3 * rng.standard_normal(5)]))
    shape = fn.CosineSeries(np.concatenate([[1.0], 0.25 * rng.standard_normal(4)]))
    K1, K2, K3 = _triple(base, shape, marked)
    orbits = {q: perturbed_orbits[q] for q in range(2, 17)}
    out = rec.triple_disambiguate(K1, K2, K3, perturbed_frame.chart, orbits)
    assert out.verdict == verdict
    assert out.pair == pair
    if verdict == "data_inconsistent":
        assert out.f_square_integral > 1e-6
        assert out.identity_residual < 1e-9
        # proportionality relations hold by construction
        assert max(out.spectral_residuals) < 1e-10


def test_triple_identical_pair_guard(perturbed_frame, perturbed_orbits, rng):
    K1 = fn.CosineSeries(rng.standard_normal(4))
    K3 = K1 + fn.CosineSeries([1.0])
    out = rec.triple_disambiguate(K1, K1, K3, perturbed_frame.chart, {2: perturbed_orbits[2]})
    assert out.verdict == "pair_identical" and out.pair == (1, 2)


def test_part_b_algebra_identity(perturbed_frame, perturbed_orbits, rng):
    """int (K2 - K3) f dsigma equals the marked difference times int f^2 dsigma."""
    base = fn.CosineSeries(rng.standard_normal(6))
    shape = fn.CosineSeries(np.concatenate([[1.0], rng.standard_normal(5) * 0.4]))
    K1, K2, K3 = _triple(base, shape, (3.0, 1.0, 0.25))
    out = rec.triple_disambiguate(K1, K2, K3, perturbed_frame.chart, {2: perturbed_orbits[2]})
    assert out.identity_residual < 1e-9


# -- two-symmetry pinning --------------------------------------------------------------


def test_two_symmetry_detects_constant_offset(circle_frame):
    K1 = fn.CosineSeries([0.5, 0.0, 0.3])
    for c in (1e-9, 1e-3, 0.1):
        K2 = K1 + fn.CosineSeries([c])
        rep = rec.two_symmetry_pin(circle_frame, K1, K2)
        assert rep.detected
        assert_allclose(rep.constraint_gap, -2.0 * c / rep.sin_phi, rtol=1e-6)
        assert abs(rep.constraint_gap) > 1e-10


def test_two_symmetry_equal_functions_pass(perturbed_frame):
    K = fn.CosineSeries([0.5, 0.0, 0.3, 0.0, -0.1])
    rep = rec.two_symmetry_pin(perturbed_frame, K, K)
    assert not rep.detected
    assert rep.constraint_gap == 0.0
    assert "pinned equal" in rep.verdict


def test_two_symmetry_rejects_asymmetric_domain():
    frame = geometry.build_frame(geometry.build_profile([0.0, 0.01]), 512)
    K = fn.CosineSeries([1.0])
    with pytest.raises(SymmetryViolationError):
        rec.two_symmetry_pin(frame, K, K)


def test_two_symmetry_rejects_asymmetric_function(circle_frame):
    K_odd = fn.CosineSeries([0.0, 1.0])
    with pytest.raises(SymmetryViolationError):
        rec.two_symmetry_pin(circle_frame, K_odd, K_odd)


def test_two_symmetry_axis_values_match(circle_frame):
    K = fn.CosineSeries([0.2, 0.0, -0.4, 0.0, 0.1])
    rep = rec.two_symmetry_pin(circle_frame, K, K)
    # doubly symmetric functions take the same value at both axis points
    assert_allclose(rep.axis_values[0], rep.axis_values[1], rtol=0, atol=1e-12)


# -- batch harness ------------------------------------------------------------------------


def test_suite_smoke_and_determinism():
    options = rec.SuiteOptions(q_max=16, n_random_K=3, seed=7)
    domains = [[], [0.0, 0.0, 0.01]]
    s1 = rec.rigidity_suite(domains, None, options)
    s2 = rec.rigidity_suite(domains, None, options)
    assert len(s1.rows) == 6
    assert s1.max_error < 1e-5
    assert s1.to_json() == s2.to_json()
    csv = s1.to_csv_text()
    assert csv.splitlines()[0].startswith("domain,")
    assert len(csv.splitlines()) == 7


def test_suite_empty_grid():
    summary = rec.rigidity_suite([], None, rec.SuiteOptions(n_random_K=1))
    assert summary.rows == [] and summary.max_error == 0.0


def test_suite_explicit_function_list(circle_frame):
    K = fn.CosineSeries([0.3, 0.1, -0.1])
    summary = rec.rigidity_suite([[]], [K], rec.SuiteOptions())
    assert len(summary.rows) == 1
    assert summary.rows[0]["K0"] == pytest.approx(0.3)
    assert summary.rows[0]["recovery_error_sup"] < 1e-6
