import numpy as np
import pytest

from rigidity_lab import billiards, geometry
from rigidity_lab import operator as op

LADDER = (8, 16, 32, 64)


@pytest.fixture(scope="session")
def circle_frame():
    return geometry.build_frame(geometry.unit_circle_profile(), 512)


@pytest.fixture(scope="session")
def perturbed_frame():
    """The a_2 = 0.01 workhorse domain."""
    return geometry.build_frame(geometry.build_profile([0.0, 0.0, 0.01]), 512)


@pytest.fixture(scope="session")
def circle_orbits(circle_frame):
    qs = sorted(set(range(2, 17)) | set(LADDER))
    return billiards.compute_orbits(circle_frame, qs)


@pytest.fixture(scope="session")
def perturbed_orbits(perturbed_frame):
    qs = sorted(set(range(2, 17)) | set(LADDER))
    return billiards.compute_orbits(perturbed_frame, qs)


@pytest.fixture(scope="session")
def perturbed_fit(perturbed_frame, perturbed_orbits):
    ladder = {q: perturbed_orbits[q] for q in LADDER}
    return billiards.fit_alpha_beta(perturbed_frame.chart, ladder)


@pytest.fixture(scope="session")
def circle_fit(circle_frame, circle_orbits):
    ladder = {q: circle_orbits[q] for q in LADDER}
    return billiards.fit_alpha_beta(circle_frame.chart, ladder)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def _per_row_T(chart, orbits, params):
    """`operator.assemble_T` one row at a time: per period, one weight evaluation
    and one product of its own cosine table (from `geometry.harmonics`, as in
    the batch) with the weights."""
    qs = [q for q in sorted(orbits) if 2 <= q <= params.Q]
    cols = np.arange(params.J + 1)
    entries = np.zeros((len(qs) + 2, len(cols)))
    entries[0, 0] = 1.0
    entries[1, :] = 1.0
    for i, q in enumerate(qs, start=2):
        orb = orbits[q]
        w = chart.mu_of_theta(orb.theta) / (orb.sin_phi * q * q)
        entries[i] = np.stack(geometry.harmonics(2.0 * np.pi * orb.x, len(cols))[0]) @ w
    return op.OperatorMatrix(entries=entries, row_q=np.array([0, 1] + qs), col_j=cols)


@pytest.fixture(scope="session")
def per_row_T():
    """Oracle for the batched operator assembly: the per-row loop it replaced."""
    return _per_row_T
