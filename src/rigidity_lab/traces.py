"""Forward synthesis of trace data: the wave-trace leading coefficient of each
orbit and the small-time heat defect coefficients, as one `InvariantVector`.

The Robin condition is ``d_nu u = K u`` with nu the outward normal. Under
that sign the heat coefficients below match the Robin-minus-Neumann heat
trace of a disk with constant K, fitted from its Bessel-root spectrum; a
test repeats that check on radii 1 and 0.8 for K < 0 only.
"""

from __future__ import annotations

import math
from typing import Mapping

from .billiards import PeriodicOrbit
from .functionals import CosineSeries, InvariantVector, robin_data
from .geometry import BoundaryFrame


def heat_defect(frame: BoundaryFrame, K: CosineSeries) -> tuple:
    """Leading heat-trace defect coefficients (H0, H1) of the Robin condition
    ``d_nu u = K u`` (nu the outward normal) against Neumann.

    H0 = (1/2pi) int K dsigma and H1 = (1/(8 sqrt(pi))) int (K kappa + 2 K^2) dsigma,
    both on the chart's uniform x nodes. Floats for one K; for a batch K, one
    pass gives two arrays over the batch. The sign is checked against the
    spectra of two disks for K < 0 in `tests/test_traces.py`; K > 0 is not.
    """
    chart = frame.chart
    k_vals = K.on_grid(chart.n_grid)
    h0 = chart.integrate_dsigma(k_vals) / (2.0 * math.pi)
    h1 = chart.integrate_dsigma(k_vals * chart.kappa_at_x_nodes + 2.0 * k_vals**2)
    return h0, h1 / (8.0 * math.sqrt(math.pi))


def build_trace_data(
    frame: BoundaryFrame, K: CosineSeries, orbits: Mapping[int, PeriodicOrbit]
) -> InvariantVector | list[InvariantVector]:
    """The invariant vector of K on ``orbits`` with its heat coefficients; a list for a batch K.

    Periods 2..max(orbits) absent from ``orbits`` (as on a gappy set such as
    2..48 plus 64..1024) read 0 in ``d``; ``provenance["orbit_periods"]``
    lists the periods present, which `InvariantVector.periods` reads back and
    the CLI's `reconstruct` solves.
    """
    return robin_data(frame, frame.chart, K, orbits, heat_defect(frame, K))
