"""Forward synthesis of trace data: wave-trace leading coefficients per orbit,
small-time heat defect coefficients, and the length spectrum."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .billiards import PeriodicOrbit
from .functionals import NORMALIZATION, CosineSeries, bounce_sums
from .geometry import BoundaryFrame


def heat_defect(frame: BoundaryFrame, K: CosineSeries) -> tuple:
    """Leading heat-trace defect coefficients (H0, H1).

    H0 = (1/2pi) int K dsigma and H1 = (1/(8 sqrt(pi))) int (K kappa + 2 K^2) dsigma,
    both on the chart's uniform x nodes. Floats for one K; for a batch K, one
    pass gives two arrays over the batch.
    """
    chart = frame.chart
    k_vals = K.on_grid(chart.n_grid)
    h0 = chart.integrate_dsigma(k_vals) / (2.0 * math.pi)
    h1 = chart.integrate_dsigma(k_vals * chart.kappa_at_x_nodes + 2.0 * k_vals**2)
    return h0, h1 / (8.0 * math.sqrt(math.pi))


@dataclass
class LengthSpectrum:
    """Sorted multiset of orbit-length multiples and perimeter multiples."""

    entries: np.ndarray     # sorted lengths
    labels: tuple           # parallel ("orbit", q, m) / ("perimeter", 0, m) tags
    min_gap: float
    closest: tuple


def length_spectrum(
    frame: BoundaryFrame, orbits: Mapping[int, PeriodicOrbit], m_max: int
) -> LengthSpectrum:
    """All multiples m <= m_max of computed orbit lengths and of the perimeter."""
    items = []
    for q in sorted(orbits):
        for m in range(1, m_max + 1):
            items.append((m * orbits[q].length, ("orbit", q, m)))
    for m in range(1, m_max + 1):
        items.append((m * frame.perimeter, ("perimeter", 0, m)))
    items.sort(key=lambda t: t[0])
    entries = np.array([t[0] for t in items])
    labels = tuple(t[1] for t in items)
    gaps = np.diff(entries)
    if len(gaps):
        i = int(np.argmin(gaps))
        min_gap, closest = float(gaps[i]), (labels[i], labels[i + 1])
    else:
        min_gap, closest = np.inf, ()
    return LengthSpectrum(entries=entries, labels=labels, min_gap=min_gap, closest=closest)


@dataclass
class TraceData:
    """Per-orbit wave-trace records plus heat coefficients and the length spectrum."""

    records: list            # dicts: q, length, c0_normalized, C_gamma
    H0: float
    H1: float
    spectrum: LengthSpectrum
    normalization: str = NORMALIZATION

    def to_json_dict(self) -> dict:
        return {
            "records": self.records,
            "H0": self.H0,
            "H1": self.H1,
            "normalization": self.normalization,
            "length_spectrum": [float(v) for v in self.spectrum.entries],
            "min_length_gap": self.spectrum.min_gap,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_trace_data(
    frame: BoundaryFrame,
    K: CosineSeries,
    orbits: Mapping[int, PeriodicOrbit],
    m_max: int = 1,
) -> TraceData:
    h0, h1 = heat_defect(frame, K)
    qs = sorted(orbits)
    c0 = bounce_sums(K, [orbits[q] for q in qs])
    records = [
        {"q": q, "length": orbits[q].length, "c0_normalized": float(c), "C_gamma": 1.0}
        for q, c in zip(qs, c0)
    ]
    return TraceData(
        records=records,
        H0=h0,
        H1=h1,
        spectrum=length_spectrum(frame, orbits, m_max),
    )
