"""Forward synthesis of trace data: wave-trace leading coefficients per orbit,
small-time heat defect coefficients, and the length spectrum."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .billiards import SIN_PHI_TOL, PeriodicOrbit
from .errors import SingularAngleError
from .functionals import CosineSeries
from .geometry import BoundaryFrame


def wave_c0(orbit: PeriodicOrbit, K: CosineSeries, C_gamma: float = 1.0) -> float:
    """Leading singularity coefficient at the orbit length: C * sum K(b)/sin(phi)."""
    if np.min(orbit.sin_phi) < SIN_PHI_TOL:
        raise SingularAngleError(
            f"bounce angle too close to grazing (sin phi = {np.min(orbit.sin_phi):.3g})"
        )
    return float(C_gamma) * float(np.sum(K(orbit.x) / orbit.sin_phi))


def heat_defect(frame: BoundaryFrame, K: CosineSeries) -> tuple:
    """Leading heat-trace defect coefficients (H0, H1).

    H0 = (1/2pi) int K dsigma and H1 = (1/(8 sqrt(pi))) int (K kappa + 2 K^2) dsigma.
    """
    speed = frame.profile.speed(frame.theta)
    k_vals = K(frame.x)
    h0 = np.mean(k_vals * speed)  # (2pi/N sum)/2pi
    h1_integrand = k_vals * frame.kappa + 2.0 * k_vals**2
    h1 = np.mean(h1_integrand * speed) * 2.0 * np.pi / (8.0 * np.sqrt(np.pi))
    return float(h0), float(h1)


@dataclass
class LengthSpectrum:
    """Sorted multiset of orbit-length multiples and perimeter multiples."""

    entries: np.ndarray     # sorted lengths
    labels: tuple           # parallel ("orbit", q, m) / ("perimeter", 0, m) tags
    min_gap: float
    closest: tuple

    def collisions(self, tol: float) -> list:
        out = []
        for i in range(len(self.entries) - 1):
            if self.entries[i + 1] - self.entries[i] < tol:
                out.append((self.labels[i], self.labels[i + 1]))
        return out


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
    normalization: str = "C_gamma=1"

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
    records = [
        {
            "q": q,
            "length": orbits[q].length,
            "c0_normalized": wave_c0(orbits[q], K),
            "C_gamma": 1.0,
        }
        for q in sorted(orbits)
    ]
    return TraceData(
        records=records,
        H0=h0,
        H1=h1,
        spectrum=length_spectrum(frame, orbits, m_max),
    )
