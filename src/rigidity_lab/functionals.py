"""Boundary functionals over bounce data, in the even cosine basis.

Reflection-symmetric boundary functions are stored as cosine series in the
Lazutkin coordinate, ``u(x) = sum_j u_j cos(2 pi j x)``. The functionals
are the plain bounce sums of u/sin(phi), which the invariant vector holds,
and the normalized sum weighted by ``mu/(q^2 sin(phi))`` (`script_L_q`),
whose large-q limit is the mean of u and whose rows `operator.assemble_T`
batches. Fourier data of the angle-correction function S_q feeds the
operator certificates.

A ``CosineSeries`` holds one series or a batch of them: a coefficient matrix
of shape (m, J+1) is m series of one length, and every evaluation acts along
the last axis, so one series is the batch of one. Series are evaluated by one
``irfft`` on uniform grids (``on_grid``), by the direct cosine sum at
scattered points, and in one product over all bounce points for the bounce
sums (``bounce_sums``); ``cosine_coeffs`` projects back with one ``rfft``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .billiards import PeriodicOrbit, guarded_half, guarded_sin_phi
from .geometry import TWO_PI, BoundaryFrame, LazutkinChart, float_list, harmonics, json_value


@dataclass
class CosineSeries:
    """Even function on the boundary as coefficients against cos(2 pi j x).

    ``coeffs`` of shape (m, J+1) is a batch of m series; evaluations return
    the batch axis first.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        # no coefficients is the zero series, which has one
        self.coeffs = coeffs if coeffs.shape[-1] else np.zeros(coeffs.shape[:-1] + (1,))

    @classmethod
    def stack(cls, series: Sequence["CosineSeries"]) -> "CosineSeries":
        """One batch of single series, zero-padded to the longest."""
        out = np.zeros((len(series), max(len(s.coeffs) for s in series)))
        for row, s in zip(out, series):
            row[: len(s.coeffs)] = s.coeffs
        return cls(out)

    @classmethod
    def basis(cls, j: int, size: int | None = None) -> "CosineSeries":
        c = np.zeros((size if size is not None else j + 1))
        c[j] = 1.0
        return cls(c)

    @classmethod
    def zero(cls) -> "CosineSeries":
        return cls(np.zeros(1))

    @property
    def jmax(self) -> int:
        return self.coeffs.shape[-1] - 1

    def __call__(self, x):
        """Values at scattered points, by the direct cosine sum: one product of
        the cosine table of x, the `harmonics` of 2 pi x, with the coefficients."""
        cos = harmonics(TWO_PI * np.asarray(x, dtype=float), self.coeffs.shape[-1])[0]
        return np.inner(self.coeffs, np.stack(cos, axis=-1))

    def on_grid(self, n: int) -> np.ndarray:
        """Values at x = k/n, k = 0..n-1, from one ``irfft``; inverse of `cosine_coeffs`.

        Frequencies above n/2 are folded onto |j mod n|, the frequency they
        take at these points.
        """
        c, half = self.coeffs, n // 2 + 1
        if c.shape[-1] > half:
            j = np.arange(c.shape[-1]) % n
            folded = np.zeros(c.shape[:-1] + (half,))
            np.add.at(folded, (..., np.minimum(j, n - j)), c)
            c = folded
        spec = np.zeros(c.shape[:-1] + (half,))
        spec[..., : c.shape[-1]] = 0.5 * n * c
        spec[..., 0] *= 2.0
        if n % 2 == 0:
            spec[..., -1] *= 2.0  # the Nyquist bin is not split between +j and -j
        return np.fft.irfft(spec, n)

    @property
    def at_zero(self):
        """Value at the marked point x = 0: a float, or an array over a batch."""
        total = np.sum(self.coeffs, axis=-1)
        return float(total) if self.coeffs.ndim == 1 else total

    def _binop(self, other, sign):
        a, b = self.coeffs, other.coeffs
        out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                       + (max(a.shape[-1], b.shape[-1]),))
        out[..., : a.shape[-1]] = a
        out[..., : b.shape[-1]] += sign * b
        return CosineSeries(out)

    def __add__(self, other):
        return self._binop(other, 1.0)

    def __sub__(self, other):
        return self._binop(other, -1.0)

    def __mul__(self, scalar):
        return CosineSeries(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return CosineSeries(-self.coeffs)


def _fourier_coeffs(values, jmax: int) -> np.ndarray:
    """``integral f(x) exp(-2 pi i j x) dx`` for j = 0..jmax from samples at x = k/n,
    along the last axis."""
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    if jmax > n // 4:
        raise ValueError(f"jmax={jmax} above anti-alias cap {n // 4} for {n} samples")
    return np.fft.rfft(vals)[..., : jmax + 1] / n


def cosine_coeffs(values, jmax: int) -> np.ndarray:
    """Cosine coefficients 0..jmax of an even function sampled at x = k/n, along
    the last axis."""
    spec = _fourier_coeffs(values, jmax)
    coeffs = 2.0 * spec.real
    coeffs[..., 0] = spec[..., 0].real
    return coeffs


# -- plain bounce-sum functionals ---------------------------------------------


def bounce_sums(u, orbits: Sequence[PeriodicOrbit]) -> np.ndarray:
    """``sum_k u(x_k) / sin(phi_k)`` per orbit, for u even about x = 1/2 (a cosine
    series): one evaluation of u over the free halves, bounce q - k counted as k
    (`guarded_half`), split with ``np.add.reduceat`` along the last axis. For a
    batch u the result is (m, orbits). A grazing bounce raises (`guarded_sin_phi`)."""
    if not orbits:
        return np.zeros(0)
    _, x, sin_phi, starts = guarded_half(orbits)
    return np.add.reduceat(u(x) / sin_phi, starts, axis=-1)


# -- normalized bounce-sum functionals ----------------------------------------


def script_L_q(u, orbit: PeriodicOrbit, chart: LazutkinChart) -> float:
    """Bounce sum of u weighted by mu/(q^2 sin phi); tends to the mean of u."""
    sin_phi = guarded_sin_phi([orbit])
    mu = chart.mu_of_kappa(orbit.kappa)
    return float(np.sum(u(orbit.x) * mu / sin_phi) / orbit.q**2)


# -- angle-correction function and its Fourier data ---------------------------


def _s_q_node_values(chart: LazutkinChart, q) -> np.ndarray:
    """S_q = y/sin(y) - 1 at y = mu/q on the x nodes; an array of periods gives
    one row per period."""
    y = chart.mu_at_x_nodes / np.asarray(q)[..., None]
    return y / np.sin(y) - 1.0


def sigma_p(chart: LazutkinChart, q, p: int):
    """Fourier coefficient of the angle-correction function at frequency p.

    An array of periods gives an array of coefficients, one per period, from
    one batched transform.
    """
    spec = _fourier_coeffs(_s_q_node_values(chart, q), abs(int(p)))[..., abs(int(p))]
    return complex(spec) if spec.ndim == 0 else spec


def tilde_sigma_table(chart: LazutkinChart, jmax: int) -> np.ndarray:
    """Fourier coefficients j = 0..jmax of mu^2/6, the q-independent limit of q^2 sigma_j(q)."""
    return _fourier_coeffs(chart.mu_at_x_nodes**2 / 6.0, jmax)


# -- invariant data vector -----------------------------------------------------


NORMALIZATION = "C_gamma=1"  # the wave-trace normalization the data model implements


@dataclass
class InvariantVector:
    """Spectral data: bounce sums of K/sin(phi) per period plus heat coefficients.

    Index q of ``d`` holds the period-q wave-trace entry in the unit
    normalization; entry 1 is the marked-point value K(0) and entry 0 the
    large-q limit, the mean of K/mu.
    """

    d: np.ndarray
    H0: float
    H1: float
    q_max: int
    normalization: str = NORMALIZATION
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.normalization != NORMALIZATION:
            raise ValueError(f"invariant vector key 'normalization' has the value "
                             f"{self.normalization!r}; only {NORMALIZATION!r} is implemented")
        if self.q_max < 2:
            raise ValueError(f"invariant vector needs q_max >= 2, got {self.q_max}")
        if len(self.d) != self.q_max + 1:
            raise ValueError(
                f"invariant vector has {len(self.d)} entries in d, expected "
                f"q_max + 1 = {self.q_max + 1}"
            )
        if not (np.all(np.isfinite(self.d)) and np.isfinite(self.H0) and np.isfinite(self.H1)):
            raise ValueError("invariant vector entries d, H0 and H1 must be finite")

    @property
    def periods(self) -> tuple:
        """The orbit periods the data hold, sorted: ``provenance["orbit_periods"]``, or
        2..q_max where the key is absent. A period that is not an integer in 2..q_max
        raises ValueError naming it."""
        listed = json_value(self.provenance, "orbit_periods", float_list,
                            list(range(2, self.q_max + 1)), "invariant vector provenance").tolist()
        bad = [v for v in listed if not (v.is_integer() and 2 <= v <= self.q_max)]
        if bad:
            raise ValueError(f"invariant vector provenance key 'orbit_periods' holds "
                             f"{[int(v) if v.is_integer() else v for v in bad]}, not periods "
                             f"in 2..q_max={self.q_max}")
        return tuple(sorted({int(v) for v in listed}))

    def to_json_dict(self) -> dict:
        return {
            "d": [float(v) for v in self.d],
            "H0": float(self.H0),
            "H1": float(self.H1),
            "normalization": self.normalization,
            "q_max": int(self.q_max),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, payload) -> "InvariantVector":
        """Parse a JSON object; a missing or malformed key raises ValueError naming it."""
        def value(key, convert):
            return json_value(payload, key, convert, source="invariant vector")

        return cls(d=value("d", float_list), H0=value("H0", float), H1=value("H1", float),
                   q_max=value("q_max", int),
                   normalization=payload.get("normalization", NORMALIZATION),
                   provenance=payload.get("provenance", {}))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "InvariantVector":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def robin_data(
    frame: BoundaryFrame,
    chart: LazutkinChart,
    K: CosineSeries,
    orbits: Mapping[int, PeriodicOrbit],
    heat: tuple,
) -> InvariantVector | list[InvariantVector]:
    """Forward-synthesize the invariant vector of a Robin function from orbits.

    A batch K (with ``heat`` a pair of arrays, as `traces.heat_defect` returns
    it for a batch) is synthesized in one pass and gives a list of vectors.
    """
    qs = sorted(orbits)
    q_max = max(qs)
    d = np.zeros(K.coeffs.shape[:-1] + (q_max + 1,))
    d[..., 0] = chart.integrate_dx(K.on_grid(chart.n_grid) / chart.mu_at_x_nodes)
    d[..., 1] = K.at_zero
    d[..., qs] = bounce_sums(K, [orbits[q] for q in qs])
    vectors = [
        InvariantVector(d=row, H0=float(h0), H1=float(h1), q_max=q_max,
                        provenance={"orbit_periods": list(qs)})
        for row, h0, h1 in zip(d.reshape(-1, q_max + 1), np.ravel(heat[0]), np.ravel(heat[1]))
    ]
    return vectors if d.ndim == 2 else vectors[0]
