"""Near-circular convex domains, boundary frames, and the Lazutkin chart.

A domain is a radial cosine perturbation of the unit circle,
``r(theta) = 1 + sum_n a_n cos(n*theta)``, reflection-symmetric about the
horizontal axis and translated so the marked boundary point (at
``theta = pi``) sits at the origin with the domain in ``{x >= 0}``.

The polar parametrization lives here only. One evaluation of the series
and its first two derivatives, `DomainProfile.jet`, feeds every boundary
quantity: position, velocity and acceleration (`DomainProfile.point_jet`,
which the orbit solvers read), speed and curvature. Its harmonics are rotated
up from one cosine and one sine per point as `harmonics` rotates the cosine
tables of `CosineSeries` and `assemble_T`. Arclength and the
Lazutkin coordinate add FFT-based antiderivatives of smooth periodic
integrands, so evaluations are spectrally accurate at arbitrary points, not
just grid nodes. Each integrand's Fourier series is chopped where its
spectrum reaches the roundoff plateau (Aurentz & Trefethen's rule), so an
evaluation costs the resolved bandwidth, a few dozen modes, whatever the
grid size; it is summed by Horner's rule in one complex exponential per
point, with no table of harmonics.

The chart evaluates its uniform theta grid once: curvature, weight,
arclength and Lazutkin coordinate there are its read-only grid table, which
a `BoundaryFrame` (the chart and nothing else) dumps, and the inverse map
``theta_of_x`` starts Newton from linear interpolation in that table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergenceError, NonConvexError, NonPositiveRadiusError

TWO_PI = 2.0 * np.pi

#: boundary angle of the marked point (before centering, the point on the
#: symmetry axis that gets translated to the origin)
MARKED_THETA = np.pi

DEFAULT_FRAME_SAMPLES = 512
DEFAULT_SMOOTHNESS = 8


def harmonics(t, m: int):
    """``cos(k t)`` and ``sin(k t)``, k = 0..m-1, as two lists, from one cosine and one
    sine of t, each harmonic the one before rotated by t (no phase ``k t`` is rounded).
    A scalar t gives Python floats and an array gives arrays of its shape, by the
    same elementwise arithmetic, so a value does not depend on the batch it is in."""
    c, s = np.cos(t), np.sin(t)
    if c.ndim == 0:
        c, s = float(c), float(s)
    cos, sin = [c * 0.0 + 1.0, c], [c * 0.0, s]
    for k in range(2, m):
        cos.append(cos[k - 1] * c - sin[k - 1] * s)
        sin.append(sin[k - 1] * c + cos[k - 1] * s)
    return cos[:m], sin[:m]


@dataclass(frozen=True)
class DomainProfile:
    """Radial cosine series for a strictly convex, axis-symmetric domain."""

    radial_coeffs: tuple
    smoothness_order: int
    center_offset: float

    def jet(self, theta):
        """``(r, r', r'', cos theta, sin theta)``: the one sum of the radial series, over
        its nonzero modes, with cos(n theta) and sin(n theta) rotated up to the last one
        as `harmonics` rotates them, bit for bit. Python floats for a scalar theta, as
        numpy scalar arithmetic would double a shooting step."""
        c1, s1 = np.cos(theta), np.sin(theta)
        c1, s1 = (float(c1), float(s1)) if c1.ndim == 0 else (c1, s1)
        c, s, coeffs = c1 * 0.0 + 1.0, c1 * 0.0, self.radial_coeffs
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        r, r1, r2 = c, 0.0 * c, 0.0 * c
        for n, a in enumerate(coeffs):
            if n:
                c, s = (c1, s1) if n == 1 else (c * c1 - s * s1, s * c1 + c * s1)
            if a:
                r = r + a * c
                r1 = r1 - (n * a) * s
                r2 = r2 - (n * (n * a)) * c  # not n^2 a: rounds as a per-mode (a n) n
        return r, r1, r2, c1, s1

    def point_jet(self, theta, curvature: bool = False):
        """Position ``(center_offset + r cos theta, r sin theta)``, velocity and
        acceleration in theta, each an ``(x, y)`` pair of what `jet` returns
        (Python floats for a scalar theta); ``curvature=True`` appends `curvature`'s value.
        """
        r, r1, r2, c, s = self.jet(theta)
        rc, rs = r * c, r * s
        a, b = r2 - r, 2.0 * r1  # acceleration a (c, s) + b (-s, c)
        pos = (self.center_offset + rc, rs)
        vel = (r1 * c - rs, r1 * s + rc)
        acc = (a * c - b * s, a * s + b * c)
        return (pos, vel, acc) + ((_speed_curvature(r, r1, r2)[1],) if curvature else ())

    def position(self, theta):
        """Boundary point(s) as (..., 2) array, marked point at the origin."""
        return np.stack(self.point_jet(theta)[0], axis=-1)

    def velocity(self, theta):
        """d(position)/d(theta)."""
        return np.stack(self.point_jet(theta)[1], axis=-1)

    def speed_curvature(self, theta):
        """Speed ``|d position/d theta|`` and signed curvature (positive for a
        counter-clockwise convex boundary) from one `jet`."""
        r, r1, r2, _, _ = self.jet(theta)
        return _speed_curvature(r, r1, r2)

    def speed(self, theta):
        return self.speed_curvature(theta)[0]

    def tangent(self, theta):
        v = self.velocity(theta)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def curvature(self, theta):
        return self.speed_curvature(theta)[1]


def _speed_curvature(r, r1, r2):
    s2 = r * r + r1 * r1
    return np.sqrt(s2), (r * r + 2.0 * r1 * r1 - r * r2) / s2 ** 1.5


def build_profile(
    radial_coeffs: Sequence[float],
    smoothness_order: int = DEFAULT_SMOOTHNESS,
    check_samples: int = 4096,
) -> DomainProfile:
    """Validate a radial cosine series and return the centered profile.

    Raises ``ValueError`` for a non-finite coefficient (NaN compares false,
    so it would slip past the sign checks), and ``NonPositiveRadiusError``
    or ``NonConvexError`` when the sampled radius or curvature fails to stay
    positive.
    """
    coeffs = tuple(float(a) for a in radial_coeffs)
    if not all(np.isfinite(coeffs)):
        raise ValueError(f"radial coefficients must be finite, got {coeffs}")
    if smoothness_order < 8:
        raise ValueError(f"smoothness_order must be >= 8, got {smoothness_order}")
    offset = 1.0 + sum(a * (-1.0) ** n for n, a in enumerate(coeffs))
    profile = DomainProfile(coeffs, int(smoothness_order), offset)

    theta = TWO_PI * np.arange(check_samples) / check_samples
    r, r1, r2, _, _ = profile.jet(theta)
    if np.min(r) <= 0.0:
        raise NonPositiveRadiusError(
            f"radius reaches {np.min(r):.6g} <= 0 at theta={theta[np.argmin(r)]:.6g}"
        )
    kappa = _speed_curvature(r, r1, r2)[1]
    if np.min(kappa) <= 0.0:
        raise NonConvexError(
            f"curvature reaches {np.min(kappa):.6g} <= 0 at theta={theta[np.argmin(kappa)]:.6g}"
        )
    return profile


def _standard_chop(coeffs) -> int:
    """Number of leading coefficients to keep before the roundoff plateau.

    Aurentz & Trefethen, "Chopping a Chebyshev series" (ACM TOMS 2017), at
    tolerance machine epsilon: scan the monotone envelope of the magnitudes
    for the first point followed by a plateau, then cut where the envelope
    plus a slight linear bias toward the left end is least. A spectrum with
    no plateau is kept whole.
    """
    tol = np.finfo(float).eps
    n = len(coeffs)
    if n < 17:
        return n
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    j = np.arange(2, n + 1)  # the plateau test at every j whose partner j2 is in range
    j2 = np.floor(1.25 * j + 5.5).astype(int)  # round half up
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = envelope[j - 1], envelope[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # e1 = 0 passes by its own test
        found = np.flatnonzero((e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol))))
    if not found.size:
        return n
    plateau, j2 = int(j[found[0]]) - 1, int(j2[found[0]])
    if envelope[plateau - 1] == 0.0:
        return plateau
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    biased = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


class _FourierSeries:
    """Real trigonometric polynomial fitted to samples on a uniform period-2pi grid.

    Supports the exact antiderivative from 0, which is what turns grid data
    into spectrally accurate arclength and Lazutkin coordinate maps. Modes
    past the roundoff plateau of the spectrum are dropped, so evaluation cost
    follows the resolved bandwidth rather than the grid size.
    """

    def __init__(self, samples: np.ndarray):
        n = len(samples)
        spec = np.fft.rfft(samples) / n
        kmax = _standard_chop(spec) - 1
        self.n = n
        self.coeffs = spec[: kmax + 1].copy()
        self.k = np.arange(kmax + 1)
        # rfft halves interior bins of a real signal; weight restores them
        self.weight = np.where(
            (self.k == 0) | (self.k == n // 2), 1.0, 2.0
        )
        self.mean = spec[0].real
        # mode k of the antiderivative is Re(w_k (exp(i k t) - 1)), w_k = c_k / (i k);
        # Horner's rule runs over the tail sums W_m = w_{m+1} + ... + w_kmax
        k = self.k[1:]
        w = -1j * self.weight[1:] * self.coeffs[1:] / k
        self._tail_sums = np.cumsum(w[::-1])[::-1]

    def antideriv(self, t):
        """Integral of the series from 0 to t.

        With ``z = exp(i t)`` the periodic part ``sum_k Re(w_k (z^k - 1))`` is
        ``Re((z - 1) sum_m W_m z^m)``, summed by Horner's rule: one complex
        exponential per point and one multiply-add per mode. Every point is
        evaluated on its own, so a value does not depend on the batch it is in,
        and it is exactly 0 at t = 0.
        """
        t = np.asarray(t, dtype=float)
        z = np.exp(1j * t)
        poly = np.zeros_like(z)
        for tail in self._tail_sums[::-1]:
            poly = poly * z + tail
        return self.mean * t + ((z - 1.0) * poly).real


class LazutkinChart:
    """Invertible boundary coordinate maps theta <-> sigma <-> x with weight mu.

    ``sigma`` is arclength from the marked point (counter-clockwise), ``x``
    the coordinate with density proportional to ``rho^(-2/3) dsigma`` (rho
    the radius of curvature), normalized to [0, 1), and the weight
    ``mu(x) = rho(x)^(-1/3) / (2 C_L)``. Creeping orbits of rotation number
    1/q then bounce at nearly uniform x spacing with angles close to
    ``mu(x)/q``; on the unit circle ``x = sigma/(2 pi)`` and ``mu = pi``.
    """

    def __init__(self, profile: DomainProfile, n_samples: int = DEFAULT_FRAME_SAMPLES):
        if n_samples < 256 or n_samples % 2:
            raise ValueError(f"n_samples must be even and >= 256, got {n_samples}")
        self.profile = profile
        self.n_grid = n_samples

        theta = MARKED_THETA + TWO_PI * np.arange(n_samples) / n_samples
        speed, kappa = profile.speed_curvature(theta)
        self._speed_series = _FourierSeries(speed)
        self._density_series = _FourierSeries(kappa ** (2.0 / 3.0) * speed)

        self.perimeter = float(self._speed_series.mean * TWO_PI)
        self.lazutkin_const = float(1.0 / (self._density_series.mean * TWO_PI))

        # the grid table, read only: the frame's columns and the inverse map's Newton start
        self.theta_grid, self.kappa_grid, self.mu_grid = theta, kappa, self.mu_of_kappa(kappa)
        self.sigma_grid = self.sigma_of_theta(theta)
        self.x_grid = self.x_of_theta(theta)
        for column in (self.theta_grid, self.kappa_grid, self.mu_grid, self.sigma_grid,
                       self.x_grid):
            column.setflags(write=False)

    # -- forward maps ---------------------------------------------------

    def _t(self, theta):
        return np.mod(np.asarray(theta, dtype=float) - MARKED_THETA, TWO_PI)

    def sigma_of_theta(self, theta):
        return self._speed_series.antideriv(self._t(theta))

    def x_of_theta(self, theta):
        return self.lazutkin_const * self._density_series.antideriv(self._t(theta))

    def dx_dtheta(self, theta):
        speed, kappa = self.profile.speed_curvature(theta)
        return self.lazutkin_const * kappa ** (2.0 / 3.0) * speed

    # -- inverse maps (vectorized Newton on the monotone forward maps) ---

    def _invert(self, forward: Callable, deriv: Callable, target, period: float, table=None):
        """Newton on ``forward(theta) = target`` modulo ``period``.

        It starts from linear interpolation in ``table``, the values of
        ``forward`` on the chart grid (evaluated here when not given).
        """
        target = np.mod(np.asarray(target, dtype=float), period)
        if table is None:
            table = forward(self.theta_grid)
        theta = np.interp(target, np.append(table, period),
                          np.append(self.theta_grid, MARKED_THETA + TWO_PI))
        for _ in range(50):
            resid = forward(theta) - target
            # wrap residual branch jumps from crossings of the cut at the marked point
            resid = np.where(resid > 0.5 * period, resid - period, resid)
            resid = np.where(resid < -0.5 * period, resid + period, resid)
            theta = theta - resid / deriv(theta)
            if np.max(np.abs(resid)) < 1e-14 * period:
                break
        else:
            raise NoConvergenceError(
                f"chart inversion hit the iteration cap, |resid|={np.max(np.abs(resid)):.3g}"
            )
        return theta

    def theta_of_x(self, x):
        return self._invert(self.x_of_theta, self.dx_dtheta, x, 1.0, self.x_grid)

    # -- weight ----------------------------------------------------------

    def mu_of_kappa(self, kappa):
        return kappa ** (1.0 / 3.0) / (2.0 * self.lazutkin_const)

    def mu_of_theta(self, theta):
        return self.mu_of_kappa(self.profile.curvature(theta))

    @property
    def mu_at_marked(self) -> float:
        return float(self.mu_of_theta(MARKED_THETA))

    # -- quadrature over the normalized coordinate and arclength ---------

    @cached_property
    def x_nodes(self) -> np.ndarray:
        """Uniform grid on [0, 1), matched thetas cached for quadrature."""
        return np.arange(self.n_grid) / self.n_grid

    @cached_property
    def theta_at_x_nodes(self) -> np.ndarray:
        return self.theta_of_x(self.x_nodes)

    @cached_property
    def kappa_at_x_nodes(self) -> np.ndarray:
        return self.profile.curvature(self.theta_at_x_nodes)

    @cached_property
    def mu_at_x_nodes(self) -> np.ndarray:
        return self.mu_of_kappa(self.kappa_at_x_nodes)

    @cached_property
    def dsigma_dx_at_x_nodes(self) -> np.ndarray:
        """Arclength density ``dsigma/dx = 1/(C_L kappa^(2/3))`` at the x nodes."""
        return 1.0 / (self.lazutkin_const * self.kappa_at_x_nodes ** (2.0 / 3.0))

    def integrate_dx(self, values):
        """Integral over one period of x of values at the x nodes (periodic trapezoid).

        Acts along the last axis: a float for one row of node values, an array
        for a stack of rows.
        """
        return self._node_mean(self._x_node_values(values))

    def integrate_dsigma(self, values):
        """Arclength integral of values at the x nodes: the trapezoid in x against dsigma/dx.

        Acts along the last axis, like `integrate_dx`.
        """
        return self._node_mean(self._x_node_values(values) * self.dsigma_dx_at_x_nodes)

    def _x_node_values(self, values) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        if vals.shape[-1:] != (self.n_grid,):
            raise ValueError("values must match the chart grid")
        return vals

    @staticmethod
    def _node_mean(vals: np.ndarray):
        mean = np.mean(vals, axis=-1)
        return float(mean) if vals.ndim == 1 else mean


@dataclass(frozen=True)
class BoundaryFrame:
    """The boundary table of one chart: its read-only grid columns, dumped by `table`."""

    chart: LazutkinChart

    @property
    def profile(self) -> DomainProfile:
        return self.chart.profile

    @property
    def n_samples(self) -> int:
        return self.chart.n_grid

    def table(self) -> dict:
        """Columns for the frame dump."""
        c = self.chart
        return {"theta": c.theta_grid, "sigma": c.sigma_grid, "kappa": c.kappa_grid,
                "x": c.x_grid, "mu": c.mu_grid}


def build_frame(profile: DomainProfile, n_samples: int = DEFAULT_FRAME_SAMPLES) -> BoundaryFrame:
    """Tabulate boundary data on a uniform grid of ``n_samples`` (even, >= 256) points
    starting at the marked point: the chart's grid table."""
    return BoundaryFrame(LazutkinChart(profile, n_samples))


@dataclass(frozen=True)
class ClosenessReport:
    """Sup-norm distances of the Lazutkin weight from its circle value."""

    eps: float                 # sup |mu - pi|, the value consumed by certificates
    derivative_sup: tuple      # sup |mu^(m)| for m = 1..order
    order: int

    @property
    def eps_all(self) -> float:
        """Max over the weight offset and all derivative sup-norms."""
        return max(self.eps, *self.derivative_sup) if self.derivative_sup else self.eps


def closeness_report(frame: BoundaryFrame, order: int | None = None) -> ClosenessReport:
    """Measure how far the Lazutkin weight sits from the circle's constant pi.

    Derivative sup-norms are obtained spectrally from the weight sampled on
    the uniform x grid; the scalar ``eps`` is the plain C0 distance, which is
    what the angle and contraction estimates consume (their derivation only
    uses ``|mu| <= pi + eps`` and needs ``eps < pi/2``).
    """
    chart = frame.chart
    if order is None:
        order = chart.profile.smoothness_order
    mu_vals = chart.mu_at_x_nodes
    eps_c0 = float(np.max(np.abs(mu_vals - np.pi)))

    n = chart.n_grid
    spec = np.fft.rfft(mu_vals)
    # drop the roundoff floor: high derivatives amplify mode k by (2 pi k)^m,
    # which would otherwise turn 1e-16 grid noise into the dominant term
    spec[np.abs(spec) < 1e-13 * np.abs(spec[0])] = 0.0
    freq = TWO_PI * np.arange(n // 2 + 1)  # d/dx frequencies for period-1 functions
    sups = []
    for m in range(1, order + 1):
        dm = spec * (1j * freq) ** m
        if m % 2:
            dm[-1] = 0.0  # odd derivative of the Nyquist mode is not representable
        sups.append(float(np.max(np.abs(np.fft.irfft(dm, n=n)))))
    return ClosenessReport(eps=eps_c0, derivative_sup=tuple(sups), order=order)


# -- domain spec files -------------------------------------------------------


def json_value(payload, key: str, convert: Callable, default=None, source: str = "input"):
    """``convert(payload[key])``, or ``convert(default)`` for an absent key with a default.

    A non-object payload, a missing key or a value ``convert`` rejects raises
    ValueError naming it, so a malformed input file ends in a message.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{source} must be a JSON object")
    if key not in payload and default is None:
        raise ValueError(f"{source} lacks the key {key!r}")
    value = payload.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{source} key {key!r} has a malformed value {value!r}") from None


def float_list(value) -> np.ndarray:
    """A JSON list of numbers as a float vector; anything else raises ValueError."""
    vec = np.asarray(value, dtype=float)
    if vec.ndim != 1:
        raise ValueError("expected a list of numbers")
    return vec


def load_domain_spec(path) -> tuple[DomainProfile, int]:
    """Read a domain spec JSON file; returns (profile, frame_samples)."""
    with open(path) as fh:
        payload = json.load(fh)
    coeffs = json_value(payload, "radial_cosine_coeffs", float_list, [], "domain spec")
    order = json_value(payload, "smoothness_order", int, DEFAULT_SMOOTHNESS, "domain spec")
    n = json_value(payload, "frame_samples", int, DEFAULT_FRAME_SAMPLES, "domain spec")
    unknown = set(payload) - {"radial_cosine_coeffs", "smoothness_order", "frame_samples"}
    if unknown:
        raise ValueError(f"unknown domain spec keys: {sorted(unknown)}")
    return build_profile(coeffs, order), n
