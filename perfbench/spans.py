"""Span recorder for the traced benchmark run.

Each public function listed in ``WRAPPED`` is replaced, for the length of a
``with installed(recorder):`` block, by a wrapper that records a span (name,
start, end, parent) and a few counts taken from its arguments and result.
The wrapper is bound under every name the package's modules know the function
by (``operator.sigma_p`` as well as ``functionals.sigma_p``), and for chart
methods on the ``LazutkinChart`` class, so calls made inside the package are
timed too. The original objects are put back when the block ends; nothing in
the program itself changes.

Spans are kept in memory and written out by the caller when the run ends.
The program runs single-threaded under the benchmark (``RIGIDITY_LAB_THREADS``
is unset and no ``threads`` argument is passed), so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

#: (layer, function) pairs timed in a traced run; the layer is the module.
WRAPPED = (
    ("geometry", "build_frame"),
    ("geometry", "LazutkinChart.x_of_theta"),
    ("geometry", "LazutkinChart.sigma_of_theta"),
    ("geometry", "LazutkinChart.theta_of_x"),
    ("geometry", "closeness_report"),
    ("billiards", "compute_orbits"),
    ("billiards", "maximal_marked_orbit"),
    ("billiards", "fit_alpha_beta"),
    ("billiards", "shoot_orbit"),
    ("billiards", "genericity_report"),
    ("functionals", "robin_data"),
    ("functionals", "sigma_p"),
    ("operator", "contraction_certificate"),
    ("operator", "assemble_T"),
    ("operator", "assemble_T_star_R"),
    ("operator", "gamma_norm"),
    ("operator", "neumann_invert"),
    ("operator", "lstsq_invert"),
    ("traces", "heat_defect"),
    ("traces", "build_trace_data"),
    ("reconstruction", "rigidity_suite"),
    ("reconstruction", "recover_robin"),
    ("cli", "main"),
)

LAYERS = ("geometry", "billiards", "functionals", "operator", "traces", "reconstruction", "cli")


class Recorder:
    """Spans and per-unit counts of one traced run."""

    def __init__(self):
        self.spans = []          # [unit, name, start, end, parent index or None]
        self.units = []          # per finished unit: {"unit", "wall_s", "counts", "keys", "maxima"}
        self._stack = []
        self._unit = None

    def begin_unit(self, unit: int) -> None:
        self._unit = {"unit": unit, "counts": defaultdict(float),
                      "keys": defaultdict(set), "maxima": {}}

    def end_unit(self, wall_s: float) -> None:
        self._unit["wall_s"] = wall_s
        self.units.append(self._unit)
        self._unit = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        unit = self._unit["unit"] if self._unit is not None else None
        self.spans.append([unit, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    # counts taken where the work happens
    def add(self, name: str, value: float) -> None:
        if self._unit is not None:
            self._unit["counts"][name] += value

    def key(self, name: str, key) -> None:
        if self._unit is not None:
            self._unit["keys"][name].add(key)
            self._unit["counts"][name + ".calls"] += 1

    def maximum(self, name: str, value) -> None:
        if self._unit is not None and value is not None:
            prev = self._unit["maxima"].get(name)
            self._unit["maxima"][name] = value if prev is None else max(prev, value)

    def self_times(self) -> list:
        """Per finished unit, {span name: summed self time}.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for unit, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_unit = defaultdict(lambda: defaultdict(float))
        for i, (unit, name, start, end, parent) in enumerate(self.spans):
            per_unit[unit][name] += (end - start) - child[i]
        return [per_unit[u["unit"]] for u in self.units]

    def span_records(self) -> list:
        return [
            {"unit": u, "name": n, "start": s, "end": e, "parent": p}
            for u, n, s, e, p in self.spans
        ]


def _domain(frame):
    return None if frame is None else (frame.profile, frame.n_samples)


def _points(rec, args, kwargs, result):
    rec.add("geometry.chart_points", getattr(args[1], "size", 1))


def _orbit(rec, args, kwargs, result):
    rec.add("billiards.newton_iters", result.iterations)
    frame = args[0] if args else kwargs["frame"]
    rec.key("billiards.solve", (_domain(frame), result.q))


def _neumann(rec, args, kwargs, result):
    rec.add("operator.neumann_iters", result[1].iterations)


def _certificate(rec, args, kwargs, result):
    frame = args[0] if args else kwargs["frame"]
    rec.key("operator.certificate", _domain(frame))


def _recovery(rec, args, kwargs, result):
    rec.maximum("reconstruction.holdout_max", result.holdout_residual)
    rec.maximum("reconstruction.cert_norm_max", result.certificate.numeric_norm_completed)


OBSERVERS = {
    "geometry.LazutkinChart.x_of_theta": _points,
    "geometry.LazutkinChart.sigma_of_theta": _points,
    "geometry.LazutkinChart.theta_of_x": _points,
    "billiards.maximal_marked_orbit": _orbit,
    "operator.neumann_invert": _neumann,
    "operator.contraction_certificate": _certificate,
    "reconstruction.recover_robin": _recovery,
}


def _wrap(rec: Recorder, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if observe is not None:
            observe(rec, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrappers in place inside the block, the original objects after it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "rigidity_lab" or n.startswith("rigidity_lab.")]
    undo = []

    def bind(obj, attr, wrapper):
        undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    try:
        for layer, qualname in WRAPPED:
            owner = importlib.import_module(f"rigidity_lab.{layer}")
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                bind(cls, attr, _wrap(rec, name, vars(cls)[attr]))
                continue
            orig = getattr(owner, qualname)
            wrapper = _wrap(rec, name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        bind(mod, attr, wrapper)
        yield rec
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
