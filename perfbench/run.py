"""End-to-end and per-layer benchmark of rigidity-lab.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one caller: a unit starts when the
previous one has ended. Units cycle over a short list of inputs generated
from ``--seed`` at set-up, and a run measures whole cycles for at least
``--seconds`` seconds, so each input is timed equally often.

  suite  one ``rigidity_suite([domain], K_list)`` call with default
         ``SuiteOptions`` (N=512, q_max=16) and 20 seeded K, cycling over the
         acceptance grid circle, a2=0.005, a2=0.01. The acceptance traffic:
         recovery dominates and redoes K-independent work for each K.
  deep   one N=2048 study of one domain (a2 in {0.005, 0.01}): frame, orbits
         for q=2..48 and 64..1024, genericity report, shooting cross-check,
         trace data and one recover_robin (q_max=48, jmax=32,
         neumann_order=80) for a seeded K. Chart evaluation and orbit solves
         dominate; recovery runs once with nothing to share.
  cli    one fresh ``python -m rigidity_lab.cli`` process, cycling
         ``invariants`` (seeded K), ``reconstruct`` on that file and
         ``orbits``, in a temporary directory. Import dominates.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics, measured with the wrappers of ``spans.py`` installed for
the second half of the run and removed afterwards. The line before the result
is a report: with ``--trace 0`` all seven end-to-end metrics with their
sample counts, with ``--trace 1`` the layer shares, and in both the
environment and the findings. Report, result and spans are also written
under ``.perfbench_out/``. ``setup_s`` is the median over five fresh
processes, each timed from spawn to the point where its first unit would
start.

When any unit fails (a raised error, a non-zero exit, a NaN or a failed
check) the result reads ``"correct": false`` and the process exits 1. When the
program cannot be imported from ``src/`` it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("suite", "deep", "cli")

#: end-to-end metrics on the result line of ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_s_p50": "s",
    "unit_s_tail": "s",
    "peak_rss_mb": "MB",
}

RECOVERY_TOL = 1e-5     # acceptance tolerance on the recovery sup error
SHOOTING_TOL = 1e-10    # shooting vs variational bounce positions (radians)
CLI_COEFF_TOL = 1e-5    # recovered vs seeded cosine coefficients

SUITE_DOMAINS = ([], [0.0, 0.0, 0.005], [0.0, 0.0, 0.01])
SUITE_K_COUNT = 20
K_JMAX = 6
DEEP_DOMAINS = ([0.0, 0.0, 0.005], [0.0, 0.0, 0.01])
DEEP_N = 2048
DEEP_Q_MAX = 48
DEEP_QS = tuple(range(2, DEEP_Q_MAX + 1)) + (64, 128, 256, 512, 1024)
DEEP_SHOOT_QS = (8, 16, 32, 64)
CLI_COEFFS = "0,0,0.01"
CLI_COMMANDS = ("invariants", "reconstruct", "orbits")
CLI_TIMEOUT_S = 120.0
SETUP_PROBES = 5
ERROR_GRID = 2048


# -- program and inputs ----------------------------------------------------------


def load_program():
    """Import rigidity_lab from this checkout's ``src/``; returns (module, import seconds)."""
    if not (SRC / "rigidity_lab" / "__init__.py").is_file():
        print(f"perfbench: no rigidity_lab package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rigidity_lab
    import rigidity_lab.cli
    seconds = time.perf_counter() - start
    if Path(rigidity_lab.__file__).resolve().parent != SRC / "rigidity_lab":
        print(f"perfbench: rigidity_lab imported from {rigidity_lab.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return rigidity_lab, seconds


def draw_coeffs(rng, marked: bool):
    """Cosine coefficients of a random K on e_1..e_6 (the acceptance draw).

    Without ``marked`` the coefficients sum to zero, i.e. K(0) = 0, exactly as
    the acceptance suite draws them; with it a random constant is added, so
    K(0) is that constant.
    """
    c = [0.0] * (K_JMAX + 1)
    tail = rng.standard_normal(K_JMAX)
    tail -= tail.mean()
    c[1:] = [float(v) for v in tail]
    if marked:
        c[0] = float(rng.standard_normal())
    return c


def make_cycle(rl, workload: str, seed: int) -> list:
    """The inputs one cycle of units runs through, generated from the seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if workload == "suite":
        ks = [rl.CosineSeries(draw_coeffs(rng, marked=False)) for _ in range(SUITE_K_COUNT)]
        return [(domain, ks) for domain in SUITE_DOMAINS]
    if workload == "deep":
        return [(domain, rl.CosineSeries(draw_coeffs(rng, marked=True))) for domain in DEEP_DOMAINS]
    coeffs = draw_coeffs(rng, marked=True)
    return [(command, coeffs) for command in CLI_COMMANDS]


def sup_error(coeffs_a, coeffs_b) -> float:
    """Sup over a uniform x grid of the difference of two cosine series."""
    import numpy as np

    n = max(len(coeffs_a), len(coeffs_b))
    diff = np.zeros(n)
    diff[: len(coeffs_a)] += coeffs_a
    diff[: len(coeffs_b)] -= coeffs_b
    x = np.arange(ERROR_GRID) / ERROR_GRID
    return float(np.max(np.abs(np.cos(2.0 * np.pi * np.outer(x, np.arange(n))) @ diff)))


# -- workloads ---------------------------------------------------------------------
#
# ``run`` is the timed part of a unit; ``check`` turns its output into
# (recovery error or None, list of failed checks) outside the timed region.
# Checks compare as ``not (value <= tol)`` so that a NaN fails.


class Suite:
    def __init__(self, rl, workdir):
        self.rl = rl

    def run(self, item):
        domain, ks = item
        return self.rl.rigidity_suite([domain], ks)

    traced_run = run

    def check(self, item, summary):
        errors = [row["recovery_error_sup"] for row in summary.rows]
        problems = [f"{row['domain']} {row['K_label']}: recovery error {e!r} > {RECOVERY_TOL}"
                    for row, e in zip(summary.rows, errors) if not (e <= RECOVERY_TOL)]
        if len(errors) != len(item[1]):
            problems.append(f"{len(errors)} rows for {len(item[1])} K")
        return (max(errors) if errors else None), problems


class Deep:
    def __init__(self, rl, workdir):
        self.rl = rl

    def run(self, item):
        import numpy as np

        rl = self.rl
        domain, K = item
        frame = rl.build_frame(rl.build_profile(domain), DEEP_N)
        orbits = rl.compute_orbits(frame, DEEP_QS)
        rl.genericity_report(frame, orbits)
        shooting = 0.0
        for q in DEEP_SHOOT_QS:
            thetas, _ = rl.shoot_orbit(frame, q, orbits[q].phi[0])
            gap = np.angle(np.exp(1j * (thetas[:q] - orbits[q].theta)))
            shooting = max(shooting, float(np.max(np.abs(gap))))
        rl.build_trace_data(frame, K, orbits)
        data = rl.robin_data(frame, frame.chart, K,
                             {q: orbits[q] for q in range(2, DEEP_Q_MAX + 1)},
                             rl.heat_defect(frame, K))
        options = rl.RecoveryOptions(jmax=32, neumann_order=80)
        result = rl.recover_robin(data, frame, frame.chart, orbits, K.at_zero, options)
        return shooting, result.K_hat.coeffs

    traced_run = run

    def check(self, item, output):
        shooting, k_hat = output
        error = sup_error(k_hat, item[1].coeffs)
        problems = []
        if not (error <= RECOVERY_TOL):
            problems.append(f"{item[0]}: recovery error {error!r} > {RECOVERY_TOL}")
        if not (shooting <= SHOOTING_TOL):
            problems.append(f"{item[0]}: shooting gap {shooting!r} > {SHOOTING_TOL}")
        return error, problems


class Cli:
    """Fresh CLI processes; the in-process replica runs ``cli.main`` on the same argv."""

    def __init__(self, rl, workdir):
        self.rl = rl
        self.workdir = workdir
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.peak_rss_kb = 0

    def argv(self, item):
        command, coeffs = item
        out = ["--out", str(self.workdir)]
        if command == "invariants":
            text = ",".join(repr(c) for c in coeffs)
            return ["invariants", "--coeffs", CLI_COEFFS, f"--robin-coeffs={text}"] + out
        if command == "reconstruct":
            data = str(self.workdir / "invariants.json")
            return ["reconstruct", "--coeffs", CLI_COEFFS, "--data", data,
                    f"--k0={sum(coeffs)!r}"] + out
        return ["orbits", "--coeffs", CLI_COEFFS, "--q-max", "16"] + out

    def run(self, item):
        argv = [sys.executable, "-m", "rigidity_lab.cli"] + self.argv(item)
        log = self.workdir / "child.log"
        with open(log, "w") as fh:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            status, usage = wait_child(proc, CLI_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return status, log.read_text()

    def replica(self, item):
        """In-process ``cli.main`` on the unit's argv; returns (exit code, seconds)."""
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.rl.cli.main(self.argv(item))
        return code, time.perf_counter() - start

    def traced_run(self, item):
        code, _ = self.replica(item)
        return code, ""

    def check(self, item, output):
        code, log = output
        if code != 0:
            return None, [f"{item[0]}: exit code {code}: {log.strip()[-300:]}"]
        if item[0] != "reconstruct":
            return None, []
        payload = json.loads((self.workdir / "reconstruction.json").read_text())
        got = payload["K_hat_cosine_coeffs"]
        want = item[1]
        padded = want + [0.0] * (len(got) - len(want))
        gap = max(abs(a - b) for a, b in zip(got, padded)) if len(got) >= len(want) else math.inf
        problems = [f"reconstruct: coefficient gap {gap!r} > {CLI_COEFF_TOL}"
                    ] if not (gap <= CLI_COEFF_TOL) else []
        return sup_error(got, want), problems


def wait_child(proc, timeout: float):
    """Wait for a child, killing it after ``timeout``; returns (exit code, rusage)."""
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


# -- measurement -------------------------------------------------------------------


class Ledger:
    """Attempted and failed units, recovery errors and findings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.findings = []

    def record(self, label: str, problems: list, error) -> bool:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)
        if problems:
            self.failed += 1
            self.findings.extend(f"{label}: {p}" for p in problems)
        return not problems


def attempt(work, check, item, label: str, ledger: Ledger):
    """Run one unit; a raised error counts as a failed unit. Returns (seconds, ok)."""
    start = time.perf_counter()
    try:
        output = work(item)
    except Exception as exc:
        seconds = time.perf_counter() - start
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        ledger.record(label, [f"raised {tb}"], None)
        return seconds, False
    seconds = time.perf_counter() - start
    try:
        error, problems = check(item, output)
    except Exception as exc:
        error, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
    return seconds, ledger.record(label, problems, error)


def measure(work, check, cycle, seconds: float, ledger: Ledger, tag: str,
            before=None, after=None) -> dict:
    """Run whole cycles for at least ``seconds``; per-unit times and positions."""
    times, positions, passed = [], [], 0
    start = time.perf_counter()
    deadline = start + seconds
    unit = 0
    while unit % len(cycle) or unit == 0 or time.perf_counter() < deadline:
        pos = unit % len(cycle)
        if before:
            before(unit)
        t, ok = attempt(work, check, cycle[pos], f"{tag} unit {unit}", ledger)
        if after:
            after(unit, cycle[pos], t)
        times.append(t)
        positions.append(pos)
        passed += ok
        unit += 1
    return {"times": times, "positions": positions, "passed": passed,
            "elapsed": time.perf_counter() - start}


def cycle_median(times, positions) -> float:
    """Mean over cycle positions of each position's median unit time.

    Inputs of one cycle differ in cost by up to a quarter; a plain median of
    such a mix jumps between inputs with the parity of the unit count, while
    this stays put. It equals the median when all inputs cost the same.
    """
    by_pos = {}
    for t, p in zip(times, positions):
        by_pos.setdefault(p, []).append(t)
    return statistics.fmean(statistics.median(v) for v in by_pos.values())


def tail(times):
    """Highest whole percentile with at least ten samples beyond it (else the median)."""
    n = len(times)
    pct = max(50, math.floor(100.0 * (1.0 - 10.0 / n)))
    ordered = sorted(times)
    rank = (n - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return value, pct, sum(1 for t in times if t > value)


def setup_probes(workload: str, seed: int, env: dict) -> list:
    """Time fresh processes from start to the first unit: (setup seconds, import seconds)."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
        finally:
            proc.stdout.close()
            wait_child(proc, CLI_TIMEOUT_S)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        samples.append((ready, json.loads(line)["import_s"]))
    return samples


# -- environment record ------------------------------------------------------------


def environment(threads_was_set: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "RIGIDITY_LAB_THREADS": "unset" + (" (removed from the caller's environment)"
                                           if threads_was_set else ""),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> dict:
    """Thread variables as set for this process and OpenBLAS's own thread count."""
    import ctypes

    import numpy

    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    record = {n: os.environ.get(n, "unset") for n in names}
    record["openblas_threads"] = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["openblas_threads"] = fn()
                return record
    return record


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rigidity_lab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- the run ---------------------------------------------------------------------


def end_to_end(workload, measured, ledger, setup, bench) -> dict:
    times, positions = measured["times"], measured["positions"]
    value, pct, beyond = tail(times)
    if workload == "cli":
        rss_kb = bench.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finite = [e for e in ledger.errors if math.isfinite(e)]
    return {
        "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s",
                    "samples": len(setup)},
        "units_per_s": {"value": measured["passed"] / measured["elapsed"], "unit": "1/s",
                        "samples": len(times)},
        "unit_s_p50": {"value": cycle_median(times, positions), "unit": "s",
                       "samples": len(times)},
        "unit_s_tail": {"value": value, "unit": "s", "percentile": pct,
                        "samples": len(times), "beyond": beyond},
        "max_error": {"value": max(finite) if len(finite) == len(ledger.errors) and finite
                      else None, "unit": "abs", "samples": len(ledger.errors)},
        "fail_ratio": {"value": ledger.failed / ledger.attempted, "unit": "ratio",
                       "samples": ledger.attempted},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB", "samples": 1},
    }


def per_layer(rec, untraced, traced, replicas, ledger, setup) -> dict:
    """Per-layer metrics of a traced run; calls and counts are per unit."""
    n = len(rec.units)
    positions = traced["positions"]
    selfs = rec.self_times()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def self_median(names):
        return cycle_median([sum(s.get(k, 0.0) for k in names) for s in selfs], positions)

    calls = {}
    for _, name, *_ in rec.spans:
        calls[name] = calls.get(name, 0) + 1
    for layer, qualname in spans.WRAPPED:
        name = f"{layer}.{qualname}"
        put(f"{name}.calls", calls.get(name, 0) / n, "count")
        put(f"{name}.self_s", self_median([name]), "s")
    for layer in spans.LAYERS:
        names = [f"{layer}.{q}" for lay, q in spans.WRAPPED if lay == layer]
        put(f"{layer}.self_s", self_median(names), "s")

    def total(name):
        return sum(u["counts"].get(name, 0.0) for u in rec.units)

    def reuse(name):
        ratios = [len(u["keys"][name]) / u["counts"][name + ".calls"]
                  for u in rec.units if u["counts"].get(name + ".calls")]
        return statistics.median(ratios) if ratios else 0.0

    def worst(name):
        values = [u["maxima"][name] for u in rec.units if name in u["maxima"]]
        return max(values) if values else 0.0

    put("geometry.chart_points", total("geometry.chart_points") / n, "count")
    put("billiards.newton_iters", total("billiards.newton_iters") / n, "count")
    put("billiards.solve_reuse", reuse("billiards.solve"), "ratio")
    put("operator.neumann_iters", total("operator.neumann_iters") / n, "count")
    put("operator.certificate_reuse", reuse("operator.certificate"), "ratio")
    put("reconstruction.holdout_max", worst("reconstruction.holdout_max"), "abs")
    put("reconstruction.cert_norm_max", worst("reconstruction.cert_norm_max"), "norm")
    finite = [e for e in ledger.errors if math.isfinite(e)]
    put("reconstruction.max_error", max(finite) if finite else 0.0, "abs")

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    put("cli.import_s", statistics.median(i for _, i in setup), "s")
    for command in CLI_COMMANDS:
        samples = [r["compute"] for r in replicas if r["command"] == command]
        put(f"cli.{command}.compute_s", median_or_zero(samples), "s")
    put("cli.process_overhead_s", median_or_zero([r["wall"] - r["compute"] for r in replicas]),
        "s")

    # on cli the wrappers act only on the in-process replica, so its untraced
    # time is the base the traced units compare against
    if replicas:
        base = cycle_median([r["compute"] for r in replicas], [r["position"] for r in replicas])
    else:
        base = cycle_median(untraced["times"], untraced["positions"])
    put("tracing.overhead_s", cycle_median(traced["times"], positions) - base, "s")
    return metrics


def layer_shares(rec) -> dict:
    """Share of traced unit wall time spent in each layer's own code."""
    wall = sum(u["wall_s"] for u in rec.units)
    selfs = rec.self_times()
    shares = {}
    for layer in spans.LAYERS:
        own = sum(v for s in selfs for k, v in s.items() if k.startswith(layer + "."))
        shares[layer] = own / wall
    shares["benchmark"] = 1.0 - sum(shares.values())
    return shares


def process_shares(metrics, untraced) -> dict:
    """Shares of a CLI process's median wall time: fresh import, compute, the rest."""
    wall = cycle_median(untraced["times"], untraced["positions"])
    imp = metrics["cli.import_s"]["value"]
    compute = statistics.fmean(metrics[f"cli.{c}.compute_s"]["value"] for c in CLI_COMMANDS)
    return {"wall_s_p50": wall, "import": imp / wall, "compute": compute / wall,
            "other": 1.0 - (imp + compute) / wall}


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (exit code, report, result)."""
    threads_was_set = os.environ.pop("RIGIDITY_LAB_THREADS", None) is not None
    rl, _ = load_program()
    cycle = make_cycle(rl, workload, seed)
    env = dict(os.environ)
    OUT.mkdir(exist_ok=True)
    setup = setup_probes(workload, seed, env)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        bench = {"suite": Suite, "deep": Deep, "cli": Cli}[workload](rl, workdir)
        ledger = Ledger()
        attempt(bench.run, bench.check, cycle[0], "warm-up", ledger)
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "client": "closed loop, 1 caller", "cycle": len(cycle)}
        if not trace:
            measured = measure(bench.run, bench.check, cycle, seconds, ledger, "unit")
            report["end_to_end"] = end_to_end(workload, measured, ledger, setup, bench)
            metrics = {k: {"value": report["end_to_end"][k]["value"], "unit": u}
                       for k, u in END_TO_END.items()}
        else:
            untraced, traced, replicas, rec = traced_phases(workload, bench, cycle, seconds,
                                                            ledger)
            metrics = per_layer(rec, untraced, traced, replicas, ledger, setup)
            report["layer_shares"] = layer_shares(rec)
            if workload == "cli":
                report["process_shares"] = process_shares(metrics, untraced)
            (OUT / f"{workload}-seed{seed}-spans.json").write_text(
                json.dumps(rec.span_records()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["findings"] = ledger.findings[:50]
    report["environment"] = environment(threads_was_set)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    return (0 if result["correct"] else 1), report, result


def traced_phases(workload, bench, cycle, seconds, ledger):
    """Untraced first half, then the second half with the wrappers installed.

    On cli each untraced process is followed by an untraced in-process
    replica on the same argv, which splits the process wall time into
    compute and the rest.
    """
    replicas = []

    def after_untraced(unit, item, wall):
        if workload != "cli":
            return
        code, compute = bench.replica(item)
        ledger.record(f"replica unit {unit}", [] if code == 0 else [f"exit code {code}"], None)
        replicas.append({"command": item[0], "position": unit % len(cycle),
                         "wall": wall, "compute": compute})

    untraced = measure(bench.run, bench.check, cycle, seconds / 2, ledger, "untraced",
                       after=after_untraced)
    rec = spans.Recorder()
    with spans.installed(rec):
        traced = measure(bench.traced_run, bench.check, cycle, seconds / 2, ledger, "traced",
                         before=rec.begin_unit,
                         after=lambda unit, item, wall: rec.end_unit(wall))
    return untraced, traced, replicas, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rigidity-lab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        rl, import_s = load_program()
        make_cycle(rl, args.workload, args.seed)
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    code, report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
