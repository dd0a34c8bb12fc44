"""Smoke test of the benchmark itself at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed, finite and with its unit on every workload, that the report carries
all seven end-to-end metrics, that the span wrappers are put back after a
traced block, that a forced failing check shows up in ``fail_ratio`` and the
exit code, and that the benchmark refuses to run without the program's
sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REPORTED = ("setup_s", "units_per_s", "unit_s_p50", "unit_s_tail", "max_error",
            "fail_ratio", "peak_rss_mb")


def bench(workload, trace, cwd=run.ROOT, script=Path(run.__file__)):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_metric_lists_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in BENCH["end_to_end"]]
    assert [m["unit"] for m in BENCH["end_to_end"]] == list(run.END_TO_END.values())
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    *_, report_line, result_line = proc.stdout.splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if trace == 0:
        assert set(report["end_to_end"]) == set(REPORTED)
        for name, entry in report["end_to_end"].items():
            assert entry["unit"] and entry["samples"] >= 1, name
            assert entry["value"] is not None and math.isfinite(entry["value"]), name
    assert report["environment"]["RIGIDITY_LAB_THREADS"].startswith("unset")


def test_wrappers_restored():
    rl, _ = run.load_program()

    def bound():
        return (rl.reconstruction.recover_robin, rl.operator.sigma_p, rl.functionals.sigma_p,
                vars(rl.LazutkinChart)["x_of_theta"])

    before = bound()
    with spans.installed(spans.Recorder()):
        assert all(a is not b for a, b in zip(bound(), before))
    assert all(a is b for a, b in zip(bound(), before))


@pytest.mark.parametrize("workload, name", [("suite", "RECOVERY_TOL"), ("cli", "CLI_COEFF_TOL")])
def test_forced_failure_counts(monkeypatch, workload, name):
    monkeypatch.setattr(run, name, -1.0)
    code, report, result = run.run(workload, 7, 0.1, False)
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1
    fail_ratio = report["end_to_end"]["fail_ratio"]["value"]
    assert fail_ratio == result["failed"] / result["attempted"] > 0
    assert report["findings"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("suite", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
