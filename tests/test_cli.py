import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rigidity_lab
from rigidity_lab import cli

SRC = str(Path(rigidity_lab.__file__).resolve().parents[1])


def run(argv):
    return cli.main(argv)


def test_usage_error_exit_code(capsys):
    assert run(["domain", "dump", "--frame", "not-an-int"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_invalid_domain_exit_code(tmp_path, capsys):
    code = run(["domain", "dump", "--coeffs", "0,0,0.9", "--out", str(tmp_path)])
    assert code == 1
    assert "curvature" in capsys.readouterr().err


def test_non_finite_domain_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["domain", "dump", "--coeffs", "0,0,nan", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_domain_dump_circle(tmp_path):
    assert run(["domain", "dump", "--coeffs", "", "--frame", "512",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "frame.csv").read_text().splitlines()
    assert lines[0] == "theta,sigma,kappa,x,mu"
    mu = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert np.max(np.abs(mu - np.pi)) < 1e-9
    assert len(mu) == 512


def test_domain_report(tmp_path):
    assert run(["domain", "report", "--coeffs", "0,0,0.01", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "closeness.json").read_text())
    assert 0.02 < payload["eps"] < 0.05
    assert len(payload["derivative_sup"]) == 8


def test_orbits_table(tmp_path):
    assert run(["orbits", "--coeffs", "", "--q-max", "4", "--q-ladder", "8",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "orbits.csv").read_text().splitlines()
    assert lines[0] == "q,k,theta_k,sigma_k,x_k,phi_k,length,poincare_trace,nondegenerate"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 2.0 and abs(first[6] - 4.0) < 1e-10


def test_format_belongs_to_domain_dump(tmp_path, capsys):
    """Only `domain dump` has a table format; elsewhere --format is a usage error,
    also when it comes as a --config key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    for argv, name in ((["orbits", "--format", "json"], "orbits.csv"),
                       (["domain", "report", "--format", "json"], "closeness.json"),
                       (["domain", "report", "--config", str(cfg)], "closeness.json")):
        out = tmp_path / "refused"
        assert run([*argv, "--coeffs", "0,0,0.01", "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (out / name).exists()
    assert run(["domain", "dump", "--coeffs", "0,0,0.01", "--format", "json",
                "--out", str(tmp_path)]) == 0
    assert set(json.loads((tmp_path / "frame.json").read_text())) == {
        "theta", "sigma", "kappa", "x", "mu"}


def test_frame_zero_is_refused(tmp_path, capsys):
    """--frame 0 reaches build_frame's check instead of falling back to 512."""
    spec = tmp_path / "domain.json"
    spec.write_text(json.dumps({"radial_cosine_coeffs": [0.0, 0.0, 0.01], "frame_samples": 1024}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame": 512}))
    for source in (["--coeffs", "0,0,0.01"], ["--domain", str(spec)],
                   ["--coeffs", "", "--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(["domain", "dump", *source, "--frame", "0", "--out", str(out)]) == 1
        assert "n_samples must be even and >= 256, got 0" in capsys.readouterr().err
        assert not (out / "frame.csv").exists()


def test_domain_spec_and_coeffs_together_are_refused(tmp_path, capsys):
    """A spec file and --coeffs are two sources of one table: neither wins silently."""
    spec = tmp_path / "domain.json"
    spec.write_text(json.dumps({"radial_cosine_coeffs": [0.0, 0.0, 0.02]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coeffs": [0, 0, 0.01]}))
    out = tmp_path / "out"
    for argv, name in ((["orbits", "--coeffs", "0,0,0.01"], "orbits.csv"),
                       (["operator", "certify", "--coeffs", "0,0,0.01"], "certificate.json"),
                       (["domain", "dump", "--config", str(cfg)], "frame.csv")):
        assert run([*argv, "--domain", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--domain" in err and "--coeffs" in err
        assert not (out / name).exists()


def test_orbits_q_max_below_two_is_a_usage_error(tmp_path, capsys):
    assert run(["orbits", "--coeffs", "", "--q-max", "1", "--q-ladder", "8",
                "--out", str(tmp_path)]) == 1
    assert "usage error: --q-max must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "orbits.csv").exists()


@pytest.mark.parametrize("q_max", ["1", "0", "-3"])
def test_invariants_q_max_below_two_is_a_usage_error(tmp_path, capsys, q_max):
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--q-max", q_max, "--out", str(tmp_path)]) == 1
    assert f"usage error: --q-max must be >= 2, got {q_max}" in capsys.readouterr().err
    assert not (tmp_path / "invariants.json").exists()


@pytest.mark.parametrize("n_random", ["0", "-2"])
def test_suite_n_random_below_one_is_a_usage_error(tmp_path, capsys, n_random):
    """An empty suite would report max_error 0.0: refused, not scored."""
    assert run(["suite", "acceptance", "--grid", "small", "--n-random", n_random,
                "--out", str(tmp_path)]) == 1
    assert f"usage error: --n-random must be >= 1, got {n_random}" in capsys.readouterr().err
    assert not (tmp_path / "suite.json").exists()


def test_certificate_analytic_only(tmp_path, capsys):
    code = run(["operator", "certify", "--gamma", "3.5", "--epsilon", "0",
                "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "0.9785" in out
    payload = json.loads((tmp_path / "certificate.json").read_text())
    assert payload["pass"] is True
    assert 0.9784 < payload["analytic_bound"] < 0.9786


def test_certificate_large_eps_exit_code(tmp_path, capsys):
    code = run(["operator", "certify", "--epsilon", "0.3", "--out", str(tmp_path)])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_operator_assemble_writes_matrix(tmp_path):
    code = run(["operator", "assemble", "--coeffs", "", "--q-max", "8",
                "--jmax", "16", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "matrix.csv").exists()
    assert (tmp_path / "certificate.json").exists()


def test_invariants_reconstruct_chain(tmp_path):
    inv_dir = tmp_path / "inv"
    rc_dir = tmp_path / "rc"
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--q-max", "16", "--out", str(inv_dir)]) == 0
    payload = json.loads((inv_dir / "invariants.json").read_text())
    assert payload["normalization"] == "C_gamma=1"
    assert payload["q_max"] == 16
    assert run(["reconstruct", "--coeffs", "0,0,0.01",
                "--data", str(inv_dir / "invariants.json"), "--k0", "0",
                "--out", str(rc_dir)]) == 0
    result = json.loads((rc_dir / "reconstruction.json").read_text())
    coeffs = np.array(result["K_hat_cosine_coeffs"])
    expect = np.zeros_like(coeffs)
    expect[1], expect[2] = -1.0, 1.0
    assert np.max(np.abs(coeffs - expect)) < 1e-6
    assert result["certificate"]["numeric_norm_completed"] < 1.0


def test_reconstruct_rejects_malformed_invariants(tmp_path, capsys):
    inv_dir = tmp_path / "inv"
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--q-max", "16", "--out", str(inv_dir)]) == 0
    good = json.loads((inv_dir / "invariants.json").read_text())
    nan_entry = dict(good, d=good["d"][:5] + [float("nan")] + good["d"][6:])
    short_d = dict(good, d=good["d"][:8])
    other_normalization = dict(good, normalization="C_gamma=2")
    gappy = dict(good, provenance={"orbit_periods": [*range(2, 11), 16]})
    bad_periods = dict(good, provenance={"orbit_periods": "2..16"})
    for name, payload, message in (("nan", nan_entry, "finite"),
                                   ("short", short_d, "entries"),
                                   ("normalization", other_normalization,
                                    "'normalization' has the value 'C_gamma=2'"),
                                   ("gappy", gappy, "lacks the periods [11, 12]"),
                                   ("periods", bad_periods, "'orbit_periods' has a malformed")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        rc_dir = tmp_path / f"rc_{name}"
        assert run(["reconstruct", "--coeffs", "0,0,0.01", "--data", str(path),
                    "--k0", "0", "--out", str(rc_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not (rc_dir / "reconstruction.json").exists()


def test_reconstruct_solves_the_periods_the_data_hold(tmp_path):
    """A gappy vector (periods 2..20 plus 32, as `build_trace_data` writes it) is
    recovered from the periods it holds: the gap 21..31 is neither solved nor read."""
    frame = rigidity_lab.build_frame(rigidity_lab.build_profile([0.0, 0.0, 0.01]))
    orbits = rigidity_lab.compute_orbits(frame, [*range(2, 21), 32])
    path = tmp_path / "gappy.json"
    rigidity_lab.build_trace_data(frame, rigidity_lab.CosineSeries([0.0, -1.0, 1.0]),
                                  orbits).save(path)
    assert run(["reconstruct", "--coeffs", "0,0,0.01", "--data", str(path), "--k0", "0",
                "--out", str(tmp_path)]) == 0
    coeffs = json.loads((tmp_path / "reconstruction.json").read_text())["K_hat_cosine_coeffs"]
    expect = np.zeros(len(coeffs))
    expect[1], expect[2] = -1.0, 1.0
    assert np.max(np.abs(np.array(coeffs) - expect)) <= 1e-5


@pytest.mark.parametrize("period, shown", [(1, "[1]"), (2.5, "[2.5]"), (10**6, "[1000000]")])
def test_reconstruct_refuses_a_provenance_period_outside_2_to_q_max(tmp_path, capsys,
                                                                    monkeypatch, period, shown):
    """Refused by name before any orbit is solved, and no file is written."""
    inv_dir = tmp_path / "inv"
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--q-max", "16", "--out", str(inv_dir)]) == 0
    payload = json.loads((inv_dir / "invariants.json").read_text())
    payload["provenance"]["orbit_periods"].append(period)
    path = tmp_path / "periods.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(cli.billiards, "compute_orbits", lambda *args: pytest.fail("solved"))
    out = tmp_path / "rc"
    assert run(["reconstruct", "--coeffs", "0,0,0.01", "--data", str(path), "--k0", "0",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'orbit_periods' holds {shown}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, payload, message", [
    ("--data", {"d": [0, 0, 0], "q_max": 2}, "lacks the key 'H0'"),
    ("--data", {"d": 5, "q_max": 2, "H0": 0, "H1": 0}, "key 'd'"),
    ("--data", [1, 2, 3], "JSON object"),
    ("--domain", {"radial_cosine_coeffs": [0, 0, 0.01], "frame_samples": None},
     "key 'frame_samples'"),
    ("--domain", {"radial_cosine_coeffs": [0, 0, 0.01], "smoothness_order": "x"},
     "key 'smoothness_order'"),
])
def test_malformed_input_file_is_an_error_not_a_traceback(tmp_path, capsys, flag, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    if flag == "--data":
        argv = ["reconstruct", "--coeffs", "0,0,0.01", "--data", str(path), "--k0", "0"]
    else:
        argv = ["domain", "dump", "--domain", str(path)]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


def test_suite_deterministic_outputs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["suite", "acceptance", "--grid", "small", "--n-random", "2",
            "--q-max", "16"]
    assert run(args + ["--out", str(d1)]) == 0
    assert run(args + ["--out", str(d2)]) == 0
    assert (d1 / "suite.json").read_bytes() == (d2 / "suite.json").read_bytes()
    assert (d1 / "suite.csv").read_bytes() == (d2 / "suite.csv").read_bytes()
    payload = json.loads((d1 / "suite.json").read_text())
    assert payload["max_error"] < 1e-5


def test_suite_csv_reads_back_under_its_header(tmp_path):
    """Every suite.csv row parses to the header's fields, domain lists included."""
    assert run(["suite", "acceptance", "--grid", "small", "--n-random", "1",
                "--out", str(tmp_path)]) == 0
    with open(tmp_path / "suite.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    expected = json.loads((tmp_path / "suite.json").read_text())["rows"]
    assert len(header) == 11 and len(rows) == len(expected)
    assert any("," in row["domain"] for row in expected)  # a row that needs quoting
    for row, expect in zip(rows, expected):
        record = dict(zip(header, row))
        assert len(row) == len(header)
        assert record["domain"] == expect["domain"]
        assert record["K_label"] == expect["K_label"]
        for col in ("K0", "recovery_error_sup", "certificate_numeric"):
            assert float(record[col]) == expect[col]
        assert record["passed"] == str(expect["passed"])


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coeffs": "", "frame": 512, "out": str(tmp_path)}))
    assert run(["domain", "dump", "--config", str(cfg)]) == 0
    assert (tmp_path / "frame.csv").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coeffs": "", "bogus_key": 1}))
    assert run(["domain", "dump", "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_values_are_defaults_that_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_max": 8, "q_ladder": [64], "frame": None}))
    base = ["orbits", "--coeffs", "0,0,0.01", "--config", str(cfg), "--out", str(tmp_path)]
    assert run(base) == 0
    assert "(8 orbits)" in capsys.readouterr().out  # q = 2..8 and 64
    assert run([*base, "--q-max", "5", "--q-ladder", "8,16"]) == 0
    assert "(6 orbits)" in capsys.readouterr().out
    cfg.write_text(json.dumps({"q_max": 8}))
    assert run(base) == 0
    assert "(10 orbits)" in capsys.readouterr().out  # q = 2..8 and the ladder 16, 32, 64
    for bad in ({"q_max": 2.5}, {"q_ladder": [64, "x"]}, {"format": "xml"}, [8]):
        cfg.write_text(json.dumps(bad))
        assert run(base) == 1
        assert "usage error" in capsys.readouterr().err
    cfg.write_text(json.dumps({"override_certificate": "false"}))  # a string would read as true
    assert run(["reconstruct", "--coeffs", "0,0,0.01", "--config", str(cfg), "--data",
                str(tmp_path / "missing.json"), "--k0", "0", "--out", str(tmp_path)]) == 1
    assert "invalid value 'false'" in capsys.readouterr().err


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    """There is no thread option: --threads is a usage error, a "threads" config key
    is unknown, and RIGIDITY_LAB_THREADS is not read."""
    base = ["orbits", "--coeffs", "", "--q-max", "3", "--q-ladder", "8", "--out", str(tmp_path)]
    assert run([*base, "--threads", "2"]) == 1
    assert "usage error" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    assert run([*base, "--config", str(cfg)]) == 1
    assert "unknown config keys: ['threads']" in capsys.readouterr().err
    assert not (tmp_path / "orbits.csv").exists()
    monkeypatch.setenv("RIGIDITY_LAB_THREADS", "2")
    assert run(base) == 0


def test_negative_neumann_order_is_an_error_not_a_traceback(tmp_path, capsys):
    inv = tmp_path / "inv"
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--out", str(inv)]) == 0
    out = tmp_path / "out"
    for argv in (["reconstruct", "--coeffs", "0,0,0.01", "--data", str(inv / "invariants.json"),
                  "--k0", "0"], ["suite", "acceptance", "--n-random", "1"]):
        assert run([*argv, "--neumann-order", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Neumann order must be >= 0, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_nan_or_negative_tolerance_is_refused_by_name(tmp_path, capsys, tol):
    """No residual meets a NaN or negative tolerance: that is a bad setting, refused
    as one, not consistent data blamed as inconsistent."""
    inv = tmp_path / "inv"
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--out", str(inv)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["reconstruct", "--coeffs", "0,0,0.01", "--data", str(inv / "invariants.json"),
                    "--k0", "0", "--tol", tol, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: residual tolerance must be >= 0, got ")
    assert "inconsistent" not in err
    assert not out.exists()


@pytest.mark.parametrize("domain", [["--coeffs", "0,0,0.01"], ["--epsilon", "0"]])
@pytest.mark.parametrize("value", ["-10", "nan"])
def test_c_constant_must_be_finite_and_nonnegative(tmp_path, capsys, domain, value):
    """A negative constant would pass a failing certificate, and NaN would write a
    certificate that is not JSON; both are refused before anything is written."""
    out = tmp_path / "out"
    assert run(["operator", "certify", *domain, "--c-constant", value, "--out", str(out)]) == 1
    assert "remainder constant must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("robin", ["1e200", "-1e200", "0,1e307,1e307"])
def test_huge_robin_coefficients_are_refused_without_a_warning(tmp_path, capsys, robin):
    """A K whose heat coefficient overflows is refused as non-finite data, with
    no RuntimeWarning first (which -W error would turn into a traceback)."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["invariants", "--coeffs", "0,0,0.01", f"--robin-coeffs={robin}",
                    "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", [[], ["--tol", "inf"]])
def test_huge_invariant_data_are_refused_without_a_warning(tmp_path, capsys, tol):
    """Finite data near the float limit overflow in the recovery: refused as
    inconsistent or non-finite at any tolerance, with no RuntimeWarning first."""
    inv = tmp_path / "inv"
    assert run(["invariants", "--coeffs", "0,0,0.01", "--robin-coeffs", "0,-1,1",
                "--out", str(inv)]) == 0
    path = inv / "invariants.json"
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(dict(payload, d=[1e300] * len(payload["d"]))))
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["reconstruct", "--coeffs", "0,0,0.01", "--data", str(path),
                    "--k0", "1e300", *tol, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def _fresh_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_runs_without_scipy(tmp_path):
    """The runtime path needs numpy only: scipy is blocked before the import."""
    code = """
import sys
sys.modules["scipy"] = None
from rigidity_lab import cli
out = sys.argv[1]
coeffs = ["--coeffs", "0,0,0.01"]
print(cli.main(["invariants", *coeffs, "--robin-coeffs", "0,-1,1", "--out", out]),
      cli.main(["reconstruct", *coeffs, "--data", out + "/invariants.json",
                "--k0", "0", "--out", out]),
      cli.main(["orbits", *coeffs, "--out", out]))
"""
    proc = _fresh_python(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 0"
    for name in ("invariants.json", "reconstruction.json", "orbits.csv"):
        assert (tmp_path / name).exists()


def test_import_loads_no_scipy():
    code = """
import sys
import rigidity_lab.cli
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
