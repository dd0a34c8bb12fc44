"""Command-line front end.

Subcommands bind the modules into reproducible experiments: frame dumps,
orbit tables, invariant synthesis, operator certification, reconstruction,
and the batch acceptance suite. Outputs are deterministic (fixed summation
orders, seeded randomness, repr-formatted floats), so identical configs
produce byte-identical files.

Exit codes: 0 success, 1 input/usage error, 2 certificate failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import billiards, functionals, geometry, reconstruction, traces
from . import operator as operator_mod
from .errors import NotContractiveError, RigidityError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_coeffs(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_int_list(text: str):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _load_profile(args):
    if args.domain and args.coeffs is not None:
        raise _UsageError("--domain and --coeffs each give the table; pass one of them")
    if args.domain:
        profile, n = geometry.load_domain_spec(args.domain)
    else:
        coeffs = _parse_coeffs(args.coeffs if args.coeffs is not None else "")
        profile, n = geometry.build_profile(coeffs), geometry.DEFAULT_FRAME_SAMPLES
    # an explicit --frame, 0 included, goes to build_frame to be validated there
    return profile, (n if args.frame is None else args.frame)


def _out_path(args, name: str) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(columns: dict) -> str:
    names = list(columns)
    rows = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(rows):
        lines.append(",".join(repr(float(columns[c][i])) for c in names))
    return "\n".join(lines) + "\n"


def _config_defaults(path, sub: argparse.ArgumentParser) -> dict:
    """The --config file as defaults for the subcommand parser ``sub``: explicit flags win.

    A value goes in command-line form (a list joined by commas), so argparse
    converts it by the flag's own type. A switch takes a JSON bool, a flag
    with choices one of them, and null keeps the built-in default.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise _UsageError("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    unknown = set(payload) - set(actions)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    defaults = {}
    for key, val in payload.items():
        action = actions[key]
        if isinstance(val, list):
            val = ",".join(map(str, val))
        if val is None:
            continue
        if (action.nargs == 0 and not isinstance(val, bool)) or (
                action.choices and val not in action.choices):
            raise _UsageError(f"config key {key!r} has an invalid value {val!r}")
        defaults[key] = val if action.nargs == 0 else str(val)
    return defaults


# -- subcommands ----------------------------------------------------------------


def cmd_domain(args) -> int:
    if args.action == "report" and args.format is not None:
        raise _UsageError("--format is the frame table format of `domain dump`")
    profile, n = _load_profile(args)
    frame = geometry.build_frame(profile, n)
    if args.action == "dump":
        if args.format == "json":
            payload = {k: [float(v) for v in col] for k, col in frame.table().items()}
            path = _out_path(args, "frame.json")
            _write_text(path, _json_text(payload))
        else:
            path = _out_path(args, "frame.csv")
            _write_text(path, _csv_text(frame.table()))
        print(f"wrote {path} (N={n}, perimeter={frame.chart.perimeter!r})")
    else:
        rep = geometry.closeness_report(frame)
        payload = {
            "eps": rep.eps,
            "eps_all": rep.eps_all,
            "derivative_sup": list(rep.derivative_sup),
            "perimeter": frame.chart.perimeter,
            "lazutkin_const": frame.chart.lazutkin_const,
        }
        path = _out_path(args, "closeness.json")
        _write_text(path, _json_text(payload))
        print(f"wrote {path} (eps={rep.eps!r})")
    return 0


def _check_q_max(args) -> None:
    if args.q_max < 2:
        raise _UsageError(f"--q-max must be >= 2, got {args.q_max}")


def cmd_orbits(args) -> int:
    _check_q_max(args)
    profile, n = _load_profile(args)
    frame = geometry.build_frame(profile, n)
    qs = sorted(set(range(2, args.q_max + 1)) | set(args.q_ladder or []))
    orbits = billiards.compute_orbits(frame, qs)
    rep = billiards.genericity_report(frame, orbits)  # every return map in one pass
    bounces = lambda field: np.concatenate([getattr(orbits[q], field) for q in qs])
    per_orbit = lambda values: np.repeat(values, qs)
    theta = bounces("theta")
    cols = {"q": per_orbit(qs), "k": np.concatenate([np.arange(q) for q in qs]),
            "theta_k": theta, "sigma_k": frame.chart.sigma_of_theta(theta), "x_k": bounces("x"),
            "phi_k": bounces("phi"), "length": per_orbit([orbits[q].length for q in qs]),
            "poincare_trace": per_orbit([rep.traces[q] for q in qs]),
            "nondegenerate": per_orbit([rep.nondegenerate[q] for q in qs])}
    path = _out_path(args, "orbits.csv")
    _write_text(path, _csv_text(cols))
    print(f"wrote {path} ({len(qs)} orbits)")
    return 0


def cmd_invariants(args) -> int:
    _check_q_max(args)
    profile, n = _load_profile(args)
    frame = geometry.build_frame(profile, n)
    K = functionals.CosineSeries(_parse_coeffs(args.robin_coeffs))
    orbits = billiards.compute_orbits(frame, range(2, args.q_max + 1))
    # a K too large for floats gives inf or NaN, refused by the vector, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        data = traces.build_trace_data(frame, K, orbits)
    path = _out_path(args, "invariants.json")
    _write_text(path, _json_text(data.to_json_dict()))
    print(f"wrote {path} (q_max={data.q_max})")
    return 0


def cmd_operator(args) -> int:
    params = operator_mod.GammaSpaceParams(gamma=args.gamma, J=args.jmax, Q=args.q_max)
    if args.action == "certify" and args.coeffs is None and not args.domain:
        cert = operator_mod.contraction_certificate(
            None, params, eps=args.epsilon or 0.0, c_constant=args.c_constant
        )
    else:
        profile, n = _load_profile(args)
        frame = geometry.build_frame(profile, n)
        orbits = billiards.compute_orbits(
            frame, sorted(set(range(2, args.q_max + 1)) | set(billiards.LADDER))
        )
        T = operator_mod.assemble_T(frame.chart, orbits, params)
        fit = billiards.fit_alpha_beta(frame.chart, {q: orbits[q] for q in billiards.LADDER})
        cert = operator_mod.contraction_certificate(
            frame, params, eps=args.epsilon, fit=fit, c_constant=args.c_constant, full=T
        )
        if args.action == "assemble":
            lines = ["q\\j," + ",".join(str(int(j)) for j in T.col_j)]
            for i, q in enumerate(T.row_q):
                lines.append(
                    f"{int(q)}," + ",".join(repr(float(v)) for v in T.entries[i])
                )
            _write_text(_out_path(args, "matrix.csv"), "\n".join(lines) + "\n")
    _write_text(_out_path(args, "certificate.json"), _json_text(cert.to_json_dict()))
    status = "PASS" if cert.passed else "FAIL"
    numeric = "" if cert.numeric_norm_completed is None else (
        f" numeric_norm={cert.numeric_norm_completed!r}"
    )
    print(f"analytic_bound={cert.analytic_bound!r}{numeric} {status}")
    if not cert.passed and cert.inversion_certified:
        print("numeric contraction holds; analytic constant route fails at this eps")
    return 0 if cert.passed else 2


def cmd_reconstruct(args) -> int:
    profile, n = _load_profile(args)
    frame = geometry.build_frame(profile, n)
    data = functionals.InvariantVector.load(args.data)
    # the periods the data hold, each refused by name unless in 2..q_max, and the fit's rungs
    orbits = billiards.compute_orbits(frame, sorted(set(data.periods) | set(billiards.LADDER)))
    options = reconstruction.RecoveryOptions(
        gamma=args.gamma,
        jmax=args.jmax,
        neumann_order=args.neumann_order,
        residual_tol=args.tol,
        override_certificate=args.override_certificate,
    )
    try:
        # data too large for floats give inf or NaN, refused by the recovery, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            res = reconstruction.recover_robin(data, frame, frame.chart, orbits, args.k0, options)
    except NotContractiveError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    payload = {
        "K_hat_cosine_coeffs": [float(c) for c in res.K_hat.coeffs],
        "v_coeffs": [float(c) for c in res.v.coeffs],
        "second_order_value": res.second_order_value,
        "solve_residual": res.solve_residual,
        "holdout_residual": res.holdout_residual,
        "marked_residual": res.marked_residual,
        "data_marked_gap": res.data_marked_gap,
        "heat_residual": list(res.heat_residual),
        "lstsq_max_diff": res.lstsq_max_diff,
        "certificate": res.certificate.to_json_dict(),
    }
    path = _out_path(args, "reconstruction.json")
    _write_text(path, _json_text(payload))
    print(f"wrote {path} (solve_residual={res.solve_residual!r})")
    return 0


def cmd_suite(args) -> int:
    if args.n_random < 1:
        # an empty run would report max_error 0.0, a perfect score for no work
        raise _UsageError(f"--n-random must be >= 1, got {args.n_random}")
    if args.grid == "default":
        domains = [[], [0.0, 0.0, 0.005], [0.0, 0.0, 0.01]]
    else:
        domains = [[], [0.0, 0.0, 0.01]]
    options = reconstruction.SuiteOptions(
        frame_samples=geometry.DEFAULT_FRAME_SAMPLES if args.frame is None else args.frame,
        q_max=args.q_max,
        n_random_K=args.n_random,
        seed=args.seed,
        recovery=reconstruction.RecoveryOptions(neumann_order=args.neumann_order),
    )
    summary = reconstruction.rigidity_suite(domains, None, options)
    _write_text(_out_path(args, "suite.json"), summary.to_json() + "\n")
    _write_text(_out_path(args, "suite.csv"), summary.to_csv_text())
    print(f"suite rows={len(summary.rows)} max_error={summary.max_error!r}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="rigidity-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file with defaults for this command")
        sp.add_argument("--out", help="output directory (default: cwd)")
        sp.add_argument("--domain", help="domain spec JSON file")
        sp.add_argument("--coeffs", help="radial cosine coefficients, e.g. '0,0,0.01'")
        sp.add_argument("--frame", type=int, help="frame sample count (default 512)")

    sp = sub.add_parser("domain", help="frame dump or closeness report")
    common(sp)
    sp.add_argument("action", choices=["dump", "report"])
    sp.add_argument("--format", choices=["csv", "json"],
                    help="frame table format of `dump` (default csv)")
    sp.set_defaults(fn=cmd_domain)

    sp = sub.add_parser("orbits", help="orbit table CSV")
    common(sp)
    sp.add_argument("--q-max", type=int, default=16, dest="q_max")
    sp.add_argument("--q-ladder", type=_parse_int_list, default=list(billiards.LADDER), dest="q_ladder")
    sp.set_defaults(fn=cmd_orbits)

    sp = sub.add_parser("invariants", help="forward-synthesized invariant vector")
    common(sp)
    sp.add_argument("--robin-coeffs", required=True, dest="robin_coeffs",
                    help="cosine coefficients of the Robin function")
    sp.add_argument("--q-max", type=int, default=16, dest="q_max")
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("operator", help="matrix assembly / contraction certificate")
    common(sp)
    sp.add_argument("action", choices=["certify", "assemble"])
    sp.add_argument("--gamma", type=float, default=3.5)
    sp.add_argument("--jmax", type=int, default=48)
    sp.add_argument("--q-max", type=int, default=16, dest="q_max")
    sp.add_argument("--epsilon", type=float, help="weight offset (default: measured)")
    sp.add_argument("--c-constant", type=float, default=operator_mod.DEFAULT_C_CONSTANT,
                    dest="c_constant")
    sp.set_defaults(fn=cmd_operator)

    sp = sub.add_parser("reconstruct", help="recover the Robin function from data")
    common(sp)
    sp.add_argument("--data", required=True, help="invariant vector JSON")
    sp.add_argument("--k0", type=float, required=True, help="marked-point value of K")
    sp.add_argument("--gamma", type=float, default=3.5)
    sp.add_argument("--jmax", type=int, default=None)
    sp.add_argument("--neumann-order", type=int, default=40, dest="neumann_order")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--override-certificate", action="store_true", dest="override_certificate")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("suite", help="batch forward/inverse acceptance harness")
    common(sp)
    sp.add_argument("action", choices=["acceptance"])
    sp.add_argument("--grid", choices=["default", "small"], default="default")
    sp.add_argument("--q-max", type=int, default=16, dest="q_max")
    sp.add_argument("--n-random", type=int, default=20, dest="n_random")
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--neumann-order", type=int, default=40, dest="neumann_order")
    sp.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            sub = parser._subparsers._group_actions[0].choices[args.command]
            sub.set_defaults(**_config_defaults(args.config, sub))
            args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RigidityError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
