"""Reproducible experiment driver.

Subcommands run the verification suites and the example pipelines and
print one JSON report to stdout (CSV is a lossy convenience projection).
Randomness enters only through --seed; sub-seeds are derived with numpy's
SeedSequence spawning in a fixed order, so reports are byte-identical for
identical configurations.  Timing lines go to stderr to keep stdout
deterministic.  Exit codes: 0 pass, 1 check failure, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import oracle, suites
from .compiler import (
    compile_circuit,
    parse_circuit,
    predicted_signal_factor,
    program_to_dict,
    run_program,
)
from .encoding import class_trace, encode_state_optimal
from .errors import MAX_SHOTS, REFERENCE_QUBITS, VECTOR_QUBITS, ParseError, SearchFailure, check_qubits
from .lindblad import (
    coherence_steadiness,
    coherence_values,
    decay_rate_fit,
    ite_block_residual,
    parse_hamiltonian,
)
from .measure import amplitude_from_traces, assistant_traces
from .paulis import parse_bits
from .search import (
    SearchOracle,
    run_protocol,
    sample_outcomes,
    search_distribution,
    x_basis_probabilities,
)
from .suites import split_seeds

SCHEMA_VERSION = 1
# --dt-audit keeps 2 dt sum(lambda) at or below this, inside RK4's asymptotic
# range, where halving the step divides the error by about 16
AUDIT_STEP_LIMIT = 0.5
SEED_RULE = "numpy SeedSequence(seed).spawn, one child per suite in report order"


def _emit(report: dict, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
        return
    rows = csv_rows if csv_rows is not None else [report]
    keys = sorted({k for row in rows for k in row})
    print(",".join(keys))
    for row in rows:
        print(",".join(_csv_cell(row.get(k)) for k in keys))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_verify_gates(args) -> int:
    suite = suites.gate_library_suite(tol=args.tolerance)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify-gates",
        "tolerance": args.tolerance,
        "rows": suite["rows"],
        "pass": suite["pass"],
    }
    _emit(report, args.format, csv_rows=suite["rows"])
    return 0 if suite["pass"] else 1


def cmd_amplitude(args) -> int:
    with open(args.circuit) as fh:
        circ = parse_circuit(fh.read())
    n = circ.n
    check_qubits(n, VECTOR_QUBITS, "amplitude")
    alpha = "0" * n if args.alpha is None else args.alpha
    parse_bits(alpha, n)
    prog = compile_circuit(circ)
    plus = np.full(2**n, 2.0 ** (-n / 2))
    out = run_program(prog, encode_state_optimal(plus))
    trace_x, trace_y = assistant_traces(out, alpha)
    amp = amplitude_from_traces(out, (trace_x, trace_y))

    want = oracle.amplitude_plus_u_zero(circ, int(alpha, 2))
    residual = abs(amp - want)

    records = [
        {"observable": f"{op}(x)Q_{alpha}", "value_re": trace, "value_im": 0.0,
         "shots": "exact", "seed": None}
        for op, trace in (("X", trace_x), ("Y", trace_y))
    ]
    amplification = predicted_signal_factor(n, prog.hadamard_count, 0.5)
    ok = residual < args.tolerance
    if args.dump_channels:
        with open(args.dump_channels, "w") as fh:
            json.dump(program_to_dict(prog), fh, indent=2, sort_keys=True)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "amplitude",
        "circuit": args.circuit,
        "n": n,
        "alpha": alpha,
        "k": prog.hadamard_count,
        "eta": prog.eta_total,
        "gamma": out.gamma,
        "c_alpha_pqc_re": amp.real,
        "c_alpha_pqc_im": amp.imag,
        "c_alpha_oracle_re": want.real,
        "c_alpha_oracle_im": want.imag,
        "raw_signal_re": trace_x,
        "raw_signal_im": trace_y,
        "amplification": amplification,
        "records": records,
        "residual": residual,
        "tolerance": args.tolerance,
        "pass": bool(ok),
    }
    _emit(report, args.format, csv_rows=[{k: v for k, v in report.items() if k != "records"}])
    return 0 if ok else 1


def _ground_vector(proj):
    """A real unit vector in the ground space with projector proj, or None."""
    for j in range(proj.shape[0]):
        w = proj[:, j].real
        norm = np.linalg.norm(w)
        if norm < 1e-6:
            continue
        w = w / norm
        if np.linalg.norm(proj @ w - w) < 1e-9:
            return w
    return None


def cmd_lindblad(args) -> int:
    with open(args.hamiltonian) as fh:
        h = parse_hamiltonian(fh.read())
    n = h.n
    check_qubits(n, REFERENCE_QUBITS, "lindblad")
    proj, e_g = oracle.ground_projector(h)
    plus = np.full(2**n, 2.0 ** (-n / 2))
    state0 = encode_state_optimal(plus)
    record_every = max(1, int(round(0.01 / args.dt)))
    traj, block_residual = ite_block_residual(state0, h, args.t_max, args.dt, record_every)

    frustration_free = abs(e_g + h.rate_sum()) < 1e-9
    report = {
        "schema": SCHEMA_VERSION,
        "command": "lindblad",
        "hamiltonian": args.hamiltonian,
        "n": n,
        "t_max": args.t_max,
        "dt": args.dt,
        "frustration_free": frustration_free,
        "ground_energy": e_g,
        "block_residual_vs_ite": block_residual,
        "steadiness_max_derivative": None,
        "decay_rate_fit": None,
        "decay_rate_expected": None,
        "dt_audit_ratio": None,
    }
    ok = block_residual < args.tolerance
    ground = _ground_vector(proj) if frustration_free else None
    if ground is not None:
        steadiness = coherence_steadiness(traj, ground)
        report["steadiness_max_derivative"] = steadiness
        ok = ok and steadiness < 1e-6
    if not frustration_free:
        rate_expected = e_g + h.rate_sum()
        rate = decay_rate_fit(traj, min(1.0, args.t_max / 2))
        report["decay_rate_fit"] = rate
        report["decay_rate_expected"] = float(rate_expected)
        ok = ok and abs(rate - rate_expected) / rate_expected < 0.05
    if args.dt_audit:
        # about 0.08, or finer where the ratio would leave RK4's fourth-order
        # range: 2 dt sum(lambda) <= AUDIT_STEP_LIMIT
        asymptotic = math.ceil(2 * args.t_max * h.rate_sum() / AUDIT_STEP_LIMIT)
        coarse = args.t_max / max(1, round(args.t_max / 0.08), asymptotic)
        _, r_coarse = ite_block_residual(state0, h, args.t_max, coarse, 1000)
        _, r_fine = ite_block_residual(state0, h, args.t_max, coarse / 2, 1000)
        report["dt_audit_ratio"] = float(r_coarse / r_fine) if r_fine > 0 else None
    report["pass"] = bool(ok)
    if args.trajectory_csv:
        coherence_vals = None
        if ground is not None:
            coherence_vals = coherence_values(traj, ground).real.tolist()
        with open(args.trajectory_csv, "w") as fh:
            fh.write("t,trace_re,block_norm,coherence_re\n")
            for i, t in enumerate(traj.times):
                coh = repr(coherence_vals[i]) if coherence_vals else ""
                fh.write(
                    f"{repr(float(t))},{repr(float(class_trace(traj.states[i].classes).real))},"
                    f"{repr(float(traj.block_norms[i]))},{coh}\n"
                )
    _emit(report, args.format)
    return 0 if ok else 1


def _sweep_range(text: str) -> tuple:
    """The qubit counts LO..HI of a --sweep value LO:HI."""
    lo, _, hi = text.partition(":")
    try:
        return tuple(range(int(lo), int(hi) + 1))
    except ValueError:
        raise ValueError(f"--sweep must be LO:HI with integer LO and HI, got {text!r}") from None


def cmd_search(args) -> int:
    if args.sweep:
        suite = suites.search_suite(args.seed, runs=args.runs, ns=_sweep_range(args.sweep))
        report = {
            "schema": SCHEMA_VERSION,
            "command": "search-sweep",
            "seed": args.seed,
            "runs": args.runs,
            "per_n": suite["per_n"],
            "query_slope": suite["query_slope"],
            "quadratic_fraction": suite["quadratic_fraction"],
            "pass": suite["pass"],
        }
        _emit(report, args.format, csv_rows=suite["per_n"])
        return 0 if suite["pass"] else 1
    target = args.target
    parse_bits(target, args.n)
    run_seed, calib_seed = split_seeds(args.seed, 2)
    # acceptance estimated on a calibration batch of --shots draws; the
    # bounds are checked before the O(2^n) distribution is built
    if args.shots < 1:
        raise ValueError(f"--shots must be at least 1, got {args.shots}")
    check_qubits(args.shots, MAX_SHOTS, "--shots", unit="shots")
    probs = x_basis_probabilities(run_protocol(SearchOracle(n=args.n, target=target)))
    rows = sample_outcomes(probs, shots=args.shots, seed=calib_seed)
    try:
        found, stats = search_distribution(probs, seed=run_seed)
    except SearchFailure as exc:
        report = {
            "schema": SCHEMA_VERSION,
            "command": "search",
            "n": args.n,
            "target": target,
            "found": None,
            "error": str(exc),
            "seed": args.seed,
            "pass": False,
        }
        _emit(report, args.format)
        return 1
    found_str = "".join(str(int(b)) for b in found)
    ok = found_str == target
    report = {
        "schema": SCHEMA_VERSION,
        "command": "search",
        "n": args.n,
        "target": target,
        "found": found_str,
        "oracle_queries": stats["oracle_queries"],
        "acceptance_rate": float(rows[:, 1:].any(axis=1).mean()),
        "shots": args.shots,
        "independence_rate": 1.0 / stats["independence_batches"],
        "seed": args.seed,
        "pass": bool(ok),
    }
    _emit(report, args.format)
    return 0 if ok else 1


def cmd_all(args) -> int:
    suites.check_search_runs(args.search_runs)  # before the first suite runs
    results = []
    seeds = split_seeds(args.seed, len(suites.SUITES))
    for (name, run), child in zip(suites.SUITES, seeds):
        started = time.perf_counter()
        results.append(run(child, args.search_runs))
        print(f"[{name}] {time.perf_counter() - started:.2f}s", file=sys.stderr)
    overall = all(r["pass"] for r in results)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "all",
        "seed": args.seed,
        "seed_rule": SEED_RULE,
        "search_runs": args.search_runs,
        "suites": results,
        "pass": overall,
    }
    csv_rows = [{"name": r["name"], "pass": r["pass"]} for r in results]
    _emit(report, args.format, csv_rows=csv_rows)
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliblock",
        description="Verification suites and example pipelines for Pauli-basis block encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-gates", help="check the gate channel library")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify_gates)

    p = sub.add_parser("amplitude", help="pipeline amplitude vs statevector oracle")
    p.add_argument("--circuit", required=True, help="circuit text file")
    p.add_argument("--alpha", default=None, help="bit string, default all zeros")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--dump-channels", default=None, help="write the compiled channels as JSON")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser("lindblad", help="dissipative evolution vs dense propagator")
    p.add_argument("--hamiltonian", required=True, help="Hamiltonian text file")
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--dt-audit", action="store_true", help="report the step-halving error ratio")
    p.add_argument("--trajectory-csv", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_lindblad)

    p = sub.add_parser("search", help="planted-target search")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep", default=None, help="run a sweep, e.g. 3:8")
    p.add_argument("--runs", type=int, default=200, help="runs per n in sweep mode")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("all", help="run every verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--search-runs", type=int, default=200)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search":
        if not args.sweep and (args.target is None or args.n is None):
            parser.error("search needs --n and --target unless --sweep is given")
        if args.sweep and (args.target is not None or args.n is not None):
            parser.error("search --sweep takes no --n or --target")
    try:
        # a normal float keeps quotients like 0.01 / dt finite
        for option in ("tolerance", "dt"):
            value = getattr(args, option, 1.0)
            if not (np.isfinite(value) and value >= np.finfo(float).tiny):
                raise ValueError(
                    f"--{option} must be finite and positive, not subnormal, got {value}"
                )
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
