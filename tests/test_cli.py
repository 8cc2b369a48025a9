import json
import time

import numpy as np
import pytest

from pauliblock import cli, oracle, suites
from pauliblock.compiler import compile_circuit, parse_circuit, run_program
from pauliblock.encoding import encode_state_optimal
from pauliblock.errors import MAX_SHOTS, VECTOR_QUBITS
from pauliblock.lindblad import build_jumps, coherence_values, evolve, parse_hamiltonian
from pauliblock.measure import amplitude_via_pauli
from pauliblock.paulis import PauliString, X, Y
from pauliblock.search import SearchOracle

BELL = "qubits 2\n1.0 -ZZ\n1.0 -XX\n"
FRUSTRATED = "qubits 1\n1.0 +X\n1.0 +Z\n"
CIRCUIT = "qubits 3\nH 0\nT 1\nCNOT 0 2\nS 2\nH 1\n"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_gates_passes(capsys):
    code, out, _ = run_cli(["verify-gates"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["schema"] == 1 and report["pass"] is True
    assert len(report["rows"]) == 10
    etas = {(r["gate"], r["variant"]): r["eta"] for r in report["rows"]}
    assert etas[("H", "projector")] == pytest.approx(2**-0.5)
    assert all(r["residual"] < 1e-12 for r in report["rows"])


def test_verify_gates_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(["verify-gates", "--tolerance", "1e-20"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_gates_csv(capsys):
    code, out, _ = run_cli(["verify-gates", "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "eta,gate,pass,residual,variant"
    assert len(lines) == 11


def test_amplitude_command(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT)
    code, out, _ = run_cli(["amplitude", "--circuit", str(path)], capsys)
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["k"] == 2 and report["eta"] == pytest.approx(0.5)
    assert report["residual"] < 1e-9
    assert report["amplification"] == pytest.approx(2 ** ((3 - 2) / 2))
    assert {r["observable"] for r in report["records"]} == {"X(x)Q_000", "Y(x)Q_000"}


def test_amplitude_empty_circuit(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("qubits 3\n")
    code, out, _ = run_cli(["amplitude", "--circuit", str(path)], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["c_alpha_pqc_re"] == pytest.approx(2.0**-1.5, abs=1e-12)
    assert report["k"] == 0 and report["eta"] == 1.0


def test_amplitude_dump_channels(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text(CIRCUIT)
    dump = tmp_path / "prog.json"
    code, _, _ = run_cli(
        ["amplitude", "--circuit", str(circ), "--dump-channels", str(dump)], capsys
    )
    assert code == 0
    from wire import program_from_dict

    prog = program_from_dict(json.loads(dump.read_text()))
    assert prog.n == 3 and len(prog.channels) == 5


def test_amplitude_mismatch_exit_code(tmp_path, capsys):
    # an unreachable tolerance demonstrates the failure exit path
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT)
    code, out, _ = run_cli(
        ["amplitude", "--circuit", str(path), "--tolerance", "1e-20"], capsys
    )
    assert code == 1 and json.loads(out)["pass"] is False


def test_amplitude_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(["amplitude", "--circuit", "/nonexistent/x.txt"], capsys)
    assert code == 2 and "error" in err


def test_amplitude_bad_alpha(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT)
    code, _, err = run_cli(
        ["amplitude", "--circuit", str(path), "--alpha", "01"], capsys
    )
    assert code == 2


def test_amplitude_empty_alpha_is_input_error(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT)
    code, out, err = run_cli(["amplitude", "--circuit", str(path), "--alpha", ""], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "text,extra,message",
    [
        ("qubits 2\n1.0 -ZZ\n1.0 +iZZ\n", [], "line 3: imaginary phases are not allowed"),
        (BELL, ["--t-max", "1e300"], "a run is capped at 1000000 steps, got 1e+303"),
    ],
)
def test_lindblad_input_errors_are_one_short_line(tmp_path, capsys, text, extra, message):
    path = tmp_path / "h.txt"
    path.write_text(text)
    code, out, err = run_cli(["lindblad", "--hamiltonian", str(path), *extra], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_lindblad_names_itself_in_the_size_message(tmp_path, capsys):
    path = tmp_path / "h7.txt"
    path.write_text("qubits 7\n1.0 -ZZZZZZZ\n")
    code, out, err = run_cli(["lindblad", "--hamiltonian", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: lindblad is capped at 6 qubits, got 7\n"


def test_lindblad_bell(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    path.write_text(BELL)
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        [
            "lindblad",
            "--hamiltonian",
            str(path),
            "--t-max",
            "2.0",
            "--trajectory-csv",
            str(traj),
        ],
        capsys,
    )
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["frustration_free"] is True
    assert report["block_residual_vs_ite"] < 1e-6
    assert report["steadiness_max_derivative"] < 1e-6
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "t,trace_re,block_norm,coherence_re"
    assert len(lines) > 100


def test_lindblad_frustrated_decay(tmp_path, capsys):
    path = tmp_path / "frus.txt"
    path.write_text(FRUSTRATED)
    code, out, _ = run_cli(
        ["lindblad", "--hamiltonian", str(path), "--t-max", "5.0"], capsys
    )
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["frustration_free"] is False
    rel = abs(report["decay_rate_fit"] - report["decay_rate_expected"])
    assert rel / report["decay_rate_expected"] < 0.05


def test_lindblad_threshold_breach_exit_code(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    path.write_text(BELL)
    code, out, _ = run_cli(
        ["lindblad", "--hamiltonian", str(path), "--t-max", "0.5", "--tolerance", "1e-20"],
        capsys,
    )
    assert code == 1 and json.loads(out)["pass"] is False


def test_lindblad_dt_audit_reports_fourth_order(tmp_path, capsys):
    path = tmp_path / "frus.txt"
    path.write_text(FRUSTRATED)
    code, out, _ = run_cli(
        ["lindblad", "--hamiltonian", str(path), "--t-max", "2.0", "--dt-audit"],
        capsys,
    )
    report = json.loads(out)
    assert code == 0
    assert 10 < report["dt_audit_ratio"] < 22


def test_lindblad_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("qubits 1\n-1.0 +X\n")
    code, _, err = run_cli(["lindblad", "--hamiltonian", str(path)], capsys)
    assert code == 2


def test_search_single(capsys):
    code, out, _ = run_cli(
        ["search", "--n", "6", "--target", "101100", "--seed", "3"], capsys
    )
    report = json.loads(out)
    assert code == 0 and report["found"] == "101100"
    assert 0.3 < report["acceptance_rate"] < 0.7


def test_search_requires_target(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra", [["--n", "3", "--target", "101"], ["--n", "3"], ["--target", "101"]]
)
def test_search_sweep_refuses_n_and_target(capsys, monkeypatch, extra):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(suites, "search_suite", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", *extra, "--sweep", "3:3", "--runs", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == "pauliblock: error: search --sweep takes no --n or --target"
    assert err.count("\n") == 2  # one usage line and the error


def test_search_sweep(capsys):
    code, out, _ = run_cli(
        ["search", "--sweep", "3:4", "--runs", "10", "--seed", "1"],
        capsys,
    )
    report = json.loads(out)
    assert code == 0
    assert [row["n"] for row in report["per_n"]] == [3, 4]
    assert all(row["recovered"] == 10 for row in report["per_n"])


def test_all_reduced_and_deterministic(capsys):
    # statistical sub-checks can trip at this tiny sampling scale; here the
    # contract under test is byte-identical output for identical configs
    code1, out1, _ = run_cli(["all", "--seed", "0", "--search-runs", "5"], capsys)
    code2, out2, _ = run_cli(["all", "--seed", "0", "--search-runs", "5"], capsys)
    assert code1 == code2
    assert out1 == out2
    report = json.loads(out1)
    assert [s["name"] for s in report["suites"]] == [name for name, _ in suites.SUITES]
    assert "SeedSequence" in report["seed_rule"]


def test_all_propagates_suite_failure(capsys, monkeypatch):
    broken = {"name": "gate_library", "rows": [], "tol": 0.0, "pass": False}
    monkeypatch.setattr(cli.suites, "gate_library_suite", lambda tol=1e-12: broken)
    code, out, _ = run_cli(["all", "--seed", "0", "--search-runs", "2"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_search_sweep_single_run_is_input_error(capsys):
    code, out, err = run_cli(["search", "--sweep", "3:4", "--runs", "1"], capsys)
    assert code == 2 and out == ""
    assert "runs" in err


def test_emit_refuses_non_finite_json(capsys):
    with pytest.raises(ValueError):
        cli._emit({"value": float("nan")}, "json")
    assert capsys.readouterr().out == ""


def test_lindblad_partial_step_is_input_error(tmp_path, capsys):
    path = tmp_path / "frus.txt"
    path.write_text(FRUSTRATED)
    code, out, err = run_cli(
        ["lindblad", "--hamiltonian", str(path), "--t-max", "1", "--dt", "0.7"], capsys
    )
    assert code == 2 and out == ""
    assert "whole number of steps" in err


def test_lindblad_unstable_dt_is_input_error(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text("qubits 1\n1.0 -Z\n")
    code, out, err = run_cli(
        ["lindblad", "--hamiltonian", str(path), "--t-max", "20", "--dt", "2"], capsys
    )
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "unstable" in err


def test_lindblad_dt_audit_divides_t_max(tmp_path, capsys):
    # 2.5 is not a multiple of 0.08; the audit's coarse step divides t_max
    path = tmp_path / "frus.txt"
    path.write_text(FRUSTRATED)
    code, out, _ = run_cli(
        ["lindblad", "--hamiltonian", str(path), "--t-max", "2.5", "--dt-audit"], capsys
    )
    assert code == 0
    assert 10 < json.loads(out)["dt_audit_ratio"] < 22


def test_amplitude_oversize_circuit_is_input_error(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("qubits 21\nH 0\n")
    code, out, err = run_cli(["amplitude", "--circuit", str(path)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(VECTOR_QUBITS) in err


def test_amplitude_beyond_the_dense_cap_matches_the_oracle(tmp_path, capsys):
    text = "qubits 16\nH 0\nCNOT 0 5\nT 5\nH 9\nCNOT 9 15\nS 15\nCNOT 3 12\nT 12\n"
    path = tmp_path / "wide.txt"
    path.write_text(text)
    code, out, _ = run_cli(["amplitude", "--circuit", str(path)], capsys)
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    want = oracle.amplitude_plus_u_zero(parse_circuit(text), 0)
    assert abs(want) > 1e-3  # a nonzero amplitude, so the comparison means something
    assert report["residual"] < 1e-15
    assert report["amplification"] == 2.0 ** ((16 - 2) / 2)


def test_amplitude_reports_measured_traces(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT)
    code, out, _ = run_cli(["amplitude", "--circuit", str(path), "--alpha", "101"], capsys)
    report = json.loads(out)
    assert code == 0
    rho = run_program(
        compile_circuit(parse_circuit(CIRCUIT)), encode_state_optimal(np.full(8, 8**-0.5))
    ).rho
    q = PauliString.from_bits([1, 0, 1]).matrix()
    tr_x = np.trace(np.kron(X, q) @ rho).real
    tr_y = np.trace(np.kron(Y, q) @ rho).real
    assert abs(tr_y) > 1e-3  # the T gate makes the imaginary part visible
    assert report["raw_signal_re"] == pytest.approx(tr_x, abs=1e-15)
    assert report["raw_signal_im"] == pytest.approx(tr_y, abs=1e-15)
    assert report["records"] == [
        {"observable": f"{op}(x)Q_101", "value_re": report[f"raw_signal_{part}"],
         "value_im": 0.0, "shots": "exact", "seed": None}
        for op, part in (("X", "re"), ("Y", "im"))
    ]


@pytest.mark.parametrize("bad", ["", "012", "1 0", "10"])
def test_bit_strings_share_one_validator(tmp_path, capsys, bad):
    messages = set()
    for call in (
        lambda: amplitude_via_pauli(encode_state_optimal(np.full(8, 8**-0.5)), bad),
        lambda: SearchOracle(n=3, target=bad),
    ):
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    code, out, err = run_cli(["search", "--n", "3", "--target", bad], capsys)
    assert code == 2 and out == ""
    messages.add(err.strip().removeprefix("error: "))
    assert messages == {f"expected a string of 3 bits, got {bad!r}"}


# (n, target, seed, oracle_queries, acceptance_rate, independence_rate) as
# reported when the calibration batch was drawn from the dense protocol state.
SEARCH_REPORT_PINS = [
    (3, "101", 0, 5, 0.4358, 1.0),
    (4, "0110", 1, 9, 0.473, 1.0),
    (5, "11100", 2, 27, 0.4834, 0.5),
    (6, "101100", 3, 27, 0.4862, 0.5),
    (7, "0010111", 4, 28, 0.496, 0.5),
    (8, "11011000", 5, 30, 0.5057, 0.5),
    (9, "100110101", 6, 90, 0.5098, 0.2),
    (10, "1011001110", 7, 226, 0.497, 0.1),
    (10, "0000000001", 11, 22, 0.4961, 1.0),
]


@pytest.mark.parametrize("n,target,seed,queries,acceptance,independence", SEARCH_REPORT_PINS)
def test_search_report_pinned(capsys, n, target, seed, queries, acceptance, independence):
    args = ["search", "--n", str(n), "--target", target, "--seed", str(seed)]
    code, out, _ = run_cli(args, capsys)
    report = json.loads(out)
    assert code == 0 and report["found"] == target
    assert report["oracle_queries"] == queries
    assert report["acceptance_rate"] == acceptance
    assert report["independence_rate"] == independence


def test_search_command_memory_is_linear_in_dimension(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code = cli.main(["search", "--n", "10", "--target", "1011001110", "--seed", "7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * 2**20


def test_amplitude_takes_each_trace_once(tmp_path, capsys, monkeypatch):
    from pauliblock import measure

    calls = []
    original = measure.assistant_traces
    counted = lambda *a: calls.append(a) or original(*a)  # noqa: E731
    monkeypatch.setattr(cli, "assistant_traces", counted)
    monkeypatch.setattr(measure, "assistant_traces", counted)
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT)
    code, out, _ = run_cli(["amplitude", "--circuit", str(path), "--alpha", "011"], capsys)
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    plus = encode_state_optimal(np.full(8, 8**-0.5))
    want = amplitude_via_pauli(run_program(compile_circuit(parse_circuit(CIRCUIT)), plus), "011")
    assert (report["c_alpha_pqc_re"], report["c_alpha_pqc_im"]) == (want.real, want.imag)


@pytest.mark.parametrize("qubits", [[1, 1], [0, 3], [0]])
def test_bad_wire_qubits_exit_2(tmp_path, capsys, monkeypatch, qubits):
    # no subcommand reads channel JSON yet, so the amplitude command is made
    # to load its program from a wire dump with bad qubits
    from pauliblock.compiler import program_to_dict
    from wire import program_from_dict

    wire = program_to_dict(compile_circuit(parse_circuit("qubits 3\nCNOT 2 0\n")))
    wire["channels"][0]["qubits"] = qubits
    monkeypatch.setattr(cli, "compile_circuit", lambda circ: program_from_dict(wire))
    path = tmp_path / "circ.txt"
    path.write_text("qubits 3\nCNOT 2 0\n")
    code, out, err = run_cli(["amplitude", "--circuit", str(path)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_python_m_runs_the_driver():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "pauliblock", "verify-gates"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["pass"] is True


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, value):
    circuit = tmp_path / "circ.txt"
    circuit.write_text(CIRCUIT)
    hamiltonian = tmp_path / "frus.txt"
    hamiltonian.write_text(FRUSTRATED)
    for argv in (
        ["verify-gates"],
        ["amplitude", "--circuit", str(circuit)],
        ["lindblad", "--hamiltonian", str(hamiltonian), "--t-max", "0.1"],
    ):
        code, out, err = run_cli(argv + [f"--tolerance={value}"], capsys)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: --tolerance must be finite and positive")


@pytest.mark.parametrize(
    "times",
    [["--t-max", "inf"], ["--t-max", "nan"], ["--t-max", "1e300", "--dt", "1e-300"], ["--dt", "0"]],
)
def test_lindblad_non_finite_times_are_input_errors(tmp_path, capsys, times):
    path = tmp_path / "frus.txt"
    path.write_text(FRUSTRATED)
    code, out, err = run_cli(["lindblad", "--hamiltonian", str(path)] + times, capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "finite" in err


@pytest.mark.parametrize("sweep", ["5:3", "0:1"])
def test_search_sweep_bad_range_is_input_error(capsys, sweep):
    code, out, err = run_cli(["search", "--sweep", sweep, "--runs", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: search_suite needs one or more qubit counts n >= 1")


def _refuse_suites(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in dir(suites):
        if name.endswith("_suite"):
            monkeypatch.setattr(suites, name, refuse)


def test_all_refuses_a_single_search_run_before_any_suite(capsys, monkeypatch):
    _refuse_suites(monkeypatch)
    code, out, err = run_cli(["all", "--search-runs", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: search_suite needs runs >= 2, got 1\n"


@pytest.mark.parametrize(
    "argv",
    [["search", "--n", "3", "--target", "101"], ["search", "--sweep", "3:4"], ["all"]],
    ids=["search", "search-sweep", "all"],
)
def test_negative_seed_is_named(capsys, monkeypatch, argv):
    _refuse_suites(monkeypatch)
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("sweep", ["3", "3:x", "3:4:5", ":4"])
def test_search_sweep_not_lo_hi_is_input_error(capsys, monkeypatch, sweep):
    _refuse_suites(monkeypatch)
    code, out, err = run_cli(["search", "--sweep", sweep], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --sweep must be LO:HI")


def test_trajectory_csv_coherence_column_is_coherence_values(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    path.write_text(BELL)
    traj_csv = tmp_path / "traj.csv"
    argv = ["lindblad", "--hamiltonian", str(path), "--t-max", "0.5"]
    code, _, _ = run_cli(argv + ["--trajectory-csv", str(traj_csv)], capsys)
    assert code == 0
    h = parse_hamiltonian(BELL)
    traj = evolve(encode_state_optimal(np.full(4, 0.5)), build_jumps(h), 0.5, 1e-3, 10)
    want = coherence_values(traj, cli._ground_vector(oracle.ground_projector(h)[0]))
    column = [line.split(",")[3] for line in traj_csv.read_text().splitlines()[1:]]
    assert column == [repr(float(v.real)) for v in want]


OVERSIZED = [
    ("lindblad", "qubits 7\n1.0 -ZZZZZZZ\n", []),
    ("lindblad", "qubits 20\n1.0 -" + "Z" * 20 + "\n", []),
    ("lindblad", FRUSTRATED, ["--t-max", "1e6", "--dt", "1e-6"]),
    ("lindblad", FRUSTRATED, ["--dt", "1e-320"]),
    ("amplitude", "qubits 21\nH 0\n", []),
    ("search", None, ["--n", "21", "--target", "1" * 21]),
    ("search", None, ["--sweep", "3:21"]),
]


@pytest.mark.parametrize(
    "command,text,extra",
    OVERSIZED,
    ids=[
        "lindblad-7-qubits",
        "lindblad-20-qubits",
        "lindblad-10^12-steps",
        "lindblad-subnormal-dt",
        "amplitude-21-qubits",
        "search-n-21",
        "search-sweep-3-21",
    ],
)
def test_oversized_input_is_refused_before_any_work(tmp_path, capsys, command, text, extra):
    argv = [command]
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv += ["--hamiltonian" if command == "lindblad" else "--circuit", str(path)]
    started = time.perf_counter()
    code, out, err = run_cli(argv + extra, capsys)
    elapsed = time.perf_counter() - started
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert elapsed < 1.0


def test_search_runs_at_the_vector_cap(capsys):
    target = "10110011100011110000"
    code, out, _ = run_cli(["search", "--n", "20", "--target", target, "--shots", "100"], capsys)
    report = json.loads(out)
    assert code == 0 and report["found"] == target and report["pass"] is True


def test_search_oversize_shots_are_refused_before_the_search(capsys):
    started = time.perf_counter()
    argv = ["search", "--n", "20", "--target", "1" * 20, "--shots", "1000000000"]
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err == f"error: --shots is capped at {MAX_SHOTS} shots, got 1000000000\n"


def test_lindblad_solves_for_the_ground_space_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bell.txt"
    path.write_text(BELL)
    calls = []
    real = oracle.ground_projector
    monkeypatch.setattr(oracle, "ground_projector", lambda h: calls.append(h) or real(h))
    code, out, _ = run_cli(["lindblad", "--hamiltonian", str(path), "--t-max", "0.5"], capsys)
    report = json.loads(out)
    assert code == 0 and report["frustration_free"] is True
    assert report["steadiness_max_derivative"] is not None
    assert len(calls) == 1


def test_amplitude_reference_is_the_signed_statevector_sum(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text(CIRCUIT)
    circ = parse_circuit(CIRCUIT)
    for alpha in ("000", "101", "111"):
        code, out, _ = run_cli(["amplitude", "--circuit", str(path), "--alpha", alpha], capsys)
        report = json.loads(out)
        want = oracle.amplitude_plus_u_zero(circ, int(alpha, 2))
        assert code == 0
        assert (report["c_alpha_oracle_re"], report["c_alpha_oracle_im"]) == (want.real, want.imag)


def test_long_frustrated_lindblad_run_fits_past_an_underflowed_norm(tmp_path, capsys):
    path = tmp_path / "frustrated.txt"
    path.write_text(FRUSTRATED)
    csv_path = tmp_path / "traj.csv"
    # dt = 0.5 is inside RK4's limit but coarse, so the block check gets a matching tolerance
    argv = ["lindblad", "--hamiltonian", str(path), "--t-max", "1500", "--dt", "0.5",
            "--tolerance", "0.1", "--trajectory-csv", str(csv_path)]
    code, out, err = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 0 and report["pass"] is True and err == ""
    assert np.isfinite(report["decay_rate_fit"])
    assert abs(report["decay_rate_fit"] / report["decay_rate_expected"] - 1) < 1e-3
    norms = [float(line.split(",")[2]) for line in csv_path.read_text().splitlines()[1:]]
    assert norms.count(0.0) > 100  # the block norm did underflow


def test_search_computes_the_x_distribution_once(capsys, monkeypatch):
    from pauliblock import search

    calls = []
    for name in ("run_protocol", "x_basis_probabilities"):
        original = getattr(search, name)
        counted = lambda arg, name=name, fn=original: calls.append(name) or fn(arg)  # noqa: E731
        monkeypatch.setattr(cli, name, counted)
        monkeypatch.setattr(search, name, counted)
    code, out, _ = run_cli(["search", "--n", "6", "--target", "101101", "--seed", "3"], capsys)
    assert code == 0 and json.loads(out)["found"] == "101101"
    assert calls == ["run_protocol", "x_basis_probabilities"]


@pytest.mark.parametrize("shots", [0, -5])
def test_nonpositive_shots_are_refused_before_the_protocol_runs(shots, capsys, monkeypatch):
    def refuse(oracle):
        raise AssertionError("the protocol ran before --shots was checked")

    monkeypatch.setattr(cli, "run_protocol", refuse)
    argv = ["search", "--n", "20", "--target", "1" * 20, "--shots", str(shots)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: --shots must be at least 1, got {shots}\n"


def test_lindblad_decay_fit_on_one_snapshot_is_input_error(tmp_path, capsys):
    path = tmp_path / "frustrated.txt"
    path.write_text(FRUSTRATED)
    code, out, err = run_cli(["lindblad", "--hamiltonian", str(path), "--t-max", "0.001"], capsys)
    assert code == 2 and out == ""
    assert err == "error: the decay fit needs two snapshots with a positive block norm\n"


def test_lindblad_dt_audit_refines_a_step_rk4_cannot_take(tmp_path, capsys):
    # round(t_max / 0.08) = 6 coarse steps would give 2 dt sum(lambda) = 3.33 > 2.785
    path = tmp_path / "stiff.txt"
    path.write_text("qubits 1\n20.0 +X\n")
    argv = ["lindblad", "--hamiltonian", str(path), "--t-max", "0.5", "--dt", "1e-3"]
    code, out, err = run_cli(argv + ["--tolerance", "1e-3", "--dt-audit"], capsys)
    assert code == 0 and err == ""
    ratio = json.loads(out)["dt_audit_ratio"]
    assert ratio is not None and np.isfinite(ratio)


def test_lindblad_dt_audit_ratio_reads_fourth_order_on_a_stiff_rate(tmp_path, capsys):
    # the coarse step keeps 2 dt sum(lambda) <= 0.5; at the stability edge the ratio read 7245407
    path = tmp_path / "stiff.txt"
    path.write_text("qubits 1\n20.0 +X\n")
    argv = ["lindblad", "--hamiltonian", str(path), "--t-max", "0.5", "--dt", "1e-3"]
    code, out, _ = run_cli(argv + ["--tolerance", "1e-3", "--dt-audit"], capsys)
    assert code == 0
    assert 10 <= json.loads(out)["dt_audit_ratio"] <= 22


def test_lindblad_dt_audit_shares_one_eigensolve(tmp_path, capsys, monkeypatch):
    path = tmp_path / "frus.txt"
    path.write_text(FRUSTRATED)
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a) or real(a, *args))
    code, _, _ = run_cli(["lindblad", "--hamiltonian", str(path), "--t-max", "2.0", "--dt-audit"], capsys)
    assert code == 0 and len(calls) == 1


def test_lindblad_dt_audit_builds_each_jump_once(tmp_path, capsys, monkeypatch):
    from pauliblock import channels, lindblad

    path = tmp_path / "three.txt"
    path.write_text("qubits 3\n1.0 -ZZI\n1.0 -IZZ\n0.5 -XXX\n")
    builds, transfers = [], []
    real_build, real_transfer = lindblad.build_jumps, channels._transfer_and_leak
    monkeypatch.setattr(lindblad, "build_jumps", lambda h: builds.append(h) or real_build(h))
    monkeypatch.setattr(channels, "_transfer_and_leak", lambda p: transfers.append(p) or real_transfer(p))
    argv = ["lindblad", "--hamiltonian", str(path), "--t-max", "1", "--dt", "1e-3", "--dt-audit"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["dt_audit_ratio"] is not None
    assert len(builds) == 1 and len(transfers) == 3
