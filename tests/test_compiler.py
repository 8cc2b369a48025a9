import numpy as np
import pytest

from pauliblock import oracle, suites
from pauliblock.channels import cbe_operator
from pauliblock.compiler import (
    Circuit,
    compile_circuit,
    parse_circuit,
    predicted_signal_factor,
    run_program,
)
from pauliblock.encoding import decode_state, encode_state_optimal
from pauliblock.errors import ParseError
from pauliblock.measure import amplitude_via_pauli
from pauliblock.paulis import HADAMARD, PauliString, X, Y, bell_frame, embed_operator, kron_all
from pauliblock.suites import random_circuit


def _random_circuit(monkeypatch, rng, n, k, extra_gates):
    """random_circuit with extra_gates non-Hadamard gates instead of suites.EXTRA_GATES."""
    monkeypatch.setattr(suites, "EXTRA_GATES", extra_gates)
    return random_circuit(rng, n, k)


def test_parse_basic():
    circ = parse_circuit("qubits 2\nH 0\nCNOT 0 1")
    assert circ.n == 2
    assert circ.gates == (("H", (0,)), ("CNOT", (0, 1)))


def test_parse_comments_and_blanks():
    circ = parse_circuit("# preamble\n\nqubits 1\nT 0  # phase\n\n")
    assert circ.gates == (("T", (0,)),)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("qubits 1\nQ 0", 2),
        ("qubits 2\nCNOT 1 1", 2),
        ("qubits 2\nH 5", 2),
        ("H 0", 1),
        ("qubits 0\nH 0", 1),
        ("qubits 2\nCNOT 0", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert err.value.lineno == lineno


def test_compile_eta_and_hadamard_count():
    prog = compile_circuit(parse_circuit("qubits 1\nT 0"))
    assert prog.eta_total == 1.0 and prog.hadamard_count == 0
    assert len(prog.channels) == 1

    prog = compile_circuit(parse_circuit("qubits 1\nH 0"))
    assert prog.eta_total == pytest.approx(2**-0.5, abs=1e-15)
    assert prog.hadamard_count == 1

    prog = compile_circuit(parse_circuit("qubits 2\nH 0\nT 1\nH 1\nCNOT 0 1"))
    assert prog.eta_total == pytest.approx(0.5, abs=1e-15)
    assert prog.hadamard_count == 2
    assert len(prog.channels) == 4


def test_run_program_empty_is_identity():
    n = 2
    plus = np.full(2**n, 0.5)
    st = encode_state_optimal(plus)
    out = run_program(compile_circuit(Circuit(n=n, gates=())), st)
    assert np.abs(out.rho - st.rho).max() < 1e-15
    assert out.gamma == pytest.approx(0.5)


def test_single_hadamard_program():
    st = encode_state_optimal(np.array([1, 1]) / np.sqrt(2))
    out = run_program(compile_circuit(parse_circuit("qubits 1\nH 0")), st)
    assert np.abs(decode_state(out) - np.array([1, 0])).max() < 1e-12
    assert out.gamma == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)


def _oracle_pipeline_state(circ):
    """H^n U |0^n> via the statevector path."""
    psi = oracle.simulate(circ)
    return kron_all([HADAMARD] * circ.n) @ psi


def test_random_program_matches_statevector_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    n = 3
    circ = _random_circuit(monkeypatch, rng, n, 2, 6)
    prog = compile_circuit(circ)
    assert prog.hadamard_count == 2
    st = encode_state_optimal(np.full(2**n, 2.0 ** (-n / 2)))
    out = run_program(prog, st)
    want = _oracle_pipeline_state(circ)
    assert np.abs(decode_state(out) - want).max() < 1e-10
    assert out.gamma == pytest.approx(prog.eta_total * 0.5, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_compiled_cbe_product_matches_dense_target(n, monkeypatch):
    rng = np.random.default_rng(30 + n)
    circ = _random_circuit(monkeypatch, rng, n, 1, 4)
    prog = compile_circuit(circ)

    total = np.eye(4**n, dtype=complex)
    for ch in prog.channels:
        total = cbe_operator(ch) @ total

    # target: eta * UB^dag (F_chain (x) H^n U H^n) UB with F_chain the
    # product of per-gate projectors on the touched row-space qubits
    f_chain = np.eye(2**n, dtype=complex)
    proj = np.zeros((2, 2), dtype=complex)
    proj[0, 0] = 1.0
    for name, qubits in circ.gates:
        for q in qubits:
            f_gate = embed_operator(proj, [q], n)
            f_chain = f_gate @ f_chain
    hn = kron_all([HADAMARD] * n)
    v_total = hn @ oracle.circuit_unitary(circ) @ hn
    ub = bell_frame(n)
    target = prog.eta_total * ub.conj().T @ np.kron(f_chain, v_total) @ ub
    assert np.abs(total - target).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signal_mechanism_identity(n, monkeypatch):
    # raw Pauli traces equal the scaled oracle amplitudes for every alpha
    rng = np.random.default_rng(40 + n)
    circ = _random_circuit(monkeypatch, rng, n, int(rng.integers(0, 3)), 6)
    prog = compile_circuit(circ)
    st = encode_state_optimal(np.full(2**n, 2.0 ** (-n / 2)))
    out = run_program(prog, st)
    want = _oracle_pipeline_state(circ)
    scale = 2.0 ** (n / 2 + 1) * 0.5 * prog.eta_total
    for alpha in range(2**n):
        bits = [(alpha >> (n - 1 - j)) & 1 for j in range(n)]
        q = PauliString.from_bits(bits).matrix()
        tr_x = np.trace(np.kron(X, q) @ out.rho).real
        tr_y = np.trace(np.kron(Y, q) @ out.rho).real
        assert abs(tr_x - scale * want[alpha].real) < 1e-9
        assert abs(tr_y + scale * want[alpha].imag) < 1e-9
        amp = amplitude_via_pauli(out, bits)
        assert abs(amp - want[alpha]) < 1e-9


def test_predicted_signal_factor_values():
    assert predicted_signal_factor(4, 0, 0.5) == pytest.approx(4.0)
    assert predicted_signal_factor(4, 4, 0.5) == pytest.approx(1.0)
    assert predicted_signal_factor(6, 2, 0.5) == pytest.approx(4.0)


def test_program_wire_roundtrip():
    import json

    from pauliblock.compiler import program_to_dict
    from wire import program_from_dict

    prog = compile_circuit(parse_circuit("qubits 2\nH 0\nCNOT 0 1\nT 1"))
    data = json.loads(json.dumps(program_to_dict(prog)))
    back = program_from_dict(data)
    assert back.n == prog.n
    assert back.eta_total == pytest.approx(prog.eta_total)
    assert back.hadamard_count == prog.hadamard_count
    st = encode_state_optimal(np.full(4, 0.5))
    a = run_program(prog, st)
    b = run_program(back, st)
    assert np.abs(a.rho - b.rho).max() < 1e-15


def test_compile_builds_each_library_channel_once(monkeypatch):
    import pauliblock.channels as channels
    from pauliblock.compiler import _GATE_TO_CHANNEL

    circ = parse_circuit("qubits 3\nH 0\nH 1\nT 2\nT 0\nCNOT 0 1\nCNOT 1 2\nS 0\nH 2\n")
    first = compile_circuit(circ)
    built = []
    real_transfer, real_cptp = channels._transfer_and_leak, channels.check_cptp
    monkeypatch.setattr(channels, "_transfer_and_leak", lambda pairs: built.append(1) or real_transfer(pairs))
    monkeypatch.setattr(channels, "check_cptp", lambda ch: built.append(1) or real_cptp(ch))
    prog = compile_circuit(circ)
    assert built == [] and len(prog.channels) == len(circ.gates)
    for (name, _), ch, before in zip(circ.gates, prog.channels, first.channels, strict=True):
        base = channels.gate_channel(_GATE_TO_CHANNEL[name])
        assert channels.gate_channel(_GATE_TO_CHANNEL[name]) is base
        assert ch.transfer is base.transfer and before.transfer is base.transfer


def test_compile_builds_no_dense_blocks(monkeypatch):
    import pauliblock.channels as channels
    import pauliblock.paulis as paulis

    def refuse(*args, **kwargs):
        pytest.fail("compile_circuit embedded an operator")

    monkeypatch.setattr(paulis, "embed_operator", refuse)
    monkeypatch.setattr(channels, "embed_operator", refuse)
    n = 7
    rng = np.random.default_rng(70)
    circ = _random_circuit(monkeypatch, rng, n, 3, 27)
    prog = compile_circuit(circ)
    assert len(prog.channels) == 30
    pair_bytes = sum(K.nbytes + L.nbytes for ch in prog.channels for K, L in ch.pairs)
    assert pair_bytes < 64 * 1024


def test_old_full_width_dump_loads_and_runs_to_the_same_rho():
    import json

    from pauliblock.compiler import program_to_dict
    from wire import program_from_dict

    circ = parse_circuit("qubits 3\nH 0\nCNOT 2 0\nT 1\nS 2\nH 2\nCNOT 0 1\n")
    prog = compile_circuit(circ)
    # the format written before channels carried their qubits: full 2^n pairs, no "qubits"
    old = program_to_dict(prog)
    for ch, wire in zip(prog.channels, old["channels"]):
        wire.pop("qubits")
        wire["pairs"] = [
            {
                "k": [[z.real, z.imag] for z in embed_operator(K, ch.qubits, 3).reshape(-1)],
                "l": [[z.real, z.imag] for z in embed_operator(L, ch.qubits, 3).reshape(-1)],
            }
            for K, L in ch.pairs
        ]
    back = program_from_dict(json.loads(json.dumps(old)))
    assert all(ch.qubits == (0, 1, 2) for ch in back.channels)
    st = encode_state_optimal(np.full(8, 8**-0.5))
    a = run_program(prog, st)
    b = run_program(back, st)
    assert np.abs(a.rho - b.rho).max() <= 1e-15
    assert a.gamma == pytest.approx(b.gamma, abs=1e-15)


def test_circuit_path_forms_no_dense_state(monkeypatch):
    import tracemalloc

    n = 9  # a dense rho is 4 MB, one Kraus-conjugated copy of it more
    rng = np.random.default_rng(12)
    text = "qubits 9\n" + "".join(
        f"{name} {' '.join(map(str, qubits))}\n"
        for name, qubits in _random_circuit(monkeypatch, rng, n, 3, 27).gates
    )
    tracemalloc.start()
    try:
        prog = compile_circuit(parse_circuit(text))
        out = run_program(prog, encode_state_optimal(np.full(2**n, 2.0 ** (-n / 2))))
        amps = [amplitude_via_pauli(out, alpha) for alpha in ("0" * n, "1" * n)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prog.channels) == 30 and peak < 1 << 20
    assert all(np.isfinite(a) for a in amps)
