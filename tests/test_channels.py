import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliblock import suites
from pauliblock.channels import (
    F0_VARIANTS,
    GATE_IDS,
    KrausPairChannel,
    _transfer_and_leak,
    apply_channel,
    cbe_operator,
    channel_to_dict,
    check_cptp,
    conjugate_pairs,
    embed_channel,
    gate_channel,
    gate_target_unitary,
    pauli_channel,
    po_target,
    verify_po,
)
from pauliblock.compiler import Circuit, compile_circuit, run_program
from pauliblock.encoding import (
    NdmeState,
    decode_state,
    encode_state_optimal,
)
from pauliblock.errors import ChannelError, DimensionError
from pauliblock.oracle import random_statevector
from pauliblock.paulis import HADAMARD, I2, PauliString, X, Y, Z, bell_frame, embed_operator
from pauliblock.search import SearchOracle, run_protocol
from pauliblock.suites import random_circuit
from wire import channel_from_dict


def compose(first: KrausPairChannel, then: KrausPairChannel) -> KrausPairChannel:
    """Sequential composition; pair products multiply, eta multiplies."""
    if first.n != then.n or first.qubits != then.qubits:
        raise DimensionError("cannot compose channels on different qubits")
    pairs = [
        (K2 @ K1, L2 @ L1)
        for K1, L1 in first.pairs
        for K2, L2 in then.pairs
    ]
    eta = None if first.eta is None or then.eta is None else first.eta * then.eta
    return KrausPairChannel(n=first.n, pairs=pairs, eta=eta, qubits=first.qubits)


LIBRARY = [
    ("X", "projector"),
    ("Y", "projector"),
    ("Z", "projector"),
    ("H", "projector"),
    ("HSH", "projector"),
    ("HTH", "projector"),
    ("HH_CNOT_HH", "projector"),
    ("X", "identity"),
    ("Y", "identity"),
    ("Z", "identity"),
]


@pytest.mark.parametrize("gate,variant", LIBRARY)
def test_library_channel_is_cptp_and_verifies(gate, variant):
    ch = gate_channel(gate, variant)
    assert check_cptp(ch) < 1e-12
    residual = verify_po(ch, gate_target_unitary(gate), variant, ch.eta)
    assert residual < 1e-12


def test_declared_etas():
    assert gate_channel("H").eta == pytest.approx(2**-0.5, abs=1e-15)
    for gate in ("HSH", "HTH", "HH_CNOT_HH", "X", "Y", "Z"):
        assert gate_channel(gate).eta == 1.0


def test_cbe_operator_fixtures():
    single = KrausPairChannel(n=1, pairs=[(I2.copy(), I2.copy())], eta=1.0)
    assert np.array_equal(cbe_operator(single), np.eye(4))
    h = cbe_operator(gate_channel("H"))
    want = (np.kron(I2, X) + np.kron(Z, Z) + np.kron(X, I2) - np.kron(Y, Y)) / 4
    assert np.abs(h - want).max() < 1e-15
    xproj = cbe_operator(gate_channel("X"))
    assert np.abs(xproj - (np.kron(I2, X) + np.kron(X, I2)) / 2).max() < 1e-15


def test_wrong_eta_detected():
    ch = gate_channel("H")
    residual = verify_po(ch, gate_target_unitary("H"), "projector", 1.0)
    assert residual > 1e-3


def test_pauli_channel_fixtures():
    ch = pauli_channel(PauliString(1, "X"), "identity")
    assert len(ch.pairs) == 1
    K, L = ch.pairs[0]
    assert np.array_equal(K, I2) and np.array_equal(L, X)

    ch = pauli_channel(PauliString(1, "Z"), "projector")
    assert len(ch.pairs) == 2
    assert verify_po(ch, Z, "projector", 1.0) < 1e-12

    p = PauliString.from_label("-ZZ")
    ch = pauli_channel(p, "identity")
    assert len(ch.pairs) == 1
    K, L = ch.pairs[0]
    assert np.array_equal(K, np.kron(Z, Z)) and np.array_equal(L, -np.kron(Z, Z))
    assert verify_po(ch, p.matrix(), "identity", 1.0) < 1e-12


def test_pauli_channel_random_signed_strings():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        letters = "".join(rng.choice(list("IXYZ"), n))
        p = PauliString(1 if rng.random() < 0.5 else -1, letters)
        for variant in ("identity", "projector"):
            ch = pauli_channel(p, variant)
            assert check_cptp(ch) < 1e-12
            assert verify_po(ch, p.matrix(), variant, 1.0) < 1e-12


def test_pauli_channel_rejects_imaginary_phase():
    # the sign rule lives in PauliString: no +-i string reaches pauli_channel
    with pytest.raises(ValueError, match="phase must be"):
        PauliString(1j, "X")
    with pytest.raises(ValueError, match="imaginary phases are not allowed"):
        PauliString.from_label("+iX")


def test_apply_identity_channel_is_noop():
    st = encode_state_optimal(random_statevector(2, np.random.default_rng(1)))
    ch = KrausPairChannel(n=2, pairs=[(np.eye(4, dtype=complex), np.eye(4, dtype=complex))], eta=1.0)
    out = apply_channel(ch, st)
    assert np.abs(out.rho - st.rho).max() < 1e-15
    assert out.gamma == pytest.approx(st.gamma, abs=1e-12)


def test_hadamard_channel_on_plus():
    st = encode_state_optimal(np.array([1, 1]) / np.sqrt(2))
    out = apply_channel(gate_channel("H"), st)
    assert np.abs(decode_state(out) - np.array([1, 0])).max() < 1e-12
    assert out.gamma == pytest.approx(0.5 / np.sqrt(2), abs=1e-12)


def test_x_channel_flips_basis_state():
    st = encode_state_optimal([1, 0])
    out = apply_channel(pauli_channel(PauliString(1, "X"), "identity"), st)
    assert np.abs(np.abs(decode_state(out)) - np.array([0, 1])).max() < 1e-12


def test_apply_channel_rejects_non_cptp():
    # validation moved to construction: a bad channel never reaches apply_channel
    with pytest.raises(ChannelError):
        KrausPairChannel(n=1, pairs=[(I2 * 0.5, I2 * 0.5)], eta=None)


def test_apply_channel_does_not_recheck(monkeypatch):
    import pauliblock.channels as channels

    ch = gate_channel("H")
    monkeypatch.setattr(channels, "check_cptp", lambda *a, **k: pytest.fail("re-checked"))
    apply_channel(ch, encode_state_optimal([1, 0]))


def test_channel_pairs_are_frozen():
    ch = gate_channel("X")
    assert isinstance(ch.pairs, tuple)
    with pytest.raises(AttributeError):
        ch.eta = 2.0


def test_apply_channel_dimension_mismatch():
    st = encode_state_optimal([1, 0])
    with pytest.raises(DimensionError):
        apply_channel(gate_channel("HH_CNOT_HH"), st)


def test_compose_identities():
    ident = KrausPairChannel(n=1, pairs=[(I2.copy(), I2.copy())], eta=1.0)
    out = compose(ident, ident)
    assert out.eta == 1.0 and len(out.pairs) == 1

    hh = compose(gate_channel("H"), gate_channel("H"))
    assert verify_po(hh, np.eye(2), "projector", 0.5) < 1e-12

    ss = compose(gate_channel("HSH"), gate_channel("HSH"))
    assert verify_po(ss, X, "projector", 1.0) < 1e-12


def test_cbe_multiplicativity_on_library_pairs():
    rng = np.random.default_rng(2)
    gates = ["X", "Y", "Z", "H", "HSH", "HTH"]
    for _ in range(10):
        a = gate_channel(gates[rng.integers(len(gates))])
        b = gate_channel(gates[rng.integers(len(gates))])
        lhs = cbe_operator(compose(a, b))
        rhs = cbe_operator(b) @ cbe_operator(a)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_positivity_preserved():
    rng = np.random.default_rng(3)
    for gate in ("H", "HTH", "Z"):
        st = encode_state_optimal(random_statevector(1, rng))
        out = apply_channel(gate_channel(gate), st)
        assert np.linalg.eigvalsh(out.rho).min() > -1e-10
        assert abs(np.trace(out.rho) - 1) < 1e-12


@pytest.mark.parametrize("n,qubit", [(2, 0), (2, 1), (3, 1)])
def test_embedded_gate_keeps_block_identity(n, qubit):
    # embedded channel block-encodes V on its qubit with the projector only
    # on that qubit's row slot
    ch = embed_channel(gate_channel("HTH"), [qubit], n)
    assert check_cptp(ch) < 1e-12
    f_local = np.zeros((2, 2), dtype=complex)
    f_local[0, 0] = 1.0
    f_embedded = embed_operator(f_local, [qubit], n)
    v_embedded = embed_operator(gate_target_unitary("HTH"), [qubit], n)
    ub = bell_frame(n)
    target = ub.conj().T @ np.kron(f_embedded, v_embedded) @ ub
    assert np.abs(cbe_operator(ch) - target).max() < 1e-12


def test_embedded_cnot_on_arbitrary_pair():
    ch = embed_channel(gate_channel("HH_CNOT_HH"), [2, 0], 3)
    assert check_cptp(ch) < 1e-12
    f_local = np.zeros((4, 4), dtype=complex)
    f_local[0, 0] = 1.0
    f_embedded = embed_operator(f_local, [2, 0], 3)
    v_embedded = embed_operator(gate_target_unitary("HH_CNOT_HH"), [2, 0], 3)
    ub = bell_frame(3)
    target = ub.conj().T @ np.kron(f_embedded, v_embedded) @ ub
    assert np.abs(cbe_operator(ch) - target).max() < 1e-12


def test_cbe_operator_size_guard():
    ch = embed_channel(gate_channel("X"), [0], 5)
    with pytest.raises(DimensionError):
        cbe_operator(ch)


def test_po_target_variant_validation():
    with pytest.raises(ValueError):
        po_target(HADAMARD, "diagonal", 1)
    with pytest.raises(ValueError):
        gate_channel("HTH", "identity")


def test_wire_format_roundtrip():
    for gate in ("H", "HTH", "HH_CNOT_HH"):
        ch = gate_channel(gate)
        data = json.loads(json.dumps(channel_to_dict(ch)))
        back = channel_from_dict(data)
        assert back.n == ch.n and back.eta == pytest.approx(ch.eta)
        for (k1, l1), (k2, l2) in zip(ch.pairs, back.pairs):
            assert np.abs(k1 - k2).max() == 0.0
            assert np.abs(l1 - l2).max() == 0.0


def test_wire_format_shape():
    data = channel_to_dict(gate_channel("X"))
    assert set(data) == {"n", "eta", "pairs"}
    assert all(set(p) == {"k", "l"} for p in data["pairs"])
    # row-major [re, im] entries
    assert data["pairs"][0]["k"] == [[0.7071067811865475, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865475, 0.0]]


@pytest.mark.parametrize("gate", GATE_IDS)
def test_embedded_gate_keeps_base_residual_without_recheck(gate, monkeypatch):
    import pauliblock.channels as channels

    rng = np.random.default_rng(len(gate))
    base = gate_channel(gate)
    want = check_cptp(base)
    lifts = []
    monkeypatch.setattr(channels, "check_cptp", lambda *a, **k: pytest.fail("re-checked"))
    for _ in range(4):
        n = int(rng.integers(base.n, 7))
        qubits = [int(q) for q in rng.permutation(n)[: base.n]]
        lifts.append(embed_channel(base, qubits, n))
    monkeypatch.undo()
    for ch in lifts:
        assert abs(check_cptp(ch) - want) < 1e-15


def test_rescaled_embedded_pair_is_rejected_when_built():
    ch = embed_channel(gate_channel("HTH"), [1], 3)
    pairs = list(ch.pairs)
    pairs[0] = (1.01 * pairs[0][0], pairs[0][1])
    with pytest.raises(ChannelError):
        KrausPairChannel(n=ch.n, pairs=pairs, eta=ch.eta, qubits=ch.qubits)


def _literal_kraus_sum(base, qubits, n, rho):
    """sum_i F_i rho F_i^dag with F_i = diag(K_i, L_i) embedded as dense 2^(n+1) matrices."""
    d = 2**n
    out = np.zeros_like(rho)
    for K, L in base.pairs:
        F = np.zeros((2 * d, 2 * d), dtype=complex)
        F[:d, :d] = embed_operator(K, qubits, n)
        F[d:, d:] = embed_operator(L, qubits, n)
        out += F @ rho @ F.conj().T
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GATE_IDS), st.data())
def test_embedded_channel_matches_literal_kraus_sum(gate, data):
    variant = data.draw(st.sampled_from(F0_VARIANTS if gate in ("X", "Y", "Z") else ["projector"]))
    base = gate_channel(gate, variant)
    n = data.draw(st.integers(base.n, 5))
    qubits = [int(q) for q in data.draw(st.permutations(range(n)))[: base.n]]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = encode_state_optimal(random_statevector(n, rng))
    out = apply_channel(embed_channel(base, qubits, n), state)
    assert np.abs(out.rho - _literal_kraus_sum(base, qubits, n, state.rho)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugate_pairs_is_the_literal_kraus_sum(n):
    # random pairs that are not trace preserving, on placements in and out of order
    rng = np.random.default_rng(60 + n)
    placements = [tuple(int(q) for q in rng.permutation(n)[:k]) for k in range(1, n + 1) for _ in range(3)]
    placements += [(n - 1, 0)] if n > 1 else []
    d = 2 ** (n + 1)
    for qubits in placements:
        local = 2 ** len(qubits)
        shape = (int(rng.integers(1, 4)), 2, local, local)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = _literal_kraus_sum(SimpleNamespace(pairs=blocks), list(qubits), n, rho)
        assert np.abs(conjugate_pairs(rho, blocks, qubits) - want).max() <= 1e-15


# The library channel each circuit gate compiles to (the Hadamard-conjugated gate).
LIBRARY_GATE = {"H": "H", "S": "HSH", "T": "HTH", "CNOT": "HH_CNOT_HH"}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", range(3))
def test_program_matches_literal_kraus_sums(n, seed, monkeypatch):
    monkeypatch.setattr(suites, "EXTRA_GATES", 27)
    rng = np.random.default_rng([n, seed])
    circ = random_circuit(rng, n, k=int(rng.integers(0, 4)))
    circ = Circuit(n=n, gates=circ.gates[:30])
    state = encode_state_optimal(random_statevector(n, rng))
    rho = state.rho
    for name, qubits in circ.gates:
        rho = _literal_kraus_sum(gate_channel(LIBRARY_GATE[name]), qubits, n, rho)
    assert np.abs(run_program(compile_circuit(circ), state).rho - rho).max() <= 1e-15


def test_embedded_channel_keeps_local_pairs():
    base = gate_channel("HH_CNOT_HH")
    ch = embed_channel(base, [3, 1], 5)
    assert ch.qubits == (3, 1) and ch.n == 5
    assert all(K is Kb and L is Lb for (K, L), (Kb, Lb) in zip(ch.pairs, base.pairs))
    # re-embedding composes the qubit maps
    again = embed_channel(ch, [4, 0, 2, 5, 1], 6)
    assert again.qubits == (5, 0)


@pytest.mark.parametrize(
    "qubits,n,pair_dim",
    [
        ((0, 0), 2, 4),  # duplicate
        ((2,), 2, 2),  # out of range
        ((-1,), 2, 2),
        ((0, 1), 2, 2),  # two qubits, 2x2 pairs
        ((0,), 2, 4),  # one qubit, 4x4 pairs
        ((0.0,), 1, 2),  # not an integer
        (3, 4, 2),  # not a sequence
    ],
)
def test_bad_qubits_are_rejected_when_built(qubits, n, pair_dim):
    eye = np.eye(pair_dim, dtype=complex)
    with pytest.raises((ChannelError, DimensionError)):
        KrausPairChannel(n=n, pairs=[(eye, eye)], eta=1.0, qubits=qubits)
    entries = [[float(z.real), float(z.imag)] for z in eye.reshape(-1)]
    wire = {"n": n, "eta": 1.0, "qubits": qubits, "pairs": [{"k": entries, "l": entries}]}
    with pytest.raises((ChannelError, DimensionError)):
        channel_from_dict(wire)


def test_wire_format_writes_qubits_only_when_local():
    ch = embed_channel(gate_channel("HH_CNOT_HH"), [2, 0], 3)
    data = channel_to_dict(ch)
    assert data["qubits"] == [2, 0]
    assert len(data["pairs"][0]["k"]) == 16
    back = channel_from_dict(json.loads(json.dumps(data)))
    assert back.qubits == (2, 0) and back.n == 3
    assert "qubits" not in channel_to_dict(embed_channel(gate_channel("HH_CNOT_HH"), [0, 1], 2))


def test_compose_requires_equal_qubits():
    h = gate_channel("H")
    with pytest.raises(DimensionError):
        compose(embed_channel(h, [0], 2), embed_channel(h, [1], 2))
    hsh = gate_channel("HSH")
    both = compose(embed_channel(h, [1], 2), embed_channel(hsh, [1], 2))
    assert both.qubits == (1,)
    want = cbe_operator(embed_channel(compose(h, hsh), [1], 2))
    assert np.abs(cbe_operator(both) - want).max() == 0


def test_nan_kraus_pair_is_refused_when_built():
    bad = I2.copy()
    bad[0, 1] = np.nan
    for pair in ((bad, I2.copy()), (I2.copy(), bad)):
        with pytest.raises(ChannelError):
            KrausPairChannel(n=1, pairs=[pair])


def test_nan_kraus_pair_is_refused_from_the_wire():
    data = channel_to_dict(KrausPairChannel(n=1, pairs=[(I2.copy(), I2.copy())]))
    data["pairs"][0]["l"][1] = [float("nan"), 0.0]
    text = json.dumps(data)
    assert "NaN" in text  # Python's json module writes and reads it
    with pytest.raises(ChannelError):
        channel_from_dict(json.loads(text))


def _amplitude_damping_pairs(g):
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return [(a0, a0), (a1, a1)]


def test_amplitude_damping_is_trace_preserving_but_refused_as_a_class_leak():
    pairs = _amplitude_damping_pairs(0.3)
    assert np.abs(sum(K.conj().T @ K for K, _ in pairs) - I2).max() < 1e-15  # CPTP
    assert _transfer_and_leak(pairs)[1] > 0.1
    with pytest.raises(ChannelError, match="XOR classes"):
        KrausPairChannel(n=1, pairs=pairs)
    wire = [{"k": [[z.real, z.imag] for z in K.reshape(-1)]} for K, _ in pairs]
    for data in ({"n": 1}, {"n": 2, "qubits": [1]}):
        data["pairs"] = [dict(p, l=p["k"]) for p in wire]
        with pytest.raises(ChannelError, match="XOR classes"):
            channel_from_dict(data)


def test_library_and_pauli_channels_keep_the_xor_classes():
    for gate, variant in LIBRARY:
        assert _transfer_and_leak(gate_channel(gate, variant).pairs)[1] <= 1e-15
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for variant in F0_VARIANTS:
            p = PauliString(int(rng.choice([1, -1])), "".join(rng.choice(list("IXYZ"), size=n)))
            assert _transfer_and_leak(pauli_channel(p, variant).pairs)[1] <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transfer_matches_the_dense_kernel(n):
    # every library gate on every placement, and full-width signed Pauli channels
    rng = np.random.default_rng(20 + n)
    state = encode_state_optimal(random_statevector(n, rng))
    channels = []
    for gate, variant in LIBRARY:
        base = gate_channel(gate, variant)
        if base.n <= n:
            qubits = [int(q) for q in rng.permutation(n)[: base.n]]
            channels.append(embed_channel(base, qubits, n))
    for variant in F0_VARIANTS:
        letters = "".join(rng.choice(list("IXYZ"), size=n))
        channels.append(pauli_channel(PauliString(-1, letters), variant))
    for ch in channels:
        out = apply_channel(ch, state)
        want = conjugate_pairs(state.rho, np.array(ch.pairs), ch.qubits)
        assert np.abs(out.rho - want).max() <= 1e-15
        # the default gamma of a class state, 2^(n/2) ||c_01||, read off want's block-01 row 0
        assert abs(out.gamma - 2.0 ** (n / 2) * float(np.linalg.norm(want[0, 2**n:]))) <= 1e-15


def test_transfer_is_computed_at_construction_once_per_base(monkeypatch):
    import pauliblock.channels as channels
    from pauliblock.lindblad import build_jumps, parse_hamiltonian

    calls = []
    real = channels._transfer_and_leak
    monkeypatch.setattr(channels, "_transfer_and_leak", lambda pairs: calls.append(1) or real(pairs))
    build_jumps(parse_hamiltonian("qubits 2\n1.0 -ZZ\n1.0 -XX\n0.5 +XI\n"))
    assert len(calls) == 3  # one per jump
    base = gate_channel("HH_CNOT_HH")
    assert len(calls) == 4
    lift = embed_channel(base, [3, 1], 5)
    assert len(calls) == 4 and lift.transfer is base.transfer
    rng = np.random.default_rng(5)
    monkeypatch.setattr(suites, "EXTRA_GATES", 27)
    circ = random_circuit(rng, 5, k=3)
    del calls[:]
    prog = compile_circuit(circ)
    assert 1 <= len(calls) == len({name for name, _ in circ.gates}) <= 4
    del calls[:]
    run_program(prog, encode_state_optimal(random_statevector(5, rng)))
    run_program(prog, encode_state_optimal(random_statevector(5, rng)))
    assert calls == []


def test_class_built_states_match_the_dense_kernel():
    # the mixed state, the search protocol output and a trace-2 multiple of an encoded state
    n = 2
    st0 = encode_state_optimal(random_statevector(n, np.random.default_rng(6)))
    mixed = np.zeros((2, 2, 2**n), dtype=complex)
    mixed[[0, 1], [0, 1], 0] = 2.0 ** -(n + 1)
    states = (
        NdmeState(n, mixed),
        run_protocol(SearchOracle(n=n, target="10")),
        NdmeState(n, 2 * st0.classes),
    )
    ch = embed_channel(gate_channel("HSH"), [1], n)
    for st in states:
        want = conjugate_pairs(st.rho, np.array(ch.pairs), ch.qubits)
        assert np.abs(apply_channel(ch, st).rho - want).max() <= 1e-15
