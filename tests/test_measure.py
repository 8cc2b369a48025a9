import tracemalloc

import numpy as np
import pytest

from pauliblock.channels import apply_channel, pauli_channel
from pauliblock.encoding import NdmeState, encode_state_optimal
from pauliblock.errors import SWAP_QUBITS, DimensionError, EncodingError
from pauliblock.measure import (
    MeasurementRecord,
    amplitude_via_pauli,
    assistant_traces,
    expectation_via_swap,
    hle_identity_check,
)
from pauliblock.oracle import random_statevector
from pauliblock.paulis import PauliString, X, pauli_trace
from pauliblock.search import SearchOracle, oracle_apply, run_protocol


def _plus(n):
    return np.full(2**n, 2.0 ** (-n / 2))


def _mixed(n):
    """The maximally mixed (1+n)-qubit state, held as its class values at gamma 0."""
    c = np.zeros((2, 2, 2**n), dtype=complex)
    c[[0, 1], [0, 1], 0] = 2.0 ** -(n + 1)
    return NdmeState(n, c, gamma=0.0)


def test_amplitude_on_uniform_state():
    n = 3
    st = encode_state_optimal(_plus(n))
    for alpha in ("000", "101"):
        assert amplitude_via_pauli(st, alpha) == pytest.approx(2.0 ** (-n / 2), abs=1e-12)
    # the raw trace sits at exactly 1 for the uniform state
    q = PauliString.from_bits([0, 0, 0]).matrix()
    x_obs = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), q)
    assert np.trace(x_obs @ st.rho).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_assistant_traces_equal_dense_traces(n):
    rng = np.random.default_rng(n)
    st = encode_state_optimal(random_statevector(n, rng))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for alpha in range(2**n):
        bits = [(alpha >> (n - 1 - j)) & 1 for j in range(n)]
        q = PauliString.from_bits(bits).matrix()
        want = (np.trace(np.kron(x, q) @ st.rho).real, np.trace(np.kron(y, q) @ st.rho).real)
        assert assistant_traces(st, bits) == want


def test_amplitude_on_basis_state():
    n = 2
    e0 = np.zeros(2**n)
    e0[0] = 1.0
    st = encode_state_optimal(e0)
    assert amplitude_via_pauli(st, "00") == pytest.approx(1.0, abs=1e-12)
    assert amplitude_via_pauli(st, "11") == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_amplitude_recovers_complex_phases(n):
    rng = np.random.default_rng(n)
    c = random_statevector(n, rng)
    st = encode_state_optimal(c)
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        assert amplitude_via_pauli(st, bits) == pytest.approx(c[idx], abs=1e-10)


def test_amplitude_degenerate_gamma():
    st = _mixed(1)
    with pytest.raises(EncodingError):
        amplitude_via_pauli(st, "0")


def test_swap_expectation_fixtures():
    n = 2
    st = encode_state_optimal(_plus(n))
    p = PauliString(1, "XI")
    value = expectation_via_swap(st, apply_channel(pauli_channel(p, "identity"), st))
    assert value.real == pytest.approx(st.gamma**2, abs=1e-12)  # <+|X|+> = 1
    assert abs(value.imag) < 1e-12

    ident = PauliString(1, "II")
    value = expectation_via_swap(st, apply_channel(pauli_channel(ident, "identity"), st))
    assert value.real == pytest.approx(st.gamma**2, abs=1e-12)

    e0 = np.zeros(2**n)
    e0[0] = 1.0
    st0 = encode_state_optimal(e0)
    value = expectation_via_swap(st0, apply_channel(pauli_channel(PauliString(1, "ZI"), "identity"), st0))
    assert value.real / st0.gamma**2 == pytest.approx(1.0, abs=1e-10)


def test_swap_expectation_random_states():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        for _ in range(5):
            c = random_statevector(n, rng)
            st = encode_state_optimal(c)
            letters = "".join(rng.choice(list("IXYZ"), n))
            p = PauliString(1 if rng.random() < 0.5 else -1, letters)
            value = expectation_via_swap(st, apply_channel(pauli_channel(p, "identity"), st))
            want = (c.conj() @ p.matrix() @ c).real
            assert value.real / st.gamma**2 == pytest.approx(want, abs=1e-10)
            assert abs(value.imag) < 1e-10


def test_swap_expectation_gamma_mismatch():
    st = encode_state_optimal(_plus(2))
    other = encode_state_optimal([1, 0, 0, 0])
    with pytest.raises(EncodingError):
        expectation_via_swap(st, other)


def test_swap_expectation_qubit_count_mismatch():
    from pauliblock.errors import DimensionError

    st = encode_state_optimal(_plus(2))
    other = encode_state_optimal(_plus(3))
    with pytest.raises(DimensionError):
        expectation_via_swap(st, other)


def test_amplitude_alpha_validation():
    st = encode_state_optimal(_plus(2))
    with pytest.raises(ValueError):
        amplitude_via_pauli(st, "011")
    with pytest.raises(ValueError):
        amplitude_via_pauli(st, "2x")


def test_hle_identity_pure_mixed_random():
    n = 2
    st = encode_state_optimal(_plus(n))
    assert hle_identity_check(st, "00") < 1e-12
    # both sides equal 2 for the uniform encoding at alpha = 0
    obs = np.kron(
        np.array([[0, 1], [1, 0]]), PauliString.from_bits([0] * n).matrix()
    )
    assert 1 + np.trace(obs @ st.rho).real == pytest.approx(2.0, abs=1e-12)

    mixed = _mixed(n)
    assert hle_identity_check(mixed, "01") < 1e-12

    rng = np.random.default_rng(3)
    for _ in range(5):
        st = encode_state_optimal(random_statevector(n, rng))
        assert hle_identity_check(st, rng.integers(0, 2, n)) < 1e-10


def test_measurement_record_json_fields():
    rec = MeasurementRecord("X(x)Q_01", 0.25 - 0.5j, shots=100, seed=7)
    data = rec.to_json_dict()
    assert data == {
        "observable": "X(x)Q_01",
        "value_re": 0.25,
        "value_im": -0.5,
        "shots": 100,
        "seed": 7,
    }


def test_signal_ordering_for_optimal_encodings():
    # the raw trace beats the bare amplitude once the scale exceeds one
    rng = np.random.default_rng(4)
    for n in (2, 3):
        c = random_statevector(n, rng)
        st = encode_state_optimal(c)
        scale = 2.0 ** (n / 2 + 1) * st.gamma
        for alpha in range(2**n):
            raw = scale * abs(c[alpha])
            if scale >= 1.0:
                assert raw >= abs(c[alpha])


def _dense_hle_residual(state, alpha):
    """The purification check with the dense I_env (x) (X (x) Q_alpha + I) (reference)."""
    rho = state.rho
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    dim = rho.shape[0]
    purified = (v * np.sqrt(w)[None, :]).T.reshape(-1)
    observable = np.kron(X, PauliString.from_bits(alpha).matrix())
    big = np.kron(np.eye(dim), observable + np.eye(dim))
    lhs = purified.conj() @ big @ purified
    rhs = 1.0 + np.trace(observable @ rho)
    return float(abs(lhs - rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hle_identity_check_matches_dense_reference(n):
    rng = np.random.default_rng(60 + n)
    states = [encode_state_optimal(random_statevector(n, rng)) for _ in range(3)]
    states.append(_mixed(n))
    states.append(run_protocol(SearchOracle(n, rng.integers(0, 2, n))))
    for state in states:
        for alpha in ([0] * n, rng.integers(0, 2, n), [1] * n):
            got = hle_identity_check(state, alpha)
            assert abs(got - _dense_hle_residual(state, alpha)) < 1e-15


def test_hle_identity_check_builds_no_operator():
    state = encode_state_optimal(random_statevector(4, np.random.default_rng(9)))
    tracemalloc.start()
    try:
        hle_identity_check(state, "1011")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the dense operator alone is 16 MB at n = 4


def test_pauli_trace_matches_dense_trace_on_density_matrices():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        d = 2**n
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        for _ in range(12):
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            p = PauliString(1 if rng.random() < 0.5 else -1, letters)
            want = np.trace(p.matrix() @ rho)
            assert abs(pauli_trace(rho, p) - want) < 1e-15


def test_swap_cap_is_checked_before_allocating():
    rng = np.random.default_rng(11)
    n = SWAP_QUBITS + 1
    state = encode_state_optimal(random_statevector(n, rng))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="capped at"):
            expectation_via_swap(state, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one 16^(n+1)-entry operator is 1 GB at n = 5


def _gathered_traces(state, a):
    """The hand-written index gather assistant_traces used before pauli_trace."""
    d = 2**state.n
    idx = np.arange(2 * d)
    entries = state.rho[idx ^ (d + a), idx]
    tr_x = entries.sum()
    tr_y = np.concatenate([-1j * entries[:d], 1j * entries[d:]]).sum()
    return float(tr_x.real), float(tr_y.real)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_assistant_traces_equal_the_old_gather_exactly(n):
    rng = np.random.default_rng(70 + n)
    state = encode_state_optimal(random_statevector(n, rng))
    for a in rng.integers(0, 2**n, 6):
        assert assistant_traces(state, f"{a:0{n}b}") == _gathered_traces(state, int(a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_verification_trace_equals_the_old_gather_exactly(n):
    rng = np.random.default_rng(80 + n)
    orc = SearchOracle(n=n, target=rng.integers(0, 2, n))
    d = 2**n
    idx = np.arange(2 * d)
    for a in range(d):
        x_q = PauliString.from_bits(f"1{a:0{n}b}")
        out = oracle_apply(orc, (np.eye(2 * d) + 0.7 * x_q.matrix()) / (2 * d))
        assert pauli_trace(out, x_q).real == out[idx ^ (d + a), idx].sum().real


@pytest.mark.parametrize("n", range(1, 7))
def test_traces_from_class_values_match_pauli_trace_on_the_expanded_rho(n):
    from pauliblock.compiler import compile_circuit, run_program
    from pauliblock.suites import random_circuit

    rng = np.random.default_rng(90 + n)
    encoded = encode_state_optimal(random_statevector(n, rng))
    ran = run_program(compile_circuit(random_circuit(rng, n, k=2)), encoded)
    for state in (encoded, ran):
        rho = NdmeState(n=n, classes=state.classes, gamma=state.gamma).rho  # a fresh expansion
        for a in range(2**n):
            alpha = f"{a:0{n}b}"
            x_q = PauliString.from_bits("1" + alpha)
            y_q = PauliString(1, "Y" + x_q.letters[1:])
            want = (pauli_trace(rho, x_q).real, pauli_trace(rho, y_q).real)
            assert assistant_traces(state, alpha) == want
        d = 2**n
        # ||B||_F^2 = sum_jk |c_01[j ^ k]|^2 = 2^n ||c_01||^2, so gamma is the block's Frobenius norm
        assert state.gamma == pytest.approx(np.linalg.norm(rho[:d, d:]), abs=1e-15)
