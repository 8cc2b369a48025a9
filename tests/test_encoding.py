import tracemalloc

import numpy as np
import pytest

from pauliblock import encoding
from pauliblock.encoding import (
    NdmeState,
    block_coefficients,
    check_amplitudes,
    decode_state,
    encode_state_optimal,
    gamma_upper_bound,
    hadamard_transform,
    xor_class_blocks,
    xor_class_sums,
)
from pauliblock.errors import STATE_QUBITS, VECTOR_QUBITS, DimensionError, EncodingError
from pauliblock.oracle import random_statevector
from pauliblock.paulis import HADAMARD, I2, PauliString, X, kron_all

from dense import ndme_block, sector_matrix, validate_ndme, xor_class_matrix


def _plus_state(n):
    return np.full(2**n, 2.0 ** (-n / 2))


def test_hadamard_transform_matches_dense():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        dense = kron_all([HADAMARD] * n) @ v
        assert np.abs(hadamard_transform(v) - dense).max() < 1e-12
        assert np.abs(hadamard_transform(hadamard_transform(v)) - v).max() < 1e-12


def _loop_hadamard_transform(arr):
    """The slice-by-slice butterfly the staged version replaced (reference)."""
    out = np.array(arr, dtype=complex)
    size = out.shape[0]
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            a = out[start : start + h].copy()
            b = out[start + h : start + 2 * h]
            out[start : start + h] = a + b
            out[start + h : start + 2 * h] = a - b
        h *= 2
    out /= np.sqrt(size)
    return out


@pytest.mark.parametrize("shape", [(1,), (2,), (1024,), (16, 3), (8, 4, 2)])
def test_hadamard_transform_equals_loop_reference(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for arr in (v, v.real, np.asfortranarray(v)):
        before = arr.copy()
        assert np.array_equal(hadamard_transform(arr), _loop_hadamard_transform(arr))
        assert np.array_equal(arr, before)


def test_s_from_amplitudes_fixtures():
    assert np.abs(sector_matrix([1, 0]) - I2 / np.sqrt(2)).max() < 1e-15
    plus = np.outer([1, 1], [1, 1]) / 2
    assert np.abs(sector_matrix(_plus_state(1)) - plus).max() < 1e-15
    # basis state: single Pauli term at 2^(-n/2)
    e = np.zeros(8)
    e[0b101] = 1.0
    want = PauliString.from_bits([1, 0, 1]).matrix() / 2**1.5
    assert np.abs(sector_matrix(e) - want).max() < 1e-15


def test_norm_validation():
    with pytest.raises(EncodingError):
        check_amplitudes([1.0, 1.0])
    # drift below the slack renormalizes silently
    c = np.array([1.0 + 3e-10, 0.0])
    assert abs(np.linalg.norm(check_amplitudes(c)) - 1.0) < 1e-12


def test_xor_class_pair_against_pauli_strings():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        d = 2**n
        s = rng.normal(size=d) + 1j * rng.normal(size=d)
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        strings = [PauliString.from_bits(format(a, f"0{n}b")).matrix() for a in range(d)]
        literal = sum(s_a * q for s_a, q in zip(s, strings))
        assert np.abs(xor_class_matrix(s) - literal).max() < 1e-12
        traces = np.array([np.trace(q @ B) for q in strings])
        assert np.abs(xor_class_sums(B) - traces).max() < 1e-12
        # the scaled pair is the unscaled one times 2^(-n/2)
        assert np.array_equal(sector_matrix(s), xor_class_matrix(s) * 2.0 ** (-n / 2))
        assert np.array_equal(block_coefficients(B), xor_class_sums(B) * 2.0 ** (-n / 2))


def test_encode_refuses_beyond_the_state_cap():
    n = VECTOR_QUBITS + 1
    with pytest.raises(DimensionError, match="capped at"):
        encode_state_optimal(_plus_state(n))


def test_encode_holds_class_values_beyond_the_dense_cap():
    c = random_statevector(STATE_QUBITS + 1, np.random.default_rng(12))
    assert encode_state_optimal(c).gamma == gamma_upper_bound(c)


def test_rho_refuses_beyond_the_dense_cap_before_allocating():
    state = encode_state_optimal(_plus_state(STATE_QUBITS + 1))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="capped at"):
            state.rho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the dense rho is 4^12 entries, 268 MB, at n = 11


def test_sector_diagonal_in_hadamard_frame():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        S = sector_matrix(random_statevector(n, rng))
        H = kron_all([HADAMARD] * n)
        sigma = H @ S @ H
        off = sigma - np.diag(np.diag(sigma))
        assert np.abs(off).max() < 1e-12


def test_ndme_block_fixtures():
    plus1 = np.array([1, 1]) / np.sqrt(2)
    rho = kron_all([np.outer(plus1, plus1)] * 2)
    block = ndme_block(rho)
    assert np.abs(block - np.full((2, 2), 0.25)).max() < 1e-15

    n = 2
    rho = np.kron(I2 + X, np.eye(2**n)) / 2 ** (n + 1)
    assert np.abs(ndme_block(rho) - np.eye(2**n) / 2 ** (n + 1)).max() < 1e-15

    assert np.abs(ndme_block(np.eye(8) / 8)).max() == 0.0


def test_ndme_block_dimension_error():
    with pytest.raises(DimensionError):
        ndme_block(np.eye(3))
    with pytest.raises(DimensionError):
        ndme_block(np.zeros((2, 4)))


def test_gamma_upper_bound_endpoints():
    for n in (1, 2, 3, 4):
        assert gamma_upper_bound(_plus_state(n)) == pytest.approx(0.5, abs=1e-15)
        e0 = np.zeros(2**n)
        e0[0] = 1.0
        assert gamma_upper_bound(e0) == pytest.approx(2.0 ** (-n / 2 - 1), abs=1e-15)
    assert gamma_upper_bound([0, 1]) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-15)


def test_gamma_upper_bound_bracketing():
    rng = np.random.default_rng(3)
    for i in range(200):
        n = 1 + i % 4
        b = gamma_upper_bound(random_statevector(n, rng))
        assert 2.0 ** (-n / 2 - 1) - 1e-12 <= b <= 0.5 + 1e-12


def test_encode_endpoints():
    n = 3
    st = encode_state_optimal(_plus_state(n))
    plus1 = np.array([1, 1]) / np.sqrt(2)
    assert np.abs(st.rho - kron_all([np.outer(plus1, plus1)] * (n + 1))).max() < 1e-12
    assert st.gamma == pytest.approx(0.5, abs=1e-15)

    e0 = np.zeros(2**n)
    e0[0] = 1.0
    st = encode_state_optimal(e0)
    want = np.kron(I2 + X, np.eye(2**n)) / 2 ** (n + 1)
    assert np.abs(st.rho - want).max() < 1e-12
    assert st.gamma == pytest.approx(2.0 ** (-n / 2 - 1), abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encode_decode_identity_and_invariants(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(20 if n == 3 else 8):
        c = random_statevector(n, rng)
        st = encode_state_optimal(c)
        assert np.abs(decode_state(st) - c).max() < 1e-12
        assert abs(st.gamma - gamma_upper_bound(c)) < 1e-12
        checks = validate_ndme(st)
        assert checks["hermiticity"] < 1e-12
        assert checks["trace"] < 1e-12
        assert checks["min_eig"] > -1e-10
        assert checks["sector_residual"] < 1e-12
        assert checks["gamma_residual"] < 1e-12
        assert checks["gamma_bound_slack"] < 1e-12


def test_inequality_chain_for_generated_states():
    # gamma * sum |chi| stays at or below 1/2 for every produced encoding
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = random_statevector(3, rng)
        st = encode_state_optimal(c)
        chi = hadamard_transform(block_coefficients(ndme_block(st.rho)) / st.gamma)
        assert st.gamma * np.abs(chi).sum() <= 0.5 + 1e-12


def test_optimal_encoder_saturates_chain_termwise():
    # in the Hadamard frame the diagonal blocks carry weights p0, p1 with
    # gamma |chi_b| <= sqrt(p0_b p1_b); the optimal encoder makes all three
    # equal, which is what forces equality through the whole chain
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        c = random_statevector(n, rng)
        st = encode_state_optimal(c)
        chi = hadamard_transform(c)
        frame = np.kron(I2, kron_all([HADAMARD] * n))
        conj = frame @ st.rho @ frame
        d = 2**n
        p0 = np.diag(conj[:d, :d]).real
        p1 = np.diag(conj[d:, d:]).real
        assert np.abs(p0 - st.gamma * np.abs(chi)).max() < 1e-12
        assert np.abs(p1 - st.gamma * np.abs(chi)).max() < 1e-12
        assert (st.gamma * np.abs(chi) <= np.sqrt(p0 * p1) + 1e-12).all()


def _product_encoder(c):
    """The optimal encoder as a product of phased pure states (reference).

    rho = sum_beta q_beta |phi_beta><phi_beta|, built from the dense
    Hadamard matrix and one (2d, d) x (d, 2d) product.
    """
    c = check_amplitudes(c)
    dim = c.size
    chi = hadamard_transform(c)
    mag = np.abs(chi)
    total = mag.sum()
    q = mag / total
    keep = mag > 1e-15 * total
    phase = np.ones(dim, dtype=complex)
    phase[keep] = np.exp(-1j * np.angle(chi[keep]))
    h_cols = hadamard_transform(np.eye(dim))
    amp = np.sqrt(q / 2.0)
    psi = np.vstack([h_cols * amp[None, :], h_cols * (amp * phase)[None, :]])
    return psi @ psi.conj().T, 1.0 / (2.0 * total)


def _encoder_cases(n, rng):
    basis = np.zeros(2**n)
    basis[rng.integers(2**n)] = 1.0
    return [random_statevector(n, rng) for _ in range(3)] + [basis, _plus_state(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_encoder_formula_matches_product_reference(n):
    rng = np.random.default_rng(40 + n)
    for c in _encoder_cases(n, rng):
        st = encode_state_optimal(c)
        rho, gamma = _product_encoder(c)
        assert st.gamma == gamma
        assert np.abs(st.rho - rho).max() < 1e-15
        assert np.array_equal(st.rho, st.rho.conj().T)
        assert abs(np.trace(st.rho) - 1.0) < 1e-14
        assert np.abs(ndme_block(st.rho) - st.gamma * sector_matrix(c)).max() < 1e-16


def _block_expansion(s):
    """np.block of the four XOR-class matrices (reference)."""
    return np.block([[xor_class_matrix(c) for c in row] for row in s])


def test_xor_class_blocks_is_the_block_expansion():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        d = 2**n
        s = rng.normal(size=(2, 2, d)) + 1j * rng.normal(size=(2, 2, d))
        assert np.array_equal(xor_class_blocks(s), _block_expansion(s))
        assert np.array_equal(xor_class_blocks(s / d), _block_expansion(s / d))


def test_default_gamma_is_the_inline_formula():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        d = 2**n
        st = NdmeState(n, encode_state_optimal(random_statevector(n, rng)).classes)
        rho = st.rho
        assert st.gamma == 2.0 ** (n / 2) * float(np.linalg.norm(rho[0, d:]))
        assert abs(st.gamma - float(np.linalg.norm(block_coefficients(rho[:d, d:])))) <= 1e-15


def test_nan_amplitudes_are_refused():
    for call in (encode_state_optimal, gamma_upper_bound, check_amplitudes):
        with pytest.raises(EncodingError):
            call([np.nan, 0.0])


def test_decode_reads_class_values_beyond_the_dense_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense state was formed")

    monkeypatch.setattr(encoding, "xor_class_blocks", refuse)
    c = random_statevector(STATE_QUBITS + 2, np.random.default_rng(13))
    assert np.abs(decode_state(encode_state_optimal(c)) - c).max() <= 1e-12


def test_decode_refuses_a_nonpositive_or_nan_gamma_and_nan_amplitudes():
    st = encode_state_optimal([0.6, 0.8])
    for gamma in (0.0, -st.gamma, np.nan):
        with pytest.raises(EncodingError, match="encoding factor"):
            decode_state(NdmeState(1, st.classes, gamma=gamma))
    classes = st.classes.copy()
    classes[0, 1, 1] = np.nan
    with pytest.raises(EncodingError, match="not finite"):
        decode_state(NdmeState(1, classes, gamma=st.gamma))
