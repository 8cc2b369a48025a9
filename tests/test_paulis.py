from itertools import product

import numpy as np
import pytest

from pauliblock import paulis
from pauliblock.errors import DimensionError
from pauliblock.paulis import (
    HADAMARD,
    I2,
    LETTER_MATRICES,
    PHASES,
    PauliString,
    X,
    Y,
    Z,
    bell_frame,
    bell_matrix,
    embed_operator,
    kraus_block_identity,
    kron_all,
    matrixize,
    pauli_decompose,
    parse_bits,
    pauli_matrix,
    pauli_trace,
    vectorize,
)


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (I2, [1, 0, 0, 1]),
        (Z, [1, 0, 0, -1]),
        (X, [0, 1, 1, 0]),
        (Y, [0, -1j, 1j, 0]),
    ],
)
def test_single_qubit_vectorization_fixtures(matrix, expected):
    assert np.array_equal(vectorize(matrix), np.array(expected, dtype=complex))


def test_vectorize_zero_and_linearity():
    assert np.array_equal(vectorize(np.zeros((4, 4))), np.zeros(16))
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = vectorize(0.3 * A + (2 - 1j) * B)
    rhs = 0.3 * vectorize(A) + (2 - 1j) * vectorize(B)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_vectorize_dimension_errors():
    with pytest.raises(DimensionError):
        vectorize(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        vectorize(np.zeros((3, 3)))


def test_matrixize_fixtures_and_roundtrip():
    assert np.array_equal(matrixize([1, 0, 0, 1]), I2)
    assert np.array_equal(matrixize([0, 1, 1, 0]), X)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.array_equal(vectorize(matrixize(v)), v)
    O = rng.normal(size=(8, 8))
    assert np.array_equal(matrixize(vectorize(O)), O.astype(complex))


def test_matrixize_length_error():
    with pytest.raises(DimensionError):
        matrixize(np.zeros(12))
    with pytest.raises(DimensionError):
        matrixize(np.zeros(8))


def test_pauli_matrix_fixtures():
    assert np.array_equal(pauli_matrix("+X"), X)
    assert np.array_equal(pauli_matrix("-ZZ"), np.diag([-1, 1, 1, -1]).astype(complex))
    assert np.array_equal(pauli_matrix("+IX"), np.kron(I2, X))


def test_pauli_string_parsing_and_validation():
    p = PauliString.from_label("-iXY")
    assert p.phase == -1j and p.letters == "XY" and not p.is_hermitian()
    assert PauliString.from_bits([1, 0, 1]).letters == "XIX"
    assert (-PauliString(1, "Z")).label == "-Z"
    with pytest.raises(ValueError):
        PauliString(2, "X")
    with pytest.raises(ValueError):
        PauliString(1, "XQ")


def test_pauli_closure_matches_dense():
    rng = np.random.default_rng(2)
    letters = "IXYZ"
    phases = [1, -1, 1j, -1j]
    for _ in range(100):
        n = rng.integers(1, 4)
        a = PauliString(phases[rng.integers(4)], "".join(rng.choice(list(letters), n)))
        b = PauliString(phases[rng.integers(4)], "".join(rng.choice(list(letters), n)))
        prod = a * b
        assert prod.phase in (1, -1, 1j, -1j)
        assert np.array_equal(a.matrix() @ b.matrix(), prod.matrix())


def test_pauli_string_unitary_and_hermitian():
    for label in ("+XZY", "-IZ", "+iY"):
        m = pauli_matrix(label)
        assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() < 1e-12
    assert np.abs(pauli_matrix("-IZ") - pauli_matrix("-IZ").conj().T).max() == 0


def test_kraus_block_identity_fixtures():
    O = np.random.default_rng(3).normal(size=(2, 2)).astype(complex)
    block, vec = kraus_block_identity(I2, I2, O)
    assert np.array_equal(vec, vectorize(O))
    assert np.array_equal(block, O)
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    block, _ = kraus_block_identity(X, I2, ket0)
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0] = 1.0
    assert np.array_equal(block, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kraus_block_identity_random(n):
    rng = np.random.default_rng(10 + n)
    d = 2**n
    for _ in range(50 if n == 2 else 10):
        K = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        O = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        block, vec = kraus_block_identity(K, L, O)
        assert np.abs(vectorize(block) - vec).max() < 1e-12


def test_kraus_block_identity_shape_error():
    with pytest.raises(DimensionError):
        kraus_block_identity(np.eye(2), np.eye(4), np.eye(2))


def test_pauli_decompose_known_identities():
    coeffs = pauli_decompose(HADAMARD)
    assert set(coeffs) == {"X", "Z"}
    assert abs(coeffs["X"] - 2**-0.5) < 1e-15
    assert abs(coeffs["Z"] - 2**-0.5) < 1e-15
    ket0 = np.diag([1.0, 0.0])
    coeffs = pauli_decompose(ket0)
    assert abs(coeffs["I"] - 0.5) < 1e-15 and abs(coeffs["Z"] - 0.5) < 1e-15


def test_pauli_decompose_reconstructs_random_hermitian():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = m + m.conj().T
    coeffs = pauli_decompose(H, drop_tol=0.0)
    rebuilt = sum(c * pauli_matrix("+" + label) for label, c in coeffs.items())
    assert np.abs(rebuilt - H).max() < 1e-12
    assert max(abs(c.imag) for c in coeffs.values()) < 1e-12


def test_pauli_decompose_size_guard():
    with pytest.raises(DimensionError):
        pauli_decompose(np.eye(2**9))


def test_bell_matrix_maps_bell_states():
    ub = bell_matrix()
    assert np.abs(ub @ ub.conj().T - np.eye(4)).max() < 1e-12
    assert np.abs(ub @ vectorize(I2) / np.sqrt(2) - np.eye(4)[:, 0]).max() < 1e-12
    assert np.abs(ub @ vectorize(X) / np.sqrt(2) - np.eye(4)[:, 1]).max() < 1e-12


def test_bell_frame_two_qubit_fixture():
    fr = bell_frame(2)
    v = fr @ vectorize(np.kron(X, I2)) / 2
    want = np.zeros(16)
    want[0b0010] = 1.0  # |0>|0>|1>|0>
    assert np.abs(v - want).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bell_frame_reads_ix_strings(n):
    fr = bell_frame(n)
    assert np.abs(fr @ fr.conj().T - np.eye(4**n)).max() < 1e-12
    for alpha in range(2**n):
        bits = [(alpha >> (n - 1 - j)) & 1 for j in range(n)]
        q = PauliString.from_bits(bits).matrix()
        v = fr @ vectorize(q) / 2 ** (n / 2)
        want = np.zeros(4**n)
        want[alpha] = 1.0  # front register |0..0>, back register |alpha>
        assert np.abs(v - want).max() < 1e-12


def test_bell_frame_size_guard():
    with pytest.raises(DimensionError):
        bell_frame(7)


def test_embed_operator_basics():
    assert np.array_equal(embed_operator(X, [1], 3), kron_all([I2, X, I2]))
    two = embed_operator(np.kron(X, Z), [2, 0], 3)
    assert np.array_equal(two, kron_all([Z, I2, X]))
    with pytest.raises(DimensionError):
        embed_operator(X, [3], 3)
    with pytest.raises(DimensionError):
        embed_operator(np.kron(X, X), [0, 0], 3)


def test_parse_bits_accepts_text_and_sequences():
    for bits in ("101", [1, 0, 1], (True, False, True), np.array([1, 0, 1], dtype=np.uint8)):
        assert parse_bits(bits, 3) == (1, 0, 1)
    assert parse_bits("0110") == (0, 1, 1, 0)
    for bad, n in (("", None), ("0b1", None), ("101", 2), ([0, 2], 2), ("1١", 2)):
        with pytest.raises(ValueError, match="expected"):
            parse_bits(bad, n)


def _kron_decompose(O, drop_tol=1e-14):
    """The Kronecker-product decomposition pauli_decompose used to run: 2^-n Tr(P O)."""
    O = np.asarray(O, dtype=complex)
    n = O.shape[0].bit_length() - 1
    coeffs = {}
    for letters in product("IXYZ", repeat=n):
        P = kron_all([LETTER_MATRICES[ch] for ch in letters])
        c = np.trace(P @ O) / O.shape[0]
        if abs(c) > drop_tol:
            coeffs["".join(letters)] = c
    return coeffs


def _random_matrix(rng, n):
    d = 2**n
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_trace_matches_dense_trace_on_every_string(n):
    M = _random_matrix(np.random.default_rng(20 + n), n)  # complex, not Hermitian
    for phase in PHASES:
        for letters in product("IXYZ", repeat=n):
            p = PauliString(phase, "".join(letters))
            assert abs(pauli_trace(M, p) - np.trace(p.matrix() @ M)) < 1e-12


def test_pauli_flip_is_the_mask_of_x_and_y_letters():
    assert PauliString(1, "IXYZ").flip == 0b0110
    assert PauliString(-1j, "YIIX").flip == 0b1001
    assert PauliString(1, "ZZZ").flip == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_decompose_matches_the_kronecker_reference(n):
    rng = np.random.default_rng(30 + n)
    for O in (_random_matrix(rng, n), kron_all([HADAMARD] * n), np.diag(rng.normal(size=2**n))):
        got = pauli_decompose(O)
        want = _kron_decompose(O)
        assert list(got) == list(want)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-14


def test_pauli_decompose_rebuilds_the_operator_at_five_qubits():
    O = _random_matrix(np.random.default_rng(35), 5)
    coeffs = pauli_decompose(O, drop_tol=0.0)
    assert len(coeffs) == 4**5
    rebuilt = sum(c * pauli_matrix("+" + label) for label, c in coeffs.items())
    assert np.abs(rebuilt - O).max() < 1e-12


def test_pauli_decompose_forms_no_kronecker_product(monkeypatch):
    rng = np.random.default_rng(36)
    labels = ["XYZIXYZI", "ZZIIYYXX", "IIIIIIII"]
    weights = rng.normal(size=3) + 1j * rng.normal(size=3)
    O = sum(w * pauli_matrix("+" + label) for w, label in zip(weights, labels))

    def refuse(*args):
        raise AssertionError("Kronecker product formed")

    monkeypatch.setattr(paulis, "kron_all", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    coeffs = pauli_decompose(O, drop_tol=1e-12)  # the OPERATOR_QUBITS cap, n = 8
    assert sorted(coeffs) == sorted(labels)
    for w, label in zip(weights, labels):
        assert abs(coeffs[label] - w) < 1e-12


def _index_trace_decompose(O, drop_tol=1e-14):
    """The per-string loop pauli_decompose ran before the transform: 2^-n pauli_trace(O, P)."""
    O = np.asarray(O, dtype=complex)
    coeffs = {}
    for label in map("".join, product("IXYZ", repeat=O.shape[0].bit_length() - 1)):
        c = pauli_trace(O, PauliString(1, label)) / O.shape[0]
        if abs(c) > drop_tol:
            coeffs[label] = c
    return coeffs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_decompose_matches_the_index_trace_loop(n):
    rng = np.random.default_rng(40 + n)
    hermitian = _random_matrix(rng, n)
    for O in (_random_matrix(rng, n), hermitian + hermitian.conj().T, kron_all([Y] * n)):
        got = pauli_decompose(O)
        want = _index_trace_decompose(O)
        assert list(got) == list(want)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-14


def test_pauli_decompose_runs_one_transform_and_no_per_string_trace(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-string trace taken")

    monkeypatch.setattr(paulis, "pauli_trace", refuse)
    O = _random_matrix(np.random.default_rng(48), 8)  # the OPERATOR_QUBITS cap
    coeffs = pauli_decompose(O, drop_tol=0.0)
    assert list(coeffs) == list(map("".join, product("IXYZ", repeat=8)))
    for label in ("IIIIIIII", "XYZIXYZI", "YYYYYYYY", "ZIZIZIZI"):
        want = np.trace(pauli_matrix("+" + label) @ O) / 2**8
        assert abs(coeffs[label] - want) < 1e-12
