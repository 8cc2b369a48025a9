from itertools import product

import numpy as np
import pytest

from pauliblock.errors import DimensionError
from pauliblock.paulis import (
    I2,
    PHASES,
    PauliString,
    X,
    Y,
    Z,
    bell_frame,
    bell_matrix,
    embed_operator,
    kron_all,
    parse_bits,
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


def test_pauli_matrix_fixtures():
    assert np.array_equal(PauliString.from_label("+X").matrix(), X)
    want = np.diag([-1, 1, 1, -1]).astype(complex)
    assert np.array_equal(PauliString.from_label("-ZZ").matrix(), want)
    assert np.array_equal(PauliString.from_label("+IX").matrix(), np.kron(I2, X))


def test_pauli_string_parsing_and_validation():
    p = PauliString.from_label("-XY")
    assert p.phase == -1 and p.letters == "XY" and p.label == "-XY"
    assert PauliString.from_bits([1, 0, 1]).letters == "XIX"
    assert (-PauliString(1, "Z")).label == "-Z"
    for label in ("-iXY", "+iZ", "iX"):
        with pytest.raises(ValueError, match="imaginary phases are not allowed"):
            PauliString.from_label(label)
    for phase in (2, 1j, -1j):
        with pytest.raises(ValueError, match="phase must be"):
            PauliString(phase, "X")
    with pytest.raises(ValueError):
        PauliString(1, "XQ")


def test_pauli_string_unitary_and_hermitian():
    for label in ("+XZY", "-IZ", "-Y"):
        m = PauliString.from_label(label).matrix()
        assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() < 1e-12
        assert np.abs(m - m.conj().T).max() == 0


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
    assert PauliString(-1, "YIIX").flip == 0b1001
    assert PauliString(1, "ZZZ").flip == 0
