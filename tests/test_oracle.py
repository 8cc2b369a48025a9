import numpy as np
import pytest

from pauliblock import oracle
from pauliblock.compiler import Circuit, parse_circuit
from pauliblock.errors import VECTOR_QUBITS, DimensionError
from pauliblock.lindblad import PauliHamiltonian, parse_hamiltonian
from pauliblock.paulis import HADAMARD, Z, bell_matrix, kron_all
from pauliblock.suites import random_circuit


def test_simulate_single_gates():
    circ = Circuit(n=1, gates=(("H", (0,)),))
    assert np.abs(oracle.simulate(circ) - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12

    circ = Circuit(n=2, gates=(("CNOT", (0, 1)),))
    ten = np.zeros(4)
    ten[0b10] = 1.0
    out = oracle.simulate(circ, ten)
    want = np.zeros(4)
    want[0b11] = 1.0
    assert np.abs(out - want).max() < 1e-12


def test_simulate_matches_bell_frame_convention():
    # CNOT then H on the control wire reproduces the Bell-frame unitary
    circ = parse_circuit("qubits 2\nCNOT 0 1\nH 0")
    assert np.abs(oracle.circuit_unitary(circ) - bell_matrix()).max() < 1e-12


def test_simulate_preserves_norm():
    rng = np.random.default_rng(0)
    from pauliblock.suites import random_circuit

    for _ in range(5):
        n = int(rng.integers(2, 5))
        circ = random_circuit(rng, n, k=int(rng.integers(0, 3)))
        psi = oracle.simulate(circ, oracle.random_statevector(n, rng))
        assert abs(np.linalg.norm(psi) - 1) < 1e-12


def test_amplitude_plus_u_zero_fixtures():
    assert oracle.amplitude_plus_u_zero(Circuit(n=2, gates=())) == pytest.approx(0.5)
    circ = Circuit(n=3, gates=(("H", (0,)), ("H", (1,)), ("H", (2,))))
    assert oracle.amplitude_plus_u_zero(circ) == pytest.approx(1.0)


def test_herm_exp_fixtures():
    assert np.abs(oracle.herm_exp(Z, 0.0) - np.eye(2)).max() < 1e-12
    out = oracle.herm_exp(Z, 1.0)
    assert np.abs(out - np.diag([np.exp(-1.0), np.exp(1.0)])).max() < 1e-12


def test_herm_exp_group_property():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = m + m.conj().T
    lhs = oracle.herm_exp(H, 0.3) @ oracle.herm_exp(H, 0.7)
    assert np.abs(lhs - oracle.herm_exp(H, 1.0)).max() < 1e-10


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        oracle.herm_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_ground_projector_fixtures():
    h = parse_hamiltonian("qubits 2\n1.0 -ZZ\n1.0 -XX\n")
    proj, energy = oracle.ground_projector(h)
    assert energy == pytest.approx(-2.0, abs=1e-12)
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    assert np.abs(proj - np.outer(bell, bell)).max() < 1e-10

    hf = parse_hamiltonian("qubits 1\n1.0 +X\n1.0 +Z\n")
    _, energy = oracle.ground_projector(hf)
    assert energy == pytest.approx(-np.sqrt(2), abs=1e-12)

    empty = PauliHamiltonian(n=1, terms=())
    proj, energy = oracle.ground_projector(empty)
    assert np.abs(proj - np.eye(2)).max() < 1e-12 and energy == 0.0


def test_ground_projector_idempotent_and_commuting():
    h = parse_hamiltonian("qubits 2\n0.8 -ZI\n0.4 +XX\n")
    proj, _ = oracle.ground_projector(h)
    assert np.abs(proj @ proj - proj).max() < 1e-10
    hm = h.matrix()
    assert np.abs(proj @ hm - hm @ proj).max() < 1e-10


def test_size_guards():
    with pytest.raises(DimensionError):
        oracle.simulate(Circuit(n=VECTOR_QUBITS + 1, gates=()))
    with pytest.raises(DimensionError):
        oracle.herm_exp(np.eye(128), 1.0)


def test_amplitude_at_alpha_matches_dense_hadamard():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        circ = random_circuit(rng, n, k=int(rng.integers(0, 3)))
        psi = oracle.simulate(circ)
        want = kron_all([HADAMARD] * n) @ psi
        for alpha in range(2**n):
            assert abs(oracle.amplitude_plus_u_zero(circ, alpha) - want[alpha]) < 1e-15
        # alpha = 0 keeps the plain sum
        assert oracle.amplitude_plus_u_zero(circ) == complex(psi.sum() * 2.0 ** (-n / 2))
