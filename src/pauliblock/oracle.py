"""Independent brute-force ground truth.

Statevector circuit simulation, dense circuit unitaries, Hermitian matrix
exponentials, and ground-space projectors.  Everything here works directly
on dense vectors and matrices and shares no machinery with the channel
pipeline, so agreement between the two paths is evidence rather than
tautology.
"""

from __future__ import annotations

import numpy as np

from .errors import OPERATOR_QUBITS, REFERENCE_QUBITS, VECTOR_QUBITS, DimensionError, check_qubits
from .paulis import num_qubits

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
_SINGLE = {"H": _H, "S": _S, "T": _T}


def _apply_single(psi: np.ndarray, gate: np.ndarray, q: int, n: int) -> np.ndarray:
    t = psi.reshape([2] * n)
    t = np.tensordot(gate, t, axes=([1], [q]))
    return np.moveaxis(t, 0, q).reshape(-1)


def _apply_cnot(psi: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    t = psi.reshape([2] * n).copy()
    sel0 = [slice(None)] * n
    sel1 = [slice(None)] * n
    sel0[control], sel0[target] = 1, 0
    sel1[control], sel1[target] = 1, 1
    t[tuple(sel0)], t[tuple(sel1)] = t[tuple(sel1)].copy(), t[tuple(sel0)].copy()
    return t.reshape(-1)


def simulate(circuit, input_state=None) -> np.ndarray:
    """Run a {H, S, T, CNOT} circuit on a statevector (default |0...0>)."""
    n = circuit.n
    check_qubits(n, VECTOR_QUBITS, "simulate")
    if input_state is None:
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(input_state, dtype=complex).reshape(-1).copy()
        if psi.size != 2**n:
            raise DimensionError(f"state length {psi.size} does not match n={n}")
    for name, qubits in circuit.gates:
        if name == "CNOT":
            psi = _apply_cnot(psi, qubits[0], qubits[1], n)
        else:
            psi = _apply_single(psi, _SINGLE[name], qubits[0], n)
    return psi


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a circuit, built column by column from basis states."""
    n = circuit.n
    check_qubits(n, OPERATOR_QUBITS, "circuit_unitary")
    dim = 2**n
    U = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        U[:, j] = simulate(circuit, e)
    return U


def amplitude_plus_u_zero(circuit, alpha: int = 0) -> complex:
    """Exact <alpha|H^n U|0...0> = 2^(-n/2) sum_j (-1)^(alpha . j) psi_j, psi = U|0...0>."""
    psi = simulate(circuit)
    masked = np.arange(psi.size) & alpha
    odd = np.zeros(psi.size, dtype=bool)
    for q in range(circuit.n):
        odd ^= (masked >> q) & 1 == 1
    return complex(np.where(odd, -psi, psi).sum() * 2.0 ** (-circuit.n / 2))


def herm_exp(Hm: np.ndarray, t: float) -> np.ndarray:
    """exp(-t Hm) for Hermitian Hm via eigendecomposition.

    Any square Hm is accepted up to dimension 2^REFERENCE_QUBITS; its size in
    qubits is ceil(log2(dim)) = (dim - 1).bit_length().
    """
    Hm = np.asarray(Hm, dtype=complex)
    check_qubits((len(Hm) - 1).bit_length(), REFERENCE_QUBITS, "herm_exp")
    if np.abs(Hm - Hm.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(Hm)
    return (v * np.exp(-t * w)) @ v.conj().T


def ground_projector(h):
    """Projector onto the lowest eigenspace of a PauliHamiltonian.

    Reads h.spectrum, the one size-checked eigensolve of h.  Eigenvalues within
    1e-9 of the minimum count as ground.  Returns (projector, ground energy).
    """
    w, v = h.spectrum
    e0 = float(w[0])
    cols = v[:, w <= e0 + 1e-9]
    return cols @ cols.conj().T, e0


def random_statevector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector (Gaussian, normalized)."""
    num_qubits(2**n)
    c = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return c / np.linalg.norm(c)
