"""Encode amplitude vectors into the upper-right block of a density matrix.

An n-qubit amplitude vector c lives in the carrier matrix
S = 2^(-n/2) sum_alpha c_alpha Q_alpha, where Q_alpha runs over the {I, X}
strings indexed by n-bit strings alpha.  A (1+n)-qubit density matrix rho
with upper-right block gamma * S carries the same information at scale
gamma; the first qubit selects the block and is called the assistant qubit.
Encoded states are constant on XOR classes in every block and are held as
those class values (see NdmeState).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import STATE_QUBITS, VECTOR_QUBITS, DimensionError, EncodingError, check_qubits
from .paulis import is_power_of_two, num_qubits

NORM_SLACK = 1e-9


def check_amplitudes(c) -> np.ndarray:
    """Validate and renormalize an amplitude vector (drift above 1e-9 or NaN is an error)."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    num_qubits(c.size)
    norm = np.linalg.norm(c)
    if not abs(norm - 1.0) <= NORM_SLACK:
        raise EncodingError(f"amplitude vector norm {norm} is not 1")
    return c / norm


@lru_cache(maxsize=None)
def xor_grid(n: int) -> np.ndarray:
    """Index grid g[j, k] = j XOR k over 2^n basis labels."""
    idx = np.arange(2**n)
    return idx[:, None] ^ idx[None, :]


def hadamard_transform(arr: np.ndarray) -> np.ndarray:
    """Apply the normalized n-fold Hadamard transform along the first axis.

    Stage h pairs index j with j + h inside every block of 2h, so each stage
    is one butterfly on a (size / 2h, 2, h, ...) view.
    """
    out = np.array(arr, dtype=complex, order="C")
    size = out.shape[0]
    if not is_power_of_two(size):
        raise DimensionError(f"axis length {size} is not a power of two")
    h = 1
    while h < size:
        pairs = out.reshape(size // (2 * h), 2, h, *out.shape[1:])
        a = pairs[:, 0].copy()
        b = pairs[:, 1]
        pairs[:, 0] = a + b
        pairs[:, 1] = a - b
        h *= 2
    out /= np.sqrt(size)
    return out


def xor_class_blocks(s: np.ndarray) -> np.ndarray:
    """Matrix with blocks B_ab[j, k] = s[a, b, j ^ k], that is sum_delta s[a, b, delta] Q_delta."""
    s = np.asarray(s, dtype=complex)
    d = s.shape[2]
    grid = xor_grid(num_qubits(d))
    out = np.empty((2, d, 2, d), dtype=complex)
    for a, b in np.ndindex(2, 2):  # block by block, so the result is the one full-size array
        out[a, :, b] = s[a, b][grid]
    return out.reshape(2 * d, 2 * d)


def xor_class_sums(B: np.ndarray) -> np.ndarray:
    """XOR-class sums s[delta] = sum_j B[j, j ^ delta] = Tr(Q_delta B) of a square matrix.

    Each sum runs along a contiguous row of the gather, so numpy adds it
    pairwise; a sum over the first axis would add sequentially and lose accuracy.
    """
    B = np.asarray(B, dtype=complex)
    n = num_qubits(B.shape[0])
    return B[np.arange(2**n)[None, :], xor_grid(n)].sum(axis=1)


def class_trace(c: np.ndarray) -> complex:
    """Tr(rho) of the state with class values c: 2^n (c_00[0] + c_11[0])."""
    return c.shape[2] * (c[0, 0, 0] + c[1, 1, 0])


def block_coefficients(B: np.ndarray) -> np.ndarray:
    """Raw {I, X}-sector coefficients 2^(-n/2) Tr(Q_alpha B) of a block matrix."""
    traces = xor_class_sums(B)
    return traces * 2.0 ** (-num_qubits(traces.size) / 2)


class NdmeState:
    """A (1+n)-qubit density matrix whose upper-right block equals gamma * S.

    Every state is XOR-class constant in each block,
    rho_ab[j, k] = classes[a, b, j ^ k], and is held as those class values,
    an array of shape (2, 2, 2^n); `rho` expands them on first access, up
    to STATE_QUBITS.
    Without an explicit gamma, gamma = 2^(n/2) ||classes[0, 1]||.
    """

    def __init__(self, n: int, classes: np.ndarray, gamma: float | None = None):
        self.n = n
        self.classes = classes
        if gamma is None:
            gamma = 2.0 ** (n / 2) * float(np.linalg.norm(classes[0, 1]))
        self.gamma = gamma

    @cached_property
    def rho(self) -> np.ndarray:
        check_qubits(self.n, STATE_QUBITS, "NdmeState.rho")
        return xor_class_blocks(self.classes)


def gamma_upper_bound(c) -> float:
    """Largest encoding factor achievable for the given amplitudes."""
    c = check_amplitudes(c)
    chi = hadamard_transform(c)
    return 1.0 / (2.0 * np.abs(chi).sum())


def encode_state_optimal(c) -> NdmeState:
    """Encode amplitudes at the largest achievable gamma.

    The mixture sum_beta q_beta |phi_beta><phi_beta| with q_beta proportional
    to |chi_beta|, chi = H^n c, and phi_beta = (|0> + e^{-i arg chi_beta} |1>)
    / sqrt(2) (x) H^n |beta> is XOR-class constant in each block, so it is
    written as gamma [[D, S], [S^dag, D]] with S the carrier matrix of c and
    D that of H^n |chi|, and held as the class values of those blocks.
    """
    c = check_amplitudes(c)
    n = num_qubits(c.size)
    check_qubits(n, VECTOR_QUBITS, "encode_state_optimal")
    chi = hadamard_transform(c)
    mag = np.abs(chi)
    gamma = 1.0 / (2.0 * mag.sum())  # positive: chi is a unit vector
    diag = hadamard_transform(mag)
    classes = gamma * 2.0 ** (-n / 2) * np.array([[diag, c], [c.conj(), diag]])
    return NdmeState(n=n, gamma=gamma, classes=classes)


def decode_state(state: NdmeState) -> np.ndarray:
    """Amplitudes carried by an NdmeState, 2^(n/2) c_01 / gamma, read from its class values."""
    if not state.gamma > 0.0:  # NaN fails too
        raise EncodingError(f"encoding factor must be positive, got {state.gamma}")
    c = 2.0 ** (state.n / 2) * state.classes[0, 1] / state.gamma
    if not np.isfinite(c).all():
        raise EncodingError("decoded amplitudes are not finite")
    return c
