"""Readout relations for encoded states.

Amplitudes come out of X/Y-type Pauli traces on the whole density matrix,
operator expectation values out of a swap-type trace between two encoded
states, and both have purification-level counterparts.  All traces are
computed exactly, the amplitude traces from a state's class values and the
others from the density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import NdmeState
from .errors import SWAP_QUBITS, DimensionError, EncodingError, check_qubits
from .paulis import PauliString, bits_to_index, embed_operator, parse_bits, pauli_trace


@dataclass(frozen=True)
class MeasurementRecord:
    """One extracted value: observable label, complex value, shot metadata."""

    observable: str
    value: complex
    shots: object = "exact"  # int or the string "exact"
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "observable": self.observable,
            "value_re": float(self.value.real),
            "value_im": float(self.value.imag),
            "shots": self.shots,
            "seed": self.seed,
        }


def assistant_traces(state: NdmeState, alpha) -> tuple:
    """The measured traces (Tr((X (x) Q_alpha) rho), Tr((Y (x) Q_alpha) rho)), as floats.

    Read off the class values c = state.classes: X (x) Q_alpha picks 2^n
    entries c_10[alpha] and then 2^n entries c_01[alpha] out of rho, so the
    traces are 2^n (c_01 + c_10)[alpha] and i 2^n (c_01 - c_10)[alpha].  The
    entries are summed as the dense trace sums them, so both traces equal
    pauli_trace on the expanded rho to the bit, with no dense state formed.
    """
    a = bits_to_index(parse_bits(alpha, state.n))
    d = 2**state.n
    entries = np.repeat(state.classes[[1, 0], [0, 1], a], d)
    tr_x = entries.sum()
    tr_y = (entries * np.repeat([-1j, 1j], d)).sum()
    if max(abs(tr_x.imag), abs(tr_y.imag)) > 1e-10:
        raise ValueError("Pauli traces of a Hermitian state should be real")
    return float(tr_x.real), float(tr_y.real)


def amplitude_from_traces(state: NdmeState, traces) -> complex:
    """Amplitude c_alpha from the traces assistant_traces(state, alpha) returns.

    With the upper-right block at gamma * S, the exact trace identities are
    Tr((X (x) Q_alpha) rho) = +2^(n/2+1) gamma Re[c_alpha] and
    Tr((Y (x) Q_alpha) rho) = -2^(n/2+1) gamma Im[c_alpha], so the
    imaginary part enters with a minus sign.
    """
    if state.gamma < 1e-14:
        raise EncodingError("encoding factor too small to divide out")
    tr_x, tr_y = traces
    scale = 2.0 ** (state.n / 2 + 1) * state.gamma
    return complex(tr_x - 1j * tr_y) / scale


def amplitude_via_pauli(state: NdmeState, alpha) -> complex:
    """Amplitude c_alpha recovered from the X and Y assistant-qubit traces."""
    return amplitude_from_traces(state, assistant_traces(state, alpha))


def _swap_matrix(n: int) -> np.ndarray:
    dim = 2**n
    swap = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            swap[j * dim + i, i * dim + j] = 1.0
    return swap


def expectation_via_swap(state: NdmeState, state1: NdmeState) -> complex:
    """Trace of the cross-assistant swap observable on state (x) state1.

    When state1 is the image of state under an eta = 1 Pauli channel, the
    returned value divided by gamma^2 is the Pauli expectation value of the
    decoded pure state.
    """
    if state.n != state1.n:
        raise DimensionError("states carry different qubit counts")
    check_qubits(state.n, SWAP_QUBITS, "expectation_via_swap")
    if abs(state.gamma - state1.gamma) > 1e-10 * max(1.0, state.gamma):
        raise EncodingError(
            f"encoding factors disagree: {state.gamma} vs {state1.gamma}"
        )
    n = state.n
    total = 2 * n + 2
    ket01 = np.zeros((2, 2), dtype=complex)
    ket01[0, 1] = 1.0  # |0><1|
    ket10 = ket01.T.copy()  # |1><0|
    enc_qubits = list(range(1, n + 1)) + list(range(n + 2, 2 * n + 2))
    # one product at a time, so at most three 4^(2n+2)-entry matrices are alive
    observable = embed_operator(np.kron(ket01, ket10), [0, n + 1], total)
    observable = observable @ embed_operator(_swap_matrix(n), enc_qubits, total)
    return complex(np.trace(observable @ np.kron(state.rho, state1.rho)))


def hle_identity_check(state: NdmeState, alpha) -> float:
    """Residual of the purification readout identity.

    Purifies rho by eigendecomposition into |P> with components
    comps[k, J] = sqrt(w_k) v_k[J] and compares <P| I_env (x) (X (x) Q_alpha + I) |P>
    with 1 + Tr((X (x) Q_alpha) rho).  X (x) Q_alpha maps |J> to |J ^ m>, m = (1, alpha),
    so the form is vdot(comps, comps[:, J ^ m]) + vdot(comps, comps).
    """
    x_q = PauliString.from_bits((1, *parse_bits(alpha, state.n)))
    rho = state.rho
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    if w.min() < -1e-8:
        raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
    comps = (v * np.sqrt(np.clip(w, 0.0, None))[None, :]).T
    lhs = np.vdot(comps, comps[:, np.arange(rho.shape[0]) ^ x_q.flip]) + np.vdot(comps, comps)
    rhs = 1.0 + pauli_trace(rho, x_q).real
    return float(abs(lhs - rhs))

