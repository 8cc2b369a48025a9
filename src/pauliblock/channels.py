"""Block-diagonal Kraus-pair channels and the elementary gate library.

A channel here is a list of operator pairs (K_i, L_i); the full Kraus
operators are diag(K_i, L_i) on the (1+n)-qubit space, so the assistant
qubit is never mixed between blocks.  The channel's action on the
upper-right block is B -> sum_i K_i B L_i^dag, and the operator
sum_i K_i (x) conj(L_i) block-encodes the implemented map on vectorized
matrices at scale eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import NdmeState, block_coefficients
from .errors import ChannelError, DimensionError
from .paulis import (
    CNOT,
    HADAMARD,
    I2,
    PauliString,
    X,
    Y,
    Z,
    bell_frame,
    embed_operator,
    kron_all,
    num_qubits,
)

S_GATE = np.diag([1, 1j]).astype(complex)
T_GATE = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)

_SQRT2 = np.sqrt(2.0)

# Conjugated phase-gate blocks, written entrywise (not built as H S H /
# H T H, so that the verification against those products stays meaningful).
# The L slots carry the complex conjugates of these blocks: the channel's
# vectorized action is sum K (x) conj(L), so conjugating L twice lands on
# the intended H S H / H T H targets.
_E4 = np.exp(-1j * np.pi / 4)
_HSH_L1 = 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]])
_HSH_L2 = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_HTH_L1 = 0.5 * np.array([[1 + _E4, 1 - _E4], [1 - _E4, 1 + _E4]])
_HTH_L2 = 0.5 * np.array([[1 - _E4, 1 + _E4], [1 + _E4, 1 - _E4]])

GATE_IDS = ("X", "Y", "Z", "H", "HSH", "HTH", "HH_CNOT_HH")
F0_VARIANTS = ("projector", "identity")

# Per-letter pair tables for Pauli-string channels.  Each entry maps a
# letter to a list of (K, L) factors; tensoring one factor per qubit and
# taking all combinations yields the channel pairs.
_PAULI_PAIRS_IDENTITY = {
    "I": [(I2, I2)],
    "X": [(I2, X)],
    "Y": [(Z, -Y)],
    "Z": [(Z, Z)],
}
_PAULI_PAIRS_PROJECTOR = {
    "I": [(I2 / _SQRT2, I2 / _SQRT2), (X / _SQRT2, X / _SQRT2)],
    "X": [(I2 / _SQRT2, X / _SQRT2), (X / _SQRT2, I2 / _SQRT2)],
    "Y": [(Z / _SQRT2, -Y / _SQRT2), (Y / _SQRT2, Z / _SQRT2)],
    "Z": [(Z / _SQRT2, Z / _SQRT2), (Y / _SQRT2, Y / _SQRT2)],
}


@dataclass(frozen=True)
class KrausPairChannel:
    """A tuple of (K_i, L_i) pairs with an optional block-encoding scale eta.

    Building one runs check_cptp, so every channel that exists is trace
    preserving and applying it needs no further check.
    """

    n: int
    pairs: tuple
    eta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        check_cptp(self)


def check_cptp(ch: KrausPairChannel, atol: float = 1e-12) -> float:
    """Max deviation of sum K^dag K and sum L^dag L from the identity."""
    dim = 2**ch.n
    ksum = np.zeros((dim, dim), dtype=complex)
    lsum = np.zeros((dim, dim), dtype=complex)
    for K, L in ch.pairs:
        ksum += K.conj().T @ K
        lsum += L.conj().T @ L
    eye = np.eye(dim)
    resid = max(np.abs(ksum - eye).max(), np.abs(lsum - eye).max())
    if resid > atol:
        raise ChannelError(f"Kraus sums deviate from identity by {resid:.3e}")
    return resid


def apply_channel(ch: KrausPairChannel, state: NdmeState) -> NdmeState:
    """Apply the channel to an encoded state, recomputing the encoding factor.

    The output gamma is the l2 norm of the {I, X}-sector coefficients of the
    transformed block, which equals eta * gamma_in * ||V psi|| whenever the
    channel block-encodes an operator V.
    """
    if state.n != ch.n:
        raise DimensionError(f"channel n={ch.n} does not match state n={state.n}")
    d = 2**ch.n
    rho = state.rho
    r00, r01 = rho[:d, :d], rho[:d, d:]
    r10, r11 = rho[d:, :d], rho[d:, d:]
    o00 = np.zeros_like(r00)
    o01 = np.zeros_like(r01)
    o10 = np.zeros_like(r10)
    o11 = np.zeros_like(r11)
    for K, L in ch.pairs:
        Kd, Ld = K.conj().T, L.conj().T
        o00 += K @ r00 @ Kd
        o01 += K @ r01 @ Ld
        o10 += L @ r10 @ Kd
        o11 += L @ r11 @ Ld
    out = np.block([[o00, o01], [o10, o11]])
    gamma = float(np.linalg.norm(block_coefficients(o01)))
    return NdmeState(n=state.n, rho=out, gamma=gamma)


def cbe_operator(ch: KrausPairChannel) -> np.ndarray:
    """The block-encoding operator sum_i K_i (x) conj(L_i)."""
    if ch.n > 4:
        raise DimensionError("dense block-encoding operators capped at 4 qubits")
    dim = 4**ch.n
    out = np.zeros((dim, dim), dtype=complex)
    for K, L in ch.pairs:
        out += np.kron(K, L.conj())
    return out


def po_target(V: np.ndarray, f0_variant: str, m: int) -> np.ndarray:
    """The Bell-frame conjugated target U_B^dag (F0 (x) V) U_B on m qubit pairs."""
    if f0_variant not in F0_VARIANTS:
        raise ValueError(f"unknown F0 variant {f0_variant!r}")
    dim = 2**m
    if f0_variant == "projector":
        f0 = np.zeros((dim, dim), dtype=complex)
        f0[0, 0] = 1.0
    else:
        f0 = np.eye(dim, dtype=complex)
    ub = bell_frame(m)
    return ub.conj().T @ np.kron(f0, V) @ ub


def verify_po(ch: KrausPairChannel, V: np.ndarray, f0_variant: str, eta: float) -> float:
    """Max-entry residual of the block-encoding identity for the claimed target."""
    V = np.asarray(V, dtype=complex)
    m = num_qubits(V.shape[0])
    if m != ch.n:
        raise DimensionError(f"target acts on {m} qubits but channel has n={ch.n}")
    return float(np.abs(cbe_operator(ch) - eta * po_target(V, f0_variant, m)).max())


def pauli_channel(p: PauliString, f0_variant: str = "identity") -> KrausPairChannel:
    """eta = 1 channel implementing a signed Pauli string on the encoded state.

    Built per qubit from the letter tables and, for a requested -1 sign,
    flipping the sign of every L block once (a global Kraus phase would be
    unobservable, the relative block sign is not).
    """
    if p.phase not in (1 + 0j, -1 + 0j):
        raise ValueError("Pauli channels support only +1/-1 phases")
    if f0_variant not in F0_VARIANTS:
        raise ValueError(f"unknown F0 variant {f0_variant!r}")
    table = _PAULI_PAIRS_IDENTITY if f0_variant == "identity" else _PAULI_PAIRS_PROJECTOR
    pairs = [(np.eye(1, dtype=complex), np.eye(1, dtype=complex))]
    for letter in p.letters:
        pairs = [
            (np.kron(K, k), np.kron(L, l))
            for K, L in pairs
            for k, l in table[letter]
        ]
    if p.phase == -1 + 0j:
        pairs = [(K, -L) for K, L in pairs]
    return KrausPairChannel(n=p.n, pairs=pairs, eta=1.0)


def gate_channel(gate: str, f0_variant: str = "projector") -> KrausPairChannel:
    """The optimal-attenuation channel for one library gate.

    Pauli gates accept both F0 variants; the conjugated gates are defined
    for the projector variant only.
    """
    if gate in ("X", "Y", "Z"):
        return pauli_channel(PauliString(1, gate), f0_variant)
    if f0_variant != "projector":
        raise ValueError(f"gate {gate} is only constructed for the projector variant")
    if gate == "H":
        half = [(I2, X), (Z, Z), (X, I2), (Y, Y)]
        pairs = [(K / 2, L / 2) for K, L in half]
        return KrausPairChannel(n=1, pairs=pairs, eta=1 / _SQRT2)
    if gate == "HSH":
        pairs = [(I2 / _SQRT2, _HSH_L1 / _SQRT2), (X / _SQRT2, _HSH_L2 / _SQRT2)]
        return KrausPairChannel(n=1, pairs=pairs, eta=1.0)
    if gate == "HTH":
        pairs = [(I2 / _SQRT2, _HTH_L1 / _SQRT2), (X / _SQRT2, _HTH_L2 / _SQRT2)]
        return KrausPairChannel(n=1, pairs=pairs, eta=1.0)
    if gate == "HH_CNOT_HH":
        # Four equal pairs (A, A); the X-projectors on the control slot
        # assemble the all-zeros projector after the Bell-frame conjugation.
        plus = (I2 + X) / 2
        minus = (I2 - X) / 2
        blocks = [
            kron_all([plus, I2]),
            kron_all([plus, X]),
            kron_all([minus, Y]),
            kron_all([minus, Z]),
        ]
        pairs = [(A / _SQRT2, A / _SQRT2) for A in blocks]
        return KrausPairChannel(n=2, pairs=pairs, eta=1.0)
    raise ValueError(f"unknown gate {gate!r}")


def gate_target_unitary(gate: str) -> np.ndarray:
    """The operator each library channel block-encodes, built independently."""
    if gate in ("X", "Y", "Z"):
        return {"X": X, "Y": Y, "Z": Z}[gate].copy()
    if gate == "H":
        return HADAMARD.copy()
    if gate == "HSH":
        return HADAMARD @ S_GATE @ HADAMARD
    if gate == "HTH":
        return HADAMARD @ T_GATE @ HADAMARD
    if gate == "HH_CNOT_HH":
        hh = np.kron(HADAMARD, HADAMARD)
        return hh @ CNOT @ hh
    raise ValueError(f"unknown gate {gate!r}")


def compose(first: KrausPairChannel, then: KrausPairChannel) -> KrausPairChannel:
    """Sequential composition; pair products multiply, eta multiplies."""
    if first.n != then.n:
        raise DimensionError("cannot compose channels of different sizes")
    pairs = [
        (K2 @ K1, L2 @ L1)
        for K1, L1 in first.pairs
        for K2, L2 in then.pairs
    ]
    eta = None if first.eta is None or then.eta is None else first.eta * then.eta
    return KrausPairChannel(n=first.n, pairs=pairs, eta=eta)


def embed_channel(ch: KrausPairChannel, qubits, n: int) -> KrausPairChannel:
    """Lift a channel onto the given qubits of an n-qubit encoding system.

    The lift is not checked again: its Kraus sums are the base channel's
    sums tensored with the identity, sum (K (x) I)^dag (K (x) I) =
    (sum K^dag K) (x) I, and the base channel was checked when it was built.
    """
    lifted = object.__new__(KrausPairChannel)
    pairs = tuple(
        (embed_operator(K, qubits, n), embed_operator(L, qubits, n))
        for K, L in ch.pairs
    )
    for name, value in (("n", n), ("pairs", pairs), ("eta", ch.eta)):
        object.__setattr__(lifted, name, value)
    return lifted


def _matrix_to_wire(M: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(M, dtype=complex).reshape(-1)]


def _matrix_from_wire(entries, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries])
    if flat.size != dim * dim:
        raise DimensionError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def channel_to_dict(ch: KrausPairChannel) -> dict:
    """Wire format: row-major [re, im] entry lists plus n and eta."""
    return {
        "n": ch.n,
        "eta": None if ch.eta is None else float(ch.eta),
        "pairs": [
            {"k": _matrix_to_wire(K), "l": _matrix_to_wire(L)} for K, L in ch.pairs
        ],
    }


def channel_from_dict(data: dict) -> KrausPairChannel:
    """Inverse of channel_to_dict; a non-trace-preserving channel raises ChannelError."""
    n = int(data["n"])
    dim = 2**n
    pairs = [
        (_matrix_from_wire(p["k"], dim), _matrix_from_wire(p["l"], dim))
        for p in data["pairs"]
    ]
    eta = data.get("eta")
    return KrausPairChannel(n=n, pairs=pairs, eta=None if eta is None else float(eta))
