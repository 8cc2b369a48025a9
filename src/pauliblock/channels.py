"""Block-diagonal Kraus-pair channels and the elementary gate library.

A channel here is a list of operator pairs (K_i, L_i) on some of the n
encoding qubits; the full Kraus operators are diag(K_i, L_i) on the
assistant qubit and those qubits (identity elsewhere), so the assistant
qubit is never mixed between blocks.  The channel's action on the
upper-right block is B -> sum_i K_i B L_i^dag, and the operator
sum_i K_i (x) conj(L_i) block-encodes the implemented map on vectorized
matrices at scale eta.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .encoding import NdmeState, xor_grid
from .errors import CBE_QUBITS, ChannelError, DimensionError, check_qubits
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

    The pairs act on the encoding qubits named by `qubits` (all n, in order,
    when omitted), so each K_i and L_i is 2^len(qubits) square.  Building
    one checks the qubits and pair shapes, runs check_cptp at that local
    dimension and computes the (2, 2, local, local) class transfer, so every
    channel that exists is trace preserving, keeps the XOR classes and needs
    no further check to be applied.  A leak above rounding (1e-12) off the
    classes raises ChannelError.  Every lift shares the base's transfer.
    """

    n: int
    pairs: tuple
    eta: float | None = None
    qubits: tuple | None = None
    transfer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.qubits is None:
            qubits = tuple(range(self.n))
        else:
            qubits = _checked_qubits(self.qubits, self.n)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "pairs", tuple(self.pairs))
        dim = 2 ** len(qubits)
        for K, L in self.pairs:
            if np.shape(K) != (dim, dim) or np.shape(L) != (dim, dim):
                raise DimensionError(
                    f"pairs on {len(qubits)} qubit(s) must be {dim}x{dim},"
                    f" got {np.shape(K)} and {np.shape(L)}"
                )
        check_cptp(self)
        transfer, leak = _transfer_and_leak(self.pairs)
        if not leak <= 1e-12:  # NaN fails too
            raise ChannelError(f"channel moves weight {leak:.3e} off the XOR classes")
        object.__setattr__(self, "transfer", transfer)


def _checked_qubits(qubits, n: int) -> tuple:
    """Qubit indices as a tuple; DimensionError unless distinct integers in 0..n-1."""
    try:
        qubits = tuple(operator.index(q) for q in qubits)
    except TypeError:
        raise DimensionError(f"qubit indices must be integers, got {qubits!r}") from None
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise DimensionError(f"need distinct qubit indices in 0..{n - 1}, got {list(qubits)}")
    return qubits


def check_cptp(ch: KrausPairChannel, atol: float = 1e-12) -> float:
    """Max deviation of sum K^dag K and sum L^dag L from the identity."""
    dim = 2 ** len(ch.qubits)
    ksum = np.zeros((dim, dim), dtype=complex)
    lsum = np.zeros((dim, dim), dtype=complex)
    for K, L in ch.pairs:
        ksum += K.conj().T @ K
        lsum += L.conj().T @ L
    resid = np.abs(np.stack([ksum, lsum]) - np.eye(dim)).max()
    if not resid <= atol:  # NaN fails too
        raise ChannelError(f"Kraus sums deviate from identity by {resid:.3e}")
    return resid


def conjugate_pairs(rho: np.ndarray, blocks: np.ndarray, qubits: tuple) -> np.ndarray:
    """sum_i diag(K_i, L_i) rho diag(K_i, L_i)^dag for a raw (2d, 2d) rho.

    blocks stacks the pairs as one (pair, 2, local, local) array holding
    (K_i, L_i) on the given encoding qubits; the pairs need not be trace
    preserving.  rho is viewed as a tensor with one axis per row and per
    column qubit (assistant first) and transposed once, so that the
    assistant and the pairs' qubits lead on the row side and trail on the
    column side; a full-width stack needs no transpose.  Each pair then
    costs two small products into reused buffers: K and L on the top and
    bottom row halves, then conj(K) and conj(L) on the left and right
    column halves.
    """
    n = num_qubits(rho.shape[0]) - 1
    local = 2 ** len(qubits)
    # index 0 is the assistant row, 1 + q qubit q's row; columns follow at n + 1
    lead = [0] + [1 + q for q in qubits]
    rest = [1 + q for q in range(n) if q not in qubits]
    lead_cols = [n + 1 + a for a in lead]
    rest_cols = [n + 1 + a for a in rest]
    order = lead + rest + rest_cols + lead_cols
    tensor = np.ascontiguousarray(rho.reshape([2] * (2 * n + 2)).transpose(order))
    rows = tensor.reshape(2, local, -1)
    half = np.empty(rows.shape, dtype=complex)
    cols = half.reshape(-1, 2, local).transpose(1, 2, 0)
    acc = np.zeros((2, local, rows.size // (2 * local)), dtype=complex)
    term = np.empty_like(acc)
    for pair, conj in zip(blocks, blocks.conj()):
        np.matmul(pair, rows, out=half)
        np.matmul(conj, cols, out=term)
        acc += term
    # acc holds the column-side lead first, then the row side and the rest
    acc_order = lead_cols + lead + rest + rest_cols
    return acc.reshape([2] * (2 * n + 2)).transpose(np.argsort(acc_order)).reshape(rho.shape)


def _transfer_and_leak(pairs) -> tuple:
    """Local class transfer T[a, b, eps, delta] of a pair set, and its leak.

    With M_0 = K and M_1 = L, T_ab[eps, delta] is the row-0 class value at
    eps of sum_i M_a,i Q_delta M_b,i^dag, that is
    sum_i sum_k M_a,i[0, k ^ delta] conj(M_b,i[eps, k]): one product with the
    pair index and k contracted.  The XOR-class-constant matrices are those
    diagonal in the Hadamard frame, spanned by the class projectors
    H|j><j|H, so the pairs keep blocks class constant exactly when every
    sum_i (H M_a,i H)|j><j|(H M_b,i H)^dag is diagonal; the leak is the
    largest off-diagonal entry of those.  Both cost O(pairs 8^k) for k qubits.
    """
    ms = np.array(pairs)  # (pair, 2, local, local)
    p, _, m, _ = ms.shape
    rows = ms[:, :, 0, :][:, :, xor_grid(num_qubits(m))]  # [i, a, delta, k] = M_a,i[0, k ^ delta]
    rows = rows.transpose(1, 2, 0, 3).reshape(2 * m, p * m)
    cols = ms.conj().transpose(0, 3, 1, 2).reshape(p * m, 2 * m)  # [(i, k), (b, eps)]
    transfer = (rows @ cols).reshape(2, m, 2, m).transpose(0, 2, 3, 1)
    walsh = kron_all([HADAMARD] * num_qubits(m))
    framed = walsh @ ms @ walsh
    diagonal = np.arange(m)
    step = max(1, (1 << 20) // (4 * m * m))  # projectors per product, about 2^20 image entries
    leak = 0.0
    for j in range(0, m, step):
        col = framed[:, :, :, j : j + step].transpose(3, 1, 2, 0).reshape(-1, 2 * m, p)  # [j, (a, r), i]
        image = np.abs(col @ col.conj().transpose(0, 2, 1)).reshape(-1, 2, m, 2, m)  # [j, a, r, b, s]
        image[:, :, diagonal, :, diagonal] = 0.0
        leak = max(leak, float(image.max()))
    return transfer, leak


def apply_channel(ch: KrausPairChannel, state: NdmeState) -> NdmeState:
    """Apply the channel to an encoded state's class values by its local class transfer.

    A block sum_delta c[delta] Q_delta maps to sum_eps (T c)[eps] Q_eps, one
    local class index at a time, so the class values are transposed to put
    the channel's qubits first, multiplied by ch.transfer and transposed
    back.  The output gamma is 2^(n/2) ||c_01||, which equals
    eta * gamma_in * ||V psi|| whenever the channel block-encodes an
    operator V.
    """
    if state.n != ch.n:
        raise DimensionError(f"channel n={ch.n} does not match state n={state.n}")
    n = ch.n
    axes = (0, 1) + tuple(2 + q for q in ch.qubits)
    axes += tuple(2 + q for q in range(n) if q not in ch.qubits)
    lead = state.classes.reshape((2, 2) + (2,) * n).transpose(axes)
    out = ch.transfer @ lead.reshape(2, 2, 2 ** len(ch.qubits), -1)
    out = out.reshape((2, 2) + (2,) * n).transpose(np.argsort(axes)).reshape(2, 2, 2**n)
    return NdmeState(n=n, classes=out)


def cbe_operator(ch: KrausPairChannel) -> np.ndarray:
    """The block-encoding operator sum_i K_i (x) conj(L_i) on all 2n qubits.

    The local sum acts on the channel's row qubits q and column qubits
    n + q and is embedded there.
    """
    check_qubits(ch.n, CBE_QUBITS, "cbe_operator")
    dim = 4 ** len(ch.qubits)
    out = np.zeros((dim, dim), dtype=complex)
    for K, L in ch.pairs:
        out += np.kron(K, L.conj())
    return embed_operator(out, list(ch.qubits) + [ch.n + q for q in ch.qubits], 2 * ch.n)


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


def embed_channel(ch: KrausPairChannel, qubits, n: int) -> KrausPairChannel:
    """Place a channel on the given qubits of an n-qubit encoding system.

    Qubit j of ch becomes qubits[j].  The checked pairs are kept as they are
    and only the qubit labels change, so the lift is not checked again: its
    Kraus sums on the n qubits are the base sums tensored with the identity.
    The lift shares the base's class transfer array, so a program computes
    one per library gate.
    """
    qubits = _checked_qubits(qubits, n)
    if len(qubits) != ch.n:
        raise DimensionError(f"need {ch.n} qubit indices, got {list(qubits)}")
    lifted = object.__new__(KrausPairChannel)
    placed = tuple(qubits[q] for q in ch.qubits)
    fields = (("n", n), ("pairs", ch.pairs), ("eta", ch.eta), ("qubits", placed), ("transfer", ch.transfer))
    for name, value in fields:
        object.__setattr__(lifted, name, value)
    return lifted


def _matrix_to_wire(M: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(M, dtype=complex).reshape(-1)]


def channel_to_dict(ch: KrausPairChannel) -> dict:
    """Wire format: row-major [re, im] entry lists plus n and eta.

    "qubits" is written only when the pairs do not act on all n qubits in
    order, so full-width channels keep the format they always had.
    """
    data = {
        "n": ch.n,
        "eta": None if ch.eta is None else float(ch.eta),
        "pairs": [
            {"k": _matrix_to_wire(K), "l": _matrix_to_wire(L)} for K, L in ch.pairs
        ],
    }
    if ch.qubits != tuple(range(ch.n)):
        data["qubits"] = list(ch.qubits)
    return data

