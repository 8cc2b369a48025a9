"""Dense complex linear algebra and signed Pauli-string bookkeeping.

Conventions used throughout the package:

* Qubit 0 is the leftmost (most significant) tensor factor.
* Vectorization is row-major: a matrix O = sum_ij o_ij |i><j| maps to the
  vector sum_ij o_ij |i>|j|, i.e. ``O.reshape(-1)``.
* In the vectorized 2n-qubit space the n row-space qubits sit in front and
  the n column-space qubits behind; the Bell frame pairs qubit j with
  qubit n + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import REFERENCE_QUBITS, DimensionError, check_qubits

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

LETTER_MATRICES = {"I": I2, "X": X, "Y": Y, "Z": Z}
PHASES = (1 + 0j, -1 + 0j)


def is_power_of_two(k: int) -> bool:
    return k > 0 and (k & (k - 1)) == 0


def num_qubits(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension, or DimensionError."""
    if not is_power_of_two(dim):
        raise DimensionError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def parse_bits(bits, n: int | None = None) -> tuple:
    """A bit string as a tuple of ints: '0'/'1' text or a sequence of 0/1 values.

    Raises ValueError unless it is nonempty, holds only 0 and 1 and, when n
    is given, has n bits.
    """
    if isinstance(bits, str):
        values = tuple(int(ch) for ch in bits if ch in "01")
        ok = len(values) == len(bits)
    else:
        values = tuple(int(b) for b in bits)
        ok = all(b in (0, 1) for b in values)
    if not ok or not values or (n is not None and len(values) != n):
        want = "a bit string" if n is None else f"a string of {n} bits"
        raise ValueError(f"expected {want}, got {bits!r}")
    return values


def bits_to_index(bits) -> int:
    """The integer whose binary digits, most significant first, are bits."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


@dataclass(frozen=True)
class PauliString:
    """A Hermitian signed tensor product over {I, X, Y, Z}: phase +1 or -1."""

    phase: complex
    letters: str

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be +1 or -1, got {self.phase}")
        object.__setattr__(self, "phase", complex(self.phase))
        if not self.letters or any(ch not in "IXYZ" for ch in self.letters):
            raise ValueError(f"letters must be a nonempty string over IXYZ, got {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse labels like "XZ", "+IX", "-YI"; an "i" phase is refused."""
        s = label.strip()
        phase = 1 + 0j
        if s.startswith("+"):
            s = s[1:]
        elif s.startswith("-"):
            phase = -1 + 0j
            s = s[1:]
        if s.startswith("i"):
            raise ValueError("imaginary phases are not allowed")
        return cls(phase, s)

    @classmethod
    def from_bits(cls, bits) -> "PauliString":
        """The string with X where a bit is 1 and I where it is 0."""
        letters = "".join("X" if int(b) else "I" for b in bits)
        return cls(1, letters)

    @property
    def flip(self) -> int:
        """The mask x of the X and Y letters: P|K> = s_K |K ^ x>."""
        return int("".join("1" if ch in "XY" else "0" for ch in self.letters), 2)

    @property
    def label(self) -> str:
        return ("+" if self.phase == 1 else "-") + self.letters

    def matrix(self) -> np.ndarray:
        return self.phase * kron_all([LETTER_MATRICES[ch] for ch in self.letters])

    def __neg__(self) -> "PauliString":
        return PauliString(-self.phase, self.letters)


def vectorize(O: np.ndarray) -> np.ndarray:
    """Row-major vectorization sum_ij o_ij |i>|j>."""
    O = np.asarray(O, dtype=complex)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {O.shape}")
    num_qubits(O.shape[0])
    return O.reshape(-1).copy()


def pauli_trace(M: np.ndarray, p: PauliString) -> complex:
    """Tr(P M) = sum_J s_{J ^ x} M[J ^ x, J] in J order, with no operator formed.

    P|K> = s_K |K ^ x>, x = p.flip, and s_K is p.phase times i per Y times -1 per
    Y or Z on a 1 bit of K; a Y flips that bit, so it negates the terms whose J has it clear.
    """
    idx = np.arange(M.shape[0])
    terms = (p.phase * 1j ** p.letters.count("Y")) * M[idx ^ p.flip, idx]
    view = terms.reshape((2,) * p.n)  # axis q is bit q of J, qubit 0 the most significant
    for q, ch in enumerate(p.letters):
        if ch in "YZ":
            view[(slice(None),) * q + (int(ch == "Z"),)] *= -1
    return complex(terms.sum())


def embed_operator(op: np.ndarray, qubits, n: int) -> np.ndarray:
    """Embed a 2^m-dimensional operator onto the given qubit indices of n qubits."""
    op = np.asarray(op, dtype=complex)
    qubits = list(qubits)
    m = num_qubits(op.shape[0])
    if len(qubits) != m or len(set(qubits)) != m:
        raise DimensionError(f"need {m} distinct qubit indices, got {qubits}")
    if any(q < 0 or q >= n for q in qubits):
        raise DimensionError(f"qubit indices {qubits} out of range for n={n}")
    rest = [q for q in range(n) if q not in qubits]
    full = np.kron(op, np.eye(2 ** (n - m), dtype=complex))
    order = qubits + rest  # order[slot] = natural qubit label of tensor slot
    axes = [order.index(j) for j in range(n)]
    t = full.reshape([2] * (2 * n))
    t = t.transpose(axes + [n + a for a in axes])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def bell_matrix() -> np.ndarray:
    """The two-qubit Bell circuit (H (x) I) CNOT."""
    return np.kron(HADAMARD, I2) @ CNOT


def bell_frame(n: int) -> np.ndarray:
    """Tensor power of the Bell circuit on the vectorized 2n-qubit space.

    Pair j couples row-space qubit j with column-space qubit n + j.
    """
    check_qubits(n, REFERENCE_QUBITS, "bell_frame")
    ub = bell_matrix()
    out = np.eye(4**n, dtype=complex)
    for j in range(n):
        out = embed_operator(ub, [j, n + j], 2 * n) @ out
    return out
