"""Planted-target search driven by an attenuation-1/3 oracle channel.

The oracle is the mixture (2/3) C_x + (1/3) C_I: C_I twirls each block over
the {I, X} strings with a sign flip on the cross blocks, and C_x collapses
diagonal blocks to the maximally mixed state while projecting the
off-diagonal blocks onto the single string matching the planted target.
Net effect on the X (x) Q_alpha operators: the target string is kept at
scale 1/3, every other string is negated at scale 1/3.  Every output block
is XOR-class constant, B_ab[j, k] = c_ab[j ^ k], so the oracle acts on the
class values c[a, b, delta] of an NdmeState and reads nothing else of its
input.

The protocol mixes one oracle application into a fresh uniform state,
samples the result in the X basis as rows of n+1 bits, discards the rows
whose last n bits are all zero (the two outcomes attributable to the
maximally mixed component), and recovers the target from the remaining
rows by GF(2) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import NdmeState, hadamard_transform, xor_class_blocks, xor_class_sums
from .errors import (
    KRAUS_SUM_QUBITS,
    MAX_SHOTS,
    STATE_QUBITS,
    VECTOR_QUBITS,
    DimensionError,
    SearchFailure,
    check_qubits,
)
from .paulis import bits_to_index, parse_bits

ORACLE_ETA = 1.0 / 3.0
# batches of n accepted rows that a search draws before it gives up
MAX_BATCHES = 64


@dataclass(frozen=True)
class SearchOracle:
    n: int
    target: tuple

    def __post_init__(self):
        check_qubits(self.n, VECTOR_QUBITS, "search")
        object.__setattr__(self, "target", parse_bits(self.target, self.n))

    @property
    def target_index(self) -> int:
        return bits_to_index(self.target)


def _oracle_classes(c: np.ndarray, xi: int) -> np.ndarray:
    """The oracle (2/3) C_x + (1/3) C_I on class values.

    C_I keeps every class and negates those of the cross blocks; C_x keeps
    only c[0] on the diagonal blocks and only c[xi] on the cross blocks, so
    the output is the C_I term with the four kept classes raised in place.
    """
    out = (1.0 / 3.0) * c
    out[[0, 1], [1, 0]] *= -1.0
    for spikes in (([0, 1], [0, 1], 0), ([0, 1], [1, 0], xi)):
        out[spikes] = (2.0 / 3.0) * c[spikes] + out[spikes]
    return out


def oracle_apply(oracle: SearchOracle, rho: np.ndarray) -> np.ndarray:
    """Structured fast path for one oracle application, O(4^n) work."""
    check_qubits(oracle.n, STATE_QUBITS, "oracle_apply")
    rho = np.asarray(rho, dtype=complex)
    d = 2**oracle.n
    if rho.shape != (2 * d, 2 * d):
        raise DimensionError(f"expected shape {(2 * d, 2 * d)}, got {rho.shape}")
    blocks = rho.reshape(2, d, 2, d).transpose(0, 2, 1, 3)
    c = np.array([[xor_class_sums(B) for B in row] for row in blocks]) / d
    return xor_class_blocks(_oracle_classes(c, oracle.target_index))


def oracle_apply_kraus(oracle: SearchOracle, rho: np.ndarray) -> np.ndarray:
    """Literal Kraus-sum evaluation (test oracle for the fast path), n <= KRAUS_SUM_QUBITS."""
    n = oracle.n
    check_qubits(n, KRAUS_SUM_QUBITS, "oracle_apply_kraus")
    rho = np.asarray(rho, dtype=complex)
    d = 2**n
    xi = oracle.target_index
    idx = np.arange(d)
    out_x = np.zeros_like(rho)
    scale = 1.0 / d
    for i in range(d):
        for j in range(d):
            K = np.zeros((d, d), dtype=complex)
            K[i, j] = 1.0
            L = np.zeros((d, d), dtype=complex)
            L[i ^ xi, j ^ xi] = 1.0
            F = np.block(
                [[K, np.zeros((d, d))], [np.zeros((d, d)), L]]
            ) * np.sqrt(scale)
            out_x += F @ rho @ F.conj().T
    out_i = np.zeros_like(rho)
    for i in range(d):
        Q = np.eye(d, dtype=complex)[idx ^ i]
        F = np.block(
            [[Q, np.zeros((d, d))], [np.zeros((d, d)), -Q]]
        ) * np.sqrt(scale)
        out_i += F @ rho @ F.conj().T
    return (2.0 / 3.0) * out_x + (1.0 / 3.0) * out_i


def run_protocol(oracle: SearchOracle) -> NdmeState:
    """The protocol output after one controlled oracle query, as class values.

    The controlled channel on the block-diagonal input reduces to the
    classical mixture eta/(1+eta) * rho_sys + 1/(1+eta) * C[rho_sys] with
    rho_sys the uniform (n+1)-qubit state, whose class values are all 1/2^(n+1).
    """
    c = np.full((2, 2, 2**oracle.n), 0.5 / 2**oracle.n, dtype=complex)
    w = ORACLE_ETA / (1.0 + ORACLE_ETA)
    out = _oracle_classes(c, oracle.target_index)
    out *= 1.0 - w
    out += w * 0.5 / 2**oracle.n
    return NdmeState(oracle.n, out)


def rho_out_closed_form(n: int, x) -> np.ndarray:
    """The protocol output assembled directly from its block structure."""
    check_qubits(n, STATE_QUBITS, "rho_out_closed_form")
    bits = parse_bits(x, n)
    d = 2**n
    plus = np.full((d, d), 1.0 / d, dtype=complex)
    diag = 0.5 * plus + 2.0 ** -(n + 1) * np.eye(d)
    idx = np.arange(d)
    qx = np.eye(d, dtype=complex)[idx ^ bits_to_index(bits)]
    off = 2.0 ** -(n + 1) * qx
    return 0.5 * np.block([[diag, off], [off, diag]])


def x_basis_probabilities(state: NdmeState) -> np.ndarray:
    """Outcome distribution of measuring every qubit of a class state in the X basis.

    The diagonal of H rho H depends on rho only through its XOR-class sums
    S_(e, delta) = sum_J rho[J, J ^ (e, delta)] = 2^n (c_0e + c_1(1-e))[delta]:
    p_beta is proportional to sum_Delta (-1)^(beta.Delta) S_Delta, one
    Walsh-Hadamard transform of length 2^(n+1) and no dense rho.
    """
    c = state.classes
    sums = np.concatenate([c[0, 0] + c[1, 1], c[0, 1] + c[1, 0]])
    probs = np.clip(hadamard_transform(sums).real, 0.0, None)
    return probs / probs.sum()


def _indices_to_bits(indices: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def sample_outcomes(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Draw X-basis outcomes as rows of n+1 bits, the control bit first.

    A row whose last n bits are all zero (all-plus or minus-all-plus) is
    rejected: those two outcomes carry the entire maximally-mixed component
    of the protocol output, so every other row satisfies the target parity
    relation exactly.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    check_qubits(shots, MAX_SHOTS, "sample_outcomes", unit="shots")
    width = probs.size.bit_length() - 1
    rng = np.random.default_rng(seed)
    return _indices_to_bits(rng.choice(probs.size, size=shots, p=probs), width)


def _gf2_eliminate(M: np.ndarray, cols: int):
    """Gauss-Jordan elimination over GF(2), pivoting on the first cols columns.

    Returns the reduced copy of M and its pivot columns in row order.
    """
    M = np.asarray(M, dtype=np.uint8) % 2
    rows = M.shape[0]
    pivot_cols = []
    for c in range(cols):
        r = len(pivot_cols)
        if r == rows:
            break
        nonzero = np.flatnonzero(M[r:, c])
        if nonzero.size == 0:
            continue
        pivot = r + int(nonzero[0])
        M[[r, pivot]] = M[[pivot, r]]
        for i in range(rows):
            if i != r and M[i, c]:
                M[i] ^= M[r]
        pivot_cols.append(c)
    return M, pivot_cols


def gf2_solve(A: np.ndarray, b: np.ndarray):
    """Solve A r = b over GF(2); None unless the solution is unique."""
    A = np.asarray(A, dtype=np.uint8)
    cols = A.shape[1]
    aug, pivot_cols = _gf2_eliminate(np.column_stack([A, np.asarray(b, dtype=np.uint8)]), cols)
    if len(pivot_cols) < cols:
        return None  # underdetermined
    if np.any(aug[len(pivot_cols):, cols]):
        return None  # inconsistent
    x = np.zeros(cols, dtype=np.uint8)
    x[pivot_cols] = aug[: len(pivot_cols), cols]
    return x


def gf2_rank(A: np.ndarray) -> int:
    A = np.asarray(A, dtype=np.uint8)
    return len(_gf2_eliminate(A, A.shape[1])[1])


def end_to_end_search(n: int, x, seed):
    """Full pipeline: protocol state, sampling, post-selection, GF(2) solve.

    The protocol state stays as its class values and is never expanded, so
    building the sampling distribution costs O(2^n) time and memory;
    search_distribution does the rest.
    """
    probs = x_basis_probabilities(run_protocol(SearchOracle(n=n, target=x)))
    return search_distribution(probs, seed)


def search_distribution(probs: np.ndarray, seed):
    """Sampling, post-selection and GF(2) solve on a protocol X-basis distribution.

    Outcome rows are drawn with sample_outcomes in chunks of max(4n, 8) and
    consumed in order.  Each batch runs up to its n-th accepted row; an
    accepted row beta is the parity equation beta_0 + sum_l beta_l r_l = 0
    (mod 2) on the target r, and gf2_solve on the batch's n rows gives r
    once their trailing bits span the space, within MAX_BATCHES batches.  Returns
    (found_bits, stats) where stats reports oracle_queries (every consumed
    row costs one query), acceptance_rate, and independence_batches
    (batches consumed).
    """
    n = probs.size.bit_length() - 2
    rng = np.random.default_rng(seed)
    chunk = max(4 * n, 8)
    rows = np.empty((0, n + 1), dtype=np.uint8)
    kept = np.empty(0, dtype=bool)
    queries = 0
    for batch_no in range(1, MAX_BATCHES + 1):
        while np.count_nonzero(kept) < n:
            drawn = sample_outcomes(probs, chunk, rng)
            rows = np.concatenate([rows, drawn])
            kept = np.concatenate([kept, drawn[:, 1:].any(axis=1)])
        used = int(np.flatnonzero(kept)[n - 1]) + 1
        accepted = rows[:used][kept[:used]]
        solution = gf2_solve(accepted[:, 1:], accepted[:, 0])
        rows, kept = rows[used:], kept[used:]
        queries += used
        if solution is not None:
            stats = {
                "oracle_queries": queries,
                "acceptance_rate": batch_no * n / queries,
                "independence_batches": batch_no,
            }
            return solution, stats
    raise SearchFailure(f"no full-rank batch found in {MAX_BATCHES} attempts")
