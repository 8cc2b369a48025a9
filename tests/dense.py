"""Dense references the package itself no longer builds.

The package holds encoded states as XOR-class values and expands them only
in `NdmeState.rho`.  These helpers form the carrier matrix
S = 2^(-n/2) sum_alpha c_alpha Q_alpha, the upper-right block of a density
matrix and the invariant residuals of a state densely, for the tests to
compare against.
"""

import numpy as np

from pauliblock.encoding import NdmeState, block_coefficients, gamma_upper_bound
from pauliblock.errors import DimensionError
from pauliblock.paulis import num_qubits


def xor_class_matrix(s) -> np.ndarray:
    """Matrix M[j, k] = s[j ^ k], that is sum_delta s_delta Q_delta."""
    s = np.asarray(s, dtype=complex).reshape(-1)
    idx = np.arange(s.size)
    return s[idx[:, None] ^ idx[None, :]]


def sector_matrix(coeffs) -> np.ndarray:
    """Carrier matrix 2^(-n/2) sum_alpha coeffs_alpha Q_alpha (no norm requirement)."""
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    return xor_class_matrix(coeffs) * 2.0 ** (-num_qubits(coeffs.size) / 2)


def ndme_block(rho) -> np.ndarray:
    """Upper-right 2^n x 2^n block of a (1+n)-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got {rho.shape}")
    if num_qubits(rho.shape[0]) < 1:
        raise DimensionError("need at least one assistant and one encoding qubit")
    d = rho.shape[0] // 2
    return rho[:d, d:].copy()


def validate_ndme(state: NdmeState) -> dict:
    """Residuals of all NdmeState invariants, read from the dense rho."""
    rho = state.rho
    herm = np.abs(rho - rho.conj().T).max()
    trace = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    block = ndme_block(rho)
    b = block_coefficients(block)
    sector = np.abs(block - sector_matrix(b)).max()
    norm_b = np.linalg.norm(b)
    gamma_resid = abs(norm_b - state.gamma)
    if norm_b > 0:
        bound_slack = state.gamma - gamma_upper_bound(b / norm_b)
    else:
        bound_slack = 0.0
    return {
        "hermiticity": herm,
        "trace": trace,
        "min_eig": min_eig,
        "sector_residual": sector,
        "gamma_residual": gamma_resid,
        "gamma_bound_slack": bound_slack,
    }

