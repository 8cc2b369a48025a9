"""Dissipative block dynamics from a signed Pauli Hamiltonian.

Each Hamiltonian term lambda_i P_i becomes a jump operator
F_i = diag(P1_i, P2_i) built so that the Bell-frame conjugation of
P1 (x) conj(P2) equals -I (x) P_i.  Since every F_i is unitary, the
dissipator reduces to sum_i lambda_i (F rho F^dag - rho), and the
upper-right block then evolves exactly as the unnormalized flow
d psi/dt = (-H_p - sum lambda_i) psi of the decoded state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .encoding import NdmeState, block_coefficients, ndme_block, sector_matrix
from .errors import DimensionError, IntegratorError, ParseError, read_qubit_text
from .paulis import PauliString, X, bell_frame, num_qubits, pauli_matrix

# Classical RK4 is stable on the negative real axis down to about -2.785.
RK4_STABILITY_LIMIT = 2.785

# Per-letter factors (k, l, l_sign) with U_B (k (x) conj(sign*l)) U_B^dag = I (x) letter.
_JUMP_LETTER = {
    "I": ("I", "I", 1),
    "X": ("I", "X", 1),
    "Y": ("Z", "Y", -1),
    "Z": ("Z", "Z", 1),
}


@dataclass(frozen=True)
class PauliHamiltonian:
    """Nonnegative weights on signed Pauli strings."""

    n: int
    terms: tuple  # of (lambda_i, PauliString)

    def matrix(self) -> np.ndarray:
        out = np.zeros((2**self.n, 2**self.n), dtype=complex)
        for lam, p in self.terms:
            out += lam * p.matrix()
        return out

    def rate_sum(self) -> float:
        return float(sum(lam for lam, _ in self.terms))


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse lines "<lambda> <sign><letters>" under a "qubits n" header."""
    n, body = read_qubit_text(text)
    terms = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, "expected '<lambda> <signed Pauli string>'")
        try:
            lam = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"bad weight {tokens[0]!r}") from None
        if lam < 0:
            raise ParseError(lineno, "weights must be nonnegative")
        if not np.isfinite(lam):
            raise ParseError(lineno, "weights must be finite")
        try:
            p = PauliString.from_label(tokens[1])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if p.phase not in (1 + 0j, -1 + 0j):
            raise ParseError(lineno, "imaginary phases are not allowed")
        if p.n != n:
            raise ParseError(lineno, f"string has {p.n} letters, expected {n}")
        terms.append((lam, p))
    return PauliHamiltonian(n=n, terms=tuple(terms))


@dataclass(frozen=True)
class JumpSet:
    n: int
    jumps: tuple  # of (lambda_i, P1: PauliString, P2: PauliString)


def build_jumps(h: PauliHamiltonian) -> JumpSet:
    """Jump pair for each term, targeting -I (x) P_i in the Bell frame.

    The per-letter factors produce +I (x) |P_i|; the L-side sign is flipped
    once exactly when P_i carries phase +1, which lands the dense product on
    -I (x) P_i for either sign of the term.
    """
    jumps = []
    for lam, p in h.terms:
        k_letters = []
        l_letters = []
        l_phase = 1 + 0j
        for letter in p.letters:
            k, l, sign = _JUMP_LETTER[letter]
            k_letters.append(k)
            l_letters.append(l)
            l_phase *= sign
        if p.phase == 1 + 0j:
            l_phase = -l_phase
        p1 = PauliString(1, "".join(k_letters))
        p2 = PauliString(l_phase, "".join(l_letters))
        jumps.append((lam, p1, p2))
    return JumpSet(n=h.n, jumps=tuple(jumps))


def validate_jumps(jumps: JumpSet, h: PauliHamiltonian) -> float:
    """Max residual of the Bell-frame identity over all jumps.

    Dense check U_B (P1 (x) conj(P2)) U_B^dag = -I (x) P_i at n <= 3.  For
    larger n the per-letter table entries are checked densely on one qubit
    pair and the accumulated signs are audited; the tensor structure makes
    that equivalent and exact.
    """
    worst = 0.0
    if jumps.n <= 3:
        ub = bell_frame(jumps.n)
        eye = np.eye(2**jumps.n)
        for (_, p1, p2), (_, p) in zip(jumps.jumps, h.terms):
            lhs = ub @ np.kron(p1.matrix(), p2.matrix().conj()) @ ub.conj().T
            rhs = -np.kron(eye, p.matrix())
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst
    ub = bell_frame(1)
    for (_, p1, p2), (_, p) in zip(jumps.jumps, h.terms):
        expected_phase = 1 + 0j
        for k, l, letter in zip(p1.letters, p2.letters, p.letters):
            tk, tl, sign = _JUMP_LETTER[letter]
            if (k, l) != (tk, tl):
                return 2.0
            expected_phase *= sign
            lhs = ub @ np.kron(
                pauli_matrix(tk), (sign * pauli_matrix(tl)).conj()
            ) @ ub.conj().T
            target = np.kron(np.eye(2), pauli_matrix(letter))
            worst = max(worst, float(np.abs(lhs - target).max()))
        if p.phase == 1 + 0j:
            expected_phase = -expected_phase
        worst = max(
            worst, float(abs(p1.phase - 1)), float(abs(p2.phase - expected_phase))
        )
    return worst


def lindblad_rhs(rho: np.ndarray, jumps: JumpSet) -> np.ndarray:
    """sum_i lambda_i (F_i rho F_i^dag - rho) evaluated blockwise."""
    d = 2**jumps.n
    if rho.shape[0] != 2 * d:
        raise DimensionError(f"state dimension {rho.shape[0]} does not match jumps")
    mats = [(lam, p1.matrix(), p2.matrix()) for lam, p1, p2 in jumps.jumps]
    return _rhs_from_mats(rho, mats, d)


def _rhs_from_mats(rho, mats, d):
    r00, r01 = rho[:d, :d], rho[:d, d:]
    r10, r11 = rho[d:, :d], rho[d:, d:]
    out = np.zeros_like(rho)
    for lam, m1, m2 in mats:
        out[:d, :d] += lam * (m1 @ r00 @ m1.conj().T - r00)
        out[:d, d:] += lam * (m1 @ r01 @ m2.conj().T - r01)
        out[d:, :d] += lam * (m2 @ r10 @ m1.conj().T - r10)
        out[d:, d:] += lam * (m2 @ r11 @ m2.conj().T - r11)
    return out


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list
    block_norms: np.ndarray


def evolve(
    state0: NdmeState,
    jumps: JumpSet,
    t_max: float,
    dt: float = 1e-3,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step classical RK4 integration of the dissipator.

    t_max must be a whole number of steps (to a relative 1e-9), so the
    trajectory ends exactly at t_max.  Snapshots are recorded every
    record_every steps (plus start and end).  Trace drift beyond 1e-6
    aborts with IntegratorError.

    Every jump is a Hermitian unitary, so the dissipator's spectrum lies in
    [-2 sum lambda, 0]; a step with 2 dt sum lambda beyond RK4's real-axis
    stability limit is rejected before it is taken.  The trace guard cannot
    catch that case: RK4 preserves the trace while the entries blow up.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < dt:
        raise ValueError("t_max must be at least dt")
    if state0.n != jumps.n:
        raise DimensionError("state and jump set disagree on qubit count")
    steps = int(round(t_max / dt))
    if abs(t_max / dt - steps) > 1e-9 * (t_max / dt):
        raise ValueError(f"t_max={t_max} is not a whole number of steps of dt={dt}")
    rate_sum = sum(lam for lam, _, _ in jumps.jumps)
    if 2.0 * dt * rate_sum > RK4_STABILITY_LIMIT:
        raise ValueError(
            f"dt={dt} is unstable for rate sum {rate_sum}: RK4 needs"
            f" 2 * dt * rate sum <= {RK4_STABILITY_LIMIT}"
        )
    d = 2**jumps.n
    mats = [(lam, p1.matrix(), p2.matrix()) for lam, p1, p2 in jumps.jumps]
    rho = state0.rho.astype(complex).copy()

    times = [0.0]
    states = [state0]
    norms = [float(np.linalg.norm(state0.block()))]
    for step in range(1, steps + 1):
        k1 = _rhs_from_mats(rho, mats, d)
        k2 = _rhs_from_mats(rho + 0.5 * dt * k1, mats, d)
        k3 = _rhs_from_mats(rho + 0.5 * dt * k2, mats, d)
        k4 = _rhs_from_mats(rho + dt * k3, mats, d)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.trace(rho) - 1.0)
        if drift > 1e-6:
            raise IntegratorError(f"trace drifted by {drift:.3e} at step {step}")
        if step % record_every == 0 or step == steps:
            block = rho[:d, d:]
            gamma = float(np.linalg.norm(block_coefficients(block)))
            times.append(step * dt)
            states.append(NdmeState(n=jumps.n, rho=rho.copy(), gamma=gamma))
            norms.append(float(np.linalg.norm(block)))
    return Trajectory(
        times=np.array(times), states=states, block_norms=np.array(norms)
    )


def ite_reference(psi0, h: PauliHamiltonian, t: float) -> np.ndarray:
    """Unnormalized exp(-t (H_p + sum lambda)) psi0 via eigendecomposition."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    n = num_qubits(psi0.size)
    if n != h.n:
        raise DimensionError("state and Hamiltonian disagree on qubit count")
    if n > 6:
        raise DimensionError("dense propagator capped at 6 qubits")
    generator = h.matrix() + h.rate_sum() * np.eye(2**n)
    return oracle.herm_exp(generator, t) @ psi0


def ite_block_residual(
    state0: NdmeState, h: PauliHamiltonian, t_max: float, dt: float, record_every: int
):
    """Evolve state0 under the jumps of h and compare every snapshot with ITE.

    Returns (trajectory, worst max-entry residual of the encoded block
    against gamma0 * S(ite_reference(c0, h, t))) over the recorded times.
    """
    traj = evolve(state0, build_jumps(h), t_max=t_max, dt=dt, record_every=record_every)
    c0 = block_coefficients(state0.block()) / state0.gamma
    worst = 0.0
    for t, snap in zip(traj.times, traj.states):
        want = state0.gamma * sector_matrix(ite_reference(c0, h, t))
        worst = max(worst, float(np.abs(ndme_block(snap.rho) - want).max()))
    return traj, worst


def coherence_steadiness(trajectory: Trajectory, O: np.ndarray) -> float:
    """Largest |d/dt Tr(rho_t (X (x) O))| along the trajectory.

    Finite differences on the recorded snapshots (second order, including
    the endpoints), so the early-time behavior is visible.
    """
    observable = np.kron(X, np.asarray(O, dtype=complex))
    values = np.array(
        [np.trace(observable @ s.rho) for s in trajectory.states]
    )
    grads = np.gradient(values, trajectory.times)
    return float(np.abs(grads).max())
