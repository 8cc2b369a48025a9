"""Dissipative block dynamics from a signed Pauli Hamiltonian.

Each Hamiltonian term lambda_i P_i becomes the jump F_i = diag(K_i, L_i)
whose pair (K_i, L_i) is the identity-variant Pauli channel of -P_i, a
product of one-qubit letter channels: the Bell-frame conjugation of
K_i (x) conj(L_i) equals -I (x) P_i.  Each jump carries its class
transfer T_i, so on class values the dissipator
sum_i lambda_i (F_i rho F_i^dag - rho) is the generator
G = sum_i lambda_i (T_i - 1), which evolve integrates.  The upper-right
block then evolves as the unnormalized flow
d psi/dt = (-H_p - sum lambda_i) psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import conjugate_pairs, pauli_channel, verify_po
from .encoding import NdmeState, check_amplitudes, class_trace
from .errors import (
    MAX_SNAPSHOT_BYTES,
    MAX_STEPS,
    REFERENCE_QUBITS,
    DimensionError,
    IntegratorError,
    ParseError,
    check_qubits,
    read_qubit_text,
)
from .paulis import PauliString, num_qubits

# Classical RK4 is stable on the negative real axis down to about -2.785.
RK4_STABILITY_LIMIT = 2.785


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

    @cached_property
    def spectrum(self) -> tuple:
        """Read-only (w, V) = eigh(H_p), solved once; n is checked before the matrix is built."""
        check_qubits(self.n, REFERENCE_QUBITS, "PauliHamiltonian.spectrum")
        w, v = np.linalg.eigh(self.matrix())
        w.flags.writeable = v.flags.writeable = False
        return w, v

    @cached_property
    def jumps(self) -> tuple:
        """build_jumps(self), built once: every class transfer is computed with it."""
        return build_jumps(self)


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
        if p.n != n:
            raise ParseError(lineno, f"string has {p.n} letters, expected {n}")
        terms.append((lam, p))
    return PauliHamiltonian(n=n, terms=tuple(terms))


def build_jumps(h: PauliHamiltonian) -> tuple:
    """(lambda_i, jump channel) for each term: the identity-variant Pauli channel of -P_i.

    Its one pair (K_i, L_i) block-encodes -P_i at eta = 1, that is
    U_B (K_i (x) conj(L_i)) U_B^dag = -I (x) P_i, which makes
    F_i = diag(K_i, L_i) the jump operator of the term lambda_i P_i.
    """
    return tuple((lam, pauli_channel(-p, "identity")) for lam, p in h.terms)


def validate_jumps(h: PauliHamiltonian) -> float:
    """Max residual of the block-encoding identity of -P_i over all jumps.

    The check is dense (verify_po), so like cbe_operator it refuses n > CBE_QUBITS
    with DimensionError.
    """
    return max(
        (
            verify_po(ch, (-p).matrix(), "identity", 1.0)
            for (_, ch), (_, p) in zip(h.jumps, h.terms)
        ),
        default=0.0,
    )


def lindblad_rhs(rho: np.ndarray, jumps: tuple) -> np.ndarray:
    """sum_i lambda_i (F_i rho F_i^dag - rho) for any dense rho, jump by jump: evolve's reference."""
    n = num_qubits(rho.shape[0]) - 1
    if any(ch.n != n for _, ch in jumps):
        raise DimensionError(f"state dimension {rho.shape[0]} does not match jumps")
    out = np.zeros(rho.shape, dtype=complex)
    for lam, ch in jumps:
        out += lam * (conjugate_pairs(rho, np.array(ch.pairs), ch.qubits) - rho)
    return out


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list
    block_norms: np.ndarray


def evolve(
    state0: NdmeState,
    jumps: tuple,
    t_max: float,
    dt: float = 1e-3,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step classical RK4 integration of the dissipator on class values.

    One RK4 step per dt of c' = G c with G = sum_i lambda_i T_i - Lambda 1,
    T_i the class transfer of jump i and Lambda = sum_i lambda_i; every
    snapshot is a class state.

    dt, t_max and their ratio must be finite, and t_max a whole number of
    steps (to a relative 1e-9), so the trajectory ends exactly at t_max.
    Snapshots are recorded every record_every steps (plus start and end);
    record_every must be an integer >= 1.
    A run of more than MAX_STEPS steps, or whose snapshots would hold more
    than MAX_SNAPSHOT_BYTES, is refused with ValueError before its first
    step.  Trace drift beyond 1e-6 aborts with IntegratorError.

    Every jump is a Hermitian unitary, so the dissipator's spectrum lies in
    [-2 sum lambda, 0]; a step with 2 dt sum lambda beyond RK4's real-axis
    stability limit is rejected before it is taken.  The trace guard cannot
    catch that case: RK4 preserves the trace while the entries blow up.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (np.isfinite(t_max) and np.isfinite(t_max / dt)):
        raise ValueError(f"t_max and t_max / dt must be finite, got t_max={t_max}, dt={dt}")
    if t_max < dt:
        raise ValueError("t_max must be at least dt")
    if not (isinstance(record_every, (int, np.integer)) and record_every >= 1):
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")
    n = state0.n
    if any(ch.n != n for _, ch in jumps):
        raise DimensionError("state and jump set disagree on qubit count")
    ratio = t_max / dt
    # checked on the float, before int() turns a huge ratio into hundreds of
    # digits; a ratio that rounds to MAX_STEPS still passes
    if ratio > MAX_STEPS + 0.5:
        raise ValueError(f"a run is capped at {MAX_STEPS} steps, got {ratio:.3g}")
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"t_max={t_max} is not a whole number of steps of dt={dt}")
    kept = (1 + -(-steps // record_every)) * 64 * 2**n  # complex class values
    if kept > MAX_SNAPSHOT_BYTES:
        raise ValueError(f"snapshots are capped at {MAX_SNAPSHOT_BYTES} bytes, got {kept}")
    rate_sum = float(sum(lam for lam, _ in jumps))
    if 2.0 * dt * rate_sum > RK4_STABILITY_LIMIT:
        raise ValueError(
            f"dt={dt} is unstable for rate sum {rate_sum}: RK4 needs"
            f" 2 * dt * rate sum <= {RK4_STABILITY_LIMIT}"
        )
    generator = sum(lam * ch.transfer for lam, ch in jumps) - rate_sum * np.eye(2**n)
    c = state0.classes.astype(complex)[..., None]  # (2, 2, 2^n, 1) columns
    times = [0.0]
    states = [state0]
    for step in range(1, steps + 1):
        k1 = generator @ c
        k2 = generator @ (c + 0.5 * dt * k1)
        k3 = generator @ (c + 0.5 * dt * k2)
        k4 = generator @ (c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(class_trace(c[..., 0]) - 1.0)
        if drift > 1e-6:
            raise IntegratorError(f"trace drifted by {drift:.3e} at step {step}")
        if step % record_every == 0 or step == steps:
            times.append(step * dt)
            states.append(NdmeState(n=n, classes=c[..., 0]))
    norms = [s.gamma for s in states]
    return Trajectory(times=np.array(times), states=states, block_norms=np.array(norms))


def ite_reference(psi0, h: PauliHamiltonian, t: float) -> np.ndarray:
    """Unnormalized exp(-t (H_p + sum lambda)) psi0 = V e^(-t (w + sum lambda)) V^dag psi0."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if num_qubits(psi0.size) != h.n:
        raise DimensionError("state and Hamiltonian disagree on qubit count")
    w, v = h.spectrum
    return v @ (np.exp(-t * (w + h.rate_sum())) * (v.conj().T @ psi0))


def ite_block_residual(
    state0: NdmeState, h: PauliHamiltonian, t_max: float, dt: float, record_every: int
):
    """Evolve state0 under the jumps of h and compare every snapshot with ITE.

    Returns (trajectory, worst max-entry residual of the encoded block
    against gamma0 * S(ite_reference(c0, h, t))) over the recorded times.
    """
    traj = evolve(state0, h.jumps, t_max=t_max, dt=dt, record_every=record_every)
    scale = 2.0 ** (h.n / 2)
    c0 = scale * state0.classes[0, 1] / state0.gamma
    worst = 0.0
    for t, snap in zip(traj.times, traj.states):
        want = state0.gamma * (ite_reference(c0, h, t) / scale)
        worst = max(worst, float(np.abs(snap.classes[0, 1] - want).max()))
    return traj, worst


def decay_rate_fit(trajectory: Trajectory, t_min: float) -> float:
    """Decay rate of the block norm: minus the slope of a line fit to its log.

    Fits the snapshots at t >= t_min whose norm is positive; a norm that
    underflowed to 0.0 on a long run has no logarithm.
    """
    keep = (trajectory.times >= t_min) & (trajectory.block_norms > 0.0)
    if np.count_nonzero(keep) < 2:
        raise ValueError("the decay fit needs two snapshots with a positive block norm")
    slope = np.polyfit(trajectory.times[keep], np.log(trajectory.block_norms[keep]), 1)[0]
    return float(-slope)


def coherence_values(trajectory: Trajectory, w) -> np.ndarray:
    """Tr(rho_t (X (x) S_w)) = 2^(n/2) (c_01 + c_10) . w at every snapshot.

    S_w = 2^(-n/2) sum_alpha w_alpha Q_alpha is the carrier matrix of the
    unit-norm amplitude vector w, so Tr(Q_delta S_w) = 2^(n/2) w_delta.
    """
    w = check_amplitudes(w)
    d = trajectory.states[0].classes.shape[2]
    if w.size != d:
        raise DimensionError(f"amplitude vector has length {w.size}, expected {d}")
    scale = np.sqrt(d)
    return np.array([scale * ((s.classes[0, 1] + s.classes[1, 0]) @ w) for s in trajectory.states])


def coherence_steadiness(trajectory: Trajectory, w) -> float:
    """Largest |d/dt Tr(rho_t (X (x) S_w))| along the trajectory.

    Finite differences on the recorded snapshots (second order, including
    the endpoints), so the early-time behavior is visible.
    """
    grads = np.gradient(coherence_values(trajectory, w), trajectory.times)
    return float(np.abs(grads).max())
