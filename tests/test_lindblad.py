import tracemalloc

import numpy as np
import pytest

from pauliblock import encoding, lindblad, oracle
from pauliblock.encoding import (
    NdmeState,
    block_coefficients,
    encode_state_optimal,
)
from pauliblock.errors import (
    MAX_SNAPSHOT_BYTES,
    MAX_STEPS,
    DimensionError,
    EncodingError,
    IntegratorError,
    ParseError,
)
from pauliblock.lindblad import (
    PauliHamiltonian,
    Trajectory,
    build_jumps,
    coherence_steadiness,
    coherence_values,
    decay_rate_fit,
    evolve,
    ite_block_residual,
    ite_reference,
    lindblad_rhs,
    parse_hamiltonian,
    validate_jumps,
)
from pauliblock.paulis import PauliString, X, bell_frame
from pauliblock.suites import random_ff_hamiltonian

from dense import ndme_block, sector_matrix

BELL = "qubits 2\n1.0 -ZZ\n1.0 -XX\n"
FRUSTRATED = "qubits 1\n1.0 +X\n1.0 +Z\n"


def test_parse_hamiltonian_basic():
    h = parse_hamiltonian(BELL)
    assert h.n == 2 and len(h.terms) == 2
    assert h.terms[0][1] == PauliString(-1, "ZZ")
    assert h.rate_sum() == pytest.approx(2.0)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("qubits 1\n-0.5 +X", 2),
        ("qubits 2\n1.0 +XYZ", 2),
        ("qubits 2\n1.0 +iXX", 2),
        ("1.0 +X", 1),
        ("qubits 1\nz +X", 2),
        ("qubits 1\nnan +X", 2),
        ("qubits 1\ninf +X", 2),
    ],
)
def test_parse_hamiltonian_errors(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_hamiltonian(text)
    assert err.value.lineno == lineno


def test_evolve_rejects_partial_final_step():
    state0 = encode_state_optimal(np.full(2, 2.0**-0.5))
    jumps = build_jumps(parse_hamiltonian(FRUSTRATED))
    with pytest.raises(ValueError):
        evolve(state0, jumps, t_max=1.0, dt=0.7)
    traj = evolve(state0, jumps, t_max=0.3, dt=0.1)
    assert traj.times[-1] == pytest.approx(0.3, abs=1e-15)


def pauli(label):
    return PauliString.from_label(label).matrix()


def jump_pair(jumps, i=0):
    _, ch = jumps[i]
    (K, L), = ch.pairs
    return K, L


@pytest.mark.parametrize(
    "t_max,dt", [(np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan), (1.0, np.inf), (1e300, 1e-300)]
)
def test_evolve_rejects_non_finite_times(t_max, dt):
    state0 = encode_state_optimal(np.full(2, 2.0**-0.5))
    jumps = build_jumps(parse_hamiltonian(FRUSTRATED))
    with pytest.raises(ValueError, match="finite"):
        evolve(state0, jumps, t_max=t_max, dt=dt)


def test_build_jumps_single_qubit_fixtures():
    ub = bell_frame(1)
    K, L = jump_pair(build_jumps(parse_hamiltonian("qubits 1\n1.0 -Z\n")))
    assert np.array_equal(K, pauli("+Z")) and np.array_equal(L, pauli("+Z"))
    lhs = ub @ np.kron(K, L.conj()) @ ub.conj().T
    assert np.abs(lhs - np.kron(np.eye(2), pauli("Z"))).max() < 1e-12

    K, L = jump_pair(build_jumps(parse_hamiltonian("qubits 1\n1.0 +X\n")))
    assert np.array_equal(K, pauli("+I")) and np.array_equal(L, pauli("-X"))
    lhs = ub @ np.kron(K, L.conj()) @ ub.conj().T
    assert np.abs(lhs + np.kron(np.eye(2), pauli("X"))).max() < 1e-12


def test_build_jumps_two_qubit_fixture():
    K, L = jump_pair(build_jumps(parse_hamiltonian("qubits 2\n1.0 -XX\n")))
    assert np.array_equal(K, pauli("+II")) and np.array_equal(L, pauli("+XX"))


def test_validate_jumps_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        h = random_ff_hamiltonian(rng, n)
        assert validate_jumps(h) < 1e-12
    # the dense check follows cbe_operator's 4-qubit cap
    h5 = parse_hamiltonian("qubits 5\n0.7 -XYZIX\n0.3 +ZZIYY\n")
    with pytest.raises(DimensionError):
        validate_jumps(h5)


def test_jump_operators_are_unitary():
    h = parse_hamiltonian(BELL)
    jumps = build_jumps(h)
    for i in range(len(h.terms)):
        K, L = jump_pair(jumps, i)
        d = K.shape[0]
        f = np.block([[K, np.zeros((d, d))], [np.zeros((d, d)), L]])
        assert np.abs(f.conj().T @ f - np.eye(2 * d)).max() < 1e-12


# Literal jump operators, independent of the channel tables: per letter the
# (K, L) strings with U_B (K (x) conj(L)) U_B^dag = I (x) letter, and one L
# sign flip for a +1 term so that the product lands on -I (x) P.
_LITERAL_JUMP = {"I": ("I", "I", 1), "X": ("I", "X", 1), "Y": ("Z", "Y", -1), "Z": ("Z", "Z", 1)}


def literal_jump(p):
    k = "".join(_LITERAL_JUMP[a][0] for a in p.letters)
    l = "".join(_LITERAL_JUMP[a][1] for a in p.letters)
    sign = np.prod([_LITERAL_JUMP[a][2] for a in p.letters]) * (-1 if p.phase == 1 else 1)
    K = PauliString(1, k).matrix()
    L = PauliString(int(sign), l).matrix()
    d = K.shape[0]
    return np.block([[K, np.zeros((d, d))], [np.zeros((d, d)), L]])


def literal_rhs(rho, h):
    out = np.zeros_like(rho)
    for lam, p in h.terms:
        F = literal_jump(p)
        out += lam * (F @ rho @ F.conj().T - rho)
    return out


def random_signed_hamiltonian(rng, n):
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        letters = "".join(rng.choice(list("IXYZ"), n))
        sign = 1 if rng.random() < 0.5 else -1
        terms.append((float(rng.uniform(0.2, 1.5)), PauliString(sign, letters)))
    return PauliHamiltonian(n=n, terms=tuple(terms))


def test_rhs_and_rk4_match_literal_dense_sum():
    rng = np.random.default_rng(17)
    saw_non_commuting = False
    for n in (1, 2, 3, 4):
        for _ in range(5):
            h = random_signed_hamiltonian(rng, n)
            mats = [p.matrix() for _, p in h.terms]
            saw_non_commuting |= any(
                np.abs(a @ b - b @ a).max() > 0 for a in mats for b in mats
            )
            ub = bell_frame(n)
            for _, p in h.terms:  # the literal operators are the paper's jumps
                F = literal_jump(p)
                d = 2**n
                lhs = ub @ np.kron(F[:d, :d], F[d:, d:].conj()) @ ub.conj().T
                assert np.abs(lhs + np.kron(np.eye(d), p.matrix())).max() < 1e-12
            jumps = build_jumps(h)
            m = rng.normal(size=(2**(n + 1),) * 2) + 1j * rng.normal(size=(2**(n + 1),) * 2)
            rho = m @ m.conj().T / np.trace(m @ m.conj().T)
            assert np.abs(lindblad_rhs(rho, jumps) - literal_rhs(rho, h)).max() < 1e-13

            state0 = encode_state_optimal(oracle.random_statevector(n, rng))
            dt = 0.05
            traj = evolve(state0, jumps, t_max=0.5, dt=dt, record_every=5)
            want = state0.rho
            for step in range(1, 11):
                k1 = literal_rhs(want, h)
                k2 = literal_rhs(want + 0.5 * dt * k1, h)
                k3 = literal_rhs(want + 0.5 * dt * k2, h)
                k4 = literal_rhs(want + dt * k3, h)
                want = want + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if step % 5 == 0:
                    snap = traj.states[step // 5]
                    assert np.abs(snap.rho - want).max() < 1e-13
    assert saw_non_commuting


def test_rhs_fixed_point_and_trace():
    h = parse_hamiltonian("qubits 1\n1.0 -Z\n")
    jumps = build_jumps(h)  # K = L = Z
    mixed = np.eye(4, dtype=complex) / 4
    assert np.abs(lindblad_rhs(mixed, jumps)).max() < 1e-15

    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    out = lindblad_rhs(rho, jumps)
    assert abs(np.trace(out)) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_rhs_block_derivative_fixture():
    # single jump for -Z acting on the uniform two-qubit state: the block
    # moves by one half of (|-><-| - |+><+|)
    h = parse_hamiltonian("qubits 1\n1.0 -Z\n")
    st = encode_state_optimal(np.array([1, 1]) / np.sqrt(2))
    out = lindblad_rhs(st.rho, build_jumps(h))
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    want = 0.5 * (np.outer(minus, minus) - np.outer(plus, plus))
    assert np.abs(out[:2, 2:] - want).max() < 1e-12


def test_jumps_of_another_qubit_count_are_refused():
    jumps = parse_hamiltonian("qubits 2\n1.0 -ZZ\n").jumps
    st = encode_state_optimal([1, 0])
    with pytest.raises(DimensionError, match="disagree on qubit count"):
        evolve(st, jumps, t_max=0.1, dt=0.01)
    with pytest.raises(DimensionError, match="does not match jumps"):
        lindblad_rhs(st.rho, jumps)


def test_evolve_empty_jumps_constant():
    st = encode_state_optimal([1, 0])
    traj = evolve(st, (), t_max=0.5, dt=0.01)
    assert np.abs(traj.states[-1].rho - st.rho).max() < 1e-12


def test_evolve_snapshots_keep_invariants():
    h = parse_hamiltonian(BELL)
    st = encode_state_optimal(np.full(4, 0.5))
    traj = evolve(st, build_jumps(h), t_max=1.0, dt=1e-2, record_every=10)
    for snap in traj.states:
        assert abs(np.trace(snap.rho) - 1) < 1e-9
        assert np.abs(snap.rho - snap.rho.conj().T).max() < 1e-9


def test_evolve_argument_validation():
    st = encode_state_optimal([1, 0])
    h = parse_hamiltonian("qubits 1\n1.0 -Z\n")
    jumps = build_jumps(h)
    with pytest.raises(ValueError):
        evolve(st, jumps, t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(st, jumps, t_max=0.001, dt=0.01)


def test_evolve_rejects_unstable_step():
    # 2 dt sum(lambda) = 4 lies beyond RK4's real-axis limit; the trace stays
    # 1 while the entries grow, so only the up-front check can refuse it
    st = encode_state_optimal([1, 0])
    jumps = build_jumps(parse_hamiltonian("qubits 1\n1.0 -Z\n"))
    with pytest.raises(ValueError, match="unstable"):
        evolve(st, jumps, t_max=20.0, dt=2.0)
    traj = evolve(st, jumps, t_max=2.7, dt=1.35)  # 2 dt sum(lambda) = 2.7
    assert np.abs(traj.states[-1].rho).max() <= 1.0


def test_ite_reference_size_guard():
    h = parse_hamiltonian("qubits 7\n1.0 -ZIIIIII\n")
    with pytest.raises(Exception):
        ite_reference(np.zeros(2**7), h, 1.0)


def test_evolve_trace_guard_triggers():
    st = encode_state_optimal([1, 0])
    bad = NdmeState(n=1, classes=2 * st.classes, gamma=st.gamma)
    h = parse_hamiltonian("qubits 1\n1.0 -Z\n")
    with pytest.raises(IntegratorError):
        evolve(bad, build_jumps(h), t_max=0.1, dt=0.01)


def test_bell_case_converges_to_projected_state():
    # slowest excited mode decays at rate 2, so the projected limit needs
    # t around 8 before the transient sits below 1e-6
    h = parse_hamiltonian(BELL)
    st = encode_state_optimal(np.full(4, 0.5))
    traj = evolve(st, build_jumps(h), t_max=8.0, dt=1e-3, record_every=1000)
    proj, energy = oracle.ground_projector(h)
    assert energy == pytest.approx(-2.0, abs=1e-12)
    target = st.gamma * sector_matrix(proj @ np.full(4, 0.5))
    assert np.abs(ndme_block(traj.states[-1].rho) - target).max() < 1e-6


def test_ite_reference_fixtures():
    h = parse_hamiltonian(BELL)
    psi0 = np.full(4, 0.5)
    assert np.abs(ite_reference(psi0, h, 0.0) - psi0).max() < 1e-12
    out = ite_reference(psi0, h, 40.0)
    bell_vec = np.zeros(4)
    bell_vec[0] = bell_vec[3] = 2**-0.5
    assert np.linalg.norm(out) == pytest.approx(2**-0.5, abs=1e-9)
    overlap = abs(bell_vec @ out) / np.linalg.norm(out)
    assert overlap == pytest.approx(1.0, abs=1e-9)

    hf = parse_hamiltonian(FRUSTRATED)
    decayed = ite_reference(np.array([1, 1]) / np.sqrt(2), hf, 30.0)
    assert np.linalg.norm(decayed) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_matches_ite_for_random_ff_cases(n):
    rng = np.random.default_rng(50 + n)
    h = random_ff_hamiltonian(rng, n)
    c = oracle.random_statevector(n, rng)
    st = encode_state_optimal(c)
    traj = evolve(st, build_jumps(h), t_max=1.5, dt=1e-3, record_every=500)
    for t, snap in zip(traj.times, traj.states):
        want = st.gamma * sector_matrix(ite_reference(c, h, t))
        assert np.abs(ndme_block(snap.rho) - want).max() < 1e-6


def test_frustrated_block_norm_bound_and_rate():
    hf = parse_hamiltonian(FRUSTRATED)
    st = encode_state_optimal(np.array([1, 1]) / np.sqrt(2))
    traj = evolve(st, build_jumps(hf), t_max=5.0, dt=1e-3, record_every=100)
    rate = 2 - np.sqrt(2)
    assert traj.block_norms[-1] < np.exp(-rate * 5.0) * traj.block_norms[0] + 1e-6
    mask = traj.times >= 1.0
    slope = np.polyfit(traj.times[mask], np.log(traj.block_norms[mask]), 1)[0]
    assert abs(-slope - rate) / rate < 0.05


def test_rk4_convergence_order():
    hf = parse_hamiltonian(FRUSTRATED)
    st = encode_state_optimal(np.array([1, 1]) / np.sqrt(2))
    c0 = block_coefficients(ndme_block(st.rho)) / st.gamma

    def final_error(dt):
        traj = evolve(st, build_jumps(hf), t_max=2.0, dt=dt, record_every=10**9)
        want = st.gamma * sector_matrix(ite_reference(c0, hf, 2.0))
        return np.abs(ndme_block(traj.states[-1].rho) - want).max()

    ratio = final_error(0.08) / final_error(0.04)
    assert 10 < ratio < 22  # fourth order gives 16


def test_steadiness_ground_and_excited():
    h = parse_hamiltonian(BELL)
    jumps = build_jumps(h)
    st = encode_state_optimal(np.full(4, 0.5))
    traj = evolve(st, jumps, t_max=2.0, dt=1e-3, record_every=10)

    bell_vec = np.zeros(4)
    bell_vec[0] = bell_vec[3] = 2**-0.5
    assert coherence_steadiness(traj, bell_vec) < 1e-6

    st00 = encode_state_optimal([1, 0, 0, 0])
    traj00 = evolve(st00, jumps, t_max=1.0, dt=1e-3, record_every=10)
    assert coherence_steadiness(traj00, [1, 0, 0, 0]) > 1e-3


def test_everything_steady_without_jumps():
    st = encode_state_optimal(np.full(4, 0.5))
    traj = evolve(st, (), t_max=0.5, dt=0.01)
    for amps in (np.full(4, 0.5), np.array([1.0, 0, 0, 0])):
        assert coherence_steadiness(traj, amps) < 1e-9


def test_ground_space_dimension_counts_generators():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        h = random_ff_hamiltonian(rng, n)
        proj, energy = oracle.ground_projector(h)
        assert abs(energy + h.rate_sum()) < 1e-9
        assert np.trace(proj).real == pytest.approx(2 ** (n - len(h.terms)), abs=1e-9)


def test_evolve_refuses_runs_beyond_the_step_cap():
    state0 = encode_state_optimal(np.full(2, 2.0**-0.5))
    jumps = build_jumps(parse_hamiltonian(FRUSTRATED))
    dt = 1e-3
    with pytest.raises(ValueError, match=f"capped at {MAX_STEPS} steps"):
        evolve(state0, jumps, t_max=(MAX_STEPS + 1) * dt, dt=dt)


def _refuse_steps(*args):
    raise AssertionError("a step was taken")


def test_evolve_refuses_snapshots_beyond_the_memory_cap(monkeypatch):
    # n = 6 snapshots hold 4 * 2^6 complex class values, 64 * 2^6 bytes each;
    # MAX_STEPS + 1 of them exceed 1 GiB
    monkeypatch.setattr(lindblad, "class_trace", _refuse_steps)
    n = 6
    state0 = encode_state_optimal(np.full(2**n, 2.0 ** (-n / 2)))
    jumps = build_jumps(parse_hamiltonian(f"qubits {n}\n1.0 -{'Z' * n}\n"))
    dt = 1e-3
    assert (MAX_STEPS + 1) * 64 * 2**n > MAX_SNAPSHOT_BYTES
    with pytest.raises(ValueError, match="snapshots are capped"):
        evolve(state0, jumps, t_max=MAX_STEPS * dt, dt=dt, record_every=1)


def test_evolve_counts_snapshots_at_the_class_size():
    # 5001 dense n = 6 snapshots (16 * 4^7 bytes each) would exceed 1 GiB;
    # as class values they hold 20 MB, and the run completes
    n = 6
    state0 = encode_state_optimal(np.full(2**n, 2.0 ** (-n / 2)))
    jumps = build_jumps(parse_hamiltonian(f"qubits {n}\n1.0 -{'Z' * n}\n"))
    assert 5001 * 16 * 4 ** (n + 1) > MAX_SNAPSHOT_BYTES >= 5001 * 64 * 2**n
    traj = evolve(state0, jumps, t_max=5.0, dt=1e-3, record_every=1)
    assert len(traj.states) == 5001 and traj.times[-1] == pytest.approx(5.0)


@pytest.mark.parametrize("text", ["qubits 1\n0.0 +X\n", None], ids=["zero-weight", "no-jumps"])
def test_zero_total_rate_keeps_every_state(text):
    jumps = () if text is None else build_jumps(parse_hamiltonian(text))
    assert sum(lam for lam, _ in jumps) == 0.0
    st = encode_state_optimal([0.6, 0.8])
    traj = evolve(st, jumps, t_max=0.5, dt=0.01, record_every=10)
    assert len(traj.states) == 6
    for snap in traj.states:
        assert np.array_equal(snap.classes, st.classes)
    assert np.array_equal(traj.block_norms, np.full(6, traj.block_norms[0]))
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(lindblad_rhs(m @ m.conj().T, jumps), np.zeros((4, 4)))


def test_lindblad_readers_form_no_dense_state(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense state was formed")

    monkeypatch.setattr(encoding, "xor_class_blocks", refuse)
    h = parse_hamiltonian(FRUSTRATED)
    st = encode_state_optimal(np.array([1, 1]) / np.sqrt(2))
    traj = evolve(st, build_jumps(h), t_max=2.0, dt=1e-2, record_every=10)
    _, residual = ite_block_residual(st, h, 2.0, 1e-2, 10)
    assert residual < 1e-6
    assert np.isfinite(coherence_values(traj, [0.0, 1.0])).all()
    assert decay_rate_fit(traj, 1.0) == pytest.approx(2 - np.sqrt(2), rel=0.05)


def test_coherence_values_match_dense_trace():
    rng = np.random.default_rng(12)
    cases = [random_ff_hamiltonian(rng, n) for n in (1, 2, 3)]
    cases.append(parse_hamiltonian(FRUSTRATED))
    for h in cases:
        d = 2**h.n
        st = encode_state_optimal(oracle.random_statevector(h.n, rng))
        traj = evolve(st, build_jumps(h), t_max=0.2, dt=1e-2, record_every=5)
        w = oracle.random_statevector(h.n, rng)
        O = sector_matrix(w)
        want = np.array([np.trace(np.kron(X, O) @ s.rho) for s in traj.states])
        assert np.abs(coherence_values(traj, w) - want).max() < 1e-14


def test_coherence_values_read_class_values_beyond_the_dense_cap():
    # Tr(rho (X (x) S_w)) = gamma (c + conj(c)) . w = 2 gamma Re(c) . w for an
    # encoded state; the dense X (x) S_w would be 4^17 entries, 275 GB, at n = 16
    n = 16
    rng = np.random.default_rng(16)
    amps = [oracle.random_statevector(n, rng) for _ in range(2)]
    states = [encode_state_optimal(c) for c in amps]
    traj = Trajectory(times=np.array([0.0, 1.0]), states=states, block_norms=np.ones(2))
    w = oracle.random_statevector(n, rng).real
    w /= np.linalg.norm(w)
    tracemalloc.start()
    try:
        got = coherence_values(traj, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.array([2 * st.gamma * (c.real @ w) for st, c in zip(states, amps)])
    assert np.abs(got - want).max() < 1e-15
    assert peak < 8 << 20


def test_coherence_values_refuse_a_bad_vector():
    st = encode_state_optimal(np.full(4, 0.5))
    traj = evolve(st, (), t_max=0.1, dt=0.05)
    with pytest.raises(DimensionError, match="length 2, expected 4"):
        coherence_values(traj, [0.6, 0.8])
    with pytest.raises(EncodingError, match="norm"):
        coherence_steadiness(traj, [1.0, 1.0, 0.0, 0.0])


def test_snapshot_gamma_is_the_block_coefficient_norm():
    h = parse_hamiltonian(BELL)
    traj = evolve(encode_state_optimal(np.full(4, 0.5)), build_jumps(h), 0.1, 1e-2, 3)
    for snap in traj.states[1:]:
        assert snap.gamma == float(np.linalg.norm(block_coefficients(snap.rho[:4, 4:])))


def test_decay_rate_fit_skips_underflowed_norms():
    times = np.arange(6.0)
    norms = np.exp(-0.5 * times)
    norms[4:] = 0.0
    traj = Trajectory(times=times, states=[], block_norms=norms)
    assert decay_rate_fit(traj, 1.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        decay_rate_fit(traj, 3.0)  # one positive norm left


def _random_hamiltonian(rng, n):
    """Signed random strings with random weights; in general frustrated."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        letters = "".join(rng.choice(list("IXYZ"), size=n).tolist())
        terms.append((float(rng.uniform(0.2, 1.5)), PauliString(int(rng.choice([1, -1])), letters)))
    return PauliHamiltonian(n=n, terms=tuple(terms))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ite_reference_matches_the_dense_propagator(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(3):
        h = _random_hamiltonian(rng, n)
        generator = h.matrix() + h.rate_sum() * np.eye(2**n)
        psi0 = oracle.random_statevector(n, rng)
        for t in (0.0, 0.37, 2.0, 25.0):
            want = oracle.herm_exp(generator, t) @ psi0
            assert np.abs(ite_reference(psi0, h, t) - want).max() < 1e-12


def test_one_eigensolve_serves_the_ground_space_and_every_snapshot(monkeypatch):
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a) or real(a, *args))
    h = parse_hamiltonian(FRUSTRATED)
    _, energy = oracle.ground_projector(h)
    traj, residual = ite_block_residual(encode_state_optimal(np.full(2, 2.0**-0.5)), h, 0.5, 0.01, 5)
    assert len(traj.times) >= 10 and residual < 1e-6
    assert energy == pytest.approx(-np.sqrt(2), abs=1e-12)
    assert len(calls) == 1


def test_spectrum_is_read_only_and_size_checked_before_the_matrix(monkeypatch):
    w, v = parse_hamiltonian(BELL).spectrum
    for arr in (w, v):
        with pytest.raises(ValueError):
            arr[0] = 0.0

    def refuse(self):
        raise AssertionError("matrix built")

    monkeypatch.setattr(PauliHamiltonian, "matrix", refuse)
    with pytest.raises(DimensionError, match="capped at 6 qubits, got 7"):
        parse_hamiltonian("qubits 7\n1.0 -ZIIIIII\n").spectrum


@pytest.mark.parametrize("record_every", [0, -5, 2.5])
def test_evolve_refuses_a_record_every_that_is_not_a_positive_integer(monkeypatch, record_every):
    monkeypatch.setattr(lindblad, "class_trace", _refuse_steps)
    jumps = build_jumps(parse_hamiltonian(FRUSTRATED))
    with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
        evolve(encode_state_optimal([1, 0]), jumps, t_max=0.1, dt=0.01, record_every=record_every)
