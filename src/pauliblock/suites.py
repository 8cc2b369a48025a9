"""Named verification suites shared by the CLI driver and the test suite.

Every suite returns a plain dict with a "pass" flag and the numbers it was
judged on.  Randomness enters only through an explicit seed; sub-seeds are
derived with numpy's SeedSequence spawning, so a fixed top-level seed fixes
every suite exactly.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .channels import apply_channel, gate_channel, gate_target_unitary, pauli_channel, verify_po
from .compiler import Circuit, compile_circuit, predicted_signal_factor, run_program
from .encoding import (
    NdmeState,
    decode_state,
    encode_state_optimal,
    gamma_upper_bound,
    hadamard_transform,
)
from .errors import VECTOR_QUBITS, check_qubits
from .lindblad import (
    PauliHamiltonian,
    coherence_steadiness,
    decay_rate_fit,
    evolve,
    ite_block_residual,
    parse_hamiltonian,
    validate_jumps,
)
from .measure import (
    amplitude_from_traces,
    assistant_traces,
    expectation_via_swap,
    hle_identity_check,
)
from .paulis import I2, PauliString, X, Y, Z, pauli_trace, vectorize
from .search import (
    SearchOracle,
    end_to_end_search,
    gf2_rank,
    oracle_apply,
    oracle_apply_kraus,
    rho_out_closed_form,
    run_protocol,
)

GATE_ROWS = (
    ("X", "projector"),
    ("Y", "projector"),
    ("Z", "projector"),
    ("H", "projector"),
    ("HSH", "projector"),
    ("HTH", "projector"),
    ("HH_CNOT_HH", "projector"),
    ("X", "identity"),
    ("Y", "identity"),
    ("Z", "identity"),
)

# (report name, call(seed, search_runs)) of each `pauliblock all` suite, in
# report order.  Each call looks its suite up by module global when it runs,
# so a rebound suites.*_suite attribute (perfbench's tracer, a test's stub)
# is the one that runs.
SUITES = (
    ("pauli_bell", lambda seed, runs: pauli_bell_suite()),
    ("gate_library", lambda seed, runs: gate_library_suite()),
    ("gamma_bound", lambda seed, runs: gamma_bound_suite(seed)),
    ("amplitude_mechanism", lambda seed, runs: amplitude_suite(seed)),
    ("swap_expectation", lambda seed, runs: swap_expectation_suite(seed)),
    ("purification", lambda seed, runs: purification_suite(seed)),
    ("ite", lambda seed, runs: ite_suite(seed)),
    ("steadiness", lambda seed, runs: steadiness_suite()),
    ("oracle_identities", lambda seed, runs: oracle_identity_suite(seed)),
    ("search_protocol", lambda seed, runs: search_suite(seed, runs=runs)),
)


def split_seeds(seed, count: int) -> list:
    """Fixed splitting rule: SeedSequence(seed).spawn in order."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return list(ss.spawn(count))


def pauli_bell_suite() -> dict:
    """The four single-qubit vectorization fixtures, asserted entrywise."""
    tol = 1e-12
    fixtures = {
        "I": (I2, np.array([1, 0, 0, 1], dtype=complex)),
        "Z": (Z, np.array([1, 0, 0, -1], dtype=complex)),
        "X": (X, np.array([0, 1, 1, 0], dtype=complex)),
        "Y": (Y, np.array([0, -1j, 1j, 0], dtype=complex)),
    }
    residual = max(
        float(np.abs(vectorize(m) - v).max()) for m, v in fixtures.values()
    )
    return {"name": "pauli_bell", "residual": residual, "tol": tol, "pass": residual < tol}


def gate_library_suite(tol: float = 1e-12) -> dict:
    """verify_po for every library construction and both Pauli variants."""
    rows = []
    for gate, variant in GATE_ROWS:
        ch = gate_channel(gate, variant)
        residual = verify_po(ch, gate_target_unitary(gate), variant, ch.eta)
        rows.append(
            {
                "gate": gate,
                "variant": variant,
                "eta": float(ch.eta),
                "residual": float(residual),
                "pass": residual < tol,
            }
        )
    return {
        "name": "gate_library",
        "rows": rows,
        "tol": tol,
        "pass": all(r["pass"] for r in rows),
    }


def gamma_bound_suite(seed) -> dict:
    """Encoding-factor bound: equality for the optimal encoder, endpoints exact."""
    samples, tol = 1000, 1e-12
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    worst_chain = 0.0
    low, high = np.inf, -np.inf
    for i in range(samples):
        n = 1 + i % 4
        c = oracle.random_statevector(n, rng)
        bound = gamma_upper_bound(c)
        low = min(low, bound * 2.0 ** (n / 2 + 1))  # scaled to [1, 2^(n/2)] -> 1
        high = max(high, bound)
        state = encode_state_optimal(c)
        # the bound against the encoded block's own scale 2^(n/2) ||c_01||
        scale = 2.0 ** (n / 2) * float(np.linalg.norm(state.classes[0, 1]))
        worst_eq = max(worst_eq, abs(scale - bound))
        # inequality chain: gamma * sum |chi| <= 1/2 for the produced state
        chi = hadamard_transform(decode_state(state))
        worst_chain = max(worst_chain, state.gamma * np.abs(chi).sum() - 0.5)
    endpoints = 0.0
    for n in (1, 2, 3, 4):
        plus = np.full(2**n, 2.0 ** (-n / 2))
        e0 = np.zeros(2**n)
        e0[0] = 1.0
        endpoints = max(
            endpoints,
            abs(gamma_upper_bound(plus) - 0.5),
            abs(gamma_upper_bound(e0) - 2.0 ** (-n / 2 - 1)),
        )
    ok = (
        worst_eq < tol
        and worst_chain < tol
        and endpoints == 0.0
        and low >= 1.0 - 1e-12
        and high <= 0.5 + 1e-12
    )
    return {
        "name": "gamma_bound",
        "samples": samples,
        "equality_residual": float(worst_eq),
        "chain_slack": float(worst_chain),
        "endpoint_residual": float(endpoints),
        "bracket_low_scaled": float(low),
        "bracket_high": float(high),
        "tol": tol,
        "pass": bool(ok),
    }


# the S, T and CNOT gates of a random_circuit, around its k Hadamards
EXTRA_GATES = 12


def random_circuit(rng: np.random.Generator, n: int, k: int) -> Circuit:
    """Random {H, S, T, CNOT} circuit with exactly k Hadamards and EXTRA_GATES other gates."""
    slots = EXTRA_GATES + k
    h_slots = set(rng.choice(slots, size=k, replace=False).tolist()) if k else set()
    gates = []
    for slot in range(slots):
        if slot in h_slots:
            gates.append(("H", (int(rng.integers(n)),)))
            continue
        kind = ("S", "T", "CNOT")[rng.integers(3)]
        if kind == "CNOT" and n >= 2:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t))))
        else:
            gates.append((kind if kind != "CNOT" else "T", (int(rng.integers(n)),)))
    return Circuit(n=n, gates=tuple(gates))


def amplitude_suite(seed) -> dict:
    """Pipeline amplitudes against the statevector oracle, plus signal scale."""
    circuits, tol = 50, 1e-9
    rng = np.random.default_rng(seed)
    worst_amp = 0.0
    worst_signal = 0.0
    worst_gamma = 0.0
    for _ in range(circuits):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(0, 4))
        circ = random_circuit(rng, n, k)
        prog = compile_circuit(circ)
        plus = np.full(2**n, 2.0 ** (-n / 2))
        out = run_program(prog, encode_state_optimal(plus))
        tr_x, tr_y = assistant_traces(out, [0] * n)
        amp = amplitude_from_traces(out, (tr_x, tr_y))
        want = oracle.amplitude_plus_u_zero(circ)
        worst_amp = max(worst_amp, abs(amp - want))
        # raw signal: (TrX - i TrY) should be 2^((n-k)/2) times the amplitude
        factor = predicted_signal_factor(n, k, 0.5)
        raw = tr_x - 1j * tr_y
        worst_signal = max(worst_signal, abs(raw - factor * want))
        worst_gamma = max(worst_gamma, abs(out.gamma - 0.5 * prog.eta_total))
    ok = worst_amp < tol and worst_signal < tol and worst_gamma < 1e-10
    return {
        "name": "amplitude_mechanism",
        "circuits": circuits,
        "amplitude_residual": float(worst_amp),
        "signal_residual": float(worst_signal),
        "gamma_residual": float(worst_gamma),
        "tol": tol,
        "pass": bool(ok),
    }


def _random_hermitian_string(rng: np.random.Generator, n: int) -> PauliString:
    letters = "".join(rng.choice(list("IXYZ"), size=n).tolist())
    phase = 1 if rng.random() < 0.5 else -1
    return PauliString(phase, letters)


def swap_expectation_suite(seed) -> dict:
    """Swap-trace readout of Pauli expectation values on random states."""
    pairs, tol = 20, 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_imag = 0.0
    for i in range(pairs):
        n = 2 + i % 2
        c = oracle.random_statevector(n, rng)
        state = encode_state_optimal(c)
        p = _random_hermitian_string(rng, n)
        state1 = apply_channel(pauli_channel(p, "identity"), state)
        value = expectation_via_swap(state, state1)
        want = (c.conj() @ p.matrix() @ c).real
        worst = max(worst, abs(value.real / state.gamma**2 - want))
        worst_imag = max(worst_imag, abs(value.imag))
    ok = worst < tol and worst_imag < tol
    return {
        "name": "swap_expectation",
        "pairs": pairs,
        "residual": float(worst),
        "imag_residual": float(worst_imag),
        "tol": tol,
        "pass": bool(ok),
    }


def purification_suite(seed) -> dict:
    """Purification readout identity across encoded, mixed, and protocol states."""
    tol = 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1, 2, 3):
        states = [encode_state_optimal(oracle.random_statevector(n, rng)) for _ in range(3)]
        mixed = np.zeros((2, 2, 2**n), dtype=complex)
        mixed[[0, 1], [0, 1], 0] = 2.0 ** -(n + 1)
        states.append(NdmeState(n, mixed))
        states.append(run_protocol(SearchOracle(n=n, target=rng.integers(0, 2, n))))
        for state in states:
            for alpha in ([0] * n, rng.integers(0, 2, n)):
                worst = max(worst, hle_identity_check(state, alpha))
    return {
        "name": "purification",
        "residual": float(worst),
        "tol": tol,
        "pass": worst < tol,
    }


_ZX_TO_LETTER = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}


def random_ff_hamiltonian(rng: np.random.Generator, n: int) -> PauliHamiltonian:
    """Random frustration-free case: independent commuting signed strings.

    Signs are free because independent generators never multiply to a bare
    identity string, so the flipped set always forms a consistent group.
    """
    m = int(rng.integers(1, n + 1))
    rows = []
    strings = []
    while len(strings) < m:
        zx = rng.integers(0, 2, 2 * n)
        if not zx.any():
            continue
        if any((zx[:n] @ o[n:] + zx[n:] @ o[:n]) % 2 for o in rows):
            continue
        if gf2_rank(np.array(rows + [zx])) != len(rows) + 1:
            continue
        rows.append(zx)
        letters = "".join(
            _ZX_TO_LETTER[(int(z), int(xbit))] for z, xbit in zip(zx[:n], zx[n:])
        )
        strings.append(PauliString(1 if rng.random() < 0.5 else -1, letters))
    terms = tuple((float(rng.uniform(0.5, 1.5)), p) for p in strings)
    return PauliHamiltonian(n=n, terms=terms)


BELL_HAMILTONIAN = "qubits 2\n1.0 -ZZ\n1.0 -XX\n"
FRUSTRATED_HAMILTONIAN = "qubits 1\n1.0 +X\n1.0 +Z\n"


def ite_suite(seed) -> dict:
    """Imaginary-time equivalence, decay of frustrated cases, subspace ranks."""
    tol, rate_tol, dt = 1e-6, 0.05, 1e-3
    rng = np.random.default_rng(seed)
    bell = parse_hamiltonian(BELL_HAMILTONIAN)
    plusplus = np.full(4, 0.5)
    record = max(1, int(round(0.5 / dt)))
    _, worst_block = ite_block_residual(encode_state_optimal(plusplus), bell, 3.0, dt, record)

    worst_jumps = 0.0
    worst_rank = 0.0
    worst_ff = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        h = random_ff_hamiltonian(rng, n)
        worst_jumps = max(worst_jumps, validate_jumps(h))
        proj, energy = oracle.ground_projector(h)
        worst_ff = max(worst_ff, abs(energy + h.rate_sum()))
        expected_dim = 2 ** (n - len(h.terms))
        worst_rank = max(worst_rank, abs(np.trace(proj).real - expected_dim))
        c = oracle.random_statevector(n, rng)
        _, residual = ite_block_residual(encode_state_optimal(c), h, 2.0, dt, record)
        worst_block = max(worst_block, residual)

    frustrated = parse_hamiltonian(FRUSTRATED_HAMILTONIAN)
    _, e_g = oracle.ground_projector(frustrated)
    expected_rate = e_g + frustrated.rate_sum()
    traj = evolve(
        encode_state_optimal(np.full(2, 2.0**-0.5)),
        frustrated.jumps,
        t_max=5.0,
        dt=dt,
        record_every=100,
    )
    rate = decay_rate_fit(traj, 1.0)
    rate_err = abs(rate - expected_rate) / expected_rate
    ok = (
        worst_block < tol
        and worst_jumps < 1e-12
        and worst_ff < 1e-9
        and worst_rank < 1e-9
        and rate_err < rate_tol
    )
    return {
        "name": "ite",
        "block_residual": float(worst_block),
        "jump_residual": float(worst_jumps),
        "frustration_free_energy_residual": float(worst_ff),
        "ground_dim_residual": float(worst_rank),
        "decay_rate": rate,
        "decay_rate_expected": float(expected_rate),
        "decay_rate_rel_err": float(rate_err),
        "tol": tol,
        "rate_tol": rate_tol,
        "pass": bool(ok),
    }


def steadiness_suite() -> dict:
    """Coherence observables: steady in the ground sector, moving outside it."""
    dt = 1e-3
    bell = parse_hamiltonian(BELL_HAMILTONIAN)
    jumps = bell.jumps
    record = 10

    state_plus = encode_state_optimal(np.full(4, 0.5))
    traj_plus = evolve(state_plus, jumps, t_max=2.0, dt=dt, record_every=record)
    bell_vec = np.zeros(4)
    bell_vec[0] = bell_vec[3] = 2.0**-0.5
    steady = coherence_steadiness(traj_plus, bell_vec)

    # excited trajectory: start where the decaying component is visible
    state_00 = encode_state_optimal([1, 0, 0, 0])
    traj_00 = evolve(state_00, jumps, t_max=1.0, dt=dt, record_every=record)
    moving = coherence_steadiness(traj_00, [1, 0, 0, 0])

    # second stabilizer case with a two-dimensional ground space
    zz = parse_hamiltonian("qubits 2\n1.0 -ZZ\n")
    traj_zz = evolve(state_plus, zz.jumps, t_max=2.0, dt=dt, record_every=record)
    ground2 = np.zeros(4)
    ground2[0] = 0.6
    ground2[3] = 0.8
    steady2 = coherence_steadiness(traj_zz, ground2)

    ok = steady < 1e-6 and steady2 < 1e-6 and moving > 1e-3
    return {
        "name": "steadiness",
        "ground_derivative": float(max(steady, steady2)),
        "excited_derivative": float(moving),
        "pass": bool(ok),
    }


def oracle_identity_suite(seed) -> dict:
    """Sign action, closed-form output, verification traces, fast vs literal."""
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst_pso = 0.0
    worst_path = 0.0
    worst_verify = 0.0
    for n in (1, 2, 3):
        x = rng.integers(0, 2, n)
        orc = SearchOracle(n=n, target=x)
        d = 2**n
        for a in range(d):
            x_q = PauliString.from_bits(f"1{a:0{n}b}")  # X (x) Q_a
            op = x_q.matrix()
            want = (1.0 if a == orc.target_index else -1.0) / 3.0 * op
            worst_pso = max(worst_pso, float(np.abs(oracle_apply(orc, op) - want).max()))
            rho_in = (np.eye(2 * d) + op) / (2 * d)
            got = pauli_trace(oracle_apply(orc, rho_in), x_q).real
            expect = (1.0 if a == orc.target_index else -1.0) / 3.0
            worst_verify = max(worst_verify, abs(got - expect))
        m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        worst_path = max(
            worst_path,
            float(np.abs(oracle_apply(orc, rho) - oracle_apply_kraus(orc, rho)).max()),
        )
    worst_oott = 0.0
    for n in range(1, 7):
        x = rng.integers(0, 2, n)
        got = run_protocol(SearchOracle(n=n, target=x)).rho
        worst_oott = max(worst_oott, float(np.abs(got - rho_out_closed_form(n, x)).max()))
    ok = max(worst_pso, worst_path, worst_verify, worst_oott) < tol
    return {
        "name": "oracle_identities",
        "sign_action_residual": float(worst_pso),
        "fast_vs_kraus_residual": float(worst_path),
        "verification_residual": float(worst_verify),
        "closed_form_residual": float(worst_oott),
        "tol": tol,
        "pass": bool(ok),
    }


def check_search_runs(runs: int) -> None:
    """runs must be at least 2: the per-n standard error needs two samples."""
    if runs < 2:
        raise ValueError(f"search_suite needs runs >= 2, got {runs}")


def search_suite(seed, runs: int = 200, ns=(3, 4, 5, 6, 7, 8)) -> dict:
    """Planted-target recovery statistics and query-count scaling.

    runs is checked by check_search_runs; ns must name at least one qubit
    count, each at least 1.
    """
    check_search_runs(runs)
    if not ns or min(ns) < 1:
        raise ValueError(f"search_suite needs one or more qubit counts n >= 1, got {list(ns)}")
    check_qubits(max(ns), VECTOR_QUBITS, "search")
    child_seeds = split_seeds(seed, len(ns))
    per_n = []
    for n, child in zip(ns, child_seeds):
        rng = np.random.default_rng(child)
        recovered = 0
        queries = []
        batches = 0
        accepted = 0
        drawn = 0
        for _ in range(runs):
            x = rng.integers(0, 2, n)
            found, stats = end_to_end_search(n, x, seed=rng)
            if np.array_equal(found, x):
                recovered += 1
            queries.append(stats["oracle_queries"])
            batches += stats["independence_batches"]
            drawn += stats["oracle_queries"]
            accepted += int(round(stats["acceptance_rate"] * stats["oracle_queries"]))
        per_n.append(
            {
                "n": int(n),
                "recovered": recovered,
                "runs": runs,
                "mean_queries": float(np.mean(queries)),
                "mean_queries_se": float(np.std(queries, ddof=1) / np.sqrt(runs)),
                "draws": drawn,
                "acceptance_rate": accepted / drawn,
                "acceptance_expected": 0.5 - 2.0 ** -(n + 1),
                "independence_rate": runs / batches,
            }
        )
    ns_arr = np.array([row["n"] for row in per_n], dtype=float)
    q_arr = np.array([row["mean_queries"] for row in per_n])
    se_arr = np.array([row["mean_queries_se"] for row in per_n])
    slope = float(np.polyfit(ns_arr, q_arr, 1)[0]) if len(ns_arr) > 1 else 0.0
    span = ns_arr.max() - ns_arr.min()
    quad_coeff, quad_se, quad_fraction = 0.0, 0.0, 0.0
    if len(ns_arr) >= 4:
        # least-squares quadratic fit with the coefficient's standard error
        # propagated from the per-n sampling error of the means
        design = np.vander(ns_arr, 3)
        pinv = np.linalg.pinv(design)
        coeffs = pinv @ q_arr
        quad_coeff = float(coeffs[0])
        quad_se = float(np.sqrt((pinv[0] ** 2 * se_arr**2).sum()))
        quad_fraction = abs(quad_coeff) * span / max(abs(slope), 1e-12)
    all_recovered = all(r["recovered"] == r["runs"] for r in per_n)
    # five-sigma binomial band around the exact acceptance probability
    acceptance_ok = all(
        abs(r["acceptance_rate"] - r["acceptance_expected"])
        < max(0.03, 5.0 * np.sqrt(0.25 / r["draws"]))
        for r in per_n
    )
    independence_ok = all(r["independence_rate"] >= 0.25 for r in per_n)
    # linear growth: positive slope and a quadratic term either small against
    # the linear one or statistically indistinguishable from zero
    quad_negligible = quad_fraction < 0.25 or abs(quad_coeff) <= 3.0 * quad_se
    scaling_ok = (slope > 0 or len(ns_arr) < 2) and quad_negligible
    ok = all_recovered and acceptance_ok and independence_ok and scaling_ok
    return {
        "name": "search_protocol",
        "per_n": per_n,
        "query_slope": slope,
        "quadratic_coeff": float(quad_coeff),
        "quadratic_se": float(quad_se),
        "quadratic_fraction": float(quad_fraction),
        "pass": bool(ok),
    }


