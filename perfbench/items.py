"""Seeded items for each workload: inputs, the program call, and its check.

An item is one user-visible pipeline run.  Its inputs are generated here from
(seed, stream, index) alone, so the same seed always gives the same items.
The program receives only those inputs (circuit and Hamiltonian text, state
vectors, target strings) and is called through the public functions of its
modules.  Every result is then checked against a reference that shares no
code path with the pipeline under test: the statevector simulator, the dense
imaginary-time propagator, the literal Kraus sum, the planted target, or the
closed-form value c^dag P c and gamma bound computed in this file.  The
tolerances are the ones the repository's own suites use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from pauliblock import (
    channels,
    compiler,
    encoding,
    lindblad,
    measure,
    oracle,
    paulis,
    search,
)

# Stream tags keep warm-up items distinct from timed ones, so no timed item
# repeats an input the program has already seen.
TIMED, WARMUP = 0, 1

CIRCUIT_GATES = 30
SMALL_CIRCUIT_GATES = 12
T_MAX, DT, RECORD_EVERY = 0.5, 1e-3, 50

# Per-workload cycle of (kind, n, variant).  Items take the cycle entries in
# order and a run ends on a whole cycle, so every seed runs the same mix and
# only the contents differ; this keeps throughput comparable across seeds.
WORKLOADS = {
    # The dense regime: 30-gate programs at n=7 (k = 0..3 Hadamards; Kraus
    # channel application dominates) alternating with planted-target searches
    # at n=9 (X-basis probabilities dominate).  Both cost about the same per
    # item, so the median and tail stay inside one cost class.
    "dense": [entry for k in range(4) for entry in (("circuit", 7, k), ("search", 9, None))],
    # Lindblad RK4 dominates: 1..4 qubits and 1..4 terms.  Cost grows with the
    # number of terms.  Per cycle of twelve: three 1-term items, five of
    # (2 qubits, 2 terms), one 3-term and three 4-term items, so both the
    # median and the tail (10 items beyond) fall inside a cost class, not
    # between two, for any run of 4 to 20 cycles.
    "trajectories": [
        ("trajectory", n, m)
        for n, m in ((2, 1), (2, 2), (1, 4), (3, 1), (2, 2), (2, 3), (2, 2), (1, 4), (4, 1), (2, 2), (1, 4), (2, 2))
    ],
    # Per-call fixed costs dominate: millisecond items at n <= 6.
    "small_n": (
        [("circuit", n, None) for n in (3, 4, 5)]
        + [("swap", n, None) for n in (2, 3)]
        + [("purification", n, None) for n in (1, 2, 3)]
        + [("gamma", n, None) for n in (1, 2, 3, 4)]
        + [("oracle_kraus", n, None) for n in (1, 2, 3)]
        + [("search", n, None) for n in (3, 4, 5, 6)]
    ),
}

_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Item:
    index: int
    kind: str
    n: int
    inputs: dict

    @property
    def label(self) -> str:
        return f"#{self.index} {self.kind} n={self.n}"


@dataclass
class Check:
    """One comparison; it passes when residual < tol.

    Numeric checks feed worst_margin; exact ones (bit strings, counts) do not.
    """

    label: str
    residual: float
    tol: float
    numeric: bool = True

    @property
    def ok(self) -> bool:
        return bool(self.residual < self.tol)


# ---------------------------------------------------------------- references


@lru_cache(maxsize=None)
def _hadamard_matrix(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=float) / np.sqrt(2.0)
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, h)
    return out


def _gamma_bound(c: np.ndarray) -> float:
    """Optimal encoding factor 1 / (2 sum_beta |<beta|H^n|c>|)."""
    n = c.size.bit_length() - 1
    return 1.0 / (2.0 * np.abs(_hadamard_matrix(n) @ c).sum())


def _pauli_dense(sign: int, letters: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for ch in letters:
        out = np.kron(out, _LETTERS[ch])
    return sign * out


def _carrier(c: np.ndarray) -> np.ndarray:
    """2^(-n/2) sum_alpha c_alpha Q_alpha, entry (j, k) = c[j ^ k]."""
    idx = np.arange(c.size)
    return c[idx[:, None] ^ idx[None, :]] * c.size**-0.5


class _ReferenceCircuit:
    """The generated gate list, handed to the statevector oracle unparsed."""

    def __init__(self, n: int, gates: tuple):
        self.n = n
        self.gates = gates


# ---------------------------------------------------------------- generators


def random_state(rng, n: int) -> np.ndarray:
    c = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return c / np.linalg.norm(c)


def _random_bits(rng, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, n))


def _random_letters(rng, n: int, allow_identity: bool = True) -> str:
    while True:
        letters = "".join(rng.choice(list("IXYZ"), size=n).tolist())
        if allow_identity or letters != "I" * n:
            return letters


def random_gates(rng, n: int, count: int, k: int) -> tuple:
    """count gates with exactly k Hadamards; the rest split evenly over S, T, CNOT."""
    others = count - k
    kinds = ["H"] * k + [("S", "T", "CNOT")[j % 3] for j in range(others)]
    if n < 2:
        kinds = ["T" if g == "CNOT" else g for g in kinds]
    kinds = [kinds[j] for j in rng.permutation(len(kinds))]
    gates = []
    for name in kinds:
        if name == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t))))
        else:
            gates.append((name, (int(rng.integers(n)),)))
    return tuple(gates)


def circuit_text(n: int, gates: tuple) -> str:
    lines = [f"qubits {n}"]
    lines += [" ".join([name] + [str(q) for q in qubits]) for name, qubits in gates]
    return "\n".join(lines) + "\n"


def _make_circuit(rng, n, variant):
    count = CIRCUIT_GATES if variant is not None else SMALL_CIRCUIT_GATES
    k = variant if variant is not None else int(rng.integers(0, 4))
    gates = random_gates(rng, n, count, k)
    return {"text": circuit_text(n, gates), "gates": gates, "alpha": _random_bits(rng, n)}


def _make_trajectory(rng, n, terms):
    rows = []
    for _ in range(terms):
        lam = float(rng.uniform(0.5, 1.5))
        sign = 1 if rng.random() < 0.5 else -1
        rows.append((lam, sign, _random_letters(rng, n, allow_identity=False)))
    text = f"qubits {n}\n" + "".join(
        f"{lam!r} {'+' if sign > 0 else '-'}{letters}\n" for lam, sign, letters in rows
    )
    return {"text": text, "terms": tuple(rows), "c0": random_state(rng, n)}


def _make_search(rng, n, _):
    return {
        "target": _random_bits(rng, n),
        "sample_seed": int(rng.integers(2**32)),
        "strength": float(rng.uniform(0.5, 1.0)),
    }


def _make_swap(rng, n, _):
    return {
        "c": random_state(rng, n),
        "sign": 1 if rng.random() < 0.5 else -1,
        "letters": _random_letters(rng, n),
    }


def _make_purification(rng, n, _):
    return {"c": random_state(rng, n), "alpha": _random_bits(rng, n)}


def _make_gamma(rng, n, _):
    return {"c": random_state(rng, n)}


def _make_oracle_kraus(rng, n, _):
    d = 2 ** (n + 1)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return {"target": _random_bits(rng, n), "rho": rho / np.trace(rho)}


# ---------------------------------------------------------------- program runs


def _run_circuit(inp):
    circ = compiler.parse_circuit(inp["text"])
    prog = compiler.compile_circuit(circ)
    n = circ.n
    out = compiler.run_program(prog, encoding.encode_state_optimal(np.full(2**n, 2.0 ** (-n / 2))))
    alphas = ("0" * n, inp["alpha"])
    amps = np.array([measure.amplitude_via_pauli(out, a) for a in alphas])
    return {"amps": amps, "gamma": out.gamma}


def _run_trajectory(inp):
    h = lindblad.parse_hamiltonian(inp["text"])
    jumps = lindblad.build_jumps(h)
    state0 = encoding.encode_state_optimal(inp["c0"])
    traj = lindblad.evolve(state0, jumps, t_max=T_MAX, dt=DT, record_every=RECORD_EVERY)
    d = 2**h.n
    blocks = np.array([s.rho[:d, d:] for s in traj.states])
    return {"times": np.asarray(traj.times, dtype=float), "blocks": blocks}


def _run_search(inp):
    n = len(inp["target"])
    found, _ = search.end_to_end_search(n, inp["target"], seed=inp["sample_seed"])
    return {"found": np.asarray(found, dtype=np.uint8)}


def _run_swap(inp):
    state = encoding.encode_state_optimal(inp["c"])
    p = paulis.PauliString(inp["sign"], inp["letters"])
    state1 = channels.apply_channel(channels.pauli_channel(p, "identity"), state)
    return {"value": measure.expectation_via_swap(state, state1)}


def _run_purification(inp):
    state = encoding.encode_state_optimal(inp["c"])
    return {"residual": measure.hle_identity_check(state, inp["alpha"])}


def _run_gamma(inp):
    return {"gamma": encoding.encode_state_optimal(inp["c"]).gamma}


def _run_oracle_kraus(inp):
    orc = search.SearchOracle(n=len(inp["target"]), target=inp["target"])
    return {"rho_out": search.oracle_apply(orc, inp["rho"])}


# ---------------------------------------------------------------- checks


def _check_circuit(inp, out):
    gates = inp["gates"]
    n = len(inp["alpha"])
    psi = _hadamard_matrix(n) @ oracle.simulate(_ReferenceCircuit(n, gates))
    want = psi[[0, int(inp["alpha"], 2)]]
    k = sum(1 for name, _ in gates if name == "H")
    resid = np.abs(np.asarray(out["amps"]) - want)
    return [
        Check("amplitude alpha=0", float(resid[0]), 1e-9),
        Check("amplitude alpha=random", float(resid[1]), 1e-9),
        Check("gamma = eta/2", abs(out["gamma"] - 0.5 * 2.0 ** (-k / 2)), 1e-10),
    ]


def _check_trajectory(inp, out):
    n = inp["c0"].size.bit_length() - 1
    h = lindblad.PauliHamiltonian(
        n=n,
        terms=tuple((lam, paulis.PauliString(sign, letters)) for lam, sign, letters in inp["terms"]),
    )
    steps = int(round(T_MAX / DT))
    want_times = DT * np.array(sorted(set(range(0, steps + 1, RECORD_EVERY)) | {steps}))
    times = out["times"]
    time_err = float(np.abs(times - want_times).max()) if times.shape == want_times.shape else np.inf
    checks = [Check("snapshot times", time_err, 1e-12, numeric=False)]
    if not checks[0].ok:
        return checks
    gamma0 = _gamma_bound(inp["c0"])
    worst = 0.0
    for t, block in zip(times, out["blocks"]):
        want = gamma0 * _carrier(lindblad.ite_reference(inp["c0"], h, t))
        worst = max(worst, float(np.abs(block - want).max()))
    checks.append(Check("block vs ite_reference", worst, 1e-6))
    return checks


def _verification_trace(target: str, candidate, s: float) -> float:
    """Tr(P C[(I + s P)/2d]) for P = X (x) Q_a, a = candidate: +s/3 iff a is the target.

    A strength s that is not a power of two keeps round-off in the residual,
    so the check reports a real margin rather than an exact zero.
    """
    n = len(target)
    d = 2**n
    a = int("".join(str(int(b)) for b in candidate), 2)
    q = np.eye(d)[np.arange(d) ^ a]
    op = np.kron(_LETTERS["X"], q)
    out = search.oracle_apply(search.SearchOracle(n=n, target=target), (np.eye(2 * d) + s * op) / (2 * d))
    return float(np.sum(op * out.T).real)


def _check_search(inp, out):
    want = np.array([int(b) for b in inp["target"]], dtype=np.uint8)
    found = out["found"]
    mismatches = float(np.sum(found != want)) if found.shape == want.shape else float(want.size)
    checks = [Check("found == target", mismatches, 1, numeric=False)]
    if checks[0].ok:
        checks.append(
            Check(
                "oracle verification trace",
                abs(_verification_trace(inp["target"], found, inp["strength"]) - inp["strength"] / 3),
                1e-12,
            )
        )
    return checks


def _check_swap(inp, out):
    c = inp["c"]
    want = float((c.conj() @ _pauli_dense(inp["sign"], inp["letters"]) @ c).real)
    value = complex(out["value"])
    return [
        Check("swap / gamma^2 vs c^dag P c", abs(value.real / _gamma_bound(c) ** 2 - want), 1e-10),
        Check("swap imaginary part", abs(value.imag), 1e-10),
    ]


def _check_purification(inp, out):
    return [Check("purification identity", float(out["residual"]), 1e-10)]


def _check_gamma(inp, out):
    return [Check("gamma = bound", abs(out["gamma"] - _gamma_bound(inp["c"])), 1e-12)]


def _check_oracle_kraus(inp, out):
    orc = search.SearchOracle(n=len(inp["target"]), target=inp["target"])
    want = search.oracle_apply_kraus(orc, inp["rho"])
    return [Check("fast vs literal Kraus", float(np.abs(out["rho_out"] - want).max()), 1e-12)]


KINDS = {
    "circuit": (_make_circuit, _run_circuit, _check_circuit),
    "trajectory": (_make_trajectory, _run_trajectory, _check_trajectory),
    "search": (_make_search, _run_search, _check_search),
    "swap": (_make_swap, _run_swap, _check_swap),
    "purification": (_make_purification, _run_purification, _check_purification),
    "gamma": (_make_gamma, _run_gamma, _check_gamma),
    "oracle_kraus": (_make_oracle_kraus, _run_oracle_kraus, _check_oracle_kraus),
}


def make_item(workload: str, seed: int, index: int, stream: int = TIMED) -> Item:
    cycle = WORKLOADS[workload]
    kind, n, variant = cycle[index % len(cycle)]
    rng = np.random.default_rng([seed, stream, index])
    return Item(index=index, kind=kind, n=n, inputs=KINDS[kind][0](rng, n, variant))


def warmup_items(workload: str, seed: int) -> list:
    """One item of each kind, from the warm-up stream."""
    firsts = {}
    for i, (kind, _, _) in enumerate(WORKLOADS[workload]):
        firsts.setdefault(kind, i)
    return [make_item(workload, seed, i, WARMUP) for i in firsts.values()]


def run_item(item: Item) -> dict:
    return KINDS[item.kind][1](item.inputs)


def check_item(item: Item, outputs: dict) -> list:
    return KINDS[item.kind][2](item.inputs, outputs)


def digest(items) -> str:
    """Hash of every input of the given items, for the determinism self-check."""
    h = hashlib.sha256()
    for item in items:
        h.update(f"{item.index}|{item.kind}|{item.n}".encode())
        for key in sorted(item.inputs):
            value = item.inputs[key]
            h.update(key.encode())
            h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


def corrupt(outputs: dict) -> dict:
    """A deliberately wrong copy of a result: numbers shifted, bit strings flipped."""
    bad = {}
    for key, value in outputs.items():
        if isinstance(value, np.ndarray) and value.dtype == np.uint8:
            value = value.copy()
            value.flat[0] ^= 1
        elif isinstance(value, np.ndarray) and value.dtype.kind in "fc":
            value = value + 1e-3
        elif isinstance(value, (float, complex)):
            value = value + 1e-3
        bad[key] = value
    return bad


def input_profile(items) -> dict:
    """Workload record: n histogram, Hamiltonian term counts, (gate, qubits) repeat share."""
    n_hist, term_hist, kinds = {}, {}, {}
    seen, gates, repeats = set(), 0, 0
    for item in items:
        n_hist[item.n] = n_hist.get(item.n, 0) + 1
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
        if "terms" in item.inputs:
            m = len(item.inputs["terms"])
            term_hist[m] = term_hist.get(m, 0) + 1
        for gate in item.inputs.get("gates", ()):
            gates += 1
            repeats += gate in seen
            seen.add(gate)
    return {
        "items": len(items),
        "kinds": kinds,
        "n_histogram": {str(k): v for k, v in sorted(n_hist.items())},
        "hamiltonian_terms": {str(k): v for k, v in sorted(term_hist.items())},
        "gates": gates,
        "gate_repeat_ratio": repeats / gates if gates else 0.0,
    }
