"""Scale ladder: the largest n each primitive handles within a per-call budget.

Each rung builds its inputs untimed, then times one call.  The climb stops at
the first rung whose call exceeds BUDGET_S, or that the program refuses with
DimensionError (its own size caps).  Before a rung runs, its dense footprint
is estimated; a rung above MEMORY_CAP_BYTES is skipped and ends the climb,
so the ladder never allocates what would crowd the machine (a 30-gate
program at n=10 holds about 3.8 GB of Kraus blocks).
"""

from __future__ import annotations

import time

import numpy as np

from pauliblock import channels, compiler, encoding, lindblad, measure, paulis, search
from pauliblock.errors import DimensionError

import items

BUDGET_S = 0.5
MEMORY_CAP_BYTES = 1 << 30
MAX_RUNG = 14
_C16 = 16  # bytes per complex128


def _rng(n):
    return np.random.default_rng([7, n])


def _plus(n):
    return np.full(2**n, 2.0 ** (-n / 2))


def _encode(n):
    c = items.random_state(_rng(n), n)
    return lambda: encoding.encode_state_optimal(c)


def _run_program(n):
    gates = items.random_gates(_rng(n), n, items.CIRCUIT_GATES, 2)
    prog = compiler.compile_circuit(compiler.parse_circuit(items.circuit_text(n, gates)))
    state = encoding.encode_state_optimal(_plus(n))
    return lambda: compiler.run_program(prog, state)


def _amplitude(n):
    state = encoding.encode_state_optimal(_plus(n))
    return lambda: measure.amplitude_via_pauli(state, "0" * n)


def _swap(n):
    state = encoding.encode_state_optimal(items.random_state(_rng(n), n))
    p = paulis.PauliString(1, "Z" * n)
    state1 = channels.apply_channel(channels.pauli_channel(p, "identity"), state)
    return lambda: measure.expectation_via_swap(state, state1)


def _evolve(n):
    text = f"qubits {n}\n1.0 -{'Z' * n}\n0.5 +{'X' * n}\n"
    jumps = lindblad.build_jumps(lindblad.parse_hamiltonian(text))
    state = encoding.encode_state_optimal(items.random_state(_rng(n), n))
    return lambda: lindblad.evolve(state, jumps, t_max=items.T_MAX, dt=items.DT, record_every=items.RECORD_EVERY)


def _x_basis(n):
    rho = search.run_protocol(search.SearchOracle(n=n, target="1" * n))
    return lambda: search.x_basis_probabilities(rho)


def _search(n):
    return lambda: search.end_to_end_search(n, "1" * n, seed=n)


# name: (prepare(n) -> timed call, first n, dense bytes at n)
PRIMITIVES = {
    "encoding.encode_state_optimal": (_encode, 1, lambda n: 16 * _C16 * 4**n),
    "compiler.run_program": (
        _run_program,
        2,
        lambda n: items.CIRCUIT_GATES * 4 * 2 * _C16 * 4**n + 12 * _C16 * 4 ** (n + 1),
    ),
    "measure.amplitude_via_pauli": (_amplitude, 1, lambda n: 14 * _C16 * 4 ** (n + 1)),
    "measure.expectation_via_swap": (_swap, 1, lambda n: 8 * _C16 * 16 ** (n + 1)),
    "lindblad.evolve": (_evolve, 1, lambda n: 24 * _C16 * 4 ** (n + 1)),
    "search.x_basis_probabilities": (_x_basis, 1, lambda n: 6 * _C16 * 4 ** (n + 1)),
    "search.end_to_end_search": (_search, 1, lambda n: 8 * _C16 * 4 ** (n + 1)),
}


def climb(name: str) -> dict:
    """Rungs tried for one primitive and the largest n whose call fit the budget."""
    prepare, n, footprint = PRIMITIVES[name]
    rungs, max_n, stop = [], 0, "max_rung"
    while n <= MAX_RUNG:
        need = footprint(n)
        if need > MEMORY_CAP_BYTES:
            rungs.append({"n": n, "skipped_bytes": need})
            stop = "memory_cap"
            break
        try:
            call = prepare(n)
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
        except DimensionError as exc:
            rungs.append({"n": n, "refused": str(exc)})
            stop = "program_cap"
            break
        rungs.append({"n": n, "seconds": elapsed, "bytes": need})
        if elapsed > BUDGET_S:
            stop = "budget"
            break
        max_n = n
        n += 1
    return {"max_n": max_n, "stop": stop, "rungs": rungs}
