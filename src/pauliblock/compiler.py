"""Parse {H, S, T, CNOT} circuits and compile them into channel pipelines.

A circuit U compiles gate by gate: each gate g becomes the library channel
for the Hadamard-conjugated gate HgH (H stays H, S becomes HSH, T becomes
HTH, CNOT becomes the two-qubit library gate), so the pipeline as a whole
implements V = H^n U H^n on the encoded state.  Only Hadamard gates
attenuate; k of them leave a total scale of 2^(-k/2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .channels import (
    apply_channel,
    channel_to_dict,
    embed_channel,
    gate_channel,
)
from .encoding import NdmeState
from .errors import ChannelError, DimensionError, ParseError, read_qubit_text

GATE_ARITY = {"H": 1, "S": 1, "T": 1, "CNOT": 2}
_GATE_TO_CHANNEL = {"H": "H", "S": "HSH", "T": "HTH", "CNOT": "HH_CNOT_HH"}


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple


def parse_circuit(text: str) -> Circuit:
    """Parse the line format: "qubits n" header, then "H q" / "CNOT c t" lines.

    '#' starts a comment; blank lines are skipped.
    """
    n, body = read_qubit_text(text)
    gates = []
    for lineno, line in body:
        tokens = line.split()
        name = tokens[0].upper()
        if name not in GATE_ARITY:
            raise ParseError(lineno, f"unknown gate {tokens[0]!r}")
        arity = GATE_ARITY[name]
        if len(tokens) != 1 + arity:
            raise ParseError(lineno, f"{name} takes {arity} qubit index(es)")
        try:
            qubits = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(lineno, f"bad qubit index in {line!r}") from None
        if any(q < 0 or q >= n for q in qubits):
            raise ParseError(lineno, f"qubit index out of range 0..{n - 1}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ParseError(lineno, "CNOT needs two distinct qubits")
        gates.append((name, qubits))
    return Circuit(n=n, gates=tuple(gates))


@dataclass(frozen=True)
class CompiledProgram:
    n: int
    channels: tuple
    eta_total: float
    hadamard_count: int


def compile_circuit(circuit: Circuit) -> CompiledProgram:
    """Map every gate to its embedded library channel and track the scale."""
    bases = {name: gate_channel(_GATE_TO_CHANNEL[name]) for name in {g for g, _ in circuit.gates}}
    channels = []
    eta_product = 1.0
    k = 0
    for name, qubits in circuit.gates:
        base = bases[name]
        channels.append(embed_channel(base, list(qubits), circuit.n))
        eta_product *= base.eta
        if name == "H":
            k += 1
    eta_total = 2.0 ** (-k / 2)
    if abs(eta_product - eta_total) > 1e-12:
        raise ChannelError(
            f"eta bookkeeping drifted: product {eta_product} vs 2^(-k/2) {eta_total}"
        )
    return CompiledProgram(
        n=circuit.n, channels=tuple(channels), eta_total=eta_total, hadamard_count=k
    )


def run_program(program: CompiledProgram, state: NdmeState) -> NdmeState:
    """Apply the compiled channels in order."""
    if state.n != program.n:
        raise DimensionError(
            f"program expects n={program.n}, state has n={state.n}"
        )
    for ch in program.channels:
        state = apply_channel(ch, state)
    return state


def predicted_signal_factor(n: int, k: int, gamma0: float) -> float:
    """Scale relating the block's Pauli traces to circuit amplitudes.

    The raw trace signal for one amplitude is this factor times the
    amplitude; it equals 2^((n - k)/2) at the best starting scale 1/2.
    """
    return 2.0 ** (n / 2 + 1) * gamma0 * 2.0 ** (-k / 2)


def program_to_dict(program: CompiledProgram) -> dict:
    """Compiled program in the channel wire format, one entry per gate."""
    return {
        "n": program.n,
        "eta_total": float(program.eta_total),
        "hadamard_count": program.hadamard_count,
        "channels": [channel_to_dict(ch) for ch in program.channels],
    }

