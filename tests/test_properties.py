"""Property-based tests: text parsers, the channel wire format, Pauli traces."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliblock.channels import (
    F0_VARIANTS,
    GATE_IDS,
    channel_to_dict,
    embed_channel,
    gate_channel,
)
from pauliblock.compiler import GATE_ARITY, parse_circuit
from pauliblock.errors import ChannelError, ParseError
from pauliblock.lindblad import parse_hamiltonian
from pauliblock.paulis import PHASES, PauliString, pauli_trace
from wire import channel_from_dict

FEW = settings(max_examples=40, deadline=None)

# Lines the shared reader skips: blanks, comments, whitespace.
filler = st.sampled_from(["", "   ", "# note", "  # indented note", "\t"])


def _render(header: str, body: list, data) -> str:
    """Header and body lines, each preceded by a few drawn filler lines."""
    lines = []
    for line in [header] + body:
        lines.extend(data.draw(st.lists(filler, max_size=2)))
        lines.append(line)
    return "\n".join(lines) + "\n"


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(sorted(GATE_ARITY) if n >= 2 else ["H", "S", "T"]))
        qubits = tuple(draw(st.permutations(range(n)))[: GATE_ARITY[name]])
        gates.append((name, qubits))
    return n, gates


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        weight = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
        sign = draw(st.sampled_from([1, -1]))
        letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        terms.append((weight, PauliString(sign, letters)))
    return n, terms


@FEW
@given(circuits(), st.data())
def test_parse_circuit_round_trip(circ, data):
    n, gates = circ
    body = [
        data.draw(st.sampled_from([name, name.lower()])) + " " + " ".join(map(str, q))
        + data.draw(st.sampled_from(["", "  # gate"]))
        for name, q in gates
    ]
    parsed = parse_circuit(_render(f"qubits {n}", body, data))
    assert parsed.n == n and list(parsed.gates) == gates


@FEW
@given(hamiltonians(), st.data())
def test_parse_hamiltonian_round_trip(ham, data):
    n, terms = ham
    body = [f"{weight!r} {'+' if p.phase == 1 else '-'}{p.letters}" for weight, p in terms]
    parsed = parse_hamiltonian(_render(f"QUBITS {n}", body, data))
    assert parsed.n == n and list(parsed.terms) == terms


BAD_HEADERS = [
    "qubits", "qubits 0", "qubits -2", "qubits two", "qubit 2", "qubits 2 3", "H 0", "1.0 +X",
]


@FEW
@given(st.lists(filler, max_size=4), st.sampled_from(BAD_HEADERS + [None]))
def test_parsers_share_header_errors(pad, header):
    text = "\n".join(pad + ([] if header is None else [header, "H 0"]))
    errors = []
    for parse in (parse_circuit, parse_hamiltonian):
        with pytest.raises(ParseError) as err:
            parse(text)
        errors.append((err.value.lineno, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == (1 if header is None else len(pad) + 1)


@st.composite
def embedded_library_channels(draw):
    gate = draw(st.sampled_from(GATE_IDS))
    variant = draw(st.sampled_from(F0_VARIANTS if gate in ("X", "Y", "Z") else ["projector"]))
    base = gate_channel(gate, variant)
    n = draw(st.integers(base.n, 3))
    qubits = draw(st.permutations(range(n)))[: base.n]
    return embed_channel(base, qubits, n)


@FEW
@given(embedded_library_channels())
def test_wire_format_round_trip_embedded(ch):
    back = channel_from_dict(json.loads(json.dumps(channel_to_dict(ch))))
    assert back.n == ch.n and back.eta == ch.eta and back.qubits == ch.qubits
    assert len(back.pairs) == len(ch.pairs)
    for (k1, l1), (k2, l2) in zip(ch.pairs, back.pairs):
        assert np.array_equal(k1, k2) and np.array_equal(l1, l2)


@FEW
@given(embedded_library_channels(), st.data())
def test_corrupted_wire_channel_is_rejected(ch, data):
    wire = channel_to_dict(ch)
    pair = data.draw(st.sampled_from(wire["pairs"]))
    side = data.draw(st.sampled_from(["k", "l"]))
    scale = data.draw(st.floats(1.01, 2.0))
    pair[side] = [[re * scale, im * scale] for re, im in pair[side]]
    with pytest.raises(ChannelError):
        channel_from_dict(wire)


@st.composite
def signed_strings(draw):
    n = draw(st.integers(1, 6))
    letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    return PauliString(draw(st.sampled_from(PHASES)), letters)


@FEW
@given(signed_strings(), st.integers(0, 2**32 - 1))
def test_pauli_trace_matches_the_dense_trace(p, seed):
    rng = np.random.default_rng(seed)
    d = 2**p.n
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert abs(pauli_trace(M, p) - np.trace(p.matrix() @ M)) < 1e-12
