"""Reader for the channel wire format, the round-trip reference of the dump tests.

The package only writes this format (`channel_to_dict`, `program_to_dict`,
`amplitude --dump-channels`); no subcommand reads it.  The reader rebuilds
each channel through `KrausPairChannel`, so a loaded channel passes the same
checks as a built one: bad qubits or matrix sizes raise DimensionError, a
non-trace-preserving channel or one that leaks off the XOR classes ChannelError.
"""

import numpy as np

from pauliblock.channels import KrausPairChannel, _checked_qubits
from pauliblock.compiler import CompiledProgram
from pauliblock.errors import DimensionError


def _matrix_from_wire(entries, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries])
    if flat.size != dim * dim:
        raise DimensionError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def channel_from_dict(data: dict) -> KrausPairChannel:
    """Inverse of channel_to_dict; a missing "qubits" means all n qubits."""
    n = int(data["n"])
    qubits = data.get("qubits")
    if qubits is not None:
        qubits = _checked_qubits(qubits, n)
    dim = 2 ** (n if qubits is None else len(qubits))
    pairs = [
        (_matrix_from_wire(p["k"], dim), _matrix_from_wire(p["l"], dim))
        for p in data["pairs"]
    ]
    eta = data.get("eta")
    return KrausPairChannel(
        n=n, pairs=pairs, eta=None if eta is None else float(eta), qubits=qubits
    )


def program_from_dict(data: dict) -> CompiledProgram:
    """Inverse of program_to_dict."""
    return CompiledProgram(
        n=int(data["n"]),
        channels=tuple(channel_from_dict(ch) for ch in data["channels"]),
        eta_total=float(data["eta_total"]),
        hadamard_count=int(data["hadamard_count"]),
    )
