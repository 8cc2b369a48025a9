"""Pauli-basis block-encoding toolkit.

Pure states live as {I, X}-string coefficients in the upper-right block of
a density matrix; block-diagonal Kraus channels act on them, a Lindbladian
drives imaginary-time flows, and a channel oracle powers a linear-query
search protocol.  Everything is verified against independent dense
brute-force computations at desk scale.
"""

from .channels import (
    KrausPairChannel,
    apply_channel,
    cbe_operator,
    channel_to_dict,
    embed_channel,
    gate_channel,
    gate_target_unitary,
    pauli_channel,
    verify_po,
)
from .compiler import (
    Circuit,
    CompiledProgram,
    compile_circuit,
    parse_circuit,
    predicted_signal_factor,
    run_program,
)
from .encoding import (
    NdmeState,
    block_coefficients,
    decode_state,
    encode_state_optimal,
    gamma_upper_bound,
    hadamard_transform,
)
from .errors import (
    ChannelError,
    DimensionError,
    EncodingError,
    IntegratorError,
    ParseError,
    SearchFailure,
)
from .lindblad import (
    JumpSet,
    PauliHamiltonian,
    Trajectory,
    build_jumps,
    coherence_steadiness,
    decay_rate_fit,
    evolve,
    ite_reference,
    lindblad_rhs,
    parse_hamiltonian,
    validate_jumps,
)
from .measure import (
    amplitude_via_pauli,
    assistant_traces,
    expectation_via_swap,
    hle_identity_check,
)
from .paulis import (
    PauliString,
    bell_frame,
    embed_operator,
    pauli_trace,
    vectorize,
)
from .search import (
    SampleBatch,
    SearchOracle,
    end_to_end_search,
    extract_target,
    gf2_rank,
    gf2_solve,
    oracle_apply,
    rho_out_closed_form,
    run_protocol,
)

__version__ = "0.1.0"
