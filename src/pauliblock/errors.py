"""Exception types, the size policy and the header reader shared across the package."""


class DimensionError(ValueError):
    """Matrix or vector dimensions are not the expected powers of two."""


# Size policy: the largest size each kind of allocation accepts.
STATE_QUBITS = 10  # dense (1+n)-qubit density matrices (NdmeState.rho, oracle_apply), 64 MB at n = 10
VECTOR_QUBITS = 20  # length-2^n vectors: class states, statevectors
REFERENCE_QUBITS = 6  # dense brute-force references (ITE, Bell frame, eigensolves)
OPERATOR_QUBITS = 8  # dense n-qubit operators: circuit unitaries
CBE_QUBITS = 4  # dense block-encoding operators on 2n qubits
KRAUS_SUM_QUBITS = 3  # the search oracle's literal 4^n-term Kraus sum
SWAP_QUBITS = 4  # the swap trace's three dense 16^(n+1)-entry operators
MAX_SHOTS = 10**6  # X-basis draws in one sample_outcomes call, about 42 MB at n = 3
MAX_STEPS = 10**6  # RK4 steps in one Lindblad run
MAX_SNAPSHOT_BYTES = 1 << 30  # snapshots one Lindblad run keeps


def check_qubits(n: int, cap: int, what: str, unit: str = "qubits") -> None:
    """DimensionError unless n <= cap; call before allocating anything of size n."""
    if n > cap:
        raise DimensionError(f"{what} is capped at {cap} {unit}, got {n}")


class EncodingError(ValueError):
    """A state or matrix violates the I/X block-encoding contract."""


class ChannelError(ValueError):
    """Kraus pairs do not form a valid trace-preserving channel."""


class ParseError(ValueError):
    """Malformed circuit or Hamiltonian text; carries the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_qubit_text(text: str):
    """Split circuit or Hamiltonian text into its qubit count and body lines.

    '#' starts a comment and blank lines are skipped; the first remaining
    line must be the header "qubits <n>".  Returns (n, [(lineno, line)])
    with each body line stripped of its comment and surrounding space.
    """
    n = None
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is not None:
            body.append((lineno, line))
            continue
        tokens = line.split()
        if tokens[0].lower() != "qubits" or len(tokens) != 2:
            raise ParseError(lineno, "expected header 'qubits <n>'")
        try:
            n = int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"bad qubit count {tokens[1]!r}") from None
        if n < 1:
            raise ParseError(lineno, "qubit count must be positive")
    if n is None:
        raise ParseError(1, "missing 'qubits <n>' header")
    return n, body


class IntegratorError(RuntimeError):
    """Trajectory integration drifted outside its stability tolerances."""


class SearchFailure(RuntimeError):
    """Target extraction exhausted its retry budget."""
