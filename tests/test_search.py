import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pauliblock import encoding, search
from pauliblock.encoding import NdmeState, encode_state_optimal, xor_class_sums
from pauliblock.errors import (
    STATE_QUBITS,
    VECTOR_QUBITS,
    DimensionError,
    SearchFailure,
    check_qubits,
)
from pauliblock.oracle import random_statevector
from pauliblock.paulis import HADAMARD, PauliString, X, kron_all
from pauliblock.search import (
    ORACLE_ETA,
    SearchOracle,
    _indices_to_bits,
    _oracle_classes,
    bits_to_index,
    end_to_end_search,
    gf2_rank,
    gf2_solve,
    oracle_apply,
    oracle_apply_kraus,
    rho_out_closed_form,
    run_protocol,
    sample_outcomes,
    x_basis_probabilities,
)
from pauliblock.suites import search_suite

from dense import xor_class_matrix

SCAN_QUBITS = 4  # exhaustive readout over all 2^n candidate targets


def scan_all_targets(outcomes: np.ndarray, n: int) -> np.ndarray:
    """Exhaustive readout: score every candidate string on the raw samples.

    The parity statistic of the planted string concentrates at +1/2 while
    every other candidate concentrates at 0, so the argmax identifies the
    target from O(1) samples at the price of 2^n postprocessing.
    Test-scale only (n <= SCAN_QUBITS).
    """
    check_qubits(n, SCAN_QUBITS, "scan_all_targets")
    outcomes = np.asarray(outcomes, dtype=np.uint8)
    candidates = _indices_to_bits(np.arange(2**n), n)
    parity = (outcomes[:, :1] + outcomes[:, 1:] @ candidates.T) % 2
    scores = 1.0 - 2.0 * parity.mean(axis=0)
    return candidates[int(np.argmax(scores))]


def _q_matrix(alpha, n):
    d = 2**n
    return np.eye(d)[np.arange(d) ^ alpha]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_action_on_every_string(n):
    rng = np.random.default_rng(n)
    orc = SearchOracle(n=n, target=rng.integers(0, 2, n))
    for alpha in range(2**n):
        op = np.kron(X, _q_matrix(alpha, n))
        out = oracle_apply(orc, op)
        sign = 1.0 if alpha == orc.target_index else -1.0
        assert np.abs(out - sign / 3.0 * op).max() < 1e-12


def test_oracle_is_unital():
    orc = SearchOracle(n=2, target="01")
    mixed = np.eye(8, dtype=complex) / 8
    assert np.abs(oracle_apply(orc, mixed) - mixed).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fast_path_equals_literal_kraus(n):
    rng = np.random.default_rng(10 + n)
    orc = SearchOracle(n=n, target=rng.integers(0, 2, n))
    d = 2 ** (n + 1)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    assert np.abs(oracle_apply(orc, rho) - oracle_apply_kraus(orc, rho)).max() < 1e-12


def test_verification_expectations():
    n = 3
    orc = SearchOracle(n=n, target="101")
    d = 2**n
    for alpha in range(d):
        op = np.kron(X, _q_matrix(alpha, n))
        rho_in = (np.eye(2 * d) + op) / (2 * d)
        got = np.trace(op @ oracle_apply(orc, rho_in)).real
        want = 1 / 3 if alpha == orc.target_index else -1 / 3
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_protocol_output_matches_closed_form(n):
    rng = np.random.default_rng(20 + n)
    x = rng.integers(0, 2, n)
    got = run_protocol(SearchOracle(n=n, target=x)).rho
    assert np.abs(got - rho_out_closed_form(n, x)).max() < 1e-12


def test_protocol_output_block_and_traces():
    n = 2
    x = "10"
    rho_out = run_protocol(SearchOracle(n=n, target=x)).rho
    d = 2**n
    block = rho_out[:d, d:]
    assert np.abs(block - 0.5 * 2.0 ** -(n + 1) * _q_matrix(0b10, n)).max() < 1e-15
    for alpha in range(d):
        got = np.trace(np.kron(X, _q_matrix(alpha, n)) @ rho_out).real
        assert got == pytest.approx(0.5 if alpha == 0b10 else 0.0, abs=1e-12)


def test_discard_probability_and_parity():
    n = 3
    x = "011"
    rho_out = run_protocol(SearchOracle(n=n, target=x))
    probs = x_basis_probabilities(rho_out)
    discard = probs[0] + probs[2**n]
    assert discard == pytest.approx(0.5 + 2.0 ** -(n + 1), abs=1e-12)

    rows = sample_outcomes(probs, shots=4000, seed=3)
    kept = rows[:, 1:].any(axis=1)
    acc = rows[kept]
    assert acc.shape[0] > 0
    xs = np.array([0, 1, 1])
    parity = (acc[:, 0] + acc[:, 1:] @ xs) % 2
    assert not parity.any()
    assert kept.mean() == pytest.approx(0.5 - 2.0 ** -(n + 1), abs=0.05)


def test_sampling_is_seed_deterministic():
    probs = x_basis_probabilities(run_protocol(SearchOracle(n=2, target="11")))
    a = sample_outcomes(probs, shots=100, seed=42)
    b = sample_outcomes(probs, shots=100, seed=42)
    assert np.array_equal(a, b)
    assert sample_outcomes(np.full(8, 1 / 8), 5, seed=0).shape == (5, 3)


def test_gf2_solve_recovers_target_from_accepted_rows():
    rho_out = run_protocol(SearchOracle(n=3, target="101"))
    rows = sample_outcomes(x_basis_probabilities(rho_out), shots=60, seed=1)
    acc = rows[rows[:, 1:].any(axis=1)]
    assert acc.shape[0] >= 20
    found = gf2_solve(acc[:, 1:], acc[:, 0])
    assert np.array_equal(found, [1, 0, 1])


def test_gf2_solve_on_equal_accepted_rows_is_none():
    rows = np.repeat(np.array([[1, 1, 0, 1]], dtype=np.uint8), 5, axis=0)
    assert rows[:, 1:].any(axis=1).all()
    assert gf2_solve(rows[:, 1:], rows[:, 0]) is None


def test_single_bit_search_exhaustively():
    rho_out = run_protocol(SearchOracle(n=1, target="1"))
    probs = x_basis_probabilities(rho_out)
    # accepted support is only beta = 11, which forces r = 1
    assert probs[0b01] == pytest.approx(0.0, abs=1e-12)
    assert probs[0b11] == pytest.approx(0.25, abs=1e-12)
    found, _ = end_to_end_search(1, "1", seed=0)
    assert np.array_equal(found, [1])


def test_gf2_solver_properties():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        x = rng.integers(0, 2, n).astype(np.uint8)
        rows = [rng.integers(0, 2, n).astype(np.uint8) for _ in range(3 * n)]
        A = np.array(rows, dtype=np.uint8)
        if gf2_rank(A) < n:
            continue
        b = (A @ x) % 2
        sol = gf2_solve(A, b)
        assert sol is not None
        assert np.array_equal((A @ sol) % 2, b)
        assert np.array_equal(sol, x)


def test_gf2_solve_underdetermined_is_none():
    A = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert gf2_solve(A, np.array([1, 0], dtype=np.uint8)) is None


def test_logical_string_reads_out_target():
    # H^(n+1) (Z (x) Z^r) |+...+> lands on |1>|r>
    for n, r_bits in ((2, (1, 0)), (3, (1, 1, 0)), (4, (0, 1, 0, 1))):
        letters = "Z" + "".join("Z" if b else "I" for b in r_bits)
        op = PauliString(1, letters).matrix()
        plus = np.full(2 ** (n + 1), 2.0 ** (-(n + 1) / 2))
        out = kron_all([HADAMARD] * (n + 1)) @ (op @ plus)
        want_index = (1 << n) | bits_to_index(r_bits)
        want = np.zeros(2 ** (n + 1))
        want[want_index] = 1.0
        assert np.abs(out - want).max() < 1e-12


def test_end_to_end_seeded_runs():
    found, stats = end_to_end_search(5, "10110", seed=7)
    assert np.array_equal(found, [1, 0, 1, 1, 0])
    assert stats["oracle_queries"] >= 10
    assert 0 < stats["acceptance_rate"] <= 1
    assert stats["independence_batches"] >= 1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_end_to_end_search_finds_the_target_and_counts_its_rows(n, seed, data):
    target = data.draw(st.text("01", min_size=n, max_size=n))
    found, stats = end_to_end_search(n, target, seed=seed)
    assert "".join(str(int(b)) for b in found) == target
    # each batch accepts exactly n of the rows it consumes
    accepted = round(stats["acceptance_rate"] * stats["oracle_queries"])
    assert accepted == n * stats["independence_batches"]


def test_end_to_end_retry_budget(monkeypatch):
    monkeypatch.setattr(search, "MAX_BATCHES", 0)
    with pytest.raises(SearchFailure):
        end_to_end_search(3, "010", seed=0)


def test_scan_all_targets_recovers_plant():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        x = rng.integers(0, 2, n)
        rho_out = run_protocol(SearchOracle(n=n, target=x))
        probs = x_basis_probabilities(rho_out)
        rows = sample_outcomes(probs, shots=6000, seed=int(rng.integers(1 << 20)))
        assert np.array_equal(scan_all_targets(rows, n), x)


def test_oracle_size_guard():
    with pytest.raises(Exception):
        SearchOracle(n=VECTOR_QUBITS + 1, target=[0] * (VECTOR_QUBITS + 1))


def test_search_at_desk_scale_cap():
    # the search still runs at 10 qubits, the cap of the dense pipelines
    found, stats = end_to_end_search(10, "1011001110", seed=123)
    assert np.array_equal(found, [1, 0, 1, 1, 0, 0, 1, 1, 1, 0])
    assert stats["oracle_queries"] >= 20


# The per-block twirl formulas the class-sum core replaced, kept as a
# reference: C_I averages each block over its XOR classes (cross blocks
# negated); C_x keeps the diagonal blocks' traces and the target class of
# the cross blocks.
def _twirl_reference(B):
    dim = B.shape[0]
    idx = np.arange(dim)
    grid = idx[:, None] ^ idx[None, :]
    return B[idx[None, :], grid].mean(axis=1)[grid]


def _oracle_twirl_reference(orc, rho):
    d = 2**orc.n
    idx = np.arange(d)
    perm = idx ^ orc.target_index
    qx = np.eye(d, dtype=complex)[perm]
    out_i = np.empty_like(rho)
    out_i[:d, :d] = _twirl_reference(rho[:d, :d])
    out_i[:d, d:] = -_twirl_reference(rho[:d, d:])
    out_i[d:, :d] = -_twirl_reference(rho[d:, :d])
    out_i[d:, d:] = _twirl_reference(rho[d:, d:])
    out_x = np.zeros_like(rho)
    out_x[:d, :d] = np.trace(rho[:d, :d]) / d * np.eye(d)
    out_x[d:, d:] = np.trace(rho[d:, d:]) / d * np.eye(d)
    out_x[:d, d:] = rho[:d, d:][idx, perm].sum() / d * qx
    out_x[d:, :d] = rho[d:, :d][perm, idx].sum() / d * qx
    return (2.0 / 3.0) * out_x + (1.0 / 3.0) * out_i


@st.composite
def oracle_inputs(draw):
    n = draw(st.integers(1, 3))
    target = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    parts = arrays(np.float64, (2, 2 ** (n + 1), 2 ** (n + 1)), elements=st.floats(-1, 1))
    re, im = draw(parts)
    return SearchOracle(n=n, target=target), re + 1j * im


@settings(max_examples=40, deadline=None)
@given(oracle_inputs())
def test_class_sum_oracle_matches_kraus_and_twirl(case):
    orc, rho = case
    got = oracle_apply(orc, rho)
    assert np.abs(got - oracle_apply_kraus(orc, rho)).max() < 1e-12
    assert np.abs(got - _oracle_twirl_reference(orc, rho)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_x_basis_probabilities_match_two_sided_transform(n):
    # encoded states, their mixtures, the protocol output and the mixed state
    rng = np.random.default_rng(40 + n)
    h = kron_all([HADAMARD] * (n + 1))
    encoded = [encode_state_optimal(random_statevector(n, rng)) for _ in range(3)]
    mixed = np.zeros((2, 2, 2**n), dtype=complex)
    mixed[[0, 1], [0, 1], 0] = 2.0 ** -(n + 1)
    states = encoded + [
        NdmeState(n, p * a.classes + (1 - p) * b.classes)
        for p, a, b in zip(rng.uniform(size=3), encoded, encoded[1:] + encoded[:1])
    ]
    states += [run_protocol(SearchOracle(n=n, target=rng.integers(0, 2, n))), NdmeState(n, mixed)]
    for state in states:
        want = np.clip(np.diag(h @ state.rho @ h).real, 0.0, None)
        assert np.abs(x_basis_probabilities(state) - want / want.sum()).max() < 1e-15


def test_search_readout_forms_no_dense_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense state was formed")

    monkeypatch.setattr(encoding, "xor_class_blocks", refuse)
    monkeypatch.setattr(search, "xor_class_blocks", refuse)
    target = "1011001110100101"
    found, _ = end_to_end_search(16, target, seed=2)
    assert "".join(str(int(b)) for b in found) == target
    state = run_protocol(SearchOracle(n=STATE_QUBITS + 1, target=[1] * (STATE_QUBITS + 1)))
    probs = x_basis_probabilities(state)
    assert probs.size == 2 ** (STATE_QUBITS + 2) and abs(probs.sum() - 1.0) < 1e-12
    with pytest.raises(DimensionError, match="capped at"):
        state.rho


# (n, seed, target, oracle_queries, independence_batches) as returned by the
# dense protocol pipeline that the class-sum search replaced.
SEARCH_PINS = [
    (3, 0, "100", 37, 4), (3, 1, "101", 11, 2), (3, 2, "101", 21, 2),
    (4, 3, "0100", 11, 1), (4, 4, "0010", 7, 1), (4, 5, "0000", 18, 2),
    (5, 6, "01100", 37, 4), (5, 7, "01101", 42, 4), (5, 8, "01001", 114, 11),
    (6, 9, "101100", 51, 5), (6, 10, "010101", 22, 2), (6, 11, "111000", 29, 2),
    (7, 12, "1011101", 16, 1), (7, 13, "0010101", 42, 3), (7, 14, "1110010", 19, 1),
    (8, 15, "01001101", 41, 3), (8, 16, "10011000", 19, 1), (8, 17, "00001111", 54, 3),
    (9, 18, "100000010", 23, 1), (9, 19, "000101000", 50, 3),
]


@pytest.mark.parametrize("n,seed,target,queries,batches", SEARCH_PINS)
def test_search_pinned_to_dense_pipeline(n, seed, target, queries, batches):
    found, stats = end_to_end_search(n, target, seed=seed)
    assert "".join(str(int(b)) for b in found) == target
    assert (stats["oracle_queries"], stats["independence_batches"]) == (queries, batches)


def test_search_memory_is_linear_in_dimension():
    tracemalloc.start()
    try:
        end_to_end_search(10, "1011001110", seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("ns", [(), (0, 1), (3, -2)])
def test_search_suite_rejects_empty_or_nonpositive_ns(ns):
    with pytest.raises(ValueError, match="qubit counts n >= 1"):
        search_suite(0, runs=2, ns=ns)


def _block_expansion(c):
    """np.block of the four XOR-class matrices of the class values c (reference)."""
    return np.block([[xor_class_matrix(v) for v in row] for row in c])


@pytest.mark.parametrize("n", range(1, 7))
def test_dense_outputs_are_the_block_expansion_of_class_sums(n):
    rng = np.random.default_rng(90 + n)
    d = 2**n
    orc = SearchOracle(n=n, target=rng.integers(0, 2, n))
    rho = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    blocks = rho.reshape(2, d, 2, d).transpose(0, 2, 1, 3)
    s = np.array([[xor_class_sums(B) for B in row] for row in blocks])
    want = _block_expansion(_oracle_classes(s / d, orc.target_index))
    assert np.array_equal(oracle_apply(orc, rho), want)
    state = run_protocol(orc)
    assert np.array_equal(state.rho, _block_expansion(state.classes))


def _oracle_classes_reference(c, xi):
    """The oracle on class values as (2/3) kept + (1/3) twirled, each formed in full."""
    kept = np.zeros_like(c)
    kept[[0, 1], [0, 1], 0] = c[[0, 1], [0, 1], 0]
    kept[[0, 1], [1, 0], xi] = c[[0, 1], [1, 0], xi]
    twirled = c.copy()
    twirled[[0, 1], [1, 0]] *= -1.0
    return (2.0 / 3.0) * kept + (1.0 / 3.0) * twirled


@pytest.mark.parametrize("n", range(1, 9))
def test_in_place_oracle_equals_the_full_formula(n):
    rng = np.random.default_rng(110 + n)
    d = 2**n
    w = ORACLE_ETA / (1.0 + ORACLE_ETA)
    for xi in rng.choice(d, size=min(d, 8), replace=False):
        c = rng.normal(size=(2, 2, d)) + 1j * rng.normal(size=(2, 2, d))
        c[rng.random(c.shape) < 0.2] = 0.0
        assert np.array_equal(_oracle_classes(c, xi), _oracle_classes_reference(c, xi))
        uniform = np.full((2, 2, d), 0.5 / d, dtype=complex)
        want = w * uniform + (1.0 - w) * _oracle_classes_reference(uniform, xi)
        target = format(int(xi), f"0{n}b")
        assert run_protocol(SearchOracle(n=n, target=target)).classes.tobytes() == want.tobytes()


def test_protocol_peak_stays_near_two_class_arrays():
    n = 14
    oracle = SearchOracle(n=n, target="1" * n)
    tracemalloc.start()
    try:
        run_protocol(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 4 * 16 * 2**n  # the uniform input and the output, 2 MB each
