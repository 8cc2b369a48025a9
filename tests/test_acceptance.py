"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line on success (run pytest with -s to see
them); tolerances are pinned here and in the suite implementations, not
deferred anywhere.
"""

import json
import time

import pytest

from pauliblock import cli, suites

SEED = 2026


def _report(number, title, **facts):
    detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}" for k, v in facts.items())
    print(f"criterion {number:2d} PASS: {title} ({detail})")


def test_criterion_01_pauli_bell_correspondence():
    start = time.perf_counter()
    result = suites.pauli_bell_suite()
    elapsed = time.perf_counter() - start
    assert result["tol"] == 1e-12
    assert result["residual"] < 1e-12
    assert elapsed < 1.0
    _report(1, "Pauli-Bell correspondence exact", residual=result["residual"], seconds=elapsed)


def test_criterion_02_gate_library():
    start = time.perf_counter()
    result = suites.gate_library_suite(tol=1e-12)
    elapsed = time.perf_counter() - start
    assert result["pass"], result
    etas = {(r["gate"], r["variant"]): r["eta"] for r in result["rows"]}
    assert etas[("H", "projector")] == pytest.approx(2**-0.5, abs=1e-15)
    for gate in ("HSH", "HTH", "HH_CNOT_HH", "X", "Y", "Z"):
        assert etas[(gate, "projector")] == 1.0
    worst = max(r["residual"] for r in result["rows"])
    assert elapsed < 5.0
    _report(2, "gate library block-encodings", worst_residual=worst, rows=len(result["rows"]), seconds=elapsed)


def test_criterion_03_gamma_bound():
    start = time.perf_counter()
    result = suites.gamma_bound_suite(SEED)
    elapsed = time.perf_counter() - start
    assert result["samples"] == 1000 and result["tol"] == 1e-12
    assert result["pass"], result
    assert result["equality_residual"] < 1e-12
    assert result["endpoint_residual"] == 0.0
    assert elapsed < 10.0
    _report(
        3,
        "encoding-factor bound saturated on 1000 random states",
        equality=result["equality_residual"],
        chain=result["chain_slack"],
        seconds=elapsed,
    )


def test_criterion_04_amplitude_mechanism():
    start = time.perf_counter()
    result = suites.amplitude_suite(SEED)
    elapsed = time.perf_counter() - start
    assert result["circuits"] == 50 and result["tol"] == 1e-9
    assert result["pass"], result
    assert result["amplitude_residual"] < 1e-9
    assert result["signal_residual"] < 1e-9
    assert elapsed < 60.0
    _report(
        4,
        "pipeline amplitudes match the statevector oracle on 50 circuits",
        amplitude=result["amplitude_residual"],
        signal=result["signal_residual"],
        seconds=elapsed,
    )


def test_criterion_05_swap_expectation():
    start = time.perf_counter()
    result = suites.swap_expectation_suite(SEED)
    elapsed = time.perf_counter() - start
    assert result["pairs"] == 20 and result["tol"] == 1e-10
    assert result["pass"], result
    assert result["residual"] < 1e-10
    assert elapsed < 30.0
    _report(5, "swap-trace expectation identity on 20 pairs", residual=result["residual"], seconds=elapsed)


def test_criterion_06_purification_identity():
    start = time.perf_counter()
    result = suites.purification_suite(SEED)
    elapsed = time.perf_counter() - start
    assert result["tol"] == 1e-10
    assert result["pass"], result
    assert result["residual"] < 1e-10
    assert elapsed < 10.0
    _report(6, "purification readout identity", residual=result["residual"], seconds=elapsed)


ITE_RESULT = {}


def test_criterion_07_ite_equivalence():
    start = time.perf_counter()
    result = suites.ite_suite(SEED)
    elapsed = time.perf_counter() - start
    assert result["tol"] == 1e-6 and result["rate_tol"] == 0.05
    ITE_RESULT.update(result)
    assert result["pass"], result
    assert result["block_residual"] < 1e-6
    assert result["decay_rate_rel_err"] < 0.05
    assert elapsed < 120.0
    _report(
        7,
        "dissipative block flow equals the dense imaginary-time propagator",
        block=result["block_residual"],
        rate_err=result["decay_rate_rel_err"],
        seconds=elapsed,
    )


def test_criterion_08_stabilizer_coherence_steadiness():
    start = time.perf_counter()
    result = suites.steadiness_suite()
    elapsed = time.perf_counter() - start
    assert result["pass"], result
    assert result["ground_derivative"] < 1e-6
    assert result["excited_derivative"] > 1e-3
    _report(
        8,
        "ground-sector coherences steady, excited components move",
        ground=result["ground_derivative"],
        excited=result["excited_derivative"],
        seconds=elapsed,
    )


def test_criterion_09_search_oracle_identities():
    start = time.perf_counter()
    result = suites.oracle_identity_suite(SEED)
    elapsed = time.perf_counter() - start
    assert result["tol"] == 1e-12
    assert result["pass"], result
    assert result["sign_action_residual"] < 1e-12
    assert result["closed_form_residual"] < 1e-12
    assert result["verification_residual"] < 1e-12
    assert result["fast_vs_kraus_residual"] < 1e-12
    assert elapsed < 60.0
    _report(
        9,
        "oracle channel identities at attenuation 1/3",
        sign=result["sign_action_residual"],
        closed_form=result["closed_form_residual"],
        seconds=elapsed,
    )


def test_criterion_10_end_to_end_search():
    start = time.perf_counter()
    result = suites.search_suite(SEED, runs=200, ns=(3, 4, 5, 6, 7, 8))
    elapsed = time.perf_counter() - start
    assert result["pass"], result
    for row in result["per_n"]:
        assert row["recovered"] == row["runs"], row
        assert row["independence_rate"] >= 0.25, row
        # the small-n acceptance probability sits below 0.45 by construction
        # (exactly 1/2 - 2^-(n+1)); the interval check applies from n = 4 up
        if row["n"] >= 4:
            assert 0.45 <= row["acceptance_rate"] <= 0.55, row
    assert result["query_slope"] > 0
    negligible = (
        result["quadratic_fraction"] < 0.25
        or abs(result["quadratic_coeff"]) <= 3.0 * result["quadratic_se"]
    )
    assert negligible, result
    assert elapsed < 300.0
    _report(
        10,
        "planted targets recovered 200/200 at every n in 3..8",
        slope=result["query_slope"],
        quad_coeff=result["quadratic_coeff"],
        quad_se=result["quadratic_se"],
        seconds=elapsed,
    )


def test_criterion_11_full_driver_deterministic(capsys):
    start = time.perf_counter()
    code = cli.main(["all", "--seed", "0", "--search-runs", "200"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["pass"] is True
    assert elapsed < 600.0
    # determinism at full scale for one repeated suite, byte for byte
    code2 = cli.main(["verify-gates"])
    out_a = capsys.readouterr().out
    code3 = cli.main(["verify-gates"])
    out_b = capsys.readouterr().out
    assert code2 == code3 == 0 and out_a == out_b
    with capsys.disabled():
        _report(11, "full driver green under the runtime budget", seconds=elapsed)
