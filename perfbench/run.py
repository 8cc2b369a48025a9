#!/usr/bin/env python3
"""Closed-loop benchmark of the pauliblock pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

One caller runs a seeded stream of items; the next item starts when the
previous one returns.  Every item is one pipeline run checked against its
independent reference (see items.py); a failed check or an exception counts
as a failed item and makes the run exit 1, naming the item.

A run always ends on a whole cycle of its workload's item mix (items.py).  Its
throughput, median and tail latency are taken per window of whole cycles, and
the run reports the level that three of every four windows sustain: the first
quartile of window throughputs and the third quartile of window latencies.  On
a shared machine that alternates fast and slow spells of several seconds, this
level is set by the slow spells every run contains, not by how much of one run
the fast spells happened to cover, and it can only understate the program.
BLAS runs one thread: a multi-threaded BLAS call waits for its slowest thread,
so load on either of two shared cores would slow every call.

--trace 0 prints the end-to-end metrics.  --trace 1 runs items for a quarter
of the item time, each once plain and once with the program's public
functions wrapped (tracing.py), and prints the per-layer metrics, the suite
times of an in-process ``pauliblock all`` (its untraced twin runs beside it
in a child process, to compare stdout), and the scale ladder (ladder.py).
Metric names and units are read from BENCHMARK.json.  The last line of stdout is one JSON object; a full record
of the run (environment, input profile, spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

SETUP_PROBES = 5
DETERMINISM_ITEMS = 8
TAIL_BEYOND = 10
TAIL_WINDOW_ITEMS = 200
WINDOWS = 10
BLAS_THREADS = 1
ALL_TIMEOUT_S = 150
MARGIN_FLOOR = 1e-12
OUT_DIR = ".perfbench_out"

# Report name of each `pauliblock all` suite -> function in pauliblock.suites.
SUITE_FUNCTIONS = {
    "pauli_bell": "pauli_bell_suite",
    "gate_library": "gate_library_suite",
    "gamma_bound": "gamma_bound_suite",
    "amplitude_mechanism": "amplitude_suite",
    "swap_expectation": "swap_expectation_suite",
    "purification": "purification_suite",
    "ite": "ite_suite",
    "steadiness": "steadiness_suite",
    "oracle_identities": "oracle_identity_suite",
    "search_protocol": "search_suite",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> None:
    """Run BLAS on BLAS_THREADS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class Outcome:
    def __init__(self, item, checks, error=None):
        self.item = item
        self.checks = checks
        self.error = error
        self.ok = error is None and bool(checks) and all(c.ok for c in checks)

    def describe(self) -> str:
        if self.error:
            return f"item {self.item.label}: raised\n{self.error}"
        bad = [
            f"{c.label}: {c.residual:.3e} >= tol {c.tol:.0e}" if c.numeric else f"{c.label}: failed"
            for c in self.checks
            if not c.ok
        ]
        return f"item {self.item.label}: " + ("; ".join(bad) or "no checks ran")


def attempt(item, post=None, span=None):
    """Run one item through the program and its check; never raises."""
    import items

    span = span or (lambda name: contextlib.nullcontext())
    try:
        outputs = items.run_item(item)
        if post is not None:
            outputs = post(outputs)
        with span("bench.check"):
            checks = items.check_item(item, outputs)
    except Exception:
        return Outcome(item, [], traceback.format_exc())
    return Outcome(item, checks)


class Run:
    """Counts, latencies and failures of one phase of items."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.margins = []
        self.items = []

    def record(self, outcome, seconds):
        self.items.append(outcome.item)
        self.latencies.append(seconds)
        self.margins.append(max((c.residual / c.tol for c in outcome.checks if c.numeric), default=0.0))
        if not outcome.ok:
            self.failures.append(outcome.describe())


def _timed(item, tracer=None):
    if tracer is None:
        start = time.perf_counter()
        outcome = attempt(item)
        return outcome, time.perf_counter() - start
    tracer.item = item.index
    tracer.install()
    try:
        with tracer.span(f"bench.item.{item.kind}"):
            start = time.perf_counter()
            outcome = attempt(item, span=tracer.span)
            elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
        tracer.item = None
    return outcome, elapsed


def run_items(workload, seed, seconds, tracer=None):
    """Closed loop: item i+1 starts when item i returns, until `seconds` of item
    time have passed and the current cycle of the item mix is complete.

    Inputs are generated between items, outside the timed interval.  With a
    tracer, every item also runs a second time traced, alternating which of
    the two runs goes first; returns (untraced Run, traced Run).
    """
    import items

    plain, traced = Run(), Run()
    cycle = len(items.WORKLOADS[workload])
    busy = 0.0
    index = 0
    while busy < seconds or index % cycle:
        item = items.make_item(workload, seed, index)
        if tracer is not None and index % 2:
            traced.record(*_timed(item, tracer))
        outcome, elapsed = _timed(item)
        plain.record(outcome, elapsed)
        busy += elapsed
        if tracer is not None and not index % 2:
            traced.record(*_timed(item, tracer))
        index += 1
    return plain, traced


def setup(workload, seed) -> list:
    """Warm-up: one untimed item of each kind, which fills lazy caches and starts BLAS."""
    import items

    return [attempt(item) for item in items.warmup_items(workload, seed)]


def probe_setup_seconds(workload, seed) -> list:
    """Time from process start until a fresh process is ready for its first item."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = child.stdout.readline().strip()
            ready = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            if child.wait(timeout=120) != 0 and line == "ready":
                line = "exit"
        if line != "ready":
            raise RuntimeError(f"set-up probe failed: {line or 'no output'}")
        samples.append(ready - start)
    return samples


def cycle_windows(latencies, cycle, windows) -> list:
    """Consecutive windows of whole cycles (at most `windows`, at least one).

    Every window holds the same item mix, so the windows differ only by how
    fast the machine ran them.
    """
    cycles = len(latencies) // cycle
    windows = max(1, min(windows, cycles))
    edges = [cycle * (cycles * w // windows) for w in range(windows + 1)]
    return [latencies[a:b] for a, b in zip(edges, edges[1:])]


def sustained(values, higher_is_better) -> float:
    """The level three of every four windows meet: Q1 of rates, Q3 of latencies."""
    if len(values) == 1:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1 if higher_is_better else q3


def timing_summary(latencies, cycle) -> dict:
    """Throughput and median latency over up to WINDOWS windows of whole cycles;
    the tail, the highest percentile with TAIL_BEYOND items beyond it, over
    windows of whole cycles of at least TAIL_WINDOW_ITEMS items (one window
    when the run has fewer).  Each is reported as the level it sustains.
    """
    windows = cycle_windows(latencies, cycle, WINDOWS)
    tail_windows = cycle_windows(latencies, cycle, len(latencies) // TAIL_WINDOW_ITEMS)
    size = min(len(w) for w in tail_windows)
    beyond = min(TAIL_BEYOND, size - 1)
    return {
        "items": len(latencies),
        "windows": len(windows),
        "items_per_s": sustained([len(w) / sum(w) for w in windows], True),
        "p50_s": sustained([statistics.median(w) for w in windows], False),
        "tail_s": sustained([sorted(w)[len(w) - 1 - beyond] for w in tail_windows], False),
        "tail_percentile": 100.0 * (size - beyond) / size,
        "tail_items_beyond": beyond,
        "tail_windows": len(tail_windows),
        "tail_window_items": size,
    }


def self_tests(workload, seed, warm) -> list:
    """Gate self-checks; returns the problems found (empty when the gate works)."""
    import items

    problems = []
    first = [items.make_item(workload, seed, i) for i in range(DETERMINISM_ITEMS)]
    again = [items.make_item(workload, seed, i) for i in range(DETERMINISM_ITEMS)]
    if items.digest(first) != items.digest(again):
        problems.append(f"seed {seed} generated different inputs on two passes")
    for outcome in warm:
        if attempt(outcome.item, post=items.corrupt).ok:
            problems.append(f"corrupted result of {outcome.item.label} passed its check")

    def boom(outputs):
        raise RuntimeError("deliberate failure")

    if attempt(warm[0].item, post=boom).ok:
        problems.append("an item that raised was counted as passed")
    return problems


def environment(seed) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": _nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return int(fn())
    return None


def run_all(seed):
    """`pauliblock all --seed S` in-process; returns (exit code, stdout, seconds)."""
    from pauliblock import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(["all", "--seed", str(seed)])
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def traced_and_untraced_all(workload, seed, tracer):
    """`pauliblock all` traced in this process while a child runs it untraced.

    Returns ((code, stdout) traced, (code, stdout, seconds) untraced).  The
    child is always waited for, and killed first if it outlives ALL_TIMEOUT_S.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--run-all"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        tracer.item = "all"
        tracer.install()
        try:
            code, stdout, _ = run_all(seed)
        finally:
            tracer.uninstall()
            tracer.item = None
        out, _ = child.communicate(timeout=ALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"untraced pauliblock all child ran past {ALL_TIMEOUT_S} s") from None
    finally:
        if child.poll() is None:
            child.kill()
        child.communicate()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"untraced pauliblock all child exited {child.returncode}")
    plain = json.loads(lines[-1])
    return (code, stdout), (plain["code"], plain["stdout"], plain["seconds"])


def end_to_end_metrics(run, cycle, setup_samples) -> dict:
    lat = timing_summary(run.latencies, cycle)
    return {
        "items_per_s": lat["items_per_s"],
        "item_p50_ms": 1e3 * lat["p50_s"],
        "item_tail_ms": 1e3 * lat["tail_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worst_margin_digits": -math.log10(max(max(run.margins), MARGIN_FLOOR)),
        "setup_s": statistics.median(setup_samples),
    }, lat


def per_layer_metrics(names, tracer, run, untraced, profile, all_seconds, ladder_results) -> dict:
    import tracing

    agg = tracer.aggregate(lambda span: isinstance(span[4], int))
    suites = tracer.aggregate(lambda span: span[4] == "all")
    item_s = sum(row["total_s"] for name, row in agg.items() if name.startswith("bench.item."))

    def ratio(a, b):
        return a / b if b else 0.0

    search_row = agg.get("search.end_to_end_search", {"counts": {}})
    counts = search_row["counts"]
    extra = {
        "compiler.compiled_mb": agg.get("compiler.compile_circuit", {"max": {}})["max"].get("compiled_bytes", 0) / 2**20,
        "compiler.gate_repeat_ratio": profile["gate_repeat_ratio"],
        "search.acceptance_ratio": ratio(counts.get("accepted", 0), counts.get("oracle_queries", 0)),
        "search.full_rank_ratio": ratio(search_row.get("calls", 0), counts.get("batches", 0)),
        "oracle.share": ratio(agg.get("bench.check", {"total_s": 0.0})["total_s"], item_s),
        "cli.all_s": all_seconds,
        "trace.overhead_ratio": sum(run.latencies) / sum(untraced.latencies) - 1.0,
    }
    for suite, fn in SUITE_FUNCTIONS.items():
        extra[f"suites.{suite}_s"] = suites.get(f"suites.{suite}", {"total_s": 0.0})["total_s"]
    for name, result in ladder_results.items():
        extra[f"{name}.max_n"] = result["max_n"]

    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        fn, _, stat = name.rpartition(".")
        if fn not in tracing.TRACED:
            raise KeyError(f"no source for per-layer metric {name!r}")
        row = agg.get(fn)
        if row is None:
            out[name] = 0
        elif stat in ("calls", "self_s"):
            out[name] = row[stat]
        else:
            out[name] = row["counts"][stat]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--run-all", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pauliblock", "__init__.py")):
        return _fail("no pauliblock sources under ./src; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    seconds = args.seconds or spec["run_seconds"]
    _pin_blas_threads()
    sys.path.insert(0, src)
    import pauliblock

    if os.path.dirname(os.path.abspath(pauliblock.__file__)) != os.path.join(src, "pauliblock"):
        return _fail(f"imported pauliblock from {pauliblock.__file__}, not from ./src")
    if args.run_all:
        code, stdout, elapsed = run_all(args.seed)
        print(json.dumps({"code": code, "stdout": stdout, "seconds": elapsed}))
        return 0
    import items

    if args.workload not in items.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(items.WORKLOADS)}")

    warm = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready" if all(o.ok for o in warm) else "warm-up failed", flush=True)
        return 0

    problems = [f"warm-up {o.describe()}" for o in warm if not o.ok]
    record = {"environment": environment(args.seed), "workload": args.workload, "trace": args.trace}
    if args.trace == 0:
        try:
            setup_samples = probe_setup_seconds(args.workload, args.seed)
        except RuntimeError as exc:
            problems.append(str(exc))
            setup_samples = [0.0]
        run, _ = run_items(args.workload, args.seed, seconds)
        metrics, lat = end_to_end_metrics(run, len(items.WORKLOADS[args.workload]), setup_samples)
        record.update(setup_samples_s=setup_samples, latency=lat, item_margins=run.margins, item_latencies_s=run.latencies)
        notes = {
            "items_per_s": f"Q1 of {lat['windows']} windows of whole cycles",
            "item_p50_ms": f"Q3 of the medians of {lat['windows']} windows; {lat['items']} items",
            "item_tail_ms": f"p{lat['tail_percentile']:.1f} ({lat['tail_items_beyond']} items beyond), Q3 of "
            f"{lat['tail_windows']} windows of >= {lat['tail_window_items']} items",
            "worst_margin_digits": f"worst_margin {max(run.margins):.4g} (largest residual / tolerance)",
        }
        attempted, failures = len(run.items), run.failures
        section = spec["end_to_end"]
    else:
        import ladder
        import tracing
        from pauliblock import suites as suites_module

        tracer = tracing.Tracer(extra=[(suites_module, fn, f"suites.{name}") for name, fn in SUITE_FUNCTIONS.items()])
        untraced, run = run_items(args.workload, args.seed, seconds / 4, tracer)
        try:
            (code_traced, stdout_traced), (code_plain, stdout_plain, all_seconds) = traced_and_untraced_all(
                args.workload, args.seed, tracer
            )
        except RuntimeError as exc:
            problems.append(str(exc))
            (code_traced, stdout_traced), (code_plain, stdout_plain, all_seconds) = (None, ""), (None, "", 0.0)
        if code_plain != 0 or code_traced != 0:
            problems.append(f"pauliblock all exited {code_plain} untraced, {code_traced} traced")
        if stdout_plain != stdout_traced:
            problems.append("pauliblock all stdout changed under tracing")
        ladder_results = {name: ladder.climb(name) for name in ladder.PRIMITIVES}
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer_metrics(
            names, tracer, run, untraced, items.input_profile(run.items), all_seconds, ladder_results
        )
        record.update(
            pauliblock_all={"exit_codes": [code_plain, code_traced], "stdout_identical": stdout_plain == stdout_traced,
                            "stdout_bytes": len(stdout_plain)},
            ladder=ladder_results,
            spans=len(tracer.spans),
        )
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        tracer.write(os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        attempted, failures = len(untraced.items) + len(run.items), untraced.failures + run.failures
        section = spec["per_layer"]
        notes = {}

    failed = len(failures)
    problems += failures
    problems += self_tests(args.workload, args.seed, warm)
    profile = items.input_profile(run.items)
    record.update(profile=profile, problems=problems, fail_ratio=failed / attempted)
    units = {m["name"]: m["unit"] for m in section}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"workload": args.workload, "profile": profile}))
    for name, entry in result["metrics"].items():
        print(f"{args.workload:>12}  {name:<44} {entry['value']:>14.6g} {entry['unit']:<8} {notes.get(name, '')}")
    print(f"{args.workload:>12}  {'fail_ratio':<44} {failed / attempted:>14.6g} ratio    {failed} of {attempted} items failed")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
