"""The benchmark harness resolves the program names it traces and its items still pass.

perfbench lives outside the package and rebinds public names of pauliblock
modules, so removing or renaming one of them breaks the benchmark without
failing any package test.  This file only reads perfbench.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("items"), importlib.import_module("tracing")


def test_tracer_resolves_every_traced_name(harness):
    _, tracing = harness
    tracer = tracing.Tracer()  # looks up every TRACED name; a missing one raises AttributeError
    bound = {f"{fn.__module__.split('.')[-1]}.{fn.__name__}" for _, _, fn, _ in tracer._bindings}
    assert bound == set(tracing.TRACED)


@pytest.mark.parametrize("workload", ["dense", "trajectories", "small_n"])
def test_one_warm_up_item_of_each_kind_passes_its_check(harness, workload):
    items, _ = harness
    warm = items.warmup_items(workload, 1)
    assert {item.kind for item in warm} == {kind for kind, _, _ in items.WORKLOADS[workload]}
    for item in warm:
        checks = items.check_item(item, items.run_item(item))
        assert checks and all(c.ok for c in checks), item.label


def test_every_ladder_rung_runs_at_two_qubits(harness):
    ladder = importlib.import_module("ladder")
    for name, (prepare, _, _) in ladder.PRIMITIVES.items():
        assert prepare(2)() is not None, name
