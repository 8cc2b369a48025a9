"""Spans and work counts recorded from outside the program.

The tracer rebinds public function names in the namespaces of the pauliblock
modules that call them (for example ``compiler.apply_channel`` and
``search.hadamard_transform``), so calls made inside the program are seen
without changing a line of it.  Uninstalling restores the original objects.
Spans stay in memory as (name, start, end, parent, item, counts) and are
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _kraus_pairs(args, result):
    return {"kraus_pairs": len(args["ch"].pairs)}


def _elements(args, result):
    return {"elements": int(np.asarray(args["arr"]).size)}


def _rk4(args, result):
    steps = int(round(args["t_max"] / args["dt"]))
    return {"rk4_steps": steps, "rhs_evals": 4 * steps}


def _compiled_bytes(args, result):
    return {"compiled_bytes": sum(K.nbytes + L.nbytes for ch in result.channels for K, L in ch.pairs)}


def _search_stats(args, result):
    stats = result[1]
    drawn = stats["oracle_queries"]
    return {
        "oracle_queries": drawn,
        "accepted": int(round(stats["acceptance_rate"] * drawn)),
        "batches": stats["independence_batches"],
    }


# Functions traced, by defining module, with the counts taken from each
# call's arguments or return value.
TRACED = {
    "paulis.embed_operator": None,
    "encoding.encode_state_optimal": None,
    "encoding.hadamard_transform": _elements,
    "encoding.block_coefficients": None,
    "channels.apply_channel": _kraus_pairs,
    "channels.check_cptp": None,
    "channels.gate_channel": None,
    "compiler.parse_circuit": None,
    "compiler.compile_circuit": _compiled_bytes,
    "compiler.run_program": None,
    "measure.amplitude_via_pauli": None,
    "measure.expectation_via_swap": None,
    "measure.hle_identity_check": None,
    "lindblad.parse_hamiltonian": None,
    "lindblad.build_jumps": None,
    "lindblad.evolve": _rk4,
    "lindblad.ite_reference": None,
    "search.end_to_end_search": _search_stats,
    "search.run_protocol": None,
    "search.x_basis_probabilities": None,
    "search.gf2_solve": None,
    "search.oracle_apply": None,
    "oracle.simulate": None,
    "oracle.herm_exp": None,
}


def _package_modules():
    return [m for name, m in sys.modules.items() if name.startswith("pauliblock") and m is not None]


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() swaps them out.

    extra holds (module, attribute, span name) triples traced without counts.
    """

    def __init__(self, extra=()):
        self.spans = []
        self._stack = []
        self.item = None
        targets = []
        for key, count in TRACED.items():
            modname, fname = key.split(".")
            targets.append((getattr(sys.modules[f"pauliblock.{modname}"], fname), key, count))
        for module, attr, name in extra:
            targets.append((getattr(module, attr), name, None))
        modules = _package_modules()
        self._bindings = []
        for fn, name, count in targets:
            wrapper = self._wrap(fn, name, count)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is fn:
                        self._bindings.append((module, attr, fn, wrapper))

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record["counts"] = count(bound.arguments, result)
            return result

        return wrapper

    def span(self, name):
        return _Span(self, name)

    def aggregate(self, keep) -> dict:
        """Per-name calls, total, self time and summed counts over spans kept by keep(span)."""
        child_time = defaultdict(float)
        for name, start, end, parent, item, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(float), "max": {}})
        for idx, span in enumerate(self.spans):
            if not keep(span):
                continue
            name, start, end, parent, item, counts = span
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            for key, value in (counts or {}).items():
                row["counts"][key] += value
                row["max"][key] = max(row["max"].get(key, value), value)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "item": item, "counts": counts}) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.record = {}

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        self.parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = (self.name, self.start, end, self.parent, tracer.item, self.record.get("counts"))
        return False
