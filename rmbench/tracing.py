"""Spans around calls into rmlab's layers, recorded from outside the package.

The tracer wraps a fixed list of public functions of each layer module and
replaces every reference to them inside the package, including the names
other modules re-import (``rmlab.protocol.evolve_blend`` is the same
function object as ``rmlab.statevector.evolve_blend``). Spans are kept in
memory, one dict each with a name, start, end and parent, and written out
when the run ends. Nothing inside rmlab is changed on disk.

``layer_metrics`` turns one traced run's spans into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from typing import Callable

LAYERS = ("cli", "config", "scenarios", "pauli", "statevector", "pulses", "protocol", "estimators")

# Public functions wrapped per layer. Chosen so that no wrapped function is
# called per Pauli string or per outcome, which would make the trace slow
# the run it measures.
TRACED = {
    "cli": ("main", "cmd_run"),
    "config": ("load_config", "parse_config", "validate"),
    "scenarios": ("prepare_scenario", "prepare_exact_gs", "prepare_adiabatic", "model_hamiltonian"),
    "pauli": ("square_observable", "PauliStringSum.to_sparse"),
    "statevector": ("ground_state", "evolve_blend", "apply_local_unitaries", "sample_basis_indices"),
    "pulses": ("golden_schedule", "perturb"),
    "protocol": ("sample_unitaries", "run_ideal", "run_pulsed", "save_record"),
    "estimators": ("purity_estimate", "observable_expectation", "hamiltonian_variance", "results_to_csv"),
}

PER_LAYER = (
    "cli.import_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "scenarios.prepare_s",
    "pauli.to_sparse_s",
    "pauli.to_sparse_calls",
    "pauli.to_sparse_nnz",
    "pauli.square_observable_s",
    "statevector.ground_state_s",
    "statevector.evolve_blend_calls",
    "statevector.evolve_blend_s",
    "statevector.evolve_blend_call_ms_p50",
    "statevector.evolve_blend_call_ms_tail",
    "statevector.coeff_evals",
    "statevector.apply_local_unitaries_s",
    "statevector.sample_basis_indices_s",
    "pulses.golden_schedule_calls",
    "pulses.golden_schedule_s",
    "pulses.perturb_calls",
    "protocol.run_pulsed_s",
    "protocol.grid_validate_s",
    "protocol.grid_validate_evolves",
    "protocol.grid_steps",
    "protocol.evolve_per_unitary_ms",
    "protocol.useful_evolve_frac",
    "protocol.run_ideal_s",
    "protocol.save_record_s",
    "protocol.record_bytes",
    "estimators.purity_s",
    "estimators.variance_s",
    "estimators.energy_s",
    "estimators.strings",
    "estimators.record_ms",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.coverage",
    # from the untraced runs of a traced set: n_ave * N_U / (wall_s - setup_s).
    # Not an end-to-end metric, because its ten-set spread on a 2-core VM
    # (up to 0.37) exceeds the largest regression bound a metric may have.
    "unitaries_per_s",
)

# Work counts: they must repeat exactly between two traced runs of one
# config and seed. Everything else in PER_LAYER is a time or a ratio.
COUNTS = (
    "pauli.to_sparse_calls",
    "pauli.to_sparse_nnz",
    "statevector.evolve_blend_calls",
    "statevector.coeff_evals",
    "pulses.golden_schedule_calls",
    "pulses.perturb_calls",
    "protocol.grid_validate_evolves",
    "protocol.grid_steps",
    "protocol.record_bytes",
    "estimators.strings",
)


class MissedHookError(RuntimeError):
    """A call the benchmark must observe never happened."""


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """fn wrapped in a span. before(span, args, kwargs) may return new
        (args, kwargs); after(span, args, result) annotates the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "start": 0.0, "end": 0.0}
            spans.append(span)
            stack.append(len(spans) - 1)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever rmlab refers to it."""
        modules = {layer: importlib.import_module(f"rmlab.{layer}") for layer in LAYERS}
        namespaces = [*modules.values(), sys.modules["rmlab"]]
        for layer, mod in modules.items():
            for qual in TRACED[layer]:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = getattr(owner, attr)
                wrapped = self.wrap(f"{layer}.{qual}", orig, **_ANNOTATIONS.get(qual, {}))
                if owner_name:  # a method: patch the class once
                    setattr(owner, attr, wrapped)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapped)


# ---------------------------------------------------------------------------
# Counters recorded at the wrapped boundaries
# ---------------------------------------------------------------------------


def _count_coefficients(span, args, kwargs):
    """Count H(t) coefficient evaluations by wrapping the callables in
    evolve_blend's ``parts``, which rmlab passes positionally; constant
    coefficients are never called."""
    span["coeff_evals"] = 0

    def counted(c):
        def coeff(t):
            span["coeff_evals"] += 1
            return c(t)

        return coeff

    psi, parts, *rest = args
    parts = [(counted(c) if callable(c) else c, m) for c, m in parts]
    return (psi, parts, *rest), kwargs


def _record_nnz(span, args, result):
    span["nnz"] = int(result.nnz)


def _record_steps(span, args, result):
    span["steps"] = int(result.meta["steps"])
    span["samples"] = int(result.n_unitaries)


def _record_bytes(span, args, result):
    span["bytes"] = os.path.getsize(args[1])


def _record_strings(span, args, result):
    span["strings"] = len(args[1])


_ANNOTATIONS = {
    "PauliStringSum.to_sparse": {"after": _record_nnz},
    "evolve_blend": {"before": _count_coefficients},
    "run_pulsed": {"after": _record_steps},
    "save_record": {"after": _record_bytes},
    "observable_expectation": {"after": _record_strings},
}


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, covered_to = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > covered_to:
            total += hi - max(lo, covered_to)
            covered_to = hi
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _union_length(children[i]) for i, s in enumerate(spans)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; the
    median when there are fewer than twenty samples."""
    return max(50, int(100 * (1 - 10 / n))) if n >= 20 else 50


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_hits(spans: list[dict], expected: set[str]) -> None:
    hit = {s["name"] for s in spans}
    missed = sorted(expected - hit)
    if missed:
        raise MissedHookError("traced calls never made: " + ", ".join(missed))


def layer_metrics(spans: list[dict], evolve_ms: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but cli.import_s,
    trace.overhead_s and unitaries_per_s, which need other runs).
    ``evolve_ms`` holds the evolve_blend call durations the call-time
    percentiles are taken over, gathered across every traced run of the set."""
    selfs = self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]

    def where(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def named(name):
        return where(lambda s: s["name"] == name)

    def total(name):
        return sum(dur[i] for i in named(name))

    root = named("cli.main")
    if len(root) != 1:
        raise MissedHookError(f"expected one cli.main span, found {len(root)}")
    wall = dur[root[0]]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i in where(lambda s: s["name"].split(".")[0] == layer))
    m["scenarios.prepare_s"] = total("scenarios.prepare_scenario")
    sparse = named("pauli.PauliStringSum.to_sparse")
    m["pauli.to_sparse_s"] = sum(dur[i] for i in sparse)
    m["pauli.to_sparse_calls"] = len(sparse)
    m["pauli.to_sparse_nnz"] = sum(spans[i]["nnz"] for i in sparse)
    m["pauli.square_observable_s"] = total("pauli.square_observable")
    m["statevector.ground_state_s"] = sum(selfs[i] for i in named("statevector.ground_state"))

    evolves = named("statevector.evolve_blend")
    m["statevector.evolve_blend_calls"] = len(evolves)
    m["statevector.evolve_blend_s"] = sum(dur[i] for i in evolves)
    m["statevector.evolve_blend_call_ms_p50"] = _percentile(evolve_ms, 50)
    m["statevector.evolve_blend_call_ms_tail"] = _percentile(evolve_ms, tail_percentile(len(evolve_ms)))
    m["statevector.coeff_evals"] = sum(spans[i]["coeff_evals"] for i in evolves)
    m["statevector.apply_local_unitaries_s"] = total("statevector.apply_local_unitaries")
    m["statevector.sample_basis_indices_s"] = total("statevector.sample_basis_indices")

    m["pulses.golden_schedule_calls"] = len(named("pulses.golden_schedule"))
    m["pulses.golden_schedule_s"] = total("pulses.golden_schedule")
    m["pulses.perturb_calls"] = len(named("pulses.perturb"))

    # Inside each run_pulsed call, the last n_samples evolve_blend calls are
    # the per-unitary ones; those before them validate the time grid.
    validate_s, per_unitary, steps, n_validate = 0.0, [], 0, 0
    for p in named("protocol.run_pulsed"):
        inner = sorted((i for i in evolves if spans[i]["parent"] == p), key=lambda i: spans[i]["start"])
        split = len(inner) - spans[p]["samples"]
        validate_s += sum(dur[i] for i in inner[:split])
        n_validate += split
        per_unitary += [dur[i] for i in inner[split:]]
        steps += spans[p]["steps"]
    evolve_in_pulsed = validate_s + sum(per_unitary)
    m["protocol.run_pulsed_s"] = total("protocol.run_pulsed")
    m["protocol.grid_validate_s"] = validate_s
    m["protocol.grid_validate_evolves"] = n_validate
    m["protocol.grid_steps"] = steps
    m["protocol.evolve_per_unitary_ms"] = 1e3 * statistics.median(per_unitary) if per_unitary else 0.0
    m["protocol.useful_evolve_frac"] = sum(per_unitary) / evolve_in_pulsed if evolve_in_pulsed else 0.0
    m["protocol.run_ideal_s"] = total("protocol.run_ideal")
    saves = named("protocol.save_record")
    m["protocol.save_record_s"] = sum(dur[i] for i in saves)
    m["protocol.record_bytes"] = sum(spans[i]["bytes"] for i in saves)

    # energy is the observable_expectation the CLI calls itself; the ones
    # inside hamiltonian_variance belong to the variance estimate
    variance = set(named("estimators.hamiltonian_variance"))
    expectations = named("estimators.observable_expectation")
    m["estimators.purity_s"] = total("estimators.purity_estimate")
    m["estimators.variance_s"] = sum(dur[i] for i in variance)
    m["estimators.energy_s"] = sum(dur[i] for i in expectations if spans[i]["parent"] not in variance)
    m["estimators.strings"] = sum(spans[i]["strings"] for i in expectations)
    estimate_s = m["estimators.purity_s"] + m["estimators.variance_s"] + m["estimators.energy_s"]
    m["estimators.record_ms"] = 1e3 * estimate_s / len(saves) if saves else 0.0

    # coverage: share of the run inside the outermost spans of the layers
    # below the CLI; the rest is CLI glue nobody has attributed
    def under_cli(s):
        p = s["parent"]
        return p is not None and spans[p]["name"].startswith("cli.")

    outer = [(s["start"], s["end"]) for s in spans if not s["name"].startswith("cli.") and under_cli(s)]
    m["trace.wall_s"] = wall
    m["trace.coverage"] = _union_length(outer) / wall
    return m


def evolve_call_ms(spans: list[dict]) -> list[float]:
    return [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "statevector.evolve_blend"]
