#!/usr/bin/env python3
"""Run the benchmark's workloads and collect their result lines in one file.

    python3 scripts/bench.py OUT.json [--seed N] [--seconds S]

For every workload in rmbench/workloads.py this runs the unchanged
``rmbench/run.py`` twice from the repository root: once end to end
(``--trace 0``) and once traced per layer (``--trace 1``). OUT.json
holds each run's last output line (the result) under the workload's
name, next to ``integrator``: the integrator's exponentials and series
terms from ``run_meta.json`` of one untimed ``rmlab run`` of the
workload's config at the seed, work counts that host speed cannot blur,
and, for a pulsed workload, ``grid``: that run's certified step count,
its probe's n vs 2n distance and its per-exponential series truncation
budget.
It also holds the provenance of the first run: git hash, source digest
(the hash does not see uncommitted edits), numpy and scipy versions,
nproc and the line counts of ``src`` and ``tests``. ``git_dirty`` is
true when the work tree differed from that hash before the runs, so the
source digest, not the hash, names the code that ran.

After the workloads it runs the tier-1 tests (``TIER1_ARGS``) once
and stores, under ``tier1``, the command, its exit code, the outcome
counts from pytest's summary line (passed, failed, ...), its wall
time in seconds and, as ``slowest``, the five longest test phases that
pytest's ``--durations=5`` lists.

Under ``layers`` it stores per-call times of layers that no workload
reaches, or reaches only inside a whole run: ``propagator_batch_ms``
holds, per rotation label of the golden schedule, the best of five
``pulses.propagator_batch`` calls at 1, 11 (the sigma points) and 200
(random) gain rows, in milliseconds. ``estimator_record_ms`` holds the
best of five calls of ``purity_estimate`` (sites 1 to L/2),
``observable_expectation`` (H) and ``hamiltonian_variance`` (with H^2
built once, as a run does), and of ``whole_record``: the purities of
sites 1 to L/2 and L/2 + 1 to L, the energy and the variance, as a run
takes them. Each call, in milliseconds, gets a fresh copy of the record
made outside the timing, so it includes the record's one Walsh
transform. The records are two of the dimerized chain's ground state
built in-process through ``run_ideal``: a sampled one at L = 8
(N_U = 100, N_meas = 400) and an exact one at L = 10 (N_U = 100).
``run_ideal_record_ms`` holds the best
of five of the ``run_ideal`` calls that build those two records, in
milliseconds, per record. ``square_observable_ms`` holds the best
of five ``pauli.square_observable`` calls on the dimerized chain's
Hamiltonian at L = 8, 10 and 12, in milliseconds. ``pulsed_block`` holds
one pulsed block as ``protocol.run_pulsed`` evolves it, under ``K1``,
``K10`` and ``K100``: the dimerized chain's L = 8 ground state under
K = 1 (one vector, the path of the grid's probe), 10 (the benchmark's
block width) or 100 columns of the golden schedule, each with its own
per-unitary gains (eps = 3 %) and label row, interactions included,
through ``evolve_blend`` on the step count and at the series truncation
budget that ``protocol._certify_grid`` certifies at the benchmark's tol,
1e-4 (300 steps, budget 4.2e-11), as a run does. ``ms`` is the best of
three calls, in milliseconds, ``minor_faults`` the fewest minor page
faults (``resource.getrusage``) that one of those calls took,
``exponentials`` and ``series_terms`` the integrator's work in one call,
the counts behind the time, and ``steps`` and ``budget`` the grid. Each
width runs in a fresh interpreter: the allocator serves a block-sized
array from the heap or from a fresh mapping depending on what the
process freed before, so the count taken after the other layers would
not be the one a run sees. ``adiabatic_sweep`` holds the sweep that
sets up adiabatic_prep_L8, ``scenarios.prepare_adiabatic(8, 0.1)`` at
its default tol, 1e-9: ``ms``, the best of three calls in milliseconds,
and ``exponentials`` and ``series_terms``, the integrator's work in one
call, refinement rounds included.

Next to ``source_lines`` the provenance holds ``public_surface``: per
rmlab module, the names in its ``__all__`` and the parameters with
defaults of those names that are callable (a dataclass's fields with
defaults count, as its constructor's), plus both totals.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_KEYS = ("git_hash", "src_sha256", "numpy", "scipy", "nproc", "source_lines")
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]


def run_set(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One rmbench/run.py set: its result line and its provenance record."""
    cmd = [
        sys.executable, "rmbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[-2].removeprefix("provenance: "))
    return json.loads(lines[-1]), provenance


def src_env() -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    return os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}


def run_meta(config: dict) -> dict:
    """``run_meta.json`` of one ``rmlab run`` of the config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "run"
        cfg.write_text(json.dumps(config))
        cmd = [sys.executable, "-m", "rmlab.cli", "run", str(cfg), "--out", str(out), "--threads", "1"]
        subprocess.run(cmd, cwd=ROOT, env=src_env(), capture_output=True, check=True)
        return json.loads((out / "run_meta.json").read_text())


def run_tier1() -> dict:
    """Run the tier-1 tests once from the repository root: counts and wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_ARGS], cwd=ROOT, env=src_env(), capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    slowest = [
        {"test": test, "phase": phase, "s": float(s)}
        for s, phase, test in re.findall(r"^([\d.]+)s (call|setup|teardown)\s+(.+)$", proc.stdout, re.M)
    ]
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1_ARGS),
            "returncode": proc.returncode, "counts": counts, "wall_s": wall_s, "slowest": slowest}


def best_ms(call, repeats: int = 5, make=None) -> float:
    """Best of ``repeats`` wall times of ``call()``, or of ``call(make())``
    with each ``make()`` run outside the timing, in milliseconds."""
    best = math.inf
    for _ in range(repeats):
        args = () if make is None else (make(),)
        start = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def propagator_layer(repeats: int = 5) -> dict:
    """Best-of-``repeats`` milliseconds per ``propagator_batch`` call on the
    golden schedule, per label and gain-row count."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from rmlab.pulses import FluctuationModel, _sigma_gains, draw_gains, golden_schedule, propagator_batch

    schedule = golden_schedule()
    gains = {
        1: np.zeros((1, 5)),
        11: _sigma_gains(3.0),
        200: draw_gains(FluctuationModel(3.0), np.random.default_rng(0), 200),
    }
    out: dict = {}
    for label in (1, 2, 3):
        for rows, g in gains.items():
            ms = best_ms(lambda: propagator_batch(schedule, label, g), repeats)
            out.setdefault(f"label_{label}", {})[str(rows)] = ms
    return out


def record_layers(repeats: int = 5) -> tuple[dict, dict]:
    """Best-of-``repeats`` milliseconds per ``run_ideal`` call that builds a
    sampled L = 8 and an exact L = 10 record, and per estimator call, or
    per whole record's estimates, on a fresh copy of each record."""
    sys.path.insert(0, str(ROOT / "src"))
    from dataclasses import replace

    import numpy as np

    from rmlab.estimators import hamiltonian_variance, observable_expectation, purity_estimate
    from rmlab.pauli import square_observable
    from rmlab.protocol import EXACT_SHOTS, run_ideal, sample_unitaries
    from rmlab.scenarios import model_hamiltonian
    from rmlab.statevector import ground_state

    runs: dict = {}
    estimators: dict = {}
    for name, L, n_meas in (("sampled_L8", 8, 400), ("exact_L10", 10, EXACT_SHOTS)):
        h = model_hamiltonian(L)
        h2 = square_observable(h)
        psi = ground_state(h)[1]
        samples = sample_unitaries(L, 100, np.random.default_rng(0))
        runs[name] = best_ms(lambda: run_ideal(psi, samples, n_meas, seed=0), repeats)
        record = run_ideal(psi, samples, n_meas, seed=0)
        halves = (range(1, L // 2 + 1), range(L // 2 + 1, L + 1))

        def whole_record(rec):
            for sites in halves:
                purity_estimate(rec, sites)
            observable_expectation(rec, h)
            hamiltonian_variance(rec, h, h2)

        calls = {
            "purity": lambda rec: purity_estimate(rec, halves[0]),
            "energy": lambda rec: observable_expectation(rec, h),
            "variance": lambda rec: hamiltonian_variance(rec, h, h2),
            "whole_record": whole_record,
        }
        # a record keeps the Walsh table its first estimate builds, so each
        # call gets a fresh copy of the record, made outside the timing
        estimators[name] = {
            estimator: best_ms(call, repeats, make=lambda: replace(record))
            for estimator, call in calls.items()
        }
    return runs, estimators


def square_observable_layer(repeats: int = 5) -> dict:
    """Best-of-``repeats`` milliseconds per ``square_observable`` call on the
    dimerized chain's Hamiltonian, per chain length."""
    sys.path.insert(0, str(ROOT / "src"))
    from rmlab.pauli import square_observable
    from rmlab.scenarios import model_hamiltonian

    out: dict = {}
    for L in (8, 10, 12):
        h = model_hamiltonian(L)
        out[f"L{L}"] = best_ms(lambda: square_observable(h), repeats)
    return out


def pulsed_block_layer() -> dict:
    """``pulsed_block`` at K = 1, 10 and 100 columns, each measured in a
    fresh interpreter."""
    out = {}
    for columns in (1, 10, 100):
        code = f"import json, bench; print(json.dumps(bench.pulsed_block({columns})))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "scripts", capture_output=True,
                              text=True, check=True)
        out[f"K{columns}"] = json.loads(proc.stdout)
    return out


def pulsed_block(columns: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` milliseconds, the fewest minor page faults, the
    integrator's exponentials and series terms, and the step count and
    series budget of one L = 8 per-unitary pulsed block of ``columns``
    columns on the grid certified at the benchmark's tol, 1e-4."""
    sys.path.insert(0, str(ROOT / "src"))
    import resource

    import numpy as np

    from rmlab.protocol import _certify_grid, _drive_operators, _pulsed_parts, sample_unitaries
    from rmlab.pulses import FluctuationModel, golden_schedule, perturb
    from rmlab.scenarios import model_hamiltonian
    from rmlab.statevector import _INTEGRATOR_COUNTS, evolve_blend, ground_state

    L = 8
    h = model_hamiltonian(L)
    psi = ground_state(h)[1]
    schedule = golden_schedule()
    rng = np.random.default_rng(0)
    fluct = FluctuationModel(3.0)
    drawn = [(perturb(schedule, fluct, rng), row) for row in sample_unitaries(L, columns, rng)]
    drive = _drive_operators(L, h)
    parts = _pulsed_parts(schedule, drawn, drive)
    steps, budget, *_ = _certify_grid(psi, schedule, drive, 1e-4)
    ms = faults = math.inf
    for _ in range(repeats):
        counts = dict(_INTEGRATOR_COUNTS)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        evolve_blend(psi, parts, 0.0, schedule.T, tol=None, initial_steps=steps, budget=budget)
        ms = min(ms, 1e3 * (time.perf_counter() - start))
        faults = min(faults, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    work = {key: _INTEGRATOR_COUNTS[key] - counts[key] for key in counts}
    return {"ms": ms, "minor_faults": faults, "steps": steps, "budget": budget} | work


def adiabatic_sweep(repeats: int = 3) -> dict:
    """Best-of-``repeats`` milliseconds and the integrator's exponentials
    and series terms of one ``prepare_adiabatic(8, 0.1)`` call, the sweep
    that sets up adiabatic_prep_L8."""
    sys.path.insert(0, str(ROOT / "src"))
    from rmlab.scenarios import prepare_adiabatic
    from rmlab.statevector import _INTEGRATOR_COUNTS

    ms = math.inf
    for _ in range(repeats):
        counts = dict(_INTEGRATOR_COUNTS)
        start = time.perf_counter()
        prepare_adiabatic(8, 0.1)
        ms = min(ms, 1e3 * (time.perf_counter() - start))
    return {"ms": ms} | {key: _INTEGRATOR_COUNTS[key] - counts[key] for key in counts}


def public_surface() -> dict:
    """Exported names and their defaulted parameters, per module and in total."""
    sys.path.insert(0, str(ROOT / "src"))
    report: dict = {"modules": {}, "names": 0, "defaulted_params": 0}
    for path in sorted((ROOT / "src" / "rmlab").glob("[!_]*.py")):
        mod = importlib.import_module(f"rmlab.{path.stem}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        defaulted = 0
        for name in names:
            try:
                params = inspect.signature(getattr(mod, name)).parameters.values()
            except (TypeError, ValueError):  # constants, and classes with no signature
                continue
            defaulted += sum(p.default is not inspect.Parameter.empty for p in params)
        report["modules"][path.stem] = {"names": len(names), "defaulted_params": defaulted}
        report["names"] += len(names)
        report["defaulted_params"] += defaulted
    return report


def git_dirty() -> bool | None:
    """Whether the work tree has uncommitted changes; None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "rmbench"))
    from workloads import WORKLOADS

    dirty = git_dirty()
    report: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        results = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{name} {kind} ...", file=sys.stderr, flush=True)
            results[kind], provenance = run_set(name, args.seed, args.seconds, trace)
        meta = run_meta(WORKLOADS[name].make_config(args.seed))
        results["integrator"] = meta["integrator"]
        if "grid" in meta:
            results["grid"] = meta["grid"]
        report["workloads"][name] = results
        report.setdefault("provenance", {k: provenance[k] for k in PROVENANCE_KEYS} | {"git_dirty": dirty})
    report["provenance"]["public_surface"] = public_surface()
    run_ideal_ms, estimator_ms = record_layers()
    report["layers"] = {
        "propagator_batch_ms": propagator_layer(),
        "run_ideal_record_ms": run_ideal_ms,
        "estimator_record_ms": estimator_ms,
        "square_observable_ms": square_observable_layer(),
        "pulsed_block": pulsed_block_layer(),
        "adiabatic_sweep": adiabatic_sweep(),
    }
    print("tier-1 tests ...", file=sys.stderr, flush=True)
    report["tier1"] = run_tier1()
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
