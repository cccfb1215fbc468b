#!/usr/bin/env python3
"""Run the benchmark's workloads and collect their result lines in one file.

    python3 scripts/bench.py OUT.json [--seed N] [--seconds S]

For every workload in rmbench/workloads.py this runs the unchanged
``rmbench/run.py`` twice from the repository root: once end to end
(``--trace 0``) and once traced per layer (``--trace 1``). OUT.json
holds each run's last output line (the result) under the workload's
name, next to ``integrator``: the integrator's exponentials and series
terms from ``run_meta.json`` of one untimed ``rmlab run`` of the
workload's config at the seed, work counts that host speed cannot blur.
It also holds the provenance of the first run: git hash, source digest
(the hash does not see uncommitted edits), numpy and scipy versions,
nproc and the line counts of ``src`` and ``tests``. ``git_dirty`` is
true when the work tree differed from that hash before the runs, so the
source digest, not the hash, names the code that ran.

After the workloads it runs the tier-1 tests (``TIER1_ARGS``) once
and stores, under ``tier1``, the command, its exit code, the outcome
counts from pytest's summary line (passed, failed, ...) and its wall
time in seconds.

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
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_KEYS = ("git_hash", "src_sha256", "numpy", "scipy", "nproc", "source_lines")
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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


def integrator_counts(config: dict) -> dict:
    """``run_meta.json["integrator"]`` of one ``rmlab run`` of the config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "run"
        cfg.write_text(json.dumps(config))
        cmd = [sys.executable, "-m", "rmlab.cli", "run", str(cfg), "--out", str(out), "--threads", "1"]
        subprocess.run(cmd, cwd=ROOT, env=src_env(), capture_output=True, check=True)
        return json.loads((out / "run_meta.json").read_text())["integrator"]


def run_tier1() -> dict:
    """Run the tier-1 tests once from the repository root: counts and wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_ARGS], cwd=ROOT, env=src_env(), capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1_ARGS),
            "returncode": proc.returncode, "counts": counts, "wall_s": wall_s}


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
        results["integrator"] = integrator_counts(WORKLOADS[name].make_config(args.seed))
        report["workloads"][name] = results
        report.setdefault("provenance", {k: provenance[k] for k in PROVENANCE_KEYS} | {"git_dirty": dirty})
    report["provenance"]["public_surface"] = public_surface()
    print("tier-1 tests ...", file=sys.stderr, flush=True)
    report["tier1"] = run_tier1()
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
