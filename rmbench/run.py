"""rmlab benchmark: one set of runs of one workload at one seed.

    python3 rmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rmlab is imported from its ``src``
directory, so there is nothing to build. The workload's config is
generated from the seed (workloads.py), must pass ``rmlab validate``, and
its exact ``rmlab oracle`` values are computed once, untimed.

--trace 0: repeats one ``rmlab run --threads 1`` in a fresh interpreter
(child.py) with one BLAS thread until S seconds of runs have passed, at
least MIN_RUNS times, and reports the median of each end-to-end metric.

--trace 1: alternates an untraced run with a traced one (tracing.py) for
S seconds, at least once each, and reports the per-layer metrics: the
median over traced runs for times, and counts, which must repeat exactly.

Every run's rows are checked (checks.py). Diagnostics and a provenance
record go to earlier lines; the last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. Metric names and
units are those of BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, expected_spans

BENCH = Path(__file__).resolve().parent
MIN_RUNS = 3
# no new run starts after this many seconds of runs, so that a set ends
# well inside the three minutes it is allowed
RUN_BUDGET_S = 140.0
CHILD_TIMEOUT_S = 120.0
IMPORT_SAMPLES = 3
# Every child run uses one BLAS/OpenMP thread, as `--threads 1` asks of the
# CLI. On a few shared cores a second BLAS thread that waits on a preempted
# sibling made the dense eigh of dimer_exact_L10 take up to six times longer.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_ENV = {**os.environ, **{k: "1" for k in THREAD_VARS}}


class BenchError(RuntimeError):
    pass


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_child(root: Path, cfg_path: Path, out_dir: Path, spans_path: Path | None = None) -> dict | None:
    """One rmlab run in a fresh interpreter; None if it failed."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(cfg_path), str(out_dir)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        _log(f"run timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        _log(f"run failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class RowLedger:
    """Attempted and failed rows over a set; later runs must reproduce the
    first run's output byte for byte."""

    def __init__(self, cfg: dict, oracle: dict, workload) -> None:
        self.cfg, self.oracle, self.workload = cfg, oracle, workload
        self.rows = checks.expected_rows(cfg)
        self.attempted = 0
        self.failed = 0
        self._first = None
        self._first_failed = 0

    def add(self, out_dir: Path | None) -> None:
        """Account for one run; out_dir is None when the run failed."""
        self.attempted += self.rows
        if out_dir is None:
            self.failed += self.rows
            return
        fp = checks.fingerprint(out_dir)
        if self._first is None:
            self._first = fp
            self._first_failed, messages = checks.check_first_run(out_dir, self.cfg, self.oracle, self.workload)
            for m in messages:
                _log(f"failed row: {m}")
            self.failed += self._first_failed
        elif fp != self._first:
            _log("output differs from the first run of the set")
            self.failed += self.rows
        else:
            self.failed += self._first_failed


END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def unitaries_per_s(run: dict, cfg: dict) -> float:
    """Measurement-pipeline throughput: unitaries after set-up per second."""
    prot = cfg["protocol"]
    return prot["n_ave"] * prot["n_unitaries"] / (run["wall_s"] - run["setup_s"])


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def oracle_csv(root: Path, cfg: dict, cfg_path: Path, work: Path) -> str:
    """`rmlab oracle` output for the config, computed untimed.

    The exact values do not depend on the seed, and the L = 10 oracle takes
    about 20 s (mostly the sparse build of H^2), so the output is cached in
    the checkout, keyed by the sources and the config without its seed.
    """
    from rmlab import cli

    seedless = {k: v for k, v in cfg.items() if k != "seed"}
    key = hashlib.sha256((source_digest(root) + json.dumps(seedless, sort_keys=True)).encode()).hexdigest()
    cached = BENCH / "_cache" / f"oracle-{key[:24]}.csv"
    if cached.is_file():
        return cached.read_text()
    if cli.main(["oracle", str(cfg_path), "--out", str(work / "oracle")]) != 0:
        raise BenchError("rmlab oracle failed")
    text = (work / "oracle" / "oracle.csv").read_text()
    cached.parent.mkdir(exist_ok=True)
    tmp = cached.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    tmp.replace(cached)
    return text


def import_seconds(root: Path) -> float:
    """Median wall time of ``import rmlab`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import rmlab; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True, env=CHILD_ENV)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure_set(root: Path, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate, validate, run and check one set; return the result object."""
    from rmlab import cli

    wl = WORKLOADS[workload]
    cfg = wl.make_config(seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    if cli.main(["validate", str(cfg_path)]) != 0:
        raise BenchError("generated config does not pass rmlab validate")
    oracle = checks.oracle_values(oracle_csv(root, cfg, cfg_path, work))
    ledger = RowLedger(cfg, oracle, wl)

    def one_run(tag: str, traced: bool) -> tuple[dict | None, list | None]:
        out = work / tag
        spans_path = work / f"{tag}.spans.json" if traced else None
        result = run_child(root, cfg_path, out, spans_path)
        ledger.add(out if result is not None else None)
        spans = json.loads(spans_path.read_text()) if result is not None and traced else None
        shutil.rmtree(out, ignore_errors=True)
        return result, spans

    untraced, traced, spans_per_run = [], [], []
    busy = 0.0
    i = 0
    while True:
        t0 = time.perf_counter()
        result, _ = one_run(f"run{i}", traced=False)
        if result is not None:
            untraced.append(result)
        if trace:
            result, spans = one_run(f"traced{i}", traced=True)
            if result is not None:
                traced.append(result)
                spans_per_run.append(spans)
        busy += time.perf_counter() - t0
        i += 1
        per_round = busy / i
        # stop where the set's expected length is closest to S seconds
        done = i >= (1 if trace else MIN_RUNS) and busy + per_round / 2 > seconds
        if done or busy + per_round > RUN_BUDGET_S:
            break

    if not untraced or (trace and not traced):
        raise BenchError("no run of the set succeeded")
    if trace:
        metrics = _per_layer(root, cfg, untraced, traced, spans_per_run)
    else:
        metrics = {k: statistics.median(r[k] for r in untraced) for k in END_TO_END}
        _log(f"{len(untraced)} runs; wall_s per run: " + ", ".join(f"{r['wall_s']:.3f}" for r in untraced))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def _per_layer(root: Path, cfg: dict, untraced: list, traced: list, spans_per_run: list) -> dict[str, float]:
    expected = expected_spans(cfg)
    evolve_ms = [ms for spans in spans_per_run for ms in tracing.evolve_call_ms(spans)]
    per_run = []
    for spans in spans_per_run:
        tracing.check_hits(spans, expected)
        per_run.append(tracing.layer_metrics(spans, evolve_ms))
    for name in tracing.COUNTS:
        values = {r[name] for r in per_run}
        if len(values) != 1:
            raise BenchError(f"{name} differs between traced runs: {sorted(values)}")
    metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in untraced)
    )
    metrics["cli.import_s"] = import_seconds(root)
    metrics["unitaries_per_s"] = statistics.median(unitaries_per_s(r, cfg) for r in untraced)
    _log(f"{len(traced)} traced runs; evolve_blend tail percentile "
         f"p{tracing.tail_percentile(len(evolve_ms))} over {len(evolve_ms)} calls")
    return metrics


def _source_lines(directory: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(directory.rglob("*.py")))


def provenance(root: Path, load: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    git_hash = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git_hash = out.stdout.strip() or None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_hash": git_hash,
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_thread_env": {k: CHILD_ENV[k] for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_average_at_start": list(load),
        "source_lines": {"src": _source_lines(root / "src"), "tests": _source_lines(root / "tests")},
    }


def _named_metrics(metrics: dict[str, float], declared: list[dict]) -> dict:
    names = {d["name"] for d in declared}
    if names != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}")
    return {d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]} for d in declared}


def main(argv: list[str] | None = None) -> int:
    load = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    manifest = root / "BENCHMARK.json"
    if not (src / "rmlab" / "__init__.py").is_file():
        _log(f"no rmlab sources under {src}; run from the root of an rmlab checkout")
        return 2
    if not manifest.is_file():
        _log(f"no {manifest}")
        return 2
    sys.path.insert(0, str(src))
    import rmlab

    if not Path(rmlab.__file__).resolve().is_relative_to(src.resolve()):
        _log(f"rmlab imported from {rmlab.__file__}, not from {src}")
        return 2

    declared = json.loads(manifest.read_text())["per_layer" if args.trace else "end_to_end"]
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure_set(root, args.workload, args.seed, args.seconds, bool(args.trace), work)
        result["metrics"] = _named_metrics(result["metrics"], declared)
        record = provenance(root, load)
    except (BenchError, tracing.MissedHookError) as e:
        _log(f"benchmark error: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("provenance: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
