"""Output checks: one operation is one `results.csv` row.

A row of the first run of a set fails when

- its purity is further than Z_BOUND standard errors, plus the workload's
  stated bias allowance as a share of the exact value, from the
  `rmlab oracle` value for the same config and seed; the standard error
  is taken over unitaries from the run's own records;
- its normalized variance or energy is further than the workload's stated
  tolerance from the oracle value;
- re-estimating the reloaded records does not reproduce its value.

Every later run of the set must reproduce the first run's `results.csv`
and records byte for byte; otherwise all of its rows fail. A run that
raised or returned non-zero fails all of its rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

Z_BOUND = 6.0
REESTIMATE_RTOL = 1e-12


def expected_rows(cfg: dict) -> int:
    est = cfg["estimators"]
    return len(est.get("subsystems", [])) + bool(est.get("variance")) + bool(est.get("energy"))


def read_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def oracle_values(csv_text: str) -> dict[tuple[str, str], float]:
    return {(r["quantity"], r["target"]): float(r["value"]) for r in read_rows(csv_text)}


def fingerprint(run_dir: Path) -> tuple[bytes, tuple[str, ...]]:
    """results.csv bytes and a digest per record file, in file order."""
    records = sorted((run_dir / "records").glob("rep_*.ndjson"))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in records)
    return (run_dir / "results.csv").read_bytes(), digests


def _sites(target: str) -> tuple[int, ...]:
    return tuple(int(s) for s in target.removeprefix("sites=").split(","))


def _purity_error(records, sites) -> float:
    """Standard error of the repetition-averaged purity, over unitaries."""
    from rmlab.estimators import purity_estimate

    var = 0.0
    for rec in records:
        per_unitary = [purity_estimate(rec.subset([i]), sites).value for i in range(rec.n_unitaries)]
        var += float(np.var(per_unitary, ddof=1)) / rec.n_unitaries
    return math.sqrt(var) / len(records)


def check_first_run(run_dir: Path, cfg: dict, oracle: dict, workload) -> tuple[int, list[str]]:
    """Failed rows of a run's results.csv and one message per problem.
    A wrong row count or record count fails every row."""
    from rmlab.estimators import hamiltonian_variance, observable_expectation, purity_estimate
    from rmlab.protocol import load_record
    from rmlab.scenarios import model_hamiltonian

    rows = read_rows((run_dir / "results.csv").read_text())
    records = [load_record(p) for p in sorted((run_dir / "records").glob("rep_*.ndjson"))]
    n_expected = expected_rows(cfg)
    if len(rows) != n_expected:
        return n_expected, [f"expected {n_expected} rows, got {len(rows)}"]
    if len(records) != cfg["protocol"]["n_ave"]:
        return n_expected, [f"{len(records)} records for n_ave = {cfg['protocol']['n_ave']}"]
    scen = cfg["scenario"]
    ham = model_hamiltonian(scen["num_sites"], scen.get("phase", "topological"))
    messages = []
    failed = 0
    for row in rows:
        key = (row["quantity"], row["target"])
        value = float(row["value"])
        if key not in oracle:
            failed += 1
            messages.append(f"{key}: no oracle value")
            continue
        if row["quantity"] == "purity":
            sites = _sites(row["target"])
            again = [purity_estimate(r, sites).value for r in records]
            allowed = Z_BOUND * _purity_error(records, sites) + workload.purity_bias * abs(oracle[key])
        elif row["quantity"] == "variance":
            again = [hamiltonian_variance(r, ham).value for r in records]
            allowed = workload.variance_tol
        else:
            again = [observable_expectation(r, ham) for r in records]
            allowed = workload.energy_tol
        problems = []
        off = abs(value - oracle[key])
        if not off <= allowed:
            problems.append(f"{key}: {value!r} is {off:.4g} from oracle {oracle[key]!r}, allowed {allowed:.4g}")
        mean = float(np.mean(again))
        if not math.isclose(mean, value, rel_tol=REESTIMATE_RTOL, abs_tol=1e-15):
            problems.append(f"{key}: reloaded records give {mean!r}, row has {value!r}")
        failed += bool(problems)
        messages += problems
    return failed, messages
