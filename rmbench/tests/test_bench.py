"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest rmbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
from child import measure
from run import END_TO_END, RowLedger
from workloads import WORKLOADS, Workload, expected_spans

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_names_match_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["name"] for m in MANIFEST["end_to_end"]] == list(END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_configs_pass_validate(name, tmp_path, capsys):
    from rmlab import cli

    for seed in (0, 1, 12345):
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps(WORKLOADS[name].make_config(seed)))
        assert cli.main(["validate", str(path)]) == 0
    assert "warning" not in capsys.readouterr().err


def _traced_run(cfg_path: Path, out: Path) -> list[dict]:
    spans = out.with_suffix(".spans.json")
    subprocess.run(
        [sys.executable, str(ROOT / "rmbench" / "child.py"), str(cfg_path), str(out), str(spans)],
        cwd=ROOT, check=True, capture_output=True, timeout=170,
    )
    return json.loads(spans.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    cfg = WORKLOADS[name].make_config(7)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = [_traced_run(cfg_path, tmp_path / f"run{i}") for i in range(2)]
    counts = []
    for spans in runs:
        tracing.check_hits(spans, expected_spans(cfg))
        m = tracing.layer_metrics(spans, tracing.evolve_call_ms(spans))
        counts.append({k: m[k] for k in tracing.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["estimators.strings"] > 0 and counts[0]["protocol.record_bytes"] > 0
    if cfg["protocol"]["mode"] == "pulsed":
        assert counts[0]["protocol.grid_steps"] > 0 and counts[0]["protocol.grid_validate_evolves"] > 0
    if cfg["scenario"]["kind"] == "ssh_gs" and cfg["protocol"]["mode"] == "ideal":
        assert counts[0]["statevector.evolve_blend_calls"] == 0
    else:
        assert counts[0]["statevector.coeff_evals"] > 0


def test_missed_prepare_hook_fails_loudly(tmp_path):
    from rmlab import cli

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(WORKLOADS["pulsed_noisy_L8"].make_config(0)))
    # validate never prepares a scenario, so set-up cannot be timed
    with pytest.raises(tracing.MissedHookError):
        measure(cli, ["validate", str(cfg_path)])
    assert cli.prepare_scenario.__module__ == "rmlab.scenarios"


def test_peak_rss_leaves_out_the_spawning_process():
    import numpy as np

    held = np.ones(40_000_000)  # 305 MiB resident in this process
    code = "import sys; sys.path.insert(0, 'rmbench'); from child import peak_rss_mb; print(peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60)
    assert float(out.stdout) < 100 < held.nbytes / 2**20


def test_missed_traced_call_fails_loudly():
    spans = [{"name": "cli.main", "parent": None, "start": 0.0, "end": 1.0}]
    with pytest.raises(tracing.MissedHookError, match="statevector.evolve_blend"):
        tracing.check_hits(spans, {"cli.main", "statevector.evolve_blend"})


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "parent": 0, "start": 5.0, "end": 6.0},
        {"name": "d", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


# A small config with every row kind, fast enough to run in-process.
SMALL = {
    "scenario": {"kind": "ssh_gs", "num_sites": 6, "phase": "topological"},
    "protocol": {"mode": "ideal", "n_unitaries": 30, "n_meas": 200, "n_ave": 2},
    "estimators": {"subsystems": [[1, 2, 3]], "variance": True, "energy": True},
    "seed": 5,
}
SMALL_WORKLOAD = Workload("small", lambda seed: SMALL, purity_bias=0.0, variance_tol=0.5, energy_tol=5.0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from rmlab import cli

    work = tmp_path_factory.mktemp("small")
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(SMALL))
    assert cli.main(["oracle", str(cfg_path), "--out", str(work / "oracle")]) == 0
    assert cli.main(["run", str(cfg_path), "--out", str(work / "run")]) == 0
    oracle = checks.oracle_values((work / "oracle" / "oracle.csv").read_text())
    return work / "run", oracle


def test_correct_run_has_no_failed_rows(small_run):
    run_dir, oracle = small_run
    assert checks.check_first_run(run_dir, SMALL, oracle, SMALL_WORKLOAD) == (0, [])


def test_wrong_oracle_value_fails_its_row(small_run):
    run_dir, oracle = small_run
    key = ("purity", "sites=1,2,3")
    wrong = {**oracle, key: oracle[key] + 2.0}
    failed, messages = checks.check_first_run(run_dir, SMALL, wrong, SMALL_WORKLOAD)
    assert failed == 1 and "sites=1,2,3" in messages[0]
    wrong = {**oracle, ("energy", "model"): oracle[("energy", "model")] + 50.0}
    assert checks.check_first_run(run_dir, SMALL, wrong, SMALL_WORKLOAD)[0] == 1


def test_row_not_reproduced_by_its_records_fails(small_run, tmp_path):
    run_dir, oracle = small_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    csv_path = copy / "results.csv"
    rows = checks.read_rows(csv_path.read_text())
    value = rows[-1]["value"]
    csv_path.write_text(csv_path.read_text().replace(value, repr(float(value) + 1e-6)))
    failed, messages = checks.check_first_run(copy, SMALL, oracle, SMALL_WORKLOAD)
    assert failed == 1 and "reloaded records" in messages[-1]


def test_output_differing_from_first_run_fails_every_row(small_run, tmp_path):
    run_dir, oracle = small_run
    ledger = RowLedger(SMALL, oracle, SMALL_WORKLOAD)
    ledger.add(run_dir)
    ledger.add(run_dir)
    assert (ledger.attempted, ledger.failed) == (6, 0)
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    record = copy / "records" / "rep_001.ndjson"
    record.write_text(record.read_text() + "\n")
    ledger.add(copy)
    ledger.add(None)
    assert (ledger.attempted, ledger.failed) == (12, 6)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "rmbench", tmp_path / "rmbench",
                    ignore=shutil.ignore_patterns("_work", "_cache", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "rmbench/run.py", "--workload", "pulsed_noisy_L8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
