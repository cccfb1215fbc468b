"""End-to-end runner checks on a small configuration."""

import csv
import json

import numpy as np
import pytest
import scipy

from rmlab.cli import main
from rmlab.config import config_hash, config_to_dict, load_config
from rmlab.pauli import ROTATION_ORDER
from rmlab.protocol import BIT_CONVENTION, load_record

SMOKE = "smoke_ideal_L4"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_produces_csv_records_and_meta(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", SMOKE, "--out", out) == 0

    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "quantity,target,L,N_U,N_meas,eps_percent,mode,value,std,seed"
    assert len(csv_lines) == 3  # one purity target + energy

    records = sorted((out / "records").iterdir())
    assert [p.name for p in records] == ["rep_000.ndjson", "rep_001.ndjson"]
    rec = load_record(records[0])
    assert rec.num_sites == 4 and len(rec.entries) == 10

    meta = json.loads((out / "run_meta.json").read_text())
    cfg = load_config(SMOKE)
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["bit_convention"] == BIT_CONVENTION
    assert meta["rotation_order"] == ROTATION_ORDER
    assert meta["seed"] == cfg.seed
    assert meta["descriptor"] == "af"
    assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run", SMOKE, "--out", a)
    run_cli("run", SMOKE, "--out", b)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_thread_count_does_not_change_results(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run", SMOKE, "--out", a)
    run_cli("run", SMOKE, "--out", b, "--threads", 2)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    for name in ("rep_000.ndjson", "rep_001.ndjson"):
        assert (a / "records" / name).read_bytes() == (b / "records" / name).read_bytes()


def _smoke_variant(tmp_path, **protocol):
    """smoke_ideal_L4 with protocol fields replaced, as a config file."""
    doc = config_to_dict(load_config(SMOKE))
    doc["protocol"].update(protocol)
    path = tmp_path / ("smoke_" + "_".join(f"{k}{v}" for k, v in protocol.items()) + ".json")
    path.write_text(json.dumps(doc))
    return path


def test_rerun_with_fewer_repetitions_leaves_no_stale_records(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", _smoke_variant(tmp_path, n_ave=3), "--out", out) == 0
    assert run_cli("run", _smoke_variant(tmp_path, n_ave=2), "--out", out) == 0
    records = sorted(p.name for p in (out / "records").iterdir())
    assert records == ["rep_000.ndjson", "rep_001.ndjson"]


def test_single_shot_purity_run_is_a_config_error(tmp_path, capsys):
    # the purity correction needs two shots; validate rejects the run
    # before it starts instead of the estimator failing in repetition 0
    out = tmp_path / "run"
    assert run_cli("run", _smoke_variant(tmp_path, n_meas=1), "--out", out) == 1
    err = capsys.readouterr().err
    assert "config error: protocol.n_meas:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_seed_override_changes_results(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run", SMOKE, "--out", a)
    run_cli("run", SMOKE, "--out", b, "--seed", 99)
    assert (a / "results.csv").read_text() != (b / "results.csv").read_text()
    meta = json.loads((b / "run_meta.json").read_text())
    assert meta["seed"] == 99


def _variance_config(tmp_path, n_meas="exact", variance=True):
    cfg = tmp_path / "variance.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": "ssh_gs", "num_sites": 6, "phase": "topological"},
        "protocol": {"mode": "ideal", "n_unitaries": 8, "n_meas": n_meas, "n_ave": 2},
        "estimators": {"subsystems": [[1, 2]], "variance": variance, "energy": True},
        "seed": 5,
    }))
    return cfg


@pytest.mark.parametrize("variance, builds", [(True, 1), (False, 0)])
def test_run_squares_the_hamiltonian_once(tmp_path, monkeypatch, variance, builds):
    import rmlab.cli as cli
    import rmlab.estimators as estimators

    calls = {"square": 0, "in_prepare": 0}
    square, prepare = cli.square_observable, cli.prepare_scenario

    def counted_square(obs):
        calls["square"] += 1
        return square(obs)

    def counted_prepare(*args, **kwargs):
        before = calls["square"]
        scen = prepare(*args, **kwargs)
        calls["in_prepare"] += calls["square"] - before
        return scen

    monkeypatch.setattr(cli, "square_observable", counted_square)
    monkeypatch.setattr(estimators, "square_observable", counted_square)
    monkeypatch.setattr(cli, "prepare_scenario", counted_prepare)
    cfg = _variance_config(tmp_path, variance=variance)
    assert run_cli("run", cfg, "--out", tmp_path / "out") == 0
    assert calls == {"square": builds, "in_prepare": 0}


def test_variance_run_does_not_depend_on_thread_count(tmp_path):
    cfg = _variance_config(tmp_path, n_meas=200)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", cfg, "--out", a) == 0
    assert run_cli("run", cfg, "--out", b, "--threads", 2) == 0
    assert "variance,model" in (a / "results.csv").read_text()
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    for name in ("rep_000.ndjson", "rep_001.ndjson"):
        assert (a / "records" / name).read_bytes() == (b / "records" / name).read_bytes()


def test_run_meta_reports_record_version_and_stage_times(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", SMOKE, "--out", out) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["record_version"] == 2
    assert json.loads((out / "records" / "rep_000.ndjson").read_text().splitlines()[0])["version"] == 2
    assert sorted(meta["stages_s"]) == ["prepare", "repetitions", "write"]
    assert all(isinstance(t, float) and t >= 0.0 for t in meta["stages_s"].values())


_TINY_RUNS = {
    # per repetition, a 300-step block and the 600-step grid check: the
    # golden schedule's constant cells fuse into 153 and 303 exponentials,
    # the longest of them past the step budget and so Chebyshev series
    "pulsed": (
        {"kind": "af", "num_sites": 4},
        {"mode": "pulsed", "n_unitaries": 3, "n_meas": 20, "n_ave": 2, "eps_percent": 3.0, "tol": 1e-4},
        {"exponentials": 2 * (153 + 303), "series_terms": 7750},
    ),
    # the sweep's refinement, once per run; ideal repetitions integrate nothing
    "adiabatic": (
        {"kind": "adiabatic", "num_sites": 6, "t_prep": 0.05},
        {"mode": "ideal", "n_unitaries": 3, "n_meas": 20, "n_ave": 2},
        {"exponentials": 460, "series_terms": 2584},
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", sorted(_TINY_RUNS))
def test_run_meta_counts_integrator_work_over_the_run(tmp_path, kind, threads):
    scenario, protocol, counts = _TINY_RUNS[kind]
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps({
        "scenario": scenario, "protocol": protocol,
        "estimators": {"subsystems": [[1, 2]]}, "seed": 3,
    }))
    out = tmp_path / "run"
    assert run_cli("run", cfg, "--out", out, "--threads", threads) == 0
    assert json.loads((out / "run_meta.json").read_text())["integrator"] == counts


def test_pulsed_run_loads_the_schedule_once(tmp_path, monkeypatch):
    import rmlab.cli as cli
    import rmlab.config as config
    import rmlab.pulses as pulses

    calls = {"load": 0, "parse": 0, "validate": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "golden_schedule", counted("load", cli.golden_schedule))
    monkeypatch.setattr(pulses, "schedule_from_json", counted("parse", pulses.schedule_from_json))
    validate = counted("validate", config.validate)
    monkeypatch.setattr(cli, "validate", validate)
    monkeypatch.setattr(config, "validate", validate)
    cfg = tmp_path / "pulsed.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": "af", "num_sites": 4},
        "protocol": {"mode": "pulsed", "n_unitaries": 2, "n_meas": 10, "n_ave": 3, "tol": 1e-3},
        "estimators": {"subsystems": [[1, 2]]},
    }))
    assert run_cli("run", cfg, "--out", tmp_path / "out") == 0
    # one load for the runner, one for validate's interaction-phase warning
    assert calls == {"load": 1, "parse": 2, "validate": 1}


def test_oracle_reports_exact_values(tmp_path):
    out = tmp_path / "oracle"
    assert run_cli("oracle", SMOKE, "--out", out) == 0
    with open(out / "oracle.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    # AF is a product state: purity exactly 1; hopping has zero diagonal
    assert rows[0]["quantity"] == "purity" and float(rows[0]["value"]) == 1.0
    assert rows[1]["quantity"] == "energy" and abs(float(rows[1]["value"])) < 1e-12
    assert rows[0]["N_meas"] == "exact" and rows[0]["mode"] == "oracle"
    meta = json.loads((out / "oracle_meta.json").read_text())
    assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__


def test_validate_prints_hash(capsys):
    assert run_cli("validate", SMOKE) == 0
    out = capsys.readouterr().out
    assert out.strip() == f"ok: {config_hash(load_config(SMOKE))}"


def test_validate_rejects_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "scenario": {"kind": "af", "num_sites": 4},
        "estimators": {"subsystems": [[1, 9]], "unknown": 1},
    }))
    assert run_cli("validate", p) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "unknown key" in err


def test_budget_gate_and_allow_large(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({
        "scenario": {"kind": "af", "num_sites": 4},
        "protocol": {"n_unitaries": 300, "n_meas": 400},
        "estimators": {"subsystems": [[1, 2]]},
    }))
    assert run_cli("validate", p) == 1
    assert "shot budget" in capsys.readouterr().err
    assert run_cli("validate", p, "--allow-large") == 0


def test_run_rejects_unknown_config(capsys):
    assert run_cli("run", "missing_config") == 1
    assert "config error" in capsys.readouterr().err


def test_calibrate_golden_report(tmp_path, capsys):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--schedule", "golden", "--mc-draws", 0, "--out", out) == 0
    report = json.loads((out / "calibration_report.json").read_text())
    assert report["floor_satisfied"] is True
    assert min(report["noiseless_fidelities"]) >= 0.995
    assert "mc" not in report  # --mc-draws 0 keeps the report noiseless-only
    assert (out / "schedule.json").exists()


def test_calibrate_mc_report_quotes_half_means(tmp_path):
    out = tmp_path / "cal"
    run_cli("calibrate", "--schedule", "golden", "--mc-draws", 4000,
            "--eps-percent", 3.0, "--out", out)
    report = json.loads((out / "calibration_report.json").read_text())
    means = report["mc"]["half_means"]
    for m, target in zip(means, (0.55, 0.56, 0.58)):
        assert abs(m - target) < 0.05
