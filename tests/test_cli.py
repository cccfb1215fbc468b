"""End-to-end runner checks on a small configuration."""

import csv
import hashlib
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
    assert rec.num_sites == 4 and rec.n_unitaries == 10

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


def test_run_drops_each_walsh_table_after_its_estimates(tmp_path, monkeypatch):
    # records wait in memory until all are written; their tables need not
    import rmlab.cli as cli

    kept = []
    save = cli.save_record

    def spy(record, path):
        kept.append("_parities" in vars(record))
        return save(record, path)

    monkeypatch.setattr(cli, "save_record", spy)
    assert run_cli("run", _variance_config(tmp_path), "--out", tmp_path / "out") == 0
    assert kept == [False, False]


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


_READOUT = {"p_up_given_down": 0.01, "p_down_given_up": 0.03}

# sha256 of each record file, and of results.csv where given, for four tiny
# runs: a change to how records are built or stored must leave these bytes
# as they are, and one to how they are estimated re-pins results.csv only
# while test_exact_pinned_rows_keep_their_values holds
_PINNED_RUNS = {
    "exact": (
        {"kind": "ssh_gs", "num_sites": 6, "phase": "topological"},
        {"mode": "ideal", "n_unitaries": 6, "n_meas": "exact", "n_ave": 2},
        {"subsystems": [[1, 2]], "variance": True, "energy": True},
        {
            "rep_000.ndjson": "65e6a337a3f7e5a22ccdaae1ae5d6a30beae5b31d84e460cf6b94b349fd5e584",
            "rep_001.ndjson": "1ad7b1a9f15a9726b8c39bbca0ba2663cd65b6f9a1c7d73dc227f2a8652e7c7a",
        },
        "84bb09e7824da8de7993d80081ff1b162a8d3da4d0f3013522ba9ab1c74d329d",
    ),
    "pulsed": (
        {"kind": "af", "num_sites": 4},
        {"mode": "pulsed", "n_unitaries": 3, "n_meas": 20, "n_ave": 1, "eps_percent": 3.0,
         "tol": 1e-4, "readout": _READOUT},
        {"subsystems": [[1, 2]], "energy": True},
        {"rep_000.ndjson": "6545df2a7ba47bcf19d18551bb2bb0f680dd862543a5b1c3bcb3a2092da29e1e"},
        None,
    ),
    "per_shot": (
        {"kind": "af", "num_sites": 4},
        {"mode": "pulsed", "n_unitaries": 3, "n_meas": 20, "n_ave": 1, "eps_percent": 3.0,
         "fluctuation_scope": "per_shot", "tol": 1e-4, "readout": _READOUT},
        {"subsystems": [[1, 2]], "energy": True},
        {"rep_000.ndjson": "82ffbcaea12a7c17d376cea8694dab1117bebdbc70145349f0dda77710f95073"},
        None,
    ),
    "sampled": (
        {"kind": "ssh_gs", "num_sites": 6, "phase": "topological"},
        {"mode": "ideal", "n_unitaries": 6, "n_meas": 40, "n_ave": 2, "readout": _READOUT},
        {"subsystems": [[1, 2]], "energy": True},
        {
            "rep_000.ndjson": "ba1169a32158a54a0ac1b2631898bddbb5205006069df51ef2c62c671f26c84f",
            "rep_001.ndjson": "64757a91e4f6a012b84ff2727f1234119097c53a4a8623842c8b030ea5cc6f00",
        },
        None,
    ),
}


def _run_pinned(tmp_path, kind):
    scenario, protocol, estimators, _, _ = _PINNED_RUNS[kind]
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps({
        "scenario": scenario, "protocol": protocol, "estimators": estimators, "seed": 3,
    }))
    out = tmp_path / "run"
    assert run_cli("run", cfg, "--out", out) == 0
    return out


@pytest.mark.parametrize("kind", sorted(_PINNED_RUNS))
def test_outputs_match_pinned_digests(tmp_path, kind):
    _, _, _, records, results = _PINNED_RUNS[kind]
    out = _run_pinned(tmp_path, kind)
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()  # noqa: E731
    assert {p.name: digest(p) for p in sorted((out / "records").iterdir())} == records
    if results is not None:
        assert digest(out / "results.csv") == results


# (value, std) of each results.csv row of the exact pinned run as the
# one-entry-at-a-time estimators wrote them; summing a whole record's exact
# probabilities in another order may move them only at roundoff
_EXACT_PINNED_ROWS = {
    "purity": (0.6821086849857902, 0.07836119076742135),
    "energy": (-15.48968477918283, 2.3691178975313885),
    "variance": (-0.2561638059866813, 0.04696489053892726),
}


def test_exact_pinned_rows_keep_their_values(tmp_path):
    with open(_run_pinned(tmp_path, "exact") / "results.csv") as fh:
        rows = {row["quantity"]: (float(row["value"]), float(row["std"])) for row in csv.DictReader(fh)}
    assert rows.keys() == _EXACT_PINNED_ROWS.keys()
    for quantity, want in _EXACT_PINNED_ROWS.items():
        for got, expected in zip(rows[quantity], want):
            assert abs(got - expected) <= 1e-13 * abs(expected), quantity


_TINY_RUNS = {
    # the probe certifies 300 steps once per run against 600, then each
    # repetition evolves its block once on 300: the golden schedule's
    # constant cells fuse into 153 and 303 exponentials, the longest of
    # them past the step budget and so Chebyshev series
    "pulsed": (
        {"kind": "af", "num_sites": 4},
        {"mode": "pulsed", "n_unitaries": 3, "n_meas": 20, "n_ave": 2, "eps_percent": 3.0, "tol": 1e-4},
        {"exponentials": (153 + 303) + 2 * 153, "series_terms": 3777},
    ),
    # the same grid with 11 sigma-point columns per unitary: one block per
    # repetition, not one integration per shot
    "per_shot": (
        {"kind": "af", "num_sites": 4},
        {"mode": "pulsed", "n_unitaries": 3, "n_meas": 20, "n_ave": 2, "eps_percent": 3.0,
         "fluctuation_scope": "per_shot", "tol": 1e-4},
        {"exponentials": (153 + 303) + 2 * 153, "series_terms": 3848},
    ),
    # the sweep's refinement, once per run; ideal repetitions integrate nothing
    "adiabatic": (
        {"kind": "adiabatic", "num_sites": 6, "t_prep": 0.05},
        {"mode": "ideal", "n_unitaries": 3, "n_meas": 20, "n_ave": 2},
        {"exponentials": 460, "series_terms": 1742},
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


@pytest.mark.parametrize("n_meas", ["exact", 50])
def test_per_shot_run_writes_finite_rows(tmp_path, n_meas):
    cfg = tmp_path / "per_shot.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": "af", "num_sites": 4},
        "protocol": {
            "mode": "pulsed", "n_unitaries": 3, "n_meas": n_meas, "n_ave": 1,
            "eps_percent": 3.0, "fluctuation_scope": "per_shot",
            "readout": {"p_up_given_down": 0.01, "p_down_given_up": 0.03}, "tol": 1e-4,
        },
        "estimators": {"subsystems": [[1, 2]], "energy": True},
    }))
    out = tmp_path / "run"
    assert run_cli("run", cfg, "--out", out) == 0
    with open(out / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["quantity"] for r in rows] == ["purity", "energy"]
    assert all(np.isfinite(float(r["value"])) for r in rows)
    header = json.loads((out / "records" / "rep_000.ndjson").read_text().splitlines()[0])
    assert header["meta"]["scope"] == "per_shot"
    assert header["meta"]["mixture_clipped"] == 0.0


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


def test_pulsed_run_certifies_its_grid_once(tmp_path, monkeypatch):
    import rmlab.protocol as protocol

    steps, budgets = [], []
    evolve = protocol.evolve_blend

    def counted(*args, **kwargs):
        steps.append(kwargs["initial_steps"])
        budgets.append(kwargs["budget"])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(protocol, "evolve_blend", counted)
    cfg = tmp_path / "pulsed.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": "af", "num_sites": 4},
        "protocol": {"mode": "pulsed", "n_unitaries": 3, "n_meas": 10, "n_ave": 3,
                     "eps_percent": 3.0, "tol": 1e-4},
        "estimators": {"subsystems": [[1, 2]]},
    }))
    grids = []
    for seed in (1, 2):
        out = tmp_path / f"out{seed}"
        assert run_cli("run", cfg, "--out", out, "--seed", seed) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert sorted(meta["stages_s"]) == ["certify", "prepare", "repetitions", "write"]
        grids.append(meta["grid"])
        for rec in sorted((out / "records").iterdir()):
            assert load_record(rec).meta["steps"] == meta["grid"]["steps"]
    # the probe at 300 and 600 steps, then one block per repetition
    assert steps == 2 * [300, 600, 300, 300, 300]
    # the probe draws nothing from the seed
    assert grids[0] == grids[1] and grids[0]["steps"] == 300
    assert 0.0 < grids[0]["probe_distance"] <= 193 / 256 * 1e-4 / 2
    # (1e-4 / 2) / 16 over 2 m exponentials is above the norm drift's cap,
    # 1e-9 / (0.08 m): the probe on m steps and every block on 300 stop
    # their series there, and the grid says so
    b300, b600 = 1e-9 / (0.08 * 300), 1e-9 / (0.08 * 600)
    assert grids[0]["budget"] == pytest.approx(b300)
    assert budgets == pytest.approx(2 * [b300, b600, b300, b300, b300])


def test_pulsed_run_builds_its_drive_operators_once(tmp_path, monkeypatch):
    import rmlab.protocol as protocol

    builds = []
    x_total = protocol.x_total

    def counted(num_sites):
        builds.append(num_sites)
        return x_total(num_sites)

    monkeypatch.setattr(protocol, "x_total", counted)
    cfg = tmp_path / "pulsed.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": "af", "num_sites": 4},
        "protocol": {"mode": "pulsed", "n_unitaries": 2, "n_meas": 10, "n_ave": 3, "tol": 1e-3},
        "estimators": {"subsystems": [[1, 2]]},
    }))
    assert run_cli("run", cfg, "--out", tmp_path / "out") == 0
    # shared by the probe and the three repetitions
    assert builds == [4]


@pytest.mark.parametrize("threads, n_ave, pools", [(8, 2, [2]), (2, 3, [2]), (8, 1, []), (1, 3, [])])
def test_workers_never_outnumber_repetitions(tmp_path, monkeypatch, threads, n_ave, pools):
    # a stand-in pool that maps in this process, so no worker is started
    import rmlab.cli as cli

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    cfg = _smoke_variant(tmp_path, n_ave=n_ave)
    assert run_cli("run", cfg, "--out", tmp_path / "run", "--threads", threads) == 0
    assert started == pools


@pytest.mark.parametrize("change, flags, message", [
    ({"seed": -5}, (), "seed: must be a non-negative integer"),
    ({}, ("--seed", -1), "seed: must be a non-negative integer"),
    ({"estimators": {"subsystems": [[]]}}, (), "estimators.subsystems[0]: empty subsystem"),
    # run would give both one results.csv row, oracle one row each
    ({"estimators": {"subsystems": [[1, 2], [1, 2]]}}, (), "estimators.subsystems[1]: repeats subsystems[0]"),
])
def test_validate_rejects_what_the_run_cannot_do(tmp_path, capsys, change, flags, message):
    doc = config_to_dict(load_config(SMOKE)) | change
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    commands = [("run", cfg, "--out", tmp_path / "run", *flags)]
    if not flags:  # validate takes no --seed
        commands.append(("validate", cfg))
    for argv in commands:
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


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


def test_calibrate_golden_fidelities_are_frozen(tmp_path):
    # the per-segment propagator loop gave these; the vectorised one
    # reorders the 2x2 products, which moves them at roundoff only
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--schedule", "golden", "--mc-draws", 0, "--out", out) == 0
    report = json.loads((out / "calibration_report.json").read_text())
    frozen = (0.9963399028429184, 0.9954403748790581, 0.9954407739517812)
    assert np.max(np.abs(np.subtract(report["noiseless_fidelities"], frozen))) < 1e-12


def test_calibrate_mc_report_quotes_half_means(tmp_path):
    out = tmp_path / "cal"
    run_cli("calibrate", "--schedule", "golden", "--mc-draws", 4000,
            "--eps-percent", 3.0, "--out", out)
    report = json.loads((out / "calibration_report.json").read_text())
    means = report["mc"]["half_means"]
    for m, target in zip(means, (0.55, 0.56, 0.58)):
        assert abs(m - target) < 0.05
