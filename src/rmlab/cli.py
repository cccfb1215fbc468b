"""Config-driven experiment runner.

Subcommands: run (full pipeline to CSV + measurement records), oracle
(exact statevector reference for the same config), calibrate (pulse
search plus noise report), validate (check a config and exit).

Repetitions are independent: repetition r runs under the seed that
``_rep_seed`` derives as ``SeedSequence([master, r])``, the package's only
repetition-seed scheme, so results do not depend on the thread count,
only on the config and seed. What every repetition shares (the prepared
scenario, the pulse schedule, its drive operators and certified step
count, and, when the variance is requested, H^2) is built once per run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    ProtocolConfig,
    config_hash,
    config_to_dict,
    load_config,
    shipped_config_names,
    validate,
)
from .estimators import (
    RESULT_COLUMNS,
    hamiltonian_variance,
    observable_expectation,
    purity_estimate,
    results_to_csv,
)
from .pauli import ROTATION_ORDER, TWO_PI, square_observable
from .protocol import (
    _RECORD_VERSION,
    BIT_CONVENTION,
    MeasurementRecord,
    _certify_grid,
    _drive_operators,
    run_ideal,
    run_pulsed,
    sample_unitaries,
    save_record,
)
from .pulses import (
    FluctuationModel,
    RealisticParams,
    axis_fidelity,
    calibrate,
    golden_schedule,
    mc_rotation_stats,
    realistic_schedule,
    schedule_to_json,
    single_qubit_propagator,
)
from .scenarios import PreparedScenario, prepare_scenario
from .statevector import _INTEGRATOR_COUNTS, exact_purity, expectation


def _sites_label(sites) -> str:
    return "sites=" + ",".join(str(s) for s in sites)


def _result_row(
    cfg: ExperimentConfig, quantity: str, target: str, value: float, std: float = 0.0
) -> dict:
    """One row of results.csv or oracle.csv, in ``RESULT_COLUMNS`` order."""
    prot = cfg.protocol
    values = (quantity, target, cfg.scenario.num_sites, prot.n_unitaries, prot.n_meas,
              prot.eps_percent, prot.mode, value, std, cfg.seed)
    return dict(zip(RESULT_COLUMNS, values, strict=True))


def _rep_seed(master: int, rep: int) -> int:
    return int(np.random.SeedSequence([master, rep]).generate_state(1)[0])


def _integrator_since(start: dict[str, int]) -> dict[str, int]:
    """Integrator work this process has done since the ``start`` counts."""
    return {key: count - start[key] for key, count in _INTEGRATOR_COUNTS.items()}


def _one_repetition(args) -> tuple[int, dict[str, float], MeasurementRecord, dict[str, int]]:
    """One repetition's estimates and record, and the integrator work it did
    (its own difference, so a worker process reports only its share)."""
    cfg, scen, schedule, grid, drive, h_squared, rep = args
    start = dict(_INTEGRATOR_COUNTS)
    prot = cfg.protocol
    seed = _rep_seed(cfg.seed, rep)
    rng = np.random.default_rng(seed)
    labels = sample_unitaries(cfg.scenario.num_sites, prot.n_unitaries, rng)
    if prot.mode == "ideal":
        record = run_ideal(scen.state, labels, prot.n_meas, readout=prot.readout, seed=seed)
    else:
        fluct = FluctuationModel(prot.eps_percent, prot.fluctuation_scope)
        steps, budget, _ = grid
        record = run_pulsed(
            scen.state,
            labels,
            schedule,
            steps,
            budget,
            drive,
            fluct=fluct,
            n_meas=prot.n_meas,
            readout=prot.readout,
            seed=seed,
        )
    values: dict[str, float] = {}
    for sites in cfg.targets.subsystems:
        values[f"purity:{_sites_label(sites)}"] = purity_estimate(record, sites).value
    if cfg.targets.energy:
        values["energy:model"] = observable_expectation(record, scen.hamiltonian)
    if cfg.targets.variance:
        values["variance:model"] = hamiltonian_variance(
            record, scen.hamiltonian, h_squared=h_squared
        ).value
    # the record is kept until written; its Walsh table is not needed again
    vars(record).pop("_parities", None)
    return rep, values, record, _integrator_since(start)


def cmd_run(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Run every repetition, then write records, results.csv and run_meta.json.

    The scenario, the pulse schedule, its drive operators, its step count
    and series budget (certified once by ``protocol._certify_grid``) and
    H^2 (only when the variance is requested) are shared by all
    repetitions, which run in min(threads, n_ave) worker processes, or in
    this one. run_meta.json records the record format version, the wall
    time of each stage: prepare (the other shared inputs), certify (pulsed
    runs), repetitions, and write (records and results.csv), a pulsed
    run's ``grid`` (steps, the probe's n vs 2n distance and the
    per-exponential truncation budget), and the integrator's exponentials
    and series terms summed over the run, whatever the thread count.
    Records under ``records/`` that this run did not write, left by an
    earlier run with more repetitions, are deleted.
    """
    start = time.perf_counter()
    start_counts = dict(_INTEGRATOR_COUNTS)
    scen = prepare_scenario(cfg.scenario)
    prot = cfg.protocol
    schedule = drive = None
    if prot.mode == "pulsed":
        schedule = golden_schedule()
        drive = _drive_operators(scen.state.num_sites, scen.hamiltonian)
    h_squared = square_observable(scen.hamiltonian) if cfg.targets.variance else None
    prepared = time.perf_counter()
    grid = None
    if schedule is not None:
        grid = _certify_grid(scen.state, schedule, drive, prot.tol)
    certified = time.perf_counter()
    integrator = _integrator_since(start_counts)
    work = [(cfg, scen, schedule, grid, drive, h_squared, rep) for rep in range(prot.n_ave)]
    workers = min(threads, prot.n_ave)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_one_repetition, work))
    else:
        done = [_one_repetition(w) for w in work]
    done.sort(key=lambda item: item[0])
    repeated = time.perf_counter()
    for *_, counts in done:
        for key, count in counts.items():
            integrator[key] += count

    out_dir.mkdir(parents=True, exist_ok=True)
    records_dir = out_dir / "records"
    records_dir.mkdir(exist_ok=True)
    written = set()
    for rep, _, record, _ in done:
        path = records_dir / f"rep_{rep:03d}.ndjson"
        save_record(record, path)
        written.add(path)
    # records of an earlier run into the same directory would pass for this run's
    for stale in set(records_dir.glob("rep_*.ndjson")) - written:
        stale.unlink()

    rows = []
    keys = list(done[0][1].keys())
    for key in keys:
        series = np.array([values[key] for _, values, *_ in done])
        std = float(series.std(ddof=1)) if len(series) > 1 else 0.0
        rows.append(_result_row(cfg, *key.split(":", 1), float(series.mean()), std))
    (out_dir / "results.csv").write_text(results_to_csv(rows))
    stages_s = {
        "prepare": prepared - start,
        "repetitions": repeated - certified,
        "write": time.perf_counter() - repeated,
    }
    extra = {
        "descriptor": scen.descriptor,
        "integrator": integrator,
        "record_version": _RECORD_VERSION,
        "stages_s": stages_s,
    }
    if schedule is not None:
        stages_s["certify"] = certified - prepared
        steps, budget, distance = grid
        extra["grid"] = {"steps": steps, "probe_distance": distance, "budget": budget}
    _write_meta(cfg, out_dir, extra=extra)
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} rows, {prot.n_ave} repetitions)")
    return 0


def cmd_oracle(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Exact reference values for the configured scenario, no sampling."""
    scen = prepare_scenario(cfg.scenario)
    # an oracle row: no unitaries, exact probabilities, no noise
    exact = replace(cfg, protocol=ProtocolConfig(mode="oracle", n_unitaries=0))
    rows = []
    for sites in cfg.targets.subsystems:
        rows.append(_result_row(exact, "purity", _sites_label(sites), exact_purity(scen.state, sites)))
    if cfg.targets.energy:
        rows.append(_result_row(exact, "energy", "model", expectation(scen.state, scen.hamiltonian)))
    if cfg.targets.variance:
        h = scen.hamiltonian
        eh = expectation(scen.state, h)
        eh2 = expectation(scen.state, square_observable(h))
        rows.append(_result_row(exact, "variance", "model", (eh2 - eh * eh) / eh2))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "oracle.csv").write_text(results_to_csv(rows))
    _write_meta(cfg, out_dir, extra={"descriptor": scen.descriptor}, name="oracle_meta.json")
    print(f"wrote {out_dir / 'oracle.csv'} ({len(rows)} rows)")
    return 0


def cmd_calibrate(args) -> int:
    out = Path(args.out)
    if args.schedule == "golden":
        schedule = golden_schedule()
        source = "shipped golden schedule"
    else:
        result = calibrate(
            start=RealisticParams(),
            objective=args.objective,
            fidelity_floor=args.floor,
            stats_targets=(0.53, 0.57, 0.55) if args.objective == "stats" else None,
            maxiter=args.maxiter,
        )
        schedule = realistic_schedule(result.params)
        source = f"calibrated ({result.n_evaluations} evaluations)"
    fids = [axis_fidelity(single_qubit_propagator(schedule, a), a) for a in (1, 2, 3)]
    report = {
        "source": source,
        "noiseless_fidelities": fids,
        "fidelity_floor": args.floor,
        "floor_satisfied": bool(min(fids) >= args.floor),
    }
    if args.mc_draws > 0:
        rng = np.random.default_rng(args.seed)
        stats = mc_rotation_stats(schedule, args.eps_percent, args.mc_draws, rng)
        report["mc"] = {
            "eps_percent": args.eps_percent,
            "n_draws": args.mc_draws,
            "half_means": list(stats.half_means),
            "half_stds": list(stats.half_stds),
        }
    out.mkdir(parents=True, exist_ok=True)
    (out / "schedule.json").write_text(schedule_to_json(schedule))
    (out / "calibration_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'schedule.json'}")
    print(f"fidelities: {', '.join(f'{f:.5f}' for f in fids)} (floor {args.floor})")
    if "mc" in report:
        means = ", ".join(f"{m:.4f}" for m in report["mc"]["half_means"])
        print(f"A_a/2 means at eps={args.eps_percent}%: {means}")
    return 0 if report["floor_satisfied"] else 1


def _write_meta(cfg: ExperimentConfig, out_dir: Path, extra: dict, name: str = "run_meta.json") -> None:
    meta = {
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "bit_convention": BIT_CONVENTION,
        "rotation_order": ROTATION_ORDER,
        "seed": cfg.seed,
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    meta.update(extra)
    (out_dir / name).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="randomized-measurement toolbox for an interacting chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a config end to end")
    run_p.add_argument("config", help="path to a JSON config, or a shipped name: "
                       + ", ".join(shipped_config_names()))
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the config output directory")
    run_p.add_argument("--threads", type=int, default=1)
    run_p.add_argument("--allow-large", action="store_true",
                       help="lift the N_U*N_meas shot budget")

    orc_p = sub.add_parser("oracle", help="exact reference values for a config")
    orc_p.add_argument("config")
    orc_p.add_argument("--seed", type=int, default=None)
    orc_p.add_argument("--out", default=None)

    val_p = sub.add_parser("validate", help="check a config, print all violations")
    val_p.add_argument("config")
    val_p.add_argument("--allow-large", action="store_true")

    cal_p = sub.add_parser("calibrate", help="pulse calibration and noise report")
    cal_p.add_argument("--schedule", choices=["golden", "search"], default="golden",
                       help="use the shipped schedule or search from scratch")
    cal_p.add_argument("--objective", choices=["fidelity", "stats"], default="fidelity")
    cal_p.add_argument("--floor", type=float, default=0.995)
    cal_p.add_argument("--maxiter", type=int, default=4000)
    cal_p.add_argument("--mc-draws", type=int, default=20_000)
    cal_p.add_argument("--eps-percent", type=float, default=3.0)
    cal_p.add_argument("--seed", type=int, default=7)
    cal_p.add_argument("--out", default="calibration")

    args = parser.parse_args(argv)

    if args.command == "calibrate":
        return cmd_calibrate(args)

    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        for line in e.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 1

    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out=args.out)

    allow_large = getattr(args, "allow_large", False)
    errs, warns = validate(cfg, allow_large=allow_large)
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    if errs:
        for line in errs:
            print(f"config error: {line}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: {config_hash(cfg)}")
        return 0
    out_dir = Path(cfg.out)
    if args.command == "oracle":
        return cmd_oracle(cfg, out_dir)
    return cmd_run(cfg, out_dir, max(1, args.threads))


if __name__ == "__main__":
    raise SystemExit(main())
