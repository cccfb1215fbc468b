"""The benchmark's workloads: one config generator per name, keyed by the seed.

Each workload stresses a different layer of rmlab, so that an optimisation
of one layer shows on one workload and is predicted to leave the others
unchanged:

- pulsed_noisy_L8: per-unitary pulse integration (protocol.run_pulsed ->
  statevector.evolve_blend) is almost all of the run; the Pauli build,
  ground state and estimators do little.
- adiabatic_prep_L8: one long tolerance-driven sweep with step-doubling
  refinement inside scenarios.prepare_adiabatic, then ideal rotations;
  no per-unitary evolution.
- dimer_exact_L10: no time evolution at all. The sparse Pauli build and
  the dense ground state dominate set-up; exact-probability records
  exercise record writes and the probability-based estimators.

The seed argument becomes the config seed, which keys every sampled
quantity (labels, pulse gains, shots, readout flips). The cost of a run
does not depend on it: at the pulsed tolerance below, the time grid
validates at its starting step count for every label set, so the step
count is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], dict]
    # Share of the exact purity by which the estimate may sit off on top of
    # Z_BOUND standard errors: a bias the workload has by design, because
    # the estimator does not mitigate readout flips or pulse errors.
    purity_bias: float
    # Allowed |estimate - oracle| for the normalized variance and energy.
    variance_tol: float
    energy_tol: float


def _pulsed_noisy_L8(seed: int) -> dict:
    # noisy_pipeline_L8 cut to N_U = 10, n_ave = 2. n_ave = 2 makes the
    # per-repetition grid re-validation show. tol = 1e-4 keeps the
    # amplitude error two orders below the shot noise of N_meas = 400 and
    # makes the grid validate at its first try for every label set.
    return {
        "scenario": {"kind": "ssh_gs", "num_sites": 8, "phase": "topological"},
        "protocol": {
            "mode": "pulsed",
            "n_unitaries": 10,
            "n_meas": 400,
            "n_ave": 2,
            "eps_percent": 3.0,
            "fluctuation_scope": "per_unitary",
            "readout": {"p_up_given_down": 0.01, "p_down_given_up": 0.03},
            "tol": 1e-4,
        },
        "estimators": {"subsystems": [[1, 2, 3, 4], [1, 2, 3, 4, 5]], "variance": True},
        "seed": seed,
    }


def _adiabatic_prep_L8(seed: int) -> dict:
    # adiabatic_trend_L8 with n_ave = 2 and a short sweep: t_prep = 0.1 us
    # keeps one run near five seconds (t_prep = 10 takes minutes). Energy
    # replaces the variance: after a short sweep the state is still close
    # to all-down, which H annihilates, so <H^2> is below its shot noise
    # and hamiltonian_variance raises NormalizationError for many seeds.
    return {
        "scenario": {
            "kind": "adiabatic",
            "num_sites": 8,
            "phase": "topological",
            "t_prep": 0.1,
            "ramp": "linear",
        },
        "protocol": {"mode": "ideal", "n_unitaries": 100, "n_meas": 400, "n_ave": 2},
        "estimators": {"subsystems": [[1, 2, 3, 4], [1, 2, 3, 4, 5]], "energy": True},
        "seed": seed,
    }


def _dimer_exact_L10(seed: int) -> dict:
    # dimer_purity at L = 10 with exact probabilities, variance and energy.
    # L = 12 takes about a minute per run, too long to repeat in one run.
    return {
        "scenario": {"kind": "ssh_gs", "num_sites": 10, "phase": "topological"},
        "protocol": {"mode": "ideal", "n_unitaries": 100, "n_meas": "exact", "n_ave": 2},
        "estimators": {
            "subsystems": [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6]],
            "variance": True,
            "energy": True,
        },
        "seed": seed,
    }


# Row tolerances come from runs over 13 (adiabatic), 12 (dimer) and 33
# (pulsed) seeds: the largest |estimate - oracle| seen used at most 0.6 of
# its allowance. The pulsed rows are loose by design, with ten unitaries
# per repetition and unmitigated readout flips and pulse errors; byte-exact
# determinism and re-estimation are its strict checks.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pulsed_noisy_L8",
            make_config=_pulsed_noisy_L8,
            purity_bias=0.8,
            variance_tol=0.75,
            energy_tol=0.0,
        ),
        Workload(
            name="adiabatic_prep_L8",
            make_config=_adiabatic_prep_L8,
            purity_bias=0.0,
            variance_tol=0.0,
            energy_tol=3.0,
        ),
        Workload(
            name="dimer_exact_L10",
            make_config=_dimer_exact_L10,
            purity_bias=0.0,
            variance_tol=0.25,
            energy_tol=5.0,
        ),
    )
}


def expected_spans(cfg: dict) -> set[str]:
    """Traced calls a run of this config must make; a miss is an error."""
    prot, est = cfg["protocol"], cfg["estimators"]
    names = {
        "cli.main",
        "cli.cmd_run",
        "config.load_config",
        "config.parse_config",
        "config.validate",
        "scenarios.prepare_scenario",
        "scenarios.model_hamiltonian",
        "pauli.PauliStringSum.to_sparse",
        "protocol.sample_unitaries",
        "protocol.save_record",
        "estimators.results_to_csv",
    }
    if cfg["scenario"]["kind"] == "ssh_gs":
        names |= {"scenarios.prepare_exact_gs", "statevector.ground_state"}
    elif cfg["scenario"]["kind"] == "adiabatic":
        names |= {"scenarios.prepare_adiabatic", "statevector.evolve_blend"}
    if prot["mode"] == "pulsed":
        names |= {
            "protocol.run_pulsed",
            "statevector.evolve_blend",
            "pulses.golden_schedule",
            "pulses.perturb",
        }
    else:
        names |= {"protocol.run_ideal", "statevector.apply_local_unitaries"}
    if prot["n_meas"] != "exact":
        names.add("statevector.sample_basis_indices")
    if est.get("subsystems"):
        names.add("estimators.purity_estimate")
    if est.get("variance"):
        names |= {
            "estimators.hamiltonian_variance",
            "estimators.observable_expectation",
            "pauli.square_observable",
        }
    if est.get("energy"):
        names.add("estimators.observable_expectation")
    return names
