"""Prepared states and dynamics scenarios for the measurement toolbox.

The workhorse model is a dimerized flip-flop chain with alternating
couplings (J_e, J_o) = 2pi (0.484, -0.18) rad/us, a weak long-range leak
J_nnn = 2pi 0.04 on (x, x+3) pairs, and a chemical potential on site 1
that pins the otherwise free edge excitation. Strong bonds host singlet
dimers, so a bipartition boundary crossing a strong bond halves the
purity while one crossing a weak bond leaves it near 1; which of the two
half-chain cuts is which depends on the coupling assignment, and the
`topological` / `trivial` phases differ exactly by swapping it.

Adiabatic preparation cannot work with detuning patterns alone: the chain
Hamiltonian conserves total excitation number, and the all-down starting
state would stay frozen in its N = 0 sector forever. The sweep therefore
drives the chain with a transverse field while a strong uniform detuning
is removed: the drive swells and retires as a single smooth bump while
the detuning is dragged from far below resonance to zero, so each
excitation enters through an avoided crossing the drive holds open.

The quench scenario evolves a single flipped spin at the chain center
under the staggered-coupling chain (J_e = -J_o); the excitation spreads
ballistically and central cuts approach the single-particle purity floor
of 1/2 within a microsecond at the couplings above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliStringSum, TWO_PI, build_ssh
from .statevector import (
    MAX_SITES,
    StateVector,
    all_down,
    evolve_blend,
    evolve_static,
    ground_state,
    occupation,
    product_state,
    x_total,
)

__all__ = [
    "J_E",
    "J_O",
    "J_NNN",
    "MU_EDGE",
    "J_QUENCH",
    "OMEGA_PREP",
    "DELTA_PREP",
    "PHASES",
    "KINDS",
    "RAMPS",
    "ScenarioConfig",
    "PreparedScenario",
    "model_hamiltonian",
    "quench_hamiltonian",
    "prepare_exact_gs",
    "prepare_af",
    "prepare_adiabatic",
    "prepare_domain_wall",
    "quench",
    "prepare_scenario",
]

# chain couplings, angular rates in rad/us
J_E = TWO_PI * 0.484
J_O = -TWO_PI * 0.18
J_NNN = TWO_PI * 0.04
MU_EDGE = TWO_PI * 1.0

# staggered-chain quench coupling
J_QUENCH = TWO_PI * 0.18

# adiabatic sweep drive and starting detuning, see prepare_adiabatic.
# DELTA_PREP < 0 penalizes excitations, and -DELTA_PREP > MU_EDGE keeps
# filling the pinned edge site unprofitable, so all-down is the ground
# state at the start of the sweep.
OMEGA_PREP = TWO_PI * 0.5
DELTA_PREP = -TWO_PI * 1.5

PHASES = ("topological", "trivial")
KINDS = ("ssh_gs", "af", "adiabatic", "quench")
RAMPS = ("linear", "smooth")


def _check_sites(num_sites: int, minimum: int, even: bool) -> None:
    if not minimum <= num_sites <= MAX_SITES:
        raise ValueError(f"num_sites must be in [{minimum}, {MAX_SITES}], got {num_sites}")
    if even and num_sites % 2:
        raise ValueError(f"num_sites must be even, got {num_sites}")


def model_hamiltonian(num_sites: int, phase: str = "topological") -> PauliStringSum:
    """Dimerized chain with the edge pin; `trivial` swaps J_E and J_O.

    Without the pin the two near-degenerate edge orbitals of the
    topological phase hybridize into a state shared between the chain
    ends, washing out the dimer purity contrast (the half-cut purity
    drops toward 1/4 instead of 1/2). MU_EDGE > 0 localizes one edge
    excitation at site 1 and restores the product structure.
    """
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    _check_sites(num_sites, 6, even=True)
    j_e, j_o = (J_O, J_E) if phase == "trivial" else (J_E, J_O)
    return build_ssh(num_sites, j_e, j_o, J_NNN, mu_edge=MU_EDGE)


def quench_hamiltonian(num_sites: int, j: float = J_QUENCH) -> PauliStringSum:
    """The staggered XY chain: J = +j on even bonds and -j on odd ones."""
    _check_sites(num_sites, 2, even=True)
    return build_ssh(num_sites, j, -j)


def prepare_exact_gs(num_sites: int, phase: str = "topological") -> StateVector:
    """Exact ground state of the pinned chain at the default couplings."""
    _, psi = ground_state(model_hamiltonian(num_sites, phase))
    return psi


def prepare_af(num_sites: int) -> StateVector:
    """Alternating product state, spin up at site 1."""
    _check_sites(num_sites, 2, even=False)
    return product_state([1 - m % 2 for m in range(num_sites)])


def prepare_domain_wall(num_sites: int) -> StateVector:
    """All spins down except a single flip at site ceil(L/2)."""
    _check_sites(num_sites, 2, even=True)
    bits = [0] * num_sites
    bits[-(-num_sites // 2) - 1] = 1
    return product_state(bits)


def quench(psi: StateVector, j: float = J_QUENCH, duration: float = 1.0) -> StateVector:
    """Evolve under the staggered chain for `duration` microseconds."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    return evolve_static(psi, quench_hamiltonian(psi.num_sites, j), duration)


# ---------------------------------------------------------------------------
# Adiabatic sweep
# ---------------------------------------------------------------------------


def _progress(ramp: str, t_prep: float) -> Callable[[float], float]:
    def lam(t: float) -> float:
        u = min(max(t / t_prep, 0.0), 1.0)
        if ramp == "smooth":
            return u * u * (3.0 - 2.0 * u)
        return u

    return lam


def prepare_adiabatic(
    num_sites: int,
    t_prep: float,
    *,
    phase: str = "topological",
    ramp: str = "linear",
    tol: float = 1e-9,
    progress: Callable[[float], float] | None = None,
) -> StateVector:
    """Sweep the all-down state into the interacting ground state.

    The schedule in sweep progress lam in [0, 1]:

        drive     (OMEGA_PREP/2) sin^2(pi lam) X_total, a single bump
                  that vanishes at both ends
        detuning  -DELTA_PREP (1 - lam) N_total (DELTA_PREP < 0
                  penalizes excitations, so the sweep starts with the
                  all-down ground state and ends on the bare chain)

    `ramp` reshapes lam(t) (linear or smoothstep); `progress` overrides
    it entirely, which is how a frozen sweep (progress always 0) is
    expressed: the initial state is then an exact eigenstate with zero
    eigenvalue and comes back unchanged. Interactions stay on throughout.
    Fidelity to the exact ground state grows with t_prep; at the default
    couplings the normalized energy variance falls below 0.05 around
    t_prep = 10 us.
    """
    _check_sites(num_sites, 6, even=True)
    if t_prep <= 0:
        raise ValueError("t_prep must be positive")
    if ramp not in RAMPS:
        raise ValueError(f"ramp must be one of {RAMPS}, got {ramp!r}")
    h_sp = model_hamiltonian(num_sites, phase).to_sparse()
    x_sp = x_total(num_sites)
    n_sp = occupation(num_sites, range(1, num_sites + 1))
    lam = progress if progress is not None else _progress(ramp, t_prep)

    def drive(t: float) -> float:
        return 0.5 * OMEGA_PREP * np.sin(np.pi * lam(t)) ** 2

    def detuning(t: float) -> float:
        # coefficient of N_total: -delta, positive while delta < 0
        return -DELTA_PREP * (1.0 - lam(t))

    parts = [(1.0, h_sp), (drive, x_sp), (detuning, n_sp)]
    return evolve_blend(all_down(num_sites), parts, 0.0, t_prep, tol=tol)


# ---------------------------------------------------------------------------
# Config-level dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """What to prepare: kind, size, and the knobs the kind cares about.

    Couplings are angular rates (rad/us); time in us. Fields irrelevant
    to the chosen kind keep their defaults and are ignored.
    """

    kind: str
    num_sites: int
    phase: str = "topological"
    t_prep: float | None = None
    ramp: str = "linear"
    quench_time: float = 1.0
    j_quench: float = J_QUENCH

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if self.ramp not in RAMPS:
            raise ValueError(f"ramp must be one of {RAMPS}, got {self.ramp!r}")
        # a j_quench_mhz near the float limit overflows in rad/us
        if not np.isfinite(self.j_quench):
            raise ValueError("j_quench must be finite")
        # the Hamiltonian of every kind needs an even chain
        _check_sites(self.num_sites, 6 if self.kind in ("ssh_gs", "adiabatic") else 2, even=True)
        if self.kind == "adiabatic":
            if self.t_prep is None or self.t_prep <= 0:
                raise ValueError("adiabatic scenario requires t_prep > 0")
        if self.kind == "quench":
            if self.quench_time <= 0:
                raise ValueError("quench_time must be positive")
            if self.j_quench <= 0:
                raise ValueError("j_quench must be positive")


@dataclass(frozen=True)
class PreparedScenario:
    state: StateVector
    hamiltonian: PauliStringSum
    descriptor: str


def prepare_scenario(cfg: ScenarioConfig) -> PreparedScenario:
    """Build the state and the Hamiltonian its variance is judged against."""
    L = cfg.num_sites
    if cfg.kind == "ssh_gs":
        h = model_hamiltonian(L, cfg.phase)
        return PreparedScenario(prepare_exact_gs(L, cfg.phase), h, f"ssh_gs:{cfg.phase}")
    if cfg.kind == "af":
        h = model_hamiltonian(L, cfg.phase) if L >= 6 else quench_hamiltonian(L)
        return PreparedScenario(prepare_af(L), h, "af")
    if cfg.kind == "adiabatic":
        h = model_hamiltonian(L, cfg.phase)
        psi = prepare_adiabatic(L, cfg.t_prep, phase=cfg.phase, ramp=cfg.ramp)
        return PreparedScenario(psi, h, f"adiabatic:{cfg.phase}:T_P={cfg.t_prep:g}")
    wall = -(-L // 2)
    psi = quench(prepare_domain_wall(L), cfg.j_quench, cfg.quench_time)
    return PreparedScenario(
        psi, quench_hamiltonian(L, cfg.j_quench), f"quench:T={cfg.quench_time:g}:wall@{wall}"
    )
