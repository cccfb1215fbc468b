"""Scenario states checked against dimer pictures and frozen oracles."""

import numpy as np
import pytest

from rmlab.pauli import TWO_PI, build_ssh, square_observable
from rmlab.scenarios import (
    DELTA_PREP,
    J_QUENCH,
    MU_EDGE,
    PreparedScenario,
    ScenarioConfig,
    model_hamiltonian,
    prepare_adiabatic,
    prepare_af,
    prepare_domain_wall,
    prepare_exact_gs,
    prepare_scenario,
    quench,
    quench_hamiltonian,
)
from rmlab.statevector import (
    all_down,
    exact_purity,
    expectation,
    ground_state,
)

from oracles import dense_sum, state_fidelity


def _front(ell):
    return list(range(1, ell + 1))


# ---------------------------------------------------------------------------
# Ground states
# ---------------------------------------------------------------------------


def test_topological_half_cut_purities():
    # L = 8, 12: the half cut crosses a strong bond, the next cut does not
    for L in (8, 12):
        gs = prepare_exact_gs(L, "topological")
        assert abs(exact_purity(gs, _front(L // 2)) - 0.5) < 0.05
        assert exact_purity(gs, _front(L // 2 + 1)) > 0.9


def test_trivial_half_cut_purities():
    for L in (6, 10):
        gs = prepare_exact_gs(L, "trivial")
        assert abs(exact_purity(gs, _front(L // 2)) - 0.5) < 0.05
        assert exact_purity(gs, _front(L // 2 + 1)) > 0.9


def test_phase_swap_swaps_pattern():
    # at L = 8 the trivial assignment moves the cut dimer off the half cut
    gs = prepare_exact_gs(8, "trivial")
    assert exact_purity(gs, _front(4)) > 0.9
    assert abs(exact_purity(gs, _front(5)) - 0.5) < 0.05


def test_ground_state_residual():
    for L, phase in ((6, "trivial"), (8, "topological")):
        h = model_hamiltonian(L, phase)
        e0, gs = ground_state(h)
        hm = h.to_sparse()
        assert np.linalg.norm(hm @ gs.amp - e0 * gs.amp) <= 1e-8


def test_ground_state_deterministic():
    a = prepare_exact_gs(8)
    b = prepare_exact_gs(8)
    assert np.array_equal(a.amp, b.amp)


def test_dimerized_limit_is_exact():
    # dead even bonds, no long-range leak, no pin: disjoint resonant dimers
    # on (1,2), (3,4), ..., so purity is exactly 1/2 on odd cuts, 1 on even
    h = build_ssh(8, j_e=0.0, j_o=-0.18 * TWO_PI, j_nnn=0.0, mu_edge=0.0)
    _, gs = ground_state(h)
    for ell in range(1, 8):
        want = 0.5 if ell % 2 else 1.0
        assert abs(exact_purity(gs, _front(ell)) - want) < 1e-12


def test_model_hamiltonian_validation():
    with pytest.raises(ValueError):
        model_hamiltonian(7)
    with pytest.raises(ValueError):
        model_hamiltonian(4)
    with pytest.raises(ValueError):
        model_hamiltonian(8, "weird")


# ---------------------------------------------------------------------------
# Product states
# ---------------------------------------------------------------------------


def test_af_state():
    af = prepare_af(2)
    assert af.amp[0b10] == 1.0
    af = prepare_af(6)
    for sites in ((1,), (1, 2), (2, 4, 6)):
        assert exact_purity(af, sites) == pytest.approx(1.0, abs=1e-12)


def test_af_energy_matches_dense():
    af = prepare_af(6)
    h = model_hamiltonian(6, "trivial")
    m = dense_sum(h)
    assert expectation(af, h) == pytest.approx(
        float(np.real(af.amp.conj() @ m @ af.amp)), abs=1e-12
    )


def test_domain_wall_site():
    dw = prepare_domain_wall(8)
    assert dw.amp[1 << 4] == 1.0  # site 4 of 8, site 1 is the leftmost bit
    dw = prepare_domain_wall(6)
    assert dw.amp[1 << 3] == 1.0  # site 3 of 6


# ---------------------------------------------------------------------------
# Quench
# ---------------------------------------------------------------------------

QUENCH_ORACLE = (0.933468, 0.682297, 0.500017, 0.500017)  # L=8, T=1us, l=1..4


def test_quench_profile_frozen_values():
    psi = quench(prepare_domain_wall(8), duration=1.0)
    for ell, want in enumerate(QUENCH_ORACLE, start=1):
        assert abs(exact_purity(psi, _front(ell)) - want) < 1e-5


def test_quench_profile_monotone():
    # the two central cuts both sit at the one-excitation floor of 1/2 and
    # differ by ~3e-7, so monotone only up to that scale
    psi = quench(prepare_domain_wall(8), duration=1.0)
    vals = [exact_purity(psi, _front(ell)) for ell in range(1, 5)]
    assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


def test_quench_zero_time_is_identity():
    psi = quench(prepare_domain_wall(8), duration=0.0)
    for ell in range(1, 5):
        assert exact_purity(psi, _front(ell)) == pytest.approx(1.0, abs=1e-12)


def test_quench_conserves_magnetization():
    occ = np.array([bin(i).count("1") for i in range(2**8)], dtype=float)
    for t in (0.3, 1.0, 2.5):
        psi = quench(prepare_domain_wall(8), duration=t)
        total = float((np.abs(psi.amp) ** 2 * occ).sum())
        assert abs(total - 1.0) < 1e-9


def test_quench_rejects_negative_time():
    with pytest.raises(ValueError):
        quench(prepare_domain_wall(8), duration=-0.1)


# ---------------------------------------------------------------------------
# Adiabatic sweep
# ---------------------------------------------------------------------------


def test_frozen_sweep_returns_start_exactly():
    # progress pinned at zero keeps the drive off and the full detuning on;
    # the all-down state is an exact zero-energy eigenstate of that
    # Hamiltonian, so even the global phase survives
    psi = prepare_adiabatic(8, 0.5, progress=lambda t: 0.0, tol=1e-10)
    want = all_down(8)
    assert np.max(np.abs(psi.amp - want.amp)) < 1e-12


def test_sudden_sweep_misses_ground_state():
    psi = prepare_adiabatic(8, 0.1, tol=1e-8)
    gs = prepare_exact_gs(8)
    assert state_fidelity(psi, gs) < 0.5


def test_adiabatic_validation():
    with pytest.raises(ValueError):
        prepare_adiabatic(8, 0.0)
    with pytest.raises(ValueError):
        prepare_adiabatic(8, 1.0, ramp="steep")


def test_sweep_starts_with_all_down_as_ground_state():
    # excitations start penalized, and more strongly than the edge pin
    # rewards filling site 1, so all-down is the ground state at lam = 0
    assert DELTA_PREP < 0
    assert -DELTA_PREP > MU_EDGE


@pytest.mark.slow
def test_adiabatic_fidelity_monotone_and_variance_floor():
    h = model_hamiltonian(8)
    h2 = square_observable(h)
    gs = prepare_exact_gs(8)
    fids, nvars = [], []
    for t_prep in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        psi = prepare_adiabatic(8, t_prep, tol=1e-8)
        fids.append(state_fidelity(psi, gs))
        eh = expectation(psi, h)
        eh2 = expectation(psi, h2)
        nvars.append((eh2 - eh * eh) / eh2)
    assert all(b >= a for a, b in zip(fids, fids[1:])), fids
    assert all(b <= a for a, b in zip(nvars[:5], nvars[1:5])), nvars
    assert nvars[4] < 0.05


# ---------------------------------------------------------------------------
# Config dispatch
# ---------------------------------------------------------------------------


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(kind="bogus", num_sites=8)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="ssh_gs", num_sites=7)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="ssh_gs", num_sites=4)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="adiabatic", num_sites=8)  # t_prep missing
    with pytest.raises(ValueError):
        ScenarioConfig(kind="quench", num_sites=8, quench_time=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="ssh_gs", num_sites=8, ramp="bent")


def test_prepare_scenario_dispatch():
    out = prepare_scenario(ScenarioConfig(kind="ssh_gs", num_sites=6, phase="trivial"))
    assert isinstance(out, PreparedScenario)
    assert out.descriptor == "ssh_gs:trivial"
    assert abs(exact_purity(out.state, _front(3)) - 0.5) < 0.05

    out = prepare_scenario(ScenarioConfig(kind="af", num_sites=8))
    assert out.descriptor == "af"
    assert exact_purity(out.state, _front(4)) == pytest.approx(1.0, abs=1e-12)

    out = prepare_scenario(ScenarioConfig(kind="quench", num_sites=8))
    assert out.descriptor == "quench:T=1:wall@4"
    assert abs(exact_purity(out.state, _front(3)) - QUENCH_ORACLE[2]) < 1e-5


def test_quench_hamiltonian_couplings():
    h = quench_hamiltonian(4)
    # staggered chain: coefficient of the (1,2) flip term has magnitude J/2
    # in the sigma+/sigma- convention folded into XX+YY Pauli words
    assert h.num_sites == 4
    assert h.is_hermitian()


def test_af_scenario_small_chain_hamiltonian():
    out = prepare_scenario(ScenarioConfig(kind="af", num_sites=4))
    assert out.hamiltonian.num_sites == 4
