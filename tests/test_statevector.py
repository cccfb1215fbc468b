"""Statevector engine vs independent dense/ODE oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, expm
from scipy import sparse

from rmlab.pauli import PauliStringSum, _word, build_ssh
from rmlab.statevector import (
    _BUDGET_FLOOR,
    _re_dots,
    ConvergenceError,
    DegenerateGroundStateError,
    NumericalContractError,
    StateVector,
    all_down,
    apply_local_unitaries,
    apply_site_matrices,
    bits_to_index,
    evolve_blend,
    evolve_static,
    exact_purity,
    expectation,
    ground_state,
    index_to_bits,
    occupation,
    product_state,
    sample_basis_indices,
    x_total,
)

from oracles import dense, dense_sum, random_state, state_fidelity


def _bound(ham, cs):
    """``ham.bound`` of one list of coefficient values, as a float."""
    return float(ham.bound([np.asarray(c)[None] for c in cs])[0])


def test_bit_ordering():
    # site 1 is the most significant bit; bit 1 = up
    psi = product_state([1, 0])
    assert np.argmax(np.abs(psi.amp)) == 2
    assert format(2, "02b") == "10"
    assert bits_to_index([1, 0, 1]) == 5


@pytest.mark.parametrize("L", [1, 8, 14])
def test_bits_index_round_trip(L):
    top = 2**L - 1
    # scalars, including both ends of the range
    for idx in (0, 1, top // 3, top):
        bits = index_to_bits(idx, L)
        assert bits.shape == (L,) and bits.dtype == np.int8
        assert bits_to_index(bits) == idx
        assert "".join(map(str, bits)) == format(idx, f"0{L}b")
    # site 1 is the most significant bit
    assert index_to_bits(2 ** (L - 1), L)[0] == 1
    assert index_to_bits(1, L)[-1] == 1
    assert index_to_bits(top, L).sum() == L
    # arrays of any leading shape
    idx = np.random.default_rng(L).integers(0, top + 1, size=(3, 5))
    idx[0, 0], idx[-1, -1] = 0, top
    bits = index_to_bits(idx, L)
    assert bits.shape == (3, 5, L)
    assert np.array_equal(bits_to_index(bits), idx)
    rows = index_to_bits(np.arange(min(top + 1, 4096)), L)
    assert np.array_equal(bits_to_index(rows), np.arange(min(top + 1, 4096)))


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_apply_site_matrices_against_kron(L):
    rng = np.random.default_rng(40 + L)
    cplx = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(L)]
    real = [rng.normal(size=(2, 2)) for _ in range(L)]
    v = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    for mats in (cplx, real):
        for skip in ((), (0,), tuple(range(0, L, 2))):
            used = [None if m in skip else mats[m] for m in range(L)]
            dense = np.array([[1.0]])
            for m in range(L):
                dense = np.kron(dense, np.eye(2) if m in skip else mats[m])
            assert np.allclose(apply_site_matrices(v, used), dense @ v, atol=1e-12)
            # a (2^L, K) block: each column transformed as it would be alone
            block = np.stack([v, v.conj(), 2.0 * v], axis=1)
            columns = [apply_site_matrices(np.ascontiguousarray(col), used) for col in block.T]
            assert np.array_equal(apply_site_matrices(block, used), np.stack(columns, axis=1))
    with pytest.raises(ValueError):
        apply_site_matrices(v, cplx + [None])
    with pytest.raises(ValueError):
        apply_site_matrices(v[:, None, None], cplx)


def test_drive_operators_against_pauli_sums():
    L = 4
    x = PauliStringSum(L)
    n_all = PauliStringSum(L)
    n_odd = PauliStringSum(L)
    for m in range(1, L + 1):
        x.add_term(1.0, _word("X", (m,), L))
        # n = (Z + 1) / 2
        for target in (n_all, n_odd) if m % 2 else (n_all,):
            target.add_term(0.5, _word("Z", (m,), L))
            target.add_term(0.5, "I" * L)
    assert np.allclose(x_total(L).toarray(), dense_sum(x))
    assert np.allclose(occupation(L, range(1, L + 1)).toarray(), dense_sum(n_all))
    assert np.allclose(occupation(L, range(1, L + 1, 2)).toarray(), dense_sum(n_odd))


def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]), 2)
    # a NaN norm fails the check too
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.full(4, np.nan), 2)


def test_expectation_against_dense():
    rng = np.random.default_rng(1)
    psi = random_state(3, rng)
    h = build_ssh(3, 1.1, -0.4, mu_edge=0.3)
    ref = np.vdot(psi.amp, dense_sum(h) @ psi.amp).real
    assert abs(expectation(psi, h) - ref) < 1e-12


def test_expectation_rejects_non_hermitian():
    psi = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), 2)
    bad = PauliStringSum(2)
    bad.add_term(1j, "XX")  # <i XX> = i on this state
    with pytest.raises(NumericalContractError):
        expectation(psi, bad)


def test_z_on_all_down():
    psi = all_down(2)
    z1 = PauliStringSum(2)
    z1.add_term(1.0, _word("Z", (1,), 2))
    assert abs(expectation(psi, z1) - (-1.0)) < 1e-14


def test_apply_local_unitaries_vs_kron():
    rng = np.random.default_rng(2)
    psi = random_state(3, rng)
    from rmlab.pauli import ROTATION_MATRICES

    patterns = [[1, 3, 2], [3, 3, 3], [2, 1, 1]]
    out = apply_local_unitaries(psi, patterns)
    assert out.shape == (8, 3)
    for k, labels in enumerate(patterns):
        big = np.kron(
            np.kron(ROTATION_MATRICES[labels[0]], ROTATION_MATRICES[labels[1]]), ROTATION_MATRICES[labels[2]]
        )
        assert np.max(np.abs(out[:, k] - big @ psi.amp)) < 1e-12
    with pytest.raises(ValueError):
        apply_local_unitaries(psi, [[1, 3]])
    with pytest.raises(ValueError):
        apply_local_unitaries(psi, [1, 3, 2])
    with pytest.raises(ValueError):
        apply_local_unitaries(psi, [[1, 3, 4]])


def test_rotation_block_checks_every_column_norm():
    psi = random_state(3, np.random.default_rng(2))
    psi.amp *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not normalized"):
        apply_local_unitaries(psi, [[1, 3, 2], [3, 3, 3]])


def test_site_matrix_stack_matches_one_matrix_per_column():
    # a (K, 2, 2) stack at a site applies column k's own matrix, as the
    # single-matrix path does on that column alone
    rng = np.random.default_rng(3)
    L, K = 4, 5
    block = rng.normal(size=(2**L, K)) + 1j * rng.normal(size=(2**L, K))
    stacks = [rng.normal(size=(K, 2, 2)) + 1j * rng.normal(size=(K, 2, 2)) for _ in range(L)]
    stacks[2] = None
    before = block.copy()
    got = apply_site_matrices(block, stacks)
    for k in range(K):
        own = [None if m is None else m[k] for m in stacks]
        assert np.max(np.abs(got[:, k] - apply_site_matrices(block[:, k], own))) < 1e-12
    # the stacked sites update a copy in place: the caller's block is kept,
    # and a real block is widened to the stack's dtype first
    assert np.array_equal(block, before)
    real = np.ascontiguousarray(block.real)
    assert np.array_equal(apply_site_matrices(real, stacks), apply_site_matrices(real.astype(complex), stacks))
    assert np.array_equal(real, before.real)


def test_evolve_static_vs_expm():
    rng = np.random.default_rng(3)
    psi = random_state(3, rng)
    h = build_ssh(3, 2.0, -0.7, mu_edge=0.5)
    out = evolve_static(psi, h, 0.8)
    ref = expm(-1j * 0.8 * dense_sum(h)) @ psi.amp
    assert np.max(np.abs(out.amp - ref)) < 1e-10


def _smooth_sweep():
    """Two non-commuting parts with smooth coefficients on two sites, and
    the state at t = 1 from a tight adaptive ODE solve."""
    psi = random_state(2, np.random.default_rng(4))
    a = dense("XX")
    b = dense("ZI")
    parts = [
        (lambda t: 1.3 * np.cos(2.0 * t), sparse.csr_matrix(a)),
        (lambda t: 0.7 * np.sin(3.0 * t) + 0.2, sparse.csr_matrix(b)),
    ]

    def rhs(t, y):
        h = 1.3 * np.cos(2.0 * t) * a + (0.7 * np.sin(3.0 * t) + 0.2) * b
        return -1j * (h @ y)

    sol = solve_ivp(rhs, (0.0, 1.0), psi.amp, rtol=1e-11, atol=1e-13, method="DOP853")
    return psi, parts, sol.y[:, -1]


def test_evolve_blend_vs_ode_oracle():
    psi, parts, ref = _smooth_sweep()
    out = evolve_blend(psi, parts, 0.0, 1.0, tol=1e-8)
    assert np.max(np.abs(out.amp - ref)) < 2e-7
    # exponential stepping preserves the norm regardless of tolerance
    assert abs(np.linalg.norm(out.amp) - 1.0) < 1e-12


def test_evolve_blend_is_fourth_order():
    # a step with its two exponentials swapped still converges, at second
    # order (4x per doubling); CFM4 gains 16x
    psi, parts, ref = _smooth_sweep()
    err = {
        n: np.linalg.norm(
            evolve_blend(psi, parts, 0.0, 1.0, tol=None, initial_steps=n).amp - ref
        )
        for n in (8, 16, 32)
    }
    assert err[8] / err[16] >= 2**3.5
    assert err[16] / err[32] >= 2**3.5


def test_refinement_jumps_by_the_fourth_root(monkeypatch):
    import math

    import rmlab.statevector as statevector

    runs = []
    run_steps = statevector._run_steps

    def recorded(ham, amp, t0, t1, n, budget):
        runs.append((n, run_steps(ham, amp, t0, t1, n, budget)))
        return runs[-1][1]

    monkeypatch.setattr(statevector, "_run_steps", recorded)
    psi, parts, ref = _smooth_sweep()
    tol = 1e-8
    out = evolve_blend(psi, parts, 0.0, 1.0, tol=tol, initial_steps=8)
    # 8 vs 16 steps misses tol; at fourth order the grid it jumps to passes
    # its own doubling check, so refinement ends there
    (n0, v0), (n1, v1), (n2, v2), (n3, v3) = runs
    assert (n0, n1) == (8, 16)
    jump = 1.3 * (np.linalg.norm(v1 - v0) / tol) ** 0.25
    assert 2.0 < jump < 16.0
    # a whole jump keeps every grid a multiple of the start grid
    assert n2 == n0 * math.ceil(jump) and n3 == 2 * n2
    assert np.linalg.norm(v3 - v2) <= 15 / 16 * tol
    assert np.array_equal(out.amp, v3 / np.linalg.norm(v3))
    assert np.linalg.norm(out.amp - ref) < tol


def _synthetic_runs(shape, scale):
    """run(m) = exact + C m^-4 for one fixed exact and C of ``shape``, with
    every requested m recorded."""
    rng = np.random.default_rng(33)
    exact = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    asked = []

    def run(m):
        asked.append(m)
        return exact + c * float(m) ** -4

    return run, exact, asked


def _distance(a, b):
    """The largest column distance; a vector is one column."""
    return float(np.max(np.linalg.norm(a - b, axis=0)))


@pytest.mark.parametrize("shape", [(16,), (16, 5), (2, 2)])
@pytest.mark.parametrize("start, tol", [(3, 1e-6), (7, 1e-9), (300, 1e-12), (5, 1.0)])
def test_error_controller_certifies_the_first_grid_within_tol(shape, start, tol):
    from rmlab.statevector import _certify

    run, exact, asked = _synthetic_runs(shape, 1e3)
    n, fine, err = _certify(run, start, tol)
    assert np.array_equal(fine, run(2 * n)) and err == pytest.approx(_distance(run(n), fine))
    assert err <= 15 / 16 * tol
    # n vs 2n is 15/16 of the n-step error, so n itself is within tol
    assert _distance(run(n), exact) <= tol
    assert all(m % start == 0 for m in asked)
    # every grid tried before n missed the certificate
    tried = sorted({m for m in asked if m < n})
    assert all(_distance(run(m), run(2 * m)) > 15 / 16 * tol for m in tried if 2 * m in asked)


@pytest.mark.parametrize("shape", [(16,), (16, 5), (2, 2)])
def test_error_controller_refines_a_distance_above_fifteen_sixteenths_of_tol(shape):
    from rmlab.statevector import _certify

    run, exact, _ = _synthetic_runs(shape, 1e3)
    # a 10 vs 20 distance of 0.97 tol leaves the 10-step error above tol
    tol = _distance(run(10), run(20)) / 0.97
    assert _distance(run(10), exact) > tol
    n, _, _ = _certify(run, 10, tol)
    assert n > 10 and _distance(run(n), exact) <= tol


def test_error_controller_stalls_into_convergence_error():
    from rmlab.statevector import _MAX_GRID, _certify

    # no grid ever meets a tolerance below the runs' own noise; jumps of
    # 16 reach the grid cap
    rng = np.random.default_rng(34)
    calls = []

    def noisy(m):
        calls.append(m)
        return rng.normal(size=4)

    with pytest.raises(ConvergenceError, match="stalled"):
        _certify(noisy, 2, 1e-3)
    assert max(calls) <= 2 * _MAX_GRID * 2
    run, _, asked = _synthetic_runs((4,), 1.0)
    with pytest.raises(ConvergenceError, match="stalled"):
        _certify(run, 3, 1e-40)
    assert max(asked) <= 2 * _MAX_GRID * 3
    # a distance stuck at twice tol jumps by 2 each round, so no candidate
    # grid passes _MAX_GRID times the start grid
    doubled = []

    def stuck(m):
        doubled.append(m)
        return np.array([m.bit_length() % 2, 0.0])

    with pytest.raises(ConvergenceError, match="stalled"):
        _certify(stuck, 1, 0.5)
    assert doubled == [2**k for k in range(16)] and doubled[-1] == 2 * _MAX_GRID


def test_evolve_blend_matches_static():
    rng = np.random.default_rng(5)
    psi = random_state(3, rng)
    h = build_ssh(3, 1.0, -0.3)
    out1 = evolve_static(psi, h, 0.6)
    out2 = evolve_blend(psi, [(1.0, h.to_sparse())], 0.0, 0.6, tol=1e-11)
    assert np.max(np.abs(out1.amp - out2.amp)) < 1e-9


def _stepped_waveform_problem(k=None):
    """A drive with a constant stretch, a ramp and a jump (pulses.Waveform
    is piecewise linear, a repeated time a jump), a static coupling, and
    with ``k`` columns per-column gains and light-shift diagonals."""
    from rmlab.pulses import Waveform

    L = 3
    wave = Waveform(
        np.array([0.0, 0.3, 0.55, 0.55, 1.0]), np.array([2.0, 2.0, -1.5, 3.0, 3.0])
    )
    zz = build_ssh(L, 0.8, -0.4).to_sparse()
    n_tot = occupation(L, range(1, L + 1))
    if k is None:
        return [(wave.value, x_total(L)), (lambda t: -wave.value(t), n_tot), (1.0, zz)]
    rng = np.random.default_rng(31)
    gains = 1.0 + 0.05 * rng.normal(size=k)
    shifts = rng.normal(size=(2**L, k))
    return [
        (lambda t: wave.value(t) * gains, x_total(L)),
        (lambda t: 0.5 * wave.value(t), shifts),
        (1.0, zz),
    ]


@pytest.mark.parametrize("columns", [None, 3])
def test_fused_steps_match_the_per_step_loop(monkeypatch, per_step_loop, columns):
    import rmlab.statevector as statevector

    psi = random_state(3, np.random.default_rng(32))
    parts = _stepped_waveform_problem(columns)
    counts = statevector._INTEGRATOR_COUNTS
    chebyshev = statevector._chebyshev_apply
    long_runs = []

    def recorded(ham, cs, tau, v, bufs):
        long_runs.append(tau)
        return chebyshev(ham, cs, tau, v, bufs)

    monkeypatch.setattr(statevector, "_chebyshev_apply", recorded)
    for n in (20, 80, 320):
        before = counts["exponentials"]
        long_runs.clear()
        fused = evolve_blend(psi, parts, 0.0, 1.0, tol=None, initial_steps=n)
        exponentials = counts["exponentials"] - before
        # the constant stretches fuse; the ramp and the jump's cell do not
        assert exponentials < 2 * n
        # both fused constant stretches are past the step budget: Chebyshev
        # series, checked here against Taylor pieces
        assert np.allclose(long_runs, [0.3, 0.45])
        with monkeypatch.context() as m:
            m.setattr(statevector, "_run_steps", per_step_loop)
            stepped = evolve_blend(psi, parts, 0.0, 1.0, tol=None, initial_steps=n)
        if columns is None:
            fused, stepped = [fused], [stepped]
        for a, b in zip(fused, stepped, strict=True):
            assert np.max(np.abs(a.amp - b.amp)) < 1e-12


def _exponentials_applied(monkeypatch, times, values, n):
    """(tau, drive value) of every exponential applied over [0, 3] on n
    steps, and how often the drive was called."""
    import rmlab.statevector as statevector
    from rmlab.pulses import Waveform

    wave = Waveform(np.array(times), np.array(values))
    calls = []

    def drive(t):
        calls.append(t)
        return wave.value(t)

    applied = []
    exponential = statevector._exponential

    def recorded(ham, cs, tau, bound, v, bufs):
        applied.append((round(tau, 12), float(cs[0])))
        return exponential(ham, cs, tau, bound, v, bufs)

    monkeypatch.setattr(statevector, "_exponential", recorded)
    psi = random_state(2, np.random.default_rng(33))
    parts = [(drive, x_total(2)), (1.0, occupation(2, [1]))]
    evolve_blend(psi, parts, 0.0, 3.0, tol=None, initial_steps=n)
    assert len(calls) == 1 + 2 * n
    return applied


def test_fusion_joins_only_steps_with_equal_node_values(monkeypatch):
    from rmlab.statevector import _A1, _A2

    # two constant cells, then a cell with a kink at t = 2.5: the kink cell
    # keeps its two exponentials of blended values
    applied = _exponentials_applied(monkeypatch, [0.0, 2.0, 2.5, 3.0], [1.0, 1.0, 1.0, 2.0], 3)
    assert [tau for tau, _ in applied] == [2.0, 1.0, 1.0]
    assert applied[0][1] == 1.0 and applied[1][1] != 1.0
    # a jump at t = 1.5 between the Gauss nodes of the middle step: that
    # step is stepped, its neighbours stay apart
    applied = _exponentials_applied(
        monkeypatch, [0.0, 1.5, 1.5, 3.0], [1.0, 1.0, 2.0, 2.0], 3
    )
    assert applied == [(1.0, 1.0), (1.0, _A2 + 2.0 * _A1), (1.0, _A1 + 2.0 * _A2), (1.0, 2.0)]
    # a jump on a step boundary splits two constant runs, each fused
    applied = _exponentials_applied(
        monkeypatch, [0.0, 2.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0], 6
    )
    assert applied == [(2.0, 1.0), (1.0, 2.0)]


def _runs_of(monkeypatch, evolve, run_steps):
    """(steps, exponentials, series terms, state bytes) of every run of
    steps that ``evolve()`` makes, each made by ``run_steps``."""
    import rmlab.statevector as statevector

    counts = statevector._INTEGRATOR_COUNTS
    runs = []

    def recorded(ham, amp, t0, t1, n, budget):
        before = dict(counts)
        v = run_steps(ham, amp, t0, t1, n, budget)
        work = [counts[key] - before[key] for key in ("exponentials", "series_terms")]
        runs.append((n, *work, v.tobytes()))
        return v

    with monkeypatch.context() as m:
        m.setattr(statevector, "_run_steps", recorded)
        evolve()
    return runs


def _assert_planned_runs_match_the_stepping_loop(monkeypatch, evolve):
    """Every run of steps of ``evolve()``, planned, is the reference
    stepping loop's run byte for byte, with the same integrator counts."""
    from oracles import reference_run_steps

    import rmlab.statevector as statevector

    planned = _runs_of(monkeypatch, evolve, statevector._run_steps)
    stepped = _runs_of(monkeypatch, evolve, reference_run_steps)
    assert planned and [run[:3] for run in planned] == [run[:3] for run in stepped]
    assert all(a[3] == b[3] for a, b in zip(planned, stepped))


def _synthetic_plans():
    """name -> (parts, n): a drive of piecewise-linear waveforms over [0, 3]
    on L = 3, whose steps fuse in the ways the plan must find."""
    from rmlab.pulses import Waveform

    def wave(times, values):
        w = Waveform(np.array(times, dtype=float), np.array(values, dtype=float))
        return w.value

    rng = np.random.default_rng(40)
    field = rng.normal(size=(8, 3))
    ramp = wave([0.0, 3.0], [0.5, 2.0])
    # constant on each step of a 6-step grid, jumping at its boundaries but
    # between the second and third step
    stairs = wave(np.repeat(np.arange(7) * 0.5, 2)[1:-1], np.repeat([1.0, 2.0, 2.0, 3.0, 3.5, 1.0], 2))
    start = wave([0.0, 1.5, 3.0], [1.0, 1.0, 2.0])

    def vector(drive):
        return [(drive, x_total(3)), (1.0, occupation(3, [1])), (0.7, build_ssh(3, 0.9, -0.4).to_sparse())]

    def block(columns):
        return [(columns, x_total(3)), (lambda t: 0.3 * stairs(t), field), (0.5, occupation(3, [2]))]

    return {
        "stretch at the start": (vector(start), 6),
        "stretch at the end": (vector(wave([0.0, 1.5, 3.0], [2.0, 1.0, 1.0])), 6),
        "one constant step": (vector(wave([0.0, 3.0], [1.5, 1.5])), 1),
        "one ramped step": (vector(ramp), 1),
        "stretches of new values": (vector(stairs), 6),
        "one column ramped": (block(lambda t: np.array([1.0, stairs(t), ramp(t) if t > 1.5 else 1.0])), 6),
        "stretches of new values, per column": (block(lambda t: np.array([1.0, 2.0, 3.0]) * stairs(t)), 6),
        "column stretch at the start": (block(lambda t: np.array([1.0, 2.0, 3.0]) * start(t)), 6),
    }


@pytest.mark.parametrize("chunk", ["default", 1, 2])
@pytest.mark.parametrize("case", sorted(_synthetic_plans()))
def test_planned_run_matches_the_stepping_loop_on_synthetic_drives(case, chunk, monkeypatch):
    # the plan finds the stretches the per-step loop found, also where a
    # chunk of 1 or 2 steps cuts a stretch: every run is byte-identical
    import rmlab.statevector as statevector

    parts, n = _synthetic_plans()[case]
    columns = statevector._BlendHamiltonian(parts, 0.0).columns
    if chunk != "default":
        monkeypatch.setattr(statevector, "_PLAN_CHUNK", chunk * (columns or 1))
    psi = random_state(3, np.random.default_rng(41))
    _assert_planned_runs_match_the_stepping_loop(
        monkeypatch, lambda: evolve_blend(psi, parts, 0.0, 3.0, tol=None, initial_steps=n)
    )


def test_planned_runs_match_the_stepping_loop_on_the_benchmark_paths(monkeypatch, pulsed_block):
    # an L = 8, K = 10 pulsed block at the benchmark's tol, its K = 1
    # probe's certification, and an adiabatic sweep at tol 1e-9: byte-identical
    import rmlab.statevector as statevector
    from rmlab.protocol import _certify_grid, _drive_operators
    from rmlab.pulses import golden_schedule
    from rmlab.scenarios import model_hamiltonian, prepare_adiabatic
    from rmlab.statevector import _truncation_budget

    psi, parts, t1 = pulsed_block(8, 10)
    budget = _truncation_budget(0.5e-4, 300)
    drive = _drive_operators(8, model_hamiltonian(8))
    cases = [
        lambda: evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=300, budget=budget),
        lambda: _certify_grid(psi, golden_schedule(), drive, 1e-4),
        lambda: prepare_adiabatic(6, 0.1, tol=1e-9),
    ]
    for evolve in cases:
        _assert_planned_runs_match_the_stepping_loop(monkeypatch, evolve)
    # in chunks of three steps, a stretch of the golden schedule is cut too
    monkeypatch.setattr(statevector, "_PLAN_CHUNK", 30)
    _assert_planned_runs_match_the_stepping_loop(monkeypatch, cases[0])


@pytest.mark.parametrize("steps", [300, 600])
def test_plan_holds_less_than_a_state_block(steps, pulsed_block):
    # an L = 8, K = 4,096 block's plan on the certified grid of tol 1e-4
    # and 1e-6 (300 steps) and on twice that, built and walked through
    # without evolving: its peak (3.7 MB when measured) is a few chunks of
    # node values, not the 20 to 40 MB of two column-valued coefficients
    # on every node, and well within the 17 MB of a state block
    import tracemalloc

    import rmlab.statevector as statevector

    _, parts, t1 = pulsed_block(8, 4096)
    ham = statevector._BlendHamiltonian(parts, 0.0)
    state_block = 2**8 * 4096 * 16
    tracemalloc.start()
    try:
        exponentials = sum(1 for _ in statevector._plan(ham, 0.0, t1 / steps, steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exponentials > 0
    assert peak < state_block / 2


def test_constant_hamiltonian_far_past_the_step_budget():
    import rmlab.statevector as statevector

    psi = random_state(4, np.random.default_rng(34))
    h = build_ssh(4, 30.0, -11.0, j_nnn=2.5, mu_edge=4.0)
    duration = 10.0
    # the one exponential is a single Chebyshev series; Taylor pieces
    # within the step budget would take hundreds of them
    norm_t = np.abs(h.to_sparse()).sum(axis=1).max() * duration
    assert norm_t > 100 * statevector._STEP_BUDGET
    ref = expm(-1j * duration * dense_sum(h)) @ psi.amp
    counts = statevector._INTEGRATOR_COUNTS
    before = counts["series_terms"]
    out = evolve_static(psi, h, duration)
    # about one H application per unit of |H| t (Taylor pieces take about
    # ten): the Gershgorin half-width is at most |H| here
    assert counts["series_terms"] - before < 2 * norm_t
    assert np.max(np.abs(out.amp - ref)) < 1e-12
    out = evolve_blend(psi, [(1.0, h.to_sparse())], 0.0, duration, tol=1e-9)
    assert np.max(np.abs(out.amp - ref)) < 1e-12


def test_chebyshev_coefficients_match_scipy_bessel():
    from scipy.special import jv

    from rmlab.statevector import _chebyshev_coefficients

    for x in np.logspace(-3, 3, 25):
        coeffs = _chebyshev_coefficients(x, 1e-16)
        k = np.arange(coeffs.size)
        # c_k = (2 - delta_k0) (-i)^k J_k(x): undo the factor, exactly
        bessel = coeffs / np.where(k == 0, 1.0, 2.0) * np.array([1.0, 1j, -1.0, -1j])[k % 4]
        assert not bessel.imag.any()
        # jv's own error grows about linearly in x: against 40-digit
        # mpmath it is 1.8e-14 at x = 1e3, where these values are within
        # 3.4e-16
        assert np.max(np.abs(bessel.real - jv(k, x))) <= 1e-14 * max(1.0, x / 500.0)
        # no shorter than jv's own cut: every later |J_k(x)| is below 1e-16
        tail = np.abs(jv(np.arange(coeffs.size, coeffs.size + 200), x))
        assert np.all(tail < 1e-16)
        # |exp(-i x cos theta)|^2 = 1: J_0^2 + 2 sum_k J_k^2 = 1
        assert abs(np.sum(np.abs(coeffs) ** 2 / np.where(k == 0, 1.0, 2.0)) - 1.0) < 1e-14


def test_chebyshev_block_with_light_shifts_against_expm():
    import rmlab.statevector as statevector

    # per-column site light shifts of about 15 per site dominate a weak
    # drive and coupling, as the pulse's label-3 shifts do
    L, k = 4, 3
    rng = np.random.default_rng(35)
    sites = index_to_bits(np.arange(2**L), L)
    labels = rng.integers(0, 2, size=(k, L))
    shifts = sites @ (15.0 * labels.T * (1.0 + 0.03 * rng.normal(size=(L, k))))
    zz = build_ssh(L, 0.8, -0.4).to_sparse()
    gains = 1.0 + 0.03 * rng.normal(size=k)
    parts = [(lambda t: 1.7 * gains, x_total(L)), (-1.0, shifts), (1.0, zz)]
    psi = random_state(L, np.random.default_rng(36))
    ham = statevector._BlendHamiltonian(parts, 0.0)
    # one exponential at |B| tau = 100
    tau = 100.0 / _bound(ham, ham.values(0.0))
    out = evolve_blend(psi, parts, 0.0, tau, tol=None, initial_steps=1)
    for j, state in enumerate(out):
        h = 1.7 * gains[j] * x_total(L).toarray() - np.diag(shifts[:, j]) + zz.toarray()
        ref = expm(-1j * tau * h) @ psi.amp
        assert np.max(np.abs(state.amp - ref)) < 1e-12


def test_chebyshev_of_a_multiple_of_identity_is_a_phase():
    import rmlab.statevector as statevector

    psi = random_state(3, np.random.default_rng(37))
    # half-width 0; the shift to a multiple of 2 pi leaves a phase of at
    # most pi for the series to make
    out = evolve_blend(psi, [(50.0, sparse.identity(8, format="csr"))], 0.0, 1.0, tol=None, initial_steps=1)
    assert np.max(np.abs(out.amp - np.exp(-50j) * psi.amp)) < 1e-14
    # one multiple per column: a per-column phase
    levels = np.array([30.0, -45.0, 60.0, 4.0 * np.pi])
    out = evolve_blend(psi, [(1.0, np.ones((8, 1)) * levels)], 0.0, 1.0, tol=None, initial_steps=1)
    for state, level in zip(out, levels, strict=True):
        assert np.max(np.abs(state.amp - np.exp(-1j * level) * psi.amp)) < 1e-14
    # every level a multiple of 2 pi: the phase is 1 and no term is needed
    before = statevector._INTEGRATOR_COUNTS["series_terms"]
    out = evolve_blend(psi, [(1.0, np.ones((8, 1)) * levels[3:])], 0.0, 1.0, tol=None, initial_steps=1)
    assert statevector._INTEGRATOR_COUNTS["series_terms"] == before
    assert np.max(np.abs(out[0].amp - psi.amp)) < 1e-15


_words = st.text(alphabet="IXYZ", min_size=3, max_size=3)
_values = st.floats(-40.0, 40.0)


@given(
    st.lists(st.tuples(_values, _words), min_size=1, max_size=4),
    st.sampled_from([None, 1, 3]),
    st.tuples(_words, st.lists(_values, min_size=3, max_size=3)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_gershgorin_interval_holds_the_spectrum(scalar_parts, columns, column_part, seed):
    from rmlab.statevector import _BlendHamiltonian

    # Pauli strings, on which the bound is tight (one entry of modulus 1
    # per row); on a block also a column-valued one and a dense diagonal
    def pauli(word):
        return sparse.csr_matrix(dense(word))

    parts = [(c, pauli(word)) for c, word in scalar_parts]
    if columns is not None:
        word, gains = column_part
        gains = np.array(gains[:columns])
        diagonals = np.random.default_rng(seed).normal(scale=20.0, size=(8, columns))
        parts += [(lambda t: gains, pauli(word)), (1.0, diagonals)]
    ham = _BlendHamiltonian(parts, 0.0)
    cs = ham.values(0.0)
    width = columns or 1
    lo, hi = (np.broadcast_to(end, width) for end in ham.interval(cs))
    for j in range(width):
        h = sum(
            np.diag(m[:, j]) * c if isinstance(m, np.ndarray) else m.toarray() * np.broadcast_to(c, width)[j]
            for c, (_, m) in zip(cs, parts)
        )
        eig = np.linalg.eigvalsh(h)
        slack = 1e-12 * (1.0 + np.abs(eig).max())
        assert lo[j] - slack <= eig[0] and eig[-1] <= hi[j] + slack


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_raise(bad):
    psi = random_state(2, np.random.default_rng(38))
    cases = [
        [(lambda t: bad, x_total(2))],
        [(1.0, x_total(2)), (lambda t: bad * np.ones(3), occupation(2, [1]))],
    ]
    for parts in cases:
        # the start grid's sizing and a given grid's exponentials
        for steps in (None, 4):
            with pytest.raises(NumericalContractError, match="non-finite"):
                evolve_blend(psi, parts, 0.0, 1.0, tol=None, initial_steps=steps)
    # a value past the start grid's sample times reaches an exponential
    drive = lambda t: bad if t > 0.99 else 1.0
    with pytest.raises(NumericalContractError, match="non-finite"):
        evolve_blend(psi, [(drive, x_total(2))], 0.0, 1.0, tol=None, initial_steps=64)


def _block_problem(num_sites, k):
    """Shared X drive, a per-column drive gain and per-column diagonals."""
    rng = np.random.default_rng(21)
    x = sum(
        dense(_word("X", (m,), num_sites))
        for m in range(1, num_sites + 1)
    )
    zz = build_ssh(num_sites, 0.8, -0.4).to_sparse()
    gains = 1.0 + 0.05 * rng.normal(size=k)
    shifts = rng.normal(size=(2**num_sites, k))
    drive = lambda t: 1.5 * np.cos(4.0 * t)
    block = [
        (lambda t: drive(t) * gains, sparse.csr_matrix(x)),
        (lambda t: 0.6 * np.sin(2.0 * t), shifts),
        (1.0, zz),
    ]
    columns = [
        [
            (lambda t, g=g: drive(t) * g, sparse.csr_matrix(x)),
            (lambda t: 0.6 * np.sin(2.0 * t), sparse.diags(shifts[:, j])),
            (1.0, zz),
        ]
        for j, g in enumerate(gains)
    ]
    return block, columns


def test_evolve_blend_block_matches_single_columns():
    psi = random_state(3, np.random.default_rng(22))
    block, columns = _block_problem(3, 4)
    out = evolve_blend(psi, block, 0.0, 0.8, tol=None, initial_steps=50)
    assert isinstance(out, list) and len(out) == 4
    for state, parts in zip(out, columns):
        ref = evolve_blend(psi, parts, 0.0, 0.8, tol=None, initial_steps=50)
        assert isinstance(ref, StateVector)
        assert np.max(np.abs(state.amp - ref.amp)) < 1e-12
    # step doubling refines the shared grid until every column meets tol
    refined = evolve_blend(psi, block, 0.0, 0.8, tol=1e-6)
    for state, parts in zip(refined, columns):
        ref = evolve_blend(psi, parts, 0.0, 0.8, tol=1e-6)
        assert np.linalg.norm(state.amp - ref.amp) < 2e-6


def test_evolve_blend_rejects_mismatched_columns():
    psi = random_state(2, np.random.default_rng(23))
    diag = np.ones((4, 3))
    with pytest.raises(ValueError, match="column count"):
        evolve_blend(psi, [(lambda t: np.ones(2), diag)], 0.0, 1.0, tol=None)
    with pytest.raises(ValueError, match="dense part"):
        evolve_blend(psi, [(1.0, np.ones(4))], 0.0, 1.0, tol=None)


def test_evolve_blend_takes_a_budget_only_without_a_tol():
    # a tol sets the budget of each of its runs
    psi = random_state(2, np.random.default_rng(23))
    with pytest.raises(ValueError, match="budget"):
        evolve_blend(psi, [(1.0, x_total(2))], 0.0, 1.0, tol=1e-6, budget=1e-12)


def test_taylor_series_raises_when_not_converged():
    from rmlab.statevector import _STEP_BUDGET, _SeriesBuffers, _taylor_apply

    v = random_state(2, np.random.default_rng(24)).amp
    # |H| dt = 100 is far past the step budget of 2, and past the bound x
    # that the caller claims for it
    x = 2 * _STEP_BUDGET
    with pytest.raises(NumericalContractError, match="not converged"):
        _taylor_apply(
            lambda w, out: np.multiply(100.0, w, out=out), v, 1.0, _SeriesBuffers(v.shape, _BUDGET_FLOOR), x, _re_dots(v, v)
        )
    # one column converging does not excuse another
    block = np.stack([v, v], axis=1)
    bufs = _SeriesBuffers(block.shape, _BUDGET_FLOOR)
    squares = _re_dots(block, block)
    with pytest.raises(NumericalContractError, match="not converged"):
        _taylor_apply(lambda w, out: np.multiply(w, np.array([0.0, 100.0]), out=out), block, 1.0, bufs, x, squares)
    small = _taylor_apply(lambda w, out: np.multiply(w, np.array([0.0, 1.0]), out=out), block, 1.0, bufs, 1.0, squares)
    assert np.allclose(small[:, 0], v, atol=1e-15)
    assert np.allclose(small[:, 1], np.exp(-1j) * v, atol=1e-14)


def test_centred_taylor_series_stops_within_its_term_limit():
    # a blend within the step budget, shifted by a diagonal energy at the
    # edge of its diagonal, is up to twice the budget: the series must still
    # stop inside the term limit, which 4^32 / 32! < 1e-16 guarantees
    import math

    import rmlab.statevector as statevector
    from rmlab.statevector import _BlendHamiltonian, _SeriesBuffers, _exponential, _taylor_apply

    worst = 2.0 * statevector._STEP_BUDGET
    assert worst**32 / math.factorial(32) < 1e-16 and 32 <= statevector._TAYLOR_TERMS
    counts = statevector._INTEGRATOR_COUNTS
    v = random_state(2, np.random.default_rng(38)).amp
    before = counts["series_terms"]
    out = _taylor_apply(
        lambda w, out: np.multiply(worst, w, out=out), v, 1.0, _SeriesBuffers(v.shape, _BUDGET_FLOOR), worst, _re_dots(v, v)
    )
    assert counts["series_terms"] - before <= 32
    assert np.max(np.abs(out - np.exp(-1j * worst) * v)) < 1e-14
    # |B| tau exactly at the budget; all but 1e-6 of the weight on the top
    # level puts the shift there and |B - s| tau at 2 (1 - 2e-6) budgets.
    # On a block, the other column spreads its weight evenly
    levels = np.array([3.0, -3.0, -3.0, -3.0])
    top = np.sqrt([1.0 - 1e-6, 1e-6 / 3, 1e-6 / 3, 1e-6 / 3])
    for block in (False, True):
        w = (np.stack([top, np.full(4, 0.5)], axis=1) if block else top).astype(complex)
        part = np.stack([levels, levels], axis=1) if block else sparse.diags(levels).tocsr()
        ham = _BlendHamiltonian([(1.0, part)], 0.0)
        cs = ham.values(0.0)
        bound = _bound(ham, cs)
        tau = statevector._STEP_BUDGET / bound
        bufs = _SeriesBuffers(w.shape, _BUDGET_FLOOR)
        ham.bind(bufs, w)
        shift = ham.centred_matvec(cs, w, _re_dots(w, w))[1]
        assert np.max(np.abs(levels[1] - shift)) * tau > 1.999 * statevector._STEP_BUDGET
        before = counts["series_terms"]
        got = _exponential(ham, cs, tau, bound, w, bufs)
        assert counts["series_terms"] - before <= 32
        want = np.exp(-1j * tau * levels)[:, None] * w if block else np.exp(-1j * tau * levels) * w
        assert np.max(np.abs(got - want)) < 1e-14


def test_taylor_apply_leaves_its_input_alone():
    from rmlab.statevector import _SeriesBuffers, _taylor_apply

    v = random_state(3, np.random.default_rng(25)).amp
    block = np.stack([v, 1j * v], axis=1)
    for w in (v, block):
        kept = w.copy()
        # an operator that hands back its argument, leaving out alone: H = 1
        out = _taylor_apply(lambda u, out: u, w, 0.3, _SeriesBuffers(w.shape, _BUDGET_FLOOR), 0.3, _re_dots(w, w))
        assert np.max(np.abs(out - np.exp(-0.3j) * kept)) < 1e-15
        assert np.array_equal(w, kept)


def test_truncation_budget_shares_tol_under_the_drift_cap_and_clamp():
    from rmlab.statevector import _DRIFT_RATE, _NORM_TOL, _truncation_budget

    # (tol / 16) / (2 steps), the 2 steps exponentials at most tol / 16
    assert _truncation_budget(1e-9, 192) == pytest.approx(1e-9 / 16 / 384)
    # the norm drift's cap, 1e-9 / (0.08 steps), below the tol share
    assert _truncation_budget(1e-4, 300) == pytest.approx(1e-9 / 24)
    assert _truncation_budget(np.finfo(float).max, 20_000) == pytest.approx(1e-9 / 1600)
    # the clamp
    assert _truncation_budget(1e-20, 300) == 1e-16
    assert _truncation_budget(np.finfo(float).max, 1) == 1e-10
    # 2 steps exponentials at the drift rate stay within half of _NORM_TOL
    for tol in (1e-12, 1e-9, 1e-6, 1e-4, 1.0):
        for steps in (1, 96, 300, 1_000, 10_000, 10**6):
            assert 2 * steps * _DRIFT_RATE * _truncation_budget(tol, steps) <= _NORM_TOL / 2 * (1 + 1e-12)


def test_taylor_series_waits_for_every_column_to_reach_its_budget():
    # a unit column whose series converges fast beside a column of norm
    # 1e-8 whose series converges slowly: the one whole-block test, against
    # the smallest column's threshold, keeps the series going until the small
    # column is within the budget of its own norm too. A test against the
    # unit column's threshold would stop near term 8, with the small column
    # 6e-3 of its norm off
    import rmlab.statevector as statevector
    from rmlab.statevector import _SeriesBuffers, _taylor_apply

    levels = np.stack([np.array([0.2, -0.1, 0.15, -0.2]), np.array([2.0, -1.7, 1.1, -2.0])], axis=1)
    v = random_state(2, np.random.default_rng(26)).amp
    block = np.stack([v, 1e-8 * v[::-1]], axis=1)
    budget = 1e-10
    counts = statevector._INTEGRATOR_COUNTS
    before = counts["series_terms"]
    got = _taylor_apply(
        lambda w, out: np.multiply(levels, w, out=out), block, 1.0, _SeriesBuffers(block.shape, budget), 2.0,
        _re_dots(block, block),
    )
    assert 8 < counts["series_terms"] - before <= statevector._TAYLOR_TERMS
    err = np.linalg.norm(got - np.exp(-1j * levels) * block, axis=0)
    assert np.all(err <= budget * np.linalg.norm(block, axis=0))


def _recorded_runs(monkeypatch, evolve, reference):
    """(steps, budget, exponentials, state) of every run of steps that
    ``evolve()`` makes; with ``reference`` each exponential is the oracle
    series that stops at 1e-16, whatever the run's budget."""
    from oracles import allocating_exponential

    import rmlab.statevector as statevector

    counts = statevector._INTEGRATOR_COUNTS
    run_steps = statevector._run_steps
    runs = []

    def recorded(ham, amp, t0, t1, n, budget):
        before = counts["exponentials"]
        v = run_steps(ham, amp, t0, t1, n, budget)
        runs.append((n, budget, counts["exponentials"] - before, v))
        return v

    with monkeypatch.context() as m:
        m.setattr(statevector, "_run_steps", recorded)
        if reference:
            m.setattr(statevector, "_exponential", allocating_exponential)
        evolve()
    return runs


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
def test_series_at_the_run_budget_agree_with_the_floor_stop(tol, monkeypatch, pulsed_block):
    # a pulsed block on the certified 300 steps at the budget a run at tol
    # gives it, and an adiabatic sweep certified at tol: every run of steps
    # is within (its exponentials) x (its budget) per column of the same run
    # with every series stopped at 1e-16
    from rmlab.scenarios import prepare_adiabatic
    from rmlab.statevector import _norms, _truncation_budget

    psi, parts, t1 = pulsed_block(6, 4)
    budget = _truncation_budget(tol / 2, 300)
    cases = {
        "pulsed": lambda: evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=300, budget=budget),
        "adiabatic": lambda: prepare_adiabatic(6, 0.05, tol=tol),
    }
    for name, evolve in cases.items():
        fast = _recorded_runs(monkeypatch, evolve, reference=False)
        slow = _recorded_runs(monkeypatch, evolve, reference=True)
        # the same grids, and so the same budgets
        assert [run[:2] for run in fast] == [run[:2] for run in slow], name
        for (n, eps, exponentials, v), (*_, w) in zip(fast, slow):
            assert eps == _truncation_budget(tol / 2 if name == "pulsed" else tol, n)
            assert np.max(_norms(v - w)) <= exponentials * eps, name


def test_norm_drift_check_holds_at_the_loosest_budgets(pulsed_block):
    # the loosest tol validate accepts, any finite one, puts the pulsed
    # budget at the norm drift's cap: an L = 8, K = 10 block on its
    # certified 300 steps there (4.2e-11), an L = 6, K = 4 block on 10,000
    # steps there (1.25e-12; at the 1e-10 ceiling it drifted by 6.2e-9),
    # and the adiabatic sweep at tol 1e-9 (budget about 1.6e-13) all pass
    # evolve_blend's unchanged norm-drift check, 1e-9
    from rmlab.protocol import _certify_grid, _drive_operators
    from rmlab.pulses import golden_schedule
    from rmlab.scenarios import model_hamiltonian, prepare_adiabatic
    from rmlab.statevector import _NORM_TOL, _truncation_budget

    assert _NORM_TOL == 1e-9
    loosest = np.finfo(float).max
    psi, parts, t1 = pulsed_block(8, 10)
    drive = _drive_operators(8, model_hamiltonian(8))
    steps, budget, *_ = _certify_grid(psi, golden_schedule(), drive, loosest)
    assert steps == 300 and budget == _truncation_budget(loosest, 300) == pytest.approx(1e-9 / 24)
    states = evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=steps, budget=budget)
    assert len(states) == 10
    psi, parts, t1 = pulsed_block(6, 4)
    evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=10_000, budget=_truncation_budget(loosest, 10_000))
    prepare_adiabatic(8, 0.1, tol=1e-9)


def _per_part(parts, cs, v):
    """The per-part sum the fused operator replaces: sum_k c_k (A_k @ v)."""
    out = np.zeros_like(v)
    for c, (_, m) in zip(cs, parts):
        out = out + c * (m * v if isinstance(m, np.ndarray) else m @ v)
    return out


def _blend_diagonal(parts, cs, shape):
    """The diagonal of sum_k c_k A_k on a state of ``shape``, per column:
    row i of the per-part sum applied to the basis vector e_i."""
    rows = []
    for i in range(shape[0]):
        e = np.zeros(shape, dtype=complex)
        e[i] = 1.0
        rows.append(_per_part(parts, cs, e)[i])
    return np.real(rows)


def _blend_cases():
    """(parts, columns) covering every kind of part the fused operator sorts."""
    L, k = 3, 4
    rng = np.random.default_rng(26)
    model = build_ssh(L, 0.9, -0.4).to_sparse() + 0.7 * occupation(L, [1, 3])
    hop = build_ssh(L, 0.5, 0.2).to_sparse()
    y_sum = sum(dense(_word("Y", (m,), L)) for m in range(1, L + 1))
    y_sum = sparse.csr_matrix(y_sum)
    gains = 1.0 + 0.1 * rng.normal(size=k)
    shifts = rng.normal(size=(2**L, k))
    drive = lambda t: 1.3 * np.cos(2.0 * t)
    vector = [
        (1.0, model),  # diagonal and off-diagonal entries
        (drive, x_total(L)),  # no diagonal at all
        (lambda t: 0.4 + t, occupation(L, range(1, L + 1))),  # purely diagonal
        (0.3, hop),  # shares the pattern of model, another scalar coefficient
    ]
    block = [
        (lambda t: drive(t) * gains, x_total(L)),  # column-valued off-diagonal
        (lambda t: -0.8 * t * gains, occupation(L, range(1, L + 1))),
        (lambda t: 0.6 * np.sin(t), shifts),  # dense diagonal block
        (1.0, model),
    ]
    return {
        "vector real": (vector, None),
        "vector complex": (vector + [(lambda t: 0.2 * t, y_sum)], None),
        "vector no diagonal": ([(drive, x_total(L))], None),
        "block real": (block, k),
        "block complex": (block + [(0.5, y_sum)], k),
        "block complex column": (block + [(lambda t: t * gains, y_sum)], k),
        "block no diagonal": (block[:1], k),
    }


@pytest.mark.parametrize("case", sorted(_blend_cases()))
def test_fused_matvec_matches_per_part_sum(case):
    from rmlab.statevector import _BlendHamiltonian, _SeriesBuffers

    parts, columns = _blend_cases()[case]
    ham = _BlendHamiltonian(parts, 0.0)
    assert ham.columns == columns
    rng = np.random.default_rng(27)
    shape = (8,) if columns is None else (8, columns)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ham.bind(_SeriesBuffers(shape, _BUDGET_FLOOR), v)
    for t in (0.0, 0.37):
        cs = ham.values(t)
        kept = v.copy()
        got = ham.matvec(cs)(v, np.empty_like(v))
        assert np.array_equal(v, kept)
        want = _per_part(parts, cs, v)
        assert got.shape == v.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # the centred blend is B - s, s each column's diagonal energy
        weights = np.abs(v) ** 2
        energy = np.sum(weights * _blend_diagonal(parts, cs, shape), axis=0) / np.sum(weights, axis=0)
        mv, shift = ham.centred_matvec(cs, v, _re_dots(v, v))
        assert np.allclose(shift, energy, rtol=1e-13, atol=1e-14)
        got = mv(v, np.empty_like(v))
        assert np.array_equal(v, kept)
        assert np.linalg.norm(got + shift * v - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("columns", [None, 1, 5])
def test_csr_kernel_matches_scipy_matmul_byte_for_byte(kind, columns):
    # the kernel module is private to scipy: this pins the direct call to `@`
    from rmlab.statevector import _csr_product

    n = 16
    rng = np.random.default_rng(33)
    m = sparse.random(n, n, density=0.3, format="csr", rng=rng)
    if kind == "complex":
        m = (m + 1j * sparse.random(n, n, density=0.3, format="csr", rng=rng)).tocsr()
    shape = (n,) if columns is None else (n, columns)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a real matrix acts on the float view: real and imaginary parts as columns
    want = m @ v if kind == "complex" else (m @ v.reshape(n, -1).view(float)).view(complex).reshape(shape)
    product = _csr_product(m, shape, ())
    # into a zero block, as `@` makes it, the product is `@` byte for byte
    out = np.zeros(shape, dtype=complex)
    got = product(v, out)
    assert got is out
    assert got.tobytes() == want.tobytes()
    # the same between blocks bound at construction, whose views are made once
    bound_out = np.zeros(shape, dtype=complex)
    assert _csr_product(m, shape, (v, bound_out))(v, bound_out) is bound_out
    assert bound_out.tobytes() == want.tobytes()
    # into a filled block it is added, out0 + m @ v, in the kernel's own
    # order of additions: within a few ulps of the sizes summed
    out0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = out0.copy()
    assert product(v, out) is out
    size = np.abs(out0) + abs(m) @ np.abs(v)
    assert np.all(np.abs(out - (out0 + want)) <= 4 * np.finfo(float).eps * size)
    # an output that is not C-contiguous: its ravel would be a copy; a
    # block bound at construction is refused there
    strided = np.empty((n, 2 * (columns or 1)), dtype=complex)[:, ::2].reshape(shape)
    with pytest.raises(ValueError, match="C-contiguous"):
        product(v, strided)
    with pytest.raises(ValueError, match="C-contiguous"):
        _csr_product(m, shape, (strided,))
    # the kernel trusts sizes: a real or misshapen input or output is
    # refused, bound or not, and so is a shape the matrix does not fit
    for bad in (v.real.copy(), np.concatenate([v, v])):
        with pytest.raises(ValueError, match="sparse product of"):
            product(bad, out)
        with pytest.raises(ValueError, match="sparse product of"):
            product(v, bad)
        with pytest.raises(ValueError, match="sparse product of"):
            _csr_product(m, shape, (bad,))
    with pytest.raises(ValueError, match="cannot act on"):
        _csr_product(m, (2 * n,) + shape[1:], ())


# every amplitude of the centred, buffer-reusing series within this of the
# allocating, uncentred ones (1.0e-15 at most on an L = 8, K = 100 pulsed
# block at 300 steps)
_SERIES_TOL = 1e-14


@pytest.mark.parametrize("case", sorted(_blend_cases()) + ["pulsed block L8 K10"])
def test_series_match_the_allocating_terms(case, monkeypatch, pulsed_block):
    # the centred, buffer-reusing exponentials move amplitudes at roundoff
    # only: a chain of Taylor and Chebyshev series sharing one set of
    # buffers, and a whole evolution on the same grid
    from oracles import allocating_exponential

    import rmlab.statevector as statevector
    from rmlab.statevector import _BlendHamiltonian, _SeriesBuffers, _exponential

    if case in _blend_cases():
        parts, columns = _blend_cases()[case]
        psi, t1, steps = random_state(3, np.random.default_rng(35)), 1.0, 20
    else:
        psi, parts, t1 = pulsed_block(8, 10)
        columns, steps = 10, 300
    ham = _BlendHamiltonian(parts, 0.0)
    assert ham.columns == columns
    rng = np.random.default_rng(34)
    shape = ham.shape
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    kept = v.copy()
    bufs = _SeriesBuffers(shape, _BUDGET_FLOOR)
    ham.bind(bufs, v)
    new, old = v, v
    # |B| tau of 1.5 is one Taylor series, 20 one Chebyshev series
    for t, norm_tau in ((0.1, 1.5), (0.37, 20.0), (0.6, 1.5), (0.9, 20.0)):
        cs = ham.values(t * t1)
        bound = _bound(ham, cs)
        tau = norm_tau / bound
        new = _exponential(ham, cs, tau, bound, new, bufs)
        old = allocating_exponential(ham, cs, tau, bound, old)
        assert np.max(np.abs(new - old)) <= _SERIES_TOL
    assert np.array_equal(v, kept)
    fast = evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=steps)
    monkeypatch.setattr(statevector, "_exponential", allocating_exponential)
    slow = evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=steps)
    if columns is None:
        fast, slow = [fast], [slow]
    for a, b in zip(fast, slow, strict=True):
        assert np.max(np.abs(a.amp - b.amp)) <= _SERIES_TOL


@pytest.mark.parametrize("columns", [None, 3])
def test_coefficients_are_called_once_per_probe_and_gauss_node(columns):
    # rmbench's statevector.coeff_evals counts exactly these calls
    calls = []

    def drive(t):
        calls.append(t)
        return np.cos(t) if columns is None else np.cos(t) * np.ones(columns)

    psi = random_state(3, np.random.default_rng(28))
    parts = [(drive, x_total(3)), (0.5, occupation(3, [2]))]
    n = 7
    evolve_blend(psi, parts, 0.0, 1.0, tol=None, initial_steps=n)
    assert len(calls) == 1 + 2 * n


def test_evolve_conserves_magnetization():
    # hopping Hamiltonian commutes with total n
    h = build_ssh(4, 3.0, -1.1, j_nnn=0.25)
    psi = product_state([1, 0, 1, 0])
    ntot = PauliStringSum(4)
    for m in range(1, 5):
        ntot.add_term(0.5, _word("Z", (m,), 4))
        ntot.add_term(0.5, "I" * 4)
    before = expectation(psi, ntot)
    after = expectation(evolve_static(psi, h, 2.3), ntot)
    assert abs(before - after) < 1e-9


def test_ground_state_vs_dense():
    h = build_ssh(6, 3.04, -1.13, j_nnn=0.25, mu_edge=0.63)
    e, psi = ground_state(h)
    vals = eigh(dense_sum(h), eigvals_only=True)
    assert abs(e - vals[0]) < 1e-10
    assert abs(expectation(psi, h) - e) < 1e-9


def test_ground_state_degenerate_error():
    zz = PauliStringSum(2)
    zz.add_term(1.0, "ZZ")
    with pytest.raises(DegenerateGroundStateError):
        ground_state(zz)


def _sector_levels(h: PauliStringSum):
    """(lowest level, its sector's indices, its vector) per excitation-number
    sector, by an independent dense eigh of each block; H must conserve N."""
    L = h.num_sites
    hm = h.to_sparse()
    excitations = index_to_bits(np.arange(2**L), L).sum(axis=1)
    levels = []
    for n in range(L + 1):
        idx = np.flatnonzero(excitations == n)
        block = hm[idx][:, idx].toarray()
        vals, vecs = eigh(block.real if not block.imag.any() else block, subset_by_index=[0, 0])
        levels.append((vals[0], idx, vecs[:, 0]))
    return levels


def _check_against_sector_reference(h: PauliStringSum, tol: float) -> None:
    L = h.num_sites
    e, psi = ground_state(h)
    e_again, psi_again = ground_state(h)
    assert e == e_again and psi.amp.tobytes() == psi_again.amp.tobytes()
    e_ref, idx, vec = min(_sector_levels(h), key=lambda level: level[0])
    ref = np.zeros(2**L, dtype=complex)
    ref[idx] = vec
    ref *= np.vdot(ref, psi.amp) / abs(np.vdot(ref, psi.amp))
    assert abs(e - e_ref) < tol
    assert np.max(np.abs(psi.amp - ref)) < tol


def test_lanczos_ground_state_reproducible_and_exact():
    # at L = 12 the sectors of 495 to 924 states are above the dense cut
    # and take the Lanczos path; H conserves the excitation number, so an
    # independent dense eigh per sector gives the reference ground state
    from rmlab.scenarios import model_hamiltonian

    _check_against_sector_reference(model_hamiltonian(12), 1e-9)


def test_ground_state_at_fourteen_sites_reproducible_and_exact():
    # the largest chain: sectors of up to C(14, 7) = 3432 states
    from rmlab.scenarios import model_hamiltonian

    _check_against_sector_reference(model_hamiltonian(14), 1e-9)


def _assert_dense_ground(h: PauliStringSum) -> None:
    """ground_state against one dense complex eigh on the full space."""
    e, psi = ground_state(h)
    vals, vecs = eigh(h.to_sparse().toarray(), subset_by_index=[0, 1])
    assert vals[1] - vals[0] > 1e-6
    assert abs(e - vals[0]) < 1e-10
    assert state_fidelity(psi, StateVector(vecs[:, 0], h.num_sites)) >= 1 - 1e-12
    # the largest amplitude is rotated to the positive real axis
    top = psi.amp[np.argmax(np.abs(psi.amp))]
    assert abs(top.imag) < 1e-12 and top.real > 0


@pytest.mark.parametrize("phase", ["topological", "trivial"])
@pytest.mark.parametrize("L", [6, 8, 10])
def test_sector_ground_state_matches_full_space_eigh(L, phase):
    from rmlab.scenarios import model_hamiltonian

    _assert_dense_ground(model_hamiltonian(L, phase))


def test_degenerate_levels_in_different_sectors_raise():
    # hopping chain in a field: the lowest N = 1 and N = 2 levels cross at
    # this field, and each is the only low level of its own sector
    L = 4
    h = PauliStringSum(L)
    for m in range(1, L):
        h.add_term(1.0, _word("XX", (m, m + 1), L))
        h.add_term(1.0, _word("YY", (m, m + 1), L))
    for m in range(1, L + 1):
        h.add_term((np.sqrt(5) - 1) / 2, _word("Z", (m,), L))
    lows = sorted(level[0] for level in _sector_levels(h))
    assert lows[1] - lows[0] < 1e-12 and lows[2] - lows[0] > 1.0
    with pytest.raises(DegenerateGroundStateError):
        ground_state(h)


def test_transverse_field_breaks_sectors_and_keeps_the_dense_ground_state():
    from rmlab.scenarios import model_hamiltonian

    # one sector of 2^L states: dense at L = 8, Lanczos at L = 10
    for L in (8, 10):
        h = model_hamiltonian(L)
        for m in range(1, L + 1):
            h.add_term(0.7, _word("X", (m,), L))
        _assert_dense_ground(h)


def test_sector_blocks_are_real_unless_h_has_imaginary_entries(monkeypatch):
    from rmlab import statevector
    from rmlab.scenarios import model_hamiltonian

    kinds = []

    def spy(a, *args, **kwargs):
        kinds.append(a.dtype.kind)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(statevector, "eigh", spy)
    L = 8
    h = model_hamiltonian(L)
    ground_state(h)
    assert set(kinds) == {"f"}
    # a Dzyaloshinskii-Moriya term X Y - Y X conserves N but is imaginary
    for m in range(1, L):
        h.add_term(0.9, _word("XY", (m, m + 1), L))
        h.add_term(-0.9, _word("YX", (m, m + 1), L))
    assert h.to_sparse().data.imag.any()
    kinds.clear()
    _assert_dense_ground(h)
    assert set(kinds) == {"c"}
    _check_against_sector_reference(h, 1e-10)


def test_ground_state_phase_deterministic():
    h = build_ssh(4, 1.0, -0.4, mu_edge=0.2)
    _, a = ground_state(h)
    _, b = ground_state(h)
    assert np.max(np.abs(a.amp - b.amp)) == 0.0


def test_sampling_deterministic_and_calibrated():
    rng = np.random.default_rng(10)
    probs = np.abs(apply_local_unitaries(all_down(2), [[1, 3]])[:, 0]) ** 2
    idx = sample_basis_indices(probs, 4000, np.random.default_rng(77))
    idx2 = sample_basis_indices(probs, 4000, np.random.default_rng(77))
    assert np.array_equal(idx, idx2)
    # site 1 after a pi/2 X rotation is unbiased, site 2 stays down
    bits1 = (idx >> 1) & 1
    bits2 = idx & 1
    assert abs(bits1.mean() - 0.5) < 0.05
    assert bits2.sum() == 0


def _purity_oracle(amp, num_sites, sites):
    # independent partial-trace route: einsum over complement indices
    cube = amp.reshape((2,) * num_sites)
    axes = [s - 1 for s in sites]
    rest = [m for m in range(num_sites) if m not in axes]
    a = np.transpose(cube, axes + rest).reshape(2 ** len(axes), -1)
    rho = a @ a.conj().T
    return float(np.trace(rho @ rho).real)


def test_purity_against_oracle():
    rng = np.random.default_rng(6)
    psi = random_state(5, rng)
    for sites in ([1], [2, 3], [1, 4, 5], [5, 2]):
        got = exact_purity(psi, sites)
        ref = _purity_oracle(psi.amp, 5, list(sites))
        assert abs(got - ref) < 1e-12


def test_purity_product_and_bell():
    assert abs(exact_purity(product_state([1, 0, 1]), [1, 2]) - 1.0) < 1e-14
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), 2)
    assert abs(exact_purity(bell, [1]) - 0.5) < 1e-14
    assert abs(exact_purity(bell, [2]) - 0.5) < 1e-14
    # a state within StateVector's norm check, 1e-9, but whose reduced
    # trace is more than 1e-10 from 1
    off = StateVector(bell.amp * (1.0 + 5e-10), 2)
    with pytest.raises(NumericalContractError, match="trace"):
        exact_purity(off, [1])


def test_subsystem_validation():
    psi = all_down(4)
    with pytest.raises(ValueError):
        exact_purity(psi, [])
    with pytest.raises(ValueError):
        exact_purity(psi, [1, 1])
    with pytest.raises(ValueError):
        exact_purity(psi, [0])


def test_state_fidelity():
    a = product_state([0, 1])
    b = StateVector(apply_local_unitaries(a, [[3, 3]])[:, 0], 2)
    assert abs(state_fidelity(a, b) - 1.0) < 1e-14
