"""Pulse schedules, propagators, and the rotation figure of merit."""

import math

import numpy as np
import pytest
from scipy import sparse

from rmlab.pauli import ROTATION_MATRICES, TWO_PI, _word
from rmlab.pulses import (
    AMP_CAP,
    CalibrationError,
    ConstraintError,
    FluctuationModel,
    RealisticParams,
    TARGET_AXES,
    Waveform,
    axis_fidelity,
    _apply_gains,
    _half_merits,
    _magnus_step,
    _sigma_gains,
    calibrate,
    draw_gains,
    golden_schedule,
    mc_rotation_stats,
    _measured_axis,
    perturb,
    propagator_batch,
    realistic_schedule,
    schedule_from_json,
    schedule_to_json,
    single_qubit_propagator,
)
from rmlab.statevector import _GAUSS_OFF, evolve_blend

from oracles import dense, ideal_schedule, random_state


def ideal_rset():
    return [ROTATION_MATRICES[1], ROTATION_MATRICES[2], ROTATION_MATRICES[3]]


def half_merits(rset):
    """A_a/2 for one rotation set, through the pulses' shared overlap helper."""
    u = {a: np.asarray(m)[None] for a, m in zip((1, 2, 3), rset)}
    return np.array(_half_merits(u))[:, 0]


# ---------------------------------------------------------------------------
# Waveforms and schedule constraints
# ---------------------------------------------------------------------------


def test_trapezoid_shape():
    w = Waveform.trapezoid(0.15, 0.01, 0.05, 0.01, 4.0)
    assert w.value(0.005) == 0.0
    assert abs(w.value(0.015) - 2.0) < 1e-12  # halfway up the ramp
    assert w.value(0.03) == 4.0
    assert w.value(0.1) == 0.0
    assert abs(w.max_slew() - 400.0) < 1e-9


def test_zero_ramp_rejected():
    with pytest.raises(ConstraintError):
        Waveform.trapezoid(0.15, 0.01, 0.05, 0.0, 4.0)


def test_jump_waveform_slew_is_inf():
    w = Waveform(np.array([0.0, 0.05, 0.05, 0.1]), np.array([0.0, 0.0, 2.0, 2.0]))
    assert w.max_slew() == np.inf
    # interpolation inside segments is unaffected by the jump
    assert w.value(0.02) == 0.0
    assert w.value(0.08) == 2.0


def test_amplitude_cap_enforced():
    p = RealisticParams(omega_amp=AMP_CAP * 1.2)
    with pytest.raises(ConstraintError):
        realistic_schedule(p)


def test_default_realistic_is_feasible():
    s = realistic_schedule(RealisticParams())
    assert s.T == 0.15
    assert s.omega.max_abs() <= AMP_CAP
    s.validate_realistic()


# ---------------------------------------------------------------------------
# Ideal schedule and propagators
# ---------------------------------------------------------------------------


def test_ideal_schedule_structure():
    s = ideal_schedule(0.15, 30)
    assert abs(s.omega.value(0.04) - np.pi / 0.15) < 1e-12
    assert s.f.value(0.1) == 1.0
    assert s.delta.value(0.03) == 0.0
    plateau = s.delta.value(0.12)
    assert plateau < 0
    # phase area pi/2 mod 2pi, magnitude near ratio * omega
    area = abs(plateau) * 0.075
    assert abs((area - np.pi / 2) % (2 * np.pi)) < 1e-9
    assert abs(plateau) > 20 * np.pi / 0.15
    assert s.delta_amps[0] == 0.0
    assert s.delta_amps[1] == plateau


def test_zero_schedule_is_identity():
    from rmlab.pulses import PulseSchedule

    s = PulseSchedule(
        T=0.1,
        omega=Waveform.constant(0.0, 0.1),
        delta=Waveform.constant(0.0, 0.1),
        f=Waveform.constant(0.0, 0.1),
        delta_amps=(0.0, 0.0, 0.0),
    )
    for a in (1, 2, 3):
        assert np.allclose(single_qubit_propagator(s, a), np.eye(2))


@pytest.mark.parametrize("ratio", [10, 30, 100])
def test_ideal_label1_fidelity_bound(ratio):
    s = ideal_schedule(0.15, ratio)
    u = single_qubit_propagator(s, 1)
    assert axis_fidelity(u, 1) >= 1.0 - 10.0 / ratio**2


@pytest.mark.parametrize("ratio", [10, 30, 100])
def test_ideal_label3_leakage_bound(ratio):
    s = ideal_schedule(0.15, ratio)
    u = single_qubit_propagator(s, 3)
    # up-population starting from |down>
    assert abs(u[1, 0]) ** 2 <= 10.0 / ratio**2


def test_ideal_label2_axis_angle():
    s = ideal_schedule(0.15, 100)
    u = single_qubit_propagator(s, 2)
    cosang = _measured_axis(u) @ TARGET_AXES[2]
    assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) <= 2.0


def test_ratio_squared_convergence():
    errs = []
    for ratio in (10, 30, 100):
        s = ideal_schedule(0.15, ratio)
        errs.append(1.0 - axis_fidelity(single_qubit_propagator(s, 1), 1))
    # error drops by ~(ratio ratio)^2 each step
    assert errs[0] / errs[1] > 4.0
    assert errs[1] / errs[2] > 4.0


def test_propagator_unitarity():
    s = realistic_schedule(RealisticParams())
    for a in (1, 2, 3):
        u = single_qubit_propagator(s, a)
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) < 1e-10


def test_batch_matches_scalar_under_gains():
    s = realistic_schedule(RealisticParams())
    rng = np.random.default_rng(11)
    gains = draw_gains(FluctuationModel(eps_percent=3.0), rng, 3)
    for a in (1, 2, 3):
        batched = propagator_batch(s, a, gains, budget=0.005)
        for i in range(3):
            pert = _apply_gains(s, gains[i])
            ref = single_qubit_propagator(pert, a, tol=1e-11)
            assert np.linalg.norm(batched[i] - ref) < 1e-5


def _per_segment_propagators(schedule, label, gains, budget=0.02):
    """``propagator_batch`` before it became one vectorised path: a loop over
    segments read with one ``np.interp`` per point, one Magnus call per
    segment for a single gain row and one per substep for several."""

    def reduce_matmul(us):
        while us.shape[0] > 1:
            if us.shape[0] % 2:
                tail, us = us[-1:], us[:-1]
            else:
                tail = None
            us = np.einsum("nij,njk->nik", us[1::2], us[0::2])
            if tail is not None:
                us = np.concatenate([us, tail])
        return us[0]

    d_amp = schedule.delta_amps[label - 1]
    bps = schedule.breakpoints()
    gw, gd, gl = (1.0 + gains[:, k] for k in (0, 1, 1 + label))
    u = np.broadcast_to(np.eye(2, dtype=complex), (gains.shape[0], 2, 2)).copy()
    for t0, t1 in zip(bps[:-1], bps[1:]):
        eps = (t1 - t0) * 1e-9
        a, b = t0 + eps, t1 - eps
        w0, w1 = float(schedule.omega.value(a)), float(schedule.omega.value(b))
        dd0, dd1 = float(schedule.delta.value(a)), float(schedule.delta.value(b))
        ff0, ff1 = float(schedule.f.value(a)) * d_amp, float(schedule.f.value(b)) * d_amp
        if w0 == w1 and dd0 == dd1 and ff0 == ff1:
            n_steps = 1
        else:
            bound = max(abs(w0), abs(w1)) / 2 + max(abs(dd0) + abs(ff0), abs(dd1) + abs(ff1))
            n_steps = max(1, int(np.ceil(bound * (t1 - t0) / budget)))
        dt = (t1 - t0) / n_steps
        base = np.arange(n_steps) + 0.5
        pos_lo, pos_hi = (base - _GAUSS_OFF) / n_steps, (base + _GAUSS_OFF) / n_steps
        w_lo, w_hi = w0 + (w1 - w0) * pos_lo, w0 + (w1 - w0) * pos_hi
        dd_lo, dd_hi = dd0 + (dd1 - dd0) * pos_lo, dd0 + (dd1 - dd0) * pos_hi
        ff_lo, ff_hi = ff0 + (ff1 - ff0) * pos_lo, ff0 + (ff1 - ff0) * pos_hi
        if gains.shape[0] == 1:
            steps = _magnus_step(
                w_lo * gw[0], w_hi * gw[0],
                dd_lo * gd[0] - ff_lo * gl[0], dd_hi * gd[0] - ff_hi * gl[0], dt,
            )
            u = (reduce_matmul(steps) @ u[0])[None]
        else:
            for k in range(n_steps):
                d_lo = dd_lo[k] * gd - ff_lo[k] * gl
                d_hi = dd_hi[k] * gd - ff_hi[k] * gl
                u = _magnus_step(w_lo[k] * gw, w_hi[k] * gw, d_lo, d_hi, dt) @ u
    return u


def _gain_rows(kind):
    if kind == "one":
        return np.zeros((1, 5))
    if kind == "sigma":
        return _sigma_gains(3.0)
    return draw_gains(FluctuationModel(eps_percent=3.0), np.random.default_rng(12), 200)


@pytest.mark.parametrize("rows", ["one", "sigma", "random"])
@pytest.mark.parametrize("family", ["golden", "realistic"])
def test_propagator_batch_matches_the_per_segment_loop(family, rows):
    # one closed-form call over every substep of every row changes only the
    # order of the products, so results move at roundoff
    s = golden_schedule() if family == "golden" else realistic_schedule(RealisticParams())
    gains = _gain_rows(rows)
    for a in (1, 2, 3):
        batch = propagator_batch(s, a, gains)
        assert batch.shape == (gains.shape[0], 2, 2)
        assert np.max(np.abs(batch - _per_segment_propagators(s, a, gains))) < 1e-13


def test_propagator_batch_chunks_rows_without_changing_bits(monkeypatch):
    import rmlab.pulses as pulses

    s = golden_schedule()
    gains = _gain_rows("random")
    shapes = []
    reduce_matmul = pulses._reduce_matmul

    def spy(us):
        shapes.append(us.shape[:2])  # (substeps, rows)
        return reduce_matmul(us)

    monkeypatch.setattr(pulses, "_reduce_matmul", spy)
    for a in (1, 2, 3):
        with monkeypatch.context() as m:
            m.setattr(pulses, "_BLOCK_SUBSTEPS", 2**40)
            whole = propagator_batch(s, a, gains)
        substeps = shapes[-1][0]
        assert shapes == [(substeps, 200)]
        shapes.clear()
        with monkeypatch.context() as m:
            m.setattr(pulses, "_BLOCK_SUBSTEPS", 37 * substeps + 5)
            chunked = propagator_batch(s, a, gains)
        assert [rows for _, rows in shapes] == [37] * 5 + [15]
        assert chunked.tobytes() == whole.tobytes()
        shapes.clear()


def test_propagator_batch_of_no_rows_is_empty():
    for a in (1, 2, 3):
        assert propagator_batch(golden_schedule(), a, np.zeros((0, 5))).shape == (0, 2, 2)


def test_multisite_evolution_factorizes():
    # the many-body integrator with no interactions must reproduce the
    # kron of single-site propagators (independent code paths)
    s = ideal_schedule(0.15, 30)
    labels = (1, 2)
    L = 2
    rng = np.random.default_rng(5)
    psi = random_state(L, rng)
    xt = sum(dense(_word("X", (m,), L)) for m in (1, 2))
    bits = np.array(
        [[(i >> (L - 1 - m)) & 1 for i in range(2**L)] for m in range(L)], float
    )
    nt = np.diag(bits.sum(axis=0))
    nw = np.diag(sum(s.delta_amps[labels[m] - 1] * bits[m] for m in range(L)))
    parts = [
        (lambda t: s.omega.value(t) / 2, sparse.csr_matrix(xt)),
        (lambda t: -s.delta.value(t), sparse.csr_matrix(nt)),
        (lambda t: s.f.value(t), sparse.csr_matrix(nw)),
    ]
    out = psi
    bps = s.breakpoints()
    for t0, t1 in zip(bps[:-1], bps[1:]):
        out = evolve_blend(out, parts, float(t0), float(t1), tol=1e-10)
    ref = np.kron(
        single_qubit_propagator(s, 1), single_qubit_propagator(s, 2)
    ) @ psi.amp
    assert np.max(np.abs(out.amp - ref)) < 1e-8


# ---------------------------------------------------------------------------
# Figure of merit
# ---------------------------------------------------------------------------


def test_fom_ideal_set_exactly_one():
    # A_a = 1, so A_a/2 = 1/2, for every label
    assert np.allclose(half_merits(ideal_rset()), 0.5, atol=1e-12)


def test_fom_coinciding_rotations():
    # U_2 = U_3 makes the overlap of label 1 one: A_1 = 2
    a1 = half_merits([ROTATION_MATRICES[1], np.eye(2), np.eye(2)])[0]
    assert abs(a1 - 1.0) < 1e-12


def test_fom_global_phase_invariance():
    # a left-diagonal z-phase, global phase included, is invisible to
    # z-basis readout and to A_a
    rset = ideal_rset()
    shifted = [
        np.diag(np.exp(1j * np.array([0.37, -0.8]))) @ rset[0],
        np.exp(-1j * 1.1) * rset[1],
        np.diag(np.exp(1j * np.array([2.1, 0.4]))) @ rset[2],
    ]
    assert np.allclose(half_merits(rset), half_merits(shifted), atol=1e-12)


def test_mc_rotation_stats_deterministic():
    s = realistic_schedule(RealisticParams())
    a = mc_rotation_stats(s, 3.0, 200, np.random.default_rng(9))
    b = mc_rotation_stats(s, 3.0, 200, np.random.default_rng(9))
    assert a.half_means == b.half_means
    assert a.half_stds == b.half_stds


# ---------------------------------------------------------------------------
# Fluctuations
# ---------------------------------------------------------------------------


def test_perturb_zero_noise_identical():
    s = realistic_schedule(RealisticParams())
    p = perturb(s, FluctuationModel(eps_percent=0.0), np.random.default_rng(1))
    assert np.array_equal(p.omega.values, s.omega.values)
    assert p.delta_amps == s.delta_amps


def test_perturb_std_three_percent():
    s = realistic_schedule(RealisticParams())
    rng = np.random.default_rng(2)
    model = FluctuationModel(eps_percent=3.0)
    peaks = [
        perturb(s, model, rng).omega.max_abs() for _ in range(10_000)
    ]
    rel = np.std(peaks) / s.omega.max_abs()
    assert 0.028 <= rel <= 0.032


def test_perturb_seeded_identical():
    s = realistic_schedule(RealisticParams())
    a = perturb(s, FluctuationModel(eps_percent=3.0), np.random.default_rng(5))
    b = perturb(s, FluctuationModel(eps_percent=3.0), np.random.default_rng(5))
    assert np.array_equal(a.omega.values, b.omega.values)
    assert a.delta_amps == b.delta_amps


def test_fluctuation_model_validation():
    with pytest.raises(ValueError):
        FluctuationModel(eps_percent=-1.0)
    with pytest.raises(ValueError):
        FluctuationModel(scope="per_run")


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_fluctuation_model_rejects_non_finite_eps(eps):
    # validate rejects these configs; the model itself agrees
    with pytest.raises(ValueError, match="finite"):
        FluctuationModel(eps_percent=eps)


# ---------------------------------------------------------------------------
# JSON round trip and calibration entry points
# ---------------------------------------------------------------------------


def test_schedule_json_round_trip():
    s = realistic_schedule(RealisticParams())
    back = schedule_from_json(schedule_to_json(s))
    assert back.T == s.T
    assert back.delta_amps == s.delta_amps
    t = np.linspace(0, s.T, 37)
    # trapezoids whose corners are off-grid pick up one-cell smearing at most
    assert np.max(np.abs(back.omega.value(t) - s.omega.value(t))) < 0.25


def test_schedule_json_rejects_bad_units():
    import json

    doc = json.loads(schedule_to_json(realistic_schedule(RealisticParams())))
    doc["units"] = "MHz"
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(doc))


def test_calibrate_infeasible_start():
    with pytest.raises(CalibrationError):
        calibrate(RealisticParams(omega_amp=AMP_CAP * 2))


def test_calibrate_deterministic_short():
    a = calibrate(maxiter=30, fidelity_floor=0.0)
    b = calibrate(maxiter=30, fidelity_floor=0.0)
    assert np.array_equal(a.params.to_vector(), b.params.to_vector())
    assert a.fidelities == b.fidelities


@pytest.mark.slow
def test_calibrate_reaches_floor_from_default_start():
    res = calibrate(fidelity_floor=0.995, maxiter=4000)
    assert min(res.fidelities) >= 0.995
