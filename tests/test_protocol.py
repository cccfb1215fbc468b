"""Experiment orchestration: sampling, readout errors, records, NDJSON."""

import base64
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from rmlab.estimators import hamiltonian_variance, purity_estimate
from rmlab.pauli import TWO_PI, build_ssh
from rmlab.protocol import (
    EXACT_SHOTS,
    MeasurementRecord,
    ReadoutErrorModel,
    _certify_grid,
    _drive_operators,
    _pulsed_parts,
    apply_readout_errors,
    apply_readout_to_probs,
    load_record,
    run_ideal,
    run_pulsed,
    sample_unitaries,
    save_record,
)
from rmlab.pulses import _SIGMA_WEIGHTS, FluctuationModel, golden_schedule
from rmlab.statevector import _BUDGET_FLOOR, _truncation_budget, evolve_blend, ground_state

from oracles import random_state


# ---------------------------------------------------------------------------
# Unitary sampling
# ---------------------------------------------------------------------------


def test_label_frequencies_uniform():
    # 4 sigma binomial window around 1/3 at 3e4 draws
    labels = sample_unitaries(1, 30_000, np.random.default_rng(0))[:, 0]
    for lab in (1, 2, 3):
        freq = np.mean(labels == lab)
        assert 0.323 <= freq <= 0.343


def test_sampling_reproducible():
    a = sample_unitaries(4, 2, np.random.default_rng(99))
    b = sample_unitaries(4, 2, np.random.default_rng(99))
    assert a.dtype == np.int8 and a.shape == (2, 4)
    assert np.array_equal(a, b)


def test_bad_labels_rejected(golden, monkeypatch):
    # both runs apply the one label rule before any rotation or evolution
    import rmlab.protocol as protocol

    def forbidden(*args, **kwargs):
        raise AssertionError("a run rotated or evolved a bad label")

    monkeypatch.setattr(protocol, "apply_local_unitaries", forbidden)
    monkeypatch.setattr(protocol, "evolve_blend", forbidden)
    psi = random_state(2, np.random.default_rng(0))
    drive = _drive_operators(2, None)
    for bad in (0, 4):
        labels = np.array([[1, 2], [3, bad]], dtype=np.int8)
        for n_meas in (EXACT_SHOTS, 10):
            with pytest.raises(ValueError, match="labels must be integers in"):
                run_ideal(psi, labels, n_meas)
            for fluct in (FluctuationModel(3.0), FluctuationModel(3.0, scope="per_shot")):
                with pytest.raises(ValueError, match="labels must be integers in"):
                    run_pulsed(psi, labels, golden, 300, 1e-10, drive, fluct=fluct, n_meas=n_meas)
    with pytest.raises(ValueError):
        sample_unitaries(3, 0, np.random.default_rng(0))


def test_label_table_of_the_wrong_width_rejected_by_both_runs(golden, monkeypatch):
    # the one label rule checks the table's shape too: both runs raise the
    # same error before any rotation, evolution or gain draw
    import rmlab.protocol as protocol

    def forbidden(*args, **kwargs):
        raise AssertionError("a run went on with a malformed label table")

    for name in ("apply_local_unitaries", "evolve_blend", "perturb"):
        monkeypatch.setattr(protocol, name, forbidden)
    psi = random_state(2, np.random.default_rng(0))
    drive = _drive_operators(2, None)
    for labels in (np.array([[1, 2, 3]]), np.array([[1]])):
        match = rf"label length differs from num_sites: \(1, {labels.shape[1]}\) is not \(N_U, 2\)"
        for n_meas in (EXACT_SHOTS, 10):
            with pytest.raises(ValueError, match=match):
                run_ideal(psi, labels, n_meas)
            for fluct in (FluctuationModel(3.0), FluctuationModel(3.0, scope="per_shot")):
                with pytest.raises(ValueError, match=match):
                    run_pulsed(psi, labels, golden, 300, 1e-10, drive, fluct=fluct, n_meas=n_meas)
        with pytest.raises(ValueError, match=match):
            MeasurementRecord(2, "ideal", EXACT_SHOTS, labels, [[1.0, 0.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Readout errors
# ---------------------------------------------------------------------------


def test_zero_model_is_identity():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=(50, 6))
    out = apply_readout_errors(bits, ReadoutErrorModel(), rng)
    assert np.array_equal(out, bits)


def test_flip_rates_within_binomial_windows():
    rng = np.random.default_rng(2)
    model = ReadoutErrorModel(0.01, 0.03)
    ones = np.ones((10_000, 10), dtype=int)
    rate_down = 1.0 - apply_readout_errors(ones, model, rng).mean()
    assert 0.028 <= rate_down <= 0.032
    zeros = np.zeros((10_000, 10), dtype=int)
    rate_up = apply_readout_errors(zeros, model, rng).mean()
    assert 0.0088 <= rate_up <= 0.0112


def test_model_validation():
    with pytest.raises(ValueError):
        ReadoutErrorModel(p_up_given_down=1.0)
    with pytest.raises(ValueError):
        ReadoutErrorModel(p_down_given_up=-0.1)


def test_probability_transform_matches_sampling_channel():
    # push-through of a delta distribution reproduces the flip matrix rows
    model = ReadoutErrorModel(0.2, 0.4)
    p = np.array([1.0, 0.0])
    assert np.allclose(apply_readout_to_probs(p, model, 1), [0.8, 0.2])
    p = np.array([0.0, 1.0])
    assert np.allclose(apply_readout_to_probs(p, model, 1), [0.4, 0.6])


def test_readout_commutes_with_marginalization():
    # flip channel is a product channel, so tracing out site 2 first or
    # last gives the same site-1 marginal
    rng = np.random.default_rng(3)
    p = rng.random(4)
    p /= p.sum()
    model = ReadoutErrorModel(0.07, 0.13)
    flipped = apply_readout_to_probs(p, model, 2)
    lhs = flipped.reshape(2, 2).sum(axis=1)
    rhs = apply_readout_to_probs(p.reshape(2, 2).sum(axis=1), model, 1)
    assert np.allclose(lhs, rhs, atol=1e-15)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def _toy_record() -> MeasurementRecord:
    return MeasurementRecord(
        num_sites=2, mode="ideal", n_meas=5,
        labels=[[1, 2], [3, 3]], outcomes=[[3, 0, 0, 2], [0, 5, 0, 0]], seeds=[0, 1],
    )


def _same_outcomes(a: MeasurementRecord, b: MeasurementRecord) -> bool:
    return np.array_equal(a.outcomes, b.outcomes)


def test_record_validates_count_sums():
    with pytest.raises(ValueError, match="sum to n_meas"):
        MeasurementRecord(
            num_sites=2,
            mode="ideal",
            n_meas=4,
            labels=[[1, 2], [1, 1]],
            outcomes=[[4, 0, 0, 0], [3, 0, 0, 0]],
        )


def test_record_rejects_unnormalized_probs():
    with pytest.raises(ValueError, match="sum to one"):
        MeasurementRecord(
            num_sites=1,
            mode="ideal",
            n_meas=EXACT_SHOTS,
            labels=[[1], [2]],
            outcomes=[[0.5, 0.5], [0.5, 0.6]],
        )


@pytest.mark.parametrize(
    "n_meas, outcomes",
    [
        (EXACT_SHOTS, [math.nan, 0.5, 0.5, 0.0]),
        (EXACT_SHOTS, [math.inf, 0.5, 0.5, 0.0]),
        (EXACT_SHOTS, [math.inf, -math.inf, 1.0, 0.0]),
        (2, [math.inf, 0.0, 0.0, 0.0]),
    ],
)
def test_record_rejects_non_finite_outcomes(n_meas, outcomes):
    with pytest.raises(ValueError, match="finite"):
        MeasurementRecord(
            num_sites=2,
            mode="ideal",
            n_meas=n_meas,
            labels=[[1, 2]],
            outcomes=[outcomes],
        )


@pytest.mark.parametrize("outcomes", [[3, -1, 0, 0], [1.5, 0.5, 0, 0]])
def test_record_rejects_counts_that_are_not_whole_shots(outcomes):
    with pytest.raises(ValueError, match="non-negative whole numbers"):
        MeasurementRecord(
            num_sites=2,
            mode="ideal",
            n_meas=2,
            labels=[[1, 2]],
            outcomes=[outcomes],
        )


@pytest.mark.parametrize(
    "labels, outcomes, seeds, match",
    [
        ([1, 2], [[2, 0, 0, 0]], None, "label length"),
        ([[1, 2, 3]], [[2, 0, 0, 0]], None, "label length"),
        ([[1.5, 2]], [[2, 0, 0, 0]], None, "integers"),
        ([[1, 300]], [[2, 0, 0, 0]], None, "integers"),
        ([[0, 4]], [[2, 0, 0, 0]], None, "integers"),
        ([[1, 2]], [[2, 0, 0, 0, 0, 0, 0, 0]], None, "2\\^num_sites"),
        ([[1, 2], [3, 3]], [[2, 0, 0, 0]], None, "2\\^num_sites"),
        ([[1, 2]], [[2, 0, 0, 0]], [0, 1], "one seed per"),
    ],
    ids=[
        "flat_labels", "long_labels", "fractional_label", "label_past_int8", "label_out_of_range", "long_row",
        "missing_row", "extra_seed",
    ],
)
def test_record_rejects_a_malformed_table(labels, outcomes, seeds, match):
    with pytest.raises(ValueError, match=match):
        MeasurementRecord(2, "ideal", 2, labels, outcomes, seeds)


def test_record_holds_one_table():
    rec = MeasurementRecord(2, "ideal", 3, [[1, 3], [2, 2]], [[2, 0, 1, 0], [0, 0, 0, 3]], [4, 5])
    assert rec.labels.dtype == np.int8 and rec.labels.tolist() == [[1, 3], [2, 2]]
    assert rec.outcomes.dtype == np.float64 and rec.outcomes.flags.c_contiguous
    assert rec.outcomes.tolist() == [[2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 3.0]]
    assert rec.seeds.tolist() == [4, 5] and rec.n_unitaries == 2


def test_record_outcomes_are_a_read_only_copy():
    # the Walsh table built from outcomes on first use cannot go stale
    counts = np.array([[2.0, 0.0, 1.0, 0.0]])
    rec = MeasurementRecord(2, "ideal", 3, [[1, 3]], counts)
    with pytest.raises(ValueError, match="read-only"):
        rec.outcomes[0, 0] = 3.0
    counts[0, :2] = [0.0, 2.0]
    assert rec.outcomes.tolist() == [[2.0, 0.0, 1.0, 0.0]]


def test_subset_picks_entries():
    rec = _toy_record()
    sub = rec.subset([1])
    assert sub.n_unitaries == 1
    assert sub.labels.tolist() == [[3, 3]] and sub.seeds.tolist() == [1]
    assert sub.outcomes.tolist() == [[0, 5, 0, 0]]
    assert sub.n_meas == rec.n_meas
    assert rec.subset([]).n_unitaries == 0


# ---------------------------------------------------------------------------
# Ideal runs
# ---------------------------------------------------------------------------


def test_exact_mode_distributions_are_normalized():
    rng = np.random.default_rng(4)
    psi = random_state(3, rng)
    rec = run_ideal(psi, sample_unitaries(3, 5, rng), EXACT_SHOTS)
    assert np.abs(rec.outcomes.sum(axis=1) - 1.0).max() < 1e-12
    assert rec.outcomes.min() >= -1e-15


def test_exact_mode_marginalization_consistency():
    rng = np.random.default_rng(5)
    psi = random_state(4, rng)
    rec = run_ideal(psi, sample_unitaries(4, 3, rng), EXACT_SHOTS)
    for row in rec.outcomes:
        joint = row.reshape(4, 4)
        # site-(1,2) marginal from the full distribution
        assert np.allclose(joint.sum(axis=1).sum(), 1.0, atol=1e-12)
        assert np.allclose(
            joint.sum(axis=1), row.reshape(2, 2, 2, 2).sum(axis=(2, 3)).reshape(-1)
        )


def test_run_ideal_seed_determinism():
    rng = np.random.default_rng(6)
    psi = random_state(3, rng)
    labels = sample_unitaries(3, 4, rng)
    readout = ReadoutErrorModel(0.01, 0.03)
    a = run_ideal(psi, labels, 50, readout=readout, seed=17)
    b = run_ideal(psi, labels, 50, readout=readout, seed=17)
    c = run_ideal(psi, labels, 50, readout=readout, seed=18)
    assert _same_outcomes(a, b)
    assert not _same_outcomes(a, c)


def test_run_ideal_counts_shape():
    rng = np.random.default_rng(7)
    psi = random_state(2, rng)
    rec = run_ideal(psi, sample_unitaries(2, 3, rng), 25, seed=0)
    assert rec.n_meas == 25
    assert rec.outcomes.shape == (3, 4) and (rec.outcomes.sum(axis=1) == 25).all()
    # row k's stream key is its seed
    assert rec.seeds.tolist() == [0, 1, 2]


def test_invalid_n_meas_rejected():
    rng = np.random.default_rng(8)
    psi = random_state(2, rng)
    labels = sample_unitaries(2, 1, rng)
    with pytest.raises(ValueError):
        run_ideal(psi, labels, 0)
    with pytest.raises(ValueError):
        run_ideal(psi, labels, 12.5)
    with pytest.raises(ValueError):
        run_ideal(psi, labels, True)


def test_empty_sample_list_rejected_by_both_runs():
    psi = random_state(2, np.random.default_rng(8))
    with pytest.raises(ValueError, match="at least one unitary sample"):
        run_ideal(psi, [], 10)
    with pytest.raises(ValueError, match="at least one unitary sample"):
        run_ideal(psi, [], EXACT_SHOTS)
    drive = _drive_operators(2, None)
    for fluct in (FluctuationModel(3.0), FluctuationModel(3.0, scope="per_shot")):
        with pytest.raises(ValueError, match="at least one unitary sample"):
            run_pulsed(psi, [], golden_schedule(), 300, 1e-10, drive, fluct=fluct, n_meas=10)


def _per_column_ideal(psi, labels, n_meas, readout, seed):
    """The per-entry loop that the block rotation replaced: each label
    row's state rotated on its own (a label-3 site skipped), then its own
    readout push or its (seed, k) stream's shots and flips; as a record."""
    from rmlab.pauli import ROTATION_MATRICES
    from rmlab.protocol import _stream
    from rmlab.statevector import apply_site_matrices, bits_to_index, index_to_bits, sample_basis_indices

    L = psi.num_sites
    rows = []
    for k, row in enumerate(labels.tolist()):
        matrices = [None if lab == 3 else ROTATION_MATRICES[lab] for lab in row]
        probs = np.abs(apply_site_matrices(psi.amp, matrices)) ** 2
        if n_meas == EXACT_SHOTS:
            rows.append(probs if readout is None else apply_readout_to_probs(probs, readout, L))
            continue
        rng = _stream(seed, k)
        idx = sample_basis_indices(probs, n_meas, rng)
        if readout is not None:
            idx = bits_to_index(apply_readout_errors(index_to_bits(idx, L), readout, rng))
        rows.append(np.bincount(idx, minlength=2**L))
    return MeasurementRecord(
        L, "ideal", n_meas, labels, rows,
        None if n_meas == EXACT_SHOTS else list(range(len(labels))),
        {"seed": seed, "readout": None if readout is None else [readout.p_up_given_down, readout.p_down_given_up]},
    )


@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 300])
@pytest.mark.parametrize("readout", [None, ReadoutErrorModel(0.01, 0.03)], ids=["no_flips", "flips"])
@pytest.mark.parametrize("width", [None, 7], ids=["one_block", "blocks_of_7"])
def test_block_rotation_matches_the_per_column_loop(tmp_path, monkeypatch, n_meas, readout, width):
    # the block rotation and the whole-table readout push give the records
    # of the per-entry path byte for byte, in one block or split in three
    import rmlab.protocol as protocol

    psi = random_state(6, np.random.default_rng(49))
    labels = sample_unitaries(6, 20, np.random.default_rng(50))
    if width is not None:
        monkeypatch.setattr(protocol, "_BLOCK_AMPLITUDES", width * 2**6)
    got = run_ideal(psi, labels, n_meas, readout=readout, seed=51)
    want = _per_column_ideal(psi, labels, n_meas, readout, 51)
    assert got.outcomes.tobytes() == want.outcomes.tobytes()
    save_record(got, tmp_path / "got.ndjson")
    save_record(want, tmp_path / "want.ndjson")
    assert (tmp_path / "got.ndjson").read_bytes() == (tmp_path / "want.ndjson").read_bytes()


# ---------------------------------------------------------------------------
# Pulsed runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return golden_schedule()


def _run(psi, labels, schedule, tol=1e-6, h_mod=None, budget=None, **kwargs):
    """run_pulsed on the step count and series budget that the probe
    certifies at tol, with drive operators built once, as a CLI run does;
    a ``budget`` replaces the certified budget."""
    drive = _drive_operators(psi.num_sites, h_mod)
    steps, certified, _ = _certify_grid(psi, schedule, drive, tol)
    return run_pulsed(psi, labels, schedule, steps, certified if budget is None else budget, drive, **kwargs)


def _probe(L):
    """The golden schedule's probe pattern: label 3 (largest |d|) at odd
    sites, label 1 (d = 0, the smallest) at even ones."""
    return np.array([(3, 1)[m % 2] for m in range(L)])


def _evolve_columns(psi, h, schedule, columns, steps, budget=_BUDGET_FLOOR):
    """The amplitudes of each (schedule, label row) column on ``steps``
    steps with series stopped at ``budget``, one row per column."""
    parts = _pulsed_parts(schedule, columns, _drive_operators(psi.num_sites, h))
    states = evolve_blend(psi, parts, 0.0, schedule.T, tol=None, initial_steps=steps, budget=budget)
    return np.array([state.amp for state in (states if len(columns) > 1 else [states])])


def _probe_distance(psi, h, schedule, steps, tol=None):
    """The probe column's distance between runs on steps and 2 steps, with
    series stopped at the floor, or with ``tol`` at the budgets that
    ``_certify_grid`` gives those runs."""
    coarse, fine = (
        _evolve_columns(
            psi, h, schedule, [(schedule, _probe(psi.num_sites))], n,
            _BUDGET_FLOOR if tol is None else _truncation_budget(tol / 2, n),
        )[0]
        for n in (steps, 2 * steps)
    )
    return float(np.linalg.norm(coarse - fine))


def test_pulsed_noise_free_approximates_ideal(golden):
    # calibrated rotations are within ~0.005 axis infidelity of ideal, so
    # each outcome distribution sits close to the ideal one
    rng = np.random.default_rng(9)
    psi = random_state(2, rng)
    labels = sample_unitaries(2, 4, rng)
    pulsed = _run(psi, labels, golden, n_meas=EXACT_SHOTS)
    ideal = run_ideal(psi, labels, EXACT_SHOTS)
    for a, b in zip(pulsed.outcomes, ideal.outcomes):
        assert 0.5 * np.abs(a - b).sum() < 0.2


def test_pulsed_determinism_with_noise(golden):
    rng = np.random.default_rng(10)
    psi = random_state(2, rng)
    labels = sample_unitaries(2, 2, rng)
    kwargs = dict(
        fluct=FluctuationModel(3.0),
        n_meas=30,
        readout=ReadoutErrorModel(0.01, 0.03),
        seed=5,
    )
    a = _run(psi, labels, golden, **kwargs)
    b = _run(psi, labels, golden, **kwargs)
    assert _same_outcomes(a, b)
    assert a.meta["steps"] == b.meta["steps"]


def test_pulsed_keeps_nominal_labels(golden):
    rng = np.random.default_rng(11)
    psi = random_state(2, rng)
    labels = sample_unitaries(2, 3, rng)
    rec = _run(psi, labels, golden, fluct=FluctuationModel(5.0), n_meas=10)
    assert rec.labels.dtype == np.int8 and np.array_equal(rec.labels, labels)


def test_per_shot_scope_runs_sampled(golden):
    rng = np.random.default_rng(13)
    psi = random_state(2, rng)
    rec = _run(
        psi, sample_unitaries(2, 1, rng), golden,
        fluct=FluctuationModel(3.0, scope="per_shot"),
        n_meas=4,
        seed=1,
    )
    assert rec.outcomes[0].sum() == 4


def _dimer_state(L):
    h = build_ssh(L, 0.484 * 2 * np.pi, -0.18 * 2 * np.pi, 0.04 * 2 * np.pi)
    return h, ground_state(h)[1]


def _block_mixture(psi, h, row, schedule, columns, weights, steps):
    """sum_j weights[j] |psi evolved under columns[j]|^2, one block, all
    under the label row ``row``."""
    amps = _evolve_columns(psi, h, schedule, [(s, row) for s in columns], steps)
    return np.asarray(weights) @ np.abs(amps) ** 2


def _tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def test_per_shot_mixture_matches_tensor_gauss_hermite(golden):
    # the 11 sigma points against the 3^5-point tensor rule of the same
    # per-channel nodes, which integrates every cross term of the gains
    import itertools

    from rmlab.pulses import _apply_gains

    h, psi = _dimer_state(6)
    labels = sample_unitaries(6, 1, np.random.default_rng(21))
    eps = 3.0
    rec = _run(
        psi, labels, golden, fluct=FluctuationModel(eps, scope="per_shot"), h_mod=h,
        n_meas=EXACT_SHOTS, tol=1e-4,
    )
    assert rec.meta["mixture_clipped"] == 0.0
    step = math.sqrt(3.0) * eps / 100.0
    nodes = ((0.0, 2.0 / 3.0), (step, 1.0 / 6.0), (-step, 1.0 / 6.0))
    grid = list(itertools.product(nodes, repeat=5))
    columns = [_apply_gains(golden, np.array([g for g, _ in point])) for point in grid]
    weights = [math.prod(w for _, w in point) for point in grid]
    tensor = _block_mixture(psi, h, labels[0], golden, columns, weights, rec.meta["steps"])
    assert _tv(rec.outcomes[0], tensor) < 5e-4


def test_per_shot_mixture_is_the_mean_over_per_shot_gain_draws(golden):
    # the distribution the per-shot loop sampled: one perturb per shot
    # from the (seed, k) stream, averaged here over 2,000 draws (without
    # interactions, which the tensor-rule test covers, to keep it fast)
    from rmlab.protocol import _stream
    from rmlab.pulses import perturb

    _, psi = _dimer_state(4)
    labels = sample_unitaries(4, 1, np.random.default_rng(22))
    fluct = FluctuationModel(3.0, scope="per_shot")
    rec = _run(psi, labels, golden, fluct=fluct, n_meas=EXACT_SHOTS, seed=5, tol=1e-4)
    steps = rec.meta["steps"]
    rng = _stream(5, 0)
    draws = [perturb(golden, fluct, rng) for _ in range(2000)]
    mean = _block_mixture(psi, None, labels[0], golden, draws, [1.0 / len(draws)] * len(draws), steps)
    nominal = _block_mixture(psi, None, labels[0], golden, [golden], [1.0], steps)
    bound = 3e-3
    assert _tv(rec.outcomes[0], mean) < bound
    # the gain noise moves the distribution well beyond the bound
    assert _tv(rec.outcomes[0], nominal) > 3 * bound


def test_per_shot_shots_sample_the_records_own_mixture(golden):
    from scipy.special import gammaincc

    from rmlab.protocol import _measure, _stream

    h, psi = _dimer_state(4)
    labels = sample_unitaries(4, 2, np.random.default_rng(23))
    readout = ReadoutErrorModel(0.01, 0.03)
    kwargs = dict(fluct=FluctuationModel(3.0, scope="per_shot"), h_mod=h, seed=9, tol=1e-4)
    pure = _run(psi, labels, golden, n_meas=EXACT_SHOTS, **kwargs)
    exact = _run(psi, labels, golden, n_meas=EXACT_SHOTS, readout=readout, **kwargs)
    n = 20_000
    sampled = _run(psi, labels, golden, n_meas=n, readout=readout, **kwargs)
    # stream contract: shots, then flips, and no gain draws
    rngs = [_stream(9, k) for k in range(len(labels))]
    want = _measure("pulsed", labels, rngs, pure.outcomes, n, readout, {})
    assert np.array_equal(sampled.outcomes, want.outcomes)
    for observed, flipped in zip(sampled.outcomes, exact.outcomes):
        expected = n * flipped
        stat = float(np.sum((observed - expected) ** 2 / expected))
        # chi-squared survival function at 15 degrees of freedom
        assert gammaincc(15 / 2, stat / 2) > 1e-3


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_pulsed_tol_must_be_finite_and_positive(golden, tol):
    psi = random_state(2, np.random.default_rng(24))
    with pytest.raises(ValueError, match="tol"):
        _certify_grid(psi, golden, _drive_operators(2, None), tol)


@pytest.mark.parametrize("steps", [0, -300, 300.0])
def test_pulsed_steps_must_be_a_positive_integer(golden, steps):
    psi = random_state(2, np.random.default_rng(24))
    labels = sample_unitaries(2, 1, np.random.default_rng(24))
    with pytest.raises(ValueError, match="steps"):
        run_pulsed(psi, labels, golden, steps, 1e-10, _drive_operators(2, None))


def test_pulsed_with_interactions_runs(golden):
    h = build_ssh(4, 0.484 * 2 * np.pi, -0.18 * 2 * np.pi, 0.04 * 2 * np.pi)
    _, gs = ground_state(h)
    rec = _run(gs, sample_unitaries(4, 2, np.random.default_rng(14)), golden, h_mod=h, n_meas=EXACT_SHOTS)
    assert rec.mode == "pulsed"
    assert np.abs(rec.outcomes.sum(axis=1) - 1.0).max() < 1e-12


def _per_unitary_reference(psi, labels, schedule, fluct, h_mod, n_meas, readout, seed, steps, budget):
    """The loop run_pulsed's block replaces: one evolve_blend per label row,
    on the perturbed waveforms themselves, gains then shots then flips
    drawn from the (seed, k) stream."""
    from rmlab.protocol import _measure, _stream
    from rmlab.pulses import perturb

    rngs, probs = [], []
    for k, row in enumerate(labels):
        rng = _stream(seed, k)
        perturbed = perturb(schedule, fluct, rng)
        amp = _evolve_columns(psi, h_mod, perturbed, [(perturbed, row)], steps, budget)[0]
        rngs.append(rng)
        probs.append(np.abs(amp) ** 2)
    return _measure("pulsed", labels, rngs, np.array(probs), n_meas, readout, {})


def _layout_atol(steps, budget, weight=1.0):
    """How far the outcomes of two layouts of the same pulsed columns may
    differ when their series stop at ``budget``: roundoff's 1e-12 at the
    floor. A series stops once every column of its block is within the
    budget, so a column's truncation depends on the columns beside it.
    Either layout leaves a column within (2 steps) budget of the floor stop,
    its at most 2 steps exponentials' truncation; amplitudes within
    (4 steps) budget of each other are within twice that in probability,
    summed over outcomes, and a sample weighs its columns by ``weight`` in
    all."""
    return max(1e-12, 8 * steps * budget * weight)


def _assert_same_table(record, reference, atol=1e-12):
    # whole-number counts within atol are equal counts
    assert np.array_equal(record.labels, reference.labels)
    assert (record.seeds is None and reference.seeds is None) or np.array_equal(record.seeds, reference.seeds)
    assert np.max(np.abs(record.outcomes - reference.outcomes)) < atol


@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 300])
def test_pulsed_block_matches_per_unitary_loop(golden, with_h, n_meas):
    h = build_ssh(4, 0.484 * 2 * np.pi, -0.18 * 2 * np.pi, 0.04 * 2 * np.pi)
    psi = ground_state(h)[1]
    labels = sample_unitaries(4, 5, np.random.default_rng(15))
    args = (
        psi, labels, golden, FluctuationModel(3.0), h if with_h else None,
        n_meas, ReadoutErrorModel(0.01, 0.03), 17,
    )
    # at the floor budget the block and the loop differ at roundoff only;
    # at the run's certified budget, within it (see _layout_atol)
    for budget in (_BUDGET_FLOOR, None):
        rec = _run(*args[:3], fluct=args[3], h_mod=args[4], n_meas=n_meas,
                   readout=args[6], seed=args[7], tol=1e-4, budget=budget)
        steps = rec.meta["steps"]
        eps = _truncation_budget(1e-4 / 2, steps) if budget is None else budget
        _assert_same_table(rec, _per_unitary_reference(*args, steps, eps), _layout_atol(steps, eps))
    # the grid contract: the probe agrees with twice the steps to 15/16 of
    # half the tol
    assert _probe_distance(psi, args[4], golden, steps) <= 15 / 16 * 1e-4 / 2


@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 300])
def test_pulsed_run_matches_the_per_step_loop(golden, monkeypatch, per_step_loop, n_meas):
    # fusing the schedule's constant cells changes only the Taylor roundoff
    # at the floor budget, and the series truncation within the run's
    # certified budget (see _layout_atol; the per-step loop's blends are
    # within one Taylor piece each, so it too runs 2 steps series)
    import rmlab.statevector as statevector

    h = build_ssh(4, 0.484 * 2 * np.pi, -0.18 * 2 * np.pi, 0.04 * 2 * np.pi)
    psi = ground_state(h)[1]
    labels = sample_unitaries(4, 4, np.random.default_rng(18))
    for budget in (_BUDGET_FLOOR, None):
        kwargs = dict(
            fluct=FluctuationModel(3.0), h_mod=h, n_meas=n_meas,
            readout=ReadoutErrorModel(0.01, 0.03), seed=19, tol=1e-4, budget=budget,
        )
        fused = _run(psi, labels, golden, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(statevector, "_run_steps", per_step_loop)
            stepped = _run(psi, labels, golden, **kwargs)
        assert fused.meta == stepped.meta
        steps = fused.meta["steps"]
        eps = _truncation_budget(1e-4 / 2, steps) if budget is None else budget
        _assert_same_table(fused, stepped, _layout_atol(steps, eps))


def test_pulsed_tight_tol_doubles_block_grid(golden):
    # one step per waveform cell already meets 1e-8 here; 1e-10 does not
    rng = np.random.default_rng(16)
    psi = random_state(3, rng)
    labels = sample_unitaries(3, 3, rng)
    kwargs = dict(fluct=FluctuationModel(3.0), n_meas=EXACT_SHOTS, seed=4)
    loose = _run(psi, labels, golden, tol=1e-4, **kwargs)
    tight = _run(psi, labels, golden, tol=1e-10, **kwargs)
    # the refined grid is a whole multiple of the start grid
    ratio = tight.meta["steps"] // loose.meta["steps"]
    assert ratio >= 2 and tight.meta["steps"] == ratio * loose.meta["steps"]
    reference = _per_unitary_reference(
        psi, labels, golden, kwargs["fluct"], None, EXACT_SHOTS, None, 4,
        tight.meta["steps"], _truncation_budget(1e-10 / 2, tight.meta["steps"]),
    )
    _assert_same_table(tight, reference)
    assert _probe_distance(psi, None, golden, tight.meta["steps"]) <= 15 / 16 * 1e-10 / 2
    # the start grid did not pass
    assert _probe_distance(psi, None, golden, loose.meta["steps"]) > 15 / 16 * 1e-10 / 2


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
def test_certified_grid_is_a_multiple_of_the_waveform_cells(golden, tol):
    # the error controller's jumps assume fourth order, which a grid has
    # only where no step straddles a kink of the piecewise-linear
    # waveforms: the start grid is a multiple of the cells, and so is
    # every grid refined from it (900 steps at 1e-10)
    h = build_ssh(4, 0.484 * 2 * np.pi, -0.18 * 2 * np.pi, 0.04 * 2 * np.pi)
    psi = ground_state(h)[1]
    steps, _, _ = _certify_grid(psi, golden, _drive_operators(4, h), tol)
    cells = len(golden.breakpoints()) - 1
    assert steps % cells == 0


def test_pulsed_block_allocates_no_block_per_exponential(pulsed_block):
    # an exponential blends H into blocks its run owns: one L = 8, K = 100
    # block on 300 steps (153 exponentials) takes fewer than 2,000 minor
    # page faults, where a new (2^L, K) diagonal blend per exponential took
    # about 26,000
    import resource

    psi, parts, t1 = pulsed_block(8, 100)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evolve_blend(psi, parts, 0.0, t1, tol=None, initial_steps=300)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_validated_grid_is_within_tol_of_four_times_the_steps(golden):
    # at fourth order the n vs 2n distance is 15/16 of the n-grid error, so
    # a probe grid accepted at 15/16 tol is itself within tol of the exact state
    from rmlab.statevector import _certify

    L = 3
    psi = random_state(L, np.random.default_rng(30))
    h = build_ssh(L, 5 * 0.484 * 2 * np.pi, -5 * 0.18 * 2 * np.pi, 0.04 * 2 * np.pi)

    def run(m):
        return _evolve_columns(psi, h, golden, [(golden, _probe(L))], m)[0]

    for tol in (1e-6, 1e-8):
        # a start off the waveform's kinks (150 steps on 300 cells) has to
        # refine before it passes
        n, _, _ = _certify(run, 150, tol)
        assert n > 150 and n % 150 == 0
        assert np.linalg.norm(run(n) - run(4 * n)) <= tol


def test_probe_alternates_the_largest_and_smallest_light_shift(golden, monkeypatch):
    import rmlab.protocol as protocol

    seen = []
    parts = protocol._pulsed_parts

    def spy(schedule, columns, drive):
        seen.append(columns)
        return parts(schedule, columns, drive)

    monkeypatch.setattr(protocol, "_pulsed_parts", spy)
    _certify_grid(random_state(5, np.random.default_rng(35)), golden, _drive_operators(5, None), 1e-4)
    assert np.argmax(np.abs(golden.delta_amps)) == 2 and np.argmin(np.abs(golden.delta_amps)) == 0
    [[(schedule, probe)]] = seen
    assert schedule is golden and probe.tolist() == [3, 1, 3, 1, 3]


@pytest.fixture(scope="module")
def random_columns_l6(golden):
    """An L = 6 per_unitary run with interactions at eps = 3 %: the state,
    h, and its 50 columns' amplitudes on 300, 600 and 1200 steps."""
    from rmlab.protocol import _stream
    from rmlab.pulses import perturb

    h, psi = _dimer_state(6)
    fluct = FluctuationModel(3.0)
    labels = sample_unitaries(6, 50, np.random.default_rng(40))
    columns = [(perturb(golden, fluct, _stream(41, k)), row) for k, row in enumerate(labels)]
    return psi, h, {n: _evolve_columns(psi, h, golden, columns, n) for n in (300, 600, 1200)}


def _covers(distance, distances):
    """A probe distance is at least the median and half the maximum."""
    return distance >= np.median(distances) and distance >= 0.5 * np.max(distances)


def test_probe_is_as_hard_as_random_columns(golden, random_columns_l6):
    psi, h, amps = random_columns_l6
    columns = np.linalg.norm(amps[300] - amps[600], axis=1)
    steps, _, probe = _certify_grid(psi, golden, _drive_operators(6, h), 1.0)
    assert steps == 300 and probe == pytest.approx(_probe_distance(psi, h, golden, 300, tol=1.0))
    assert _covers(probe, columns)
    # a uniform label pattern is far easier than a random column
    for label in (1, 2, 3):
        pattern = [(golden, np.full(6, label))]
        uniform = np.linalg.norm(np.subtract(*(_evolve_columns(psi, h, golden, pattern, n) for n in (300, 600))))
        assert not _covers(uniform, columns)


def test_every_column_of_a_random_run_is_within_tol(golden, random_columns_l6):
    # a tol at which the probe passes narrowly, 2 % inside its certificate;
    # certifying on one random column at the full tol left other columns
    # beyond it. With its truncation share of 1/16, the controller accepts
    # a distance within (15/16) (15/16) - 2/16 = 193/256 of its tol. The
    # distance moves with the probe's budget, which moves with tol: the
    # certificate is checked against the distance at the budgets of that tol
    psi, h, amps = random_columns_l6
    drive = _drive_operators(6, h)
    accept = 193 / 256
    _, _, loose = _certify_grid(psi, golden, drive, 1.0)
    tol = 1.02 * 2 * loose / accept
    probe = _probe_distance(psi, h, golden, 300, tol=tol)
    assert probe <= accept * tol / 2 / 1.01
    assert _certify_grid(psi, golden, drive, tol) == (300, _truncation_budget(tol / 2, 300), probe)
    # the probe is certified at half the run's tol: 4 % less and it refines
    assert _certify_grid(psi, golden, drive, tol / 1.04)[0] > 300
    assert np.max(np.linalg.norm(amps[300] - amps[1200], axis=1)) <= tol


def test_pulsed_blocks_split_without_changing_records(golden, monkeypatch):
    import rmlab.protocol as protocol

    rng = np.random.default_rng(17)
    psi = random_state(3, rng)
    labels = sample_unitaries(3, 7, rng)
    # at the floor budget the split moves outcomes at roundoff only; at the
    # run's certified budget, within it (see _layout_atol)
    cases = (("per_unitary", labels, 1.0), ("per_shot", labels[:2], np.abs(_SIGMA_WEIGHTS).sum()))
    for (scope, picked, weight), budget in itertools.product(cases, (_BUDGET_FLOOR, None)):
        kwargs = dict(
            fluct=FluctuationModel(3.0, scope), n_meas=EXACT_SHOTS, seed=8, tol=1e-4, budget=budget,
        )
        whole = _run(psi, picked, golden, **kwargs)
        # six columns a block: per_shot blocks split a sample's 11 columns
        # and join two samples, and the seventh per_unitary column is a
        # block of one, a single vector
        with monkeypatch.context() as m:
            m.setattr(protocol, "_BLOCK_AMPLITUDES", 6 * 2**3)
            split = _run(psi, picked, golden, **kwargs)
        assert split.meta == whole.meta
        steps = whole.meta["steps"]
        eps = _truncation_budget(1e-4 / 2, steps) if budget is None else budget
        _assert_same_table(split, whole, _layout_atol(steps, eps, weight))


# ---------------------------------------------------------------------------
# NDJSON persistence
# ---------------------------------------------------------------------------


def test_roundtrip_counts(tmp_path):
    rec = _toy_record()
    path = tmp_path / "rec.ndjson"
    save_record(rec, path)
    back = load_record(path)
    assert back.num_sites == rec.num_sites
    assert back.mode == rec.mode
    assert back.n_meas == rec.n_meas
    assert _same_outcomes(back, rec)
    assert np.array_equal(back.labels, rec.labels) and back.labels.dtype == np.int8
    assert np.array_equal(back.seeds, rec.seeds)


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(15)
    psi = random_state(10, rng)
    rec = run_ideal(psi, sample_unitaries(10, 100, rng), EXACT_SHOTS)
    path = tmp_path / "rec.ndjson"
    save_record(rec, path)
    back = load_record(path)
    assert back.n_meas == EXACT_SHOTS and back.n_unitaries == 100
    assert back.outcomes.dtype == np.float64
    # the record's own copy (not a view of the decoded bytes), read-only
    assert back.outcomes.flags.owndata and not back.outcomes.flags.writeable
    assert back.outcomes.tobytes() == rec.outcomes.tobytes()
    assert np.array_equal(back.labels, rec.labels)
    assert back.seeds is None and rec.seeds is None


def _save_record_v1(record: MeasurementRecord, path) -> None:
    """The version-1 writer: exact probabilities as a JSON list of text floats."""
    header = {
        "format": "rmlab-record",
        "version": 1,
        "num_sites": record.num_sites,
        "mode": record.mode,
        "n_meas": "exact" if record.n_meas == EXACT_SHOTS else int(record.n_meas),
        "bit_convention": "site 1 = leftmost bit, 1 = spin up",
        "meta": record.meta,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for k, row in enumerate(record.outcomes):
            doc: dict = {"labels": record.labels[k].tolist()}
            if record.seeds is not None:
                doc["seed"] = int(record.seeds[k])
            if record.n_meas == EXACT_SHOTS:
                doc["probs"] = row.tolist()
            else:
                doc["counts"] = {
                    format(i, f"0{record.num_sites}b"): int(row[i]) for i in np.flatnonzero(row)
                }
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def test_version_1_exact_record_loads_like_version_2(tmp_path):
    h = build_ssh(6, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI, mu_edge=0.1)
    _, psi = ground_state(h)
    rng = np.random.default_rng(4)
    rec = run_ideal(psi, sample_unitaries(6, 20, rng), EXACT_SHOTS, seed=4)
    v1, v2 = tmp_path / "v1.ndjson", tmp_path / "v2.ndjson"
    _save_record_v1(rec, v1)
    save_record(rec, v2)
    assert '"probs": [' in v1.read_text() and '"probs": [' not in v2.read_text()
    old, new = load_record(v1), load_record(v2)
    assert old.outcomes.dtype == np.float64 and old.outcomes.flags.owndata
    assert not old.outcomes.flags.writeable
    assert old.outcomes.tobytes() == new.outcomes.tobytes()
    assert purity_estimate(old, [1, 2, 3]).value == purity_estimate(new, [1, 2, 3]).value
    assert hamiltonian_variance(old, h).value == hamiltonian_variance(new, h).value


def test_version_1_sampled_record_loads(tmp_path):
    path = tmp_path / "v1.ndjson"
    _save_record_v1(_toy_record(), path)
    back = load_record(path)
    assert _same_outcomes(back, _toy_record())


def test_header_checked(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError, match="not a measurement record"):
        load_record(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_record(path)
    path.write_text(json.dumps({"format": "rmlab-record", "version": 3}) + "\n")
    with pytest.raises(ValueError, match="unsupported record version 3"):
        load_record(path)
    header = {"format": "rmlab-record", "version": 2, "num_sites": 2, "mode": "ideal", "n_meas": 2.5}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match="n_meas"):
        load_record(path)


@pytest.mark.parametrize("n_probs", [3, 5])
def test_version_2_entry_of_wrong_length_rejected(tmp_path, n_probs):
    rng = np.random.default_rng(6)
    rec = run_ideal(random_state(2, rng), sample_unitaries(2, 2, rng), EXACT_SHOTS)
    path = tmp_path / "rec.ndjson"
    save_record(rec, path)
    header, first, second = path.read_text().splitlines()
    doc = json.loads(second)
    probs = np.full(n_probs, 1.0 / n_probs)
    doc["probs_f64le"] = base64.b64encode(probs.astype("<f8").tobytes()).decode("ascii")
    path.write_text("\n".join([header, first, json.dumps(doc)]) + "\n")
    with pytest.raises(ValueError, match="2\\^num_sites"):
        load_record(path)
    doc["probs_f64le"] = base64.b64encode(b"\0" * 12).decode("ascii")
    path.write_text("\n".join([header, first, json.dumps(doc)]) + "\n")
    with pytest.raises(ValueError):
        load_record(path)


def test_sampled_entry_is_saved_as_its_nonzero_counts(tmp_path):
    path = tmp_path / "rec.ndjson"
    save_record(_toy_record(), path)
    docs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert [d["counts"] for d in docs] == [{"00": 3, "11": 2}, {"01": 5}]


@pytest.mark.parametrize(
    "counts, match",
    [
        ({"00": 3, "01": -1}, "non-negative integer"),
        ({"00": 2.5}, "non-negative integer"),
        ({"00": True, "01": 1}, "non-negative integer"),
        ({"0x": 2}, "bitstring"),
        ({"000": 2}, "bitstring"),
        ({"1": 2}, "bitstring"),
    ],
    ids=["negative", "fractional", "boolean", "non_binary_key", "long_key", "short_key"],
)
def test_load_record_rejects_malformed_counts(tmp_path, counts, match):
    rec = MeasurementRecord(
        num_sites=2, mode="ideal", n_meas=2, labels=[[3, 3]], outcomes=[[2, 0, 0, 0]],
    )
    path = tmp_path / "rec.ndjson"
    save_record(rec, path)
    header, line = path.read_text().splitlines()
    doc = json.loads(line)
    doc["counts"] = counts
    path.write_text("\n".join([header, json.dumps(doc)]) + "\n")
    with pytest.raises(ValueError, match=match):
        load_record(path)


@pytest.mark.parametrize(
    "part, key, value, match",
    [
        ("header", "n_meas", None, "without n_meas"),
        ("header", "num_sites", None, "without num_sites"),
        ("header", "mode", None, "without mode"),
        ("entry", "labels", None, "without labels"),
        ("header", "num_sites", [2], "num_sites"),
        ("header", "num_sites", 2.5, "num_sites"),
        ("entry", "labels", [1.5, 2], "labels .* JSON integers"),
        ("entry", "labels", [True, 2], "labels .* JSON integers"),
        ("entry", "labels", ["2", 3], "labels .* JSON integers"),
        ("entry", "labels", [1, 2, 3], "labels .* JSON integers"),
        ("entry", "labels", 12, "labels .* JSON integers"),
        ("entry", "labels", [1, 4], "labels .* JSON integers"),
        ("entry", "labels", [1, 10**30], "labels .* JSON integers"),
        ("entry", "seed", "x", "seed 'x' is not a non-negative"),
        ("entry", "seed", -1, "seed -1 is not a non-negative"),
        ("entry", "seed", 1.0, "seed 1.0 is not a non-negative"),
        ("entry", "seed", True, "seed True is not a non-negative"),
        ("entry", "seed", 2**64, "seed 18446744073709551616 is not a non-negative"),
        ("entry", "seed", None, "seed on some entries only"),
        ("header", None, [1], "not a measurement record"),
        ("header", "version", True, "unsupported record version True"),
        ("header", "n_meas", True, "n_meas must be a positive integer"),
        ("header", "meta", [["seed", 1]], "meta .* not a JSON object"),
        ("header", "meta", 5, "meta 5 is not a JSON object"),
    ],
    ids=[
        "no_n_meas", "no_num_sites", "no_mode", "no_labels", "list_num_sites", "fractional_num_sites",
        "fractional_label", "boolean_label", "string_label", "long_labels", "scalar_labels",
        "label_out_of_range", "huge_label", "string_seed", "negative_seed", "fractional_seed",
        "boolean_seed", "huge_seed", "seed_on_one_entry", "header_not_object", "boolean_version",
        "boolean_n_meas", "list_meta", "number_meta",
    ],
)
def test_load_record_rejects_missing_or_malformed_fields(tmp_path, part, key, value, match):
    # a value of None removes the field, a key of None replaces the line
    path = tmp_path / "rec.ndjson"
    save_record(_toy_record(), path)
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    doc = docs[0] if part == "header" else docs[1]
    if key is None:
        docs[0 if part == "header" else 1] = value
    elif value is None:
        del doc[key]
    else:
        doc[key] = value
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    with pytest.raises(ValueError, match=match):
        load_record(path)


def test_load_record_bounds_num_sites_before_allocating(tmp_path):
    # a header of 40 sites would ask for a (1, 2^40) float64 outcome table
    path = tmp_path / "rec.ndjson"
    header = {"format": "rmlab-record", "version": 2, "num_sites": 40, "mode": "ideal", "n_meas": 2}
    entry = {"labels": [3] * 40, "counts": {"0" * 40: 2}}
    path.write_text("\n".join(json.dumps(d) for d in (header, entry)) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="num_sites 40 is not an integer in 1..14"):
            load_record(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_save_is_deterministic(tmp_path):
    rec = _toy_record()
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    save_record(rec, p1)
    save_record(rec, p2)
    assert p1.read_bytes() == p2.read_bytes()
