"""Randomized-measurement runs: unitary sampling, evolution, shots, records.

One experiment is N_U sampled label patterns, drawn as one (N_U, L) int8
label table, the layout the record stores: sample k is row k, with the
stream keyed by (seed, k) (see the contract below). Under each pattern
the state is rotated (ideally, or by integrating the pulse Hamiltonian
with the interactions left on), read out in the z basis N_meas times
through a two-parameter flip channel, and the counts are collected into a
MeasurementRecord. Records always store the nominal labels, never the
noisy realized rotations: post-processing assumes ideal rotations, the
same information an experimenter has.

A record is one outcome table: ``labels`` (int8, N_U x L), ``outcomes``
(float64, N_U x 2^L, row u indexed by basis index) and ``seeds``, the
(N_U,) stream keys (None in exact mode). outcomes[u, i] is the shot count
of index i under unitary u in a sampled record, its probability in
exact-probability mode (n_meas = EXACT_SHOTS), which isolates estimator
bias from shot noise; the record's ``norm`` (n_meas, or 1) turns a row
into a distribution.

Both runs fill an (N_U, 2^L) table of outcome distributions in blocks of
at most ``_BLOCK_AMPLITUDES`` amplitudes, each freed once reduced, and
end in one measurement stage, ``_measure``.

Records persist as UTF-8 NDJSON (save_record / load_record): a header
line, then one line per unitary (an entry). A sampled entry stores its
nonzero counts as a bitstring -> count object; these two functions are
the only code that reads or writes bitstrings. Format version 2 stores an exact
entry's 2^L probabilities as one base64 string of their little-endian
float64 bytes (key "probs_f64le"), which round-trips bit for bit.

Pulse-level runs evolve the columns of all samples as one amplitude block
(several past 2^20 amplitudes). The drive is global, so a column differs
from the nominal schedule only by its per-site light shift and a few
gains. Scope "per_unitary" gives a sample one column, under its drawn
gains, with weight 1; "per_shot" gives it the 11 sigma points of
``pulses._sigma_gains`` with weights ``pulses._SIGMA_WEIGHTS``, whose
mixture is the gain-averaged distribution that per-shot draws sample.
Every block of a run is evolved once, on one step count and at one
series truncation budget that ``_certify_grid`` certifies per run on a
seed-free probe column, with the operators that ``_drive_operators``
builds once per run (X_tot, N_tot, the occupation table and the sparse
H_mod).

Reproducibility contract: every stochastic step under sample k draws from
a stream keyed by (seed, k), in a fixed order: pulse gains (per_unitary
only), then shot indices, then readout flips. Results do not depend on
execution order or worker count.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .pauli import LABELS, PauliStringSum
from .pulses import (
    _SIGMA_WEIGHTS,
    FluctuationModel,
    PulseSchedule,
    Waveform,
    _apply_gains,
    _sigma_gains,
    perturb,
)
from .statevector import (
    _EXP_WEIGHT,
    _INTEGRATOR_COUNTS,
    _STEP_BUDGET,
    _TRUNCATION_SHARE,
    MAX_SITES,
    StateVector,
    _certify,
    _truncation_budget,
    apply_local_unitaries,
    apply_site_matrices,
    bits_to_index,
    evolve_blend,
    index_to_bits,
    occupation,
    sample_basis_indices,
    x_total,
)

__all__ = [
    "EXACT_SHOTS",
    "BIT_CONVENTION",
    "ReadoutErrorModel",
    "MeasurementRecord",
    "sample_unitaries",
    "apply_readout_errors",
    "apply_readout_to_probs",
    "run_ideal",
    "run_pulsed",
    "save_record",
    "load_record",
]

# sentinel for exact-probability mode
EXACT_SHOTS = math.inf

BIT_CONVENTION = "site 1 = leftmost bit, 1 = spin up"

_RECORD_FORMAT = "rmlab-record"
_RECORD_VERSION = 2

# amplitudes per block that run_ideal rotates or run_pulsed evolves at
# once (16 MB of complex), and weights per chunk of a record's Walsh table
_BLOCK_AMPLITUDES = 2**20

# the signed Walsh matrix, applied on every site by MeasurementRecord._parities
_WALSH = np.array([[1.0, 1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class ReadoutErrorModel:
    """Independent per-site flip channel applied after projective readout.

    p_up_given_down: probability a true 0 (down) reads as 1 (up).
    p_down_given_up: probability a true 1 (up) reads as 0 (down).
    """

    p_up_given_down: float = 0.0
    p_down_given_up: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_up_given_down", "p_down_given_up"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")

    def matrix(self) -> np.ndarray:
        """Column-stochastic M with P_read(a) = sum_b M[a, b] P_true(b)."""
        p01, p10 = self.p_up_given_down, self.p_down_given_up
        return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


@dataclass(frozen=True)
class MeasurementRecord:
    """A full experiment as one outcome table (see the module docstring).

    Invariant checked here: labels is (N_U, L) in LABELS, seeds (N_U,) or
    None, and every row of outcomes holds 2^L finite weights summing to
    ``norm``: n_meas non-negative whole shots in a sampled record, one
    (within 1e-10) in an exact one.

    Estimates read its Walsh table, built on first use and kept (2^L N_U 8
    bytes) until ``vars(record).pop("_parities")`` drops it. A record's
    arrays are not modified in place: outcomes is its own read-only copy,
    so the table cannot go stale, and ``replace`` or ``subset`` makes a new record.
    """

    num_sites: int
    mode: str
    n_meas: int | float
    labels: np.ndarray
    outcomes: np.ndarray
    seeds: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("ideal", "pulsed"):
            raise ValueError("mode must be ideal or pulsed")
        exact = _check_n_meas(self.n_meas)
        if not exact:
            object.__setattr__(self, "n_meas", int(self.n_meas))
        labels = _check_labels(self.labels, self.num_sites).astype(np.int8)
        w = np.array(self.outcomes, dtype=np.float64, order="C")
        if w.shape != (len(labels), 2**self.num_sites):
            raise ValueError("outcomes must hold 2^num_sites weights per label row")
        if not np.isfinite(w).all():
            raise ValueError("outcomes must be finite")
        if exact and (np.abs(w.sum(axis=1) - 1.0) > 1e-10).any():
            raise ValueError("probabilities must sum to one")
        if not exact and not ((w >= 0) & (w == np.floor(w))).all():
            raise ValueError("counts must be non-negative whole numbers")
        if not exact and (w.sum(axis=1) != self.n_meas).any():
            raise ValueError("counts must sum to n_meas")
        object.__setattr__(self, "labels", labels)
        w.flags.writeable = False
        object.__setattr__(self, "outcomes", w)
        if self.seeds is not None:
            seeds = np.asarray(self.seeds, dtype=np.int64)
            if seeds.shape != (len(labels),):
                raise ValueError("seeds must hold one seed per label row")
            object.__setattr__(self, "seeds", seeds)

    @cached_property
    def _parities(self) -> np.ndarray:
        """The read-only (2^L, N_U) Walsh table: row m, column u is row u of
        outcomes summed with the sign of its Z parity over mask m, made in
        column chunks of at most _BLOCK_AMPLITUDES weights."""
        width = max(1, _BLOCK_AMPLITUDES >> self.num_sites)
        walsh = [_WALSH] * self.num_sites
        table = np.empty((2**self.num_sites, self.n_unitaries))
        for start in range(0, self.n_unitaries, width):
            chunk = self.outcomes[start : start + width].T
            table[:, start : start + width] = apply_site_matrices(chunk, walsh)
        table.flags.writeable = False
        return table

    @property
    def n_unitaries(self) -> int:
        return len(self.labels)

    @property
    def norm(self) -> float:
        """What every row of outcomes sums to: n_meas, or 1 in exact mode."""
        return 1.0 if self.n_meas == EXACT_SHOTS else float(self.n_meas)

    def subset(self, indices: Sequence[int]) -> "MeasurementRecord":
        """Record restricted to the given unitaries (for scaling scans)."""
        picked = np.asarray(indices, dtype=np.intp)
        seeds = None if self.seeds is None else self.seeds[picked]
        return replace(
            self, labels=self.labels[picked], outcomes=self.outcomes[picked], seeds=seeds,
            meta=dict(self.meta),
        )


# ---------------------------------------------------------------------------
# Sampling and readout
# ---------------------------------------------------------------------------


def sample_unitaries(num_sites: int, n_unitaries: int, rng: np.random.Generator) -> np.ndarray:
    """The (n_unitaries, num_sites) int8 label table of a run: i.i.d.
    uniform labels in {1, 2, 3}, row k the pattern of sample k."""
    if n_unitaries < 1:
        raise ValueError("n_unitaries must be at least 1")
    return rng.integers(1, 4, size=(n_unitaries, num_sites)).astype(np.int8)


def apply_readout_errors(
    bits: np.ndarray, model: ReadoutErrorModel, rng: np.random.Generator
) -> np.ndarray:
    """Flip each bit independently: 0 -> 1 with p_up_given_down, 1 -> 0
    with p_down_given_up."""
    bits = np.asarray(bits)
    r = rng.random(bits.shape)
    flip = np.where(bits == 0, r < model.p_up_given_down, r < model.p_down_given_up)
    return bits ^ flip


def apply_readout_to_probs(
    probs: np.ndarray, model: ReadoutErrorModel, num_sites: int
) -> np.ndarray:
    """Exact-mode counterpart: push the distribution, a (2^L,) vector or a
    (2^L, K) block of them, through the flip channel on every site."""
    return apply_site_matrices(np.asarray(probs, dtype=float), [model.matrix()] * num_sites)


def _measure(
    mode: str, labels: np.ndarray, rngs: Iterable[np.random.Generator], probs: np.ndarray,
    n_meas: int | float, readout: ReadoutErrorModel | None, meta: dict,
) -> MeasurementRecord:
    """The record of a run from its (N_U, L) label table, its (N_U, 2^L)
    table of outcome distributions and the (seed, k) stream of each row k;
    ``meta`` gains the readout's two flip rates (None without flips).

    Exact mode keeps the table pushed through the readout channel and draws
    nothing. Otherwise row k draws n_meas shots from its stream, then
    readout flips, the frozen draw order, counts each basis index, and
    stores stream key k as its seed. Raises ValueError without samples or
    for a bad n_meas.
    """
    exact = _check_n_meas(n_meas)
    if not len(labels):
        raise ValueError("at least one unitary sample required")
    num_sites = labels.shape[1]
    flips = None if readout is None else [readout.p_up_given_down, readout.p_down_given_up]
    meta = {**meta, "readout": flips}
    if exact:
        if readout is not None:
            probs = apply_readout_to_probs(probs.T, readout, num_sites).T
        return MeasurementRecord(num_sites, mode, n_meas, labels, probs, meta=meta)
    counts = np.empty_like(probs)
    for row, p, rng in zip(counts, probs, rngs):
        idx = sample_basis_indices(p, int(n_meas), rng)
        if readout is not None:
            idx = bits_to_index(apply_readout_errors(index_to_bits(idx, num_sites), readout, rng))
        row[:] = np.bincount(idx, minlength=2**num_sites)
    return MeasurementRecord(num_sites, mode, n_meas, labels, counts, np.arange(len(labels)), meta)


def _stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(k)]))


def _check_n_meas(n_meas: int | float) -> bool:
    """True for exact mode, False for a positive integer shot count.

    The package's one n_meas rule: anything else raises ValueError. Records,
    runs and config validation all call it.
    """
    if n_meas == EXACT_SHOTS:
        return True
    if isinstance(n_meas, bool) or not (isinstance(n_meas, (int, np.integer)) and n_meas >= 1):
        raise ValueError('n_meas must be a positive integer or EXACT_SHOTS ("exact" in a config)')
    return False


def _check_labels(labels: np.ndarray, num_sites: int) -> np.ndarray:
    """``labels`` under the package's one label rule: a table that is not
    (N_U, num_sites) (an empty one reads as (0, num_sites)) or a value
    outside LABELS raises ValueError. Both runs and the record call it."""
    labels = np.asarray(labels)
    if not labels.size:
        labels = labels.reshape(0, num_sites)
    if labels.ndim != 2 or labels.shape[1] != num_sites:
        raise ValueError(f"label length differs from num_sites: {labels.shape} is not (N_U, {num_sites})")
    if not np.isin(labels, LABELS).all():
        raise ValueError(f"labels must be integers in {LABELS}")
    return labels


# ---------------------------------------------------------------------------
# Ideal-rotation experiments
# ---------------------------------------------------------------------------


def run_ideal(
    psi: StateVector,
    labels: np.ndarray,
    n_meas: int | float,
    readout: ReadoutErrorModel | None = None,
    seed: int = 0,
) -> MeasurementRecord:
    """Rotate by the exact label unitaries of each row of the (N_U, L)
    label table, then read out.

    n_meas = EXACT_SHOTS records the full outcome distribution per
    sample (optionally pushed through the readout channel); otherwise
    n_meas shots are drawn from the (seed, k) stream of row k. A malformed
    table (``_check_labels``) raises ValueError before any rotation.
    """
    labels = _check_labels(labels, psi.num_sites)
    width = max(1, _BLOCK_AMPLITUDES >> psi.num_sites)
    probs = np.empty((len(labels), 2**psi.num_sites))
    for start in range(0, len(labels), width):
        block = apply_local_unitaries(psi, labels[start : start + width])
        probs[start : start + width] = (np.abs(block) ** 2).T
        del block  # free this block's amplitudes before the next is rotated
    # made as the stage reads them: an exact run draws nothing
    rngs = (_stream(seed, k) for k in range(len(labels)))
    return _measure("ideal", labels, rngs, probs, n_meas, readout, {"seed": int(seed)})


# ---------------------------------------------------------------------------
# Pulse-level experiments
# ---------------------------------------------------------------------------


def _gain(scaled: Waveform, nominal: Waveform) -> float:
    """Factor by which _apply_gains scaled a waveform (1 for a zero waveform)."""
    i = int(np.argmax(np.abs(nominal.values)))
    return float(scaled.values[i] / nominal.values[i]) if nominal.values[i] else 1.0


class _Drive(NamedTuple):
    """What every pulsed column of a run shares (see ``_drive_operators``)."""

    x_tot: sparse.csr_matrix
    n_tot: sparse.csr_matrix
    occ: np.ndarray
    h_mod: sparse.csr_matrix | None
    h_bound: float


def _drive_operators(num_sites: int, h_mod: PauliStringSum | None) -> _Drive:
    """X_tot, N_tot, the (2^L, L) table of n_m per basis index, h_mod as a
    sparse matrix (None without it) and sum |c| over h_mod's strings, a
    bound on its norm (0 without it). A run builds them once."""
    if h_mod is not None and h_mod.num_sites != num_sites:
        raise ValueError("h_mod length differs from the state")
    return _Drive(
        x_total(num_sites),
        occupation(num_sites, range(1, num_sites + 1)),
        index_to_bits(np.arange(2**num_sites), num_sites).astype(float),
        None if h_mod is None else h_mod.to_sparse(),
        0.0 if h_mod is None else float(sum(abs(c) for _, c in h_mod.items())),
    )


def _pulsed_parts(
    schedule: PulseSchedule,
    columns: Sequence[tuple[PulseSchedule, np.ndarray]],
    drive: _Drive,
):
    """H(t) = Omega/2 X_tot - Delta N_tot + f N_weighted + H_mod per column.

    The per-site detuning enters as -(Delta - f d_label) n_m, split into
    the two diagonal parts so the waveforms stay global. N_weighted is
    built from ``drive.occ``, the (2^L, L) table of n_m per basis index.

    A column is (``schedule`` scaled by _apply_gains, a label row): its
    Omega and Delta gains scale the X_tot and N_tot coefficients, and its
    light shifts give N_weighted. One column gives a single vector's parts;
    several give column-valued ones (see evolve_blend), N_weighted a
    (2^L, K) diagonal.
    """
    shifts = np.column_stack(
        [drive.occ @ np.asarray(s.delta_amps)[labs - 1] for s, labs in columns]
    )
    gain_omega = np.array([_gain(s.omega, schedule.omega) for s, _ in columns])
    gain_delta = np.array([_gain(s.delta, schedule.delta) for s, _ in columns])
    if len(columns) == 1:
        gain_omega, gain_delta = float(gain_omega[0]), float(gain_delta[0])
        n_weighted = sparse.diags(shifts[:, 0])
    else:
        n_weighted = shifts
    parts = [
        (lambda t: schedule.omega.value(t) / 2.0 * gain_omega, drive.x_tot),
        (lambda t: -schedule.delta.value(t) * gain_delta, drive.n_tot),
        (lambda t: schedule.f.value(t), n_weighted),
    ]
    if drive.h_mod is not None:
        parts.append((1.0, drive.h_mod))
    return parts


def _certify_grid(
    psi: StateVector, schedule: PulseSchedule, drive: _Drive, tol: float
) -> tuple[int, float, float, float]:
    """The step count and the per-exponential series truncation budget for
    every pulsed block of a run, the probe's n vs 2n distance there, and
    the bound on the series truncation within that distance, under the
    run's ``_drive_operators``.

    The probe is the nominal schedule under labels that alternate the
    largest-|d| and the smallest-|d| label, the largest at site 1; it draws
    no gains, so a run certifies once. ``statevector._certify`` refines it
    from a start grid that is a multiple of the waveform cells at half of
    ``tol``: at L = 6 to 10 with interactions and eps = 3 %, random
    columns ran up to 1.4 times the probe's distance. Each extra digit of
    tol costs about 1.8 times the steps. ``_certify`` raises ValueError,
    before any run, unless tol is finite and positive.

    A probe run on m steps stops its series at the budget
    ``_truncation_budget(tol / 2, m)``, which truncates at most tol / 32
    in all, and the controller counts that share: the certified n-step
    probe, truncation included, is within tol / 2 of the exact state. The
    blocks run at the budget of that n-step run, so each of their columns
    truncates at most tol / 32 too. At the benchmark's tol, 1e-4, on 300
    steps, the budget is the norm drift's cap, 4.2e-11.

    The distance mixes the n-step error with the truncation of both runs.
    The truncation bound is theirs, summed: each run's exponentials times
    its budget, 153 x 4.2e-11 + 303 x 2.1e-11 = 1.3e-8 at L = 8 and tol
    1e-4. That is 6.5 times the distance there, 1.95e-9: a worst case,
    which the series' actual truncation stays far below.
    """
    num_sites = psi.num_sites
    # a bound on |H(t)| per site sizes the start grid
    dmax = max(abs(d) for d in schedule.delta_amps)
    per_site = schedule.omega.max_abs() / 2.0 + schedule.delta.max_abs() + schedule.f.max_abs() * dmax
    n_burst = math.ceil((per_site * num_sites + drive.h_bound) * _EXP_WEIGHT * schedule.T / _STEP_BUDGET)
    n_cells = max(1, len(schedule.breakpoints()) - 1)
    n0 = n_cells * max(1, math.ceil(n_burst / n_cells))

    size = np.abs(schedule.delta_amps)
    extremes = (int(np.argmax(size)) + 1, int(np.argmin(size)) + 1)
    probe = np.resize(extremes, num_sites)
    parts = _pulsed_parts(schedule, [(schedule, probe)], drive)

    half = tol / 2.0
    # the truncation bound of each run: its exponentials times its budget
    truncation = {}

    def run(m: int) -> np.ndarray:
        budget = _truncation_budget(half, m)
        before = _INTEGRATOR_COUNTS["exponentials"]
        amp = evolve_blend(psi, parts, 0.0, schedule.T, tol=None, initial_steps=m, budget=budget).amp
        truncation[m] = (_INTEGRATOR_COUNTS["exponentials"] - before) * budget
        return amp

    steps, _, distance = _certify(run, n0, half, _TRUNCATION_SHARE)
    return steps, _truncation_budget(half, steps), distance, truncation[steps] + truncation[2 * steps]


def run_pulsed(
    psi: StateVector,
    labels: np.ndarray,
    schedule: PulseSchedule,
    steps: int,
    budget: float,
    drive: _Drive,
    fluct: FluctuationModel | None = None,
    n_meas: int | float = EXACT_SHOTS,
    readout: ReadoutErrorModel | None = None,
    seed: int = 0,
) -> MeasurementRecord:
    """Integrate the pulse Hamiltonian per row of the (N_U, L) label table,
    interactions included, on ``steps`` CFM4 steps with every series
    stopped at the per-exponential truncation ``budget`` (``_certify_grid``
    gives the run's count and budget), with the run's
    ``_drive_operators``. A malformed table (``_check_labels``) raises
    ValueError before any gain is drawn.

    Sample k's outcome distribution is the weighted sum of its columns'
    probabilities (block layout and (seed, k) streams per scope: see the
    module docstring). The "per_shot" nominal weight is negative, so
    mixture entries below zero are set to zero and the mixture is
    renormalised; meta["mixture_clipped"] is the largest clipped mass over
    the samples. Exact mode (n_meas = EXACT_SHOTS) stores each
    distribution pushed through the readout channel. Records keep the
    nominal labels regardless of the gains applied, and meta["steps"] is
    the step count.
    """
    if fluct is None:
        fluct = FluctuationModel(eps_percent=0.0)
    _check_n_meas(n_meas)
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError("steps must be a positive integer")
    labels = _check_labels(labels, psi.num_sites)

    num_sites = psi.num_sites
    rngs = [_stream(seed, k) for k in range(len(labels))]
    per_shot = fluct.scope == "per_shot"
    if per_shot:
        sigma = [_apply_gains(schedule, g) for g in _sigma_gains(fluct.eps_percent)]
        columns = [(s, row) for row in labels for s in sigma]
        weights = np.tile(_SIGMA_WEIGHTS, len(labels))
    else:
        columns = [(perturb(schedule, fluct, rng), row) for row, rng in zip(labels, rngs)]
        weights = np.ones(len(labels))
    per_sample = len(_SIGMA_WEIGHTS) if per_shot else 1

    width = max(1, _BLOCK_AMPLITUDES >> num_sites)
    mixtures = np.zeros((len(labels), 2**num_sites))
    for start in range(0, len(columns), width):
        chunk = columns[start : start + width]
        parts = _pulsed_parts(schedule, chunk, drive)
        states = evolve_blend(psi, parts, 0.0, schedule.T, tol=None, initial_steps=steps, budget=budget)
        for j, state in enumerate(states if len(chunk) > 1 else [states], start):
            mixtures[j // per_sample] += weights[j] * np.abs(state.amp) ** 2
        del states  # free this block's amplitudes before the next is evolved

    meta = {
        "seed": int(seed),
        "eps_percent": fluct.eps_percent,
        "scope": fluct.scope,
        "steps": int(steps),
    }
    if per_shot:
        meta["mixture_clipped"] = float(np.maximum(-mixtures, 0.0).sum(axis=1).max(initial=0.0))
        np.maximum(mixtures, 0.0, out=mixtures)
        mixtures /= mixtures.sum(axis=1, keepdims=True)
    return _measure("pulsed", labels, rngs, mixtures, n_meas, readout, meta)


# ---------------------------------------------------------------------------
# NDJSON persistence
# ---------------------------------------------------------------------------


def save_record(record: MeasurementRecord, path: str | Path) -> None:
    """Newline-delimited JSON, format version 2: a header, then one entry per line.

    Each line is a JSON object with sorted keys. An exact entry stores its
    probabilities under "probs_f64le" as the base64 text of their
    little-endian float64 bytes, so load_record gets the same bits back;
    a sampled entry stores its nonzero counts as a "counts" object keyed by
    the L-character bitstring of each basis index (site 1 leftmost).
    """
    header = {
        "format": _RECORD_FORMAT,
        "version": _RECORD_VERSION,
        "num_sites": record.num_sites,
        "mode": record.mode,
        "n_meas": "exact" if record.n_meas == EXACT_SHOTS else int(record.n_meas),
        "bit_convention": BIT_CONVENTION,
        "meta": record.meta,
    }
    exact = record.n_meas == EXACT_SHOTS
    # every basis index's key, formatted once per record rather than per hit
    keys = [] if exact else [format(i, f"0{record.num_sites}b") for i in range(2**record.num_sites)]
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for k, row in enumerate(record.outcomes):
            doc: dict = {"labels": record.labels[k].tolist()}
            if record.seeds is not None:
                doc["seed"] = int(record.seeds[k])
            if exact:
                raw = row.astype("<f8").tobytes()
                doc["probs_f64le"] = base64.b64encode(raw).decode("ascii")
            else:
                hit = np.flatnonzero(row)
                counts = row[hit].astype(np.int64).tolist()
                doc["counts"] = dict(zip([keys[i] for i in hit.tolist()], counts))
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _entry_probs(doc: dict, num_sites: int) -> np.ndarray:
    """An exact entry's 2^L probabilities as a float64 array."""
    stored = doc.get("probs_f64le")
    if stored is None:
        raise ValueError("exact entry without 'probs_f64le'")
    probs = np.frombuffer(base64.b64decode(stored, validate=True), dtype="<f8")
    if probs.shape != (2**num_sites,):
        raise ValueError(f"exact entry holds {probs.size} probabilities, not 2^num_sites")
    return probs


def _entry_counts(doc: dict, num_sites: int) -> np.ndarray:
    """A sampled entry's {bitstring: count} object as a dense count array."""
    stored = doc.get("counts")
    if not isinstance(stored, dict):
        raise ValueError("sampled entry without a 'counts' object")
    counts = np.zeros(2**num_sites)
    for key, c in stored.items():
        if len(key) != num_sites or set(key) - {"0", "1"}:
            raise ValueError(f"malformed bitstring key {key!r}")
        if type(c) is not int or c < 0:
            raise ValueError(f"count {c!r} of {key!r} is not a non-negative integer")
        counts[int(key, 2)] = c
    return counts


def load_record(path: str | Path) -> MeasurementRecord:
    """Read a record written by save_record, format version 2.

    Entry k fills row k of the record's outcome table: an exact entry from
    "probs_f64le" (base64 of little-endian float64 bytes), a sampled entry
    from its "counts" object. ValueError is raised for a header that is not
    a JSON object, a version that is not the JSON integer 2, a header
    without num_sites, mode or n_meas, a num_sites that is not a JSON
    integer in 1..MAX_SITES (checked before the outcome table is
    allocated), an n_meas that is neither "exact" nor a positive JSON
    integer, a meta that is not a JSON object, an entry without labels,
    labels that are not num_sites JSON integers in LABELS, a seed that is
    not a non-negative 64-bit JSON integer or is on some entries only, an
    exact entry without 2^L probabilities, a count key that is not an
    L-character 0/1 string and a count that is not a non-negative JSON
    integer.
    """
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty record file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != _RECORD_FORMAT:
        raise ValueError("not a measurement record file")
    version = header.get("version")
    if type(version) is not int or version != _RECORD_VERSION:
        raise ValueError(f"unsupported record version {version!r}")
    missing = [key for key in ("num_sites", "mode", "n_meas") if key not in header]
    if missing:
        raise ValueError(f"record header without {', '.join(missing)}")
    n_meas = header["n_meas"]
    exact = n_meas == "exact"
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"record meta {meta!r} is not a JSON object")
    num_sites = header["num_sites"]
    if type(num_sites) is not int or not 1 <= num_sites <= MAX_SITES:
        raise ValueError(f"num_sites {num_sites!r} is not an integer in 1..{MAX_SITES}")
    docs = [json.loads(line) for line in lines[1:]]
    labels, seeds = [], []
    outcomes = np.empty((len(docs), 2**num_sites))
    for row, doc in zip(outcomes, docs):
        if not isinstance(doc, dict) or "labels" not in doc:
            raise ValueError("record entry without labels")
        labs, seed = doc["labels"], doc.get("seed")
        whole = isinstance(labs, list) and [type(l) for l in labs] == [int] * num_sites
        if not (whole and set(labs) <= set(LABELS)):
            raise ValueError(f"entry labels {labs!r} are not num_sites JSON integers in {LABELS}")
        if seed is not None and not (type(seed) is int and 0 <= seed < 2**63):
            raise ValueError(f"entry seed {seed!r} is not a non-negative 64-bit integer")
        labels.append(labs)
        seeds.append(seed)
        row[:] = _entry_probs(doc, num_sites) if exact else _entry_counts(doc, num_sites)
    if None in seeds and set(seeds) != {None}:
        raise ValueError("seed on some entries only")
    return MeasurementRecord(
        num_sites=num_sites,
        mode=str(header["mode"]),
        n_meas=EXACT_SHOTS if exact else n_meas,
        labels=np.array(labels, dtype=np.int64).reshape(len(docs), num_sites),
        outcomes=outcomes,
        seeds=None if None in seeds else seeds,
        meta=meta,
    )
