"""Randomized-measurement runs: unitary sampling, evolution, shots, records.

One experiment is N_U sampled label patterns; under each pattern the state
is rotated (ideally, or by integrating the pulse Hamiltonian with the
interactions left on), read out in the z basis N_meas times through a
two-parameter flip channel, and the counts are collected into a
MeasurementRecord. Records always store the nominal labels, never the
noisy realized rotations: post-processing assumes ideal rotations, the
same information an experimenter has.

Exact-probability mode (n_meas = EXACT_SHOTS) stores the full outcome
distribution instead of sampled counts, which isolates estimator bias
from shot noise.

Records persist as UTF-8 NDJSON (save_record / load_record): a header
line, then one line per entry. Format version 2 stores an exact entry's
2^L probabilities as one base64 string of their little-endian float64
bytes (key "probs_f64le"), which round-trips bit for bit; sampled
entries keep their bitstring -> count object. load_record also reads
version 1, whose exact entries hold the probabilities as a JSON list of
text floats ("probs").

Pulse-level runs evolve all N_U samples of a run as the columns of one
(2^L, N_U + 1) amplitude block. The drive is global, so a sample differs
from the nominal schedule only by its per-site light shift and a few
gains. The extra column, the nominal schedule, validates the time grid
against a one-column run at twice the steps.

Reproducibility contract: every stochastic step under sample k draws from
a stream keyed by (seed, k), in a fixed order (pulse gains, then shot
indices, then readout flips), so results do not depend on execution
order or worker count.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .pauli import PauliStringSum
from .pulses import FluctuationModel, PulseSchedule, Waveform, perturb
from .statevector import (
    _EXP_WEIGHT,
    _ORDER,
    _STEP_BUDGET,
    ConvergenceError,
    StateVector,
    apply_local_unitaries,
    apply_site_matrices,
    bits_to_index,
    evolve_blend,
    index_to_bits,
    index_to_bitstring,
    occupation,
    sample_basis_indices,
    x_total,
)

__all__ = [
    "EXACT_SHOTS",
    "BIT_CONVENTION",
    "UnitarySample",
    "ReadoutErrorModel",
    "UnitaryMeasurement",
    "MeasurementRecord",
    "sample_unitaries",
    "all_label_settings",
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
# exact-entry key of each version load_record reads (save_record writes v2)
_PROBS_KEY = {1: "probs", 2: "probs_f64le"}

# amplitudes per block that run_pulsed evolves at once (16 MB of complex)
_BLOCK_AMPLITUDES = 2**20


@dataclass(frozen=True)
class UnitarySample:
    """One sampled rotation pattern: a label in {1, 2, 3} per site."""

    labels: tuple[int, ...]
    realization: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(int(l) for l in self.labels))
        if any(l not in (1, 2, 3) for l in self.labels):
            raise ValueError("labels must be in {1, 2, 3}")
        if self.realization < 0:
            raise ValueError("realization must be non-negative")


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
class UnitaryMeasurement:
    """Outcomes recorded under one rotation pattern.

    Exactly one of counts (sampled shots) or probs (exact distribution)
    is present. seed is the per-sample stream key, kept for replay.
    """

    labels: tuple[int, ...]
    counts: dict[str, int] | None = None
    probs: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(int(l) for l in self.labels))
        if (self.counts is None) == (self.probs is None):
            raise ValueError("exactly one of counts or probs required")
        if self.probs is not None:
            object.__setattr__(
                self, "probs", np.asarray(self.probs, dtype=float)
            )


@dataclass(frozen=True)
class MeasurementRecord:
    """A full experiment: entries share num_sites, mode and n_meas.

    Invariants checked here: every counts entry sums to n_meas with
    bitstring keys of the right length; every probs entry has 2^L
    entries summing to one.
    """

    num_sites: int
    mode: str
    n_meas: int | float
    entries: tuple[UnitaryMeasurement, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("ideal", "pulsed"):
            raise ValueError("mode must be ideal or pulsed")
        exact = _check_n_meas(self.n_meas)
        if not exact:
            object.__setattr__(self, "n_meas", int(self.n_meas))
        object.__setattr__(self, "entries", tuple(self.entries))
        dim = 2**self.num_sites
        for e in self.entries:
            if len(e.labels) != self.num_sites:
                raise ValueError("entry label length differs from num_sites")
            if exact:
                if e.probs is None:
                    raise ValueError("exact record requires probs entries")
                if e.probs.shape != (dim,):
                    raise ValueError("probs length must be 2^num_sites")
                if abs(float(e.probs.sum()) - 1.0) > 1e-10:
                    raise ValueError("probs must sum to one")
            else:
                if e.counts is None:
                    raise ValueError("sampled record requires counts entries")
                if sum(e.counts.values()) != self.n_meas:
                    raise ValueError("counts must sum to n_meas")
                for key in e.counts:
                    if len(key) != self.num_sites or set(key) - {"0", "1"}:
                        raise ValueError(f"malformed bitstring key {key!r}")

    @property
    def n_unitaries(self) -> int:
        return len(self.entries)

    def subset(self, indices: Sequence[int]) -> "MeasurementRecord":
        """Record restricted to the given entry indices (for scaling scans)."""
        picked = tuple(self.entries[i] for i in indices)
        return MeasurementRecord(
            num_sites=self.num_sites,
            mode=self.mode,
            n_meas=self.n_meas,
            entries=picked,
            meta=dict(self.meta),
        )


# ---------------------------------------------------------------------------
# Sampling and readout
# ---------------------------------------------------------------------------


def sample_unitaries(
    num_sites: int, n_unitaries: int, rng: np.random.Generator
) -> list[UnitarySample]:
    """i.i.d. uniform labels in {1, 2, 3}, one per site, per realization."""
    if n_unitaries < 1:
        raise ValueError("n_unitaries must be at least 1")
    mat = rng.integers(1, 4, size=(n_unitaries, num_sites))
    return [
        UnitarySample(labels=tuple(int(v) for v in row), realization=k)
        for k, row in enumerate(mat)
    ]


def all_label_settings(num_sites: int) -> list[UnitarySample]:
    """Every one of the 3^L label patterns once, in lexicographic order.

    Exact enumeration replaces sampling in the smallest systems, turning
    statistical estimator checks into identities. No pipeline stage calls
    it: it is the tests' exact 3-design over labels.
    """
    out = []
    for k in range(3**num_sites):
        digits = []
        rem = k
        for _ in range(num_sites):
            digits.append(rem % 3 + 1)
            rem //= 3
        out.append(UnitarySample(labels=tuple(reversed(digits)), realization=k))
    return out


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
    """Exact-mode counterpart: push the distribution through the flip
    channel on every site."""
    return apply_site_matrices(np.asarray(probs, dtype=float), [model.matrix()] * num_sites)


def _counts_from_indices(idx: np.ndarray, num_sites: int) -> dict[str, int]:
    vals, mult = np.unique(idx, return_counts=True)
    return {
        index_to_bitstring(int(v), num_sites): int(c) for v, c in zip(vals, mult)
    }


def _sample_entry(
    psi: StateVector,
    labels: tuple[int, ...],
    n_meas: int,
    readout: ReadoutErrorModel | None,
    rng: np.random.Generator,
    seed_key: int,
) -> UnitaryMeasurement:
    """Shot sampling and readout flips, in the frozen draw order."""
    idx = sample_basis_indices(psi, n_meas, rng)
    if readout is not None:
        bits = apply_readout_errors(index_to_bits(idx, psi.num_sites), readout, rng)
        idx = bits_to_index(bits)
    return UnitaryMeasurement(
        labels=labels,
        counts=_counts_from_indices(idx, psi.num_sites),
        seed=seed_key,
    )


def _exact_entry(
    psi: StateVector,
    labels: tuple[int, ...],
    readout: ReadoutErrorModel | None,
) -> UnitaryMeasurement:
    probs = psi.probabilities()
    if readout is not None:
        probs = apply_readout_to_probs(probs, readout, psi.num_sites)
    return UnitaryMeasurement(labels=labels, probs=probs)


def _stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(k)]))


def _check_n_meas(n_meas: int | float) -> bool:
    """True for exact mode, False for a positive integer shot count.

    The package's one n_meas rule: anything else raises ValueError. Records,
    runs and config validation all call it.
    """
    if n_meas == EXACT_SHOTS:
        return True
    if not (isinstance(n_meas, (int, np.integer)) and n_meas >= 1):
        raise ValueError('n_meas must be a positive integer or EXACT_SHOTS ("exact" in a config)')
    return False


# ---------------------------------------------------------------------------
# Ideal-rotation experiments
# ---------------------------------------------------------------------------


def run_ideal(
    psi: StateVector,
    samples: Sequence[UnitarySample],
    n_meas: int | float,
    readout: ReadoutErrorModel | None = None,
    seed: int = 0,
) -> MeasurementRecord:
    """Rotate by the exact label unitaries, then read out.

    n_meas = EXACT_SHOTS records the full outcome distribution per
    sample (optionally pushed through the readout channel); otherwise
    n_meas shots are drawn from the (seed, k) stream of sample k.
    """
    exact = _check_n_meas(n_meas)
    entries = []
    for sample in samples:
        rotated = apply_local_unitaries(psi, labels=sample.labels)
        if exact:
            entries.append(_exact_entry(rotated, sample.labels, readout))
        else:
            rng = _stream(seed, sample.realization)
            entries.append(
                _sample_entry(
                    rotated, sample.labels, int(n_meas), readout, rng,
                    sample.realization,
                )
            )
    meta = {
        "seed": int(seed),
        "readout": _readout_meta(readout),
    }
    return MeasurementRecord(
        num_sites=psi.num_sites,
        mode="ideal",
        n_meas=n_meas,
        entries=tuple(entries),
        meta=meta,
    )


def _readout_meta(readout: ReadoutErrorModel | None):
    if readout is None:
        return None
    return [readout.p_up_given_down, readout.p_down_given_up]


# ---------------------------------------------------------------------------
# Pulse-level experiments
# ---------------------------------------------------------------------------


def _gain(scaled: Waveform, nominal: Waveform) -> float:
    """Factor by which perturb scaled a waveform (1 for a zero waveform)."""
    i = int(np.argmax(np.abs(nominal.values)))
    return float(scaled.values[i] / nominal.values[i]) if nominal.values[i] else 1.0


def _pulsed_parts(
    schedule: PulseSchedule,
    labels: tuple[int, ...],
    x_tot: sparse.csr_matrix,
    n_tot: sparse.csr_matrix,
    occ: np.ndarray,
    h_mod: sparse.csr_matrix | None,
    payload: Sequence[tuple[PulseSchedule, tuple[int, ...]]] = (),
):
    """H(t) = Omega/2 X_tot - Delta N_tot + f N_weighted + H_mod.

    The per-site detuning enters as -(Delta - f d_label) n_m, split into
    the two diagonal parts so the waveforms stay global. ``occ`` is the
    (2^L, L) table of n_m per basis index that N_weighted is built from.

    With payload the parts are column-valued (see evolve_blend): column 0
    is (schedule, labels) and column j the j-th payload pair, whose
    schedule is ``schedule`` with its amplitudes scaled by perturb. The
    Omega and Delta gains then scale the X_tot and N_tot coefficients per
    column, and N_weighted becomes a (2^L, K) light-shift diagonal.
    """
    columns = [(schedule, labels), *payload]
    shifts = np.column_stack(
        [occ @ np.array([s.delta_amps[l - 1] for l in labs]) for s, labs in columns]
    )
    if payload:
        gain_omega = np.array([_gain(s.omega, schedule.omega) for s, _ in columns])
        gain_delta = np.array([_gain(s.delta, schedule.delta) for s, _ in columns])
        n_weighted = shifts
    else:
        gain_omega = gain_delta = 1.0
        n_weighted = sparse.diags(shifts[:, 0])
    parts = [
        (lambda t: schedule.omega.value(t) / 2.0 * gain_omega, x_tot),
        (lambda t: -schedule.delta.value(t) * gain_delta, n_tot),
        (lambda t: schedule.f.value(t), n_weighted),
    ]
    if h_mod is not None:
        parts.append((1.0, h_mod))
    return parts


def _norm_budget(
    schedule: PulseSchedule, num_sites: int, h_mod_bound: float
) -> float:
    """Upper bound on ||H(t)|| for sizing the start grid by the step budget."""
    dmax = max(abs(d) for d in schedule.delta_amps)
    return (
        schedule.omega.max_abs() / 2.0 * num_sites
        + schedule.delta.max_abs() * num_sites
        + schedule.f.max_abs() * dmax * num_sites
        + h_mod_bound
    )


def _validated_block(psi: StateVector, nominal, block, T: float, n0: int, tol: float):
    """Smallest validated step count, and ``block`` evolved on that grid.

    Column 0 of ``block`` is the nominal schedule that ``nominal``
    describes on its own (``block`` may be ``nominal`` itself). It is
    compared with a one-column run of ``nominal`` at twice the steps: at
    order p the n vs 2n distance is (1 - 2^-p) of the n-grid error, so
    passing at (1 - 2^-p) tol, 15/16 tol for the fourth-order step,
    certifies the coarse grid itself. Otherwise the step count doubles and
    the block is evolved again.
    """
    n = n0
    while True:
        out = evolve_blend(psi, block, 0.0, T, tol=None, initial_steps=n)
        coarse = out[0] if isinstance(out, list) else out
        fine = evolve_blend(psi, nominal, 0.0, T, tol=None, initial_steps=2 * n)
        err = float(np.linalg.norm(coarse.amp - fine.amp))
        if err <= (1.0 - 2.0**-_ORDER) * tol:
            return n, out
        n *= 2
        if n > 2**22:
            raise ConvergenceError(
                f"step validation stalled at {n} steps, error {err:.3e}"
            )


def run_pulsed(
    psi: StateVector,
    samples: Sequence[UnitarySample],
    schedule: PulseSchedule,
    fluct: FluctuationModel | None = None,
    h_mod: PauliStringSum | None = None,
    n_meas: int | float = EXACT_SHOTS,
    readout: ReadoutErrorModel | None = None,
    seed: int = 0,
    tol: float = 1e-6,
) -> MeasurementRecord:
    """Integrate the pulse Hamiltonian per sample, interactions included.

    Per sample k, the (seed, k) stream drives: amplitude-gain draws for
    the fluctuation model, then shot sampling, then readout flips.
    Records keep the nominal labels regardless of the gains actually
    applied. Scope "per_shot" redraws gains for every shot and costs one
    integration per shot; it is rejected in exact-probability mode,
    where no shot loop exists.

    Scope "per_unitary" evolves all samples as the columns of one block
    (up to 2^20 amplitudes; larger runs take several blocks): every site
    sees the same global waveforms, so a sample differs from the nominal
    schedule only in its light-shift diagonal and its gains. Column 0 of
    the first block is the nominal schedule under the first sample's
    labels, and it alone validates the time grid: it must agree with a
    one-column run at twice the steps to 15/16 tol, or the step count
    doubles and the block is evolved again.
    Scope "per_shot" validates the same way with the nominal column only.
    The validated grid serves every sample: gain draws rescale amplitudes
    by a few percent, which does not change the resolution the schedule
    needs. The default tol keeps the amplitude error two orders below the
    statistical resolution of any shot-sampled study; the integrator is
    fourth order, so each extra digit costs about 1.8x the steps. Wall
    time grows by less: a stretch of cells where the waveforms are
    constant is one exponential whatever its step count, so only the
    ramps and varying cells pay for the finer grid. A long constant
    stretch is a Chebyshev series, whose terms grow with the half-width
    of the spectrum (set by the light shifts) times the stretch's
    length, about one per unit of it (see ``statevector._exponential``).
    """
    if fluct is None:
        fluct = FluctuationModel(eps_percent=0.0)
    exact = _check_n_meas(n_meas)
    if exact and fluct.scope == "per_shot":
        raise ValueError("per_shot fluctuations are undefined in exact mode")
    if not samples:
        raise ValueError("at least one unitary sample required")

    num_sites = psi.num_sites
    x_tot = x_total(num_sites)
    n_tot = occupation(num_sites, range(1, num_sites + 1))
    occ = index_to_bits(np.arange(2**num_sites), num_sites).astype(float)
    h_sparse = None
    h_bound = 0.0
    if h_mod is not None:
        if h_mod.num_sites != num_sites:
            raise ValueError("h_mod length differs from the state")
        h_sparse = h_mod.to_sparse()
        h_bound = float(sum(abs(c) for _, c in h_mod.items()))

    # step-budget and kink-aligned starting grid
    n_cells = max(1, len(schedule.breakpoints()) - 1)
    burst = _norm_budget(schedule, num_sites, h_bound) * _EXP_WEIGHT * schedule.T
    n_burst = int(np.ceil(burst / _STEP_BUDGET))
    n0 = n_cells * max(1, int(np.ceil(n_burst / n_cells)))

    def parts(payload=()):
        return _pulsed_parts(schedule, samples[0].labels, x_tot, n_tot, occ, h_sparse, payload)

    nominal = parts()
    rngs = [_stream(seed, sample.realization) for sample in samples]
    entries = []
    if fluct.scope == "per_shot":
        steps, _ = _validated_block(psi, nominal, nominal, schedule.T, n0, tol)
        for sample, rng in zip(samples, rngs):
            idx = np.empty(int(n_meas), dtype=np.int64)
            for shot in range(int(n_meas)):
                shot_parts = _pulsed_parts(
                    perturb(schedule, fluct, rng), sample.labels, x_tot, n_tot, occ, h_sparse
                )
                rotated = evolve_blend(
                    psi, shot_parts, 0.0, schedule.T, tol=None, initial_steps=steps
                )
                idx[shot] = sample_basis_indices(rotated, 1, rng)[0]
            if readout is not None:
                bits = apply_readout_errors(index_to_bits(idx, num_sites), readout, rng)
                idx = bits_to_index(bits)
            entries.append(
                UnitaryMeasurement(
                    labels=sample.labels,
                    counts=_counts_from_indices(idx, num_sites),
                    seed=sample.realization,
                )
            )
    else:
        payload = [
            (perturb(schedule, fluct, rng), sample.labels)
            for sample, rng in zip(samples, rngs)
        ]
        # one column of each block is the nominal schedule
        width = max(1, (_BLOCK_AMPLITUDES >> num_sites) - 1)
        steps, block = _validated_block(
            psi, nominal, parts(payload[:width]), schedule.T, n0, tol
        )
        rotated = block[1:]
        for start in range(width, len(payload), width):
            block = evolve_blend(
                psi, parts(payload[start : start + width]), 0.0, schedule.T,
                tol=None, initial_steps=steps,
            )
            rotated += block[1:]
        for sample, rng, state in zip(samples, rngs, rotated):
            if exact:
                entries.append(_exact_entry(state, sample.labels, readout))
            else:
                entries.append(
                    _sample_entry(
                        state, sample.labels, int(n_meas), readout, rng,
                        sample.realization,
                    )
                )

    meta = {
        "seed": int(seed),
        "readout": _readout_meta(readout),
        "eps_percent": fluct.eps_percent,
        "scope": fluct.scope,
        "steps": int(steps),
    }
    return MeasurementRecord(
        num_sites=num_sites,
        mode="pulsed",
        n_meas=n_meas,
        entries=tuple(entries),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# NDJSON persistence
# ---------------------------------------------------------------------------


def save_record(record: MeasurementRecord, path: str | Path) -> None:
    """Newline-delimited JSON, format version 2: a header, then one entry per line.

    Each line is a JSON object with sorted keys. An exact entry stores its
    probabilities under "probs_f64le" as the base64 text of their
    little-endian float64 bytes, so load_record gets the same bits back;
    a sampled entry stores its "counts" object.
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
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for e in record.entries:
            doc: dict = {"labels": list(e.labels)}
            if e.seed is not None:
                doc["seed"] = e.seed
            if e.counts is not None:
                doc["counts"] = e.counts
            else:
                raw = np.asarray(e.probs, dtype="<f8").tobytes()
                doc[_PROBS_KEY[_RECORD_VERSION]] = base64.b64encode(raw).decode("ascii")
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _entry_probs(doc: dict, version: int) -> np.ndarray | None:
    """An entry's exact probabilities as a float64 array the entry owns."""
    stored = doc.get(_PROBS_KEY[version])
    if stored is None:
        return None
    if version == 1:
        return np.array(stored, dtype=np.float64)
    raw = base64.b64decode(stored, validate=True)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def load_record(path: str | Path) -> MeasurementRecord:
    """Read a record written by save_record, format version 1 or 2.

    Version 2 exact entries decode from "probs_f64le" (base64 of
    little-endian float64 bytes), version 1 ones from the "probs" list of
    text floats; both give float64 arrays the record owns. Any other
    version raises ValueError, as does an exact entry that does not hold
    2^L probabilities.
    """
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty record file")
    header = json.loads(lines[0])
    if header.get("format") != _RECORD_FORMAT:
        raise ValueError("not a measurement record file")
    version = header.get("version")
    if version not in tuple(_PROBS_KEY):
        raise ValueError(f"unsupported record version {version!r}")
    n_meas = header["n_meas"]
    n_meas = EXACT_SHOTS if n_meas == "exact" else int(n_meas)
    entries = []
    for line in lines[1:]:
        doc = json.loads(line)
        entries.append(
            UnitaryMeasurement(
                labels=tuple(doc["labels"]),
                counts={k: int(v) for k, v in doc["counts"].items()}
                if "counts" in doc
                else None,
                probs=_entry_probs(doc, version),
                seed=doc.get("seed"),
            )
        )
    return MeasurementRecord(
        num_sites=int(header["num_sites"]),
        mode=str(header["mode"]),
        n_meas=n_meas,
        entries=tuple(entries),
        meta=dict(header.get("meta") or {}),
    )
