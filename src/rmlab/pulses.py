"""Pulse schedules for the three local random rotations, and their quality.

A schedule drives every site with the same global waveforms Omega(t) (Rabi),
Delta(t) (detuning) and f(t) (light-shift shape); sites differ only through
the static per-label amplitudes delta_amps = (d1, d2, d3). The single-site
Hamiltonian for rotation label a is

    H_a(t) = Omega(t)/2 sigma_x - (Delta(t) - f(t) d_a) n,    n = (1 + Z)/2.

All rates are angular (rad/us), times in us.

Rotation targets (up to a left-diagonal z-phase, which z-basis readout
cannot see): label 1 -> exp(-i pi/4 X), label 2 -> exp(-i pi/4 Y),
label 3 -> identity. Equivalently, the measurement axis U^dag Z U must hit
+y, -x, +z. Axis fidelity (1 + axis.target)/2 equals 1 exactly when the
realized unitary is in the target's equivalence class, so it is the natural
calibration objective.

Waveforms are piecewise linear between breakpoints; a repeated time value
encodes an instantaneous jump, which keeps the analytical square-pulse
reference exact. Hardware-style schedules must respect the amplitude cap
(2pi*7 rad/us) and the slew limit (2pi*3.5 rad/us per ns).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from typing import Sequence

import numpy as np

from .pauli import PAULI_MATRICES, ROTATION_MATRICES, TWO_PI
from .statevector import _GAUSS_OFF, NumericalContractError, _certify

__all__ = [
    "AMP_CAP",
    "SLEW_CAP",
    "GRID_DT",
    "TARGET_AXES",
    "ConstraintError",
    "CalibrationError",
    "Waveform",
    "PulseSchedule",
    "FluctuationModel",
    "RealisticParams",
    "CalibrationResult",
    "RotationStats",
    "realistic_schedule",
    "perturb",
    "draw_gains",
    "single_qubit_propagator",
    "propagator_batch",
    "axis_fidelity",
    "mc_rotation_stats",
    "calibrate",
    "schedule_to_json",
    "schedule_from_json",
    "golden_schedule",
]

AMP_CAP = TWO_PI * 7.0  # rad/us
SLEW_CAP = TWO_PI * 3.5 * 1000.0  # rad/us per us (2pi*3.5 rad/us per ns)
GRID_DT = 5e-4  # us, uniform export grid

# Measurement axis U^dag Z U realized by each ideal rotation.
TARGET_AXES = {
    1: np.array([0.0, 1.0, 0.0]),
    2: np.array([-1.0, 0.0, 0.0]),
    3: np.array([0.0, 0.0, 1.0]),
}

_SUBSTEP_BUDGET = 0.02  # |H| * dt per closed-form substep on ramp segments
# substep-rows that propagator_batch evaluates at once (2 MB of 2x2 complex;
# at 2^17 a 4,000-row call ran slower and its peak RSS grew by 24 MB)
_BLOCK_SUBSTEPS = 2**15
# amplitude noise, in percent, under which calibrate's stats targets hold
_STATS_EPS_PERCENT = 3.0


class ConstraintError(ValueError):
    """Schedule violates an amplitude, slew, or geometry constraint."""


class CalibrationError(RuntimeError):
    """Calibration failed to reach the requested fidelity floor."""


# ---------------------------------------------------------------------------
# Waveforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Waveform:
    """Piecewise-linear waveform; a repeated time is an instantaneous jump."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("times and values must be equal-length 1d arrays")
        if t[0] != 0.0:
            raise ValueError("waveforms start at t = 0")
        if np.any(np.diff(t) < 0):
            raise ValueError("times must be non-decreasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float, duration: float) -> "Waveform":
        return cls(np.array([0.0, duration]), np.array([value, value]))

    @classmethod
    def from_grid(cls, values: Sequence[float], grid_dt: float) -> "Waveform":
        v = np.asarray(values, dtype=float)
        return cls(np.arange(v.size) * grid_dt, v)

    @classmethod
    def trapezoid(
        cls, duration: float, start: float, end: float, rise: float, height: float
    ) -> "Waveform":
        """Zero outside [start, end], linear ramps of length ``rise`` inside."""
        if height == 0.0:
            return cls.constant(0.0, duration)
        if rise <= 0.0:
            raise ConstraintError("zero ramp time on a nonzero segment (slew violation)")
        if not (0.0 <= start and start + 2 * rise <= end and end <= duration):
            raise ConstraintError(
                f"trapezoid geometry invalid: start={start}, end={end}, "
                f"rise={rise}, duration={duration}"
            )
        pts = [
            (0.0, 0.0),
            (start, 0.0),
            (start + rise, height),
            (end - rise, height),
            (end, 0.0),
            (duration, 0.0),
        ]
        # collapse exactly coincident corners (start == 0 etc.)
        times, vals = [pts[0][0]], [pts[0][1]]
        for t, v in pts[1:]:
            if t == times[-1] and v == vals[-1]:
                continue
            times.append(t)
            vals.append(v)
        return cls(np.array(times), np.array(vals))

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def value(self, t):
        return np.interp(t, self.times, self.values)

    def scaled(self, gain: float) -> "Waveform":
        return Waveform(self.times, self.values * gain)

    def breakpoints(self) -> np.ndarray:
        return np.unique(self.times)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def max_slew(self) -> float:
        """Largest |dv/dt|; an actual jump reports inf."""
        dt = np.diff(self.times)
        dv = np.abs(np.diff(self.values))
        out = 0.0
        for step, dval in zip(dt, dv):
            if step == 0.0:
                if dval > 0.0:
                    return math.inf
            else:
                out = max(out, dval / step)
        return out

    def resample(self, grid_dt: float) -> np.ndarray:
        n = int(round(self.duration / grid_dt))
        if abs(n * grid_dt - self.duration) > 1e-12:
            raise ValueError("duration is not a multiple of grid_dt")
        return self.value(np.arange(n + 1) * grid_dt)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulseSchedule:
    """Global drive (omega, delta, f) plus per-label light-shift amplitudes."""

    T: float
    omega: Waveform
    delta: Waveform
    f: Waveform
    delta_amps: tuple[float, float, float]
    family: str = "custom"

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError("T must be positive")
        for w in (self.omega, self.delta, self.f):
            if abs(w.duration - self.T) > 1e-12:
                raise ValueError("waveform duration differs from T")
        object.__setattr__(self, "delta_amps", tuple(float(d) for d in self.delta_amps))
        if len(self.delta_amps) != 3:
            raise ValueError("delta_amps must have three entries")

    def breakpoints(self) -> np.ndarray:
        return np.unique(
            np.concatenate(
                [self.omega.breakpoints(), self.delta.breakpoints(), self.f.breakpoints()]
            )
        )

    def validate_realistic(self) -> None:
        """Amplitude cap on the drive, slew limit on every physical channel.

        The amplitude cap binds the Rabi drive only; detunings and light
        shifts are frequency settings whose hardware limit is how fast
        they can be swept, so they carry the slew bound alone.
        """
        if self.omega.max_abs() > AMP_CAP * (1 + 1e-9):
            raise ConstraintError(
                f"omega amplitude {self.omega.max_abs():.3f} exceeds cap "
                f"{AMP_CAP:.3f} rad/us"
            )
        checks = [("omega", self.omega), ("delta", self.delta)]
        checks += [
            (f"f*delta_{a}", self.f.scaled(self.delta_amps[a - 1])) for a in (1, 2, 3)
        ]
        for name, w in checks:
            if w.max_slew() > SLEW_CAP * (1 + 1e-9):
                raise ConstraintError(f"{name} slew rate exceeds {SLEW_CAP:.1f} rad/us^2")


@dataclass(frozen=True)
class FluctuationModel:
    """Gaussian multiplicative amplitude noise, relative std in percent.

    scope: "per_unitary" draws the gains once per sampled rotation
    pattern; "per_shot" redraws them for every shot, so each unitary's
    shots sample the gain-averaged outcome distribution, which
    ``protocol.run_pulsed`` evaluates with the sigma points of
    ``_sigma_gains``.
    """

    eps_percent: float = 0.0
    scope: str = "per_unitary"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_percent) and self.eps_percent >= 0):
            raise ValueError("eps_percent must be finite and non-negative")
        if self.scope not in ("per_unitary", "per_shot"):
            raise ValueError("scope must be per_unitary or per_shot")


# gain vector layout, one relative gain per independently fluctuating amplitude
GAIN_COLUMNS = ("omega", "delta", "d1", "d2", "d3")


def draw_gains(model: FluctuationModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 5) array of relative gains g; amplitudes scale by (1 + g)."""
    return rng.normal(0.0, model.eps_percent / 100.0, size=(n, 5))


def perturb(
    schedule: PulseSchedule, model: FluctuationModel, rng: np.random.Generator
) -> PulseSchedule:
    """One noise realization: each amplitude scaled by its own (1 + g)."""
    return _apply_gains(schedule, draw_gains(model, rng, 1)[0])


def _apply_gains(schedule: PulseSchedule, g: np.ndarray) -> PulseSchedule:
    """``schedule`` with its five amplitudes scaled by (1 + g), GAIN_COLUMNS order."""
    d = schedule.delta_amps
    return replace(
        schedule,
        omega=schedule.omega.scaled(1.0 + g[0]),
        delta=schedule.delta.scaled(1.0 + g[1]),
        delta_amps=(d[0] * (1.0 + g[2]), d[1] * (1.0 + g[3]), d[2] * (1.0 + g[4])),
    )


# ---------------------------------------------------------------------------
# Schedule families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealisticParams:
    """Trapezoid knobs for a hardware-style schedule (times in us).

    The light-shift envelope f holds unit height over a phasing window,
    then steps down to f_low for the drive window; per-label magnitudes
    live in d2 and d3 (d1 is pinned to zero: label 1 is the undressed
    rotation). Label 2 collects its z-phase while f is high and the
    drive is off, then rides the same resonant pulse as label 1; only
    label 3 stays detuned while the drive is on.

    The defaults project the sequential reference onto the slew and drive
    caps. First a phasing window: f at unit height, drive off, so label 2
    accrues d2 * window as its +pi/2 z-phase (no extra turns: the total
    phase is pi/2 exactly, keeping its fluctuation sensitivity at 3% of
    pi/2). Then a drive window: f steps down to f_low, omega sweeps a
    pi/2 X-area shared by labels 1 and 2, delta splits the residual
    f_low*d2 detuning symmetrically between them, and f_low*d3 holds
    label 3 near a full generalized-Rabi cycle so it barely leaves the
    z-axis.
    """

    T: float = 0.15
    omega_amp: float = 17.952
    omega_start: float = 0.058
    omega_end: float = 0.15
    omega_rise: float = 0.0045
    delta_amp: float = -1.6927
    delta_start: float = 0.058
    delta_end: float = 0.15
    delta_rise: float = 0.004
    f_step_time: float = 0.03
    f_step_rise: float = 0.028
    f_low: float = 0.1
    d2: float = -33.8534
    d3: float = 650.0

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in self._FIELDS])

    def with_vector(self, x: Sequence[float]) -> "RealisticParams":
        return replace(self, **{k: float(v) for k, v in zip(self._FIELDS, x)})


# the knobs a calibration moves, in field order: every field but the window T
RealisticParams._FIELDS = tuple(f.name for f in fields(RealisticParams) if f.name != "T")


def _two_level_envelope(params: RealisticParams) -> Waveform:
    """Unit plateau stepping down to f_low partway through the window.

    The envelope starts and ends mid-level: the light-shift beams settle
    before the protocol window and switch off after it, so only the
    interior step is slew-checked.
    """
    p = params
    knots = (0.0, p.f_step_time, p.f_step_time + p.f_step_rise, p.T)
    values = (1.0, 1.0, p.f_low, p.f_low)
    if any(t1 < t0 for t0, t1 in zip(knots[:-1], knots[1:])):
        raise ConstraintError("f envelope knots out of order")
    return Waveform(np.asarray(knots, dtype=float), np.asarray(values, dtype=float))


def realistic_schedule(params: RealisticParams) -> PulseSchedule:
    """Trapezoidal schedule honoring the slew and amplitude limits."""
    if not 0.05 <= params.T <= 0.5:
        raise ConstraintError("realistic schedules expect T of order 0.15 us")
    s = PulseSchedule(
        T=params.T,
        omega=Waveform.trapezoid(
            params.T, params.omega_start, params.omega_end, params.omega_rise, params.omega_amp
        ),
        delta=Waveform.trapezoid(
            params.T, params.delta_start, params.delta_end, params.delta_rise, params.delta_amp
        ),
        f=_two_level_envelope(params),
        delta_amps=(0.0, params.d2, params.d3),
        family="realistic",
    )
    s.validate_realistic()
    return s


# ---------------------------------------------------------------------------
# Single-site propagators (closed-form 2x2 steps, batched over noise draws)
# ---------------------------------------------------------------------------


def _label_segments(schedule: PulseSchedule, label: int):
    """Nominal segment lengths and endpoint values, one array entry per segment.

    Returns (dt, w, dd, ff): dt has shape (segments,), and w, dd and ff
    shape (2, segments), holding omega, bare delta and f*d_label at each
    segment's start (row 0) and end (row 1), read with one ``np.interp``
    per waveform. All waveforms are linear within a segment, so endpoint
    equality certifies constancy.
    """
    bps = schedule.breakpoints()
    dt = np.diff(bps)
    # nudge inside each segment so jumps at breakpoints resolve correctly
    nudge = dt * 1e-9
    ends = np.stack([bps[:-1] + nudge, bps[1:] - nudge])
    d_amp = schedule.delta_amps[label - 1]
    return dt, schedule.omega.value(ends), schedule.delta.value(ends), schedule.f.value(ends) * d_amp


def _rotvec_matrices(kx, ky, kz, phase) -> np.ndarray:
    """exp(-i (kx X + ky Y + kz Z + phase I)) elementwise; shape (..., 2, 2)."""
    r = np.sqrt(kx * kx + ky * ky + kz * kz)
    cos = np.cos(r)
    safe = np.where(r > 0, r, 1.0)
    sinc = np.where(r > 0, np.sin(safe) / safe, 1.0)
    ph = np.exp(-1j * phase)
    u = np.empty(np.broadcast(kx, ky, kz).shape + (2, 2), dtype=complex)
    # sigma_z = diag(-1, 1), sigma_y = [[0, i], [-i, 0]] (basis down, up).
    # ph comes last: numpy may evaluate a product with a large temporary in
    # place, as temporary * other, and a complex product is not bitwise
    # symmetric, so this order keeps the bits independent of the array size
    u[..., 0, 0] = (cos + 1j * kz * sinc) * ph
    u[..., 0, 1] = -1j * sinc * (kx + 1j * ky) * ph
    u[..., 1, 0] = -1j * sinc * (kx - 1j * ky) * ph
    u[..., 1, 1] = (cos - 1j * kz * sinc) * ph
    return u


def _magnus_step(a_lo, a_hi, d_lo, d_hi, dt):
    """Fourth-order Magnus step for H = a(t)/2 X - d(t) n, a and d linear.

    Inputs are the drive and effective detuning at the two Gauss nodes.
    The commutator term only generates a Y component, so the exponential
    stays in closed axis-angle form; on constant segments it vanishes and
    the step is exact.
    """
    b_bar = (a_lo + a_hi) / 4.0
    c_bar = -(d_lo + d_hi) / 4.0
    kx = dt * b_bar
    kz = dt * c_bar
    ky = (math.sqrt(3.0) / 24.0) * dt * dt * (a_hi * d_lo - a_lo * d_hi)
    phase = dt * c_bar  # scalar part -d/2 tracks the z part for this H
    return _rotvec_matrices(kx, ky, kz, phase)


def _reduce_matmul(us: np.ndarray) -> np.ndarray:
    """Ordered product us[-1] @ ... @ us[0] of 2x2s over axis 0, by pairwise
    log-depth reduction; the axes between are batch axes. The products are
    written out entrywise, about twice as fast as ``@`` on stacks of 2x2s."""
    while us.shape[0] > 1:
        a, b = us[1::2], us[0 : us.shape[0] - 1 : 2]
        pairs = np.empty(a.shape, dtype=complex)
        for i in (0, 1):
            for k in (0, 1):
                pairs[..., i, k] = a[..., i, 0] * b[..., 0, k] + a[..., i, 1] * b[..., 1, k]
        us = np.concatenate([pairs, us[-1:]]) if us.shape[0] % 2 else pairs
    return us[0]


def propagator_batch(
    schedule: PulseSchedule,
    label: int,
    gains: np.ndarray,
    budget: float = _SUBSTEP_BUDGET,
) -> np.ndarray:
    """(n, 2, 2) propagators for n relative-gain draws (columns GAIN_COLUMNS).

    Constant segments use one exact step each; ramp segments use
    fourth-order Magnus substeps with |H| dt <= budget (use
    single_qubit_propagator for certified tolerances). One ``_magnus_step``
    call evaluates every substep of a chunk of gain rows, at most
    _BLOCK_SUBSTEPS substep-rows, and ``_reduce_matmul`` multiplies them.
    """
    if label not in (1, 2, 3):
        raise ValueError("label must be 1, 2, or 3")
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2 or gains.shape[1] != 5:
        raise ValueError("gains must have shape (n, 5)")
    dt_seg, w, dd, ff = _label_segments(schedule, label)
    const = (w[0] == w[1]) & (dd[0] == dd[1]) & (ff[0] == ff[1])
    bound = np.abs(w).max(axis=0) / 2 + (np.abs(dd) + np.abs(ff)).max(axis=0)
    # the Magnus step is exact on constant segments
    n_steps = np.where(const, 1, np.maximum(1, np.ceil(bound * dt_seg / budget))).astype(int)
    seg = np.repeat(np.arange(dt_seg.size), n_steps)
    base = np.arange(seg.size) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps) + 0.5
    pos = np.stack([base - _GAUSS_OFF, base + _GAUSS_OFF]) / n_steps[seg]
    # (Gauss node, substep, 1) nominal values; rows broadcast along the last axis
    w_at, dd_at, ff_at = (
        (v[0, seg] + (v[1, seg] - v[0, seg]) * pos)[..., None] for v in (w, dd, ff)
    )
    dt = (dt_seg / n_steps)[seg, None]

    out = np.empty((gains.shape[0], 2, 2), dtype=complex)
    rows = max(1, _BLOCK_SUBSTEPS // seg.size)
    for start in range(0, gains.shape[0], rows):
        g = 1.0 + gains[start : start + rows]
        a = w_at * g[:, 0]
        d = dd_at * g[:, 1] - ff_at * g[:, 1 + label]
        out[start : start + rows] = _reduce_matmul(_magnus_step(a[0], a[1], d[0], d[1], dt))
    return out


def single_qubit_propagator(
    schedule: PulseSchedule, label: int, tol: float = 1e-12
) -> np.ndarray:
    """Noiseless 2x2 propagator, the run at ramp substep budget
    _SUBSTEP_BUDGET / (2m) for the first m that ``statevector._certify``
    certifies within tol."""
    zero = np.zeros((1, 5))

    def run(m: int) -> np.ndarray:
        return propagator_batch(schedule, label, zero, _SUBSTEP_BUDGET / m)[0]

    u = _certify(run, 1, tol)[1]
    dev = float(np.linalg.norm(u @ u.conj().T - np.eye(2)))
    if dev > 1e-10:
        raise NumericalContractError(f"propagator unitarity deviation {dev:.3e}")
    return u


# ---------------------------------------------------------------------------
# Axes and figure of merit
# ---------------------------------------------------------------------------


def _measured_axis(u: np.ndarray) -> np.ndarray:
    """Bloch vector of U^dag Z U; unit length for any unitary U."""
    m = u.conj().T @ PAULI_MATRICES["Z"] @ u
    return np.array(
        [
            0.5 * np.trace(PAULI_MATRICES[p] @ m).real
            for p in ("X", "Y", "Z")
        ]
    )


def axis_fidelity(u: np.ndarray, label: int) -> float:
    """(1 + axis . target)/2; equals 1 iff U is the target up to z-phase."""
    return float((1.0 + _measured_axis(u) @ TARGET_AXES[label]) / 2.0)


_PAIRS = {1: (2, 3), 2: (3, 1), 3: (1, 2)}  # (beta, gamma) with eps_{a,b,g} = +1


def _half_merits(u: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A_a/2 = |<up|U_b U_g^dag|up>|^2 for a = 1, 2, 3, one value per draw.

    ``u`` maps each label to its (n, 2, 2) propagators; (b, g) is the
    cyclic pair of a. The figure of merit A_a sums the overlap over both
    ordered pairs, which are complex conjugates, hence the half. The ideal
    rotation set gives exactly 1/2, coinciding rotations give 1. A
    left-diagonal z-phase on any U, which z-basis readout cannot see,
    leaves the value unchanged. (The literal Levi-Civita contraction of
    the overlaps is no score: the conjugate pairs cancel to 2i Im.)
    """
    half = []
    for a in (1, 2, 3):
        b, g = _PAIRS[a]
        # <up| U_b U_g^dag |up> = sum_k U_b[1, k] conj(U_g[1, k])
        m = np.einsum("nk,nk->n", u[b][:, 1, :], u[g][:, 1, :].conj())
        half.append(np.abs(m) ** 2)
    return tuple(half)


@dataclass(frozen=True)
class RotationStats:
    """Summary of A_a/2 under amplitude fluctuations.

    n_draws counts Monte Carlo realizations; 0 marks a deterministic
    sigma-point quadrature instead.
    """

    half_means: tuple[float, float, float]
    half_stds: tuple[float, float, float]
    n_draws: int
    fidelities: tuple[float, float, float]


def mc_rotation_stats(
    schedule: PulseSchedule,
    eps_percent: float,
    n_draws: int,
    rng: np.random.Generator,
) -> RotationStats:
    """Distribution of A_a/2 over n_draws amplitude-noise realizations.

    Each draw perturbs the five amplitudes once and evaluates the figure of
    merit on the resulting rotation set, mirroring noise that changes at
    each unitary sample.
    """
    model = FluctuationModel(eps_percent=eps_percent)
    gains = draw_gains(model, rng, n_draws)
    half = _half_merits({a: propagator_batch(schedule, a, gains) for a in (1, 2, 3)})
    fids = tuple(
        axis_fidelity(single_qubit_propagator(schedule, a), a) for a in (1, 2, 3)
    )
    return RotationStats(
        half_means=tuple(float(np.mean(h)) for h in half),
        half_stds=tuple(float(np.std(h)) for h in half),
        n_draws=n_draws,
        fidelities=fids,
    )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    params: RealisticParams
    fidelities: tuple[float, float, float]
    objective: float
    n_evaluations: int
    stats: RotationStats | None = None


def _schedule_or_none(params: RealisticParams) -> PulseSchedule | None:
    try:
        return realistic_schedule(params)
    except (ConstraintError, ValueError):
        return None


def _noiseless_fidelities(schedule: PulseSchedule) -> np.ndarray:
    zero = np.zeros((1, 5))
    return np.array(
        [axis_fidelity(propagator_batch(schedule, a, zero)[0], a) for a in (1, 2, 3)]
    )


# weights of the _sigma_gains rows: -2/3 on the nominal row, 1/6 on each
# displaced row; they sum to one
_SIGMA_WEIGHTS = np.array([-2.0 / 3.0] + [1.0 / 6.0] * 10)


def _sigma_gains(eps_percent: float) -> np.ndarray:
    """Third-order Gauss-Hermite sigma points for the five gain channels.

    Row 0 is the nominal point; rows 2k+1, 2k+2 displace channel k by
    +-sqrt(3) sigma. With the weights _SIGMA_WEIGHTS they reproduce
    Gaussian means of per-channel quartics exactly (the unscented
    transform; Julier and Uhlmann, Proc. IEEE 92, 401 (2004)).
    """
    sigma = eps_percent / 100.0
    pts = np.zeros((11, 5))
    step = math.sqrt(3.0) * sigma
    for k in range(5):
        pts[2 * k + 1, k] = step
        pts[2 * k + 2, k] = -step
    return pts


def _sigma_point_stats(schedule: PulseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature estimate of (means, stds) of A_a/2 under the amplitude
    noise of the stats targets, _STATS_EPS_PERCENT.

    Additive across channels: exact through second order in sigma for the
    mean, first order for the std. Deterministic and smooth in the
    schedule knobs, unlike a finite Monte Carlo sample, so it is the
    right surrogate inside a Nelder-Mead loop; final verification always
    re-measures with mc_rotation_stats.
    """
    pts = _sigma_gains(_STATS_EPS_PERCENT)
    half = _half_merits({a: propagator_batch(schedule, a, pts) for a in (1, 2, 3)})
    means = np.empty(3)
    stds = np.empty(3)
    for a, vals in zip((1, 2, 3), half):
        a0 = vals[0]
        plus, minus = vals[1::2], vals[2::2]
        means[a - 1] = _SIGMA_WEIGHTS @ vals
        lin = (plus - minus) / (2.0 * math.sqrt(3.0))
        quad = (plus + minus - 2.0 * a0) / 3.0
        stds[a - 1] = math.sqrt(np.sum(lin**2) + 0.5 * np.sum(quad**2))
    return means, stds


def calibrate(
    start: RealisticParams | None = None,
    objective: str = "fidelity",
    fidelity_floor: float = 0.995,
    stats_targets: Sequence[float] | None = None,
    maxiter: int = 4000,
    free: Sequence[str] | None = None,
) -> CalibrationResult:
    """Derivative-free tuning of the trapezoid knobs.

    objective "fidelity" maximizes the worst noiseless axis fidelity.
    objective "stats" instead pulls the means of A_a/2 under
    _STATS_EPS_PERCENT amplitude noise toward stats_targets while
    penalizing fidelities below the floor, which is how the shipped
    golden schedule trades a little axis purity for the published noise
    statistics. free restricts the search to the named knobs, holding the
    rest at their start values; Nelder-Mead in four well-chosen
    coordinates beats it in thirteen sloppy ones.
    Deterministic for fixed inputs.
    """
    # deferred: scipy.optimize costs a quarter second of every start-up
    from scipy.optimize import minimize

    if objective not in ("fidelity", "stats"):
        raise ValueError("objective must be fidelity or stats")
    if objective == "stats" and stats_targets is None:
        raise ValueError("stats objective requires stats_targets")
    params0 = start if start is not None else RealisticParams()
    if _schedule_or_none(params0) is None:
        raise CalibrationError("infeasible starting point")
    full0 = params0.to_vector()
    if free is None:
        idx = np.arange(full0.size)
    else:
        unknown = set(free) - set(RealisticParams._FIELDS)
        if unknown:
            raise ValueError(f"unknown knob names: {sorted(unknown)}")
        idx = np.array([RealisticParams._FIELDS.index(name) for name in free])
    x0 = full0[idx]
    scale = np.maximum(np.abs(x0), 1e-3)
    evals = 0

    def embed(z: np.ndarray) -> RealisticParams:
        full = full0.copy()
        full[idx] = z * scale
        return params0.with_vector(full)

    def loss(z: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        p = embed(z)
        s = _schedule_or_none(p)
        if s is None:
            return 1e3 + float(np.sum(np.abs(z)))
        fids = _noiseless_fidelities(s)
        worst = float(fids.min())
        if objective == "fidelity":
            return -worst
        # Quadratic penalties equilibrate slightly inside the wall, so the
        # wall stands half a millifidelity above the floor we verify.
        penalty = 4e3 * max(0.0, fidelity_floor + 5e-4 - worst) ** 2
        means, _ = _sigma_point_stats(s)
        miss = float(np.sum((means - np.asarray(stats_targets)) ** 2))
        return miss + penalty

    res = minimize(
        loss,
        x0 / scale,
        method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-6, "fatol": 1e-10, "adaptive": True},
    )
    best = embed(res.x)
    sched = _schedule_or_none(best)
    if sched is None:
        raise CalibrationError("optimizer left the feasible region")
    fids = tuple(float(v) for v in _noiseless_fidelities(sched))
    if min(fids) < fidelity_floor:
        raise CalibrationError(
            f"fidelity floor {fidelity_floor} not reached: best {fids}"
        )
    stats = None
    if objective == "stats":
        means, stds = _sigma_point_stats(sched)
        stats = RotationStats(
            half_means=tuple(float(v) for v in means),
            half_stds=tuple(float(v) for v in stds),
            n_draws=0,
            fidelities=fids,
        )
    return CalibrationResult(
        params=best, fidelities=fids, objective=float(res.fun), n_evaluations=evals,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# JSON round trip (uniform grid export)
# ---------------------------------------------------------------------------


def schedule_to_json(schedule: PulseSchedule, grid_dt: float = GRID_DT) -> str:
    """Uniform-grid export; instantaneous jumps are smeared over one cell."""
    return json.dumps(
        {
            "T": schedule.T,
            "grid_dt": grid_dt,
            "omega": schedule.omega.resample(grid_dt).tolist(),
            "delta": schedule.delta.resample(grid_dt).tolist(),
            "f": schedule.f.resample(grid_dt).tolist(),
            "delta_amps": list(schedule.delta_amps),
            "units": "rad_per_us",
            "family": schedule.family,
        }
    )


def schedule_from_json(text: str) -> PulseSchedule:
    doc = json.loads(text)
    required = {"T", "grid_dt", "omega", "delta", "f", "delta_amps", "units"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"schedule JSON missing keys: {sorted(missing)}")
    if doc["units"] != "rad_per_us":
        raise ValueError(f"unsupported units {doc['units']!r}")
    dt = float(doc["grid_dt"])
    return PulseSchedule(
        T=float(doc["T"]),
        omega=Waveform.from_grid(doc["omega"], dt),
        delta=Waveform.from_grid(doc["delta"], dt),
        f=Waveform.from_grid(doc["f"], dt),
        delta_amps=tuple(float(v) for v in doc["delta_amps"]),
        family=str(doc.get("family", "custom")),
    )


def golden_schedule() -> PulseSchedule:
    """The shipped calibrated schedule, loaded from package data.

    Produced by scripts/make_golden_schedule.py: noiseless axis
    fidelities >= 0.995 and noise-averaged A_a/2 statistics inside the
    reference windows under 3 percent amplitude fluctuations.
    """
    text = resources.files("rmlab").joinpath("data/golden_schedule.json").read_text()
    return schedule_from_json(text)
