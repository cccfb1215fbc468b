"""Post-processing of measurement records into physical quantities.

Every estimator reads a record entry the same way: its dense outcome
array over the 2^L basis indices, divided by the record's ``norm`` (n_meas
for sampled counts, 1 for exact probabilities), is the empirical or
exact outcome distribution P̃_U.

Purity. With outcome distribution P̃_U on an ℓ-site subsystem, each
unitary contributes

    X_U = 2^ℓ Σ_{s,s'} (-2)^{-D[s,s']} P̃_U(s) P̃_U(s'),

where D is the Hamming distance. The kernel factorizes per site into
[[2, -1], [-1, 2]], so X_U is a quadratic form evaluated with one
O(ℓ 2^ℓ) transform instead of a 4^ℓ double sum. Averaging X_U over
unitaries gives x; for empirical distributions from N shots the
unbiased value is x N/(N-1) - 2^ℓ/(N-1). That closed form equals the
U-statistic over distinct shot pairs exactly: the diagonal of the
double sum contributes k(s, s) = 2^ℓ per shot, and removing it is
algebra, not approximation; the tests confirm the identity with a
U-statistic that walks the pairs directly.

Pauli expectations. Rotating the state by U and reading z is the same
as measuring U P U†, so each recorded pattern estimates Tr[P ρ] whenever
U P U† is diagonal. That is a label rule, tested for each string against
the whole (N_U, L) label array at once: every X site needs label 2, every
Y site label 1 and every Z site label 3 (`PauliString.diagonalized_by`).
Under uniform label sampling a hit has probability 3^-w (w = support
weight), hence the importance weight 3^w on hits and 0 otherwise: the
classical-shadow estimator, linear in the outcome probabilities. Records
store nominal labels, so miscalibrated rotations shift these estimates
exactly as they would in the lab.

All reductions over unitaries use compensated summation, making results
independent of worker count or reduction order at the 1e-13 level.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .pauli import LABELS, PauliString, PauliStringSum, square_observable
from .protocol import EXACT_SHOTS, MeasurementRecord
from .statevector import _check_sites, apply_site_matrices

__all__ = [
    "EstimatorResult",
    "NormalizationError",
    "purity_estimate",
    "observable_expectation",
    "hamiltonian_variance",
    "RESULT_COLUMNS",
    "results_to_csv",
]


class NormalizationError(RuntimeError):
    """<H^2> estimate came out non-positive, so the ratio is undefined."""


@dataclass(frozen=True)
class EstimatorResult:
    """One experiment's estimate.

    The spread over repetitions is the runner's to take (results.csv).
    """

    value: float


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------

_KERNEL = np.array([[2.0, -1.0], [-1.0, 2.0]])


def _marginal_distribution(
    outcomes: np.ndarray, norm: float, num_sites: int, sites: tuple[int, ...]
) -> np.ndarray:
    """Subsystem outcome distribution: the outcomes summed over the other
    sites, then divided by ``norm``."""
    shaped = outcomes.reshape((2,) * num_sites)
    drop = tuple(ax for ax in range(num_sites) if (ax + 1) not in sites)
    return shaped.sum(axis=drop).reshape(-1) / norm


def purity_estimate(record: MeasurementRecord, sites: Sequence[int]) -> EstimatorResult:
    """Second Renyi purity of the subsystem from one experiment.

    Exact-probability records give the estimator's expectation directly;
    sampled records get the closed-form shot-noise correction. Values
    are not clipped to [0, 1]: excursions outside are informative.
    """
    if record.n_unitaries == 0:
        raise ValueError("record has no entries")
    sub = tuple(sorted(_check_sites(sites, record.num_sites)))
    ell = len(sub)
    kernel = [_KERNEL] * ell
    x_values = []
    for e in record.entries:
        p = _marginal_distribution(e.outcomes, record.norm, record.num_sites, sub)
        x_values.append(float(p @ apply_site_matrices(p, kernel)))
    x = math.fsum(x_values) / len(x_values)
    if record.n_meas == EXACT_SHOTS:
        value = x
    else:
        n = record.n_meas
        if n < 2:
            raise ValueError("bias correction requires at least 2 shots")
        value = x * n / (n - 1) - (2**ell) / (n - 1)
    return EstimatorResult(value=value)


# ---------------------------------------------------------------------------
# Pauli and observable expectations
# ---------------------------------------------------------------------------


def _outcome_table(record: MeasurementRecord):
    """(labels, every, rows, norm): the ``(N_U, L)`` label array,
    ``arange(2^L)``, per unitary its outcome array over ``every``, and the
    record's norm."""
    labels = np.array([e.labels for e in record.entries], dtype=np.int8)
    if not np.isin(labels, LABELS).all():
        raise ValueError(f"invalid rotation label; expected one of {LABELS}")
    every = np.arange(2**record.num_sites)
    return labels, every, [e.outcomes for e in record.entries], record.norm


def _string_term(p: PauliString, table) -> float:
    """Shadow estimate of one Pauli string over a prepared outcome table."""
    sign = p.rotated_sign
    w = p.weight
    if w == 0:
        return sign
    labels, every, rows, norm = table
    factor = float(3**w) * sign
    # the z eigenvalues of every basis index, the same for every unitary
    z = p.support_z_signs(every)
    contributions = [0.0] * len(rows)
    for k in np.flatnonzero(p.diagonalized_by(labels)):
        contributions[k] = factor * (float(z @ rows[k]) / norm)
    return math.fsum(contributions) / len(contributions)


def observable_expectation(record: MeasurementRecord, obs: PauliStringSum) -> float:
    """Linear combination of string estimates; identity enters exactly."""
    if obs.num_sites != record.num_sites:
        raise ValueError("observable length differs from the record")
    if record.n_unitaries == 0:
        raise ValueError("record has no entries")
    table = _outcome_table(record)
    parts = []
    for word, coeff in obs.items():
        parts.append(coeff * _string_term(PauliString(word), table))
    total = math.fsum(c.real for c in map(complex, parts)) + 1j * math.fsum(
        c.imag for c in map(complex, parts)
    )
    if abs(total.imag) > 1e-9 * (1.0 + abs(total.real)):
        raise ValueError("observable is not Hermitian: imaginary expectation")
    return float(total.real)


def hamiltonian_variance(
    record: MeasurementRecord,
    h: PauliStringSum,
    h_squared: PauliStringSum | None = None,
) -> EstimatorResult:
    """Normalized energy variance (<H^2> - <H>^2) / <H^2>.

    Pass a precomputed h_squared when estimating against the same
    Hamiltonian repeatedly. Shot noise can push the numerator negative;
    that is reported as-is. A non-positive <H^2> estimate raises
    NormalizationError instead of returning a nonsense ratio.
    """
    if h_squared is None:
        h_squared = square_observable(h)
    e_h = observable_expectation(record, h)
    e_h2 = observable_expectation(record, h_squared)
    if e_h2 <= 0.0:
        raise NormalizationError(f"<H^2> estimate {e_h2:.3e} is not positive")
    return EstimatorResult(value=(e_h2 - e_h**2) / e_h2)


# ---------------------------------------------------------------------------
# Results table
# ---------------------------------------------------------------------------

RESULT_COLUMNS = (
    "quantity",
    "target",
    "L",
    "N_U",
    "N_meas",
    "eps_percent",
    "mode",
    "value",
    "std",
    "seed",
)


def results_to_csv(rows: Sequence[Mapping]) -> str:
    """Canonical CSV: fixed column order, repr floats, byte-stable."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        out = []
        for col in RESULT_COLUMNS:
            v = row.get(col, "")
            if col == "N_meas" and v == EXACT_SHOTS:
                v = "exact"
            if isinstance(v, float):
                v = repr(v)
            out.append(v)
        writer.writerow(out)
    return buf.getvalue()
