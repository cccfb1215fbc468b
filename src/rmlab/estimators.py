"""Post-processing of measurement records into physical quantities.

Every estimator reads a record the same way: row u of its (N_U, 2^L)
outcome table, divided by the record's ``norm`` (n_meas for sampled
counts, 1 for exact probabilities), is unitary u's empirical or exact
outcome distribution P̃_U, and row u of its (N_U, L) label array is the
rotation pattern U. Every estimate reads rows of one table per record,
its signed Walsh transform (``MeasurementRecord._parities``, built once):
row S, column u holds ``norm`` times W_U(S) = Σ_s Π_{m in S} (2 s_m - 1)
P̃_U(s), the sum of Z parities over the sites of support mask S. With
integer counts every Walsh sum is exact.

Purity. With outcome distribution P̃_U on an ℓ-site subsystem A, each
unitary contributes

    X_U = 2^ℓ Σ_{s,s'} (-2)^{-D[s,s']} P̃_U(s) P̃_U(s'),

where D is the Hamming distance. The kernel factorizes per site into
[[2, -1], [-1, 2]], with eigenvalue 1 on (1, 1) and 3 on (1, -1), so
X_U = 2^-ℓ Σ_{S ⊆ A} 3^|S| W_U(S)², the Pauli-basis form (Elben et al.,
Nat. Rev. Phys. 5, 9 (2023), arXiv:2203.11374): 2^ℓ rows of the table,
summed in non-negative terms. Averaging X_U over unitaries gives x; for
empirical distributions from N shots the unbiased value is
x N/(N-1) - 2^ℓ/(N-1). That closed form equals the U-statistic over
distinct shot pairs exactly: the diagonal of the double sum contributes
k(s, s) = 2^ℓ per shot, and removing it is algebra, not approximation;
the tests confirm the identity with a U-statistic that walks the pairs
directly.

Pauli expectations. Rotating the state by U and reading z is the same
as measuring U P U†, so each recorded pattern estimates Tr[P ρ] whenever
U P U† is diagonal. That is a label rule: every X site needs label 2,
every Y site label 1 and every Z site label 3 (``_shadow_terms``). Under
uniform label sampling a hit has probability 3^-w (w = support weight),
hence the importance weight 3^w on hits and 0 otherwise: the
classical-shadow estimator, linear in the outcome probabilities. Records
store nominal labels, so miscalibrated rotations shift these estimates
exactly as they would in the lab.

A string's per-unitary shadow sums are the table's row at its support
mask. The label rule, applied to the record's label array for every
string at once, gives a (strings, N_U) hit matrix that selects and
weights them; sampled records give the same bits as a per-string dot.

All reductions over unitaries use compensated summation (``math.fsum``
over each string's, or each purity's, per-unitary contributions), making
results independent of worker count, chunk size or reduction order at
the 1e-13 level.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .pauli import _DIAGONALIZING_LABEL, LABELS, PauliStringSum, _letter_codes, square_observable
from .protocol import EXACT_SHOTS, MeasurementRecord
from .statevector import _check_sites, index_to_bits

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


def purity_estimate(record: MeasurementRecord, sites: Sequence[int]) -> EstimatorResult:
    """Second Renyi purity of the subsystem from one experiment.

    Exact-probability records give the estimator's expectation directly;
    sampled records get the closed-form shot-noise correction. Values
    are not clipped to [0, 1]: excursions outside are informative.
    """
    if record.n_unitaries == 0:
        raise ValueError("record has no entries")
    sub = sorted(_check_sites(sites, record.num_sites))
    ell = len(sub)
    # every subset S of the subsystem as a support mask, and its weight 3^|S|
    subsets = index_to_bits(np.arange(2**ell), ell)
    masks = subsets @ (1 << (record.num_sites - np.array(sub)))
    squares = np.square(record._parities[masks])
    x_values = ((3.0 ** subsets.sum(axis=1) @ squares) / (2.0**ell * record.norm**2)).tolist()
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

def _shadow_terms(words: Sequence[str], labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shadow rule for each word against an ``(N_U, L)`` label array.

    Returns the ``(words, N_U)`` hits, true where unitary u's rotations U
    make U P U^dag diagonal, then equal to (-1)^#X times Z on the support;
    each word's support mask (site m is bit 2^(L-m)); and its factor
    3^w (-1)^#X, the importance weight of a hit times that sign.
    """
    num_sites = labels.shape[1]
    codes = _letter_codes(words, num_sites)
    need = _DIAGONALIZING_LABEL[codes]
    hits = np.ones((len(codes), len(labels)), dtype=bool)
    for site in range(num_sites):
        hits &= (need[:, site, None] == 0) | (need[:, site, None] == labels[:, site])
    support = codes > 0
    masks = support @ (1 << np.arange(num_sites - 1, -1, -1))
    factors = 3.0 ** support.sum(axis=1) * (1.0 - 2.0 * ((codes == 1).sum(axis=1) % 2))
    return hits, masks, factors


def observable_expectation(record: MeasurementRecord, obs: PauliStringSum) -> float:
    """Linear combination of string estimates; identity enters exactly."""
    if obs.num_sites != record.num_sites:
        raise ValueError("observable length differs from the record")
    if record.n_unitaries == 0:
        raise ValueError("record has no entries")
    if not np.isin(record.labels, LABELS).all():
        raise ValueError(f"invalid rotation label; expected one of {LABELS}")
    terms = obs.items()
    hits, masks, factors = _shadow_terms([w for w, _ in terms], record.labels)
    # row m: each unitary's sum of Z parities over mask m
    parity = record._parities[masks]
    # each string's nonzero per-unitary contributions, string after string
    flat = (factors[:, None] * (parity / record.norm))[hits].tolist()
    bounds = np.concatenate(([0], np.cumsum(hits.sum(axis=1)))).tolist()
    # the identity (mask 0) enters as its exact value
    parts = [
        coeff * (float(factor) if mask == 0 else math.fsum(flat[lo:hi]) / record.n_unitaries)
        for (_, coeff), mask, factor, lo, hi in zip(terms, masks, factors, bounds, bounds[1:])
    ]
    real, imag = math.fsum(c.real for c in parts), math.fsum(c.imag for c in parts)
    if abs(imag) > 1e-9 * (1.0 + abs(real)):
        raise ValueError("observable is not Hermitian: imaginary expectation")
    return real


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
