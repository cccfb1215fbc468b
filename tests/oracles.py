"""Test oracles: independent references that no pipeline stage calls.

Each is a second route to a number the package computes another way: a
Haar-random input state, the state overlap, the square-pulse analytical
schedule, the exact 3-design over labels, the pairwise purity U-statistic,
the per-entry marginal-and-kernel purity, the Kronecker chain of a Pauli
word, the letter-table product of Pauli sums, and the allocating,
uncentred series that the buffer-reusing, centred ones in
:mod:`rmlab.statevector` must match within 1e-14 per amplitude. Tests
import them from here.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Sequence

import numpy as np

from rmlab.estimators import EstimatorResult
from rmlab.pauli import _PHASES, LABELS, TWO_PI, PauliStringSum
from rmlab.protocol import EXACT_SHOTS, MeasurementRecord
from rmlab.pulses import PulseSchedule, Waveform
from rmlab.statevector import (
    _STEP_BUDGET,
    _TAYLOR_TERMS,
    NumericalContractError,
    StateVector,
    _check_sites,
    _chebyshev_coefficients,
    _norms,
    _re_dots,
    apply_site_matrices,
    index_to_bits,
)


def random_state(num_sites: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (Gaussian amplitudes, normalized): the tests'
    independent source of generic input states."""
    amp = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return StateVector(amp / np.linalg.norm(amp), num_sites)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2: the tests' independent check of prepared and ground
    states against a reference."""
    return float(np.abs(np.vdot(a.amp, b.amp)) ** 2)


def ideal_schedule(T: float, ratio: float) -> PulseSchedule:
    """Square-pulse analytical reference (slew limit deliberately waived).

    Omega = pi/T over the whole window (two successive pi/2 X-areas) and
    f = 1 throughout. Delta is zero in the first half, then drops to a
    negative plateau whose phase area is pi/2 mod 2pi with magnitude near
    ratio*Omega, so off-resonant suppression improves as 1/ratio^2 while
    the bookkeeping phase stays exact. delta_amps = (0, Delta_plateau,
    ratio*Omega): label 1 is resonant in the first half and parked in the
    second, label 2 accrues its +pi/2 z-phase first and is resonant second
    (Delta - f d2 = 0), label 3 is parked throughout. It is the tests'
    analytical reference for the propagators and the pulse-level evolution.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if ratio < 10:
        raise ValueError("ratio must be at least 10")
    omega = math.pi / T
    k = max(0, round((ratio - 1.0) / 4.0))
    plateau = -(math.pi / 2 + TWO_PI * k) * 2.0 / T
    half = T / 2
    delta = Waveform(
        np.array([0.0, half, half, T]), np.array([0.0, 0.0, plateau, plateau])
    )
    return PulseSchedule(
        T=T,
        omega=Waveform.constant(omega, T),
        delta=delta,
        f=Waveform.constant(1.0, T),
        delta_amps=(0.0, plateau, ratio * omega),
        family="ideal",
    )


def all_label_settings(num_sites: int) -> np.ndarray:
    """The (3^L, L) label table of every pattern once, in lexicographic order.

    Exact enumeration replaces sampling in the smallest systems, turning
    statistical estimator checks into identities: the tests' exact
    3-design over labels.
    """
    return np.array(list(itertools.product(LABELS, repeat=num_sites)), dtype=np.int8)


def purity_pairwise(record: MeasurementRecord, sites: Sequence[int]) -> EstimatorResult:
    """Same purity through the U-statistic over distinct shot pairs.

    O(r^2 l) in the number r of distinct outcomes per unitary: the tests'
    independent route that pins the closed-form correction of
    purity_estimate.
    """
    if record.n_meas == EXACT_SHOTS:
        raise ValueError("pairwise estimator needs sampled shots")
    if record.n_meas < 2:
        raise ValueError("need at least 2 shots to form pairs")
    sub = tuple(sorted(_check_sites(sites, record.num_sites)))
    ell = len(sub)
    n = record.n_meas
    cols = [m - 1 for m in sub]
    per_unitary = []
    for row in record.outcomes:
        idx = np.flatnonzero(row)
        mult = row[idx]
        bits = index_to_bits(idx, record.num_sites)[:, cols]
        # kernel value per outcome pair from the Hamming distance
        dist = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        kern = (2.0**ell) * (-2.0) ** (-dist.astype(float))
        gross = float(mult @ kern @ mult)
        diagonal = float(mult.sum()) * (2.0**ell)
        per_unitary.append((gross - diagonal) / (n * (n - 1)))
    value = math.fsum(per_unitary) / len(per_unitary)
    return EstimatorResult(value=value)


def marginal_distribution(
    outcomes: np.ndarray, norm: float, num_sites: int, sites: Sequence[int]
) -> np.ndarray:
    """Subsystem outcome distribution of a ``(2^L,)`` outcome array: the
    outcomes summed over the other sites, then divided by ``norm``."""
    shaped = outcomes.reshape((2,) * num_sites)
    drop = tuple(ax for ax in range(num_sites) if (ax + 1) not in sites)
    return shaped.sum(axis=drop).reshape(-1) / norm


def purity_per_entry(record: MeasurementRecord, sites: Sequence[int]) -> float:
    """The purity estimate one entry at a time, each X_U = p . K p with the
    per-site kernel [[2, -1], [-1, 2]] on the entry's marginal p: the tests'
    reference for the estimator's Walsh-square form."""
    sub = tuple(sorted(_check_sites(sites, record.num_sites)))
    kernel = [np.array([[2.0, -1.0], [-1.0, 2.0]])] * len(sub)
    x_values = []
    for row in record.outcomes:
        p = marginal_distribution(row, record.norm, record.num_sites, sub)
        x_values.append(float(p @ apply_site_matrices(p, kernel)))
    x = math.fsum(x_values) / len(x_values)
    if record.n_meas == EXACT_SHOTS:
        return x
    n = record.n_meas
    return x * n / (n - 1) - (2 ** len(sub)) / (n - 1)


# The single-site Paulis in basis order (down, up), written out here so
# that a table error in the package cannot cancel against itself.
_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "Z": np.diag([-1.0, 1.0]).astype(complex),
}


def dense(word: str) -> np.ndarray:
    """The 2^L x 2^L matrix of a letter word as a Kronecker chain, site 1
    the most significant factor: the tests' dense reference for a Pauli
    string, independent of the package's bitmask path."""
    out = np.ones((1, 1), dtype=complex)
    for letter in word:
        out = np.kron(out, _MATS[letter])
    return out


def dense_sum(s: PauliStringSum) -> np.ndarray:
    """The dense matrix of a Pauli sum: its words' chains, summed in
    insertion order."""
    dim = 2**s.num_sites
    out = np.zeros((dim, dim), dtype=complex)
    for word, c in s._terms.items():
        out += c * dense(word)
    return out


# Single-site products sigma_a sigma_b = i^_MUL_PHASE[a][b] sigma_c with
# c = _MUL_LETTER[a][b], codes I=0, X=1, Y=2, Z=3.
_MUL_LETTER = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_MUL_PHASE = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])


def pauli_product(a: str, b: str) -> tuple[str, int]:
    """Product of two words, site by site from the letter tables: the word
    and the k of its phase i^k."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    ia = ["IXYZ".index(c) for c in a]
    ib = ["IXYZ".index(c) for c in b]
    word = "".join("IXYZ"[_MUL_LETTER[p, q]] for p, q in zip(ia, ib))
    return word, sum(int(_MUL_PHASE[p, q]) for p, q in zip(ia, ib)) % 4


def sum_product(a: PauliStringSum, b: PauliStringSum) -> PauliStringSum:
    """Operator product expanded term by term: every pair's word product
    goes through ``add_term`` in insertion order (a's terms outer), which
    merges equal words and drops a running sum below 1e-13. The phase i^k
    multiplies the pair's coefficient as ``complex(c) * _PHASES[k]``. The
    tests' reference for ``PauliStringSum.__matmul__``."""
    if a.num_sites != b.num_sites:
        raise ValueError("length mismatch")
    out = PauliStringSum(a.num_sites)
    for wa, ca in a._terms.items():
        for wb, cb in b._terms.items():
            word, k = pauli_product(wa, wb)
            out.add_term(complex(ca * cb) * _PHASES[k], word)
    return out


# ---------------------------------------------------------------------------
# The allocating series terms
# ---------------------------------------------------------------------------


def _sparse_product(m, v: np.ndarray) -> np.ndarray:
    """m @ v for complex v; a real m acts on v's real and imaginary parts
    as twice as many real columns."""
    if m.dtype.kind == "c":
        return m @ v
    w = np.ascontiguousarray(v).reshape(len(v), -1).view(float)
    return (m @ w).view(complex).reshape(v.shape)


def allocating_matvec(ham, cs: Sequence, shift=0.0):
    """``_BlendHamiltonian.matvec`` as it was before its terms reused
    buffers: v -> (sum_k cs[k] A_k - shift) v, each product a new array."""
    diag = ham.diagonal(cs) - shift
    products = [(m, cs[k]) for k, m in ham.own]
    if ham.shared is not None:
        index, template, data = ham.shared
        m = copy.copy(template)
        m.data = np.array([cs[k] for k in index]) @ data
        products.append((m, None))

    def mv(v: np.ndarray) -> np.ndarray:
        out = diag * v
        for m, c in products:
            w = _sparse_product(m, v)
            if c is not None:
                w *= c
            out += w
        return out

    return mv


def allocating_taylor(mv, v: np.ndarray, dt: float) -> np.ndarray:
    """``statevector._taylor_apply`` with a one-argument ``mv``, as it was
    before its terms reused buffers: on an uncentred blend."""
    out = v.astype(complex)
    term = v
    block = v.ndim == 2
    tiny2 = (1e-16 * _norms(v)) ** 2
    for k in range(1, _TAYLOR_TERMS + 1):
        term = mv(term) * (-1j * dt / k)
        out += term
        if (_re_dots(term, term) <= tiny2).all() if block else _re_dots(term, term) <= tiny2:
            return out
    raise NumericalContractError(f"Taylor series not converged in {_TAYLOR_TERMS} terms")


def allocating_chebyshev(ham, cs: Sequence, tau: float, v: np.ndarray) -> np.ndarray:
    """``statevector._chebyshev_apply`` as it was before its terms reused
    buffers."""
    lo, hi = ham.interval(cs)
    centre = (lo + hi) / 2.0
    turn = 2.0 * math.pi / tau
    shift = turn * np.round(centre / turn)
    half = float(np.max((hi - lo) / 2.0 + np.abs(centre - shift)))
    if half == 0.0:
        return v.copy()
    coeffs = _chebyshev_coefficients(half * tau)
    scale = 2.0 / half
    mv = allocating_matvec(ham, [scale * c for c in cs], shift=scale * shift)
    prev, cur = v, mv(v)
    cur *= 0.5
    out = coeffs[1] * cur
    out += coeffs[0] * v
    for c in coeffs[2:]:
        nxt = mv(cur)
        nxt -= prev
        prev, cur = cur, nxt
        out += c * cur
    return out


def allocating_exponential(ham, cs: Sequence, tau: float, v: np.ndarray, bufs=None) -> np.ndarray:
    """``statevector._exponential`` before its Taylor series was centred
    and its terms reused buffers; ``bufs`` is ignored, so it can stand in
    for ``_exponential``."""
    if ham.norm_bound(cs) * tau <= _STEP_BUDGET:
        return allocating_taylor(allocating_matvec(ham, cs), v, tau)
    return allocating_chebyshev(ham, cs, tau, v)
