"""Test oracles: independent references that no pipeline stage calls.

Each is a second route to a number the package computes another way: a
Haar-random input state, the state overlap, the square-pulse analytical
schedule, the exact 3-design over labels, the pairwise purity U-statistic,
the per-entry marginal-and-kernel purity, the Kronecker chain of a Pauli
word, the letter-table product of Pauli sums, the allocating,
uncentred series that stop at 1e-16: the buffer-reusing, centred ones in
:mod:`rmlab.statevector` must match them within 1e-14 per amplitude at
the floor budget, and within the run's budget above it, and the stepping
loop as it was before each run of steps was planned, which every planned
run must match byte for byte; it keeps its own copy of the column
reductions as they were while a single vector was 1-D, so a one-column
run is checked against that arithmetic. Tests import them from here.
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
    _A1,
    _A2,
    _GAUSS_OFF,
    _INTEGRATOR_COUNTS,
    _STEP_BUDGET,
    _TAYLOR_TERMS,
    NumericalContractError,
    StateVector,
    _chebyshev_apply,
    _check_sites,
    _chebyshev_coefficients,
    _csr_product,
    _SeriesBuffers,
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


def _norms(v: np.ndarray):
    """2-norm of each column, as the integrator took it while a single
    vector was 1-D: one column by the norm of the whole array."""
    return np.linalg.norm(v) if v.ndim == 1 or v.shape[1] == 1 else np.linalg.norm(v, axis=0)


def _re_dots(a: np.ndarray, b: np.ndarray):
    """Re <a_j|b_j> per pair of columns, as the integrator took it while a
    single vector was 1-D: one column by ``np.vdot``, more by one einsum
    over the float view."""
    if a.ndim == 1 or a.shape[1] == 1:
        return np.vdot(a, b).real
    s = np.einsum("ij,ij->j", np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float))
    return s[0::2] + s[1::2]


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
    before its terms reused buffers and before it stopped at the run's
    budget: on an uncentred blend, stopped once a term is below 1e-16 of
    the input in every column."""
    out = v.astype(complex)
    term = v
    tiny2 = (1e-16 * _norms(v)) ** 2
    for k in range(1, _TAYLOR_TERMS + 1):
        term = mv(term) * (-1j * dt / k)
        out += term
        if np.all(_re_dots(term, term) <= tiny2):
            return out
    raise NumericalContractError(f"Taylor series not converged in {_TAYLOR_TERMS} terms")


def allocating_chebyshev(ham, cs: Sequence, tau: float, v: np.ndarray) -> np.ndarray:
    """``statevector._chebyshev_apply`` as it was before its terms reused
    buffers, cut at 1e-16 whatever the run's budget."""
    lo, hi = ham.interval(cs)
    centre = (lo + hi) / 2.0
    turn = 2.0 * math.pi / tau
    shift = turn * np.round(centre / turn)
    half = float(np.max((hi - lo) / 2.0 + np.abs(centre - shift)))
    if half == 0.0:
        return v.copy()
    coeffs = _chebyshev_coefficients(half * tau, 1e-16)
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


def allocating_exponential(ham, cs: Sequence, tau: float, bound: float, v: np.ndarray, bufs=None) -> np.ndarray:
    """``statevector._exponential`` before its Taylor series was centred
    and its terms reused buffers; ``bufs`` is ignored, so it can stand in
    for ``_exponential``."""
    if bound * tau <= _STEP_BUDGET:
        return allocating_taylor(allocating_matvec(ham, cs), v, tau)
    return allocating_chebyshev(ham, cs, tau, v)


# ---------------------------------------------------------------------------
# The stepping loop before each run of steps was planned
# ---------------------------------------------------------------------------


def _equal(a: Sequence, b: Sequence) -> bool:
    """Two lists of coefficient values are exactly equal: == per scalar,
    elementwise per column array, no tolerance."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


class _StepOperator:
    """``_BlendHamiltonian``'s series operator as it was before each run of
    steps was planned: a term multiplies the real blended diagonal and the
    real column-valued coefficients into the complex block, and each
    sparse product checks and views its blocks per call. ``interval``,
    ``matvec`` and ``centred_matvec`` are what ``_chebyshev_apply`` and
    ``reference_exponential`` call."""

    def __init__(self, ham, bufs):
        self.ham = ham
        self.interval = ham.interval
        dtype = np.result_type(float, *(d for _, d in ham.diags))
        self.diag = diag = np.zeros(ham.shape, dtype=dtype)
        self.scratch = np.empty(ham.shape, dtype=dtype)
        self.work = work = bufs.work
        own = [_csr_product(m, ham.shape, ()) for _, m in ham.own]
        self.gains = gains = [None] * len(own)
        shared = None if ham.shared is None else _csr_product(ham.shared[1], ham.shape, ())

        def mv(v: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(diag, v, out=out)
            for product, c in zip(own, gains):
                product(np.multiply(c, v, out=work), out)
            if shared is not None:
                shared(v, out)
            return out

        self.mv = mv

    def norm_bound(self, cs: Sequence) -> float:
        bound = sum(abs(c) * b for c, b in zip(cs, self.ham.bounds))
        return bound if self.ham.columns is None else float(np.max(bound))

    def matvec(self, cs: Sequence, shift=None):
        diag = self.diag
        if self.ham.diags:
            (k, d), *rest = self.ham.diags
            np.multiply(cs[k], d, out=diag)
            for k, d in rest:
                diag += np.multiply(cs[k], d, out=self.scratch)
        else:
            diag.fill(0.0)
        if shift is not None:
            diag -= shift
        self.gains[:] = [cs[k] for k, _ in self.ham.own]
        if self.ham.shared is not None:
            index, template, data = self.ham.shared
            np.matmul(np.array([cs[k] for k in index]), data, out=template.data)
        return self.mv

    def centred_matvec(self, cs: Sequence, v: np.ndarray):
        mv = self.matvec(cs)
        if not self.ham.diags:
            return mv, 0.0
        dv = np.multiply(self.diag, v, out=self.work)
        shift = _re_dots(v, dv) / _re_dots(v, v)
        self.diag -= shift
        return mv, shift


def _step_taylor(mv, v: np.ndarray, dt: float, bufs, x: float) -> np.ndarray:
    """``statevector._taylor_apply`` before the squared column norms were
    shared with the shift: its stop limit comes from ``np.linalg.norm``."""
    out = bufs.sum_for(v)
    out[...] = v
    term = v
    limit = bufs.budget * float(np.min(_norms(v)))
    for k in range(1, _TAYLOR_TERMS + 1):
        nxt = bufs.terms[k % 2]
        term = np.multiply(mv(term, nxt), -1j * dt / k, out=nxt)
        out += term
        if k + 2 > x:
            q = x / (k + 1)
            tail = q / (1.0 - x / (k + 2))
            if np.vdot(term, term).real * tail * tail <= limit * limit:
                _INTEGRATOR_COUNTS["series_terms"] += k
                return out
    raise NumericalContractError(f"Taylor series not converged in {_TAYLOR_TERMS} terms")


def reference_exponential(op: _StepOperator, cs: Sequence, tau: float, v: np.ndarray, bufs) -> np.ndarray:
    """``statevector._exponential`` before each run of steps was planned:
    it sizes itself by ``norm_bound`` and takes three reductions over v."""
    x = op.norm_bound(cs) * tau
    if x <= _STEP_BUDGET:
        mv, shift = op.centred_matvec(cs, v)
        v = _step_taylor(mv, v, tau, bufs, 2.0 * x)
        v *= np.exp(-1j * tau * shift)
    else:
        v = _chebyshev_apply(op, cs, tau, v, bufs)
    _INTEGRATOR_COUNTS["exponentials"] += 1
    return v


def reference_run_steps(ham, amp: np.ndarray, t0: float, t1: float, n: int, budget: float) -> np.ndarray:
    """``statevector._run_steps`` before each run of steps was planned:
    node values as lists per step, fused stretches found by ``_equal``,
    blends formed per exponential, and ``reference_exponential``. A
    drop-in for ``_run_steps``, and the planned run's byte-for-byte
    reference."""
    dt = (t1 - t0) / n

    def nodes(k: int):
        if k == n:
            return None
        t = t0 + k * dt
        return ham.values(t + (0.5 - _GAUSS_OFF) * dt), ham.values(t + (0.5 + _GAUSS_OFF) * dt)

    bufs = _SeriesBuffers(amp.shape, budget)
    op = _StepOperator(ham, bufs)
    v = amp
    k = 0
    step = nodes(0)
    while step is not None:
        h1, h2 = step
        start = k
        k += 1
        step = nodes(k)
        if not _equal(h1, h2):
            for w1, w2 in ((_A2, _A1), (_A1, _A2)):
                v = reference_exponential(op, [w1 * c1 + w2 * c2 for c1, c2 in zip(h1, h2)], dt, v, bufs)
            continue
        while step is not None and _equal(step[0], h1) and _equal(step[1], h1):
            k += 1
            step = nodes(k)
        v = reference_exponential(op, h1, (k - start) * dt, v, bufs)
    return v
