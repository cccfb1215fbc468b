"""Brute-force statevector engine and exact oracles.

Every quantity the randomized-measurement pipeline estimates statistically
can also be computed here exactly (for 2 <= L <= 14): expectation values,
reduced density matrices, subsystem purities, ground states, and Schroedinger
evolution under a time-dependent Hamiltonian.

``ground_state`` diagonalises H one excitation-number sector at a time (the
SSH and staggered-XY chains conserve it): dense ``eigh`` on sectors of up
to ``_DENSE_SECTOR`` states, seeded Lanczos above, in real arithmetic when
H is real. An H that links two sectors is one sector of 2^L states.

Basis convention (see :mod:`rmlab.pauli`): site 1 is the most significant
bit and bit 1 means ``|up>``. All Hamiltonian coefficients handed to the
evolution routines must be angular frequencies in rad/us with times in us.

The integrator is the fourth-order commutator-free Magnus scheme CFM4
(Blanes and Moan, Appl. Numer. Math. 56, 1519 (2006)): a step applies two
exponentials exp(-i dt B), B a blend of H at the two Gauss nodes. Where
consecutive steps see exactly the same coefficient values at every node
(a constant stretch of a pulse schedule, or a static H) both blends are
that one H, and the whole run of steps is the single exponential
exp(-i m dt H). An exponential with ``|B| * t <= 2`` is one Taylor series,
which stops on its own once a term falls below 1e-16 (about 10-25 terms)
and raises if it has not by term 40. A longer one (a fused stretch) is a
Chebyshev series in (B - s) / R, with s near the centre and R the
half-width of B's Gershgorin interval, per column (Tal-Ezer and Kosloff,
J. Chem. Phys. 81, 3967 (1984)): about one application of B per unit of
R * t, where Taylor pieces would need about ten per unit of |B| * t.
The final answer is
refined by step doubling until two grids agree within ``tol``; the
refinement jump and the grid certificate in :mod:`rmlab.protocol` both
follow from the order ``_ORDER``. ``evolve_static`` is the same engine on
a constant H.

``evolve_blend`` also evolves a block of K copies of one state at once when
its parts are column-valued (per-column coefficients or a (2^L, K) diagonal):
the columns share the step grid. H is assembled once per exponential
(``_BlendHamiltonian``), so a term of either series makes one sparse
product per coefficient kind, on real arithmetic where a block meets a
real matrix.

This module owns the bit convention for the whole package:
``index_to_bits`` / ``bits_to_index`` are the only conversions between
basis indices and site bits, and ``apply_site_matrices`` is the only
site-by-site 2x2 kernel (local rotations, readout flips and the purity
estimator's factorized kernel all go through it). The pulse drive's
operators, ``x_total`` and ``occupation``, are built here on top of them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .pauli import ROTATION_MATRICES, PauliString, PauliStringSum

__all__ = [
    "StateVector",
    "ReducedDensityMatrix",
    "NumericalContractError",
    "ConvergenceError",
    "DegenerateGroundStateError",
    "MAX_SITES",
    "MAX_SUBSYSTEM",
    "product_state",
    "all_down",
    "random_state",
    "bits_to_index",
    "index_to_bits",
    "index_to_bitstring",
    "apply_site_matrices",
    "x_total",
    "occupation",
    "expectation",
    "apply_local_unitaries",
    "evolve_blend",
    "evolve_static",
    "ground_state",
    "sample_basis_indices",
    "reduced_density",
    "exact_purity",
    "state_fidelity",
]

MAX_SITES = 14
MAX_SUBSYSTEM = 12

_NORM_TOL = 1e-9
# |B| * t up to which an exponential exp(-i t B), B a blend of H at the
# Gauss nodes, is one Taylor series (converged to 1e-16 in about 25 terms
# at the limit) and beyond which it is a Chebyshev series; the start grid
# of evolve_blend gives each step about this much. Accuracy is owned by
# the step-doubling refinement
_STEP_BUDGET = 2.0

# CFM4 step: Gauss nodes at t + (1/2 -+ _GAUSS_OFF) dt, shared with the
# closed-form Magnus step in pulses, and the blend weights of its two
# exponentials
_GAUSS_OFF = 1.0 / (2.0 * math.sqrt(3.0))
_A1 = 0.25 - _GAUSS_OFF
_A2 = 0.25 + _GAUSS_OFF
# |a1| + |a2| = 1/sqrt(3) bounds one exponent's norm per unit of dt * max |H|
_EXP_WEIGHT = abs(_A1) + abs(_A2)
# convergence order of the step; the refinement jump and the grid
# certificates are derived from it
_ORDER = 4
# step-doubling rounds before refinement gives up
_MAX_REFINE = 16


class NumericalContractError(RuntimeError):
    """A numerical guarantee of the engine was violated."""


class ConvergenceError(RuntimeError):
    """Step-doubling refinement did not reach the requested tolerance."""


class DegenerateGroundStateError(RuntimeError):
    """Ground level closer than 1e-10 to the next one; add mu_edge."""


@dataclass
class StateVector:
    """Normalized pure state of an L-site chain.

    Attributes:
        amp: complex amplitudes of length 2**num_sites, index ordering
            ``sum_m s_m 2^(L-m)`` (site 1 = most significant bit).
        num_sites: chain length L.
    """

    amp: np.ndarray
    num_sites: int

    def __post_init__(self) -> None:
        if not 2 <= self.num_sites <= MAX_SITES:
            raise ValueError(f"num_sites must be in 2..{MAX_SITES}")
        self.amp = np.asarray(self.amp, dtype=complex)
        if self.amp.shape != (2**self.num_sites,):
            raise ValueError("amplitude length must be 2**num_sites")
        norm = np.linalg.norm(self.amp)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.amp.copy(), self.num_sites)


@dataclass
class ReducedDensityMatrix:
    """Reduced state on an ordered site subset, trace normalized."""

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 2 ** len(self.sites)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (dim, dim):
            raise ValueError("matrix shape inconsistent with site count")
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > 1e-10:
            raise NumericalContractError(f"trace {tr} deviates from 1")

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


# ---------------------------------------------------------------------------
# Constructors and index helpers
# ---------------------------------------------------------------------------


def index_to_bits(idx: int | np.ndarray, num_sites: int) -> np.ndarray:
    """Site bits of basis indices: shape (...) -> int8 (..., L), site 1 first."""
    shifts = np.arange(num_sites - 1, -1, -1)
    return ((np.asarray(idx)[..., None] >> shifts) & 1).astype(np.int8)


def bits_to_index(bits: Sequence[int] | np.ndarray) -> int | np.ndarray:
    """Basis indices of bit rows given site-1-first: (..., L) -> (...).

    The inverse of ``index_to_bits``; a single row gives a Python int.
    """
    bits = np.asarray(bits)
    idx = bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))
    return int(idx) if idx.ndim == 0 else idx


def index_to_bitstring(idx: int, num_sites: int) -> str:
    return format(idx, f"0{num_sites}b")


def product_state(bits: Sequence[int]) -> StateVector:
    """Computational basis state; bits[m] is site m+1, 1 = up."""
    L = len(bits)
    amp = np.zeros(2**L, dtype=complex)
    amp[bits_to_index(bits)] = 1.0
    return StateVector(amp, L)


def all_down(num_sites: int) -> StateVector:
    return product_state([0] * num_sites)


def random_state(num_sites: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (Gaussian amplitudes, normalized).

    No pipeline stage calls it: it is the tests' independent source of
    generic input states.
    """
    amp = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return StateVector(amp / np.linalg.norm(amp), num_sites)


# ---------------------------------------------------------------------------
# Drive operators
# ---------------------------------------------------------------------------


def x_total(num_sites: int) -> sparse.csr_matrix:
    """sum_m X_m, the global drive, as a sparse matrix."""
    ham = PauliStringSum(num_sites)
    for m in range(1, num_sites + 1):
        ham.add_term(1.0, PauliString.from_ops({m: "X"}, num_sites))
    return ham.to_sparse()


def occupation(num_sites: int, sites: Iterable[int]) -> sparse.csr_matrix:
    """sum of n_m over the given 1-based sites, as a sparse diagonal."""
    cols = [m - 1 for m in sites]
    counts = index_to_bits(np.arange(2**num_sites), num_sites)[:, cols].sum(axis=1)
    return sparse.diags(counts.astype(float)).tocsr()


# ---------------------------------------------------------------------------
# Expectation values and local rotations
# ---------------------------------------------------------------------------


def expectation(psi: StateVector, obs: PauliStringSum) -> float:
    """<psi|O|psi> for a Hermitian Pauli sum.

    The imaginary residue is asserted below 1e-10 of the value scale and
    discarded; residues at or above 1e-8 raise NumericalContractError
    (non-Hermitian input or broken algebra upstream).
    """
    if obs.num_sites != psi.num_sites:
        raise ValueError("operator length mismatch")
    val = complex(np.vdot(psi.amp, obs.to_sparse() @ psi.amp))
    scale = max(1.0, abs(val.real))
    if abs(val.imag) >= 1e-8 * scale:
        raise NumericalContractError(
            f"imaginary residue {val.imag:.3e} in expectation value; operator not Hermitian?"
        )
    return float(val.real)


def apply_site_matrices(v: np.ndarray, matrices: Sequence[np.ndarray | None]) -> np.ndarray:
    """(m_1 kron ... kron m_L) v for one 2x2 matrix per site, site 1 first.

    ``None`` skips a site (the identity). Each site costs one einsum over
    a (left, 2, right) view, so the product is never formed.
    """
    num_sites = len(matrices)
    if v.shape != (2**num_sites,):
        raise ValueError("vector length must be 2**len(matrices)")
    for site, m in enumerate(matrices):
        if m is None:
            continue
        cube = v.reshape(2**site, 2, 2 ** (num_sites - site - 1))
        v = np.einsum("ab,ibj->iaj", m, cube).reshape(-1)
    return v


def apply_local_unitaries(psi: StateVector, labels: Sequence[int]) -> StateVector:
    """Product of the single-site rotations named by one label per site.

    Labels use the protocol convention 1 -> exp(-i pi/4 X),
    2 -> exp(-i pi/4 Y), 3 -> identity.
    """
    if len(labels) != psi.num_sites:
        raise ValueError("one label per site required")
    matrices = [None if int(lab) == 3 else ROTATION_MATRICES[int(lab)] for lab in labels]
    return StateVector(apply_site_matrices(psi.amp, matrices), psi.num_sites)


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

# A coefficient gives one value, or one value per column of a block.
Coefficient = Callable[[float], "float | np.ndarray"]
# Sparse Hermitian operator, or a dense (2^L, K) block of per-column diagonals.
Operator = "sparse.spmatrix | np.ndarray"

# Taylor terms after which an unconverged series is an error
_TAYLOR_TERMS = 40
# a Chebyshev series stops where every later coefficient is below this
# (the Taylor series' stop rule, relative to a unit input)
_SERIES_TINY = 1e-16

# integrator work done in this process since import: exponentials (one
# blend of H each) and series terms (one application of H each, Taylor or
# Chebyshev); a caller takes differences
_INTEGRATOR_COUNTS = {"exponentials": 0, "series_terms": 0}


def _as_coefficient(c: float | Coefficient) -> Coefficient:
    if callable(c):
        return c
    val = float(c)
    return lambda t: val


def _norms(v: np.ndarray):
    """2-norm of a vector, or of each column of a (2^L, K) block."""
    return np.linalg.norm(v) if v.ndim == 1 else np.linalg.norm(v, axis=0)


def _split(m: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal of a square sparse matrix, and its off-diagonal entries as
    keys ``row * n + column`` with their values."""
    m = sparse.csr_matrix(m, copy=True)
    m.sum_duplicates()
    n = m.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
    off = rows != m.indices
    return m.diagonal(), rows[off] * n + m.indices[off], m.data[off]


def _union_csr(entries: Sequence[tuple[np.ndarray, np.ndarray]], n: int, block: bool):
    """One n x n CSR pattern covering every (keys, values) pair of ``entries``
    (see ``_split``), and each pair's values on it, one row per pair, zero
    where the pair has no entry. The CSR holds the first row. On a block
    the values are stored real when none has an imaginary part."""
    union = np.sort(np.concatenate([keys for keys, _ in entries]))
    # drop repeats by hand: np.unique hashes, which costs ten times the sort
    union = union[np.append(True, union[1:] != union[:-1])]
    rows, cols = np.divmod(union, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    data = np.zeros((len(entries), union.size), dtype=np.result_type(*(v for _, v in entries)))
    for row, (keys, values) in zip(data, entries):
        row[np.searchsorted(union, keys)] = values
    data = data.real.astype(float) if block and not data.imag.any() else data.astype(complex)
    return sparse.csr_matrix((data[0], cols, indptr), shape=(n, n)), data


def _sparse_product(m: sparse.csr_matrix, v: np.ndarray) -> np.ndarray:
    """m @ v for complex v; a real m acts on v's real and imaginary parts
    as twice as many real columns."""
    if m.dtype.kind == "c":
        return m @ v
    w = np.ascontiguousarray(v).reshape(len(v), -1).view(float)
    return (m @ w).view(complex).reshape(v.shape)


class _BlendHamiltonian:
    """H(t) = sum_k c_k(t) A_k with sparse Hermitian A_k, assembled per exponential.

    At construction each sparse part is split into its diagonal and its
    off-diagonal entries. Off-diagonals whose coefficient is a scalar share
    one CSR on the union of their patterns, with one aligned row of values
    per part; an off-diagonal whose coefficient is column-valued gets its
    own CSR. ``matvec`` then folds every diagonal into one vector (or block)
    and blends the shared data into one matrix, once per exponential, so a
    series term costs one elementwise multiply, one sparse product for the
    shared matrix and one per column-valued part.

    Column-valued parts make H act on a (2^L, K) block: a coefficient that
    returns a length-K array gives column j its j-th value, and a dense
    (2^L, K) array is a diagonal part with one diagonal per column.
    ``columns`` is then K; it is None when every part is shared by all
    columns, and the state stays a single vector. Coefficients are called
    once at ``t0`` to find out which kind they are.

    On a block, an off-diagonal CSR with no imaginary entries is stored
    real and multiplies the block as 2K real columns, half the
    multiply-adds of the complex product. A single vector keeps complex
    matrices: scipy's one-vector kernel beats its two-column one.
    """

    def __init__(self, parts: Sequence[tuple[float | Coefficient, Operator]], t0: float):
        if not parts:
            raise ValueError("at least one Hamiltonian part required")
        self.coeffs = [_as_coefficient(c) for c, _ in parts]
        probes = [c(t0) if callable(c) else None for c, _ in parts]
        dense = [m for _, m in parts if isinstance(m, np.ndarray)]
        if any(m.ndim != 2 for m in dense):
            raise ValueError("a dense part must be a (2^L, K) block of diagonals")
        widths = {len(p) for p in probes if np.ndim(p) == 1} | {m.shape[1] for m in dense}
        if len(widths) > 1:
            raise ValueError(f"column-valued parts disagree on the column count: {sorted(widths)}")
        self.columns = widths.pop() if widths else None
        block = self.columns is not None
        # per part: the infinity norm, which sizes steps and picks the
        # series, and the largest row sum of its off-diagonal |entries|
        self.bounds = []
        self.off_bounds = []
        # (part index, diagonal): one (2^L,) vector, (2^L, 1) on a block, or a dense block
        self.diags = []
        # off-diagonal entries, (part index, (keys, values)), by coefficient kind
        shared, own = [], []
        dim = parts[0][1].shape[0]
        for k, ((_, m), probe) in enumerate(zip(parts, probes)):
            if isinstance(m, np.ndarray):
                self.diags.append((k, m))
                self.bounds.append(np.max(np.abs(m), axis=0))
                self.off_bounds.append(0.0)
                continue
            m = m.tocsr()
            self.bounds.append(float(abs(m).sum(axis=1).max()))
            d, keys, values = _split(m)
            row_sums = np.bincount(keys // dim, weights=np.abs(values), minlength=dim)
            self.off_bounds.append(float(row_sums.max()))
            if d.any():
                self.diags.append((k, d[:, None] if block else d))
            if keys.size:
                (own if np.ndim(probe) == 1 else shared).append((k, (keys, values)))
        # (part index, CSR) per off-diagonal part with a column-valued coefficient
        self.own = [(k, _union_csr([entry], dim, block)[0]) for k, entry in own]
        # (part indices, CSR on the union pattern, one row of values per part)
        self.shared = None
        if shared:
            index = [k for k, _ in shared]
            self.shared = (index, *_union_csr([entry for _, entry in shared], dim, block))

    def values(self, t: float) -> list:
        """Coefficient values at t, in part order."""
        return [c(t) for c in self.coeffs]

    def diagonal(self, cs: Sequence):
        """The diagonal of sum_k cs[k] A_k: (2^L,) for a vector, (2^L, 1) or
        (2^L, K) on a block, 0 when no part has a diagonal."""
        return sum(cs[k] * d for k, d in self.diags)

    def matvec(self, cs: Sequence, shift=0.0):
        """v -> (sum_k cs[k] A_k - shift) v, for coefficient values ``cs``
        and a scalar or per-column ``shift``.

        The diagonals and the shared matrix are blended here, once; the
        returned function applies them to each series term.
        """
        diag = self.diagonal(cs) - shift
        products = [(m, cs[k]) for k, m in self.own]
        if self.shared is not None:
            index, template, data = self.shared
            # a shallow copy shares the pattern arrays; only the values change
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

    def norm_bound(self, cs: Sequence) -> float:
        """Bound on |sum_k cs[k] A_k|; for a block, the largest over its columns."""
        bound = sum(abs(c) * b for c, b in zip(cs, self.bounds))
        return bound if self.columns is None else float(np.max(bound))

    def interval(self, cs: Sequence):
        """Gershgorin interval (lo, hi) holding every eigenvalue of
        sum_k cs[k] A_k: the least and greatest blended diagonal entry,
        widened by sum_k |cs[k]| times part k's largest off-diagonal row
        sum. Floats for a single vector, one value per column on a block."""
        diag = np.real(self.diagonal(cs))
        lo, hi = (np.min(diag, axis=0), np.max(diag, axis=0)) if np.ndim(diag) else (diag, diag)
        radius = sum(abs(c) * b for c, b in zip(cs, self.off_bounds))
        return lo - radius, hi + radius


def _sq_norms(v: np.ndarray):
    """Squared 2-norm of a complex vector, or of each column of a block."""
    if v.ndim == 1:
        return np.vdot(v, v).real
    r = np.ascontiguousarray(v).view(float)
    s = np.einsum("ij,ij->j", r, r)
    return s[0::2] + s[1::2]


def _taylor_apply(mv, v: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) v by Taylor series, for a vector or a (2^L, K) block.

    The caller keeps |H| dt within _STEP_BUDGET. The series stops once its
    last term is below 1e-16 of the input in every column; one that has
    not got there by term _TAYLOR_TERMS raises NumericalContractError.
    The sum accumulates in place in a copy, so ``v`` is never written to,
    even by an ``mv`` that returns its argument.
    """
    out = v.astype(complex)
    term = v
    block = v.ndim == 2
    tiny2 = (1e-16 * _norms(v)) ** 2
    for k in range(1, _TAYLOR_TERMS + 1):
        term = mv(term) * (-1j * dt / k)
        out += term
        # the one-vector test stays scalar: it runs once per term
        if (_sq_norms(term) <= tiny2).all() if block else _sq_norms(term) <= tiny2:
            _INTEGRATOR_COUNTS["series_terms"] += k
            return out
    raise NumericalContractError(
        f"Taylor series not converged in {_TAYLOR_TERMS} terms at dt = {dt:.3g}; "
        "|H| dt is beyond the step budget"
    )


def _equal(a: Sequence, b: Sequence) -> bool:
    """Two lists of coefficient values are exactly equal: == per scalar,
    elementwise per column array, no tolerance."""
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


def _bessel_cutoff(x: float, tiny: float) -> int:
    """Least n >= x, n >= 2, with |J_k(x)| < tiny for every k >= n.

    Kapteyn's inequality |J_k(k z)| <= (z e^s / (1 + s))^k, s = sqrt(1 - z^2),
    0 < z <= 1, bounds J_k(x) for k >= x; its logarithm falls strictly as k
    grows, so the first k below ``tiny`` is the cut. x must be finite and
    positive.
    """
    n = max(2, math.ceil(x))
    log_tiny = math.log(tiny)
    while True:
        z = x / n
        s = math.sqrt(1.0 - z * z)
        if n * (math.log(z) + s - math.log1p(s)) < log_tiny:
            return n
        n += 1


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x), k = 0 .. n - 1: exp(-i x y) = sum_k
    c_k T_k(y) on [-1, 1] (Jacobi-Anger), cut at ``_bessel_cutoff(x,
    _SERIES_TINY)``. x must be finite and positive.

    J_k comes from Miller's backward recurrence J_(k-1) = (2k / x) J_k -
    J_(k+1), normalised by J_0 + 2 sum_k J_2k = 1. It starts where every
    J_k is below 1e-40, so its arbitrary start values fade far below double
    precision by k = n; the values are good to a few 1e-16 up to x = 1e3,
    where an FFT of exp(-i x cos theta) loses 1e-14 to the rounding of its
    phases.
    """
    n = _bessel_cutoff(x, _SERIES_TINY)
    start = _bessel_cutoff(x, 1e-40)
    j = [0.0] * (start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        # a small x grows the recurrence by about 2k / x per step
        if abs(j[k - 1]) > 1e250:
            j = [val * 1e-250 for val in j]
    norm = j[0] + 2.0 * math.fsum(j[2::2])
    return np.array([(2.0 if k else 1.0) * (1, -1j, -1, 1j)[k % 4] * j[k] / norm for k in range(n)])


def _chebyshev_apply(ham: _BlendHamiltonian, cs: Sequence, tau: float, v: np.ndarray) -> np.ndarray:
    """exp(-i tau B) v by Chebyshev series, for the blend B = sum_k cs[k] A_k.

    Each column is shifted by s, the multiple of 2 pi / tau nearest the
    centre of its Gershgorin interval (``ham.interval``), so that its
    phase e^(-i tau s) is 1 and no sine or cosine is taken; R is the
    largest half-width over the columns of the interval about s, at most
    pi / tau wider than the interval itself. Then exp(-i tau B) =
    sum_k c_k T_k(X), X = (B - s) / R, with the coefficients of
    ``_chebyshev_coefficients(R tau)``. The shift and the scale are folded
    into the blend, which is assembled once as 2X, so each term
    T_(k+1) v = 2X T_k v - T_(k-1) v costs one application, as a Taylor
    term does. The number of terms is fixed in advance, about
    R tau + 12 (R tau)^(1/3), so no term is tested. A non-finite interval
    (a NaN or infinite coefficient) raises NumericalContractError.
    """
    lo, hi = ham.interval(cs)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NumericalContractError(f"non-finite spectral interval of H at tau = {tau:.3g}")
    centre = (lo + hi) / 2.0
    turn = 2.0 * math.pi / tau
    shift = turn * np.round(centre / turn)
    half = float(np.max((hi - lo) / 2.0 + np.abs(centre - shift)))
    if half == 0.0:
        return v.copy()
    coeffs = _chebyshev_coefficients(half * tau)
    scale = 2.0 / half
    mv = ham.matvec([scale * c for c in cs], shift=scale * shift)
    prev, cur = v, mv(v)
    cur *= 0.5
    out = coeffs[1] * cur
    out += coeffs[0] * v
    for c in coeffs[2:]:
        nxt = mv(cur)
        nxt -= prev
        prev, cur = cur, nxt
        out += c * cur
    _INTEGRATOR_COUNTS["series_terms"] += len(coeffs) - 1
    return out


def _exponential(ham: _BlendHamiltonian, cs: Sequence, tau: float, v: np.ndarray) -> np.ndarray:
    """exp(-i tau B) v for the blend B = sum_k cs[k] A_k: one Taylor series
    when |B| tau is within the step budget, where its adaptive stop needs
    the fewest terms, and a Chebyshev series beyond it, where Taylor
    pieces would cost about ten terms per unit of |B| tau. A NaN or
    infinite |B| fails the budget test, and the Chebyshev path raises on
    it."""
    if ham.norm_bound(cs) * tau <= _STEP_BUDGET:
        v = _taylor_apply(ham.matvec(cs), v, tau)
    else:
        v = _chebyshev_apply(ham, cs, tau, v)
    _INTEGRATOR_COUNTS["exponentials"] += 1
    return v


def _run_steps(ham: _BlendHamiltonian, amp: np.ndarray, t0: float, t1: float, n: int) -> np.ndarray:
    """n CFM4 steps: exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2)).

    H1 and H2 are H at the earlier and later Gauss node. The right-hand
    exponential acts first, so it puts the larger weight a2 on the earlier
    node; the reverse order converges at second order only.

    A step whose two nodes give exactly equal coefficient values has
    H1 = H2 = H, and since a1 + a2 = 1/2 it is exp(-i dt H). The steps
    that follow it with those same values at both nodes join it, and the
    run of m steps is applied as the one exponential exp(-i m dt H). That
    is the propagator of the same n-step grid, with only the series
    roundoff changed; every node is still evaluated exactly once.
    """
    dt = (t1 - t0) / n

    def nodes(k: int):
        if k == n:
            return None
        t = t0 + k * dt
        return ham.values(t + (0.5 - _GAUSS_OFF) * dt), ham.values(t + (0.5 + _GAUSS_OFF) * dt)

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
                v = _exponential(ham, [w1 * c1 + w2 * c2 for c1, c2 in zip(h1, h2)], dt, v)
            continue
        while step is not None and _equal(step[0], h1) and _equal(step[1], h1):
            k += 1
            step = nodes(k)
        v = _exponential(ham, h1, (k - start) * dt, v)
    return v


def evolve_blend(
    psi: StateVector,
    parts: Sequence[tuple[float | Coefficient, Operator]],
    t0: float,
    t1: float,
    tol: float = 1e-9,
    initial_steps: int | None = None,
) -> StateVector | list[StateVector]:
    """Evolve under H(t) = sum_k c_k(t) A_k from t0 to t1.

    Each CFM4 step evaluates the coefficients at its two Gauss nodes and
    applies two exponentials of their blends, which is fourth order in the
    step for smooth coefficients; a run of steps whose node values are all
    exactly equal is one exponential (see ``_run_steps``), so a constant
    stretch costs series terms in proportion to its length, not to its
    step count: an exponential within the step budget is one Taylor
    series, a longer one a Chebyshev series of about one term per unit of
    half the spectral width times its length (see ``_exponential``). A
    NaN or infinite coefficient value raises NumericalContractError.
    Step doubling refines the grid until the final
    amplitudes move by less than ``tol``, jumping by
    ``(err/tol)^(1/_ORDER)`` toward the grid that meets it; pass
    ``tol=None`` to accept the first grid (used by the measurement pipeline,
    whose grid is certified separately: see ``protocol._validated_block``).

    Column-valued parts (a coefficient returning a length-K array, or a
    dense (2^L, K) diagonal block) evolve K copies of psi as one block,
    column j under the j-th values, and return the K states as a list. The
    columns share one step grid: it is sized by the largest column bound,
    and ``tol`` applies to the column that moves most. Each series term
    costs one multiply for all diagonals, one sparse product for the
    off-diagonal parts with a scalar coefficient and one per column-valued
    off-diagonal part (see ``_BlendHamiltonian``).

    Each callable coefficient is called once at ``t0`` to learn its kind,
    then once per Gauss node: 1 + 2n calls for a run of n steps with
    ``tol=None`` and ``initial_steps=n``.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    ham = _BlendHamiltonian(parts, t0)
    amp = psi.amp
    if ham.columns is not None:
        amp = np.repeat(amp[:, None], ham.columns, axis=1)
    span = t1 - t0
    if initial_steps is None:
        grid = np.linspace(t0, t1, 33)
        peak = max(ham.norm_bound(ham.values(float(t))) for t in grid)
        if not math.isfinite(peak):
            raise NumericalContractError(f"non-finite bound {peak} on |H| over the start grid")
        n = max(1, int(np.ceil(peak * _EXP_WEIGHT * span / _STEP_BUDGET)))
    else:
        n = max(1, int(initial_steps))
    v = _run_steps(ham, amp, t0, t1, n)
    if tol is not None:
        for _ in range(_MAX_REFINE):
            v2 = _run_steps(ham, amp, t0, t1, 2 * n)
            err = float(np.max(_norms(v2 - v)))
            if err <= tol:
                n, v = 2 * n, v2
                break
            # error ~ n^-_ORDER: jump toward the target grid instead of
            # doubling blindly; the smallest jump reuses the doubled grid
            jump = min(16.0, max(2.0, 1.3 * (err / tol) ** (1.0 / _ORDER)))
            n_next = int(np.ceil(n * jump))
            v = v2 if n_next == 2 * n else _run_steps(ham, amp, t0, t1, n_next)
            n = n_next
        else:
            raise ConvergenceError(
                f"refinement stalled at {n} steps, last change {err:.3e} > tol {tol:.3e}"
            )
    norm = _norms(v)
    drift = float(np.max(np.abs(norm - 1.0)))
    # written so that a NaN drift fails too
    if not drift <= _NORM_TOL:
        raise NumericalContractError(f"norm drift {drift:.3e} during evolution")
    v = v / norm
    if ham.columns is None:
        return StateVector(v, psi.num_sites)
    return [StateVector(col, psi.num_sites) for col in v.T.copy()]


def evolve_static(psi: StateVector, h: PauliStringSum, duration: float) -> StateVector:
    """Evolve under a constant Hamiltonian: one step of ``evolve_blend``,
    which is the single exponential exp(-i duration H), exact up to the
    roundoff of its series."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0.0:
        return psi.copy()
    return evolve_blend(psi, [(1.0, h.to_sparse())], 0.0, duration, tol=None, initial_steps=1)


# ---------------------------------------------------------------------------
# Ground states
# ---------------------------------------------------------------------------


# Excitation-number sectors up to this many states are diagonalised
# densely, larger ones by seeded Lanczos. On the real blocks of
# model_hamiltonian with one BLAS thread, dense was faster up to 364
# states (6.4 against 8.3 ms) and Lanczos from 495 on (6 against 12 ms).
_DENSE_SECTOR = 400
# two lowest levels closer than this are a degenerate ground state
_DEGENERACY_GAP = 1e-10
# largest accepted |H v - E v| of the returned ground state
_RESIDUAL_TOL = 1e-8


def _lowest_pair(block: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs of a Hermitian block (one for a 1x1)."""
    n = block.shape[0]
    if n <= _DENSE_SECTOR:
        return eigh(block.toarray(), subset_by_index=[0, min(1, n - 1)])
    # ARPACK's own random start differs from call to call
    v0 = np.random.default_rng(0).standard_normal(n).astype(block.dtype)
    return eigsh(block, k=2, which="SA", v0=v0)


def ground_state(obs: PauliStringSum) -> tuple[float, StateVector]:
    """Lowest eigenpair of a Hermitian Pauli sum, one sector at a time.

    The basis is split into excitation-number sectors (popcount of the
    index) and H is permuted once so that each sector is a contiguous
    diagonal block. Each block gives its two lowest levels: dense ``eigh``
    up to ``_DENSE_SECTOR`` states, Lanczos from a fixed seeded vector
    above. The arithmetic is real when H has no imaginary entry. If any
    entry of H links two sectors, the whole space is one sector. Sectors
    are visited in the order of their Gershgorin lower bounds, and the
    visit stops at the first bound that is not below the second-lowest
    level found so far: no later sector can hold either of the two lowest
    levels.

    Raises DegenerateGroundStateError when the two lowest levels over all
    sectors lie within ``_DEGENERACY_GAP`` (the caller should pin the edge
    with mu_edge). The returned eigenvector satisfies |H v - E v| <=
    ``_RESIDUAL_TOL`` on the full H, or NumericalContractError is raised,
    and has its largest-magnitude amplitude rotated to the positive real
    axis so repeated runs agree exactly.
    """
    if not obs.is_hermitian():
        raise ValueError("ground_state requires a Hermitian operator")
    dim = 2**obs.num_sites
    h = obs.to_sparse()
    if not h.data.imag.any():
        h = h.real
    sector = index_to_bits(np.arange(dim), obs.num_sites).sum(axis=1)
    rows = np.repeat(np.arange(dim), np.diff(h.indptr))
    if np.any(sector[rows] != sector[h.indices]):
        sector[:] = 0
    order = np.argsort(sector, kind="stable")
    edges = np.flatnonzero(np.diff(sector[order], prepend=-1, append=-1))
    blocks = h[order][:, order]
    # Gershgorin: no level of a sector lies below the least over its rows
    # of H_ii - sum_{j != i} |H_ij|; the row sum of |H| includes |H_ii|
    diag = blocks.diagonal().real
    floor = np.minimum.reduceat(diag + abs(diag) - abs(blocks).sum(axis=1).A1, edges[:-1])
    # (energy, sector start, sector stop, vector on the sector)
    levels = []
    for s in np.argsort(floor, kind="stable"):
        if len(levels) >= 2 and floor[s] >= levels[1][0]:
            break
        a, b = edges[s], edges[s + 1]
        vals, vecs = _lowest_pair(blocks[a:b, a:b])
        levels += [(float(val), a, b, vec) for val, vec in zip(vals, vecs.T)]
        levels.sort(key=lambda level: level[0])
    gap = levels[1][0] - levels[0][0]
    if gap < _DEGENERACY_GAP:
        raise DegenerateGroundStateError(
            f"ground state degenerate within {gap:.3e}; add a mu_edge pinning term"
        )
    energy, a, b, sub = levels[0]
    vec = np.zeros(dim, dtype=complex)
    vec[order[a:b]] = sub
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if residual > _RESIDUAL_TOL:
        raise NumericalContractError(f"eigen residual {residual:.3e} > {_RESIDUAL_TOL:.1e}")
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (abs(vec[k]) / vec[k])
    return energy, StateVector(vec / np.linalg.norm(vec), obs.num_sites)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_basis_indices(psi: StateVector, n_meas: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_meas basis indices from |amp|^2 (z-basis readout)."""
    if n_meas <= 0:
        raise ValueError("n_meas must be positive")
    p = psi.probabilities()
    p = p / p.sum()
    return rng.choice(p.size, size=n_meas, p=p)


# ---------------------------------------------------------------------------
# Reduced states and purities
# ---------------------------------------------------------------------------


def _check_sites(sites: Sequence[int], num_sites: int) -> tuple[int, ...]:
    st = tuple(int(s) for s in sites)
    if not st:
        raise ValueError("empty subsystem")
    if len(set(st)) != len(st):
        raise ValueError("repeated sites in subsystem")
    if any(not 1 <= s <= num_sites for s in st):
        raise ValueError(f"sites must lie in 1..{num_sites}")
    if len(st) > MAX_SUBSYSTEM:
        raise ValueError(f"subsystem larger than {MAX_SUBSYSTEM} sites")
    return st


def _split_matrix(psi: StateVector, sites: tuple[int, ...]) -> np.ndarray:
    """Amplitudes reshaped as (subsystem, complement), subsystem-major."""
    L = psi.num_sites
    axes = [s - 1 for s in sites]
    rest = [m for m in range(L) if m not in axes]
    cube = psi.amp.reshape((2,) * L)
    return np.transpose(cube, axes + rest).reshape(2 ** len(axes), 2 ** len(rest))


def reduced_density(psi: StateVector, sites: Sequence[int]) -> ReducedDensityMatrix:
    """Partial trace over the complement of ``sites`` (1-based)."""
    st = _check_sites(sites, psi.num_sites)
    a = _split_matrix(psi, st)
    return ReducedDensityMatrix(st, a @ a.conj().T)


def exact_purity(psi: StateVector, sites: Sequence[int]) -> float:
    """Tr[rho_A^2] through the reduced density matrix (the oracle route)."""
    return reduced_density(psi, sites).purity()


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2. No pipeline stage calls it: it is the tests' independent
    check of prepared and ground states against a reference."""
    return float(np.abs(np.vdot(a.amp, b.amp)) ** 2)
