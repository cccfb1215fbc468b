"""Brute-force statevector engine and exact oracles.

Every quantity the randomized-measurement pipeline estimates statistically
can also be computed here exactly (for 2 <= L <= 14): expectation values,
subsystem purities, ground states, and Schroedinger evolution under a
time-dependent Hamiltonian.

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
exp(-i m dt H). An exponential with ``|B| * t <= 2`` is one Taylor series
of B - s, s each column's diagonal energy <v|D|v> / <v|v> (D the diagonal
of B), times the phase exp(-i t s): |B - s| * t <= 4, and the series stops
at the run's budget eps, once a rigorous bound on its tail is below eps
|v| in every column, and raises if it has not by term 40. A longer one (a
fused stretch) is a Chebyshev series in (B - s) / R, with s near the
centre and R the half-width of B's Gershgorin interval, per column
(Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)), cut where its
coefficients' tail is below eps: about one application of B per unit of
R * t, where Taylor pieces would need about ten per unit of |B| * t.
``_certify``, the package's one error controller, refines a step count
until runs on n and 2n steps agree, by rules that follow from the order
``_ORDER``; ``evolve_blend``, the pulsed grid in :mod:`rmlab.protocol` and
the single-site propagator in :mod:`rmlab.pulses` use it. A run's budget
comes from its tol (``_truncation_budget``): a fixed share of tol, split
over the run's exponentials, capped so that the norm drift stays within
``_NORM_TOL`` and clamped to [1e-16, 1e-10], so a series stops at the
digits the run keeps. An L = 8, K = 10 pulsed block at the benchmark's
tol, 1e-4 (300 steps, budget 4.2e-11), takes 1,156 series terms where a
stop at 1e-16 took 1,614, and 84 ms where it took 102 ms (best of seven,
alternating, on a 2-core VM). Planned once per run of steps
(``_run_steps``), with one reduction per exponential and terms that
multiply complex blocks only, the same block took 43 ms where it took
54 ms (medians of ten alternating rounds of best-of-five, on a faster
host), about 30 ms of it in scipy's CSR kernels.
``evolve_static`` is the same engine on a constant H.

The integrator's state is a (2^L, K) block, K = 1 for one vector: K
copies of one state when the parts are column-valued (per-column
coefficients or a (2^L, K) diagonal), sharing the step grid. H is
blended once per exponential (``_BlendHamiltonian``), so a term of
either series makes one sparse product per coefficient kind, on real
arithmetic where a block of several columns meets a real matrix, each
added by scipy's CSR kernel straight into the term. No
series term and no exponential allocates a block: each run of steps owns
six blocks of the state's shape (``_SeriesBuffers``: two sums, three
terms and a work block), its operator is bound to them and to the run's
input once, with the blend's own diagonal, its complex copy, a complex
block per column-valued coefficient and the CSR values, and each
exponential only rewrites those values. No series writes into its input,
so the state handed to a run is never changed.

This module owns the bit convention for the whole package:
``index_to_bits`` / ``bits_to_index`` are the only conversions between
basis indices and site bits, and ``apply_site_matrices`` is the only
site-by-site 2x2 kernel, on one vector or on a (2^L, K) block of columns
(one matrix per site, or a (K, 2, 2) stack, one per column): the local
rotations of a block of label patterns, readout flips of an outcome
table, the purity kernel and the Walsh transform of a record all use it.
The pulse drive's operators, ``x_total`` and ``occupation``, are built
here on top of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
# the CSR kernels scipy's own ``@`` calls; tests pin them to ``@`` byte for byte
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import eigsh

from .pauli import LABELS, ROTATION_MATRICES, PauliStringSum, _word

__all__ = [
    "StateVector",
    "NumericalContractError",
    "ConvergenceError",
    "DegenerateGroundStateError",
    "MAX_SITES",
    "MAX_SUBSYSTEM",
    "product_state",
    "all_down",
    "bits_to_index",
    "index_to_bits",
    "apply_site_matrices",
    "x_total",
    "occupation",
    "expectation",
    "apply_local_unitaries",
    "evolve_blend",
    "evolve_static",
    "ground_state",
    "sample_basis_indices",
    "exact_purity",
]

MAX_SITES = 14
MAX_SUBSYSTEM = 12

# largest norm drift evolve_blend accepts. A series stopped at the run's
# budget eps moves a column's norm by at most eps |v|, the norm of the tail
# it leaves out, so an m-step run, at most 2m exponentials, by at most
# 2 m eps: within this wherever eps is the tol share of a tol of at most
# 1.6e-8, the adiabatic sweep's 1e-9 included. For looser tols the budget
# also keeps within _NORM_TOL / (4 _DRIFT_RATE m), which holds the drift
# to half of this if each exponential drifts by at most _DRIFT_RATE eps.
# That margin is empirical: pulsed L = 6 and 8 blocks on 300 to 10,000
# steps at eps 5e-12 to 1e-10 drifted by 0.002 to 0.012 eps per exponential
# (an L = 6, K = 4 block on 10,000 steps at 1e-10 by 6.2e-9, beyond this;
# the cap puts that run's eps at 1.25e-12)
_NORM_TOL = 1e-9
_DRIFT_RATE = 0.02
# |B| * t up to which an exponential exp(-i t B), B a blend of H at the
# Gauss nodes, is one Taylor series and beyond which it is a Chebyshev
# series; the start grid of evolve_blend gives each step about this much.
# The series is of B - s, s a diagonal energy, and |B - s| * t can reach
# twice this, 4, where it stops at the run's budget eps by term 32 even at
# the floor eps = 1e-16 (4^32 / 32! < 1e-16). Accuracy is owned by the
# error controller, _certify
_STEP_BUDGET = 2.0

# CFM4 step: Gauss nodes at t + (1/2 -+ _GAUSS_OFF) dt, shared with the
# closed-form Magnus step in pulses, and the blend weights of its two
# exponentials
_GAUSS_OFF = 1.0 / (2.0 * math.sqrt(3.0))
_A1 = 0.25 - _GAUSS_OFF
_A2 = 0.25 + _GAUSS_OFF
# |a1| + |a2| = 1/sqrt(3) bounds one exponent's norm per unit of dt * max |H|
_EXP_WEIGHT = abs(_A1) + abs(_A2)
# convergence order of the step; the error controller's acceptance rule
# and jump are derived from it
_ORDER = 4
# largest multiple of its start grid that the error controller tries
# (about 2^22 pulsed steps, or a propagator budget of about 1e-6)
_MAX_GRID = 2**14


class NumericalContractError(RuntimeError):
    """A numerical guarantee of the engine was violated."""


class ConvergenceError(RuntimeError):
    """The error controller could not certify a grid within the tolerance."""


class DegenerateGroundStateError(RuntimeError):
    """Ground level closer than 1e-10 to the next one; add mu_edge."""


def _check_normalized(amp: np.ndarray) -> None:
    """Raise ValueError unless a vector, or each column of a block, has unit norm."""
    off = np.abs(np.linalg.norm(amp, axis=0) - 1.0)
    # written so that a NaN norm fails too
    if not (off <= _NORM_TOL).all():
        raise ValueError(f"state not normalized: |norm - 1| = {np.max(off):.3e}")


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
        _check_normalized(self.amp)

    def copy(self) -> "StateVector":
        return StateVector(self.amp.copy(), self.num_sites)


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


def product_state(bits: Sequence[int]) -> StateVector:
    """Computational basis state; bits[m] is site m+1, 1 = up."""
    L = len(bits)
    amp = np.zeros(2**L, dtype=complex)
    amp[bits_to_index(bits)] = 1.0
    return StateVector(amp, L)


def all_down(num_sites: int) -> StateVector:
    return product_state([0] * num_sites)


# ---------------------------------------------------------------------------
# Drive operators
# ---------------------------------------------------------------------------


def x_total(num_sites: int) -> sparse.csr_matrix:
    """sum_m X_m, the global drive, as a sparse matrix."""
    ham = PauliStringSum(num_sites)
    for m in range(1, num_sites + 1):
        ham.add_term(1.0, _word("X", (m,), num_sites))
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

    The imaginary part is discarded when it is below 1e-8 of the value
    scale max(1, |Re <O>|); at or above that it raises
    NumericalContractError (non-Hermitian input or broken algebra
    upstream).
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

    ``v`` is a ``(2^L,)`` vector or a ``(2^L, K)`` block whose K columns
    are transformed alike. ``None`` skips a site (the identity). A (2, 2)
    matrix costs one einsum over a (left, 2, right) view, the columns
    folded into ``right``, so the product is never formed. A (K, 2, 2)
    stack gives each column of a block its own matrix at that site, as
    four broadcast products that update one copy of ``v`` in place.
    """
    num_sites = len(matrices)
    if v.ndim not in (1, 2) or v.shape[0] != 2**num_sites:
        raise ValueError("vector length must be 2**len(matrices)")
    own = None  # the C-ordered copy of v that stacked sites overwrite
    for site, m in enumerate(matrices):
        if m is None:
            continue
        if m.ndim == 2:
            v = np.einsum("ab,ibj->iaj", m, v.reshape(2**site, 2, -1)).reshape(v.shape)
            continue
        if v is not own or v.dtype != np.result_type(m, v):
            v = own = np.array(v, np.result_type(m, v), order="C")
        # m before the block in every product: complex multiply is not bitwise symmetric
        upper, lower = np.moveaxis(v.reshape(2**site, 2, -1, len(m)), 1, 0)
        new_lower = m[:, 1, 0] * upper
        new_lower += m[:, 1, 1] * lower
        np.multiply(m[:, 0, 0], upper, out=upper)
        upper += m[:, 0, 1] * lower
        lower[...] = new_lower
    return v


def apply_local_unitaries(psi: StateVector, labels: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """psi under K label patterns: a (K, L) label array gives the (2^L, K)
    block whose column k is psi rotated site by site as row k names
    (1 -> exp(-i pi/4 X), 2 -> exp(-i pi/4 Y), 3 -> identity), each
    column checked to be normalized, as a StateVector is."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[1] != psi.num_sites:
        raise ValueError("one label per site required")
    if not np.isin(labels, LABELS).all():
        raise ValueError(f"labels must be in {LABELS}")
    table = np.array([ROTATION_MATRICES[lab] for lab in LABELS])
    columns = np.broadcast_to(psi.amp[:, None], (psi.amp.size, len(labels)))
    block = apply_site_matrices(columns, [table[labels[:, m] - 1] for m in range(psi.num_sites)])
    _check_normalized(block)
    return block


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

# A coefficient gives one value, or one value per column of a block.
Coefficient = Callable[[float], "float | np.ndarray"]
# Sparse Hermitian operator, or a dense (2^L, K) block of per-column diagonals.
Operator = "sparse.spmatrix | np.ndarray"

# Taylor terms after which an unconverged series is an error; a series
# within twice the step budget stops at the run's budget by term 32
_TAYLOR_TERMS = 40
# A series stops once its tail is below eps |v|, eps the run's
# per-exponential truncation budget: _TRUNCATION_SHARE of the run's tol,
# split over the 2m exponentials an m-step run applies at most, capped by
# the norm drift (see _NORM_TOL) and clamped to [_BUDGET_FLOOR,
# _BUDGET_CEILING]. The floor is where roundoff takes over, and the budget
# of a tol=None run that is given none
_TRUNCATION_SHARE = 1.0 / 16.0
_BUDGET_FLOOR = 1e-16
_BUDGET_CEILING = 1e-10

# integrator work done in this process since import: exponentials (one
# blend of H each) and series terms (one application of H each, Taylor or
# Chebyshev); a caller takes differences
_INTEGRATOR_COUNTS = {"exponentials": 0, "series_terms": 0}


def _truncation_budget(tol: float, steps: int) -> float:
    """The per-exponential truncation budget eps of a run on ``steps`` steps
    under ``tol``: (tol / 16) / (2 steps), so that its at most 2 steps
    exponentials truncate at most tol / 16 in all, at most 1e-9 / (0.08
    steps), the norm drift's cap (see ``_NORM_TOL``), and clamped to
    [1e-16, 1e-10]. On 300 steps the cap is 4.2e-11."""
    share = _TRUNCATION_SHARE * tol / (2 * steps)
    drift = _NORM_TOL / (4 * _DRIFT_RATE * steps)
    return max(_BUDGET_FLOOR, min(_BUDGET_CEILING, share, drift))


def _as_coefficient(c: float | Coefficient) -> Coefficient:
    if callable(c):
        return c
    val = float(c)
    return lambda t: val


def _split(m: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal of a square sparse matrix, and its off-diagonal entries as
    keys ``row * n + column`` with their values."""
    m = sparse.csr_matrix(m, copy=True)
    m.sum_duplicates()
    n = m.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
    off = rows != m.indices
    return m.diagonal(), rows[off] * n + m.indices[off], m.data[off]


def _union_csr(entries: Sequence[tuple[np.ndarray, np.ndarray]], n: int, wide: bool):
    """One n x n CSR pattern covering every (keys, values) pair of ``entries``
    (see ``_split``), and each pair's values on it, one row per pair, zero
    where the pair has no entry. The CSR holds the first row. For a
    ``wide`` block, of more than one column, the values are stored real
    when none has an imaginary part."""
    union = np.sort(np.concatenate([keys for keys, _ in entries]))
    # drop repeats by hand: np.unique hashes, which costs ten times the sort
    union = union[np.append(True, union[1:] != union[:-1])]
    rows, cols = np.divmod(union, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    data = np.zeros((len(entries), union.size), dtype=np.result_type(*(v for _, v in entries)))
    for row, (keys, values) in zip(data, entries):
        row[np.searchsorted(union, keys)] = values
    data = data.real.astype(float) if wide and not data.imag.any() else data.astype(complex)
    return sparse.csr_matrix((data[0], cols, indptr), shape=(n, n)), data


def _csr_product(
    m: sparse.csr_matrix, shape: tuple[int, ...], blocks: Sequence[np.ndarray]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The function (v, out) -> out += m @ v, which returns ``out``, for
    complex (2^L, K) blocks v and out of ``shape``, K = 1 for one vector.

    It calls the kernel that scipy's ``@`` calls, ``csr_matvec`` for one
    column and ``csr_matvecs`` for several, on ``out`` itself: both kernels
    add each row's products to what that row of ``out`` holds, so the
    result is ``out + m @ v`` up to the order of its additions. A real m
    acts on v's real and imaginary parts as twice as many real columns.
    The kernel and m's arrays are bound here, once: values written into
    ``m.data`` in place change every later product. Raises ValueError
    unless m is square with a row per row of ``shape``, and unless v and
    out are complex of ``shape`` and out is C-contiguous (raveling any
    other out would hand the kernel a copy, and the product would be
    lost): the kernel trusts the sizes it is given.

    ``blocks`` are checked here, once, and must be C-contiguous too; the
    flat (on a real m, float) view the kernel reads of each is made here
    as well, so a product between two of them only calls the kernel. Any
    other v or out is checked and viewed per call. A run of steps binds
    its input and every block of its ``_SeriesBuffers``: against checks
    and views per call, that took 5 % off an L = 8, K = 10 pulsed block
    and 8 % off the adiabatic sweep.
    """
    n = shape[0]
    if m.shape != (n, n):
        raise ValueError(f"a {m.shape} matrix cannot act on {shape}")
    real = m.dtype.kind != "c"
    width = (2 if real else 1) * math.prod(shape[1:])
    if width == 1:
        kernel, head = _sparsetools.csr_matvec, (n, n, m.indptr, m.indices, m.data)
    else:
        kernel, head = _sparsetools.csr_matvecs, (n, n, width, m.indptr, m.indices, m.data)

    def flat(a: np.ndarray) -> np.ndarray:
        # C-ordered and flat, as the kernel reads it: a copy only if a is not
        x = a.reshape(-1)
        return x.view(float) if real else x

    def checked(v: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if v.shape != shape or out.shape != shape or v.dtype != complex or out.dtype != complex:
            raise ValueError(f"a sparse product of {v.dtype} {v.shape} into {out.dtype} {out.shape}")
        if not out.flags.c_contiguous:
            raise ValueError("the output of a sparse product must be C-contiguous")
        return flat(v), flat(out)

    # each block, checked as an output is, with its view; the block is kept, so
    # its id names it for as long as the product lives
    views = {id(a): (a, checked(a, a)[0]) for a in blocks}

    def product(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        try:
            x, y = views[id(v)][1], views[id(out)][1]
        except KeyError:
            x, y = checked(v, out)
        kernel(*head, x, y)
        return out

    return product


class _BlendHamiltonian:
    """H(t) = sum_k c_k(t) A_k with sparse Hermitian A_k, blended per exponential.

    At construction each sparse part is split into its diagonal and its
    off-diagonal entries. Off-diagonals whose coefficient is a scalar share
    one CSR on the union of their patterns, with one aligned row of values
    per part; an off-diagonal whose coefficient is column-valued gets its
    own CSR. A diagonal is stored real when it has no imaginary part.

    ``bind`` sets up one run of steps: it allocates the blocks the blend
    is written into (the diagonal, a scratch block when there are several
    diagonals, and complex blocks for the terms, see below) and binds the
    CSR kernels, with their views of the run's blocks (see
    ``_csr_product``), and the run's ``_SeriesBuffers`` work block into
    the function the series call, once per ``_run_steps`` call.
    ``matvec`` then blends one exponential's coefficients in place: every
    diagonal folds into the owned diagonal block and the shared values
    into the shared CSR's own values buffer, so an exponential allocates
    no block either. ``centred_matvec`` also shifts the diagonal by each
    column's diagonal energy. A series term costs one elementwise
    multiply, one sparse product for the shared matrix and one per
    column-valued part, each added by its kernel straight into the term's
    ``out``; a column-valued coefficient scales the input in the work
    block, X (c v) = c (X v). The function never writes into its input.

    The diagonal is blended in real arithmetic when it is real, and then
    copied, once per exponential, into a complex block; each column-valued
    coefficient is written, once per exponential, into a complex block of
    the state's shape. The terms multiply those: numpy's real x complex
    multiply casts element by element. At L = 8 a real diagonal times a
    K = 10 block took 2.6 us against 1.35 us for its complex copy, a row
    of K real gains 3.4 us against 1.4 us for their complex block, 19.6
    against 11.0 us at K = 100, and 0.62 against 0.35 us on one column
    (``timeit``); a K = 10 pulsed block took 8 % less. The values are the
    same: (d + 0i)(a + bi) = da + (db)i. A real diagonal is still stored
    and blended real, which keeps the blend's multiplies real, once per
    exponential; only the term's multiply, once per series term, is no
    longer real x complex, because the cast it costs there is more than
    the complex multiply it spares.

    H acts on a (2^L, K) block, ``shape``. Column-valued parts set K: a
    coefficient that returns a length-K array gives column j its j-th
    value, and a dense (2^L, K) array is a diagonal part with one diagonal
    per column; ``columns`` is then K. It is None when every part is
    shared by all columns, and the state is one column, the (2^L, 1)
    block of a single vector. Coefficients are called once at ``t0`` to
    find out which kind they are.

    On more than one column, an off-diagonal CSR with no imaginary entries
    is stored real and multiplies the block as 2K real columns, half the
    multiply-adds of the complex product. One column keeps complex
    matrices: called directly on the dimerized chain's off-diagonal
    entries, scipy's complex one-vector kernel took 6.9 us at L = 8 and
    118 us at L = 12, its real two-column one 10.7 and 208 us.
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
        dim = parts[0][1].shape[0]
        self.shape = (dim, self.columns or 1)
        # per part: the infinity norm, which sizes steps and picks the
        # series, and the largest row sum of its off-diagonal |entries|
        self.bounds = []
        self.off_bounds = []
        # (part index, diagonal): a (2^L, 1) column that every column shares, or a dense block
        self.diags = []
        # off-diagonal entries, (part index, (keys, values)), by coefficient kind
        shared, own = [], []
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
                d = d if d.imag.any() else d.real
                self.diags.append((k, d[:, None]))
            if keys.size:
                (own if np.ndim(probe) == 1 else shared).append((k, (keys, values)))
        wide = self.shape[1] > 1
        # (part index, CSR) per off-diagonal part with a column-valued coefficient
        self.own = [(k, _union_csr([entry], dim, wide)[0]) for k, entry in own]
        # (part indices, CSR on the union pattern, one row of values per part);
        # the CSR's values are its own buffer, which each blend overwrites
        self.shared = None
        if shared:
            index = [k for k, _ in shared]
            template, data = _union_csr([entry for _, entry in shared], dim, wide)
            template.data = data[0].copy()
            self.shared = (index, template, data)

    def values(self, t: float) -> list:
        """Coefficient values at t, in part order."""
        return [c(t) for c in self.coeffs]

    def node_values(self, times: Sequence[float]) -> list[np.ndarray]:
        """Coefficient values at each of ``times``, stacked per part: one
        row per time, (len(times),) for a scalar coefficient and
        (len(times), K) for a column-valued one, float at least. Every
        coefficient is called once per time, all at one time before the
        next, and its value is copied into its stack at once: a list of
        every time's values, stacked afterwards, raised the benchmark's
        pulsed peak RSS by 0.2 MB."""
        stacks = None
        for i, t in enumerate(times):
            row = self.values(t)
            if stacks is None:
                stacks = [np.empty((len(times),) + np.shape(c), dtype=np.result_type(float, c)) for c in row]
            for stack, c in zip(stacks, row):
                stack[i] = c
        return stacks

    def bound(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """Bound on |sum_k c_k A_k| per row of stacked coefficient values
        (``node_values``), the largest over the columns. The parts are
        summed in part order, so a row's bound does not depend on the rows
        stacked with it."""
        total = sum(np.abs(c.reshape(len(c), -1)) * b for c, b in zip(values, self.bounds))
        return np.max(total, axis=1)

    def diagonal(self, cs: Sequence):
        """The diagonal of sum_k cs[k] A_k as a new array, (2^L, 1) or
        (2^L, K), 0 when no part has a diagonal."""
        return sum(cs[k] * d for k, d in self.diags)

    def bind(self, bufs: "_SeriesBuffers", v: np.ndarray) -> None:
        """Set up the series operator of one run of steps on ``bufs``, whose
        blocks have ``self.shape``, from the run's input ``v``: allocate the
        blend's own blocks and bind the sparse kernels, their views of
        ``v`` and of every block of ``bufs`` (see ``_csr_product``), and
        ``bufs.work`` into the function every later ``matvec`` returns."""
        dtype = np.result_type(float, *(d for _, d in self.diags))
        self._diag = np.zeros(self.shape, dtype=dtype)
        self._scratch = np.empty(self.shape, dtype=dtype) if len(self.diags) > 1 else None
        # the terms multiply complex blocks: numpy's real x complex loop casts per element
        self._cdiag = diag = self._diag if dtype.kind == "c" else np.zeros(self.shape, dtype=complex)
        self._work = work = bufs.work
        blocks = (v, *bufs.sums, *bufs.terms, work)
        own = [_csr_product(m, self.shape, blocks) for _, m in self.own]
        # one exponential's column-valued coefficients, one copy per row, rewritten by matvec
        self._gains = gains = [np.zeros(self.shape, dtype=complex) for _ in own]
        shared = None if self.shared is None else _csr_product(self.shared[1], self.shape, blocks)

        def mv(v: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(diag, v, out=out)
            for product, gain in zip(own, gains):
                product(np.multiply(gain, v, out=work), out)
            if shared is not None:
                shared(v, out)
            return out

        self._mv = mv

    def _blend(self, cs: Sequence) -> None:
        """Write the blend sum_k cs[k] A_k into what ``bind`` set up: the
        diagonal, in real arithmetic when it is real, the column-valued
        coefficients and the shared CSR's values."""
        diag = self._diag
        if self.diags:
            (k, d), *rest = self.diags
            np.multiply(cs[k], d, out=diag)
            for k, d in rest:
                diag += np.multiply(cs[k], d, out=self._scratch)
        else:
            diag.fill(0.0)
        for gain, (k, _) in zip(self._gains, self.own):
            gain[...] = cs[k]
        if self.shared is not None:
            index, template, data = self.shared
            np.matmul(np.array([cs[k] for k in index]), data, out=template.data)

    def _shifted(self, shift):
        """The bound operator, after the diagonal is shifted by ``shift``
        (None for no shift) and copied into the complex block the terms
        multiply."""
        if shift is not None:
            self._diag -= shift
        if self._cdiag is not self._diag:
            self._cdiag[...] = self._diag
        return self._mv

    def matvec(self, cs: Sequence, shift=None):
        """(v, out) -> out = (sum_k cs[k] A_k - shift) v, for coefficient
        values ``cs`` and an optional scalar or per-column ``shift``.

        The diagonals, the shared values and the column-valued coefficients
        are blended here, once per exponential, into what ``bind`` set up;
        the returned function applies them to each series term, and holds
        until the next ``matvec`` call. ``out`` must be a C-contiguous
        complex block of the state's shape, and not ``v``.
        """
        self._blend(cs)
        return self._shifted(shift)

    def centred_matvec(self, cs: Sequence, v: np.ndarray, squares):
        """``matvec`` of B - s for the blend B = sum_k cs[k] A_k, and s: per
        column of ``v``, its diagonal energy s_j = sum_i |v_ij|^2 D_ij /
        sum_i |v_ij|^2 under B's diagonal D (the real part of it), where
        ``squares`` is ``_re_dots(v, v)``. s is one per column (a float on
        one), 0.0 when no part has a diagonal. Since |s| <= max |D| <= |B|,
        |B - s| <= 2 |B|."""
        self._blend(cs)
        if not self.diags:
            return self._shifted(None), 0.0
        dv = np.multiply(self._diag, v, out=self._work)
        shift = _re_dots(v, dv) / squares
        return self._shifted(shift), shift

    def interval(self, cs: Sequence):
        """Gershgorin interval (lo, hi) holding every eigenvalue of
        sum_k cs[k] A_k: the least and greatest blended diagonal entry,
        widened by sum_k |cs[k]| times part k's largest off-diagonal row
        sum: one value per column, or one for all."""
        radius = sum(abs(c) * b for c, b in zip(cs, self.off_bounds))
        if not self.diags:
            return -radius, radius
        diag = np.real(self.diagonal(cs))
        return np.min(diag, axis=0) - radius, np.max(diag, axis=0) + radius


def _re_dots(a: np.ndarray, b: np.ndarray):
    """Re <a_j|b_j> of each pair of columns of two complex (2^L, K) blocks
    of one shape; _re_dots(v, v) is the squared column norms.

    One column is one ``np.vdot``, a float: 0.7 us at L = 8 against 6.0
    us for the einsum (``timeit``), two per Taylor exponential. With the
    einsum, ``prepare_adiabatic(8, 0.1)``, all one column, took 51.3
    against 44.8 ms (medians of eight alternating best-of-five rounds)."""
    if a.shape[1] == 1:
        return np.vdot(a, b).real
    s = np.einsum("ij,ij->j", np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float))
    return s[0::2] + s[1::2]


class _SeriesBuffers:
    """The complex blocks of the state's shape that one run of steps owns
    and every series in it reuses, so that a series term allocates none,
    and the run's per-exponential truncation budget ``budget``, at which
    every series in it stops: ValueError unless finite and positive (at
    NaN the Chebyshev cut would never end).

    ``sums`` are two blocks that successive exponentials alternate
    between: each writes its sum into the one its input is not
    (``sum_for``), so no series writes into its input. ``terms`` are three
    series terms and ``work`` a scratch block: ``_BlendHamiltonian.bind``
    binds it into the run's operator, which scales a series term there for
    each column-valued part and forms D v there when it centres a blend,
    and a series may use it between applications. Each is its own
    allocation, so the sum a run returns keeps no other block alive.
    """

    def __init__(self, shape: tuple[int, int], budget: float):
        if not (math.isfinite(budget) and budget > 0):
            raise ValueError(f"series budget must be finite and positive, not {budget!r}")
        self.budget = budget
        self.sums = tuple(np.empty(shape, dtype=complex) for _ in range(2))
        self.terms = tuple(np.empty(shape, dtype=complex) for _ in range(3))
        self.work = np.empty(shape, dtype=complex)

    def sum_for(self, v: np.ndarray) -> np.ndarray:
        """The sum block that is not ``v``."""
        return self.sums[1] if v is self.sums[0] else self.sums[0]


def _taylor_apply(mv, v: np.ndarray, dt: float, bufs: _SeriesBuffers, x: float, squares) -> np.ndarray:
    """exp(-i dt H) v by Taylor series, for a (2^L, K) block v,
    where ``mv(u, out)`` returns H u, as ``_BlendHamiltonian.matvec`` does,
    x bounds |H| dt and ``squares`` is ``_re_dots(v, v)``, v's squared
    column norms.

    The caller keeps x within 2 _STEP_BUDGET: ``_exponential`` hands it
    B - s, a blend within the budget shifted by a diagonal energy, with
    x = 2 |B| dt since |B - s| <= 2 |B|. Term k + 1
    is at most x / (k + 1) of term k, so once k + 2 > x the tail after
    term k is at most |term_k| q / (1 - q'), q = x / (k + 1) and
    q' = x / (k + 2). The series stops at the run's budget eps =
    ``bufs.budget``: once that bound is below eps |v_j| in every column j,
    tested as one dot product of the whole term block against the
    smallest column's threshold. Term k is at most x^k / k! of the input
    and 4^32 / 32! = 7e-17, so even the floor eps = 1e-16 stops by term 32;
    a series that has not stopped by term _TAYLOR_TERMS raises
    NumericalContractError. The sum is ``bufs.sum_for(v)``, which is
    returned; the terms alternate between two of ``bufs.terms``, and each
    scaled term is written into the series' own term block, so ``v`` is
    never written to, even by an ``mv`` that returns its argument.
    """
    out = bufs.sum_for(v)
    out[...] = v
    term = v
    limit = bufs.budget * math.sqrt(squares.min())
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
    raise NumericalContractError(
        f"Taylor series not converged in {_TAYLOR_TERMS} terms at dt = {dt:.3g}; "
        "|H| dt is beyond the step budget"
    )


def _same(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> np.ndarray:
    """Per row of two lists of stacked coefficient values (see
    ``_BlendHamiltonian.node_values``), whether the rows are exactly equal
    in every part and column: == per value, no tolerance, so a NaN is
    equal to nothing."""
    same = True
    for x, y in zip(a, b):
        eq = x == y
        same = same & (eq.all(axis=1) if eq.ndim == 2 else eq)
    return same


def _bessel_cutoff(x: float, tiny: float) -> int:
    """Least n >= x, n >= 2, with sum_(k >= n) |J_k(x)| < tiny by the bound below.

    Kapteyn's inequality |J_k(k z)| <= b_k = (z e^s / (1 + s))^k,
    s = sqrt(1 - z^2), 0 < z = x / k <= 1, bounds J_k(x) for k >= x. The
    slope of log b_k in k is log(z / (1 + s)), which falls as k grows, so
    b_(k+1) / b_k <= r = z / (1 + s) from n on and the tail is at most
    b_n / (1 - r). x must be finite and positive.
    """
    n = max(2, math.ceil(x))
    log_tiny = math.log(tiny)
    while True:
        z = x / n
        s = math.sqrt(1.0 - z * z)
        r = z / (1.0 + s)
        if r < 1.0 and n * (math.log(z) + s - math.log1p(s)) - math.log1p(-r) < log_tiny:
            return n
        n += 1


def _chebyshev_coefficients(x: float, budget: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x), k = 0 .. n - 1: exp(-i x y) = sum_k
    c_k T_k(y) on [-1, 1] (Jacobi-Anger), cut at the run's budget, n =
    ``_bessel_cutoff(x, budget / 2)``: |T_k(y)| <= 1 there, so the
    coefficients left out add up to less than ``budget``. x must be finite
    and positive.

    J_k comes from Miller's backward recurrence J_(k-1) = (2k / x) J_k -
    J_(k+1), normalised by J_0 + 2 sum_k J_2k = 1. It starts where every
    J_k is below 1e-40, so its arbitrary start values fade far below double
    precision by k = n; the values are good to a few 1e-16 up to x = 1e3,
    where an FFT of exp(-i x cos theta) loses 1e-14 to the rounding of its
    phases.
    """
    n = _bessel_cutoff(x, budget / 2.0)
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


def _chebyshev_apply(
    ham: _BlendHamiltonian, cs: Sequence, tau: float, v: np.ndarray, bufs: _SeriesBuffers
) -> np.ndarray:
    """exp(-i tau B) v by Chebyshev series, for the blend B = sum_k cs[k] A_k.

    Each column is shifted by s, the multiple of 2 pi / tau nearest the
    centre of its Gershgorin interval (``ham.interval``), so that its
    phase e^(-i tau s) is 1 and no sine or cosine is taken; R is the
    largest half-width over the columns of the interval about s, at most
    pi / tau wider than the interval itself. Then exp(-i tau B) =
    sum_k c_k T_k(X), X = (B - s) / R, with the coefficients of
    ``_chebyshev_coefficients(R tau, bufs.budget)``, whose tail is below the
    run's budget eps. The shift and the scale are folded into the blend,
    which is assembled once as 2X, so each term T_(k+1) v = 2X T_k v -
    T_(k-1) v costs one application, as a Taylor term does. The number of
    terms is fixed in advance, about R tau + 12 (R tau)^(1/3) at the floor
    eps, so no term is tested. A non-finite interval (a NaN or infinite
    coefficient) raises NumericalContractError.

    The sum is ``bufs.sum_for(v)``, which is returned. T_k v lives in
    ``bufs.terms[(k - 1) % 3]``, distinct from T_(k-1) v and T_(k-2) v,
    and each c_k T_k v is formed in ``bufs.work`` before it is added, so
    ``v`` is never written to.
    """
    lo, hi = ham.interval(cs)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NumericalContractError(f"non-finite spectral interval of H at tau = {tau:.3g}")
    out = bufs.sum_for(v)
    centre = (lo + hi) / 2.0
    turn = 2.0 * math.pi / tau
    shift = turn * np.round(centre / turn)
    half = float(np.max((hi - lo) / 2.0 + np.abs(centre - shift)))
    if half == 0.0:
        out[...] = v
        return out
    coeffs = _chebyshev_coefficients(half * tau, bufs.budget)
    scale = 2.0 / half
    work = bufs.work
    mv = ham.matvec([scale * c for c in cs], shift=scale * shift)
    prev, cur = v, mv(v, bufs.terms[0])
    cur *= 0.5
    np.multiply(coeffs[1], cur, out=out)
    out += np.multiply(coeffs[0], v, out=work)
    for k, c in enumerate(coeffs[2:], 2):
        nxt = mv(cur, bufs.terms[(k - 1) % 3])
        nxt -= prev
        prev, cur = cur, nxt
        out += np.multiply(c, cur, out=work)
    _INTEGRATOR_COUNTS["series_terms"] += len(coeffs) - 1
    return out


def _exponential(
    ham: _BlendHamiltonian, cs: Sequence, tau: float, bound: float, v: np.ndarray, bufs: _SeriesBuffers
) -> np.ndarray:
    """exp(-i tau B) v for the blend B = sum_k cs[k] A_k, where ``bound``
    bounds |B| (``ham.bound`` of cs): one Taylor series when |B| tau is
    within the step budget, where its adaptive stop needs the fewest
    terms, and a Chebyshev series beyond it, where Taylor pieces would
    cost about ten terms per unit of |B| tau. Either stops at the run's
    budget eps, ``bufs.budget``: what it leaves out is below eps |v| per
    column. A NaN or infinite |B| fails the step-budget test, and the
    Chebyshev path raises on it. The result is ``bufs.sum_for(v)``;
    ``ham`` is bound to ``bufs``.

    The Taylor series is centred: it sums exp(-i tau (B - s)) v, s the
    diagonal energy of each column of v (``centred_matvec``), and then
    multiplies in the phase exp(-i tau s). B - s is smaller than B on the
    state the series acts on; on the pulsed blocks at L = 8 the series
    took 13 to 16 % fewer terms. Its tail bound uses |B - s| tau <=
    2 |B| tau, the bound this test already has. Each column's squared
    norm is taken once, by one reduction over the block, for both the
    shift and the series' stop, where the shift's own reduction and a
    norm for the stop took three: one took 5 % off an L = 8, K = 10 pulsed
    block and 9 % off the adiabatic sweep. The bound comes from the run's
    plan (``_plan``), which forms every exponential's at once."""
    x = bound * tau
    if x <= _STEP_BUDGET:
        squares = _re_dots(v, v)
        mv, shift = ham.centred_matvec(cs, v, squares)
        v = _taylor_apply(mv, v, tau, bufs, 2.0 * x, squares)
        v *= np.exp(-1j * tau * shift)
    else:
        v = _chebyshev_apply(ham, cs, tau, v, bufs)
    _INTEGRATOR_COUNTS["exponentials"] += 1
    return v


# steps x columns of node values in one chunk of a run's plan, which
# bounds the plan's memory at any K: an L = 8, K = 4,096 pulsed block's
# plan peaked at 3.7 MB under tracemalloc on 300 and 600 steps, where
# its node values alone, planned at once, would take 20 MB per
# column-valued coefficient on 300 steps, against a 17 MB state block.
# A K = 10 block's 300 steps are one chunk
_PLAN_CHUNK = 2**14


def _plan(ham: _BlendHamiltonian, t0: float, dt: float, n: int):
    """The exponentials of n CFM4 steps of dt from t0, in the order they
    act: (coefficient values, tau, bound on |B|) per exponential, tau and
    the bound as Python floats (see ``_run_steps``).

    The steps are planned a chunk of ``_PLAN_CHUNK`` node values per
    coefficient at a time. A chunk calls the coefficients at its Gauss
    nodes (``node_values``), finds its fused stretches by comparing the
    stacked values under ``_run_steps``' rule, forms both CFM4 blends of
    every step that is not fused, and bounds every exponential
    (``ham.bound``), all as arrays; the blends and bounds are the values
    the per-step arithmetic gives, bit for bit. A stretch that reaches the
    end of its chunk is held back until the steps that follow show where
    it ends.
    """
    chunk = max(1, _PLAN_CHUNK // ham.shape[1])
    # the stretch held back: its nodes' values (one row per part), |B| bound and steps
    held = None
    for first_step in range(0, n, chunk):
        t = t0 + np.arange(first_step, min(n, first_step + chunk)) * dt
        times = np.stack([t + (0.5 - _GAUSS_OFF) * dt, t + (0.5 + _GAUSS_OFF) * dt], axis=1)
        nodes = ham.node_values(times.ravel().tolist())
        h1, h2 = [c[0::2] for c in nodes], [c[1::2] for c in nodes]
        fused = _same(h1, h2)
        # a fused step joins the one before it when that one is fused on the same values
        joins = np.zeros(len(t), dtype=bool)
        joins[1:] = fused[1:] & fused[:-1] & _same([c[1:] for c in h1], [c[:-1] for c in h1])
        if held is not None:
            joins[0] = fused[0] and _same([c[:1] for c in h1], held[0])[0]
        starts = np.flatnonzero(~joins)
        if held is not None:
            held[2] += int(starts[0]) if starts.size else len(t)
            if not starts.size:
                continue
            values, bound, steps = held
            yield [c[0] for c in values], steps * dt, bound
            held = None
        # per start: the first exponential's values (a stretch's own, or the
        # blend a2 H1 + a1 H2), and the second's, a1 H1 + a2 H2
        ends = np.append(starts[1:], len(t))
        stretch = fused[starts]
        a, b = [c[starts] for c in h1], [c[starts] for c in h2]
        first = [np.where(stretch if x.ndim == 1 else stretch[:, None], x, _A2 * x + _A1 * y) for x, y in zip(a, b)]
        second = [_A1 * x + _A2 * y for x, y in zip(a, b)]
        bounds = ham.bound(first).tolist()
        if stretch[-1]:
            # the chunk's last stretch may go on into the next chunk
            held = [[c[starts[-1]:starts[-1] + 1] for c in h1], bounds[-1], int(ends[-1] - starts[-1])]
        taus = np.where(stretch, (ends - starts) * dt, dt).tolist()
        # zip stops before a held stretch
        emitted = stretch[:-1] if stretch[-1] else stretch
        for fuse, tau, cs1, bound1, cs2, bound2 in zip(
            emitted.tolist(), taus, zip(*first), bounds, zip(*second), ham.bound(second).tolist()
        ):
            yield cs1, tau, bound1
            if not fuse:
                yield cs2, tau, bound2
    if held is not None:
        values, bound, steps = held
        yield [c[0] for c in values], steps * dt, bound


def _run_steps(
    ham: _BlendHamiltonian, amp: np.ndarray, t0: float, t1: float, n: int, budget: float
) -> np.ndarray:
    """n CFM4 steps: exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2)).

    H1 and H2 are H at the earlier and later Gauss node. The right-hand
    exponential acts first, so it puts the larger weight a2 on the earlier
    node; the reverse order converges at second order only.

    A step whose two nodes give exactly equal coefficient values has
    H1 = H2 = H, and since a1 + a2 = 1/2 it is exp(-i dt H). The steps
    that follow it with those same values at both nodes join it, and the
    run of m steps is applied as the one exponential exp(-i m dt H). That
    is the propagator of the same n-step grid, with only the series
    truncation changed, within ``budget`` per exponential; every node is
    still evaluated exactly once.

    The run is planned once (``_plan``): node values, stretches, blends
    and |B| bounds are arrays, and the loop here only applies the
    exponentials. Against a loop that formed lists of node values per
    step, compared them value by value and blended and bounded each
    exponential on its own, planning took 8 % off an L = 8, K = 10 pulsed
    block at the benchmark's tol (46.8 against 43.0 ms), 6 % off the K = 1
    probe and 5 % off the adiabatic sweep (medians of ten alternating
    rounds of best-of-five).

    The steps share one ``_SeriesBuffers`` with the run's per-exponential
    truncation budget, which ``ham`` is bound to once here, together with
    ``amp``, a C-contiguous block; ``amp`` is never written to, and the
    returned state is one of the sum blocks.
    """
    bufs = _SeriesBuffers(amp.shape, budget)
    ham.bind(bufs, amp)
    v = amp
    for cs, tau, bound in _plan(ham, t0, (t1 - t0) / n, n):
        v = _exponential(ham, cs, tau, bound, v, bufs)
    return v


def _certify(
    run: Callable[[int], np.ndarray], n: int, tol: float, share: float = 0.0
) -> tuple[int, np.ndarray, float]:
    """The error controller: the first certified step count from n, the run
    on twice its steps, and their distance err (the largest over columns of
    ``run(m)``, a vector, block or matrix computed on m steps at order
    ``_ORDER``).

    ``share`` is the truncation share: each run(m) is within T = share tol
    of the exact m-step result (a run at ``_truncation_budget(tol, m)`` is
    within tol / 16). The exact n- and 2n-step results are then within
    err + 2T of each other, and that distance is (1 - 2^-_ORDER) of the
    exact n-step error, so run(n) is within tol of the exact state when
    err + 2T <= (1 - 2^-_ORDER) (tol - T). That certifies n: at share 0 it
    is err <= 15/16 tol, at share 1/16 err <= 193/256 tol, about 0.75 tol,
    and the returned 2n run, at a sixteenth of the n-step error plus its
    own truncation, is within tol / 8. Otherwise n jumps by the whole
    factor ceil(1.3 (err / tol)^(1/_ORDER)) in 2..16, so every grid is a
    multiple of the start; a jump of 2 reuses the 2n run. A jump past
    _MAX_GRID times the start, at most 15 rounds in, is ConvergenceError.
    A tol that is not finite and positive is ValueError, before any run.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    accept = ((1.0 - 2.0**-_ORDER) * (1.0 - share) - 2.0 * share) * tol
    start = n
    coarse = run(n)
    while True:
        fine = run(2 * n)
        err = float(np.max(np.linalg.norm(fine - coarse, axis=0)))
        if err <= accept:
            return n, fine, err
        jump = math.ceil(min(16.0, max(2.0, 1.3 * (err / tol) ** (1.0 / _ORDER))))
        if n * jump > _MAX_GRID * start:
            raise ConvergenceError(f"refinement stalled at {n} steps, change {err:.3e}, tol {tol:.3e}")
        coarse = fine if jump == 2 else run(n * jump)
        n *= jump


def evolve_blend(
    psi: StateVector,
    parts: Sequence[tuple[float | Coefficient, Operator]],
    t0: float,
    t1: float,
    tol: float = 1e-9,
    initial_steps: int | None = None,
    budget: float | None = None,
) -> StateVector | list[StateVector]:
    """Evolve under H(t) = sum_k c_k(t) A_k from t0 to t1.

    Each CFM4 step evaluates the coefficients at its two Gauss nodes and
    applies two exponentials of their blends, which is fourth order in the
    step for smooth coefficients; a run of steps whose node values are all
    exactly equal is one exponential (see ``_run_steps``), so a constant
    stretch costs series terms in proportion to its length, not to its
    step count: an exponential within the step budget is one Taylor
    series, centred on each column's diagonal energy, a longer one a
    Chebyshev series of about one term per unit of half the spectral
    width times its length (see ``_exponential``). Both series stop at the
    run's budget eps: once what they leave out is below eps |v|. A NaN or
    infinite coefficient value raises NumericalContractError.
    ``_certify`` refines the grid until runs on n and 2n steps agree, and
    returns the 2n run. A run on m steps stops its series at
    ``_truncation_budget(tol, m)``, and the controller counts that share
    of tol: runs agree when their distance is within 193/256 ``tol`` (see
    ``_certify``). ``tol=None`` accepts the first grid, with every series
    stopped at ``budget``, the floor 1e-16 if it is None: pulsed blocks use
    the grid and the budget that ``protocol._certify_grid`` certifies. A
    ``budget`` given with a tol is ValueError: the tol sets the budget. So
    are, before any step, a tol or budget that is not finite and positive
    and ``initial_steps`` that is not a positive integer.

    The refinement rule assumes fourth order, which a coefficient with
    kinks, such as a piecewise-linear waveform, has only on grids whose
    steps do not straddle them: give such a coefficient ``initial_steps``
    on a multiple of its cells. On the golden schedule's 300 cells (the
    probe column at L = 3 with five-fold couplings, tol 1e-8) a 100-step
    start went through 200, 1,600 and on to 64,000 steps and certified
    32,000 in 14 s, where 1,200 steps, a multiple of the cells, pass at
    1.4e-11.

    Column-valued parts (a coefficient returning a length-K array, or a
    dense (2^L, K) diagonal block) evolve K copies of psi as one block,
    column j under the j-th values, and return the K states as a list;
    scalar parts evolve psi as one column. The columns share one step
    grid: it is sized by the largest column bound, and ``tol`` applies to
    the column that moves most. What a series term costs is set out at
    ``_BlendHamiltonian``.

    Each callable coefficient is called once at ``t0`` to learn its kind,
    then once per Gauss node: 1 + 2n calls for a run of n steps with
    ``tol=None`` and ``initial_steps=n``.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if tol is not None and budget is not None:
        raise ValueError("budget applies only to tol=None; a tol sets its own")
    if initial_steps is not None and not (isinstance(initial_steps, (int, np.integer)) and initial_steps >= 1):
        raise ValueError("initial_steps must be a positive integer")
    ham = _BlendHamiltonian(parts, t0)
    amp = np.repeat(psi.amp[:, None], ham.shape[1], axis=1)
    span = t1 - t0
    if initial_steps is None:
        grid = np.linspace(t0, t1, 33).tolist()
        peak = float(np.max(ham.bound(ham.node_values(grid))))
        if not math.isfinite(peak):
            raise NumericalContractError(f"non-finite bound {peak} on |H| over the start grid")
        n = max(1, int(np.ceil(peak * _EXP_WEIGHT * span / _STEP_BUDGET)))
    else:
        n = int(initial_steps)

    if tol is None:
        v = _run_steps(ham, amp, t0, t1, n, _BUDGET_FLOOR if budget is None else budget)
    else:

        def run(m: int) -> np.ndarray:
            return _run_steps(ham, amp, t0, t1, m, _truncation_budget(tol, m))

        v = _certify(run, n, tol, _TRUNCATION_SHARE)[1]
    norm = np.linalg.norm(v, axis=0)
    drift = float(np.max(np.abs(norm - 1.0)))
    # written so that a NaN drift fails too
    if not drift <= _NORM_TOL:
        raise NumericalContractError(f"norm drift {drift:.3e} during evolution")
    v = v / norm
    if ham.columns is None:
        return StateVector(v[:, 0], psi.num_sites)
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


def sample_basis_indices(probs: np.ndarray, n_meas: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_meas basis indices from the outcome distribution ``probs``
    (z-basis readout; e.g. ``np.abs(psi.amp) ** 2``), renormalised first."""
    if n_meas <= 0:
        raise ValueError("n_meas must be positive")
    p = probs / probs.sum()
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


def exact_purity(psi: StateVector, sites: Sequence[int]) -> float:
    """Tr[rho_A^2] of the reduced state on ``sites`` (1-based), the oracle
    route: rho_A = A A^dag for the amplitudes A split as (subsystem,
    complement), so the purity is the sum of |rho_A|^2. Raises
    NumericalContractError if Tr rho_A, the sum of |A|^2, is more than
    1e-10 from 1."""
    a = _split_matrix(psi, _check_sites(sites, psi.num_sites))
    rho = a @ a.conj().T
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise NumericalContractError(f"trace {tr} deviates from 1")
    return float(np.sum(np.abs(rho) ** 2))
