"""Pauli-string algebra for the spin-chain toolbox.

Conventions used across the package:

* Sites are numbered 1..L and site 1 is the most significant bit of a
  basis-state index, so ``|s_1 s_2 ... s_L>`` has index ``sum_m s_m 2^(L-m)``.
* Bit value 1 means the Rydberg state ``|up>``, bit 0 means ``|down>``.
  Basis vectors are therefore ordered (down, up) on each site, which makes

      Z = [[-1, 0], [0, +1]],   X = [[0, 1], [1, 0]],   Y = [[0, i], [-i, 0]]

  i.e. ``<Z> = -1`` on ``|down>`` and the number operator ``n = (Z + 1)/2``
  counts ``|up>``. The cyclic algebra X Y = i Z holds unchanged.
* A Pauli string is a letter word over {I, X, Y, Z}, position m-1 acting on
  site m, and a ``PauliStringSum`` maps each word to a complex coefficient.
  Any phase of a product is folded into its coefficient.
* Bit masks are derived from the words where a fast path needs them, never
  stored, and ``_letter_codes`` is the one parse of words into them: site m
  is bit ``2^(L-m)``, ``x_mask`` holds the X and Y sites and ``z_mask`` the
  Y and Z sites. Since Y = i X Z and Z|b> = (2b - 1)|b>, column j of a word
  has its one nonzero in row ``j ^ x_mask``, equal to
  ``i^#Y * (-1)^popcount(~j & z_mask)``.

Hamiltonian builders are unit agnostic: coefficients pass through unchanged.
The configuration layer converts plain MHz to angular rad/us (factor 2*pi)
before anything is handed to the time-evolution engine.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "LABELS",
    "PAULI_MATRICES",
    "ROTATION_MATRICES",
    "ROTATION_ORDER",
    "PauliStringSum",
    "square_observable",
    "build_ssh",
    "TWO_PI",
]

TWO_PI = 2.0 * np.pi

# Local rotations drawn in the measurement protocol, keyed by label:
#   1 -> exp(-i pi/4 X)   (z readout after it measures the +y axis)
#   2 -> exp(-i pi/4 Y)   (measures the -x axis)
#   3 -> identity         (measures +z)
LABELS = (1, 2, 3)
ROTATION_ORDER = "1:exp(-i pi/4 X), 2:exp(-i pi/4 Y), 3:identity"

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

PAULI_MATRICES: dict[str, np.ndarray] = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

_SQ2 = 1.0 / np.sqrt(2.0)
ROTATION_MATRICES: dict[int, np.ndarray] = {
    1: _SQ2 * (_I2 - 1.0j * _X),
    2: _SQ2 * (_I2 - 1.0j * _Y),
    3: _I2.copy(),
}

_LETTERS = "IXYZ"

# The label whose rotation R maps each letter onto Z, by letter code
# I, X, Y, Z (0: any label). Label 1 rotates the Bloch sphere by +pi/2
# about x (Y -> +Z), label 2 by +pi/2 about y (X -> -Z), label 3 is the
# identity (Z -> Z).
_DIAGONALIZING_LABEL = np.array([0, 2, 1, 3], dtype=np.int8)

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _z_signs(idx: np.ndarray, mask: int) -> np.ndarray:
    """(-1)^popcount(~idx & mask) as floats: the product of Z eigenvalues
    (2b - 1) over the sites in ``mask``, by an xor-fold parity."""
    v = ~np.asarray(idx, dtype=np.int64) & mask
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return 1.0 - 2.0 * (v & 1)


def _check_letters(letters: str) -> None:
    bad = set(letters) - set(_LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)}")


def _word(letters: str, sites: Sequence[int], num_sites: int) -> str:
    """The word with ``letters[k]`` on 1-based site ``sites[k]`` and I elsewhere."""
    if len(set(sites)) != len(sites):
        raise ValueError(f"repeated site in {tuple(sites)}")
    word = ["I"] * num_sites
    for site, letter in zip(sites, letters, strict=True):
        if not 1 <= site <= num_sites:
            raise ValueError(f"site {site} outside 1..{num_sites}")
        word[site - 1] = letter
    return "".join(word)


# ASCII encode table: the letter code of each byte of a letter word.
_ENC = np.zeros(128, dtype=np.int8)
for _k, _c in enumerate(_LETTERS):
    _ENC[ord(_c)] = _k
# the letter of each X bit + 2 * Z bit
_XZ_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)


def _letter_codes(words: Iterable[str], num_sites: int) -> np.ndarray:
    """(words, L) letter codes, I=0, X=1, Y=2, Z=3, of equal-length words."""
    return _ENC[np.frombuffer("".join(words).encode(), np.uint8)].reshape(-1, num_sites)


class PauliStringSum:
    """A Hermitian-friendly linear combination of Pauli strings.

    Terms are kept canonical: a word of L letters over {I, X, Y, Z} maps to
    one complex coefficient, coefficients of equal words are merged, and
    terms below 1e-13 in magnitude are dropped. For a Hermitian sum all
    canonical coefficients are real.
    """

    __slots__ = ("num_sites", "_terms")

    def __init__(self, num_sites: int, terms: Mapping[str, complex] | None = None):
        self.num_sites = int(num_sites)
        self._terms: dict[str, complex] = {}
        if terms:
            for word, coeff in terms.items():
                self.add_term(coeff, word)

    def add_term(self, coeff: complex, word: str) -> None:
        """Add coeff times the word; ValueError on a bad letter or length."""
        _check_letters(word)
        if len(word) != self.num_sites:
            raise ValueError(f"word {word!r} is not {self.num_sites} letters long")
        new = self._terms.get(word, 0.0 + 0.0j) + complex(coeff)
        if abs(new) < 1e-13:
            self._terms.pop(word, None)
        else:
            self._terms[word] = new

    def items(self) -> list[tuple[str, complex]]:
        """Canonical (word, coefficient) pairs in sorted word order."""
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= 1e-10 for c in self._terms.values())

    def __matmul__(self, other: "PauliStringSum") -> "PauliStringSum":
        """Operator product on site bits, re-canonicalized.

        With Y = i X Z a word is i^#Y X^x Z^z, and moving Z^za past X^xb
        costs (-1)^|za & xb|. So the product of two words has bits
        (xa ^ xb, za ^ zb) and phase i^(#Ya + #Yb - #Y + 2 |za & xb|).
        Each output word sums its products from +0 in the order a term by
        term expansion meets them (a's terms outer, b's inner, both in
        insertion order). Words keep the order of their first product, and
        a word whose sum is below 1e-13 in magnitude is dropped.
        """
        if other.num_sites != self.num_sites:
            raise ValueError("length mismatch")
        (xa, za, ca), (xb, zb, cb) = self._bit_arrays(), other._bit_arrays()
        x, z = xa[:, None] ^ xb, za[:, None] ^ zb

        def count(u, v):
            return (u & v).sum(axis=-1)

        phase = count(xa, za)[:, None] + count(xb, zb) - count(x, z) + 2 * count(za[:, None], xb)
        coeff = (ca[:, None] * cb * np.array(_PHASES)[phase % 4]).ravel()
        letters = _XZ_LETTERS[(x | z << 1).reshape(-1, self.num_sites)]
        words, first, where = np.unique(
            letters.view(f"S{self.num_sites}").ravel(), return_index=True, return_inverse=True
        )
        sums = np.zeros(len(words), dtype=complex)
        np.add.at(sums, where, coeff)
        out = PauliStringSum(self.num_sites)
        for k in np.argsort(first):
            if abs(sums[k]) >= 1e-13:
                out._terms[words[k].decode()] = complex(sums[k])
        return out

    def _bit_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per term in insertion order: its X bits and Z bits as (terms, L)
        boolean arrays (a Y sets both) and its coefficient."""
        codes = _letter_codes(self._terms, self.num_sites)
        coeffs = np.array(list(self._terms.values()), dtype=complex)
        return (codes == 1) | (codes == 2), codes >= 2, coeffs

    def to_sparse(self):
        """CSR matrix with sorted indices. Terms sharing an x_mask fill the
        same entries; each entry sums them in insertion order from +0, and
        exact zeros are dropped."""
        from scipy import sparse

        dim = 2**self.num_sites
        cols = np.arange(dim)
        x_bits, z_bits, coeffs = self._bit_arrays()
        site_bits = 1 << np.arange(self.num_sites - 1, -1, -1)
        masks = zip((x_bits @ site_bits).tolist(), (z_bits @ site_bits).tolist())
        num_y = (x_bits & z_bits).sum(axis=1).tolist()
        groups: dict[int, np.ndarray] = defaultdict(partial(np.zeros, dim, dtype=complex))
        for (x_mask, z_mask), y, c in zip(masks, num_y, coeffs):
            groups[x_mask] += c * (_PHASES[y % 4] * _z_signs(cols, z_mask))
        x_masks = np.fromiter(groups, dtype=np.int64, count=len(groups))
        rows = (x_masks[:, None] ^ cols).ravel()
        data = np.array(list(groups.values()), dtype=complex).ravel()
        keep = data != 0
        return sparse.csr_matrix(
            (data[keep], (rows[keep], np.tile(cols, len(groups))[keep])), shape=(dim, dim)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"({c:.6g})*{w}" for w, c in self.items()]
        return " + ".join(parts) if parts else "0"


def square_observable(obs: PauliStringSum) -> PauliStringSum:
    """Symbolic square of an observable, merged to canonical form.

    Needed for variance estimation: the square is computed once as a Pauli
    sum so the same measurement records can be reused for <O> and <O^2>.
    """
    return obs @ obs


# ---------------------------------------------------------------------------
# Chain Hamiltonians
# ---------------------------------------------------------------------------


def _add_hopping(out: PauliStringSum, coeff: float, a: int, b: int) -> None:
    # -J (s+_a s-_b + h.c.) expands to -(J/2)(X_a X_b + Y_a Y_b)
    out.add_term(-0.5 * coeff, _word("XX", (a, b), out.num_sites))
    out.add_term(-0.5 * coeff, _word("YY", (a, b), out.num_sites))


def build_ssh(
    L: int,
    j_e: float,
    j_o: float,
    j_nnn: float = 0.0,
    mu_edge: float = 0.0,
) -> PauliStringSum:
    """Dimerized XY chain with beyond-nearest-neighbour hopping.

    Bond (x, x+1) carries the flip-flop exchange -J (s+ s- + h.c.) with
    J = j_e on even x and J = j_o on odd x (1-based sites), plus the same
    kind of term with j_nnn on every (x, x+3) pair, plus a local potential
    -mu_edge * n_1 that pins the edge mode and breaks the ground-state
    degeneracy. Coefficients are passed through in whatever frequency unit
    the caller uses.
    """
    if L < 2:
        raise ValueError("need at least two sites")
    out = PauliStringSum(L)
    for x in range(1, L):
        j = j_e if x % 2 == 0 else j_o
        if j != 0.0:
            _add_hopping(out, j, x, x + 1)
    if j_nnn != 0.0:
        for x in range(1, L - 2):
            _add_hopping(out, j_nnn, x, x + 3)
    if mu_edge != 0.0:
        # -mu * n_1 with n = (Z + 1)/2
        out.add_term(-0.5 * mu_edge, _word("Z", (1,), L))
        out.add_term(-0.5 * mu_edge, "I" * L)
    return out
