"""Pauli algebra against an independent dense-matrix oracle.

The oracle (``oracles.dense``) builds every operator from raw 2x2 matrices
with its own kron chain (site 1 most significant), so table errors in the
package cannot cancel against themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from rmlab.estimators import _shadow_terms
from rmlab.pauli import (
    _PHASES,
    LABELS,
    PAULI_MATRICES,
    ROTATION_MATRICES,
    PauliStringSum,
    _word,
    build_ssh,
    square_observable,
)
from rmlab.scenarios import J_E, J_NNN, J_O, MU_EDGE, model_hamiltonian, quench_hamiltonian
from rmlab.statevector import x_total

from oracles import dense, dense_sum, sum_product

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)  # basis order (down, up)
Z = np.diag([-1.0, 1.0]).astype(complex)


def test_matrix_conventions():
    assert np.allclose(PAULI_MATRICES["Z"], Z)
    assert np.allclose(PAULI_MATRICES["Y"], Y)
    # XY = iZ in this basis ordering
    assert np.allclose(X @ Y, 1j * Z)
    # <down|Z|down> = -1
    assert Z[0, 0] == -1.0


def test_rotation_matrices():
    assert np.allclose(ROTATION_MATRICES[1], (I2 - 1j * X) / np.sqrt(2))
    assert np.allclose(ROTATION_MATRICES[2], (I2 - 1j * Y) / np.sqrt(2))
    assert np.allclose(ROTATION_MATRICES[3], I2)


def _one_term(letters: str, phase_pow: int = 0) -> PauliStringSum:
    out = PauliStringSum(len(letters))
    out.add_term(_PHASES[phase_pow], letters)
    return out


@pytest.mark.parametrize("a", "IXYZ")
@pytest.mark.parametrize("b", "IXYZ")
def test_pauli_mul_against_dense(a, b):
    prod = _one_term(a) @ _one_term(b)
    assert len(prod) == 1
    assert np.allclose(dense_sum(prod), dense(a) @ dense(b))


def test_to_matrix_site_order():
    # site 1 is the first letter of a word and the most significant factor
    assert _word("Z", (1,), 2) == "ZI"
    assert _word("XY", (3, 1), 3) == "YIX"
    assert np.allclose(dense("ZI"), np.kron(Z, I2))


def test_add_term_rejects_bad_words():
    s = PauliStringSum(2)
    with pytest.raises(ValueError, match="invalid Pauli letters \\['Q'\\]"):
        s.add_term(1.0, "XQ")
    with pytest.raises(ValueError, match="invalid Pauli letters \\['x'\\]"):
        s.add_term(1.0, "xI")
    for word in ("X", "XYZ", ""):
        with pytest.raises(ValueError, match="is not 2 letters long"):
            s.add_term(1.0, word)
    with pytest.raises(ValueError, match="invalid Pauli letters"):
        PauliStringSum(2, {"XQ": 1})
    assert s.items() == []


def test_word_rejects_bad_sites():
    with pytest.raises(ValueError, match="site 0 outside 1..3"):
        _word("X", (0,), 3)
    with pytest.raises(ValueError, match="site 4 outside 1..3"):
        _word("XX", (1, 4), 3)
    with pytest.raises(ValueError, match="repeated site"):
        _word("XY", (2, 2), 3)
    with pytest.raises(ValueError):
        _word("XY", (1,), 3)


def _rotated(letters: str, labels, phase_pow: int = 0) -> np.ndarray:
    """Dense U P U^dag for U = kron of the labelled rotations."""
    u = np.array([[1.0 + 0j]])
    for lab in labels:
        u = np.kron(u, ROTATION_MATRICES[lab])
    return u @ (1j**phase_pow * dense(letters)) @ u.conj().T


def _is_diagonal(m: np.ndarray) -> bool:
    return np.allclose(m, np.diag(np.diag(m)))


def _support_z(letters: str) -> np.ndarray:
    """Dense Z on every site where the word is not I."""
    return dense("".join("I" if c == "I" else "Z" for c in letters))


def _shadow_sign(letters: str, factor: float) -> float:
    """The sign of U P U^dag on a hit: the shadow factor over 3^w."""
    return factor / 3 ** sum(c != "I" for c in letters)


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("letter", "IXYZ")
def test_conjugation_against_dense(label, letter):
    # the label rule: a hit exactly when R P R^dag is diagonal, and then
    # R P R^dag = (-1)^#X (Z on the support)
    hits, _, factors = _shadow_terms([letter], np.array([[label]]))
    want = _rotated(letter, [label])
    assert bool(hits[0, 0]) == _is_diagonal(want)
    if hits[0, 0]:
        assert np.allclose(want, _shadow_sign(letter, factors[0]) * _support_z(letter))


def test_frozen_conjugation_values():
    # oracle-derived, frozen: R2 X R2^dag = -Z, R1 Y R1^dag = Z, R3 Z R3^dag = Z,
    # while R1 Z R1^dag = -Y and R2 Z R2^dag = X are not diagonal
    rule = {
        letter: [bool(_shadow_terms([letter], np.array([[lab]]))[0][0, 0]) for lab in LABELS]
        for letter in "IXYZ"
    }
    assert rule == {
        "I": [True, True, True],
        "X": [False, True, False],
        "Y": [True, False, False],
        "Z": [False, False, True],
    }
    _, masks, factors = _shadow_terms(["X", "Y", "Z", "I"], np.array([[1]]))
    assert masks.tolist() == [1, 1, 1, 0]
    assert factors.tolist() == [-3.0, 3.0, 3.0, 1.0]
    # site 1 is the high bit of a mask
    _, masks, factors = _shadow_terms(["XZ", "XX", "IY", "ZI"], np.array([[2, 3]]))
    assert masks.tolist() == [3, 3, 1, 2]
    assert factors.tolist() == [-9.0, 9.0, 3.0, 3.0]


@given(
    st.text(alphabet="IXYZ", min_size=1, max_size=4),
    st.lists(
        st.lists(st.sampled_from(LABELS), min_size=4, max_size=4), min_size=1, max_size=4
    ),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_conjugation_round_trip(letters, label_rows, phase_pow):
    # multi-site label rule on a whole label array against the dense
    # U P U^dag, U = kron of R_label, one row at a time
    labels = np.array(label_rows)[:, : len(letters)]
    hits, _, factors = _shadow_terms([letters], labels)
    assert hits.shape == (1, len(labels))
    for row, hit in zip(labels, hits[0]):
        want = _rotated(letters, row, phase_pow)
        assert bool(hit) == _is_diagonal(want)
        if hit:
            sign = 1j**phase_pow * _shadow_sign(letters, factors[0])
            assert np.allclose(want, sign * _support_z(letters))


@given(st.text(alphabet="IXYZ", min_size=1, max_size=5), st.data(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_mul_closure_and_phase(letters, data, phase_pow):
    # a one-term product is one string whose coefficient is a power of i
    other = data.draw(st.text(alphabet="IXYZ", min_size=len(letters), max_size=len(letters)))
    prod = _one_term(letters, phase_pow) @ _one_term(other)
    [(word, coeff)] = prod.items()
    assert set(word) <= set("IXYZ")
    assert coeff in (1, -1, 1j, -1j)
    want = 1j**phase_pow * dense(letters) @ dense(other)
    assert np.allclose(dense_sum(prod), want)


def test_sum_merges_and_drops():
    s = PauliStringSum(2)
    s.add_term(0.5, "XI")
    s.add_term(0.5 * _PHASES[2], "XI")  # -XI, cancels
    assert s.items() == []
    s.add_term(1.25, "ZZ")
    s.add_term(0.25, "ZZ")
    assert s.items() == [("ZZ", 1.5)]


@pytest.mark.parametrize("phase", ["topological", "trivial"])
def test_matmul_matches_term_by_term_product_on_model_chains(phase):
    # the model chain's couplings at L = 2..14: the same coefficients bit
    # for bit, in the same word order
    j_e, j_o = (J_O, J_E) if phase == "trivial" else (J_E, J_O)
    for L in range(2, 15):
        h = build_ssh(L, j_e, j_o, J_NNN, mu_edge=MU_EDGE)
        want = sum_product(h, h)
        got = h @ h
        assert list(got._terms) == list(want._terms)
        assert all(got._terms[w] == c for w, c in want._terms.items())
    for L in (6, 8, 10, 12, 14):
        h = model_hamiltonian(L, phase)
        assert square_observable(h)._terms == sum_product(h, h)._terms


def _random_sum(rng: np.random.Generator, num_sites: int, size: int) -> PauliStringSum:
    out = PauliStringSum(num_sites)
    for _ in range(size):
        word = "".join(rng.choice(list("IXYZ"), size=num_sites))
        coeff = rng.normal() + (1j * rng.normal() if rng.random() < 0.5 else 0.0)
        out.add_term(coeff, word)
    return out


def test_matmul_matches_term_by_term_product_on_random_sums():
    # planted cancellations: b repeats a's words with the coefficients
    # negated, or nudged by a few 1e-14 so that running sums pass near zero.
    # The term-by-term product drops a running sum below 1e-13 and restarts
    # from zero; the bitmask product drops only a word's final sum, so the
    # two may differ by less than 1e-13 in a coefficient.
    rng = np.random.default_rng(5)
    for trial in range(200):
        num_sites = 1 + trial % 4
        a = _random_sum(rng, num_sites, int(rng.integers(1, 7)))
        b = _random_sum(rng, num_sites, int(rng.integers(0, 4)))
        for word, c in a.items():
            nudge = [-1.0, -1.0 + 1e-14 * rng.integers(1, 8), 1.0][trial % 3]
            b.add_term(c * nudge, word)
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = x @ y, sum_product(x, y)
            for word in set(got._terms) | set(want._terms):
                assert abs(got._terms.get(word, 0) - want._terms.get(word, 0)) <= 1e-13


def test_sum_matmul_vs_dense():
    rng = np.random.default_rng(0)
    a = PauliStringSum(2)
    b = PauliStringSum(2)
    for letters in ("XI", "ZY", "IZ"):
        a.add_term(rng.normal(), letters)
        b.add_term(rng.normal(), letters)
    prod = a @ b
    assert np.allclose(dense_sum(prod), dense_sum(a) @ dense_sum(b))


def test_square_observable_dense():
    h = build_ssh(4, j_e=0.484, j_o=-0.18, j_nnn=0.04, mu_edge=0.1)
    h2 = square_observable(h)
    m = dense_sum(h)
    assert np.allclose(dense_sum(h2), m @ m)
    assert h2.is_hermitian()


def test_build_ssh_minimal_bond():
    # L=2 has one bond (1,2), even x=1? bonds use 1-based x: x=1 is odd, so J_o
    h = build_ssh(2, j_e=0.0, j_o=1.0)
    assert np.allclose(dense_sum(h), -0.5 * (dense("XX") + dense("YY")))


def test_build_ssh_hopping_sign_dynamics():
    # -J(s+ s- + h.c.) on |up,down> oscillates as sin^2(J t) into |down,up>
    h = build_ssh(2, j_e=0.0, j_o=0.3)
    m = dense_sum(h)
    # index of |up,down> = 10b = 2, |down,up> = 01b = 1
    from scipy.linalg import expm

    t = 1.7
    u = expm(-1j * t * m)
    assert abs(abs(u[1, 2]) ** 2 - np.sin(0.3 * t) ** 2) < 1e-12


def test_build_ssh_term_structure():
    h = build_ssh(8, j_e=0.484, j_o=-0.18, j_nnn=0.04, mu_edge=0.1)
    words = dict(h.items())
    # bond (1,2): odd x -> J_o; bond (2,3): even x -> J_e
    assert abs(words["XXIIIIII"] - (-0.5 * -0.18)) < 1e-15
    assert abs(words["IXXIIIII"] - (-0.5 * 0.484)) < 1e-15
    # next-nearest bond (1,4)
    assert abs(words["XIIXIIII"] - (-0.5 * 0.04)) < 1e-15
    # edge pinning -mu*n1 = -mu/2 (Z1 + 1)
    assert abs(words["ZIIIIIII"] - (-0.05)) < 1e-15
    assert abs(words["IIIIIIII"] - (-0.05)) < 1e-15
    assert h.is_hermitian()


def test_staggered_xy_alternation():
    # bond x carries (-1)^x J (1-based): bond 1 -> -J, bond 2 -> +J, ...
    h = quench_hamiltonian(4, 0.18)
    words = dict(h.items())
    assert abs(words["XXII"] - (+0.09)) < 1e-15
    assert abs(words["IXXI"] - (-0.09)) < 1e-15
    assert abs(words["IIXX"] - (+0.09)) < 1e-15


# ---------------------------------------------------------------------------
# to_sparse against the per-letter kron chain it replaced
# ---------------------------------------------------------------------------


def _kron_chain(s: PauliStringSum):
    """Reference to_sparse: a sparse kron chain per term. Each term's entries
    are added, in insertion order, into one dense matrix that starts from +0,
    the same sequential sums as adding the terms' CSR matrices one by one;
    the CSR built from it drops exact zeros."""
    dim = 2**s.num_sites
    out = np.zeros((dim, dim), dtype=complex)
    for word, c in s._terms.items():
        term = sparse.identity(1, dtype=complex, format="csr")
        for letter in word:
            # CSR, not the default BSR, stores no zeros: 2^L entries a term
            term = sparse.kron(term, sparse.csr_matrix(PAULI_MATRICES[letter]), format="csr")
        term = term.tocoo()
        out[term.row, term.col] += term.data * c
    return sparse.csr_matrix(out)


def _assert_same_csr(got, want) -> None:
    assert got.shape == want.shape
    assert got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


_COEFFS = (1.0, -1.0, 0.5, -0.25, 0.5j, -1.0j, 0.3 + 0.7j, -0.3 - 0.7j)


@st.composite
def _pauli_sums(draw):
    L = draw(st.integers(1, 6))
    word = st.text(alphabet="IXYZ", min_size=L, max_size=L)
    s = PauliStringSum(L)
    for w, c, k in draw(
        st.lists(st.tuples(word, st.sampled_from(_COEFFS), st.integers(0, 3)), max_size=12)
    ):
        s.add_term(complex(c) * _PHASES[k], w)
        if draw(st.booleans()):
            # XX + YY on a pair of sites cancels on the equal-bit entries
            s.add_term(complex(c) * _PHASES[k], w.replace("X", "Y"))
    return s


@given(_pauli_sums())
@settings(max_examples=80, deadline=None)
def test_to_sparse_matches_kron_chain(s):
    _assert_same_csr(s.to_sparse(), _kron_chain(s))
    assert np.allclose(s.to_sparse().toarray(), dense_sum(s))


def test_to_sparse_drops_cancelled_entries():
    s = PauliStringSum(2, {"XX": 1.0, "YY": 1.0})
    m = s.to_sparse()
    assert m.nnz == 2 and np.all(m.data != 0)
    _assert_same_csr(m, _kron_chain(s))
    assert PauliStringSum(3).to_sparse().nnz == 0


@pytest.mark.parametrize("L", [6, 8, 10])
@pytest.mark.parametrize("phase", ["topological", "trivial"])
def test_to_sparse_model_hamiltonian_matches_kron_chain(L, phase):
    h = model_hamiltonian(L, phase)
    _assert_same_csr(h.to_sparse(), _kron_chain(h))


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
def test_to_sparse_quench_hamiltonian_matches_kron_chain(L):
    h = quench_hamiltonian(L)
    _assert_same_csr(h.to_sparse(), _kron_chain(h))


def test_x_total_matches_kron_chain():
    for L in (1, 4, 8):
        xt = PauliStringSum(L)
        for m in range(1, L + 1):
            xt.add_term(1.0, "I" * (m - 1) + "X" + "I" * (L - m))
        _assert_same_csr(x_total(L), _kron_chain(xt))


@pytest.mark.parametrize("L", [8, 10])
def test_to_sparse_squared_hamiltonian_matches_kron_chain(L):
    h2 = square_observable(model_hamiltonian(L))
    _assert_same_csr(h2.to_sparse(), _kron_chain(h2))
