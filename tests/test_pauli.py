"""Pauli algebra against an independent dense-matrix oracle.

The oracle builds every operator from raw 2x2 matrices with its own kron
chain (site 1 most significant), so table errors in the package cannot
cancel against themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab.pauli import (
    LABELS,
    PAULI_MATRICES,
    ROTATION_MATRICES,
    PauliString,
    PauliStringSum,
    build_ssh,
    build_staggered_xy,
    conjugate_by_labels,
    pauli_mul,
    square_observable,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)  # basis order (down, up)
Z = np.diag([-1.0, 1.0]).astype(complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(letters: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, MATS[c])
    return out


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


@pytest.mark.parametrize("a", "IXYZ")
@pytest.mark.parametrize("b", "IXYZ")
def test_pauli_mul_against_dense(a, b):
    pa = PauliString(letters=a)
    pb = PauliString(letters=b)
    prod = pauli_mul(pa, pb)
    got = prod.phase * dense(prod.letters)
    assert np.allclose(got, dense(a) @ dense(b))


def test_to_matrix_site_order():
    # site 1 is the most significant factor
    p = PauliString.from_ops({1: "Z"}, 2)
    assert np.allclose(p.to_matrix(), np.kron(Z, I2))


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("letter", "IXYZ")
def test_conjugation_against_dense(label, letter):
    p = PauliString(letters=letter)
    q = conjugate_by_labels(p, [label])
    r = ROTATION_MATRICES[label]
    assert np.allclose(q.phase * dense(q.letters), r @ dense(letter) @ r.conj().T)


def test_frozen_conjugation_values():
    # oracle-derived signs, frozen: R1 Z R1^dag = -Y, R2 X R2^dag = -Z
    q = conjugate_by_labels(PauliString(letters="Z"), [1])
    assert (q.letters, q.phase) == ("Y", -1)
    q = conjugate_by_labels(PauliString(letters="X"), [2])
    assert (q.letters, q.phase) == ("Z", -1)
    q = conjugate_by_labels(PauliString(letters="Z"), [2])
    assert (q.letters, q.phase) == ("X", 1)
    q = conjugate_by_labels(PauliString(letters="Y"), [1])
    assert (q.letters, q.phase) == ("Z", 1)


@given(
    st.text(alphabet="IXYZ", min_size=1, max_size=4),
    st.lists(st.sampled_from(LABELS), min_size=4, max_size=4),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_conjugation_round_trip(letters, labels, phase_pow):
    # multi-site forward map against the dense U P U^dag, U = kron of R_label
    labels = labels[: len(letters)]
    p = PauliString(letters=letters, phase_pow=phase_pow)
    q = conjugate_by_labels(p, labels)
    u = np.array([[1.0 + 0j]])
    for lab in labels:
        u = np.kron(u, ROTATION_MATRICES[lab])
    want = u @ (p.phase * dense(letters)) @ u.conj().T
    assert np.allclose(q.phase * dense(q.letters), want)


@given(st.text(alphabet="IXYZ", min_size=1, max_size=5), st.data())
@settings(max_examples=60, deadline=None)
def test_mul_closure_and_phase(letters, data):
    other = data.draw(st.text(alphabet="IXYZ", min_size=len(letters), max_size=len(letters)))
    prod = pauli_mul(PauliString(letters=letters), PauliString(letters=other))
    assert set(prod.letters) <= set("IXYZ")
    assert prod.phase in (1, -1, 1j, -1j)


def test_sum_merges_and_drops():
    s = PauliStringSum(2)
    s.add_term(0.5, PauliString(letters="XI"))
    s.add_term(0.5, PauliString(letters="XI", phase_pow=2))  # -XI, cancels
    assert s.coefficient("XI") == 0
    s.add_term(1.25, PauliString(letters="ZZ"))
    assert s.coefficient("ZZ") == 1.25


def test_sum_matmul_vs_dense():
    rng = np.random.default_rng(0)
    a = PauliStringSum(2)
    b = PauliStringSum(2)
    for letters in ("XI", "ZY", "IZ"):
        a.add_term(rng.normal(), PauliString(letters=letters))
        b.add_term(rng.normal(), PauliString(letters=letters))
    prod = a @ b
    assert np.allclose(prod.to_matrix(), a.to_matrix() @ b.to_matrix())


def test_square_observable_dense():
    h = build_ssh(4, j_e=0.484, j_o=-0.18, j_nnn=0.04, mu_edge=0.1)
    h2 = square_observable(h)
    m = h.to_matrix()
    assert np.allclose(h2.to_matrix(), m @ m)
    assert h2.is_hermitian()


def test_build_ssh_minimal_bond():
    # L=2 has one bond (1,2), even x=1? bonds use 1-based x: x=1 is odd, so J_o
    h = build_ssh(2, j_e=0.0, j_o=1.0)
    assert np.allclose(h.to_matrix(), -0.5 * (dense("XX") + dense("YY")))


def test_build_ssh_hopping_sign_dynamics():
    # -J(s+ s- + h.c.) on |up,down> oscillates as sin^2(J t) into |down,up>
    h = build_ssh(2, j_e=0.0, j_o=0.3)
    m = h.to_matrix()
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
    h = build_staggered_xy(4, 0.18)
    words = dict(h.items())
    assert abs(words["XXII"] - (+0.09)) < 1e-15
    assert abs(words["IXXI"] - (-0.09)) < 1e-15
    assert abs(words["IIXX"] - (+0.09)) < 1e-15
