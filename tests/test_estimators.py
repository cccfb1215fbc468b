"""Estimator exactness, bias correction, and the results table."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rmlab.estimators import (
    NormalizationError,
    RESULT_COLUMNS,
    hamiltonian_variance,
    observable_expectation,
    purity_estimate,
    results_to_csv,
)
from rmlab.pauli import _PHASES, PauliStringSum, build_ssh, square_observable
from rmlab.protocol import (
    EXACT_SHOTS,
    MeasurementRecord,
    ReadoutErrorModel,
    run_ideal,
    sample_unitaries,
)
from rmlab.statevector import (
    StateVector,
    apply_site_matrices,
    exact_purity,
    expectation,
    index_to_bits,
    product_state,
)

from oracles import (
    all_label_settings,
    dense_sum,
    marginal_distribution,
    purity_pairwise,
    purity_per_entry,
    random_state,
)

TWO_PI = 2.0 * np.pi


def _enumerated(psi: StateVector) -> MeasurementRecord:
    return run_ideal(psi, all_label_settings(psi.num_sites), EXACT_SHOTS)


def _string_expectation(record: MeasurementRecord, word: str, phase_pow: int = 0) -> float:
    """Shadow estimate of one string: the one-term sum whose coefficient
    is the string's phase i^phase_pow."""
    obs = PauliStringSum(len(word))
    obs.add_term(_PHASES[phase_pow], word)
    return observable_expectation(record, obs)


def _all_subsystems(num_sites: int):
    import itertools

    for ell in range(1, num_sites + 1):
        yield from itertools.combinations(range(1, num_sites + 1), ell)


# ---------------------------------------------------------------------------
# Exactness under full enumeration (2-design identities)
# ---------------------------------------------------------------------------


def test_purity_two_design_exactness():
    # 50 random pure states across L = 2, 3; every subsystem
    count = 0
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        num_sites = 2 + k % 2
        psi = random_state(num_sites, rng)
        rec = _enumerated(psi)
        for sites in _all_subsystems(num_sites):
            est = purity_estimate(rec, sites)
            assert abs(est.value - exact_purity(psi, sites)) < 1e-10
            count += 1
    assert count == 50 * (3 + 7) / 2  # 3 subsystems at L=2, 7 at L=3


def test_observable_two_design_exactness():
    for k in range(12):
        rng = np.random.default_rng(2000 + k)
        psi = random_state(3, rng)
        rec = _enumerated(psi)
        obs = PauliStringSum(3)
        for _ in range(5):
            word = "".join(rng.choice(list("IXYZ")) for _ in range(3))
            obs.add_term(float(rng.normal()), word)
        est = observable_expectation(rec, obs)
        assert abs(est - expectation(psi, obs)) < 1e-10


def test_single_string_examples():
    up_down = product_state([1, 0])
    rec = _enumerated(up_down)
    assert abs(_string_expectation(rec, "ZI") - 1.0) < 1e-12
    assert abs(_string_expectation(rec, "IZ") + 1.0) < 1e-12
    plus = StateVector(np.array([1.0, 0, 1.0, 0]) / np.sqrt(2), 2)
    rec = _enumerated(plus)
    assert abs(_string_expectation(rec, "XI") - 1.0) < 1e-10


def test_cross_string_matches_oracle():
    rng = np.random.default_rng(7)
    psi = random_state(4, rng)
    rec = _enumerated(psi)
    s = PauliStringSum(4)
    s.add_term(1.0, "XXII")
    assert abs(_string_expectation(rec, "XXII") - expectation(psi, s)) < 1e-10


def test_bell_pair_single_site_purity():
    bell = StateVector(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2), 2)
    rec = _enumerated(bell)
    assert abs(purity_estimate(rec, (1,)).value - 0.5) < 1e-12
    assert abs(purity_estimate(rec, (2,)).value - 0.5) < 1e-12
    assert abs(purity_estimate(rec, (1, 2)).value - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Kernel and correction algebra
# ---------------------------------------------------------------------------


def test_kernel_factorization_matches_double_sum():
    # the per-site factor of 2^l (-2)^(-D), applied through the site kernel,
    # and the same quadratic form in the kernel's eigenbasis: the squared
    # signed Walsh sums W(S) weighted by 3^|S| / 2^l
    kernel = np.array([[2.0, -1.0], [-1.0, 2.0]])
    walsh = np.array([[1.0, 1.0], [-1.0, 1.0]])
    rng = np.random.default_rng(11)
    for ell in (1, 2, 3, 4):
        for _ in range(5):
            p = rng.random(2**ell)
            p /= p.sum()
            direct = 0.0
            for s in range(2**ell):
                for t in range(2**ell):
                    d = bin(s ^ t).count("1")
                    direct += (2.0**ell) * (-2.0) ** (-d) * p[s] * p[t]
            assert abs(p @ apply_site_matrices(p, [kernel] * ell) - direct) < 1e-12
            w = apply_site_matrices(p, [walsh] * ell)
            weights = 3.0 ** np.array([bin(S).count("1") for S in range(2**ell)])
            assert abs(weights @ w**2 / 2**ell - direct) < 1e-12


def test_correction_arithmetic_fixed_point():
    # two shots, one site: entries engineered so the biased mean is 1.25,
    # and the closed form gives 2 * 1.25 - 2 = 0.5
    rec = MeasurementRecord(
        num_sites=2, mode="ideal", n_meas=2, labels=[[3, 3]] * 2, outcomes=[[2, 0, 0, 0], [1, 0, 1, 0]]
    )
    est = purity_estimate(rec, (1,))
    assert abs(est.value - 0.5) < 1e-12


def test_pairwise_route_is_identical():
    rng = np.random.default_rng(13)
    psi = random_state(3, rng)
    rec = run_ideal(psi, sample_unitaries(3, 20, rng), 30, seed=5)
    for sites in ((1,), (1, 2), (1, 2, 3), (2, 3)):
        a = purity_estimate(rec, sites).value
        b = purity_pairwise(rec, sites).value
        assert abs(a - b) < 1e-12


def test_marginal_matches_per_index_loop():
    # a loop over basis indices and their site bits; integer counts make the
    # two routes exactly equal
    rng = np.random.default_rng(21)
    psi = random_state(5, rng)
    readout = ReadoutErrorModel(0.01, 0.03)
    rec = run_ideal(psi, sample_unitaries(5, 6, rng), 50, readout=readout, seed=3)
    for sites in ((1,), (2, 4, 5), (1, 2, 3, 4, 5)):
        for row in rec.outcomes:
            acc = np.zeros(2 ** len(sites))
            for i, c in enumerate(row):
                bits = index_to_bits(i, 5)
                idx = 0
                for m in sites:
                    idx = (idx << 1) | int(bits[m - 1])
                acc[idx] += c
            want = acc / 50
            assert np.array_equal(marginal_distribution(row, rec.norm, 5, sites), want)


def _purity_fraction(record: MeasurementRecord, sites) -> Fraction:
    """A sampled record's purity estimate in exact rational arithmetic: the
    double sum 2^l (-2)^(-D) = (-1)^D 2^(l-D), an integer kernel, over each
    entry's integer marginal counts, then the shot-noise correction."""
    ell, n = len(sites), record.n_meas
    d = np.array([[bin(s ^ t).count("1") for t in range(2**ell)] for s in range(2**ell)])
    kern = (-1) ** d * 2 ** (ell - d)
    total = Fraction(0)
    for row in record.outcomes:
        c = marginal_distribution(row, 1.0, record.num_sites, sites).astype(np.int64)
        total += Fraction(int(c @ kern @ c), n * n)
    x = total / record.n_unitaries
    return x * Fraction(n, n - 1) - Fraction(2**ell, n - 1)


@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 400])
def test_batched_purity_matches_per_entry_loop(n_meas):
    # exact records against the per-entry marginal-and-kernel loop; sampled
    # ones against the double sum in exact rationals, which neither float
    # route matches bit for bit (both were seen up to 3e-16 relative off)
    rng = np.random.default_rng(31)
    psi = random_state(7, rng)
    readout = ReadoutErrorModel(0.01, 0.03)
    rec = run_ideal(psi, sample_unitaries(7, 30, rng), n_meas, readout=readout, seed=9)
    for sites in ((1,), (2, 4, 5), (1, 2, 3, 4, 5, 6, 7), (3, 7)):
        got = purity_estimate(rec, sites).value
        if n_meas == EXACT_SHOTS:
            want = purity_per_entry(rec, sites)
            assert abs(got - want) <= 1e-13 * abs(want)
        else:
            want = _purity_fraction(rec, sites)
            assert abs(Fraction(got) - want) <= Fraction(1e-15) * abs(want)


@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 200])
def test_record_split_into_chunks_gives_the_same_estimates(monkeypatch, n_meas):
    # three entries a chunk, the last chunk short: the record rebuilt after
    # the patch makes its own transform column by column, and every estimate
    # reduces per-entry values with fsum, so the split cannot show
    from rmlab import protocol

    L = 6
    rng = np.random.default_rng(33)
    rec = run_ideal(random_state(L, rng), sample_unitaries(L, 20, rng), n_meas, seed=4)
    h = build_ssh(L, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI, mu_edge=0.1)

    def estimates(record):
        return (
            observable_expectation(record, h),
            hamiltonian_variance(record, h).value,
            purity_estimate(record, (1, 2, 3)).value,
        )

    whole = estimates(rec)
    widths = []

    def spy(block, matrices):
        widths.append(block.shape[1])
        return apply_site_matrices(block, matrices)

    monkeypatch.setattr(protocol, "_BLOCK_AMPLITUDES", 3 * 2**L)
    monkeypatch.setattr(protocol, "apply_site_matrices", spy)
    assert estimates(replace(rec)) == whole
    assert widths == [3] * 6 + [2]


@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 200])
def test_one_walsh_transform_serves_every_estimate(monkeypatch, n_meas):
    # two purities, the energy and the variance of one record make one
    # signed Walsh transform per chunk of the record, and no other
    # per-site pass
    from rmlab import estimators, protocol

    L = 6
    rng = np.random.default_rng(35)
    rec = run_ideal(random_state(L, rng), sample_unitaries(L, 20, rng), n_meas, seed=6)
    h = build_ssh(L, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI, mu_edge=0.1)
    shapes = []

    def spy(block, matrices):
        shapes.append(block.shape)
        return apply_site_matrices(block, matrices)

    for module in (protocol, estimators):
        if hasattr(module, "apply_site_matrices"):
            monkeypatch.setattr(module, "apply_site_matrices", spy)
    monkeypatch.setattr(protocol, "_BLOCK_AMPLITUDES", 8 * 2**L)
    purity_estimate(rec, (1, 2, 3))
    purity_estimate(rec, (2, 5))
    observable_expectation(rec, h)
    hamiltonian_variance(rec, h)
    assert shapes == [(2**L, 8), (2**L, 8), (2**L, 4)]


def test_correction_unbiased_under_multinomial_resampling():
    # fixed exact distributions; 1e4 multinomial resamples at N = 50 per
    # unitary; the mean corrected estimate must sit within 5 standard
    # errors of the exact-probability value
    rng = np.random.default_rng(17)
    psi = random_state(2, rng)
    exact_rec = _enumerated(psi)
    sites = (1, 2)
    target = purity_estimate(exact_rec, sites).value

    n_res, n_shots = 10_000, 50
    kern = np.array(
        [
            [(2.0**2) * (-2.0) ** (-bin(s ^ t).count("1")) for t in range(4)]
            for s in range(4)
        ]
    )
    per_entry = []
    for row in exact_rec.outcomes:
        counts = rng.multinomial(n_shots, row, size=n_res)
        phat = counts / n_shots
        per_entry.append(np.einsum("ns,st,nt->n", phat, kern, phat))
    x = np.mean(per_entry, axis=0)
    corrected = x * n_shots / (n_shots - 1) - (2**2) / (n_shots - 1)

    # spot-check the vectorized resampler against the real estimator
    for r in range(3):
        counts_r = [
            np.random.default_rng((100, r, k)).multinomial(n_shots, row)
            for k, row in enumerate(exact_rec.outcomes)
        ]
        rec_r = MeasurementRecord(
            num_sites=2, mode="ideal", n_meas=n_shots, labels=exact_rec.labels, outcomes=counts_r
        )
        v = purity_estimate(rec_r, sites).value
        phat_r = np.array(counts_r) / n_shots
        x_r = np.einsum("ns,st,nt->n", phat_r, kern, phat_r).mean()
        assert abs((x_r * n_shots / 49 - 4 / 49) - v) < 1e-12

    se = corrected.std(ddof=1) / math.sqrt(n_res)
    assert abs(corrected.mean() - target) < 5 * se


def test_identity_rotations_scale_z_correlators():
    # forcing every label to 3 makes the conjugated string the original
    # Z-string, so the shadow estimate is exactly 3^w times the plain
    # empirical correlator (the 3^w importance weight compensates random
    # label sampling, which forced labels bypass)
    rng = np.random.default_rng(19)
    psi = random_state(2, rng)
    rec = run_ideal(psi, np.full((10, 2), 3), 40, seed=23)

    def correlator(cols):
        total = 0.0
        for row in rec.outcomes:
            for i, c in enumerate(row):
                bits = index_to_bits(i, 2)
                z = 1.0
                for m in cols:
                    z *= 1.0 if bits[m - 1] == 1 else -1.0
                total += z * c
        return total / (rec.n_unitaries * 40)

    assert abs(_string_expectation(rec, "ZI") - 3 * correlator([1])) < 1e-12
    assert abs(
        _string_expectation(rec, "ZZ") - 9 * correlator([1, 2])
    ) < 1e-12


# ---------------------------------------------------------------------------
# Label-mask shadow rule against the per-unitary conjugation loop
# ---------------------------------------------------------------------------

# Heisenberg maps R_label sigma R_label^dag -> (letter code, sign), codes
# I=0, X=1, Y=2, Z=3: the integer tables the per-unitary loop used.
_REF_LETTER = {1: (0, 1, 3, 2), 2: (0, 3, 2, 1), 3: (0, 1, 2, 3)}
_REF_SIGN = {1: (1, 1, 1, -1), 2: (1, -1, 1, 1), 3: (1, 1, 1, 1)}


def _reference_string_term(word: str, record: MeasurementRecord, phase_pow: int = 0) -> float:
    """Per-unitary conjugation of i^phase_pow times the word, then the
    z-eigenvalue product."""
    L = record.num_sites
    weight = sum(c != "I" for c in word)
    if weight == 0:
        return {0: 1.0, 2: -1.0}[phase_pow]
    contributions = []
    for labels, row in zip(record.labels.tolist(), record.outcomes):
        bits = index_to_bits(np.arange(2**L), L)
        rotated, sign = [], 1
        for c, lab in zip(word, labels):
            k = "IXYZ".index(c)
            rotated.append("IXYZ"[_REF_LETTER[lab][k]])
            sign *= _REF_SIGN[lab][k]
        if any(c in "XY" for c in rotated):
            contributions.append(0.0)
            continue
        phase = (phase_pow + (2 if sign < 0 else 0)) % 4
        cols = [m for m, c in enumerate(rotated) if c == "Z"]
        zeros = len(cols) - bits[:, cols].sum(axis=1)
        z = np.where(zeros % 2 == 0, 1.0, -1.0)
        mean_z = float(z @ row) / record.norm
        contributions.append(float(3**weight) * {0: 1.0, 2: -1.0}[phase] * mean_z)
    return math.fsum(contributions) / len(contributions)


def _reference_observable(record: MeasurementRecord, obs: PauliStringSum) -> float:
    parts = [c * _reference_string_term(w, record) for w, c in obs.items()]
    return math.fsum(complex(c).real for c in parts)


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("n_meas", [EXACT_SHOTS, 300])
@pytest.mark.parametrize("flips", [False, True])
def test_label_mask_matches_conjugation_loop(L, n_meas, flips):
    rng = np.random.default_rng(100 + L)
    psi = random_state(L, rng)
    readout = ReadoutErrorModel(0.01, 0.03) if flips else None
    rec = run_ideal(psi, sample_unitaries(L, 40, rng), n_meas, readout=readout, seed=5)
    h = build_ssh(L, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI, mu_edge=0.1)

    def agrees(got: float, want: float) -> bool:
        # integer counts make every Walsh sum exact, so sampled records
        # agree bit for bit; exact probabilities are summed in another
        # order (largest relative difference seen: 2.1e-15)
        if n_meas == EXACT_SHOTS:
            return abs(got - want) <= 1e-13 * abs(want)
        return got == want

    for obs in (h, square_observable(h)):
        assert agrees(observable_expectation(rec, obs), _reference_observable(rec, obs))
    words = ["I" * L, "Z" * L, "X" + "I" * (L - 1), "IY" + "Z" * (L - 2)]
    words += ["".join(rng.choice(list("IXYZ"), size=L)) for _ in range(20)]
    for word in words:
        for phase_pow in (0, 2):
            got = _string_expectation(rec, word, phase_pow)
            assert agrees(got, _reference_string_term(word, rec, phase_pow))


def test_invalid_label_rejected():
    # the record rejects label 4 itself, so write it in after construction
    # to reach the estimator's own check
    rec = MeasurementRecord(
        num_sites=2,
        mode="ideal",
        n_meas=EXACT_SHOTS,
        labels=[[1, 3]],
        outcomes=[np.full(4, 0.25)],
    )
    rec.labels[0, 1] = 4
    with pytest.raises(ValueError, match="invalid rotation label"):
        _string_expectation(rec, "ZI")


# ---------------------------------------------------------------------------
# Observables and variance
# ---------------------------------------------------------------------------


def test_identity_observable_is_exact():
    rng = np.random.default_rng(23)
    psi = random_state(2, rng)
    rec = run_ideal(psi, sample_unitaries(2, 3, rng), 5, seed=0)
    obs = PauliStringSum(2)
    obs.add_term(2.75, "II")
    assert observable_expectation(rec, obs) == pytest.approx(2.75, abs=1e-14)
    # exact probabilities need only sum to one within 1e-10; the identity
    # still enters as its coefficient, not as the mean of those sums
    loose = MeasurementRecord(
        num_sites=2,
        mode="ideal",
        n_meas=EXACT_SHOTS,
        labels=[[1, 2]],
        outcomes=[np.full(4, 0.25) * (1 + 5e-11)],
    )
    assert observable_expectation(loose, obs) == 2.75


def test_hamiltonian_expectation_exact_ground_state():
    from rmlab.statevector import ground_state

    h = build_ssh(4, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI, mu_edge=0.1)
    e0, gs = ground_state(h)
    rec = _enumerated(gs)
    assert abs(observable_expectation(rec, h) - e0) < 1e-10


def test_variance_vanishes_on_eigenstate():
    from rmlab.statevector import ground_state

    h = build_ssh(4, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI, mu_edge=0.1)
    _, gs = ground_state(h)
    rec = _enumerated(gs)
    est = hamiltonian_variance(rec, h)
    assert abs(est.value) < 1e-10


def test_variance_matches_dense_oracle_on_af_state():
    h = build_ssh(6, 0.484 * TWO_PI, -0.18 * TWO_PI, 0.04 * TWO_PI)
    af = product_state([1, 0, 1, 0, 1, 0])
    rec = _enumerated(af)
    est = hamiltonian_variance(rec, h)

    hm = dense_sum(h)
    v = af.amp
    eh = float(np.real(v.conj() @ hm @ v))
    eh2 = float(np.real(v.conj() @ hm @ hm @ v))
    oracle = (eh2 - eh**2) / eh2
    assert abs(est.value - oracle) < 1e-10


def test_variance_normalization_error():
    # a single adversarial entry drives the H^2 estimate negative:
    # labels (2,2) make X1 X2 diagonal with shadow weight 9
    h = PauliStringSum(2)
    h.add_term(1.0, "XI")
    h.add_term(1.0, "IX")
    rec = MeasurementRecord(
        num_sites=2,
        mode="ideal",
        n_meas=10,
        labels=[[2, 2]],
        outcomes=[[0, 10, 0, 0]],
    )
    with pytest.raises(NormalizationError):
        hamiltonian_variance(rec, h)


def test_precomputed_square_agrees():
    rng = np.random.default_rng(29)
    psi = random_state(3, rng)
    rec = run_ideal(psi, sample_unitaries(3, 25, rng), 60, seed=3)
    obs = PauliStringSum(3)
    obs.add_term(0.7, "ZZI")
    obs.add_term(-0.4, "IXX")
    a = hamiltonian_variance(rec, obs)
    b = hamiltonian_variance(rec, obs, h_squared=square_observable(obs))
    assert a.value == b.value


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def test_subsystem_validation():
    rng = np.random.default_rng(37)
    psi = random_state(2, rng)
    rec = _enumerated(psi)
    with pytest.raises(ValueError):
        purity_estimate(rec, ())
    with pytest.raises(ValueError):
        purity_estimate(rec, (1, 1))
    with pytest.raises(ValueError):
        purity_estimate(rec, (0,))
    with pytest.raises(ValueError):
        purity_estimate(rec, (3,))


def test_pairwise_requires_samples():
    rng = np.random.default_rng(41)
    psi = random_state(2, rng)
    rec = _enumerated(psi)
    with pytest.raises(ValueError):
        purity_pairwise(rec, (1,))


def test_string_length_checked():
    rng = np.random.default_rng(43)
    psi = random_state(2, rng)
    rec = _enumerated(psi)
    with pytest.raises(ValueError):
        _string_expectation(rec, "ZII")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_layout_and_determinism():
    rows = [
        {
            "quantity": "purity",
            "target": "sites=1-4",
            "L": 8,
            "N_U": 100,
            "N_meas": 400,
            "eps_percent": 3.0,
            "mode": "pulsed",
            "value": 0.512345,
            "std": 0.0123,
            "seed": 7,
        },
        {
            "quantity": "purity",
            "target": "sites=1-2",
            "L": 4,
            "N_U": 10,
            "N_meas": EXACT_SHOTS,
            "eps_percent": 0.0,
            "mode": "ideal",
            "value": 1.0,
            "std": 0.0,
            "seed": 8,
        },
    ]
    text = results_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert lines[1].startswith("purity,sites=1-4,8,100,400,3.0,pulsed,")
    assert ",exact," in lines[2]
    assert results_to_csv(rows) == text
