"""Test-session setup shared by every test module.

One BLAS thread per process: a multi-threaded dense ``eigh`` slows down
many times over when another process holds the second core. The
variables must be set before numpy is first imported, and ``setdefault``
leaves a caller's own choice in place.

The ``per_step_loop`` fixture is the reference the fused stepping loop is
checked against; ``pulsed_block`` builds the pulsed blocks that the
integrator's cost and accuracy are checked on.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


def _per_step_run_steps(ham, amp, t0, t1, n, budget):
    """``statevector._run_steps`` before runs of equal blends were fused:
    two exponentials on every CFM4 step, whatever its coefficient values,
    each an uncentred Taylor series in pieces within the step budget,
    stopped at the run's truncation ``budget``."""
    import numpy as np

    from rmlab.statevector import _A1, _A2, _GAUSS_OFF, _STEP_BUDGET, _SeriesBuffers, _taylor_apply

    dt = (t1 - t0) / n
    bufs = _SeriesBuffers(amp.shape, budget)
    ham.bind(bufs)
    v = amp
    for k in range(n):
        t = t0 + k * dt
        h1 = ham.values(t + (0.5 - _GAUSS_OFF) * dt)
        h2 = ham.values(t + (0.5 + _GAUSS_OFF) * dt)
        for w1, w2 in ((_A2, _A1), (_A1, _A2)):
            cs = [w1 * c1 + w2 * c2 for c1, c2 in zip(h1, h2)]
            mv = ham.matvec(cs)
            pieces = max(1, int(np.ceil(ham.norm_bound(cs) * dt / _STEP_BUDGET)))
            sub = dt / pieces
            for _ in range(pieces):
                v = _taylor_apply(mv, v, sub, bufs, ham.norm_bound(cs) * sub)
    return v


@pytest.fixture
def per_step_loop():
    """The per-step CFM4 loop, a drop-in for ``statevector._run_steps``."""
    return _per_step_run_steps


def _pulsed_block(num_sites, columns):
    """(psi, parts, T): the dimerized chain's ground state and the parts of
    one pulsed block as ``protocol.run_pulsed`` evolves it, ``columns``
    columns of the golden schedule with their own gains (eps = 3 %) and
    label rows, interactions included."""
    import numpy as np

    from rmlab.protocol import _drive_operators, _pulsed_parts, sample_unitaries
    from rmlab.pulses import FluctuationModel, golden_schedule, perturb
    from rmlab.scenarios import model_hamiltonian
    from rmlab.statevector import ground_state

    h = model_hamiltonian(num_sites)
    schedule = golden_schedule()
    rng = np.random.default_rng(0)
    fluct = FluctuationModel(3.0)
    drawn = [(perturb(schedule, fluct, rng), row) for row in sample_unitaries(num_sites, columns, rng)]
    parts = _pulsed_parts(schedule, drawn, _drive_operators(num_sites, h))
    return ground_state(h)[1], parts, schedule.T


@pytest.fixture
def pulsed_block():
    """(num_sites, columns) -> (psi, parts, T) of one pulsed block."""
    return _pulsed_block
