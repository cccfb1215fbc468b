"""Test-session setup shared by every test module.

One BLAS thread per process: a multi-threaded dense ``eigh`` slows down
many times over when another process holds the second core. The
variables must be set before numpy is first imported, and ``setdefault``
leaves a caller's own choice in place.

The ``per_step_loop`` fixture is the reference the fused stepping loop is
checked against.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


def _per_step_run_steps(ham, amp, t0, t1, n):
    """``statevector._run_steps`` before runs of equal blends were fused:
    two exponentials on every CFM4 step, whatever its coefficient values."""
    import numpy as np

    from rmlab.statevector import _A1, _A2, _GAUSS_OFF, _STEP_BUDGET, _SeriesBuffers, _taylor_apply

    dt = (t1 - t0) / n
    bufs = _SeriesBuffers(amp.shape)
    v = amp
    for k in range(n):
        t = t0 + k * dt
        h1 = ham.values(t + (0.5 - _GAUSS_OFF) * dt)
        h2 = ham.values(t + (0.5 + _GAUSS_OFF) * dt)
        for w1, w2 in ((_A2, _A1), (_A1, _A2)):
            cs = [w1 * c1 + w2 * c2 for c1, c2 in zip(h1, h2)]
            mv = ham.matvec(cs, bufs.work)
            pieces = max(1, int(np.ceil(ham.norm_bound(cs) * dt / _STEP_BUDGET)))
            sub = dt / pieces
            for _ in range(pieces):
                v = _taylor_apply(mv, v, sub, bufs)
    return v


@pytest.fixture
def per_step_loop():
    """The per-step CFM4 loop, a drop-in for ``statevector._run_steps``."""
    return _per_step_run_steps
