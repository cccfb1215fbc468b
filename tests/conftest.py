"""Test-session setup shared by every test module.

One BLAS thread per process: a multi-threaded dense ``eigh`` slows down
many times over when another process holds the second core. The
variables must be set before numpy is first imported, and ``setdefault``
leaves a caller's own choice in place.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
