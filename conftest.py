"""Test-session set-up for tests/ and bench/.

OpenBLAS reads its thread count once, when numpy loads.  The matrices of
this package are small, and on a busy host more BLAS threads only contend
for cores, so the tests run with one thread, as bench/run.py does, unless
the environment asks for another count.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
