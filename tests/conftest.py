"""Test-session setup shared by every test module."""

import os

# One BLAS thread per library unless set, as `tdg run` does, so the tests
# check the same runs the CLI makes on any host.  Set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
