"""Test-session setup at the repository root: one BLAS thread, as
`bench/run.py` runs, so tier-1 times and numbers match the bench's.

A BLAS library reads its thread count when numpy loads, and pytest imports
this file before any test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
