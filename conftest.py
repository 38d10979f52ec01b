"""Test-session setup shared by every test directory.

Pins BLAS to one thread before numpy is first imported, as perfbench/run.py
does: the code under test makes one small BLAS call at a time, and on a
two-core host a second OpenBLAS thread can stall each call by milliseconds,
which skews timing-based tests such as the scaling-slope criterion.  An
explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
