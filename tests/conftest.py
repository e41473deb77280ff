"""Test-session set-up: one BLAS thread, set before numpy loads.

OpenBLAS wakes a worker thread for each mid-sized product and lets it spin
between calls, so the suite would burn about two cores for one core of work.
Results do not depend on the thread count.  The benchmark's ``bench/run.py``
sets the same variables.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
