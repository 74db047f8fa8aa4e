"""The repository benchmark: live corridor and city workloads, end-to-end
metrics on a replayed real-time clock, and per-layer spans timed from
outside the program.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``.

This module imports nothing heavy: the entry point reads
:data:`THREAD_VARS` before numpy is first imported.
"""

# BLAS/OpenMP thread-count variables the benchmark pins to 1.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
