"""End-to-end benchmark of the paper's workloads, with a traced per-layer run.

See README.md in this directory.  Importing the package imports nothing from
the program, so ``__main__`` can pin the BLAS thread counts before numpy
loads.
"""

#: BLAS thread-count variables, pinned to 1 in every benchmark process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
