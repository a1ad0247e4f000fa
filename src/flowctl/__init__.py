"""Microscopic intersection simulator with a policy-gradient signal controller."""

__version__ = "0.1.0"

# The environment variables that set how many threads numpy's BLAS starts.
# They take effect only if set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
