"""Microscopic intersection simulator with a policy-gradient signal controller."""

import math
import numbers

__version__ = "0.1.0"

# The environment variables that set how many threads numpy's BLAS starts.
# They take effect only if set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def checked_int(value, name: str, low: int, high: float = math.inf) -> int:
    """The rule for every count, size and duration a caller passes: `value`
    as a Python int in [low, high).  A bool, or a number not of an integer
    type (a float, even a whole one), raises ValueError naming `name`.
    numpy integers pass, since numpy registers them as numbers.Integral;
    so numpy is not imported here, before the CLI sets BLAS_THREAD_VARS.
    `int` is tested first because the abstract class's check is slower,
    and `set_phase` runs this at every decision."""
    if (isinstance(value, bool) or not isinstance(value, (int, numbers.Integral))
            or not low <= value < high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)
