"""BLAS thread pinning and run metadata.

Import this module before numpy: :func:`pin_blas_threads` only takes
effect when it runs before the BLAS library is loaded.  It uses the
standard library alone so that importing it loads nothing else.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# One BLAS thread: on the two-core machine the benchmark was written on,
# the Gramian solves of the n=100 workload run about twice as fast and
# far more steadily with one thread than with two.
BLAS_THREADS = 1
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> dict[str, str]:
    """Pin every BLAS/OpenMP pool to at most ``nproc`` threads.

    Sets the variables in this process's environment, so subprocesses
    inherit them, and returns the values set.
    """
    threads = str(min(BLAS_THREADS, nproc()))
    for name in BLAS_VARIABLES:
        os.environ[name] = threads
    return {name: os.environ[name] for name in BLAS_VARIABLES}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata(root: Path, seed: int) -> dict:
    """Versions, machine and thread settings recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": nproc(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "seed": seed,
    }
