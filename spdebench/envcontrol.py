"""Process environment for every benchmark process; import before numpy.

``SPDE_SEED`` is removed because it silently overrides the configured
master seed.  BLAS and OpenMP pools are capped at one thread (at most
``nproc``): the workloads run one worker on small matrices, and idle pool
threads only add noise on a shared machine.
"""

from __future__ import annotations

import os
import subprocess
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = 1
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".spdebench")


def control():
    """Fix the environment and make the checkout's ``src/`` importable.

    Returns False when the working directory holds no spdesim sources.
    """
    os.environ.pop("SPDE_SEED", None)
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    if not os.path.isfile(os.path.join(SRC, "spdesim", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    return True


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# taken at import, before the benchmark pins itself to one CPU
NPROC = nproc()


def git_commit():
    """Commit of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            # a checkout outside git must not report an enclosing repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "spde_seed_unset": "SPDE_SEED" not in os.environ,
        "git_commit": git_commit(),
    }
