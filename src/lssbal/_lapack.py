"""The five LAPACK wrappers lssbal calls, loaded without ``scipy.linalg``.

Importing ``scipy.linalg.lapack`` runs ``scipy/linalg/__init__.py``, whose
array-API layer imports numpy.f2py, numpy.testing, numpy.ma and numpy.random:
that was 280-340 ms of the 430-620 ms ``import lssbal.cli`` took (``python -X
importtime``, 2 vCPU), which falls to 130-350 ms without it.  The routines live
in SciPy's f2py extension ``_flapack``, which needs only numpy.  It is loaded
here from SciPy's ``linalg`` directory and kept out of ``sys.modules``, so a
later ``import scipy.linalg`` loads SciPy's own copy unchanged.  Both copies
call the same compiled routines, so their results are bitwise equal.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

_DIR = str(Path(scipy.__file__).parent / "linalg")
_spec = PathFinder.find_spec("_flapack", [_DIR])
if _spec is None:
    raise ImportError(f"SciPy {scipy.__version__} has no LAPACK extension _flapack in {_DIR}")
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
sys.modules.pop(_spec.name, None)  # where CPython puts a single-phase extension
dgees, dgesv, dtrsyl, dsyevr, dtrtri = (getattr(_flapack, name) for name in
                                        ("dgees", "dgesv", "dtrsyl", "dsyevr", "dtrtri"))
