"""lssbal's private load of SciPy's LAPACK wrappers (``lssbal._lapack``).

The CLI must not import ``scipy.linalg``, and the five wrappers it loads
must give SciPy's public ``scipy.linalg.lapack`` results bit for bit,
whichever of the two is imported first.
"""

import re
import runpy
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import lssbal
from lssbal import _lapack

SRC = str(Path(lssbal.__file__).parents[1])


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports lssbal from this tree;
    return its stdout."""
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
                           + textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_runs_without_scipy_linalg(tmp_path):
    out = run_fresh(f"""
        import contextlib, io
        import lssbal.cli
        model = {str(tmp_path / "paper.json")!r}
        with contextlib.redirect_stdout(io.StringIO()):
            assert lssbal.cli.main(["example", "paper-3mode", "--out", model]) == 0
            assert lssbal.cli.main(["reduce", "--model", model, "--orders", "1,3,2"]) == 0
        print(sorted(name for name in sys.modules
                     if name.startswith("scipy.linalg") or name.endswith("_flapack")))
    """)
    assert out == "[]\n"


@pytest.mark.parametrize("first", ["lssbal", "scipy"])
def test_wrappers_match_scipy_bit_for_bit(first):
    imports = ["from lssbal import _lapack as ours", "from scipy.linalg import lapack as theirs"]
    out = run_fresh("\n".join(imports if first == "lssbal" else imports[::-1]) + textwrap.dedent("""
        import numpy as np

        rng = np.random.default_rng(35)
        A = rng.standard_normal((60, 60))
        S = A @ A.T + 60.0 * np.eye(60)  # its SPD companion

        def calls(lapack):
            lwork = int(lapack.dgees(lambda *_: 0, A, lwork=-1)[-2][0])
            T = lapack.dgees(lambda *_: 0, A, lwork=lwork)[0]
            return (lapack.dgees(lambda *_: 0, A, lwork=lwork),
                    lapack.dgesv(A, S),
                    lapack.dtrsyl(T, T, S),
                    lapack.dsyevr(S),
                    lapack.dsyevr(S, compute_v=0, range="I", il=1, iu=1, lower=1),
                    lapack.dtrtri(np.triu(A) + 60.0 * np.eye(60)))

        def as_bytes(results):
            return [[np.asarray(part).tobytes() for part in result] for result in results]

        assert ours.dgees is not theirs.dgees  # two loads of one shared object
        assert as_bytes(calls(ours)) == as_bytes(calls(theirs))
        print("ok")
    """))
    assert out == "ok\n"


def test_a_missing_extension_names_the_version_and_directory(tmp_path, monkeypatch):
    fake = types.ModuleType("scipy")
    fake.__file__ = str(tmp_path / "scipy" / "__init__.py")
    fake.__version__ = "0.0.test"
    monkeypatch.setitem(sys.modules, "scipy", fake)
    where = tmp_path / "scipy" / "linalg"
    message = f"SciPy 0.0.test has no LAPACK extension _flapack in {where}"
    with pytest.raises(ImportError, match=f"^{re.escape(message)}$"):
        runpy.run_path(_lapack.__file__)
