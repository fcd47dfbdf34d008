"""Switched-system Gramians via coupled generalized Lyapunov equations.

The reachability Gramians P_q and observability Gramians Q_q of a
switched system satisfy, for every mode i,

    A_i P_i + P_i A_i' + sum_{j != i} K[j,i] P_j K[j,i]' + B_i B_i' = 0,
    A_i' Q_i + Q_i A_i + sum_{j != i} K[i,j]' Q_j K[i,j] + C_i' C_i = 0.

They are computed here as convergent series of per-mode standard
Lyapunov solutions: the level-1 terms are the uncoupled mode Gramians
and each further level feeds the previous one through the couplings.
The observability equations are the reachability equations of the dual
model (A -> A', B -> C', K[i,j] -> K[j,i]'), so one series generator
serves both kinds.  Each mode matrix is real-Schur-factored once,
A = U T U', and the same factor gives A' = U T' U' to the dual side.
Each series reads the modes' stability off the diagonal of T and solves
every level on T by a recursive Bartels-Stewart solve that halves the
order and uses the symmetry of the solution (one Sylvester block and
two half-size Lyapunov solves per split, LAPACK trsyl at the base).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrsyl as _trsyl

from .errors import ConvergenceError, StabilityError, LssError
from .model import LssModel, as_normalized, dual

DEFAULT_TOL = 1e-10
DEFAULT_MAX_LEVELS = 500


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(np.max(np.real(np.linalg.eigvals(A))))


def solve_lyapunov(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve A X + X A' + W = 0 for symmetric X.

    Uses the Schur-based dense solver; A must be stable and W symmetric.
    The result is symmetrized and its relative residual is verified to
    be below 1e-10.
    """
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape != W.shape:
        raise LssError(f"shape mismatch: A {A.shape}, W {W.shape}")
    factor = _LyapunovFactor.of(A)
    factor.require_stable("matrix")
    return factor.solve(W)


# Triangular Lyapunov solves of this order or less are one LAPACK trsyl
# call; larger ones are split in two.  Of the orders 12-64, 32 was the
# fastest at n = 50 and 100 (one BLAS thread) and within 3% at n = 400.
_BASE_SIZE = 32


def _trsyl_checked(A: np.ndarray, B: np.ndarray, C: np.ndarray, trana: str,
                   tranb: str) -> np.ndarray:
    """Solve op(A) Y + Y op(B) = C by LAPACK trsyl, refusing a scaled solution."""
    Y, scale, info = _trsyl(A, B, C, trana=trana, tranb=tranb)
    if info < 0:
        raise LssError(f"Lyapunov solve broke down: trsyl argument {-info} illegal")
    if scale < 1.0:
        raise LssError(
            f"Lyapunov solve broke down: trsyl scaled the solution by {scale:.3e} "
            "to guard against overflow"
        )
    return Y


def _triangular_lyapunov(T: np.ndarray, C: np.ndarray, trans: bool) -> np.ndarray:
    """Solve T Y + Y T' = C, or T' Y + Y T = C when ``trans``, for symmetric C.

    T is upper quasi-triangular.  Above ``_BASE_SIZE`` the order is split
    at k ~ n/2, never inside a 2x2 block; with Y symmetric, one Sylvester
    solve for the off-diagonal block Y12 and two half-size Lyapunov
    solves give Y.  In the plain form Y22 is solved first, then Y12 from
    T11 Y12 + Y12 T22' = C12 - T12 Y22, then Y11 with C11 - R - R',
    R = T12 Y12'; the ``trans`` form is its mirror image.
    """
    n = T.shape[0]
    if n <= _BASE_SIZE:
        return _trsyl_checked(T, T, C, *(("T", "N") if trans else ("N", "T")))
    k = n // 2
    if T[k, k - 1] != 0.0:
        k += 1
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    Y = np.empty_like(C)
    if trans:
        Y11 = Y[:k, :k] = _triangular_lyapunov(T11, C[:k, :k], trans)
        Y12 = _trsyl_checked(T11, T22, C[:k, k:] - Y11 @ T12, "T", "N")
        R = T12.T @ Y12
        Y[k:, k:] = _triangular_lyapunov(T22, C[k:, k:] - R - R.T, trans)
    else:
        Y22 = Y[k:, k:] = _triangular_lyapunov(T22, C[k:, k:], trans)
        Y12 = _trsyl_checked(T11, T22, C[:k, k:] - T12 @ Y22, "N", "T")
        R = T12 @ Y12.T
        Y[:k, :k] = _triangular_lyapunov(T11, C[:k, :k] - R - R.T, trans)
    Y[:k, k:] = Y12
    Y[k:, :k] = Y12.T
    return Y


class _LyapunovFactor:
    """Real Schur factor A = U T U' of one matrix, reused per solve.

    T is in LAPACK's standardized real Schur form, whose diagonal holds
    the real parts of A's eigenvalues, so ``abscissa`` is read off it.
    The :attr:`dual` view shares T and U and solves with A' = U T' U'.
    :meth:`solve` runs a recursive Bartels-Stewart solve on T, so
    repeated solves with A or A' never refactor it.
    """

    def __init__(self, A: np.ndarray, T: np.ndarray, U: np.ndarray, trans: bool):
        self.A, self.T, self.U, self.trans = A, T, U, trans
        self.abscissa = float(np.max(np.diag(T)))

    @classmethod
    def of(cls, A: np.ndarray) -> "_LyapunovFactor":
        try:
            T, U = scipy.linalg.schur(A, output="real")
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise LssError(f"Lyapunov solve broke down: {exc}") from exc
        return cls(A, T, U, trans=False)

    @property
    def dual(self) -> "_LyapunovFactor":
        return _LyapunovFactor(self.A.T, self.T, self.U, not self.trans)

    def require_stable(self, name: str) -> None:
        if not self.abscissa < 0.0:
            raise StabilityError(
                f"{name} is not stable (spectral abscissa {self.abscissa:.3e} >= 0)"
            )

    def solve(self, W: np.ndarray) -> np.ndarray:
        """Solve A X + X A' + W = 0; W must be symmetric, the residual is checked."""
        if not np.allclose(W, W.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(W))):
            raise LssError("forcing term W must be symmetric")
        T, U, A = self.T, self.U, self.A
        Y = _triangular_lyapunov(T, U.T.dot((-W).dot(U)), self.trans)
        X = U.dot(Y).dot(U.T)
        X = 0.5 * (X + X.T)
        resid = np.linalg.norm(A @ X + X @ A.T + W, "fro")
        if not resid <= 1e-10 * max(1.0, np.linalg.norm(W, "fro")):
            raise LssError(
                f"Lyapunov residual {resid:.3e} exceeds tolerance; "
                "system may be too ill-conditioned"
            )
        return X


def _coupling_forcing(model: LssModel, prev: list[np.ndarray]) -> list[np.ndarray]:
    """Per-mode reachability coupling terms built from the previous level."""
    D = model.num_modes
    out = []
    for i in range(1, D + 1):
        n = model.mode(i).n
        W = np.zeros((n, n))
        for j in range(1, D + 1):
            if j != i:
                K = model.coupling(j, i)
                W += K @ prev[j - 1] @ K.T
        out.append(0.5 * (W + W.T))
    return out


def _mode_factors(model: LssModel) -> list[_LyapunovFactor]:
    """One Schur factor per mode matrix of a normalized model."""
    return [_LyapunovFactor.of(mode.A) for mode in model.modes]


def _reach_levels(
    model: LssModel, factors: list[_LyapunovFactor]
) -> Iterator[list[np.ndarray]]:
    """Yield the reachability series levels 1, 2, ... of a normalized model.

    ``factors`` hold one factor per mode matrix; the series first checks
    that every mode is stable, and every level reuses the factors.
    """
    for q, f in enumerate(factors, start=1):
        f.require_stable(f"mode {q}")
    level = [f.solve(mode.B @ mode.B.T) for f, mode in zip(factors, model.modes)]
    while True:
        yield level
        level = [f.solve(W) for f, W in zip(factors, _coupling_forcing(model, level))]


def _series_sides(
    model: LssModel,
) -> Iterator[tuple[str, LssModel, list[_LyapunovFactor]]]:
    """Yield (kind, model whose reachability series gives it, its factors).

    The mode matrices are factored once; the obs side is the dual model,
    solved on the dual views of the same factors.
    """
    model = as_normalized(model)
    factors = _mode_factors(model)
    yield "reach", model, factors
    yield "obs", dual(model), [f.dual for f in factors]


def _check_kind(kind: str) -> None:
    if kind not in ("reach", "obs"):
        raise LssError(f"kind must be 'reach' or 'obs', got {kind!r}")


def _reach_side(model: LssModel, kind: str) -> tuple[LssModel, list[_LyapunovFactor]]:
    """Normalized model whose reachability series gives ``kind``, with its factors."""
    _check_kind(kind)
    return next((side, f) for k, side, f in _series_sides(model) if k == kind)


def _frobenius(mats: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(np.linalg.norm(X, "fro") ** 2 for X in mats)))


def level_k_gramians(model: LssModel, k: int, kind: str = "reach") -> list[np.ndarray]:
    """Level-k Gramians: energy over switching sequences of length k.

    Level 1 is the standard per-mode Gramian; level k > 1 solves the
    recursion that feeds level k-1 through the couplings.
    """
    if k < 1:
        raise LssError(f"level must be >= 1, got {k}")
    levels = _reach_levels(*_reach_side(model, kind))
    return next(itertools.islice(levels, k - 1, None))


@dataclass(frozen=True)
class SolveDiagnostics:
    """Convergence record of one coupled-series solve."""

    levels: int
    residuals: tuple[float, ...]
    increment: float
    converged: bool


@dataclass(frozen=True, eq=False)
class CoupledSolution:
    """Per-mode Gramians of one kind plus solver diagnostics."""

    kind: str
    matrices: tuple[np.ndarray, ...]
    diagnostics: SolveDiagnostics


@dataclass(frozen=True, eq=False)
class GramianSet:
    """Reachability and observability Gramians for every mode."""

    reach: tuple[np.ndarray, ...]
    obs: tuple[np.ndarray, ...]
    reach_diagnostics: SolveDiagnostics
    obs_diagnostics: SolveDiagnostics

    @property
    def converged(self) -> bool:
        return self.reach_diagnostics.converged and self.obs_diagnostics.converged


def _coupled_residuals(model: LssModel, mats: list[np.ndarray]) -> list[float]:
    forcing = _coupling_forcing(model, mats)
    out = []
    for mode, X, W in zip(model.modes, mats, forcing):
        BB = mode.B @ mode.B.T
        R = mode.A @ X + X @ mode.A.T + W + BB
        out.append(float(np.linalg.norm(R, "fro") / max(1.0, np.linalg.norm(BB, "fro"))))
    return out


def solve_coupled(
    model: LssModel,
    kind: str = "reach",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_LEVELS,
) -> CoupledSolution:
    """Solve the coupled Lyapunov system of one kind by series summation.

    Accumulates the level series until the increment drops below
    ``tol * max(1, ||partial sum||_F)`` and the defining equations hold
    with relative residual below ``tol``.  Raises
    :class:`ConvergenceError` (carrying the existence report) when the
    series has not settled after ``max_iter`` levels.
    """
    side, factors = _reach_side(model, kind)
    return _sum_series(model, kind, side, factors, tol, max_iter)


def _sum_series(
    model: LssModel,
    kind: str,
    side: LssModel,
    factors: list[_LyapunovFactor],
    tol: float,
    max_iter: int,
) -> CoupledSolution:
    """Sum the reachability series of ``side``, which gives ``kind`` of ``model``."""
    total = [0.0] * side.num_modes
    increment = np.inf
    for levels_used, level in zip(range(1, max_iter + 1), _reach_levels(side, factors)):
        total = [T + X for T, X in zip(total, level)]
        increment = _frobenius(level)
        if not increment < tol * max(1.0, _frobenius(total)):
            continue
        residuals = _coupled_residuals(side, total)
        if all(r < tol for r in residuals):
            mats = []
            for X in total:
                X = 0.5 * (X + X.T)
                X.flags.writeable = False
                mats.append(X)
            diag = SolveDiagnostics(
                levels=levels_used,
                residuals=tuple(residuals),
                increment=increment,
                converged=True,
            )
            return CoupledSolution(kind=kind, matrices=tuple(mats), diagnostics=diag)

    report = check_existence(model)
    raise ConvergenceError(
        f"coupled {kind} series did not converge within {max_iter} levels "
        f"(last increment {increment:.3e}); couplings may be too strong",
        last_increment=increment,
        existence=report,
    )


def compute_gramians(
    model: LssModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_LEVELS,
) -> GramianSet:
    """Solve both coupled systems on one Schur factor per mode and bundle the results."""
    reach, obs = (
        _sum_series(model, kind, side, factors, tol, max_iter)
        for kind, side, factors in _series_sides(model)
    )
    return GramianSet(
        reach=reach.matrices,
        obs=obs.matrices,
        reach_diagnostics=reach.diagnostics,
        obs_diagnostics=obs.diagnostics,
    )


@dataclass(frozen=True)
class ExistenceReport:
    """Heuristic convergence diagnosis for the Gramian series.

    ``contraction`` estimates the geometric decay ratio of the level
    increments over a few trial levels; the verdict passes only when all
    modes are stable and the observed ratios stay below one.
    """

    abscissas: tuple[float, ...]
    coupling_norm_max: float
    contraction: float
    passed: bool


def check_existence(model: LssModel, trial_levels: int = 5) -> ExistenceReport:
    """Diagnose whether the coupled Gramian series can converge."""
    model = as_normalized(model)
    factors = _mode_factors(model)
    abscissas = tuple(f.abscissa for f in factors)
    D = model.num_modes
    knorm = 0.0
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if i != j:
                K = model.coupling(i, j)
                if K.size:
                    knorm = max(knorm, float(np.linalg.norm(K, 2)))

    stable = all(a < 0.0 for a in abscissas)
    contraction = np.inf
    if stable:
        levels = itertools.islice(_reach_levels(model, factors), trial_levels)
        norms = [_frobenius(level) for level in levels]
        ratios = [
            b / a for a, b in zip(norms, norms[1:]) if a > 0.0
        ]
        contraction = max(ratios) if ratios else 0.0
    passed = stable and contraction < 1.0
    return ExistenceReport(
        abscissas=abscissas,
        coupling_norm_max=knorm,
        contraction=float(contraction),
        passed=passed,
    )
