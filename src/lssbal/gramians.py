"""Switched-system Gramians via coupled generalized Lyapunov equations.

The reachability Gramians P_q and observability Gramians Q_q of a
switched system satisfy, for every mode i,

    A_i P_i + P_i A_i' + sum_{j != i} K[j,i] P_j K[j,i]' + B_i B_i' = 0,
    A_i' Q_i + Q_i A_i + sum_{j != i} K[i,j]' Q_j K[i,j] + C_i' C_i = 0.

They are computed here as convergent series of per-mode standard
Lyapunov solutions: the level-1 terms are the uncoupled mode Gramians
and each further level feeds the previous one through the couplings.
The observability equations are the reachability equations of the dual
model (A -> A', B -> C', K[i,j] -> K[j,i]'), so each kind has a series
model, the model itself for reach and its dual for obs, on which the
certificates are measured too, and one series generator serves both.
Each mode matrix is real-Schur-factored once, A = U T U'; with J the
reversal, the dual gets A' = (UJ)(JT'J)(UJ)', again a Schur form, so every
solve is T Y + Y T' = C on an upper quasi-triangular T.  Each series reads
the modes' stability off the diagonal of T and is carried in Schur
coordinates U_i' X_i U_i, one flat vector per level.  Level 1 is solved on
T by a recursive Bartels-Stewart solve that halves the order and uses the
symmetry of the solution (LAPACK trsyl at the base).  Each later level
applies the level map Y -> L^{-1} Pi(Y): while the levels hold at most
64 entries (N = sum of n_i^2, where the map stopped winning) as one dense
N x N matrix built once per kind, else by the same solve per mode.  Both
feed one sum, so its stop rule and its record (:class:`SolveDiagnostics`:
level norms, observed contraction and existence verdict, whether the run
converged or not) are the same on either; the sum is transformed back
once, at convergence.  :func:`compute_gramians` leaves on its set, per
kind, the series model it summed on (the validated model for reach, the
dual model of :attr:`_Series.dual` for obs) and the coupling sums
sym(sum_{j != i} K[j,i] X_j K[j,i]') of its residual check, which the
certificates of :mod:`lssbal.analysis` read.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
from ._lapack import dgees as _gees, dgesv as _gesv, dtrsyl as _trsyl

from .errors import BalancingError, ConvergenceError, DimensionError, LssError, StabilityError
from .model import LssModel, _as_matrix, _dual, _integral, _switches, validated

DEFAULT_TOL = 1e-10
DEFAULT_MAX_LEVELS = 500


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
    for name, M in (("matrix A", A), ("forcing term W", W)):
        if not np.isfinite(M).all():
            raise LssError(f"{name} must not contain infs or NaNs")
    factor = _LyapunovFactor.of(A)
    factor.require_stable("matrix")
    if not np.allclose(W, W.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(W))):
        raise LssError("forcing term W must be symmetric")
    X = factor.from_schur(_triangular_lyapunov(factor.T, factor.U.T.dot((-W).dot(factor.U))))
    _check_residual(A @ X + X @ A.T + W, W)
    return X


# Triangular Lyapunov solves of this order or less are one LAPACK trsyl
# call; larger ones are split in two.  Of the orders 12-64, 32 was the
# fastest at n = 50 and 100 (one BLAS thread) and within 3% at n = 400.
_BASE_SIZE = 32


def _trsyl_checked(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve A Y + Y B' = C by LAPACK trsyl, refusing a scaled solution."""
    Y, scale, info = _trsyl(A, B, C, trana="N", tranb="T")
    if info < 0:
        raise LssError(f"Lyapunov solve broke down: trsyl argument {-info} illegal")
    if scale < 1.0:
        raise LssError(
            f"Lyapunov solve broke down: trsyl scaled the solution by {scale:.3e} "
            "to guard against overflow"
        )
    return Y


def _triangular_lyapunov(T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve T Y + Y T' = C for symmetric C.

    T is upper quasi-triangular.  Above ``_BASE_SIZE`` the order is split
    at k ~ n/2, never inside a 2x2 block; with Y symmetric, one Sylvester
    solve for the off-diagonal block Y12 and two half-size Lyapunov
    solves give Y: Y22 first, then Y12 from T11 Y12 + Y12 T22' =
    C12 - T12 Y22, then Y11 with C11 - R - R', R = T12 Y12'.
    """
    n = T.shape[0]
    if n <= _BASE_SIZE:
        return _trsyl_checked(T, T, C)
    k = n // 2
    if T[k, k - 1] != 0.0:
        k += 1
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    Y = np.empty_like(C)
    Y22 = Y[k:, k:] = _triangular_lyapunov(T22, C[k:, k:])
    Y12 = _trsyl_checked(T11, T22, C[:k, k:] - T12 @ Y22)
    R = T12 @ Y12.T
    Y[:k, :k] = _triangular_lyapunov(T11, C[:k, :k] - R - R.T)
    Y[:k, k:] = Y12
    Y[k:, :k] = Y12.T
    return Y


class _LyapunovFactor:
    """Real Schur factor A = U T U' of one matrix, reused per solve.

    T is in LAPACK's standardized real Schur form, whose diagonal holds
    the real parts of A's eigenvalues, so ``abscissa`` is read off it.
    :attr:`dual` is A' = (UJ)(JT'J)(UJ)', J the reversal, in the same form:
    each 2x2 block [[a, b], [c, a]] of T maps to itself.  Every solve is in
    the coordinates Y = U' X U: :meth:`solve_schur` solves and checks on T
    alone, :meth:`from_schur` transforms back.
    """

    def __init__(self, T: np.ndarray, U: np.ndarray):
        self.T, self.U = T, U
        self.abscissa = float(np.max(np.diag(T)))

    @classmethod
    def of(cls, A: np.ndarray) -> "_LyapunovFactor":
        if not np.isfinite(A).all():
            raise LssError("Lyapunov solve broke down: array must not contain infs or NaNs")
        lwork = int(_gees(_unsorted, A, lwork=-1)[-2][0])  # as scipy's schur
        T, _, _, _, U, _, info = _gees(_unsorted, A, lwork=lwork)
        if info != 0:
            raise LssError(f"Lyapunov solve broke down: no real Schur form (gees info {info})")
        return cls(T, U)

    @property
    def dual(self) -> "_LyapunovFactor":
        return _LyapunovFactor(np.asfortranarray(self.T[::-1, ::-1].T),
                               np.asfortranarray(self.U[:, ::-1]))  # copied once, not per solve

    def require_stable(self, name: str) -> None:
        if not self.abscissa < 0.0:
            raise StabilityError(
                f"{name} is not stable (spectral abscissa {self.abscissa:.3e} >= 0)"
            )

    def from_schur(self, Y: np.ndarray) -> np.ndarray:
        X = self.U.dot(Y).dot(self.U.T)
        return 0.5 * (X + X.T)

    def solve_schur(self, C: np.ndarray) -> np.ndarray:
        """Solve T Y + Y T' = C for symmetric C.

        The residual is checked on T; the Frobenius norm is orthogonally
        invariant, so the bound is that of original coordinates.
        """
        Y = _triangular_lyapunov(self.T, C)
        R = self.T.dot(Y)
        _check_residual(R + R.T - C, C)
        return Y


def _unsorted(re: float, im: float) -> None:  # gees's selector; nothing is sorted
    return None


def _check_residual(R: np.ndarray, C: np.ndarray) -> None:
    """Refuse a residual R above 1e-10 max(1, ||C||_F); norms by vdot, not np.linalg.norm."""
    resid = math.sqrt(np.vdot(R, R))
    if not resid <= 1e-10 * max(1.0, math.sqrt(np.vdot(C, C))):
        raise LssError(f"Lyapunov residual {resid:.3e} exceeds tolerance; "
                       "system may be too ill-conditioned")


def _coupling_forcing(
    coupling: Callable[[int, int], np.ndarray], prev: list[np.ndarray]
) -> list[np.ndarray]:
    """Per mode i, the symmetrized sum over j != i of K[j,i] prev_j K[j,i]'.

    ``coupling(j, i)`` gives K[j,i]: a model's couplings for the original
    coordinates, a series' for its Schur coordinates.
    """
    D = len(prev)
    out = []
    for i in range(1, D + 1):
        W = np.zeros(prev[i - 1].shape)
        for j in range(1, D + 1):
            if j != i:
                K = coupling(j, i)
                W += K.dot(prev[j - 1]).dot(K.T)
        out.append(0.5 * (W + W.T))
    return out


# A series whose levels hold at most this many Schur-coordinate entries
# (N = sum of n_i^2) applies its level map as one dense N x N matrix; a
# larger one solves each level per mode.  Summing one reach series of a
# random model (one BLAS thread, 6-11 levels), the dense map took 0.3-0.8x
# the time of the Schur solves at N = 50-72 with 2-8 modes, about 1x at
# N = 72-75 with 2-3 modes and 1.8x at N = 98 with 2.
_DENSE_LEVEL_SIZE = 64


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # np.kron's result by one broadcast product: 3.6 against 24 us at 3 x 3
    (a, b), (c, d) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(a * c, b * d)


@dataclass(frozen=True, eq=False)
class _Series:
    """The series of one Gramian kind in Schur coordinates.

    ``model`` is the series model (the validated model itself for reach,
    its dual for obs), ``factors`` hold one factor U_i T_i U_i' per mode
    matrix of it and ``schur_couplings[j, i]`` = U_i' K[j,i] U_j.  The reach
    series comes from :func:`_reach_series`, the obs series is its
    :attr:`dual`.  A level is one flat vector: the row-major Y_i of each mode
    in turn.  ``gain`` is four times the largest sum_j ||K~_ji||_F^2.  As
    |K Y K'| <= ||K||_F^2 ||Y||_F, while ``gain`` times a level's norm is
    finite, no entry of the next forcing sym(sum_j K~ Y_j K~'), of a product
    on the way or of a Kronecker block of the dense map overflows.
    """

    kind: str
    model: LssModel
    factors: list[_LyapunovFactor]
    schur_couplings: dict[tuple[int, int], np.ndarray]
    gain: float = field(init=False)

    def __post_init__(self):
        # ||K||_F^2 summed as Python floats, which overflow to inf without a warning
        into = [0.0] * len(self.factors)
        for (_, i), K in self.schur_couplings.items():
            into[i - 1] += float(np.vdot(K, K))
        object.__setattr__(self, "gain", 4.0 * max(into))

    @property
    def dual(self) -> "_Series":
        """The obs series on the dual factors: K[j,i] -> (U_i J)' K[i,j]' (U_j J) = J K~_ij' J."""
        return _Series("obs", _series_model(self.model, "obs"), [f.dual for f in self.factors],
                       {(j, i): K.T[::-1, ::-1].copy() for (i, j), K in
                        self.schur_couplings.items()})

    def cuts(self) -> list[slice]:
        """Each mode's slice of a flat level."""
        ends = list(itertools.accumulate(len(f.T) ** 2 for f in self.factors))
        return [slice(start, end) for start, end in zip([0, *ends], ends)]

    def blocks(self, level: np.ndarray) -> list[np.ndarray]:
        """The per-mode n_i x n_i views of a flat level."""
        return [level[cut].reshape(f.T.shape) for f, cut in zip(self.factors, self.cuts())]

    def levels(self) -> Iterator[np.ndarray]:
        """Yield the series levels 1, 2, ... in Schur coordinates.

        The series first checks that every mode is stable.  Level 1 is one
        Schur solve per mode; every later level applies the level map
        Y -> L^{-1} Pi(Y) to the one before: as one dense matrix
        (:func:`_level_matrix`, built here once) when a level has at most
        ``_DENSE_LEVEL_SIZE`` entries, else by one Schur solve per mode.
        """
        factors = self.factors
        for q, f in enumerate(factors, start=1):
            f.require_stable(f"mode {q}")
        inputs = [f.U.T @ mode.B for f, mode in zip(factors, self.model.modes)]
        level = np.concatenate([f.solve_schur(-(G @ G.T)) for f, G in zip(factors, inputs)],
                               axis=None)
        yield level
        advance = (_level_matrix(self).dot if level.size <= _DENSE_LEVEL_SIZE
                   else self._solve_level)
        while True:
            level = advance(level)
            yield level

    def _solve_level(self, level: np.ndarray) -> np.ndarray:
        forcing = _coupling_forcing(lambda j, i: self.schur_couplings[j, i], self.blocks(level))
        return np.concatenate([f.solve_schur(-W) for f, W in zip(self.factors, forcing)],
                              axis=None)

    def from_schur(self, level: np.ndarray) -> list[np.ndarray]:
        return [f.from_schur(Y) for f, Y in zip(self.factors, self.blocks(level))]


def _level_matrix(series: _Series) -> np.ndarray:
    """The level map of ``series`` as one dense matrix on its flat levels.

    Row-major, T Y + Y T' is (T (x) I + I (x) T) vec Y and K Y K' is
    (K (x) K) vec Y, so the map solves L M = C for the block-diagonal L of
    the T_i (x) I + I (x) T_i and the blocks
    C_ij = -K~_ji (x) K~_ji, by one LU solve whose residual is checked
    like each Schur solve's.
    """
    cuts = series.cuts()
    L, C = np.zeros((cuts[-1].stop,) * 2), np.zeros((cuts[-1].stop,) * 2)
    for f, cut in zip(series.factors, cuts):
        E = np.eye(len(f.T))
        L[cut, cut] = _kron(f.T, E) + _kron(E, f.T)
    for (j, i), K in series.schur_couplings.items():
        C[cuts[i - 1], cuts[j - 1]] = _kron(-K, K)
    _, _, M, info = _gesv(L, C)
    if info != 0:
        raise LssError(f"Lyapunov solve broke down: singular level map (gesv info {info})")
    _check_residual(L.dot(M) - C, C)
    return M


def _series_model(model: LssModel, kind: str, name: str = "kind") -> LssModel:
    """The series model whose reachability series gives the ``kind`` Gramians.

    ``model`` must be valid (:func:`validated`).  ``"reach"``
    maps to the model itself and ``"obs"`` to its dual; the certificates
    name their sides the same way.  Another ``kind`` is refused, by ``name``.
    """
    if kind == "reach":
        return model
    if kind == "obs":
        return _dual(model)
    raise DimensionError(f"{name} must be 'reach' or 'obs', got {kind!r}")


def _reach_series(model: LssModel) -> _Series:
    """The reachability series of ``model``, validating it once.

    Every mode matrix is factored and every coupling transformed once per
    ordered pair; the obs series is this series' :attr:`~_Series.dual`.
    """
    validated(model)
    factors = [_LyapunovFactor.of(mode.A) for mode in model.modes]
    return _Series("reach", model, factors, {
        (j, i): factors[i - 1].U.T @ model.coupling(j, i) @ factors[j - 1].U
        for j, i in _switches(model)
    })


def _series(model: LssModel, kind: str) -> _Series:
    """The series of the ``kind`` Gramians of ``model``; another kind is refused first."""
    if kind == "obs":
        return _reach_series(model).dual
    return _reach_series(_series_model(model, kind))  # "reach" maps a model to itself


def _norm(level: np.ndarray) -> float:
    # by vdot, which overflows to inf without a warning (np.dot warns)
    return math.sqrt(np.vdot(level, level))


@dataclass(frozen=True)
class SolveDiagnostics:
    """Record of one run of a Gramian series, converged or not.

    ``increments`` are its level norms, ``residuals`` the relative residuals
    of the coupled equations (empty unless it converged) and ``abscissas``
    those of the mode matrices.  Each level applies the level map once more,
    so a run is a power iteration for its spectral radius, below one exactly
    when the series converges.  ``contraction`` is the observed rate: the
    geometric-mean level-norm ratio over an even number (a two-mode map has
    +-pairs of eigenvalues) of the last levels, about half of them; below
    two levels, or on vanishing ones, 0 if the run converged, else ``inf``.
    """

    increments: tuple[float, ...]
    residuals: tuple[float, ...] = ()
    abscissas: tuple[float, ...] = ()

    @property
    def levels(self) -> int:
        return len(self.increments)

    @property
    def converged(self) -> bool:
        return bool(self.residuals)

    @property
    def contraction(self) -> float:
        norms = self.increments
        steps = len(norms) - 1
        m = min(steps, max(2, steps // 4 * 2))  # even and about steps / 2 when it can be
        if m > 0 and norms[-1 - m] > 0.0:
            return (norms[-1] / norms[-1 - m]) ** (1.0 / m)
        return 0.0 if self.converged else math.inf  # fewer than two levels, or vanishing ones


@dataclass(frozen=True, eq=False)
class CoupledSolution:
    """Per-mode Gramians of one kind plus solver diagnostics."""

    kind: str
    matrices: tuple[np.ndarray, ...]
    diagnostics: SolveDiagnostics


# Eigenvalues of a Gramian in [-PSD_CLAMP * largest, 0) are treated as
# zero; anything more negative means the matrix is not a Gramian.
PSD_CLAMP = 1e-10


def _square_factor(X: np.ndarray, name: str) -> tuple[np.ndarray, bool]:
    """Square factor L with X = L L' of a symmetric PSD X, and whether it is the
    Cholesky factor: the one routine that factors a Gramian or a mean Gramian.
    Cholesky when X is definite, else the eigh square root with eigenvalues in
    [-PSD_CLAMP * largest, 0) taken as zero; a non-finite or asymmetric X, or a
    more negative eigenvalue, is refused with a BalancingError naming X by ``name``."""
    if not np.isfinite(X).all():
        raise BalancingError(f"{name} is not finite")
    # X is finite, so X - X' holds no NaN; the norm is needed only for asym > 0
    asym = np.abs(X - X.T).max(initial=0.0)
    if asym and not asym <= min(1e-12 * max(1.0, np.linalg.norm(X)), np.finfo(float).max):
        raise BalancingError(f"{name} is not symmetric")
    X = 0.5 * X + 0.5 * X.T  # halving first cannot overflow
    try:
        return np.linalg.cholesky(X), True
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(X)
    top = max(float(w[-1]), 0.0)
    if w[0] < -PSD_CLAMP * max(top, 1e-300):
        raise BalancingError(
            f"{name} is indefinite: eigenvalue {w[0]:.3e} below clamp "
            f"threshold {-PSD_CLAMP * top:.3e}"
        )
    return V * np.sqrt(np.clip(w, 0.0, None)), False


@dataclass(frozen=True, eq=False)
class _SolvedSide:
    """What the solve of one Gramian kind leaves for the certificates: the
    validated model solved (``source``), the kind's series model and each
    mode's coupling sum sym(sum_{j != i} K[j,i] X_j K[j,i]') on it.
    """

    source: LssModel
    model: LssModel
    coupled_sums: list[np.ndarray]


@dataclass(frozen=True, eq=False)
class GramianSet:
    """Reachability and observability Gramians for every mode.

    Immutable: it keeps read-only copies of the matrices (paired, square,
    finite, one size per mode), each Gramian's square factor on its first
    use, and per side what :func:`compute_gramians` solved and then what
    :mod:`lssbal.analysis` measured, by idempotent writes, so sharing a set
    between threads stays safe.
    """

    reach: tuple[np.ndarray, ...]
    obs: tuple[np.ndarray, ...]
    reach_diagnostics: SolveDiagnostics
    obs_diagnostics: SolveDiagnostics

    def __post_init__(self):
        for kind in ("reach", "obs"):
            object.__setattr__(self, kind, tuple(_as_matrix(X, kind) for X in getattr(self, kind)))
        for q, (P, Q) in enumerate(itertools.zip_longest(self.reach, self.obs), start=1):
            if P is None or Q is None:
                raise DimensionError(f"mode {q}: {len(self.reach)} reach Gramians "
                                     f"for {len(self.obs)} obs Gramians")
            if P.shape != Q.shape or P.shape[0] != P.shape[1]:
                raise DimensionError(f"mode {q}: Gramians must be square and of one size, "
                                     f"got reach {P.shape} and obs {Q.shape}")
            for name, X in (("P", P), ("Q", Q)):
                if not np.isfinite(X).all():
                    raise DimensionError(f"mode {q}: Gramian {name}[{q}] is not finite")
        object.__setattr__(self, "_measured", {})

    def _require_fit(self, model: LssModel) -> None:
        """Refuse a ``model`` whose mode count or state dimensions differ from the set's."""
        orders = tuple(len(P) for P in self.reach)
        for q, (order, n) in enumerate(itertools.zip_longest(orders, model.dims), start=1):
            if order != n:
                raise DimensionError(f"mode {q}: Gramian orders {orders} do not match "
                                     f"the state dimensions {model.dims}")

    def _factor(self, kind: str, q: int) -> tuple[np.ndarray, bool]:
        """The :func:`_square_factor` of Gramian ``q`` of ``kind``, made on first use."""
        name = f"{'P' if kind == 'reach' else 'Q'}[{q}]"
        if name not in self._measured:
            self._measured[name] = _square_factor(getattr(self, kind)[q - 1], name)
        return self._measured[name]


def _coupled_residuals(model: LssModel, mats: list[np.ndarray]
                       ) -> tuple[list[float], list[np.ndarray]]:
    """The relative residual of each mode's coupled equation, and its coupling sum."""
    forcing = _coupling_forcing(model.coupling, mats)
    out = []
    for mode, X, W in zip(model.modes, mats, forcing):
        BB = mode.B @ mode.B.T
        R = mode.A @ X + X @ mode.A.T + W + BB
        out.append(math.sqrt(np.vdot(R, R)) / max(1.0, math.sqrt(np.vdot(BB, BB))))
    return out, forcing


def solve_coupled(
    model: LssModel, kind: str = "reach", max_iter: int = DEFAULT_MAX_LEVELS
) -> CoupledSolution:
    """Solve the coupled Lyapunov system of one kind by series summation.

    Accumulates the level series until the increment drops below
    ``DEFAULT_TOL * max(1, ||partial sum||_F)`` and the defining equations
    hold with relative residual below ``DEFAULT_TOL``.  Raises
    :class:`ConvergenceError` (with the run's :class:`SolveDiagnostics`) when
    the series has not settled after ``max_iter`` levels or its norm
    overflows first.
    """
    max_iter = _integral(max_iter, "max_iter")
    if max_iter < 1:
        raise DimensionError(f"max_iter must be a positive integer, got {max_iter}")
    return _sum_series(_series(model, kind), max_iter)[0]


def _sum_series(series: _Series, max_iter: int = DEFAULT_MAX_LEVELS
                ) -> tuple[CoupledSolution, list[np.ndarray]]:
    """Sum ``series`` in Schur coordinates; transform back once it has settled.

    The Frobenius norms of the increment and the partial sum are those of
    original coordinates; the coupled residuals are checked there, and the
    coupling sums of that check are returned with the solution.  The
    sum stops at the first level whose norm is not finite, and before a
    level whose forcing bound ``gain`` times that norm is not, so no entry
    overflows on the way.
    """
    kind, side = series.kind, series.model
    abscissas = tuple(f.abscissa for f in series.factors)
    total = 0.0
    increment, increments = math.inf, []
    for _, level in zip(range(max_iter), series.levels()):
        total = total + level
        increment, size = _norm(level), _norm(total)
        if not math.isfinite(increment + size):
            break
        increments.append(increment)
        if increment < DEFAULT_TOL * max(1.0, size):
            mats = series.from_schur(total)
            residuals, sums = _coupled_residuals(side, mats)
            if all(r < DEFAULT_TOL for r in residuals):
                for X in (*mats, *sums):
                    X.flags.writeable = False
                diag = SolveDiagnostics(tuple(increments), tuple(residuals), abscissas)
                return CoupledSolution(kind=kind, matrices=tuple(mats), diagnostics=diag), sums
        if not math.isfinite(increment * series.gain):
            break

    diag = SolveDiagnostics(tuple(increments), abscissas=abscissas)
    where = (f"before its norm overflowed at level {len(increments) + 1}"
             if len(increments) < max_iter
             else f"within {max_iter} levels (last increment {increment:.3e})")
    raise ConvergenceError(f"coupled {kind} series did not converge {where}; observed contraction "
                           f"{diag.contraction:.4g} per level, couplings may be too strong",
                           diagnostics=diag)


def compute_gramians(model: LssModel) -> GramianSet:
    """Solve both coupled systems on one Schur factor per mode and bundle the results.

    The set keeps, per kind, the series model and the converged coupling
    sums of the solve as a :class:`_SolvedSide` for the certificates.
    """
    series = _reach_series(model)
    dual = series.dual
    (reach, reach_sums), (obs, obs_sums) = _sum_series(series), _sum_series(dual)
    gset = GramianSet(
        reach=reach.matrices,
        obs=obs.matrices,
        reach_diagnostics=reach.diagnostics,
        obs_diagnostics=obs.diagnostics,
    )
    for solved, sums in ((series, reach_sums), (dual, obs_sums)):
        gset._measured[solved.kind] = _SolvedSide(series.model, solved.model, sums)
    return gset


def check_existence(model: LssModel) -> SolveDiagnostics:
    """One default run of the reach series, as its record: the Gramians exist iff it converged."""
    series = _reach_series(model)
    try:
        return _sum_series(series)[0].diagnostics
    except StabilityError:
        return SolveDiagnostics((), abscissas=tuple(f.abscissa for f in series.factors))
    except ConvergenceError as exc:
        return exc.diagnostics
