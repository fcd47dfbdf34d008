"""Mode-wise square-root balancing, truncation and the output-error bound.

Each mode is balanced on its own by the square-root method: with square
factors P_q = Lp Lp' and Q_q = Lq Lq' and the singular value
decomposition Lq' Lp = Z diag(s_q) Y', the transform
S_q = diag(s_q)^{-1/2} Z' Lq' and its inverse Lp Y diag(s_q)^{-1/2}
make both Gramians of mode q equal to diag(s_q).  The balanced values
come out of the SVD directly, never squared, so small ones keep their
relative accuracy.  Truncation keeps the leading block of every
balanced matrix; the guaranteed L2 output-error bound is twice the sum,
over discarded "layers", of the largest discarded diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BalancingError, DimensionError
from .gramians import GramianSet
from .model import LssModel, ModeSystem, as_normalized

# Eigenvalues of a Gramian in [-PSD_CLAMP * largest, 0) are treated as
# zero; anything more negative means the matrix is not a Gramian.
PSD_CLAMP = 1e-10

# Consecutive balanced singular values closer than this are ties; the
# balancing basis is then not unique beyond column signs.
TIE_TOL = 1e-10


def square_factor(P: np.ndarray) -> np.ndarray:
    """Square factor L with P = L L' for a symmetric PSD matrix.

    Cholesky when P is definite; otherwise the symmetric eigenvalue
    square root, with eigenvalues in [-PSD_CLAMP * largest, 0) taken as
    zero.  Raises :class:`BalancingError` for an asymmetric matrix or an
    eigenvalue more negative than the clamp threshold allows.
    """
    P = np.asarray(P, dtype=float)
    if not np.allclose(P, P.T, rtol=0.0, atol=1e-12 * max(1.0, np.linalg.norm(P))):
        raise BalancingError("square_factor needs a symmetric matrix")
    P = 0.5 * (P + P.T)
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(P)
    top = max(float(w[-1]), 0.0)
    if w[0] < -PSD_CLAMP * max(top, 1e-300):
        raise BalancingError(
            f"matrix is indefinite: eigenvalue {w[0]:.3e} below clamp "
            f"threshold {-PSD_CLAMP * top:.3e}"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))


def _canonical_signs(V: np.ndarray) -> np.ndarray:
    """Column signs that make the largest-magnitude entry of each column positive."""
    rows = np.argmax(np.abs(V), axis=0)
    return np.where(V[rows, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class BalancedRealization:
    """A model in balanced coordinates with its per-mode transforms.

    ``sigma[q-1]`` holds the common diagonal of both balanced Gramians
    of mode q, sorted non-increasing.  ``transforms``/``inverses`` map
    original to balanced coordinates and back.
    """

    model: LssModel
    transforms: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]
    sigma: tuple[np.ndarray, ...]
    shared_transform: bool = False

    @property
    def dims(self) -> tuple[int, ...]:
        return self.model.dims

    def has_ties(self, tol: float = TIE_TOL) -> bool:
        """True when some mode has nearly equal singular values."""
        for s in self.sigma:
            if s.size > 1 and np.any(np.abs(np.diff(s)) <= tol * max(s[0], 1e-300)):
                return True
        return False


def _balance_pair(P: np.ndarray, Q: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    Lp = square_factor(P)
    Lq = square_factor(Q)
    try:
        Z, s, Yt = np.linalg.svd(Lq.T @ Lp)
    except np.linalg.LinAlgError as exc:
        raise BalancingError(f"{label}: singular value decomposition failed: {exc}") from exc
    if not s[-1] > s.size * np.finfo(float).eps * s[0]:
        raise BalancingError(
            f"{label}: Gramian pair is numerically singular (sigma_min "
            f"{s[-1]:.3e}, sigma_max {s[0]:.3e}); unreachable or unobservable "
            "state directions cannot be balanced"
        )
    signs = _canonical_signs(Yt.T)
    Y = Yt.T * signs
    Z = Z * signs
    scale = 1.0 / np.sqrt(s)
    S = scale[:, None] * (Z.T @ Lq.T)
    Sinv = (Lp @ Y) * scale
    for arr in (S, Sinv, s):
        arr.flags.writeable = False
    return S, Sinv, s


def _transform_model(model: LssModel, S: list[np.ndarray], Sinv: list[np.ndarray]) -> LssModel:
    new_modes = []
    for mode, Sq, Sq_inv in zip(model.modes, S, Sinv):
        new_modes.append(
            ModeSystem(A=Sq @ mode.A @ Sq_inv, B=Sq @ mode.B, C=mode.C @ Sq_inv)
        )
    D = model.num_modes
    new_couplings = {}
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if i != j:
                new_couplings[(i, j)] = S[j - 1] @ model.coupling(i, j) @ Sinv[i - 1]
    new_x0 = model.x0
    if new_x0 is not None:
        new_x0 = S[0] @ new_x0
    return LssModel(modes=tuple(new_modes), couplings=new_couplings, x0=new_x0)


def balance(model: LssModel, gramians: GramianSet) -> BalancedRealization:
    """Balance every mode against its own Gramian pair."""
    model = as_normalized(model)
    S_list, Sinv_list, sigma_list = [], [], []
    for q, (P, Q) in enumerate(zip(gramians.reach, gramians.obs), start=1):
        S, Sinv, s = _balance_pair(P, Q, f"mode {q}")
        S_list.append(S)
        Sinv_list.append(Sinv)
        sigma_list.append(s)
    balanced = _transform_model(model, S_list, Sinv_list)
    return BalancedRealization(
        model=balanced,
        transforms=tuple(S_list),
        inverses=tuple(Sinv_list),
        sigma=tuple(sigma_list),
    )


def balance_average(model: LssModel, gramians: GramianSet) -> BalancedRealization:
    """Balance the arithmetic-mean Gramians with one global transform.

    Baseline method; requires all modes to share one state dimension.
    The common transform diagonalizes the averaged Gramian pair, not the
    per-mode pairs.
    """
    model = as_normalized(model)
    dims = set(model.dims)
    if len(dims) != 1:
        raise DimensionError(
            f"average-Gramian balancing needs equal mode dimensions, got {model.dims}"
        )
    P_avg = sum(gramians.reach) / model.num_modes
    Q_avg = sum(gramians.obs) / model.num_modes
    S, Sinv, s = _balance_pair(P_avg, Q_avg, "averaged Gramians")
    D = model.num_modes
    balanced = _transform_model(model, [S] * D, [Sinv] * D)
    return BalancedRealization(
        model=balanced,
        transforms=tuple([S] * D),
        inverses=tuple([Sinv] * D),
        sigma=tuple([s.copy() for _ in range(D)]),
        shared_transform=True,
    )


@dataclass(frozen=True)
class ReductionPlan:
    """Per-mode target orders plus the derived error-bound ledger.

    ``depth`` is the largest number of discarded states over all modes;
    ``eta[l-1]`` is the largest singular value discarded at layer l
    (layer 1 strips the last remaining state of each not-yet-finished
    mode) and ``beta`` is their sum.  The guaranteed output-error bound
    is ``2 * beta``.
    """

    orders: tuple[int, ...]
    depth: int
    eta: tuple[float, ...]
    beta: float

    @classmethod
    def from_orders(cls, bal: BalancedRealization, orders) -> "ReductionPlan":
        orders = tuple(int(r) for r in orders)
        dims = bal.dims
        if len(orders) != len(dims):
            raise DimensionError(
                f"{len(orders)} orders given for {len(dims)} modes"
            )
        for q, (r, n) in enumerate(zip(orders, dims), start=1):
            if not 1 <= r <= n:
                raise DimensionError(
                    f"mode {q}: order {r} outside 1..{n}"
                )
        depth = max(n - r for r, n in zip(orders, dims))
        eta = []
        for layer in range(1, depth + 1):
            candidates = [
                bal.sigma[q][dims[q] - layer]
                for q in range(len(dims))
                if layer <= dims[q] - orders[q]
            ]
            eta.append(float(max(candidates)))
        return cls(orders=orders, depth=depth, eta=tuple(eta), beta=float(sum(eta)))

    @classmethod
    def from_threshold(cls, bal: BalancedRealization, threshold: float) -> "ReductionPlan":
        """Keep the values no smaller than ``threshold`` times the largest."""
        if not 0.0 < threshold <= 1.0:
            raise DimensionError(f"threshold must be in (0, 1], got {threshold}")
        orders = [int(np.sum(s >= threshold * s[0])) for s in bal.sigma]
        return cls.from_orders(bal, orders)


def error_bound(bal: BalancedRealization, plan: ReductionPlan) -> float:
    """Guaranteed L2 output-error bound 2*beta for dwell-respecting signals."""
    fresh = ReductionPlan.from_orders(bal, plan.orders)
    return 2.0 * fresh.beta


def truncate(bal: BalancedRealization, plan: ReductionPlan) -> LssModel:
    """Keep the leading balanced block of every mode and coupling."""
    dims = bal.dims
    if len(plan.orders) != len(dims):
        raise DimensionError("plan and realization have different mode counts")
    for q, (r, n) in enumerate(zip(plan.orders, dims), start=1):
        if not 1 <= r <= n:
            raise DimensionError(f"mode {q}: order {r} outside 1..{n}")
    model = bal.model
    new_modes = []
    for mode, r in zip(model.modes, plan.orders):
        new_modes.append(
            ModeSystem(A=mode.A[:r, :r], B=mode.B[:r, :], C=mode.C[:, :r])
        )
    D = model.num_modes
    new_couplings = {}
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if i != j:
                K = model.coupling(i, j)
                new_couplings[(i, j)] = K[: plan.orders[j - 1], : plan.orders[i - 1]]
    new_x0 = model.x0
    if new_x0 is not None:
        new_x0 = new_x0[: plan.orders[0]]
    return LssModel(modes=tuple(new_modes), couplings=new_couplings, x0=new_x0)


def truncated_sigma(bal: BalancedRealization, plan: ReductionPlan) -> tuple[np.ndarray, ...]:
    """Leading diagonal Gramian entries kept by a reduction plan."""
    return tuple(s[:r].copy() for s, r in zip(bal.sigma, plan.orders))
