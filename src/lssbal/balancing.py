"""Mode-wise square-root balancing, truncation and the output-error bound.

Each mode is balanced on its own by the square-root method: with square
factors P_q = Lp Lp' and Q_q = Lq Lq' and the singular value
decomposition Lq' Lp = Z diag(s_q) Y', the transform
S_q = diag(s_q)^{-1/2} Z' Lq' and its inverse Lp Y diag(s_q)^{-1/2}
make both Gramians of mode q equal to diag(s_q).  The balanced values
come out of the SVD directly, never squared, so small ones keep their
relative accuracy.  Lp and Lq are the set's own factors, made once by
:func:`lssbal.gramians._square_factor` and shared with the certificates;
the mean Gramians of :func:`balance_average` are factored by it too.
Truncation changes coordinates once, with the leading r_q rows of S_q
and columns of its inverse, so it forms just the kept block of every
balanced matrix; the guaranteed L2 output-error bound is twice the sum,
over discarded "layers", of the largest discarded diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BalancingError, DimensionError
from .gramians import GramianSet, _square_factor
from .model import LssModel, _congruence, _integral, _real, validated

def _canonical_signs(V: np.ndarray) -> np.ndarray:
    """Column signs that make the largest-magnitude entry of each column positive."""
    rows = np.argmax(np.abs(V), axis=0)
    return np.where(V[rows, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class BalancedRealization:
    """The per-mode balancing transforms of ``source``, the validated model.

    ``sigma[q-1]`` holds the common diagonal of both balanced Gramians
    of mode q, sorted non-increasing.  ``transforms``/``inverses`` map
    original to balanced coordinates and back.  No balanced model is
    formed here; :func:`truncate` forms the kept block of one.
    """

    source: LssModel
    transforms: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]
    sigma: tuple[np.ndarray, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.sigma)


def _balance_pair(Lp: np.ndarray, Lq: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balance the pair P = Lp Lp', Q = Lq Lq' from its square factors."""
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


def balance(model: LssModel, gramians: GramianSet) -> BalancedRealization:
    """Balance every mode against its own Gramian pair."""
    validated(model)
    gramians._require_fit(model)
    transforms, inverses, sigma = zip(*(
        _balance_pair(gramians._factor("reach", q)[0], gramians._factor("obs", q)[0], f"mode {q}")
        for q in range(1, model.num_modes + 1)))
    return BalancedRealization(source=model, transforms=transforms, inverses=inverses, sigma=sigma)


def balance_average(model: LssModel, gramians: GramianSet) -> BalancedRealization:
    """Balance the arithmetic-mean Gramians with one global transform.

    Baseline method; requires all modes to share one state dimension.
    The common transform diagonalizes the averaged Gramian pair, not the
    per-mode pairs.
    """
    validated(model)
    gramians._require_fit(model)
    if len(set(model.dims)) != 1:
        raise DimensionError(
            f"average-Gramian balancing needs equal mode dimensions, got {model.dims}"
        )
    P_avg = sum(gramians.reach) / model.num_modes
    Q_avg = sum(gramians.obs) / model.num_modes
    S, Sinv, s = _balance_pair(_square_factor(P_avg, "averaged P")[0],
                               _square_factor(Q_avg, "averaged Q")[0], "averaged Gramians")
    D = model.num_modes
    return BalancedRealization(
        source=model,
        transforms=(S,) * D,
        inverses=(Sinv,) * D,
        sigma=tuple(s.copy() for _ in range(D)),
    )


@dataclass(frozen=True)
class ReductionPlan:
    """Per-mode target orders plus the error-bound ledger they give.

    ``eta[l-1]`` is the largest singular value discarded at layer l
    (layer 1 strips the last remaining state of each not-yet-finished
    mode).  Their number is the largest number of discarded states over
    all modes and ``beta`` is their sum.  The guaranteed
    output-error bound is ``2 * beta``.
    """

    orders: tuple[int, ...]
    eta: tuple[float, ...]

    @property
    def beta(self) -> float:
        return float(sum(self.eta))

    @classmethod
    def from_orders(cls, bal: BalancedRealization, orders) -> "ReductionPlan":
        orders = tuple(_integral(r, f"mode {q}: order") for q, r in enumerate(orders, start=1))
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
        return cls(orders=orders, eta=tuple(eta))

    @classmethod
    def from_threshold(cls, bal: BalancedRealization, threshold: float) -> "ReductionPlan":
        """Keep the values no smaller than ``threshold`` times the largest."""
        threshold = _real(threshold, "threshold")
        if not 0.0 < threshold <= 1.0:
            raise DimensionError(f"threshold must be in (0, 1], got {threshold}")
        orders = [int(np.sum(s >= threshold * s[0])) for s in bal.sigma]
        return cls.from_orders(bal, orders)


def error_bound(bal: BalancedRealization, plan: ReductionPlan) -> float:
    """Guaranteed L2 output-error bound 2*beta for dwell-respecting signals."""
    return 2.0 * ReductionPlan.from_orders(bal, plan.orders).beta


def truncate(bal: BalancedRealization, plan: ReductionPlan) -> LssModel:
    """Keep the leading balanced block of every mode and coupling.

    With L_q = S_q[:r_q] and R_q = S_q^{-1}[:, :r_q], the kept block is
    A_q -> L_q A_q R_q, B_q -> L_q B_q, C_q -> C_q R_q, K[i,j] -> L_j K[i,j] R_i
    for every ordered pair and x0 -> L_1 x0: the leading block of the
    balanced model, formed without the discarded rows and columns.
    """
    orders = ReductionPlan.from_orders(bal, plan.orders).orders
    x0 = bal.source.x0
    return _congruence(bal.source, [S[:r] for S, r in zip(bal.transforms, orders)],
                       [Sinv[:, :r] for Sinv, r in zip(bal.inverses, orders)],
                       None if x0 is None else bal.transforms[0][: orders[0]] @ x0)
