"""Dwell-time and stability certificates.

Each side is measured on the series model of its Gramian kind, as in
:mod:`lssbal.gramians`: the model itself for the reachability Gramians
P_q and its dual for the observability Gramians Q_q, so both sides share
the coupling pattern sum_{j != i} K[j,i] X_j K[j,i]'.  The quadratic
forms x' Q_q x (observability side) and x' P_q^{-1} x (reachability
side) act as mode-wise Lyapunov functions.  Couplings may inflate them
at switch instants; a minimal dwell time compensates the inflation with
in-mode decay.  All extremal constants are symmetric-definite
generalized eigenvalues, shrunk by the fixed factor 1 - SLACK to restore
the strict inequalities they certify; every certificate records SLACK.
Each side is measured once per :class:`~lssbal.gramians.GramianSet` and
model: the inverse of each Gramian's Cholesky factor (the set's own, by
:func:`lssbal.gramians._square_factor`, shared with balancing) turns every
pencil into one symmetric matrix, of which only the needed extreme
eigenvalue is computed.  The set keeps the side.  On a set that
:func:`~lssbal.gramians.compute_gramians` solved for this very model
object, a side starts from the solve's series model (the dual is built
once, for the obs series) and the dwell rates from the coupling sums of
its residual check; a set built by hand, or used with another model
object, builds both afresh, to equal results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from ._lapack import dsyevr, dtrtri

from .errors import AssumptionError, LssError, StabilityError
from .gramians import GramianSet, _coupling_forcing, _series_model, _SolvedSide
from .model import LssModel, _switches, validated

SLACK = 1e-6

# A mode's largest decay eigenvalue counts as negative only below
# -RATE_ROUNDING * eps * ||W H W'||_F; closer to zero rounding decides.
RATE_ROUNDING = 100.0


def _check_pd(mat: np.ndarray, label: str) -> np.ndarray:
    """Ascending eigenvalues of the symmetric ``mat``, all > 0."""
    w = np.linalg.eigvalsh(mat)
    if w[0] <= 0.0:
        raise AssumptionError(
            f"{label} is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return w


def _eig(H: np.ndarray, index: int) -> float:
    """Eigenvalue ``index`` (ascending; -1 is the largest) of the symmetric part of H."""
    k = index % len(H) + 1  # LAPACK counts from 1
    w, _, _, _, info = dsyevr(0.5 * (H + H.T), compute_v=0, range="I", il=k, iu=k, lower=1)
    if info != 0 or not np.isfinite(w[0]):
        raise LssError(f"eigenvalue {k} of a symmetric matrix not found (dsyevr info {info})")
    return float(w[0])


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular matrix with a nonzero diagonal."""
    W, info = dtrtri(L, lower=1)
    if info != 0:
        raise LssError(f"triangular inverse failed (dtrtri info {info})")
    return W


@dataclass(frozen=True)
class DwellTimeCertificate:
    """Minimal dwell time making the side's energy argument telescope.

    ``M`` is the in-mode decay rate, ``gamma`` in (0, 1) bounds the
    jump inflation, ``mu = -ln(gamma) / M`` (zero when jumps are already
    contractive).  ``mode_rates`` and ``pair_factors`` record the
    per-mode and per-ordered-pair extremal constants.
    """

    side: str
    M: float
    gamma: float
    mu: float
    mode_rates: tuple[float, ...]
    pair_factors: dict[tuple[int, int], float]
    slack: float

    @property
    def assumption(self) -> str:
        return "observability-side" if self.side == "obs" else "reachability-side"

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "assumption": self.assumption,
            "pair_factors": {f"{i},{j}": g for (i, j), g in self.pair_factors.items()},
        }


def _jump_factors(
    model: LssModel, left: list[np.ndarray], right: list[np.ndarray]
) -> dict[tuple[int, int], float]:
    """Pair factors ``(1 - SLACK) / lambda_max(K[j,i] J_j K[j,i]', J_i)``.

    ``model`` is the side's series model and J_q = R_q R_q' with
    ``right[q-1]`` = R_q and ``left[q-1]`` = R_q^{-1}, so lambda_max is
    the largest eigenvalue of G G' for G = R_i^{-1} K[j,i] R_j.  On the
    original model the obs pair (i, j) measures K[i,j]' Q_j K[i,j] and
    the reach pair (i, j) measures K[j,i] P_j^{-1} K[j,i]'.  A vanishing
    coupling never inflates the energy, leaves its factor unconstrained
    and is left out.
    """
    factors: dict[tuple[int, int], float] = {}
    for i, j in _switches(model):
        G = left[i - 1] @ model.coupling(j, i) @ right[j - 1]
        lam_max = _eig(G @ G.T, -1)
        if lam_max > 0.0:
            factors[(i, j)] = (1.0 - SLACK) / lam_max
    return factors


@dataclass(frozen=True, eq=False)
class _Side(_SolvedSide):
    """A Gramian side measured on the validated model ``source``: its
    series model and coupling sums as solved, the ascending spectra of its
    Gramians X (checked positive definite), the inverse Cholesky factors W
    (X^{-1} = W'W), the pair factors and gamma.
    """

    spectra: list[np.ndarray]
    whiteners: list[np.ndarray]
    pair_factors: dict[tuple[int, int], float]
    gamma: float


def _measure(model: LssModel, gramians: GramianSet, side: str) -> _Side:
    """Measure the ``side`` Gramians of a validated model on its series model.

    ``gramians`` keeps the side for this very ``model``, starting from what
    its solve left there; without that, the series model and the coupling
    sums are made here.
    """
    memo = gramians._measured.get(side)
    solved = isinstance(memo, _SolvedSide) and memo.source is model
    if isinstance(memo, _Side) and solved:
        return memo
    series = memo.model if solved else _series_model(model, side, "side")
    gramians._require_fit(model)
    obs = side == "obs"
    label, grams = ("Q", gramians.obs) if obs else ("P", gramians.reach)
    sums = memo.coupled_sums if solved else _coupling_forcing(series.coupling, grams)
    spectra = [_check_pd(X, f"{label}[{q}]") for q, X in enumerate(grams, start=1)]
    chols = []
    for q, w in enumerate(spectra, start=1):
        L, cholesky = gramians._factor(side, q)
        if not cholesky:
            raise AssumptionError(f"{label}[{q}] is not numerically positive definite: its Cholesky"
                                  f" factorization fails (min eigenvalue {w[0]:.3e})")
        chols.append(L)
    whiteners = [_lower_inverse(L) for L in chols]
    # jumps are measured in Q = L L' (obs) or in P^{-1} = W'W (reach)
    left, right = (whiteners, chols) if obs else ([L.T for L in chols], [W.T for W in whiteners])
    factors = _jump_factors(series, left, right)
    memo = _Side(model, series, sums, spectra, whiteners, factors,
                 min(factors.values(), default=float("inf")))
    gramians._measured[side] = memo
    return memo


def dwell_time(model: LssModel, gramians: GramianSet, side: str = "obs") -> DwellTimeCertificate:
    """Certify a minimal dwell time from one family of Gramians.

    Both sides run on their series model (the dual for ``"obs"``, the
    model itself for ``"reach"``) with its Gramians X: per mode i the
    coupling sum ``sum_{j != i} K[j,i] X_j K[j,i]'`` must be positive
    definite, and the extremal rate M_i follows from a generalized
    eigenproblem against X_i.  The pair factors gamma_{i,j} measure the
    jumps in Q on the obs side and in P^{-1} on the reach side.  Another
    side is refused with a DimensionError.
    """
    measured = _measure(validated(model), gramians, side)
    mode_rates: list[float] = []
    for i, (W, coupled) in enumerate(zip(measured.whiteners, measured.coupled_sums), start=1):
        rate = _eig(W @ coupled @ W.T, 0)  # > 0 iff S is definite (Sylvester's inertia)
        if rate <= 0.0:
            raise AssumptionError(
                f"coupling sum of mode {i} is not positive definite on side "
                f"{side!r} (min eigenvalue {np.linalg.eigvalsh(coupled)[0]:.3e}); "
                "dwell-time assumption fails"
            )
        mode_rates.append(rate)

    M = float(min(mode_rates))
    gamma = measured.gamma
    mu = max(0.0, -np.log(gamma) / M) if gamma < 1.0 else 0.0
    return DwellTimeCertificate(side=side, M=M, gamma=gamma, mu=float(mu),
                                mode_rates=tuple(mode_rates),
                                pair_factors=dict(measured.pair_factors), slack=SLACK)


@dataclass(frozen=True)
class StabilityCertificate:
    """Uniform exponential decay envelope under dwell-constrained switching.

    Guarantees ``||x(t)|| <= K * exp(-M t) * ||x(0)||`` for zero-input
    trajectories whose dwells are at least ``mu``.  ``M`` is the norm
    decay rate (half the certified quadratic rate); ``K`` combines the
    extreme eigenvalues of the certifying matrices with the dwell-time
    inflation.
    """

    M: float
    mu: float
    K: float
    gamma: float
    quadratic_rate: float
    eps: float
    phi: float
    mode_rates: tuple[float, ...]
    route: str
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


def stability_certificate(model: LssModel, gramians: GramianSet) -> StabilityCertificate:
    """Certify uniform exponential stability with a minimal dwell time.

    Per mode the largest rate with ``A' Q + Q A + rate * Q < 0`` is a
    generalized eigenvalue; the jump factor gamma comes from the pair
    inequalities ``gamma * K' Q K < Q``.  The certificate is assembled
    through the single-rate corollary, which halves the in-mode rate
    and doubles the dwell time relative to the two-rate formulation.
    """
    obs = _measure(validated(model), gramians, "obs")
    Q = gramians.obs
    mode_rates = []
    # the dual's mode matrices are the transposes A'
    for q, (mode, W) in enumerate(zip(obs.model.modes, obs.whiteners), start=1):
        H = W @ (mode.A @ Q[q - 1] + Q[q - 1] @ mode.A.T) @ W.T
        lam_max = _eig(H, -1)
        threshold = -RATE_ROUNDING * np.finfo(float).eps * np.sqrt(np.vdot(H, H))
        if lam_max >= threshold:
            raise StabilityError(
                f"mode {q} admits no decay rate for its certifying matrix "
                f"(largest generalized eigenvalue {lam_max:.3e} is not below "
                f"the rounding threshold {threshold:.3e})"
            )
        mode_rates.append(-lam_max)
    quadratic_rate = (1.0 - SLACK) * min(mode_rates) / 2.0
    mu = -np.log(obs.gamma) / quadratic_rate if obs.gamma < 1.0 else 0.0
    eps = 1.0 / np.sqrt(max(float(w[-1]) for w in obs.spectra))
    phi = 1.0 / np.sqrt(min(float(w[0]) for w in obs.spectra))
    norm_rate = quadratic_rate / 2.0
    envelope = (phi ** 2 / eps ** 2) * np.exp(norm_rate * mu)
    return StabilityCertificate(
        M=float(norm_rate), mu=float(mu), K=float(envelope), gamma=obs.gamma,
        quadratic_rate=float(quadratic_rate), eps=float(eps), phi=float(phi),
        mode_rates=tuple(float(r) for r in mode_rates),
        route="single-rate-doubled-dwell", slack=SLACK,
    )


def _attempt(derive, *args):
    """``derive(*args)``, or the LssError that refused it."""
    try:
        return derive(*args)
    except LssError as exc:
        return exc


def certificates(
    model: LssModel, gramians: GramianSet
) -> dict[str, DwellTimeCertificate | StabilityCertificate | LssError]:
    """``dwell_obs``, ``dwell_reach`` and ``stability``.

    Each entry is what :func:`dwell_time` or :func:`stability_certificate`
    returns, or the :class:`LssError` it raises; the stability
    certificate reads the obs side that ``dwell_obs`` measured.
    """
    gramians._require_fit(validated(model))
    return {
        "dwell_obs": _attempt(dwell_time, model, gramians, "obs"),
        "dwell_reach": _attempt(dwell_time, model, gramians, "reach"),
        "stability": _attempt(stability_certificate, model, gramians),
    }
