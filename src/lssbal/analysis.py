"""Dwell-time and stability certificates, energy-bound verification.

The quadratic forms x' Q_q x (observability side) and x' P_q^{-1} x
(reachability side) act as mode-wise Lyapunov functions.  Couplings may
inflate them at switch instants; a minimal dwell time compensates the
inflation with in-mode decay.  All extremal constants are computed as
symmetric-definite generalized eigenvalues and shrunk by a small slack
factor to restore the strict inequalities they certify.  Each side is
measured once; every certificate and energy check derives from that.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .errors import AssumptionError, DimensionError, LssError, StabilityError
from .gramians import GramianSet
from .model import LssModel, SwitchingSignal, as_normalized, dual
from .simulation import Trajectory

DEFAULT_SLACK = 1e-6


def _check_pd(mat: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric part of ``mat`` and its ascending eigenvalues, all > 0."""
    mat = 0.5 * (mat + mat.T)
    w = np.linalg.eigvalsh(mat)
    if w[0] <= 0.0:
        raise AssumptionError(
            f"{label} is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return mat, w


def _gen_eig_extremes(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric pencil (A, B), B > 0."""
    w = scipy.linalg.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)
    return float(w[0]), float(w[-1])


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
    model: LssModel, jumps: list[np.ndarray], slack: float
) -> dict[tuple[int, int], float]:
    """Pair factors ``(1 - slack) / lambda_max(K[i,j]' J_j K[i,j], J_i)``.

    A vanishing coupling never inflates the energy, leaves its factor
    unconstrained and is left out.
    """
    factors: dict[tuple[int, int], float] = {}
    for i, j in itertools.permutations(range(1, model.num_modes + 1), 2):
        K = model.coupling(i, j)
        lam_max = _gen_eig_extremes(K.T @ jumps[j - 1] @ K, jumps[i - 1])[1]
        if lam_max > 0.0:
            factors[(i, j)] = (1.0 - slack) / lam_max
    return factors


@dataclass(frozen=True, eq=False)
class _Side:
    """One Gramian side, measured once: its model (the dual for reach),
    its Gramians checked positive definite with their ascending spectra,
    the matrices jumps are measured in (Q, or P^{-1}) and the pair factors.
    """

    name: str
    model: LssModel
    gramians: list[np.ndarray]
    spectra: list[np.ndarray]
    jumps: list[np.ndarray]
    pair_factors: dict[tuple[int, int], float]
    gamma: float


def _measure(model: LssModel, gramians: GramianSet, side: str, slack: float) -> _Side:
    """Measure the ``side`` Gramians; the one place that tells obs from reach."""
    if side not in ("obs", "reach"):
        raise DimensionError(f"side must be 'obs' or 'reach', got {side!r}")
    if side == "obs":
        model, label, mats = as_normalized(model), "Q", gramians.obs
    else:
        model, label, mats = dual(model), "P", gramians.reach  # dual normalizes first
    checked = [_check_pd(X, f"{label}[{q}]") for q, X in enumerate(mats, start=1)]
    grams = [X for X, _ in checked]
    jumps = grams if side == "obs" else [0.5 * (Y + Y.T) for Y in map(np.linalg.inv, grams)]
    factors = _jump_factors(model, jumps, slack)
    return _Side(side, model, grams, [w for _, w in checked], jumps, factors,
                 gamma=min(factors.values(), default=float("inf")))


def dwell_time(
    model: LssModel,
    gramians: GramianSet,
    side: str = "obs",
    slack: float = DEFAULT_SLACK,
) -> DwellTimeCertificate:
    """Certify a minimal dwell time from one family of Gramians.

    Observability side: per mode i the coupling sum
    ``sum_{j != i} K[i,j]' Q_j K[i,j]`` must be positive definite; the
    extremal rate M_i and pair factors gamma_{i,j} follow from
    generalized eigenproblems against Q_i.  The reachability side is the
    same pattern on the dual model with the Gramians P, except that the
    jumps are measured in the inverse Gramians P^{-1}.
    """
    return _dwell(_measure(model, gramians, side, slack), slack)


def _dwell(side: _Side, slack: float) -> DwellTimeCertificate:
    """The dwell-time certificate of one measured side."""
    model, mats = side.model, side.gramians
    mode_rates: list[float] = []
    for i, X in enumerate(mats, start=1):
        coupled = np.zeros_like(X)
        for j in range(1, len(mats) + 1):
            if j != i:
                K = model.coupling(i, j)
                coupled += K.T @ mats[j - 1] @ K
        min_eig = np.linalg.eigvalsh(0.5 * (coupled + coupled.T))[0]
        if min_eig <= 0.0:
            raise AssumptionError(
                f"coupling sum of mode {i} is not positive definite on side "
                f"{side.name!r} (min eigenvalue {min_eig:.3e}); dwell-time "
                "assumption fails"
            )
        mode_rates.append(_gen_eig_extremes(coupled, X)[0])

    M = float(min(mode_rates))
    gamma = side.gamma
    mu = max(0.0, -np.log(gamma) / M) if gamma < 1.0 else 0.0
    return DwellTimeCertificate(
        side=side.name,
        M=M,
        gamma=gamma,
        mu=float(mu),
        mode_rates=tuple(mode_rates),
        pair_factors=side.pair_factors,
        slack=slack,
    )


@dataclass(frozen=True)
class RelaxedGramianReport:
    """Margins of the rate-slack Lyapunov inequalities per mode."""

    rate: float
    reach_margins: tuple[float, ...]
    obs_margins: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _relaxed_margins(model: LssModel, rate: float, candidates, side: str):
    """Margins of ``A P + P A' + rate * P + B B' < 0`` per mode, and whether all hold."""
    if candidates is None:
        return [], True
    margins: list[float] = []
    ok = True
    for q, (mode, P) in enumerate(zip(model.modes, candidates), start=1):
        P, _ = _check_pd(np.asarray(P, dtype=float), f"{side} candidate {q}")
        lhs = mode.A @ P + P @ mode.A.T + rate * P + mode.B @ mode.B.T
        margin = float(np.linalg.eigvalsh(0.5 * (lhs + lhs.T))[-1])
        scale = (
            np.linalg.norm(mode.A @ P + P @ mode.A.T, "fro")
            + rate * np.linalg.norm(P, "fro")
            + np.linalg.norm(mode.B @ mode.B.T, "fro")
        )
        margins.append(margin)
        ok = ok and margin < -1e-12 * scale
    return margins, ok


def verify_relaxed_gramians(
    model: LssModel,
    rate: float,
    reach=None,
    obs=None,
) -> RelaxedGramianReport:
    """Check candidate matrices against the relaxed Gramian inequalities.

    A reachability candidate P_i passes when
    ``A_i P_i + P_i A_i' + rate * P_i + B_i B_i'`` is negative definite
    (margin = its largest eigenvalue); observability candidates are
    reachability candidates of the dual model, i.e. the transposed
    pattern with C'C.  Diagnostics only, never raises on a failed margin.
    """
    if rate <= 0.0:
        raise DimensionError(f"rate must be positive, got {rate}")
    model = as_normalized(model)
    reach_margins, reach_ok = _relaxed_margins(model, rate, reach, "reach")
    obs_margins, obs_ok = _relaxed_margins(dual(model), rate, obs, "obs")
    return RelaxedGramianReport(
        rate=rate,
        reach_margins=tuple(reach_margins),
        obs_margins=tuple(obs_margins),
        passed=bool(reach_ok and obs_ok),
    )


@dataclass(frozen=True, eq=False)
class EnergyBoundReport:
    """Checked energy inequalities along one simulated trajectory."""

    side: str
    mu: float
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "mu": self.mu,
            "checked": int(self.times.shape[0]),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _cumtrapz(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if values.shape[0] > 1:
        steps = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        out[1:] = np.cumsum(steps)
    return out


def verify_energy_bounds(
    model: LssModel,
    gramians: GramianSet,
    traj: Trajectory,
    signal: SwitchingSignal,
    side: str = "obs",
    slack: float = DEFAULT_SLACK,
) -> EnergyBoundReport:
    """Check the observation or control energy inequality on a trajectory.

    Observability side (zero input required): the initial energy
    x(0)' Q_{q1} x(0) must dominate the integrated output energy at
    every grid time.  Reachability side (zero initial state required):
    at each event end T the stored pre-jump state must satisfy
    x(T)' P_q^{-1} x(T) <= integrated input energy up to T.  The signal
    must respect the side's certified dwell time.
    """
    measured = _measure(model, gramians, side, slack)
    cert = _dwell(measured, slack)
    if signal.min_dwell < cert.mu - 1e-9:
        raise AssumptionError(
            f"signal dwell {signal.min_dwell:.4g} violates the certified "
            f"minimal dwell time {cert.mu:.4g} on side {side!r}"
        )

    if side == "obs":
        if np.any(traj.inputs != 0.0):
            raise AssumptionError("observability energy bound needs zero input")
        x0 = traj.states[0]
        q1 = int(traj.modes[0])
        lhs_val = float(x0 @ gramians.obs[q1 - 1] @ x0)
        times = traj.times
        rhs = _cumtrapz(np.sum(traj.outputs ** 2, axis=1), times)
        lhs = np.full_like(rhs, lhs_val)
        tol = 1e-8 * max(abs(lhs_val), float(rhs[-1]), 1.0)
        passed = bool(np.all(lhs + tol >= rhs))
    else:
        if np.any(traj.states[0] != 0.0):
            raise AssumptionError("reachability energy bound needs zero initial state")
        cum_in = _cumtrapz(np.sum(traj.inputs ** 2, axis=1), traj.times)
        idx = [jump.index for jump in traj.jumps] + [traj.times.shape[0] - 1]
        times, rhs = traj.times[idx], cum_in[idx]
        lhs = np.array([
            float(traj.states[k] @ measured.jumps[int(traj.modes[k]) - 1] @ traj.states[k])
            for k in idx
        ])
        tol = 1e-8 * max(float(np.max(lhs, initial=0.0)), float(np.max(rhs, initial=0.0)), 1.0)
        passed = bool(np.all(lhs <= rhs + tol))
    return EnergyBoundReport(
        side=side, mu=cert.mu, times=times, lhs=lhs, rhs=rhs,
        tolerance=tol, passed=passed,
    )


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


def stability_certificate(
    model: LssModel,
    gramians: GramianSet,
    slack: float = DEFAULT_SLACK,
) -> StabilityCertificate:
    """Certify uniform exponential stability with a minimal dwell time.

    Per mode the largest rate with ``A' Q + Q A + rate * Q < 0`` is a
    generalized eigenvalue; the jump factor gamma comes from the pair
    inequalities ``gamma * K' Q K < Q``.  The certificate is assembled
    through the single-rate corollary, which halves the in-mode rate
    and doubles the dwell time relative to the two-rate formulation.
    """
    return _stability(_measure(model, gramians, "obs", slack), slack)


def _stability(obs: _Side, slack: float) -> StabilityCertificate:
    """The stability certificate of the measured obs side."""
    Q = obs.gramians
    mode_rates = []
    for q, mode in enumerate(obs.model.modes, start=1):
        lam_max = _gen_eig_extremes(mode.A.T @ Q[q - 1] + Q[q - 1] @ mode.A, Q[q - 1])[1]
        rate = -lam_max
        if rate <= 0.0:
            raise StabilityError(
                f"mode {q} admits no decay rate for its certifying matrix "
                f"(largest generalized eigenvalue {lam_max:.3e} >= 0)"
            )
        mode_rates.append(rate)
    quadratic_rate = (1.0 - slack) * min(mode_rates) / 2.0
    mu = -np.log(obs.gamma) / quadratic_rate if obs.gamma < 1.0 else 0.0
    eps = 1.0 / np.sqrt(max(float(w[-1]) for w in obs.spectra))
    phi = 1.0 / np.sqrt(min(float(w[0]) for w in obs.spectra))
    norm_rate = quadratic_rate / 2.0
    envelope = (phi ** 2 / eps ** 2) * np.exp(norm_rate * mu)
    return StabilityCertificate(
        M=float(norm_rate),
        mu=float(mu),
        K=float(envelope),
        gamma=obs.gamma,
        quadratic_rate=float(quadratic_rate),
        eps=float(eps),
        phi=float(phi),
        mode_rates=tuple(float(r) for r in mode_rates),
        route="single-rate-doubled-dwell",
        slack=slack,
    )


def _attempt(derive, arg, *rest):
    """``derive(arg, *rest)`` or the LssError that refused it; passes a refusal on."""
    if isinstance(arg, LssError):
        return arg
    try:
        return derive(arg, *rest)
    except LssError as exc:
        return exc


def certificates(
    model: LssModel,
    gramians: GramianSet,
    slack: float = DEFAULT_SLACK,
) -> dict[str, DwellTimeCertificate | StabilityCertificate | LssError]:
    """``dwell_obs``, ``dwell_reach`` and ``stability``, one measurement per side.

    Each entry is what :func:`dwell_time` or :func:`stability_certificate`
    returns, or the :class:`LssError` it raises.
    """
    obs = _attempt(_measure, model, gramians, "obs", slack)
    reach = _attempt(_measure, model, gramians, "reach", slack)
    return {
        "dwell_obs": _attempt(_dwell, obs, slack),
        "dwell_reach": _attempt(_dwell, reach, slack),
        "stability": _attempt(_stability, obs, slack),
    }
