"""Dwell-time and stability certificates, energy-bound verification.

The quadratic forms x' Q_q x (observability side) and x' P_q^{-1} x
(reachability side) act as mode-wise Lyapunov functions.  Couplings may
inflate them at switch instants; a minimal dwell time compensates the
inflation with in-mode decay.  All extremal constants are computed as
symmetric-definite generalized eigenvalues and shrunk by a small slack
factor to restore the strict inequalities they certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AssumptionError, DimensionError, StabilityError
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
            "side": self.side,
            "assumption": self.assumption,
            "M": self.M,
            "gamma": self.gamma,
            "mu": self.mu,
            "mode_rates": list(self.mode_rates),
            "pair_factors": {f"{i},{j}": g for (i, j), g in self.pair_factors.items()},
            "slack": self.slack,
        }


def _jump_factors(
    model: LssModel, jumps: list[np.ndarray], slack: float
) -> dict[tuple[int, int], float]:
    """Pair factors ``(1 - slack) / lambda_max(K[i,j]' J_j K[i,j], J_i)``.

    A vanishing coupling never inflates the energy, leaves its factor
    unconstrained and is left out.
    """
    D = model.num_modes
    factors: dict[tuple[int, int], float] = {}
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if j == i:
                continue
            K = model.coupling(i, j)
            lam_max = _gen_eig_extremes(K.T @ jumps[j - 1] @ K, jumps[i - 1])[1]
            if lam_max > 0.0:
                factors[(i, j)] = (1.0 - slack) / lam_max
    return factors


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
    return _dwell_certificate(model, gramians, side, slack)[0]


def _dwell_certificate(
    model: LssModel, gramians: GramianSet, side: str, slack: float
) -> tuple[DwellTimeCertificate, list[np.ndarray]]:
    """:func:`dwell_time` plus the matrices it measured jumps in (Q, or P^{-1})."""
    if side not in ("obs", "reach"):
        raise DimensionError(f"side must be 'obs' or 'reach', got {side!r}")
    model = as_normalized(model)
    if side == "obs":
        mats = [_check_pd(X, f"Q[{q}]")[0] for q, X in enumerate(gramians.obs, start=1)]
        jumps = mats
    else:
        model = dual(model)
        mats = [_check_pd(X, f"P[{q}]")[0] for q, X in enumerate(gramians.reach, start=1)]
        jumps = [np.linalg.inv(X) for X in mats]
        jumps = [0.5 * (X + X.T) for X in jumps]

    D = model.num_modes
    pair_factors = _jump_factors(model, jumps, slack)
    mode_rates: list[float] = []
    for i in range(1, D + 1):
        n = model.mode(i).n
        coupled = np.zeros((n, n))
        for j in range(1, D + 1):
            if j != i:
                K = model.coupling(i, j)
                coupled += K.T @ mats[j - 1] @ K
        min_eig = np.linalg.eigvalsh(0.5 * (coupled + coupled.T))[0]
        if min_eig <= 0.0:
            raise AssumptionError(
                f"coupling sum of mode {i} is not positive definite on side "
                f"{side!r} (min eigenvalue {min_eig:.3e}); dwell-time "
                "assumption fails"
            )
        mode_rates.append(_gen_eig_extremes(coupled, mats[i - 1])[0])

    M = float(min(mode_rates))
    gamma = float(min(pair_factors.values())) if pair_factors else float("inf")
    mu = max(0.0, -np.log(gamma) / M) if gamma < 1.0 else 0.0
    cert = DwellTimeCertificate(
        side=side,
        M=M,
        gamma=gamma,
        mu=float(mu),
        mode_rates=tuple(mode_rates),
        pair_factors=pair_factors,
        slack=slack,
    )
    return cert, jumps


@dataclass(frozen=True)
class RelaxedGramianReport:
    """Margins of the rate-slack Lyapunov inequalities per mode."""

    rate: float
    reach_margins: tuple[float, ...]
    obs_margins: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "reach_margins": list(self.reach_margins),
            "obs_margins": list(self.obs_margins),
            "passed": self.passed,
        }


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


@dataclass(frozen=True)
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
    if side not in ("obs", "reach"):
        raise DimensionError(f"side must be 'obs' or 'reach', got {side!r}")
    model = as_normalized(model)
    cert, jumps = _dwell_certificate(model, gramians, side, slack)
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
        out_energy = np.sum(traj.outputs ** 2, axis=1)
        rhs = _cumtrapz(out_energy, traj.times)
        lhs = np.full_like(rhs, lhs_val)
        tol = 1e-8 * max(abs(lhs_val), float(rhs[-1]), 1.0)
        passed = bool(np.all(lhs + tol >= rhs))
        return EnergyBoundReport(
            side=side, mu=cert.mu, times=traj.times, lhs=lhs, rhs=rhs,
            tolerance=tol, passed=passed,
        )

    x0 = traj.states[0]
    if np.any(x0 != 0.0):
        raise AssumptionError("reachability energy bound needs zero initial state")
    in_energy = np.sum(traj.inputs ** 2, axis=1)
    cum_in = _cumtrapz(in_energy, traj.times)
    check_idx = [jump.index for jump in traj.jumps] + [traj.times.shape[0] - 1]
    times, lhs_list, rhs_list = [], [], []
    for idx in check_idx:
        q = int(traj.modes[idx])
        x = traj.states[idx]
        times.append(float(traj.times[idx]))
        lhs_list.append(float(x @ jumps[q - 1] @ x))
        rhs_list.append(float(cum_in[idx]))
    lhs = np.asarray(lhs_list)
    rhs = np.asarray(rhs_list)
    tol = 1e-8 * max(float(np.max(lhs, initial=0.0)), float(np.max(rhs, initial=0.0)), 1.0)
    passed = bool(np.all(lhs <= rhs + tol))
    return EnergyBoundReport(
        side=side, mu=cert.mu, times=np.asarray(times), lhs=lhs, rhs=rhs,
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
        return {
            "M": self.M,
            "mu": self.mu,
            "K": self.K,
            "gamma": self.gamma,
            "quadratic_rate": self.quadratic_rate,
            "eps": self.eps,
            "phi": self.phi,
            "mode_rates": list(self.mode_rates),
            "route": self.route,
            "slack": self.slack,
        }


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
    model = as_normalized(model)
    checked = [_check_pd(X, f"Q[{q}]") for q, X in enumerate(gramians.obs, start=1)]
    Q = [Xq for Xq, _ in checked]
    mode_rates = []
    for q, mode in enumerate(model.modes, start=1):
        lam_max = _gen_eig_extremes(mode.A.T @ Q[q - 1] + Q[q - 1] @ mode.A, Q[q - 1])[1]
        rate = -lam_max
        if rate <= 0.0:
            raise StabilityError(
                f"mode {q} admits no decay rate for its certifying matrix "
                f"(largest generalized eigenvalue {lam_max:.3e} >= 0)"
            )
        mode_rates.append(rate)
    single_rate = (1.0 - slack) * min(mode_rates)
    pair_factors = _jump_factors(model, Q, slack)
    gamma = float(min(pair_factors.values())) if pair_factors else np.inf

    quadratic_rate = single_rate / 2.0
    if np.isfinite(gamma) and gamma < 1.0:
        mu = -np.log(gamma) / quadratic_rate
    else:
        mu = 0.0
    lam_hi = max(float(w[-1]) for _, w in checked)
    lam_lo = min(float(w[0]) for _, w in checked)
    eps = 1.0 / np.sqrt(lam_hi)
    phi = 1.0 / np.sqrt(lam_lo)
    norm_rate = quadratic_rate / 2.0
    envelope = (phi ** 2 / eps ** 2) * np.exp(norm_rate * mu)
    return StabilityCertificate(
        M=float(norm_rate),
        mu=float(mu),
        K=float(envelope),
        gamma=float(gamma) if np.isfinite(gamma) else float("inf"),
        quadratic_rate=float(quadratic_rate),
        eps=float(eps),
        phi=float(phi),
        mode_rates=tuple(float(r) for r in mode_rates),
        route="single-rate-doubled-dwell",
        slack=slack,
    )
