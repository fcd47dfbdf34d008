"""The benchmark's seeded workloads and the reference values they are checked against.

Each workload turns a seed into one or more model cases (model, target
orders, switching signal, input, step size), writes the model files
the CLI reads, and names the CLI command timed on it.  The golden
values and the dense Kronecker reference live here, not in the
library or its tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lssbal
from lssbal import InputSignal, LssModel, SwitchingSignal

# Golden values of the bundled three-mode system, orders (1, 3, 2):
# balanced singular values and the 2*beta bound, printed to 4 decimals.
PAPER_SIGMA = (
    (0.6174, 0.0816, 0.0419),
    (0.4183, 0.1514, 0.0138),
    (0.3311, 0.0948, 0.0172),
)
PAPER_BOUND = 0.2471
PAPER_ORDERS = (1, 3, 2)
GOLDEN_ATOL = 5e-5

# paper-validate: several switches, each dwell at least the certified one.
# The dwells are mu * (1, 1 + s/3, 1 + 2s/3, 1 + s) in seeded order, so the
# horizon, and with it the simulation cost, is the same for every seed.
PAPER_EVENTS = 4
PAPER_DWELL_SPREAD = 0.1
PAPER_DT = 0.02

# wide-reduce: n = 100 in each of five modes; a short fixed-dwell signal.
# With couplings of norm 0.07 every seed needs 5 series levels per kind;
# the default 0.2 sits on the 6/7 boundary, so the cost would jump ~15%
# between seeds.
WIDE_MODES = 5
WIDE_COUPLING = 0.07
WIDE_DIM = 100
WIDE_ORDER = 10
WIDE_EVENTS = 8
WIDE_DWELL = 1.0
WIDE_DT = 1e-3

# boundary-series: couplings rescaled so that the spectral radius of the
# series operator is BOUNDARY_RHO, which puts the level count near
# ln(tol) / ln(rho) = 317 whatever the seed.
BOUNDARY_MODELS = 3
BOUNDARY_MODES = 3
BOUNDARY_DIM = 4
BOUNDARY_ORDER = 2
BOUNDARY_RHO = 0.93
BOUNDARY_EVENTS = 6
BOUNDARY_DWELL = 1.0
BOUNDARY_DT = 1e-3
# The series stops once the level increment drops below tol relative to
# the sum; allowing the transient constant three decades either way
# gives the level range [ln(1e3 tol), ln(1e-3 tol)] / ln(rho).
BOUNDARY_DECADES = 3.0
# Agreement with the dense reference: the series truncation error is
# about tol / (1 - rho) relative, far below this.
REFERENCE_RTOL = 1e-6

WORKLOADS = ("paper-validate", "wide-reduce", "boundary-series")


@dataclass
class Case:
    """One model of a workload with everything the pipeline needs."""

    label: str
    model: LssModel
    orders: tuple[int, ...]
    signal: SwitchingSignal
    u: InputSignal
    dt: float
    # boundary-series only: dense solutions (reach, obs)
    reference: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]] | None = None


@dataclass
class Workload:
    """Seeded inputs of one workload plus the CLI invocation timed on it."""

    name: str
    seed: int
    cases: list[Case]
    model_file: str
    cli_args: list[str]
    cli_files: list[str] = field(default_factory=list)
    level_range: tuple[int, int] | None = None


def walk_signal(rng: np.random.Generator, num_modes: int, durations) -> SwitchingSignal:
    """Switching signal over the given dwells; modes walk over successors."""
    q = int(rng.integers(1, num_modes + 1))
    events = []
    for dur in durations:
        events.append((q, float(dur)))
        successors = [c for c in range(1, num_modes + 1) if c != q]
        q = successors[int(rng.integers(0, len(successors)))]
    return SwitchingSignal(events=tuple(events))


def certified_dwell(model: LssModel, gramians) -> float:
    """The larger of the obs- and reach-side certified dwell times."""
    return max(
        lssbal.dwell_time(model, gramians, side=side).mu for side in ("obs", "reach")
    )


def _kron_sum(A: np.ndarray) -> np.ndarray:
    eye = np.eye(A.shape[0])
    return np.kron(eye, A) + np.kron(A, eye)


def coupled_operator(model: LssModel, kind: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Dense form G x = -f of the coupled Lyapunov equations of one kind.

    Diagonal blocks are the Kronecker sums of A_i (A_i' for obs), the
    off-diagonal block (i, j) is K kron K with K = K[j,i] (K[i,j]' for
    obs), and f stacks the vectorized B_i B_i' (C_i' C_i).
    """
    dims = [n * n for n in model.dims]
    offsets = [0] + list(np.cumsum(dims))
    G = np.zeros((offsets[-1], offsets[-1]))
    f = np.zeros(offsets[-1])
    D = model.num_modes
    for i in range(1, D + 1):
        mode = model.mode(i)
        rows = slice(offsets[i - 1], offsets[i])
        if kind == "reach":
            G[rows, rows] = _kron_sum(mode.A)
            f[rows] = (mode.B @ mode.B.T).reshape(-1)
        else:
            G[rows, rows] = _kron_sum(mode.A.T)
            f[rows] = (mode.C.T @ mode.C).reshape(-1)
        for j in range(1, D + 1):
            if j != i:
                K = model.coupling(j, i) if kind == "reach" else model.coupling(i, j).T
                G[rows, offsets[j - 1]:offsets[j]] = np.kron(K, K)
    return G, f, offsets


def dense_gramians(model: LssModel, kind: str) -> tuple[np.ndarray, ...]:
    """Coupled Gramians of one kind by one dense Kronecker solve."""
    G, f, offsets = coupled_operator(model, kind)
    x = np.linalg.solve(G, -f)
    return tuple(
        x[offsets[q]:offsets[q + 1]].reshape(n, n)
        for q, n in enumerate(model.dims)
    )


def series_radius(model: LssModel) -> float:
    """Spectral radius of the series operator X -> L^{-1} Pi(X) (reach side).

    The obs-side operator is its adjoint, so it has the same radius.
    """
    G, _, offsets = coupled_operator(model, "reach")
    T = np.zeros_like(G)
    for q in range(model.num_modes):
        rows = slice(offsets[q], offsets[q + 1])
        block = G[rows].copy()
        block[:, rows] = 0.0
        T[rows] = -np.linalg.solve(G[rows, rows], block)
    return float(np.max(np.abs(np.linalg.eigvals(T))))


def with_radius(model: LssModel, rho: float) -> LssModel:
    """The model with every coupling scaled so the series radius is ``rho``.

    The operator is quadratic in the couplings, so one common factor
    sqrt(rho / rho_0) moves the radius from rho_0 to rho exactly.
    """
    factor = math.sqrt(rho / series_radius(model))
    couplings = {key: factor * K for key, K in model.couplings.items()}
    return LssModel(modes=model.modes, couplings=couplings, x0=model.x0)


def boundary_level_range(tol: float = lssbal.gramians.DEFAULT_TOL) -> tuple[int, int]:
    shift = 10.0 ** BOUNDARY_DECADES
    lo = math.log(tol * shift) / math.log(BOUNDARY_RHO)
    hi = math.log(tol / shift) / math.log(BOUNDARY_RHO)
    return int(math.floor(lo)), int(math.ceil(hi))


def _write_model(model: LssModel, workdir: Path, name: str) -> str:
    lssbal.save_model(model, workdir / name)
    return name


def _orders_arg(orders) -> str:
    return ",".join(str(r) for r in orders)


def paper_validate(seed: int, workdir: Path) -> Workload:
    model = lssbal.three_mode_model()
    gset = lssbal.compute_gramians(model)
    mu = certified_dwell(model, gset)
    rng = np.random.default_rng([seed, 1])
    durations = mu * (1.0 + PAPER_DWELL_SPREAD * np.linspace(0.0, 1.0, PAPER_EVENTS))
    signal = walk_signal(rng, model.num_modes, rng.permutation(durations))
    case = Case("three_mode_model", model, PAPER_ORDERS, signal,
                InputSignal.paper(model.num_inputs), PAPER_DT)
    bal = lssbal.balance(model, gset)
    reduced = lssbal.truncate(bal, lssbal.ReductionPlan.from_orders(bal, PAPER_ORDERS))
    model_file = _write_model(model, workdir, "paper.json")
    reduced_file = _write_model(reduced, workdir, "paper-reduced.json")
    (workdir / "signal.json").write_text(
        json.dumps([[q, d] for q, d in signal.events]), encoding="utf-8"
    )
    cli_args = [
        "simulate", "--model", model_file, "--reduced", reduced_file,
        "--signal", "@signal.json", "--input", "paper",
        "--dt", repr(PAPER_DT), "--csv", "trajectory.csv",
    ]
    return Workload("paper-validate", seed, [case], model_file, cli_args,
                    cli_files=["trajectory.csv"])


def wide_reduce(seed: int, workdir: Path) -> Workload:
    model = lssbal.random_stable_model(
        seed, num_modes=WIDE_MODES, dims=[WIDE_DIM] * WIDE_MODES,
        coupling_norm=WIDE_COUPLING,
    )
    rng = np.random.default_rng([seed, 2])
    signal = walk_signal(rng, WIDE_MODES, [WIDE_DWELL] * WIDE_EVENTS)
    orders = (WIDE_ORDER,) * WIDE_MODES
    case = Case(f"random_stable_model({seed})", model, orders, signal,
                InputSignal.paper(model.num_inputs), WIDE_DT)
    model_file = _write_model(model, workdir, "wide.json")
    cli_args = ["reduce", "--model", model_file, "--orders", _orders_arg(orders)]
    return Workload("wide-reduce", seed, [case], model_file, cli_args)


def boundary_series(seed: int, workdir: Path) -> Workload:
    cases = []
    orders = (BOUNDARY_ORDER,) * BOUNDARY_MODES
    for k in range(BOUNDARY_MODELS):
        raw = lssbal.random_stable_model(
            [seed, 3, k], num_modes=BOUNDARY_MODES,
            dims=[BOUNDARY_DIM] * BOUNDARY_MODES, coupling_norm=1.0,
        )
        model = with_radius(raw, BOUNDARY_RHO)
        rng = np.random.default_rng([seed, 4, k])
        signal = walk_signal(rng, BOUNDARY_MODES, [BOUNDARY_DWELL] * BOUNDARY_EVENTS)
        reference = (dense_gramians(model, "reach"), dense_gramians(model, "obs"))
        cases.append(Case(f"boundary[{k}]", model, orders, signal,
                          InputSignal.paper(model.num_inputs), BOUNDARY_DT,
                          reference=reference))
    model_file = _write_model(cases[0].model, workdir, "boundary0.json")
    cli_args = ["reduce", "--model", model_file, "--orders", _orders_arg(orders)]
    return Workload("boundary-series", seed, cases, model_file, cli_args,
                    level_range=boundary_level_range())


GENERATORS = {
    "paper-validate": paper_validate,
    "wide-reduce": wide_reduce,
    "boundary-series": boundary_series,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and write its files."""
    return GENERATORS[name](seed, workdir)
