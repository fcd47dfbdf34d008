"""Time-domain simulation, transfer functions and L2 norms.

Simulation integrates each dwell interval with the classical fixed-step
4th-order Runge-Kutta scheme on a grid refined so that every switch
instant is a grid point, then applies the coupling matrix as a state
jump.  The sample stored at a switch instant belongs to the outgoing
mode; the incoming mode starts at the next sample.

Within an interval the RK4 map x+ = F x + d_k is lifted to blocks of L
steps, with L*n about 128 for a mode of dimension n: one product gives
every block's response to the drive, and each Python iteration advances
the state L steps (block-lifting of a discrete-time recurrence, Bamieh,
Pearson, Francis & Tannenbaum, Syst. Control Lett. 1991).  The map is
the same RK4 map; only the order of the floating-point sums changes.

A trajectory keeps the state blocks as computed: ``Trajectory.states``
is a read-only per-sample view over the initial sample and one
(steps, n) block per interval, so a simulation makes no Python object
per sample.

Transfer-function evaluation follows the generalized kernel
representation of switched systems.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, LssError, SingularMatrixError
from .model import LssModel, SwitchingSignal, as_normalized

DEFAULT_DT = 1e-3

# Width L*n of one lifted block: wide enough that a block-Toeplitz
# product beats L Python iterations, small enough that building the
# block operators stays cheap.  Modes with n > _LIFT_WIDTH // 2 get
# L = 1 and step singly.
_LIFT_WIDTH = 128


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Input u(t), either a closed-form family or sampled data.

    Closed form ("expr") is amp*sin(freq*t)*exp(-decay*t) +
    offset*exp(-decay*t), broadcast over all input channels; the
    built-in test input uses amp=1/2, freq=20, decay=1/2, offset=1/20.
    Sampled signals interpolate linearly and extrapolate as zero.
    """

    kind: str = "zero"
    width: int = 1
    amp: float = 0.5
    freq: float = 20.0
    decay: float = 0.5
    offset: float = 0.05
    sample_times: np.ndarray | None = None
    sample_values: np.ndarray | None = None
    func: object = None

    @classmethod
    def zero(cls, width: int = 1) -> "InputSignal":
        return cls(kind="zero", width=width)

    @classmethod
    def paper(cls, width: int = 1) -> "InputSignal":
        """The bundled damped-sine test input."""
        return cls(kind="expr", width=width)

    @classmethod
    def expr(cls, amp=0.5, freq=20.0, decay=0.5, offset=0.05, width=1) -> "InputSignal":
        return cls(kind="expr", width=width, amp=amp, freq=freq,
                   decay=decay, offset=offset)

    @classmethod
    def from_samples(cls, times, values) -> "InputSignal":
        times = np.array(times, dtype=float).reshape(-1)
        values = np.array(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != times.shape[0]:
            raise DimensionError("sample times and values differ in length")
        if not times.size or np.any(np.diff(times) <= 0):
            raise DimensionError("sample times must be non-empty and strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
        return cls(kind="samples", width=values.shape[1],
                   sample_times=times, sample_values=values)

    @classmethod
    def from_callable(cls, func, width: int = 1) -> "InputSignal":
        return cls(kind="callable", width=width, func=func)

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "zero":
            return np.zeros((t.shape[0], self.width))
        if self.kind == "expr":
            scalar = (self.amp * np.sin(self.freq * t) + self.offset) * np.exp(-self.decay * t)
            return np.repeat(scalar[:, None], self.width, axis=1)
        if self.kind == "samples":
            cols = [
                np.interp(t, self.sample_times, self.sample_values[:, c],
                          left=0.0, right=0.0)
                for c in range(self.width)
            ]
            return np.stack(cols, axis=1)
        if self.kind == "callable":
            rows = [np.asarray(self.func(float(ti)), dtype=float).reshape(-1) for ti in t]
            return np.stack(rows, axis=0)
        raise LssError(f"unknown input kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "expr":
            return {"kind": "expr", "amp": self.amp, "freq": self.freq,
                    "decay": self.decay, "offset": self.offset}
        if self.kind == "samples":
            return {"kind": "samples",
                    "times": self.sample_times.tolist(),
                    "values": self.sample_values.tolist()}
        return {"kind": self.kind, "width": self.width}


@dataclass(frozen=True, eq=False)
class Jump:
    """State reset applied at one switch instant."""

    index: int
    time: float
    from_mode: int
    to_mode: int
    state_before: np.ndarray
    state_after: np.ndarray


class _StateRows(Sequence):
    """Read-only sequence of the rows of consecutive state blocks.

    Indexing finds the block by bisection on the cumulative block ends;
    a slice gives a tuple of row views, and iteration walks the blocks
    in order.  No row object exists until it is asked for.
    """

    __slots__ = ("_blocks", "_ends")

    def __init__(self, blocks):
        self._blocks = tuple(blocks)
        self._ends = list(itertools.accumulate(len(X) for X in self._blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = operator.index(index)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"state index {index} out of range for {size} samples")
        b = bisect.bisect_right(self._ends, i)
        return self._blocks[b][i - (self._ends[b - 1] if b else 0)]

    def __iter__(self):
        return itertools.chain.from_iterable(self._blocks)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of a switched-system simulation.

    ``states`` holds one vector per sample (n may change with the active
    mode).  From ``simulate`` it is a read-only view over the initial
    sample and one (steps, n) block per dwell interval: each state is a
    row view of its interval's block, and the blocks cannot be written.
    Any sequence of vectors, a tuple for instance, is accepted too.
    ``jumps`` records every switch with the pre- and post-jump states;
    the post-jump state is exactly the coupling matrix times the
    pre-jump state, and the pre-jump state is the row ``states[index]``.
    """

    times: np.ndarray
    modes: np.ndarray
    states: Sequence[np.ndarray]
    outputs: np.ndarray
    inputs: np.ndarray
    jumps: tuple[Jump, ...] = field(default_factory=tuple)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _rk4_step_operators(A: np.ndarray, B: np.ndarray, h: float):
    """Linear maps of one classical RK4 step for x' = A x + B u(t).

    Returns (F, G1, G2, G3) with x+ = F x + G1 u(t) + G2 u(t + h/2)
    + G3 u(t + h); the two middle stages both sample u at t + h/2.
    """
    n, m = B.shape
    eye = np.eye(n)
    zero = np.zeros((n, m))

    def stage(prev, u_weight):
        Mx, M1, M2, M3 = prev
        w1, w2, w3 = u_weight
        return (
            A @ (eye + 0.5 * h * Mx),
            A @ (0.5 * h * M1) + w1 * B,
            A @ (0.5 * h * M2) + w2 * B,
            A @ (0.5 * h * M3) + w3 * B,
        )

    k1 = (A, B, zero, zero)
    k2 = stage(k1, (0.0, 1.0, 0.0))
    k3 = stage(k2, (0.0, 1.0, 0.0))
    Mx, M1, M2, M3 = k3
    k4 = (
        A @ (eye + h * Mx),
        A @ (h * M1),
        A @ (h * M2),
        A @ (h * M3) + B,
    )
    F = eye + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    G1 = h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    G2 = h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    G3 = h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    return F, G1, G2, G3


def _advance(F: np.ndarray, drive: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States of x+ = F x + drive[k] for every k, as one (steps, n) block.

    The recurrence is lifted to blocks of L steps: with Phi = [F; ...; F^L]
    and T the lower block-Toeplitz matrix of blocks F^(i-j), a block's
    states are Phi x + T d, where x is the state before the block and d
    its stacked drive.  A last, partial block takes its drive as
    zero-padded, and its states past the last step are discarded.  At
    L = 1, T = I is not formed, Phi = F and the drive is copied as it is,
    so this is the step-by-step recurrence.
    """
    steps, n = drive.shape
    L = max(1, min(steps, _LIFT_WIDTH // max(n, 1)))
    powers = np.empty((L + 1, n, n))
    powers[0] = np.eye(n)
    for k in range(1, L + 1):
        powers[k] = F @ powers[k - 1]
    Phi = powers[1:].reshape(L * n, n)
    if L == 1:
        Z = drive.copy()
    else:
        T = np.zeros((L, n, L, n))
        i, j = np.tril_indices(L)
        T[i, :, j] = powers[i - j]
        T = T.reshape(L * n, L * n)

        full, tail = divmod(steps, L)
        Z = np.empty((full + (tail > 0), L * n))
        np.matmul(drive[:full * L].reshape(full, L * n), T.T, out=Z[:full])
        if tail:
            Z[full] = T[:, :tail * n] @ drive[full * L:].reshape(-1)
    for row in Z:
        row += Phi @ x
        x = row[-n:]
    return Z.reshape(len(Z) * L, n)[:steps]


def _coerce_input(u, width: int) -> InputSignal:
    if u is None:
        return InputSignal.zero(width)
    if isinstance(u, InputSignal):
        if u.width != width:
            raise DimensionError(
                f"input has {u.width} channels, model expects {width}"
            )
        return u
    if callable(u):
        return InputSignal.from_callable(u, width)
    raise LssError("input must be an InputSignal, a callable or None")


def simulate(
    model: LssModel,
    signal: SwitchingSignal,
    u=None,
    x0=None,
    dt: float = DEFAULT_DT,
) -> Trajectory:
    """Integrate a switched system along a switching signal.

    Within each dwell interval the mode dynamics are advanced with
    fixed-step classical RK4 (step at most ``dt``, chosen so the
    interval ends exactly on the grid), L steps per Python iteration
    with L*n about 128; at every switch the coupling matrix resets the
    state.  Outputs are C_q x throughout.
    """
    model = as_normalized(model)
    if not dt > 0.0:
        raise DimensionError(f"dt must be positive, got {dt}")
    events = signal.events
    first_mode = events[0][0]
    for q, _ in events:
        if not 1 <= q <= model.num_modes:
            raise DimensionError(f"signal uses mode {q}, model has {model.num_modes}")
    if x0 is None:
        x = model.initial_state(first_mode)
    else:
        x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != model.mode(first_mode).n:
        raise DimensionError(
            f"x0 has dimension {x.shape[0]}, mode {first_mode} needs "
            f"{model.mode(first_mode).n}"
        )
    u_sig = _coerce_input(u, model.num_inputs)

    times = [np.zeros(1)]
    modes = [np.full(1, first_mode)]
    blocks = [np.array([x])]
    blocks[0].flags.writeable = False
    outputs = [blocks[0] @ model.mode(first_mode).C.T]
    inputs = [u_sig(0.0)]
    jumps: list[Jump] = []

    samples = 1
    t_start = 0.0
    for ev_idx, (q, duration) in enumerate(events):
        mode = model.mode(q)
        steps = max(1, math.ceil(duration / dt))
        h = duration / steps
        F, G1, G2, G3 = _rk4_step_operators(mode.A, mode.B, h)
        grid = t_start + h * np.arange(steps + 1)
        grid[-1] = t_start + duration
        u_grid = u_sig(grid)
        u_mid = u_sig(grid[:-1] + 0.5 * h)
        drive = u_grid[:-1] @ G1.T + u_mid @ G2.T + u_grid[1:] @ G3.T
        X = _advance(F, drive, x)
        X.flags.writeable = False
        x = X[-1]
        times.append(grid[1:])
        modes.append(np.full(steps, q))
        blocks.append(X)
        outputs.append(X @ mode.C.T)
        inputs.append(u_grid[1:])
        samples += steps
        t_start += duration
        if ev_idx + 1 < len(events):
            q_next = events[ev_idx + 1][0]
            x_post = model.coupling(q, q_next) @ x
            jumps.append(Jump(index=samples - 1, time=t_start, from_mode=q,
                              to_mode=q_next, state_before=x, state_after=x_post))
            x = x_post

    return Trajectory(
        times=np.concatenate(times),
        modes=np.concatenate(modes),
        states=_StateRows(blocks),
        outputs=np.concatenate(outputs),
        inputs=np.concatenate(inputs),
        jumps=tuple(jumps),
    )


def _common_window(a: Trajectory, b: Trajectory) -> tuple[float, float]:
    lo = max(float(a.times[0]), float(b.times[0]))
    hi = min(float(a.times[-1]), float(b.times[-1]))
    if hi <= lo:
        raise LssError("trajectories cover disjoint time windows")
    return lo, hi


def output_l2_error(a: Trajectory, b: Trajectory) -> float:
    """Trapezoidal L2 norm of the output difference on the common window.

    When the grids differ, the second trajectory is linearly resampled
    onto the first one's grid.
    """
    lo, hi = _common_window(a, b)
    mask = (a.times >= lo) & (a.times <= hi)
    t = a.times[mask]
    ya = a.outputs[mask]
    same_grid = (
        b.times.shape == a.times.shape
        and np.array_equal(b.times, a.times)
    )
    if same_grid:
        yb = b.outputs[mask]
    else:
        yb = np.stack(
            [np.interp(t, b.times, b.outputs[:, c]) for c in range(b.outputs.shape[1])],
            axis=1,
        )
    diff = np.sum((ya - yb) ** 2, axis=1)
    return float(np.sqrt(np.trapezoid(diff, t)))


def input_l2(u, horizon: float, dt: float = DEFAULT_DT) -> float:
    """Trapezoidal L2 norm of an input over [0, horizon]."""
    if horizon <= 0.0:
        raise DimensionError(f"horizon must be positive, got {horizon}")
    u_sig = u if isinstance(u, InputSignal) else _coerce_input(u, 1)
    steps = max(1, math.ceil(horizon / dt))
    t = np.linspace(0.0, horizon, steps + 1)
    vals = u_sig(t)
    return float(np.sqrt(np.trapezoid(np.sum(vals ** 2, axis=1), t)))


def _check_sequence(model: LssModel, mode_seq) -> list[int]:
    seq = [int(q) for q in mode_seq]
    if not seq:
        raise DimensionError("mode sequence must be non-empty")
    for q in seq:
        if not 1 <= q <= model.num_modes:
            raise DimensionError(f"mode {q} outside 1..{model.num_modes}")
    for qa, qb in zip(seq, seq[1:]):
        if qa == qb:
            raise DimensionError(f"mode sequence repeats mode {qa} consecutively")
    return seq


def transfer_eval(model: LssModel, mode_seq, s_points) -> np.ndarray:
    """Generalized transfer function of one mode sequence.

    For modes (q1, ..., qk) and complex points (s1, ..., sk) evaluates
    C of the first mode times the resolvent chain down to B of the last
    mode, with the coupling from q_{j+1} to q_j between neighbors.
    """
    seq = _check_sequence(model, mode_seq)
    svals = [complex(s) for s in s_points]
    if len(svals) != len(seq):
        raise DimensionError("need one sample point per mode in the sequence")

    def resolvent_apply(q: int, s: complex, rhs: np.ndarray) -> np.ndarray:
        mode = model.mode(q)
        E = mode.E if mode.E is not None else np.eye(mode.n)
        pencil = s * E - mode.A
        try:
            return np.linalg.solve(pencil, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"resolvent of mode {q} is singular at s = {s}"
            ) from exc

    q_last = seq[-1]
    X = resolvent_apply(q_last, svals[-1], model.mode(q_last).B.astype(complex))
    # walk the chain from the last mode toward the first, inserting the
    # coupling from the later mode into the earlier one
    for pos in range(len(seq) - 2, -1, -1):
        q, s = seq[pos], svals[pos]
        K = model.coupling(seq[pos + 1], q)
        X = resolvent_apply(q, s, K @ X)
    return model.mode(seq[0]).C @ X


def frequency_response(model: LssModel, mode: int, omegas) -> np.ndarray:
    """Single-mode transfer function sampled along the imaginary axis.

    Returns a complex array of shape (len(omegas), p, m).
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    out = np.empty((omegas.shape[0], model.num_outputs, model.num_inputs), dtype=complex)
    for idx, w in enumerate(omegas):
        out[idx] = transfer_eval(model, [mode], [1j * w])
    return out


def _dwell_walk(num_modes: int, min_dwell: float, rng, start_mode: int | None = None):
    """Endless (mode, dwell) walk: each dwell uniform in [min_dwell, 3*min_dwell].

    The start mode is drawn uniformly unless given; every next mode is
    drawn uniformly over the admissible successors.
    """
    q = int(rng.integers(1, num_modes + 1)) if start_mode is None else int(start_mode)
    while True:
        yield q, float(rng.uniform(min_dwell, 3.0 * min_dwell))
        successors = [c for c in range(1, num_modes + 1) if c != q]
        q = int(successors[rng.integers(0, len(successors))])


def random_dwell_signal(
    num_modes: int,
    min_dwell: float,
    horizon: float,
    rng,
    start_mode: int | None = None,
) -> SwitchingSignal:
    """Random switching signal with every dwell in [min_dwell, 3*min_dwell].

    Modes walk uniformly over admissible successors.  The final event is
    stretched or clipped so the total duration equals ``horizon``; a
    clipped remainder shorter than ``min_dwell`` is merged into the
    previous event so the dwell constraint is never violated.
    """
    if not 0.0 < min_dwell < math.inf:
        raise DimensionError(f"min_dwell must be finite and positive, got {min_dwell}")
    if not math.isfinite(horizon):
        raise DimensionError(f"horizon must be finite, got {horizon}")
    if horizon < min_dwell:
        raise DimensionError("horizon shorter than one dwell interval")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    events: list[tuple[int, float]] = []
    total = 0.0
    for q, dur in _dwell_walk(num_modes, min_dwell, rng, start_mode):
        remaining = horizon - total
        if dur >= remaining:
            if remaining >= min_dwell or not events:
                events.append((q, remaining))
            else:
                prev_q, prev_d = events[-1]
                events[-1] = (prev_q, prev_d + remaining)
            break
        events.append((q, dur))
        total += dur
        if total >= horizon - 1e-12:
            break
    return SwitchingSignal(events=tuple(events))
