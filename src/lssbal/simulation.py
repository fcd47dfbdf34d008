"""Time-domain simulation and L2 norms.

Simulation integrates each dwell interval with the classical fixed-step
4th-order Runge-Kutta scheme on a grid refined so that every switch
instant is a grid point, then applies the coupling matrix as a state
jump.  The sample stored at a switch instant belongs to the outgoing
mode; the incoming mode starts at the next sample.

Within an interval the RK4 map x+ = F x + G v_k is lifted to blocks of
L steps (block lifting, Bamieh, Pearson, Francis & Tannenbaum, Syst.
Control Lett. 1991).  The block starts solve s_b = F^L s_(b-1) + e_b,
all e_b in one product: a small mode by a doubling scan in ceil(log2 nb)
batched products (Hillis & Steele, CACM 1986; Blelloch, CMU-CS-90-190,
1990), a wide one by one product per block.  Two output maps give every
block's outputs from its start and its inputs, and the last start gives
the end state that the jump takes.  Only the order of the floating-point
sums differs from the step-by-step RK4 map.  A simulation lifts each
(mode, step size, step count) once and reuses it for every interval.
A simulation keeps only the outputs: of the states it forms just each
interval's block starts and end state, and drops them with the interval.

The input is sampled once per (input, switching signal, dt) and kept
on the input, so the models simulated along one grid share read-only
``times``, ``modes`` and ``inputs``.  A simulation makes no Python
object per sample.  The output error compares two runs of one sampling
and refuses trajectories on different grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, LssError
from .model import LssModel, SwitchingSignal, _integral, _real, as_normalized

DEFAULT_DT = 1e-3

# Most samples one simulation may hold, about 14 times the longest run
# of the test suite and the benchmark (693,001 samples).
_MAX_SAMPLES = 10_000_000

# Most events of a random signal, from random_dwell_signal or random:count=.
_MAX_RANDOM_EVENTS = 100_000


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Input u(t), either a closed-form family or sampled data.

    Closed form ("expr") is amp*sin(freq*t)*exp(-decay*t) +
    offset*exp(-decay*t), broadcast over all input channels; the
    built-in test input uses amp=1/2, freq=20, decay=1/2, offset=1/20.
    Sampled signals interpolate linearly and extrapolate as zero.  A bad
    field is refused, by name, with a DimensionError.  The input keeps
    `simulate`'s last sampling of it (times, modes, grid and midpoint
    inputs: about 8(2 + 2m) bytes per sample) until a simulation with
    other events or steps replaces it or the input is freed.
    """

    kind: str = "zero"
    width: int = 1
    amp: float = 0.5
    freq: float = 20.0
    decay: float = 0.5
    offset: float = 0.05
    sample_times: np.ndarray | None = None
    sample_values: np.ndarray | None = None

    _sampling = None  # simulate's one sampling of this input; not a field

    def __post_init__(self):
        if self.kind not in ("zero", "expr", "samples"):
            raise DimensionError(f"kind must be 'zero', 'expr' or 'samples', got {self.kind!r}")
        width = _integral(self.width, "width")
        if width < 0:
            raise DimensionError(f"width must be a non-negative integer, got {width!r}")
        object.__setattr__(self, "width", width)
        for name in ("amp", "freq", "decay", "offset"):
            _real(getattr(self, name), name)
        if self.kind != "samples":
            return
        for name in ("sample_times", "sample_values"):
            if getattr(self, name) is None:
                raise DimensionError(f"a 'samples' input needs {name}")
        # copies the caller cannot change, so no sampling of them goes stale
        times = np.array(self.sample_times, dtype=float)
        values = np.array(self.sample_values, dtype=float)
        if times.ndim != 1 or values.ndim != 2:
            raise DimensionError("sample_times must be 1-D and sample_values 2-D (one row per "
                                 f"time), got shapes {times.shape} and {values.shape}")
        if values.shape[0] != times.shape[0]:
            raise DimensionError("sample times and values differ in length")
        if not np.isfinite(times).all():
            raise DimensionError("sample times must be finite")
        if not np.isfinite(values).all():
            raise DimensionError("sample values must be finite")
        if not times.size or np.any(np.diff(times) <= 0):
            raise DimensionError("sample times must be non-empty and strictly increasing")
        if self.width != values.shape[1]:
            raise DimensionError(f"width {self.width} differs from the {values.shape[1]} "
                                 "columns of sample_values")
        for name, arr in (("sample_times", times), ("sample_values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def zero(cls, width: int = 1) -> "InputSignal":
        return cls(kind="zero", width=width)

    @classmethod
    def paper(cls, width: int = 1) -> "InputSignal":
        """The bundled damped-sine test input."""
        return cls(kind="expr", width=width)

    @classmethod
    def expr(cls, amp=0.5, freq=20.0, decay=0.5, offset=0.05, width=1) -> "InputSignal":
        return cls(kind="expr", width=width, amp=amp, freq=freq, decay=decay, offset=offset)

    @classmethod
    def from_samples(cls, times, values) -> "InputSignal":
        """Sampled input: ``values`` holds one number or one row per time."""
        times = np.asarray(times, dtype=float).reshape(-1)  # the constructor copies and checks
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        return cls(kind="samples", width=values.shape[1] if values.ndim == 2 else 1,
                   sample_times=times, sample_values=values)

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "zero":
            return np.zeros((t.shape[0], self.width))
        if self.kind == "expr":
            with np.errstate(over="ignore", invalid="ignore"):
                scalar = (np.sin(t * self.freq) * self.amp + self.offset) * np.exp(t * -self.decay)
            finite = np.isfinite(scalar)
            if not finite.all():
                k = int(np.argmin(finite))  # the first time that is not finite
                raise DimensionError(f"input {self.to_dict()} is {scalar[k]} at t = {t[k]}")
            return np.repeat(scalar[:, None], self.width, axis=1)
        cols = [
            np.interp(t, self.sample_times, self.sample_values[:, c], left=0.0, right=0.0)
            for c in range(self.width)
        ]
        return np.stack(cols, axis=1)

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
class Trajectory:
    """Sampled outputs of a switched-system simulation.

    One row per sample time: the active mode, the output C_q x and the
    input; the states are not kept.  From ``simulate``, ``times``,
    ``modes`` and ``inputs`` are read-only and shared by the trajectories
    of one sampling.
    """

    times: np.ndarray
    modes: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray


def _rk4_step_operators(A: np.ndarray, B: np.ndarray, h: float):
    """Linear maps of one classical RK4 step for x' = A x + B u(t).

    Returns (F, G) with x+ = F x + G [u(t); u(t + h/2); u(t + h)]; the two
    middle stages both sample u at t + h/2.  With X = hA the stages give
    F = I + X + X^2 (I/2 + X/6 + X^2/24), two n x n products, and the
    blocks of G from XB, X^2 B and X^3 B.
    """
    X, eye = h * A, np.eye(len(A))
    X2 = X @ X
    F = eye + X + X2 @ (0.5 * eye + X / 6.0 + X2 / 24.0)
    XB = X @ B
    X2B = X2 @ B
    G = np.concatenate((B + XB + 0.5 * X2B + 0.25 * (X @ X2B), 4.0 * B + 2.0 * XB + 0.5 * X2B, B),
                       axis=1)
    return F, h / 6.0 * G


def _block_plan(steps: int, n: int) -> tuple[int, bool]:
    """Steps per block of `_lift`, and whether the starts take the doubling scan.

    The loop's L is the largest 2^j with L*L <= steps (as many block starts
    as lockstep steps) and j*n <= steps (the j squarings that form F^L, n^3
    flops each, cost no more than the steps, n^2 each).  The scan's L is
    the smallest 2^j, at most the loop's, with ceil(log2 nb) <= L: its
    rounds cost no more than the lockstep.  The scan is taken when its
    squarings cost no more than the block products it replaces:
    ceil(log2 nb)*n <= nb.
    """
    loop = 1 << min(math.isqrt(steps).bit_length() - 1, steps // max(n, 1))
    L = 1
    while L < loop and (-(-steps // L) - 1).bit_length() > L:
        L *= 2
    nb = -(-steps // L)
    return (L, True) if (nb - 1).bit_length() * n <= nb else (loop, False)


class _Lifted(NamedTuple):
    """The step map x+ = F x + G v, y = C x lifted for one step count, by `_lift`."""

    steps: int
    L: int  # steps per block
    newest_last: np.ndarray  # each block's F^k G, newest input first
    powers: tuple[np.ndarray, ...]  # (F^L)^(2^r) of scan round r
    tail: np.ndarray  # the power that finishes the starts, one product per block
    O: np.ndarray  # C F^(i+1), i < L: a block's outputs from its start
    T: np.ndarray  # C F^(i-k) G at block row i, column k <= i: its outputs from its inputs
    last_power: np.ndarray  # F^j, j the steps of the last block


def _lift(F: np.ndarray, G: np.ndarray, C: np.ndarray, steps: int) -> _Lifted:
    """What `_outputs` needs of F, G and C for ``steps`` steps.

    In blocks of L steps (`_block_plan`): the Markov parameters F^k G,
    k < L, and O, stacked by doubling, which also gives F^L and F^j; T;
    and the powers the starts take.  With the scan, round r takes
    (F^L)^(2^r); a power that overflows ends the scan, and the last finite
    one finishes it, one product per block, so no inf*0 turns a zero state
    into NaN.
    """
    n, r = G.shape
    p = C.shape[0]
    L, scan = _block_plan(steps, n)
    nb = -(-steps // L)
    j = steps - (nb - 1) * L
    markov, O, FL, Fj = G, C @ F, F, None
    for bit in range(L.bit_length() - 1):
        if j >> bit & 1:
            Fj = FL if Fj is None else Fj @ FL
        markov = np.concatenate((markov, FL @ markov), axis=1)
        O = np.concatenate((O, O @ FL))
        FL = FL @ FL
    # block b's end response: sum over k of F^k G v_(bL + L-1-k)
    newest_last = markov.reshape(n, L, r)[:, ::-1].reshape(n, L * r)
    H = C @ newest_last
    T = np.zeros((L, p, L * r))
    for i in range(L):
        T[i, :, :(i + 1) * r] = H[:, (L - 1 - i) * r:]
    powers = []
    P, k = FL, 1
    with np.errstate(over="ignore"):  # an overflowing power ends the scan
        while scan and k < nb:
            Q = P @ P if 2 * k < nb else P  # square only while another round remains
            if not np.isfinite(Q).all():
                break
            powers.append(P)
            P, k = Q, 2 * k
    return _Lifted(steps, L, newest_last, tuple(powers), P, O, T.reshape(L * p, L * r),
                   FL if Fj is None else Fj)


def _outputs(lifted: _Lifted, V: np.ndarray, x: np.ndarray):
    """Outputs y_k = C x_k of x+ = F x + G v_k for every row v_k of V, and
    the end state: arrays of (steps, p) and n.

    The Markov parameters times V's blocks give each block's response e_b;
    the starts solve s_b = F^L s_(b-1) + e_b by a doubling scan (round r
    adds (F^L)^(2^r) times the start 2^r blocks back), or by one product
    per block.  Then y_b = O s_b + T v_b, and the end state is F^j s_last
    plus the last j Markov parameters times the last j inputs; a last
    block of j < L steps takes j block rows of O and T.
    """
    steps, L, newest_last, powers, tail, O, T, last_power = lifted
    r = V.shape[1]
    n, p = len(x), len(O) // L
    nb = -(-steps // L)
    full = (nb - 1) * L
    j = steps - full
    blocks = V[:full].reshape(nb - 1, L * r)
    last = V[full:].reshape(j * r)
    starts = np.empty((nb, n))
    starts[0] = x
    np.matmul(blocks, newest_last.T, out=starts[1:])
    # each start holds the terms of its last k blocks
    k = 1
    for P in powers:
        starts[k:] += starts[:-k] @ P.T
        k *= 2
    for prev, start in zip(starts, starts[k:]):
        start += tail @ prev
    Y = np.empty((steps, p))
    np.matmul(starts[:-1], O.T, out=Y[:full].reshape(nb - 1, L * p))
    Y[:full] += (blocks @ T.T).reshape(full, p)
    Y[full:] = (O[:j * p] @ starts[-1] + T[:j * p, :j * r] @ last).reshape(j, p)
    end = last_power @ starts[-1] + newest_last[:, (L - j) * r:] @ last
    return Y, end


def _grid_steps(durations, dt: float, what: str) -> list[int]:
    """Steps of at most ``dt`` per duration; a dt that is not finite and
    positive, or more than ``_MAX_SAMPLES`` steps in all, is refused."""
    dt = _real(dt, "dt", positive=True)
    # clipped before ceil, which an infinite d/dt would overflow; any
    # clipped duration alone exceeds the budget
    steps = [max(1, math.ceil(min(d / dt, _MAX_SAMPLES + 1))) for d in durations]
    if sum(steps) > _MAX_SAMPLES:
        raise DimensionError(
            f"dt = {dt!r} over a horizon of {sum(durations)!r} s needs more "
            f"than {_MAX_SAMPLES} samples; use a larger dt or a shorter {what}"
        )
    return steps


def _coerce_input(u, width: int) -> InputSignal:
    if u is None:
        return InputSignal.zero(width)
    if isinstance(u, InputSignal):
        if u.width != width:
            raise DimensionError(f"input has {u.width} channels, model expects {width}")
        return u
    raise LssError("input must be an InputSignal or None")


def _sample(u: InputSignal, events, steps: list[int]):
    """Read-only times, mode labels, grid inputs and each interval's RK4
    midpoint inputs of ``events`` on ``steps``, kept in one slot on ``u``
    that a call with other events or steps replaces."""
    memo = u._sampling
    if memo is None or memo[0] != (events, steps):
        times, modes, inputs, mids = [np.zeros(1)], [np.full(1, events[0][0])], [u(0.0)], []
        t_start = 0.0
        for (q, duration), n in zip(events, steps):
            h = duration / n
            grid = t_start + h * np.arange(n + 1)  # ends exactly on the switch instant
            grid[-1] = t_start + duration
            times.append(grid[1:])
            modes.append(np.full(n, q))
            inputs.append(u(grid)[1:])
            mids.append(u(grid[:-1] + 0.5 * h))
            t_start += duration
        memo = (events, steps), (*map(np.concatenate, (times, modes, inputs)), tuple(mids))
        for a in (*memo[1][:3], *mids):
            a.flags.writeable = False
        object.__setattr__(u, "_sampling", memo)
    return memo[1]


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
    interval ends exactly on the grid), in about log2(steps) Python
    iterations per interval for a small mode and sqrt(steps) for a wide
    one (see `_outputs`); at every switch the coupling matrix resets the
    state.  Without ``x0`` a run starts from the model's stored x0, which
    belongs to mode 1, or else from zero.  Outputs are C_q x throughout;
    the states are not kept.
    Intervals of one mode with the same step size and step count share
    one build of the step map and its lifted data.  One sampling per
    (input, signal, dt) gives every trajectory made on it the same
    read-only ``times``, ``modes`` and ``inputs``; the input holds that
    sampling, and its midpoint inputs, after the trajectories are gone
    (see `InputSignal`).  A dt that is not finite
    and positive, a grid of more than ten million samples and a non-finite
    x0 are refused with a DimensionError before anything is allocated.
    """
    model = as_normalized(model)
    events = signal.events
    first_mode = events[0][0]
    for q, _ in events:
        if not 1 <= q <= model.num_modes:
            raise DimensionError(f"signal uses mode {q}, model has {model.num_modes}")
    grid_steps = _grid_steps([d for _, d in events], dt, "signal")
    if x0 is None:
        x0 = model.x0
        if x0 is None:
            x0 = np.zeros(model.mode(first_mode).n)
        elif first_mode != 1:
            raise DimensionError(f"stored x0 belongs to mode 1, not mode {first_mode}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != model.mode(first_mode).n:
        raise DimensionError(
            f"x0 has dimension {x.shape[0]}, mode {first_mode} needs "
            f"{model.mode(first_mode).n}"
        )
    if not np.isfinite(x).all():
        raise DimensionError("x0 has non-finite entries")
    times, modes, inputs, mids = _sample(_coerce_input(u, model.num_inputs), events, grid_steps)
    # an interval's maps depend on its (mode, step size, step count) alone
    keys = [(q, d / steps, steps) for (q, d), steps in zip(events, grid_steps)]
    lifts: dict[tuple[int, float, int], _Lifted] = {}

    outputs = [x[None] @ model.mode(first_mode).C.T]
    end = 1
    for ev_idx, ((q, _), key, u_mid) in enumerate(zip(events, keys, mids)):
        mode = model.mode(q)
        _, h, steps = key
        lifted = lifts.get(key)
        if lifted is None:
            lifted = lifts[key] = _lift(*_rk4_step_operators(mode.A, mode.B, h), mode.C, steps)
        start, end = end, end + steps
        V = np.concatenate((inputs[start - 1:end - 1], u_mid, inputs[start:end]), axis=1)
        Y, x = _outputs(lifted, V, x)
        outputs.append(Y)
        if ev_idx + 1 < len(events):
            x = model.coupling(q, events[ev_idx + 1][0]) @ x

    return Trajectory(times=times, modes=modes, outputs=np.concatenate(outputs), inputs=inputs)


def _require_same_grid(a: Trajectory, b: Trajectory) -> None:
    """Refuse two trajectories whose ``times`` differ, naming both grids."""
    if a.times is not b.times and not np.array_equal(a.times, b.times):
        grids = [f"{len(t)} samples over [{float(t[0])!r}, {float(t[-1])!r}]" if len(t)
                 else "0 samples" for t in (a.times, b.times)]
        raise DimensionError(f"trajectories are on different grids: {grids[0]} and {grids[1]}")


def _squared_rows(V: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, added column by column, left to right.

    numpy's ``np.sum(V ** 2, axis=1)`` adds fewer than 8 terms in the same
    order, so below 8 columns the sums are bitwise equal to it; this avoids
    its slow reduction over a short axis.
    """
    if not V.shape[1]:
        return np.zeros(V.shape[0])
    total = np.square(V[:, 0])
    for column in V.T[1:]:
        total += np.square(column)
    return total


def _l2(rows: np.ndarray, t: np.ndarray, what: str) -> float:
    """Trapezoidal L2 norm over ``t`` of ``rows``; refused, naming ``what``, if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sqrt(np.trapezoid(_squared_rows(rows), t)))
    if not math.isfinite(norm):
        raise LssError(f"the {what} is {norm}: the samples are too large for double precision")
    return norm


def output_l2_error(a: Trajectory, b: Trajectory) -> float:
    """Trapezoidal L2 norm of the output difference of two runs of one sampling.

    Trajectories on different grids, or with different numbers of
    outputs, are refused with a DimensionError, an inf or NaN norm with an LssError.
    """
    if a.outputs.shape[1:] != b.outputs.shape[1:]:
        raise DimensionError(
            f"trajectories have {a.outputs.shape[1]} and {b.outputs.shape[1]} outputs"
        )
    _require_same_grid(a, b)
    return _l2(a.outputs - b.outputs, a.times, "output L2 error")


def input_l2(u, horizon: float, dt: float = DEFAULT_DT) -> float:
    """Trapezoidal L2 norm of an input over [0, horizon].

    A non-finite or non-positive dt or horizon, and a grid of more than
    ten million samples, are refused with a DimensionError before
    anything is allocated; an inf or NaN norm is refused with an LssError.
    """
    horizon = _real(horizon, "horizon", positive=True)
    (steps,) = _grid_steps([horizon], dt, "horizon")
    u_sig = u if isinstance(u, InputSignal) else _coerce_input(u, 1)
    t = np.linspace(0.0, horizon, steps + 1)
    return _l2(u_sig(t), t, "input L2 norm")


def _dwell_walk(num_modes: int, min_dwell: float, rng):
    """Endless (mode, dwell) walk: each dwell uniform in [min_dwell, 3*min_dwell].

    The start mode is drawn uniformly, and every next mode uniformly over
    the admissible successors.  Fewer than two modes are refused before any draw.
    """
    num_modes = _integral(num_modes, "num_modes")
    if num_modes < 2:
        raise DimensionError(f"a switching walk needs num_modes >= 2, got {num_modes}")
    q = int(rng.integers(1, num_modes + 1))
    while True:
        yield q, float(rng.uniform(min_dwell, 3.0 * min_dwell))
        successors = [c for c in range(1, num_modes + 1) if c != q]
        q = int(successors[rng.integers(0, len(successors))])


def random_dwell_signal(
    num_modes: int,
    min_dwell: float,
    horizon: float,
    rng,
) -> SwitchingSignal:
    """Random switching signal with every dwell in [min_dwell, 3*min_dwell].

    Modes walk uniformly over admissible successors.  The final event is
    stretched or clipped so the total duration equals ``horizon``; a
    clipped remainder shorter than ``min_dwell`` is merged into the
    previous event so the dwell constraint is never violated.  A horizon
    longer than 100,000 dwells of ``min_dwell``, or fewer than two modes,
    is refused with a DimensionError before any event is drawn.
    """
    min_dwell = _real(min_dwell, "min_dwell", positive=True)
    horizon = _real(horizon, "horizon", positive=True)
    if horizon < min_dwell:
        raise DimensionError("horizon shorter than one dwell interval")
    if horizon / min_dwell > _MAX_RANDOM_EVENTS:
        raise DimensionError(
            f"a horizon of {horizon!r} s at min_dwell {min_dwell!r} s allows more than "
            f"{_MAX_RANDOM_EVENTS} events; use a larger min_dwell or a shorter horizon"
        )
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    events: list[tuple[int, float]] = []
    total = 0.0
    for q, dur in _dwell_walk(num_modes, min_dwell, rng):
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
