"""Independent oracles used by the test suite.

Everything here deliberately avoids the solver paths under test:
coupled Lyapunov systems are solved as one dense vectorized linear
system (whose blocks also give the series' spectral radius by dense
eigenvalues) or stacked into one block equation, level Gramians are
evaluated by tensor quadrature of their defining integrals (with an
explicit observability branch, independent of the dual model), states
and kernels are propagated by matrix exponentials, generalized
transfer functions are chains of dense resolvent solves, transforms are
checked by direct quadrature, output L2 errors are summed one
trapezoid at a time, CSV text is formatted one numpy scalar at
a time, JSON matrices are checked one Python scalar at a time, and
canonical JSON text comes from the standard library's indenting encoder.
Relaxed Gramian candidates are checked against their defining
inequalities directly, the observability ones on the transposed pattern,
and the energy inequalities with plain numpy along a simulated run.
Models change coordinates mode by mode, couplings pair by pair.  The
level-k Gramians alone come from the library's own series generator,
so that criterion 6 checks the product's recursion against quadrature.
The heat model is built here too: a small case whose Gramians pass an
eigenvalue test for definiteness but not a Cholesky factorization.
Switch instants are cumulative sums of the dwells, and ties among
balanced singular values are read off their consecutive differences.
"""

import itertools
import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from lssbal.analysis import dwell_time
from lssbal.errors import (
    AssumptionError,
    DimensionError,
    LssError,
    ModelFormatError,
    StabilityError,
)
from lssbal.gramians import _series
from lssbal.model import LssModel, ModeSystem, _dual, _integral, as_normalized
from lssbal.simulation import InputSignal


def dual(model: LssModel) -> LssModel:
    """The dual switched system: A -> A', B -> C', C -> B', K[i,j] -> K[j,i]'.

    The observability Gramians of a model are the reachability Gramians
    of its dual.  Descriptor models are normalized first; ``x0`` has no
    counterpart on the dual side and is dropped.  The library's obs series
    runs on the same `_dual`.
    """
    return _dual(as_normalized(model))


# Consecutive balanced singular values closer than this are ties; the
# balancing basis is then not unique beyond column signs.
TIE_TOL = 1e-10


def has_ties(bal) -> bool:
    """True when two of some mode's singular values differ by <= TIE_TOL * sigma_1."""
    return any(s.size > 1 and np.any(np.abs(np.diff(s)) <= TIE_TOL * max(s[0], 1e-300))
               for s in bal.sigma)


def switch_times(signal) -> np.ndarray:
    """Instants T_i at which each event of ``signal`` ends (strictly increasing)."""
    return np.cumsum([d for _, d in signal.events])


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(np.max(np.real(np.linalg.eigvals(A))))


def lyapunov_kron_solve(A, W):
    """Solve A X + X A' + W = 0 through the n^2 x n^2 vectorized system."""
    n = A.shape[0]
    eye = np.eye(n)
    L = np.kron(A, eye) + np.kron(eye, A)
    x = np.linalg.solve(L, -W.reshape(-1))
    return x.reshape(n, n)


def coupled_kron_system(model, kind):
    """The coupled Lyapunov system of one kind as dense Kronecker blocks.

    Returns (L, Pi, rhs, offsets): the flattened per-mode unknowns stack
    at ``offsets`` and solve (L + Pi) x = rhs, with L the block diagonal
    of per-mode Lyapunov operators and Pi the coupling blocks.  Row-major
    flattening: flat(A X B) = kron(A, B') flat(X).
    """
    model = as_normalized(model)
    D = model.num_modes
    dims = list(model.dims)
    offsets = np.concatenate([[0], np.cumsum([n * n for n in dims])]).astype(int)
    total = int(offsets[-1])
    L = np.zeros((total, total))
    Pi = np.zeros((total, total))
    rhs = np.zeros(total)
    for i in range(1, D + 1):
        mode = model.mode(i)
        sl_i = slice(offsets[i - 1], offsets[i])
        eye = np.eye(mode.n)
        if kind == "reach":
            L[sl_i, sl_i] = np.kron(mode.A, eye) + np.kron(eye, mode.A)
            rhs[sl_i] = -(mode.B @ mode.B.T).reshape(-1)
        else:
            L[sl_i, sl_i] = np.kron(mode.A.T, eye) + np.kron(eye, mode.A.T)
            rhs[sl_i] = -(mode.C.T @ mode.C).reshape(-1)
        for j in range(1, D + 1):
            if j == i:
                continue
            sl_j = slice(offsets[j - 1], offsets[j])
            K = model.coupling(j, i) if kind == "reach" else model.coupling(i, j).T
            Pi[sl_i, sl_j] = np.kron(K, K)
    return L, Pi, rhs, offsets


def dense_coupled_solve(model, kind):
    """Direct dense solve of the coupled Lyapunov system of one kind.

    Solves the stacked Kronecker system of :func:`coupled_kron_system`
    in one shot.
    """
    L, Pi, rhs, offsets = coupled_kron_system(model, kind)
    sol = np.linalg.solve(L + Pi, rhs)
    out = []
    for n, lo, hi in zip(model.dims, offsets, offsets[1:]):
        X = sol[lo:hi].reshape(n, n)
        out.append(0.5 * (X + X.T))
    return out


def series_radius(model):
    """Spectral radius of the series' level map X -> -L^{-1} Pi(X), by dense eigenvalues.

    The Gramian series converges exactly when it is below one; the
    reach and obs maps are adjoint, so they share it.
    """
    L, Pi, _, _ = coupled_kron_system(model, "reach")
    return float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(L, Pi)))))


def block_form_dense_solve(block_form, kind):
    """Solve the stacked single-equation form as one dense linear system."""
    A = block_form.a_block
    N = A.shape[0]
    eye = np.eye(N)
    if kind == "reach":
        L = np.kron(A, eye) + np.kron(eye, A)
        rhs = -(block_form.b_block @ block_form.b_block.T).reshape(-1)
        for K in block_form.coupling_blocks:
            L += np.kron(K, K)
    else:
        L = np.kron(A.T, eye) + np.kron(eye, A.T)
        rhs = -(block_form.c_block.T @ block_form.c_block).reshape(-1)
        for K in block_form.coupling_blocks:
            L += np.kron(K.T, K.T)
    X = np.linalg.solve(L, rhs).reshape(N, N)
    return 0.5 * (X + X.T)


def extract_diagonal_blocks(X, offsets):
    return [
        X[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]]
        for i in range(len(offsets) - 1)
    ]


def exact_states(model, signal, x0, dt, u=None):
    """States on `simulate`'s grid by matrix exponentials, in blocks.

    The first block is x0, one row; then each dwell interval gives one
    (steps, n_q) block, whose last row is the pre-jump state at its
    switch instant, or the final state.  Each interval takes
    ceil(duration / dt) equal steps h, as in `simulate`.  An
    ``expr`` input (amp sin ft + offset) e^(-ct), f its freq and c its
    decay, is the output u = C_u w of w' = S w, w = e^(-ct) (sin ft,
    cos ft, 1), so z = (x, w) solves the autonomous z' = [[A, B C_u],
    [0, S]] z (Van Loan, IEEE TAC 1978); a zero input has C_u = 0.  One
    exponential E = expm(M h) per interval advances z by doubling: rows
    k..2k-1 are E^k times rows 0..k-1.  The coupling matrix maps x at a
    switch; w runs on.  A ``samples`` input is refused.
    """
    model = as_normalized(model)
    u = InputSignal.zero(model.num_inputs) if u is None else u
    if u.kind == "samples":
        raise ValueError("exact_states takes a zero or expr input, not samples")
    f, c = u.freq, u.decay
    S = np.array([[-c, f, 0.0], [-f, -c, 0.0], [0.0, 0.0, -c]])
    C_u = np.zeros((u.width, 3))
    if u.kind == "expr":
        C_u[:] = [u.amp, 0.0, u.offset]
    x, w = np.asarray(x0, dtype=float), np.array([0.0, 1.0, 1.0])
    blocks = [x[None]]
    events = signal.events
    for idx, (q, duration) in enumerate(events):
        if idx:
            x = model.coupling(events[idx - 1][0], q) @ x
        mode = model.mode(q)
        n, steps = mode.n, max(1, int(np.ceil(duration / dt)))
        M = np.block([[mode.A, mode.B @ C_u], [np.zeros((3, n)), S]])
        E = scipy.linalg.expm(M * (duration / steps))
        Z = np.empty((steps + 1, n + 3))
        Z[0] = np.concatenate((x, w))
        k = 1
        while k <= steps:
            rows = min(k, steps + 1 - k)
            Z[k:k + rows] = Z[:rows] @ E.T
            E, k = E @ E, 2 * k
        blocks.append(Z[1:, :n])
        x, w = Z[-1, :n], Z[-1, n:]
    return blocks


def output_l2_by_trapezoid(a, b) -> float:
    """L2 norm of the output difference, one trapezoid at a time.

    The samples are a's inside the window both trajectories cover; b's
    output at each is its sample there, or the straight line between
    b's two samples around it.
    """
    lo = max(a.times[0], b.times[0])
    hi = min(a.times[-1], b.times[-1])
    points = []
    for t, ya in zip(a.times, a.outputs):
        if not lo <= t <= hi:
            continue
        k = int(np.searchsorted(b.times, t))
        if b.times[k] == t:
            yb = b.outputs[k]
        else:
            t0, t1 = b.times[k - 1], b.times[k]
            yb = b.outputs[k - 1] + (t - t0) / (t1 - t0) * (b.outputs[k] - b.outputs[k - 1])
        points.append((t, float(np.sum((ya - yb) ** 2))))
    total = 0.0
    for (t0, f0), (t1, f1) in zip(points, points[1:]):
        total += 0.5 * (t1 - t0) * (f0 + f1)
    return float(np.sqrt(total))


def _check_sequence(model: LssModel, mode_seq) -> list[int]:
    seq = [_integral(q, f"event {k}: mode") for k, q in enumerate(mode_seq)]
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
            raise LssError(f"resolvent of mode {q} is singular at s = {s}") from exc

    q_last = seq[-1]
    X = resolvent_apply(q_last, svals[-1], model.mode(q_last).B.astype(complex))
    # walk the chain from the last mode toward the first, inserting the
    # coupling from the later mode into the earlier one
    for pos in range(len(seq) - 2, -1, -1):
        q, s = seq[pos], svals[pos]
        K = model.coupling(seq[pos + 1], q)
        X = resolvent_apply(q, s, K @ X)
    return model.mode(seq[0]).C @ X


def _kernel_chain(model: LssModel, mode_seq, times, start) -> np.ndarray:
    """C of the last mode times the exponential/coupling chain of a sequence.

    ``start(model, q)`` gives what the chain feeds from the first mode q.
    """
    model = as_normalized(model)
    seq = _check_sequence(model, mode_seq)
    tvals = [float(t) for t in times]
    if len(tvals) != len(seq):
        raise DimensionError("need one dwell time per mode in the sequence")
    X = scipy.linalg.expm(model.mode(seq[0]).A * tvals[0]) @ start(model, seq[0])
    for q_prev, q, t in zip(seq, seq[1:], tvals[1:]):
        X = model.coupling(q_prev, q) @ X
        X = scipy.linalg.expm(model.mode(q).A * t) @ X
    return model.mode(seq[-1]).C @ X


def kernel_eval(model: LssModel, mode_seq, times) -> np.ndarray:
    """Input-to-output kernel of one switching sequence.

    For modes (q1, ..., qk) and dwell times (t1, ..., tk) this is the
    matrix-exponential chain that feeds B of the first mode through the
    couplings into C of the last mode.
    """
    return _kernel_chain(model, mode_seq, times, lambda m, q: m.mode(q).B)


def initial_kernel_eval(model: LssModel, mode_seq, times, x0=None) -> np.ndarray:
    """Initial-state response kernel of one switching sequence."""

    def start(m: LssModel, q: int) -> np.ndarray:
        if x0 is not None:
            vec = np.asarray(x0, dtype=float)
        elif m.x0 is None:
            vec = np.zeros(m.mode(q).n)
        elif q != 1:
            raise DimensionError(f"stored x0 belongs to mode 1, not mode {q}")
        else:
            vec = m.x0
        if vec.shape[0] != m.mode(q).n:
            raise DimensionError("x0 dimension does not match the first mode")
        return vec

    return _kernel_chain(model, mode_seq, times, start)


def resolvent_quadrature(model, q, s, t_max, steps):
    """Trapezoidal quadrature of the one-sided Laplace transform of e^{At}."""
    mode = as_normalized(model).mode(q)
    h = t_max / steps
    Eh = scipy.linalg.expm(mode.A * h)
    acc = np.zeros((mode.n, mode.n), dtype=complex)
    cur = np.eye(mode.n)
    for i in range(steps + 1):
        w = h if 0 < i < steps else h / 2.0
        acc += w * np.exp(-s * (i * h)) * cur
        cur = Eh @ cur
    return acc


def kernel_laplace_2d(model, q1, q2, s1, s2, t_max=25.0, steps=3000):
    """Two-dimensional Laplace quadrature of the depth-2 kernel.

    The tensor-product trapezoidal sum factorizes exactly into two
    one-dimensional quadratures around the coupling matrix.
    """
    model = as_normalized(model)
    F1 = resolvent_quadrature(model, q1, s1, t_max, steps)
    F2 = resolvent_quadrature(model, q2, s2, t_max, steps)
    K = model.coupling(q1, q2)
    return model.mode(q2).C @ F2 @ K @ F1 @ model.mode(q1).B


def matrix_from_json_by_scalar(obj, label: str) -> np.ndarray:
    """JSON matrix check one entry at a time (isinstance and np.isfinite).

    An integer too large for numpy raises TypeError from ``np.isfinite``.
    """
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ModelFormatError(f"{label}: expected a non-empty array of arrays")
    width = len(obj[0])
    for r, row in enumerate(obj):
        if len(row) != width:
            raise ModelFormatError(f"{label}: row {r} has length {len(row)}, expected {width}")
        for c, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not np.isfinite(v):
                raise ModelFormatError(f"{label}: entry ({r},{c}) is not a finite number")
    return np.asarray(obj, dtype=float)


def canonical_json_by_encoder(doc) -> str:
    """The canonical text of a JSON document, by ``json``'s pure-Python encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    return repr(float(value))


def trajectory_csv_by_scalar(traj, reduced=None) -> str:
    """Trajectory CSV built row by row from numpy scalars (no grid check)."""
    m = traj.inputs.shape[1]
    p = traj.outputs.shape[1]
    header = ["t", "mode"]
    header += [f"u_{c + 1}" for c in range(m)]
    header += [f"y_{c + 1}" for c in range(p)]
    if reduced is not None:
        header += [f"yhat_{c + 1}" for c in range(p)]
    lines = [",".join(header)]
    for idx in range(traj.times.shape[0]):
        row = [_fmt(traj.times[idx]), str(int(traj.modes[idx]))]
        row += [_fmt(v) for v in traj.inputs[idx]]
        row += [_fmt(v) for v in traj.outputs[idx]]
        if reduced is not None:
            row += [_fmt(v) for v in reduced.outputs[idx]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def balanced_sigma_by_eigh(P, Q):
    """Balanced values sqrt(eig(L' Q L)) with P = L L', largest first.

    The route that squares sigma before taking the eigenvalues, so it is
    accurate only while sigma_min / sigma_max stays well above sqrt(eps).
    """
    L = np.linalg.cholesky(0.5 * (P + P.T))
    return np.sqrt(np.linalg.eigvalsh(L.T @ Q @ L)[::-1])


def random_well_conditioned(rng, n, spread=2.0):
    """Random invertible matrix with singular values in [1/spread, spread]."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.uniform(1.0 / spread, spread, size=n)
    return U @ np.diag(s) @ V.T


def gramian_by_quadrature(
    model: LssModel,
    mode: int,
    k: int,
    kind: str = "reach",
    t_max: float = 30.0,
    steps: int = 1200,
) -> np.ndarray:
    """Level-k Gramian of one mode by tensor-product trapezoidal quadrature.

    Evaluates the defining iterated integral over [0, t_max]^k, summing
    the contribution of every admissible mode tuple (no two consecutive
    modes equal).  Slow; intended as a test oracle for k <= 3.
    """
    if kind not in ("reach", "obs"):
        raise DimensionError(f"kind must be 'reach' or 'obs', got {kind!r}")
    if not 1 <= k <= 3:
        raise LssError(f"quadrature oracle supports k in 1..3, got {k}")
    model = as_normalized(model)
    for q, m in enumerate(model.modes, start=1):
        if spectral_abscissa(m.A) >= 0.0:
            raise StabilityError(f"mode {q} is not stable")
    D = model.num_modes

    h = t_max / steps
    # tabulate e^{A h i} on the grid by repeated multiplication
    exp_tables = []
    for m in model.modes:
        Eh = scipy.linalg.expm(m.A * h)
        tab = np.empty((steps + 1, m.n, m.n))
        tab[0] = np.eye(m.n)
        for i in range(steps):
            tab[i + 1] = Eh @ tab[i]
        exp_tables.append(tab)
    weights = np.full(steps + 1, h)
    weights[0] = weights[-1] = h / 2.0

    def axis_quad(q: int, inner: np.ndarray, transposed: bool) -> np.ndarray:
        tab = exp_tables[q - 1]
        if transposed:
            left = np.matmul(np.transpose(tab, (0, 2, 1)), inner)
            return np.einsum("i,iab,ibc->ac", weights, left, tab)
        left = np.matmul(tab, inner)
        return np.einsum("i,iab,icb->ac", weights, left, tab)

    def tuples_from(start: int, length: int):
        seqs = [[start]]
        for _ in range(length - 1):
            seqs = [s + [c] for s in seqs for c in range(1, D + 1) if c != s[-1]]
        return seqs

    n = model.mode(mode).n
    total = np.zeros((n, n))
    for seq in tuples_from(mode, k):
        if kind == "reach":
            # chain e^{A_{q1} t1} K[q2,q1] ... e^{A_{qk} tk} B_{qk}
            last = seq[-1]
            inner = axis_quad(last, model.mode(last).B @ model.mode(last).B.T, False)
            for qj, qnext in zip(seq[-2::-1], seq[::-1]):
                K = model.coupling(qnext, qj)
                inner = axis_quad(qj, K @ inner @ K.T, False)
        else:
            # chain C_{qk} e^{A_{qk} tk} K[q_{k-1},qk] ... e^{A_{q1} t1};
            # the requested mode carries the first time axis
            last = seq[-1]
            inner = axis_quad(last, model.mode(last).C.T @ model.mode(last).C, True)
            for qj, qnext in zip(seq[-2::-1], seq[::-1]):
                K = model.coupling(qj, qnext)
                inner = axis_quad(qj, K.T @ inner @ K, True)
        total += inner
    return 0.5 * (total + total.T)


@dataclass(frozen=True)
class BlockForm:
    """Single-equation layout of the coupled Lyapunov system.

    ``a_block``, ``b_block`` and ``c_block`` are block-diagonal stacks of
    the mode matrices; ``coupling_blocks`` holds the cyclically permuted
    coupling matrices.  The equation

        a_block P + P a_block' + sum_k Kk P Kk' + b_block b_block' = 0

    has a block-diagonal solution whose diagonal blocks are the per-mode
    reachability Gramians (transposed pattern for observability).
    """

    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray
    coupling_blocks: tuple[np.ndarray, ...]
    offsets: tuple[int, ...]


def assemble_block_form(model: LssModel) -> BlockForm:
    """Stack the model into the equivalent single-equation block form."""
    model = as_normalized(model)
    D = model.num_modes
    dims = model.dims
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    N = int(offsets[-1])
    m = model.num_inputs
    p = model.modes[0].C.shape[0]

    a_block = np.zeros((N, N))
    b_block = np.zeros((N, D * m))
    c_block = np.zeros((D * p, N))
    for q, mode in enumerate(model.modes):
        sl = slice(offsets[q], offsets[q + 1])
        a_block[sl, sl] = mode.A
        b_block[sl, q * m:(q + 1) * m] = mode.B
        c_block[q * p:(q + 1) * p, sl] = mode.C

    blocks = []
    for shift in range(1, D):
        Kd = np.zeros((N, N))
        for i in range(1, D + 1):
            j = ((i - 1 + shift) % D) + 1
            rows = slice(offsets[i - 1], offsets[i])
            cols = slice(offsets[j - 1], offsets[j])
            Kd[rows, cols] = model.coupling(j, i)
        blocks.append(Kd)
    return BlockForm(
        a_block=a_block,
        b_block=b_block,
        c_block=c_block,
        coupling_blocks=tuple(blocks),
        offsets=tuple(int(o) for o in offsets),
    )


def level_k_gramians(model: LssModel, k: int, kind: str = "reach") -> list[np.ndarray]:
    """Level-k Gramians of every mode (level 1 the per-mode Gramian), by the library's series."""
    series = _series(model, kind)
    return series.from_schur(next(itertools.islice(series.levels(), k - 1, None)))


def apply_equivalence(model: LssModel, left, right=None) -> LssModel:
    """The model in new coordinates, mode by mode: A -> L A R, B -> L B, C -> C R.

    The coupling from mode i to mode j becomes L_j K[i,j] R_i, implicit
    identities included, and x0 becomes R_1^{-1} x0.  ``right`` defaults to
    the inverses of ``left``, a change of state basis, which keeps an E-free
    mode E-free; otherwise every mode stores E -> L E R (L R when E-free).
    """
    basis = right is None
    right = [np.linalg.inv(S) for S in left] if basis else right
    modes = []
    for m, L, R in zip(model.modes, left, right):
        E = None if basis and m.E is None else L @ (np.eye(m.n) if m.E is None else m.E) @ R
        modes.append(ModeSystem(A=L @ m.A @ R, B=L @ m.B, C=m.C @ R, E=E))
    couplings = {(i, j): left[j - 1] @ model.coupling(i, j) @ right[i - 1]
                 for i, j in itertools.permutations(range(1, model.num_modes + 1), 2)}
    x0 = None if model.x0 is None else np.linalg.solve(right[0], model.x0)
    return LssModel(modes=modes, couplings=couplings, x0=x0)


class EnergyBoundReport(NamedTuple):
    """Both sides of an energy inequality at each checked time."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    passed: bool


def verify_energy_bounds(model, gramians, traj, signal, states,
                         side="obs") -> EnergyBoundReport:
    """Check the observation or control energy inequality along a simulated run.

    ``states`` holds the run's state blocks, from `exact_states`.
    Observability side (zero input): x(0)' Q_q1 x(0) bounds the output energy
    up to every sample.  Reachability side (zero initial state): at every
    switch and at the end, the pre-jump x' P_q^{-1} x is bounded by the input
    energy up to then; a switch is a sample whose next sample has another
    mode.  Energies are cumulative trapezoid sums, and the signal must keep
    the side's dwell time from :func:`lssbal.dwell_time`.
    """
    mu = dwell_time(model, gramians, side).mu
    if signal.min_dwell < mu - 1e-9:
        raise AssumptionError(f"signal dwell {signal.min_dwell:.4g} is below the {side} dwell time {mu:.4g}")

    def energy(values):
        power = np.sum(values ** 2, axis=1)
        return np.concatenate([[0.0], np.cumsum(0.5 * (power[1:] + power[:-1]) * np.diff(traj.times))])

    if side == "obs":
        if np.any(traj.inputs != 0.0):
            raise AssumptionError("observability energy bound needs zero input")
        x0, Q = states[0][0], gramians.obs[int(traj.modes[0]) - 1]
        times, rhs = traj.times, energy(traj.outputs)
        lhs = np.full_like(rhs, x0 @ Q @ x0)
        low, high = rhs, lhs
    else:
        if np.any(states[0] != 0.0):
            raise AssumptionError("reachability energy bound needs zero initial state")
        idx = [*np.flatnonzero(np.diff(traj.modes)), len(traj.times) - 1]
        times, rhs = traj.times[idx], energy(traj.inputs)[idx]
        # each interval's block ends on its switch instant, or on the end
        pairs = [(X[-1], gramians.reach[int(traj.modes[k]) - 1])
                 for X, k in zip(states[1:], idx)]
        lhs = np.array([x @ np.linalg.solve(P, x) for x, P in pairs])
        low, high = lhs, rhs
    tol = 1e-8 * max(float(np.max(lhs)), float(np.max(rhs)), 1.0)
    return EnergyBoundReport(times, lhs, rhs, bool(np.all(low <= high + tol)))


def truncated_sigma(bal, plan) -> tuple[np.ndarray, ...]:
    """Leading diagonal Gramian entries kept by a reduction plan."""
    return tuple(s[:r].copy() for s, r in zip(bal.sigma, plan.orders))


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
        P = np.asarray(P, dtype=float)
        P = 0.5 * (P + P.T)
        low = np.linalg.eigvalsh(P)[0]
        if low <= 0.0:
            raise AssumptionError(
                f"{side} candidate {q} is not positive definite (min eigenvalue {low:.3e})"
            )
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


def heat_model(n: int = 25) -> LssModel:
    """Two-mode 1-D heat equation, conductivities 1 and 2, on n cells.

    A_c = c (n+1)^2 / 100 * tridiag(1, -2, 1); mode 1 is driven at cell 1
    and observed at cell n, mode 2 driven at cell 13 and observed at cell
    1; K[1,2] = K[2,1] = 0.4 I.  At n = 25 the minimum eigenvalues of all
    four Gramians are 7e-20 to 3e-19: positive, yet a Cholesky
    factorization of at least one of them fails.
    """
    lap = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    modes = []
    for c, driven, observed in ((1, 0, n - 1), (2, 12, 0)):
        B, C = np.zeros((n, 1)), np.zeros((1, n))
        B[driven, 0] = C[0, observed] = 1.0
        modes.append(ModeSystem(A=c * (n + 1) ** 2 / 100 * lap, B=B, C=C))
    return LssModel(modes=modes, couplings={(1, 2): 0.4 * np.eye(n), (2, 1): 0.4 * np.eye(n)})
