"""Independent oracles used by the test suite.

Everything here deliberately avoids the solver paths under test:
coupled Lyapunov systems are solved as one dense vectorized linear
system or stacked into one block equation, level Gramians are
evaluated by tensor quadrature of their defining integrals (with an
explicit observability branch, independent of the dual model), states
are propagated by matrix exponentials, transforms are checked by
direct quadrature, and CSV text is formatted one numpy scalar at a time.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from lssbal.errors import LssError, StabilityError
from lssbal.gramians import _check_kind, spectral_abscissa
from lssbal.model import LssModel, as_normalized


def lyapunov_kron_solve(A, W):
    """Solve A X + X A' + W = 0 through the n^2 x n^2 vectorized system."""
    n = A.shape[0]
    eye = np.eye(n)
    L = np.kron(A, eye) + np.kron(eye, A)
    x = np.linalg.solve(L, -W.reshape(-1))
    return x.reshape(n, n)


def dense_coupled_solve(model, kind):
    """Direct dense solve of the coupled Lyapunov system of one kind.

    Stacks the flattened per-mode unknowns into one linear system built
    from Kronecker products and solves it in one shot.  Row-major
    flattening: flat(A X B) = kron(A, B') flat(X).
    """
    model = as_normalized(model)
    D = model.num_modes
    dims = list(model.dims)
    sizes = [n * n for n in dims]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    total = int(offsets[-1])
    L = np.zeros((total, total))
    rhs = np.zeros(total)
    for i in range(1, D + 1):
        mode = model.mode(i)
        n = mode.n
        sl_i = slice(offsets[i - 1], offsets[i])
        eye = np.eye(n)
        if kind == "reach":
            L[sl_i, sl_i] += np.kron(mode.A, eye) + np.kron(eye, mode.A)
            rhs[sl_i] = -(mode.B @ mode.B.T).reshape(-1)
        else:
            L[sl_i, sl_i] += np.kron(mode.A.T, eye) + np.kron(eye, mode.A.T)
            rhs[sl_i] = -(mode.C.T @ mode.C).reshape(-1)
        for j in range(1, D + 1):
            if j == i:
                continue
            sl_j = slice(offsets[j - 1], offsets[j])
            if kind == "reach":
                K = model.coupling(j, i)
                L[sl_i, sl_j] += np.kron(K, K)
            else:
                K = model.coupling(i, j)
                L[sl_i, sl_j] += np.kron(K.T, K.T)
    sol = np.linalg.solve(L, rhs)
    out = []
    for i in range(D):
        n = dims[i]
        X = sol[offsets[i]:offsets[i + 1]].reshape(n, n)
        out.append(0.5 * (X + X.T))
    return out


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


def piecewise_exact_state(model, signal, x0, t):
    """Zero-input state at time t from matrix exponentials and jumps."""
    model = as_normalized(model)
    x = np.asarray(x0, dtype=float)
    elapsed = 0.0
    events = signal.events
    for idx, (q, dur) in enumerate(events):
        mode = model.mode(q)
        if t <= elapsed + dur + 1e-12:
            return scipy.linalg.expm(mode.A * (t - elapsed)) @ x
        x = scipy.linalg.expm(mode.A * dur) @ x
        elapsed += dur
        if idx + 1 < len(events):
            x = model.coupling(q, events[idx + 1][0]) @ x
    return x


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


def frequency_csv_by_scalar(omegas, response) -> str:
    """Magnitude/phase CSV built entry by entry from numpy scalars."""
    p, m = response.shape[1], response.shape[2]
    header = ["omega"]
    for i in range(p):
        for j in range(m):
            suffix = "" if p == 1 and m == 1 else f"_{i + 1}_{j + 1}"
            header += [f"mag{suffix}", f"phase{suffix}"]
    lines = [",".join(header)]
    for idx, w in enumerate(omegas):
        row = [_fmt(w)]
        for i in range(p):
            for j in range(m):
                h = response[idx, i, j]
                row += [_fmt(np.abs(h)), _fmt(np.angle(h))]
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
    _check_kind(kind)
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
    p = model.num_outputs

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
