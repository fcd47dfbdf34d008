"""Domain types for continuous-time linear switched systems.

A switched system is a finite family of linear time-invariant modes

    E_q x'(t) = A_q x(t) + B_q u(t),    y(t) = C_q x(t),

together with coupling matrices K[i, j] that reset the state when the
active mode switches from i to j.  Mode indices are 1-based throughout
the public interface.  All types are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SingularMatrixError

# Reciprocal condition number below which a descriptor matrix is
# considered singular.
RCOND_SINGULAR = 1e-12


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ModeSystem:
    """One linear mode (A, B, C) with an optional descriptor matrix E."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        if self.E is not None:
            object.__setattr__(self, "E", _as_matrix(self.E, "E"))

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class LssModel:
    """Linear switched system: modes plus inter-mode coupling matrices.

    Parameters
    ----------
    modes : list of ModeSystem
        The linear subsystems, mode ``q`` at index ``q - 1``.
    couplings : dict
        Maps ordered 1-based pairs ``(i, j)``, ``i != j``, to the reset
        matrix applied when switching from mode i to mode j; shape must
        be ``n_j x n_i``.  A missing entry defaults to the identity and
        is only legal when ``n_i == n_j``.
    x0 : array, optional
        Initial state, dimension of the first active mode.  Zero when
        omitted.
    """

    modes: tuple[ModeSystem, ...]
    couplings: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    x0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        frozen = {}
        for key, K in self.couplings.items():
            i, j = int(key[0]), int(key[1])
            frozen[(i, j)] = _as_matrix(K, f"K[{i},{j}]")
        object.__setattr__(self, "couplings", frozen)
        if self.x0 is not None:
            vec = np.asarray(self.x0, dtype=float).reshape(-1).copy()
            vec.flags.writeable = False
            object.__setattr__(self, "x0", vec)

    @property
    def num_modes(self) -> int:
        return len(self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.n for m in self.modes)

    @property
    def num_inputs(self) -> int:
        return self.modes[0].num_inputs

    @property
    def num_outputs(self) -> int:
        return self.modes[0].num_outputs

    @property
    def has_descriptor(self) -> bool:
        return any(m.E is not None for m in self.modes)

    def mode(self, q: int) -> ModeSystem:
        """Mode ``q`` (1-based)."""
        if not 1 <= q <= self.num_modes:
            raise DimensionError(f"mode index {q} outside 1..{self.num_modes}")
        return self.modes[q - 1]

    def coupling(self, i: int, j: int) -> np.ndarray:
        """Reset matrix for a switch from mode i to mode j (1-based)."""
        if i == j:
            return np.eye(self.mode(i).n)
        K = self.couplings.get((i, j))
        if K is not None:
            return K
        ni, nj = self.mode(i).n, self.mode(j).n
        if ni != nj:
            raise DimensionError(
                f"no coupling given for ({i},{j}) and dimensions differ "
                f"({ni} vs {nj}); identity default needs equal dimensions"
            )
        return np.eye(ni)

    def initial_state(self, first_mode: int = 1) -> np.ndarray:
        if self.x0 is not None:
            return np.array(self.x0)
        return np.zeros(self.mode(first_mode).n)


@dataclass(frozen=True)
class SwitchingSignal:
    """Finite switching sequence: (mode, duration) events.

    Durations are finite and strictly positive, consecutive modes differ,
    and the switch instants are the cumulative sums of the durations.
    """

    events: tuple[tuple[int, float], ...]

    def __post_init__(self):
        evs = tuple((int(q), float(d)) for q, d in self.events)
        if not evs:
            raise DimensionError("switching signal needs at least one event")
        for k, (_, d) in enumerate(evs):
            if not 0.0 < d < np.inf:
                raise DimensionError(
                    f"event {k}: duration must be finite and positive, got {d}"
                )
        for (qa, _), (qb, _) in zip(evs, evs[1:]):
            if qa == qb:
                raise DimensionError(f"consecutive events share mode {qa}")
        object.__setattr__(self, "events", evs)

    @property
    def switch_times(self) -> np.ndarray:
        """Instants T_i at which each event ends (strictly increasing)."""
        return np.cumsum([d for _, d in self.events])

    @property
    def total_duration(self) -> float:
        return float(sum(d for _, d in self.events))

    @property
    def min_dwell(self) -> float:
        return float(min(d for _, d in self.events))


@dataclass(frozen=True, eq=False)
class EquivalenceTransform:
    """Per-mode change of coordinates (Z_left, Z_right), each invertible.

    A state-space change of basis uses ``Z_left = S`` and
    ``Z_right = S^{-1}``; see :meth:`similarity`.
    """

    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]

    def __post_init__(self):
        L = tuple(_as_matrix(Z, "Z_left") for Z in self.left)
        R = tuple(_as_matrix(Z, "Z_right") for Z in self.right)
        if len(L) != len(R):
            raise DimensionError("left/right factor lists differ in length")
        for q, (Zl, Zr) in enumerate(zip(L, R), start=1):
            for name, Z in (("left", Zl), ("right", Zr)):
                if Z.shape[0] != Z.shape[1]:
                    raise DimensionError(
                        f"{name} factor of mode {q} must be square, got {Z.shape}"
                    )
                if _reciprocal_condition(Z) < RCOND_SINGULAR:
                    raise SingularMatrixError(
                        f"{name} factor of mode {q} is numerically singular"
                    )
        object.__setattr__(self, "left", L)
        object.__setattr__(self, "right", R)

    @classmethod
    def similarity(cls, mats) -> "EquivalenceTransform":
        mats = [np.asarray(S, dtype=float) for S in mats]
        return cls(left=tuple(mats), right=tuple(np.linalg.inv(S) for S in mats))

    @classmethod
    def identity(cls, dims) -> "EquivalenceTransform":
        eyes = tuple(np.eye(n) for n in dims)
        return cls(left=eyes, right=eyes)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_model`; empty issue list means valid."""

    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


def validate_model(model: LssModel) -> ValidationReport:
    """Check every structural invariant of a switched-system model.

    Violations are reported as data; nothing is raised.  An empty report
    means the model is well-formed.
    """
    issues: list[str] = []
    D = model.num_modes
    if D < 2:
        issues.append(f"at least two modes required, got {D}")
    m = model.modes[0].B.shape[1] if model.modes else 0
    p = model.modes[0].C.shape[0] if model.modes else 0
    for q, mode in enumerate(model.modes, start=1):
        n = mode.A.shape[0]
        if mode.A.shape != (n, n):
            issues.append(f"mode {q}: A must be square, got {mode.A.shape}")
        if mode.B.shape[0] != n:
            issues.append(f"mode {q}: B has {mode.B.shape[0]} rows, expected {n}")
        if mode.C.shape[1] != n:
            issues.append(f"mode {q}: C has {mode.C.shape[1]} columns, expected {n}")
        if mode.B.shape[1] != m:
            issues.append(
                f"mode {q}: input count {mode.B.shape[1]} differs from mode 1 ({m})"
            )
        if mode.C.shape[0] != p:
            issues.append(
                f"mode {q}: output count {mode.C.shape[0]} differs from mode 1 ({p})"
            )
        for name in ("A", "B", "C", "E"):
            mat = getattr(mode, name)
            if mat is not None and not np.all(np.isfinite(mat)):
                issues.append(f"mode {q}: {name} has non-finite entries")
        if mode.E is not None:
            if mode.E.shape != (n, n):
                issues.append(f"mode {q}: E must be {n}x{n}, got {mode.E.shape}")
            elif np.all(np.isfinite(mode.E)) \
                    and _reciprocal_condition(mode.E) < RCOND_SINGULAR:
                issues.append(f"mode {q}: E is numerically singular")

    for (i, j), K in model.couplings.items():
        if i == j:
            issues.append(f"self-coupling ({i},{i}) must not be stored")
            continue
        if not (1 <= i <= D and 1 <= j <= D):
            issues.append(f"coupling ({i},{j}) references a missing mode")
            continue
        ni, nj = model.mode(i).n, model.mode(j).n
        if K.shape != (nj, ni):
            issues.append(
                f"coupling ({i},{j}) has shape {K.shape}, expected ({nj},{ni})"
            )
        if not np.all(np.isfinite(K)):
            issues.append(f"coupling ({i},{j}) has non-finite entries")
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if i == j or (i, j) in model.couplings:
                continue
            ni, nj = model.mode(i).n, model.mode(j).n
            if ni != nj:
                issues.append(
                    f"coupling ({i},{j}) missing and dimensions differ "
                    f"({ni} vs {nj}); identity default not applicable"
                )

    if model.x0 is not None and D >= 1:
        n1 = model.mode(1).n
        if model.x0.shape != (n1,):
            issues.append(
                f"x0 has length {model.x0.shape[0]}, expected {n1} (mode 1)"
            )
        if not np.all(np.isfinite(model.x0)):
            issues.append("x0 has non-finite entries")
    return ValidationReport(issues=tuple(issues))


def require_valid(model: LssModel) -> None:
    """Raise :class:`DimensionError` listing all validation issues, if any."""
    report = validate_model(model)
    if not report.ok:
        raise DimensionError("invalid model: " + "; ".join(report.issues))


def _reciprocal_condition(mat: np.ndarray) -> float:
    try:
        cond = np.linalg.cond(mat)
    except np.linalg.LinAlgError:
        return 0.0
    if not np.isfinite(cond) or cond == 0.0:
        return 0.0
    return 1.0 / cond


def normalize_descriptor(model: LssModel) -> LssModel:
    """Fold every descriptor matrix E into A, B and the couplings.

    Returns an equivalent model with E absent:  A -> E^{-1} A,
    B -> E^{-1} B and K[i, j] -> E_j^{-1} K[i, j] (the destination
    mode's descriptor acts on the post-switch state).  C and x0 are
    unchanged and the input-output behavior is identical.  Idempotent.
    """
    for q, mode in enumerate(model.modes, start=1):
        if mode.E is not None and mode.E.shape == mode.A.shape \
                and np.all(np.isfinite(mode.E)) \
                and _reciprocal_condition(mode.E) < RCOND_SINGULAR:
            raise SingularMatrixError(f"descriptor matrix of mode {q} is singular")
    require_valid(model)
    if not model.has_descriptor:
        return model
    inverses: list[np.ndarray | None] = []
    for mode in model.modes:
        inverses.append(None if mode.E is None else np.linalg.inv(mode.E))
    new_modes = []
    for mode, Einv in zip(model.modes, inverses):
        if Einv is None:
            new_modes.append(mode)
        else:
            new_modes.append(ModeSystem(A=Einv @ mode.A, B=Einv @ mode.B, C=mode.C))
    new_couplings = {}
    D = model.num_modes
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if i == j:
                continue
            Einv = inverses[j - 1]
            if (i, j) in model.couplings:
                K = model.couplings[(i, j)]
                new_couplings[(i, j)] = K if Einv is None else Einv @ K
            elif Einv is not None and model.mode(i).n == model.mode(j).n:
                # implicit identity coupling picks up the descriptor factor
                new_couplings[(i, j)] = Einv.copy()
    return LssModel(modes=tuple(new_modes), couplings=new_couplings, x0=model.x0)


def apply_equivalence(model: LssModel, transform: EquivalenceTransform) -> LssModel:
    """Apply a per-mode equivalence transform to a model.

    For each mode q: A -> Zl_q A Zr_q, B -> Zl_q B, C -> C Zr_q and
    E -> Zl_q E Zr_q, while a coupling from mode i to mode j becomes
    Zl_j K[i, j] Zr_i.  All generalized transfer functions and kernels
    are preserved.  A two-sided transform on an E-free model introduces
    E = Zl Zr unless the product is the identity.
    """
    require_valid(model)
    if len(transform.left) != model.num_modes:
        raise DimensionError(
            f"transform covers {len(transform.left)} modes, model has "
            f"{model.num_modes}"
        )
    for q, (Zl, Zr) in enumerate(zip(transform.left, transform.right), start=1):
        n = model.mode(q).n
        if Zl.shape != (n, n) or Zr.shape != (n, n):
            raise DimensionError(f"transform for mode {q} must be {n}x{n}")

    new_modes = []
    for mode, Zl, Zr in zip(model.modes, transform.left, transform.right):
        E = mode.E if mode.E is not None else np.eye(mode.n)
        Enew = Zl @ E @ Zr
        keep_e = not np.allclose(Enew, np.eye(mode.n), rtol=0.0, atol=1e-14)
        new_modes.append(
            ModeSystem(
                A=Zl @ mode.A @ Zr,
                B=Zl @ mode.B,
                C=mode.C @ Zr,
                E=Enew if keep_e else None,
            )
        )
    new_couplings = {}
    D = model.num_modes
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            if i == j:
                continue
            Zl, Zr = transform.left[j - 1], transform.right[i - 1]
            if (i, j) in model.couplings:
                new_couplings[(i, j)] = Zl @ model.couplings[(i, j)] @ Zr
            elif model.mode(i).n == model.mode(j).n:
                # implicit identity couplings do not stay identities
                K_new = Zl @ Zr
                if not np.allclose(K_new, np.eye(K_new.shape[0]), rtol=0.0, atol=1e-14):
                    new_couplings[(i, j)] = K_new
    new_x0 = model.x0
    if new_x0 is not None:
        new_x0 = np.linalg.solve(transform.right[0], new_x0)
    return LssModel(modes=tuple(new_modes), couplings=new_couplings, x0=new_x0)


def as_normalized(model: LssModel) -> LssModel:
    """Return the model itself when E-free, else its normalized form."""
    if model.has_descriptor:
        return normalize_descriptor(model)
    require_valid(model)
    return model


def dual(model: LssModel) -> LssModel:
    """The dual switched system: A -> A', B -> C', C -> B', K[i,j] -> K[j,i]'.

    The observability Gramians of a model are the reachability Gramians
    of its dual.  Descriptor models are normalized first; ``x0`` has no
    counterpart on the dual side and is dropped.
    """
    model = as_normalized(model)
    modes = tuple(ModeSystem(A=m.A.T, B=m.C.T, C=m.B.T) for m in model.modes)
    D = model.num_modes
    couplings = {
        (i, j): model.coupling(j, i).T
        for i in range(1, D + 1)
        for j in range(1, D + 1)
        if i != j
    }
    return LssModel(modes=modes, couplings=couplings)
