"""Domain types for continuous-time linear switched systems.

A switched system is a finite family of linear time-invariant modes

    x'(t) = A_q x(t) + B_q u(t),    y(t) = C_q x(t),

together with coupling matrices K[i, j] that reset the state when the
active mode switches from i to j.  Mode indices are 1-based throughout
the public interface.  All types are immutable after construction and
safe to share between threads; an :class:`LssModel` memoizes its
validation by an idempotent write (see :func:`validated`).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float, ndmin=2, order="C")  # always a copy
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def _integral(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral value is refused, not truncated.

    ``what`` names the value in the refusal, e.g. "event 3: mode".
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            if value == int(value):
                return int(value)
        except (TypeError, ValueError, OverflowError):  # not a number, or not finite
            pass
    raise DimensionError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str, positive: bool = False) -> float:
    """``value`` as a float; a bool, a string, a number too large for a float
    or anything else that is not a finite real number (and, if
    ``positive``, greater than 0) is refused."""
    rule = "finite and positive" if positive else "a finite real number"
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise DimensionError(f"{what} must be {rule}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise DimensionError(f"{what} must be {rule}, got a number too large for a float") from None
    if not math.isfinite(number) or (positive and not number > 0):
        raise DimensionError(f"{what} must be {rule}, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class ModeSystem:
    """One linear mode (A, B, C)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.B.shape[1]


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
        is only legal when ``n_i == n_j``.  Models rebuilt in new
        coordinates (balancing, truncation, the dual model) store every
        pair.
    x0 : array, optional
        Initial state of mode 1, mapped with mode 1's coordinates; a run
        that starts in another mode passes its own.  Zero when omitted.

    Immutable; it remembers that it passed validation, so the entry
    points that check it through :func:`validated` do so once.
    """

    modes: tuple[ModeSystem, ...]
    couplings: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    x0: np.ndarray | None = None

    _valid = False  # validated's memo; not a field

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        frozen = {}
        for key, K in self.couplings.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise DimensionError(f"coupling key {key!r} must be a pair of modes")
            what = f"coupling key {key!r}: mode"
            i, j = _integral(key[0], what), _integral(key[1], what)
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

    def mode(self, q: int) -> ModeSystem:
        """Mode ``q`` (1-based)."""
        q = _integral(q, "mode index")
        if not 1 <= q <= self.num_modes:
            raise DimensionError(f"mode index {q} outside 1..{self.num_modes}")
        return self.modes[q - 1]

    def coupling(self, i: int, j: int) -> np.ndarray:
        """Reset matrix for a switch from mode i to mode j (1-based)."""
        i, j = _integral(i, "coupling source mode i"), _integral(j, "coupling target mode j")
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


@dataclass(frozen=True)
class SwitchingSignal:
    """Finite switching sequence: (mode, duration) events.

    Durations and their total are finite and strictly positive,
    consecutive modes differ, and the switch instants are the cumulative
    sums of the durations.
    """

    events: tuple[tuple[int, float], ...]

    def __post_init__(self):
        evs = tuple((_integral(q, f"event {k}: mode"),
                     _real(d, f"event {k}: duration", positive=True))
                    for k, (q, d) in enumerate(self.events))
        if not evs:
            raise DimensionError("switching signal needs at least one event")
        for (qa, _), (qb, _) in zip(evs, evs[1:]):
            if qa == qb:
                raise DimensionError(f"consecutive events share mode {qa}")
        if not math.isfinite(sum(d for _, d in evs)):
            raise DimensionError("total duration of the events overflows")
        object.__setattr__(self, "events", evs)

    @property
    def total_duration(self) -> float:
        return float(sum(d for _, d in self.events))

    @property
    def min_dwell(self) -> float:
        return float(min(d for _, d in self.events))


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
            issues.append(f"mode {q}: input count {mode.B.shape[1]} differs from mode 1 ({m})")
        if mode.C.shape[0] != p:
            issues.append(f"mode {q}: output count {mode.C.shape[0]} differs from mode 1 ({p})")
        for name in ("A", "B", "C"):
            if not np.all(np.isfinite(getattr(mode, name))):
                issues.append(f"mode {q}: {name} has non-finite entries")

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
    for i, j in _switches(model):
        if (i, j) in model.couplings:
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


def validated(model: LssModel) -> LssModel:
    """``model`` itself once it passes :func:`validate_model`; the one model gate.

    Raises :class:`DimensionError` listing every issue.  A pass is
    remembered on the model, a refusal never.
    """
    if not model._valid:
        report = validate_model(model)
        if not report.ok:
            raise DimensionError("invalid model: " + "; ".join(report.issues))
        object.__setattr__(model, "_valid", True)
    return model


def _dual(model: LssModel) -> LssModel:
    """The dual switched system of a model: A -> A', B -> C', C -> B',
    K[i,j] -> K[j,i]'; the observability Gramians of a model are the
    reachability Gramians of its dual.  ``x0`` has no counterpart there."""
    modes = tuple(ModeSystem(A=m.A.T, B=m.C.T, C=m.B.T) for m in model.modes)
    couplings = {(i, j): model.coupling(j, i).T for i, j in _switches(model)}
    return LssModel(modes=modes, couplings=couplings)


def _switches(model: LssModel) -> Iterator[tuple[int, int]]:
    """Every ordered pair (i, j), i != j, of 1-based modes."""
    return itertools.permutations(range(1, model.num_modes + 1), 2)


def _congruence(model: LssModel, left, right, x0: np.ndarray | None) -> LssModel:
    """The model in new coordinates, with ``x0`` as its initial state.

    Per mode q: A -> L_q A R_q, B -> L_q B and C -> C R_q.  The coupling
    from mode i to mode j becomes L_j K[i, j] R_i, implicit identities
    included, so the result stores every ordered pair.
    """
    modes = tuple(
        ModeSystem(A=L @ mode.A @ R, B=L @ mode.B, C=mode.C @ R)
        for mode, L, R in zip(model.modes, left, right)
    )
    couplings = {
        (i, j): left[j - 1] @ model.coupling(i, j) @ right[i - 1]
        for i, j in _switches(model)
    }
    return LssModel(modes=modes, couplings=couplings, x0=x0)
