"""Bundled demonstration model and random-model generators for tests."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .model import LssModel, ModeSystem, _integral, _real


def three_mode_model() -> LssModel:
    """The bundled three-mode single-input single-output demo system.

    Three stable diagonal modes of order 3 coupled by scaled copies of
    two fixed matrices; small enough to reduce and simulate instantly
    while exercising every part of the pipeline.
    """
    A1 = np.diag([-1.0, -8.0, -5.0])
    A2 = np.diag([-2.0, -9.0, -6.0])
    A3 = np.diag([-4.0, -3.0, -7.0])
    B1 = np.array([[1.0], [2.0], [-1.0]])
    B2 = np.array([[1.0], [-1.0], [1.5]])
    B3 = np.array([[-0.5], [-2.0], [1.0]])
    C1 = np.array([[-1.0, 1.0, 2.5]])
    C2 = np.array([[1.0, 2.0, -3.5]])
    C3 = np.array([[-1.5, 1.0, -0.5]])
    M = np.array([[1.0, -1.0, 0.0], [0.0, 2.0, -3.0], [1.0, 0.0, 0.5]])
    N = np.array([[0.0, 2.0, -0.5], [1.0, 1.0, -1.0], [0.0, 0.0, -3.0]])
    couplings = {
        (1, 2): M / 7.0,
        (2, 3): M / 4.0,
        (3, 1): M / 6.0,
        (2, 1): N / 5.0,
        (3, 2): N / 3.0,
        (1, 3): N / 2.0,
    }
    modes = (
        ModeSystem(A=A1, B=B1, C=C1),
        ModeSystem(A=A2, B=B2, C=C2),
        ModeSystem(A=A3, B=B3, C=C3),
    )
    return LssModel(modes=modes, couplings=couplings)


# The models `lssbal example` writes, by name.
EXAMPLES = {"paper-3mode": three_mode_model}


def _random_stable_matrix(rng: np.random.Generator, n: int, margin: float) -> np.ndarray:
    A = rng.normal(size=(n, n))
    shift = max(0.0, float(np.max(np.real(np.linalg.eigvals(A))))) + margin
    return A - shift * np.eye(n)


def _scaled_to_norm(rng: np.random.Generator, rows: int, cols: int, norm: float) -> np.ndarray:
    K = rng.normal(size=(rows, cols))
    s = np.linalg.norm(K, 2)
    if s > 0:
        K *= norm / s
    return K


def random_stable_model(
    seed,
    num_modes: int = 2,
    dims=None,
    num_inputs: int = 1,
    num_outputs: int = 1,
    coupling_norm: float = 0.2,
    stability_margin: float = 0.5,
) -> LssModel:
    """Random switched system with stable modes and bounded couplings.

    Every coupling matrix is rescaled to the requested spectral norm,
    which keeps the Gramian series convergent for moderate values.  A
    non-integral or out-of-range count, or a non-finite scale, is refused
    by name before anything is drawn.
    """
    num_modes = _integral(num_modes, "num_modes")
    num_inputs = _integral(num_inputs, "num_inputs")
    num_outputs = _integral(num_outputs, "num_outputs")
    for name, count, low in (("num_modes", num_modes, 1), ("num_inputs", num_inputs, 0),
                             ("num_outputs", num_outputs, 0)):
        if count < low:
            raise DimensionError(f"{name} must be at least {low}, got {count}")
    coupling_norm = _real(coupling_norm, "coupling_norm")
    stability_margin = _real(stability_margin, "stability_margin")
    rng = np.random.default_rng(seed)
    if dims is None:
        dims = [int(rng.integers(2, 5)) for _ in range(num_modes)]
    dims = [_integral(n, f"dims[{k}]") for k, n in enumerate(dims)]
    if len(dims) != num_modes:
        raise DimensionError(f"dims lists {len(dims)} dimensions for num_modes {num_modes}")
    for k, n in enumerate(dims):
        if n < 1:
            raise DimensionError(f"dims[{k}] must be at least 1, got {n}")
    modes = []
    for n in dims:
        modes.append(
            ModeSystem(
                A=_random_stable_matrix(rng, n, stability_margin),
                B=rng.normal(size=(n, num_inputs)),
                C=rng.normal(size=(num_outputs, n)),
            )
        )
    couplings = {}
    for i in range(1, num_modes + 1):
        for j in range(1, num_modes + 1):
            if i != j:
                couplings[(i, j)] = _scaled_to_norm(rng, dims[j - 1], dims[i - 1], coupling_norm)
    return LssModel(modes=tuple(modes), couplings=couplings)
