"""JSON model files and CSV trajectory export.

Model file schema (1-based mode indices, row-major matrices of finite
doubles)::

    {
      "modes": [{"A": [[...]], "B": [[...]], "C": [[...]], "E": [[...]]?}, ...],
      "couplings": [{"from": i, "to": j, "K": [[...]]}, ...],
      "x0": [...]?
    }

Serialization is canonical (sorted keys, fixed indentation, shortest
round-trip decimals), so emit -> parse -> emit is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .model import LssModel, ModeSystem, SwitchingSignal
from .simulation import Trajectory


def _matrix_from_json(obj, label: str) -> np.ndarray:
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


def model_from_dict(doc: dict) -> LssModel:
    """Build a model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    raw_modes = doc.get("modes")
    if not isinstance(raw_modes, list) or not raw_modes:
        raise ModelFormatError("'modes' must be a non-empty array")
    modes = []
    for q, entry in enumerate(raw_modes, start=1):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"modes[{q}]: expected an object")
        for key in ("A", "B", "C"):
            if key not in entry:
                raise ModelFormatError(f"modes[{q}]: missing matrix '{key}'")
        E = None
        if "E" in entry and entry["E"] is not None:
            E = _matrix_from_json(entry["E"], f"modes[{q}].E")
        modes.append(
            ModeSystem(
                A=_matrix_from_json(entry["A"], f"modes[{q}].A"),
                B=_matrix_from_json(entry["B"], f"modes[{q}].B"),
                C=_matrix_from_json(entry["C"], f"modes[{q}].C"),
                E=E,
            )
        )
    couplings = {}
    for idx, entry in enumerate(doc.get("couplings", [])):
        if not isinstance(entry, dict) or not {"from", "to", "K"} <= set(entry):
            raise ModelFormatError(f"couplings[{idx}]: need 'from', 'to' and 'K'")
        i, j = entry["from"], entry["to"]
        if not isinstance(i, int) or not isinstance(j, int):
            raise ModelFormatError(f"couplings[{idx}]: 'from'/'to' must be integers")
        if (i, j) in couplings:
            raise ModelFormatError(f"couplings[{idx}]: duplicate pair ({i},{j})")
        couplings[(i, j)] = _matrix_from_json(entry["K"], f"couplings[{idx}].K")
    x0 = None
    if "x0" in doc and doc["x0"] is not None:
        raw = doc["x0"]
        if not isinstance(raw, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)
            for v in raw
        ):
            raise ModelFormatError("'x0' must be an array of finite numbers")
        x0 = np.asarray(raw, dtype=float)
    return LssModel(modes=tuple(modes), couplings=couplings, x0=x0)


def model_to_dict(model: LssModel) -> dict:
    doc: dict = {"modes": []}
    for mode in model.modes:
        entry = {
            "A": mode.A.tolist(),
            "B": mode.B.tolist(),
            "C": mode.C.tolist(),
        }
        if mode.E is not None:
            entry["E"] = mode.E.tolist()
        doc["modes"].append(entry)
    doc["couplings"] = [
        {"from": i, "to": j, "K": K.tolist()}
        for (i, j), K in sorted(model.couplings.items())
    ]
    if model.x0 is not None:
        doc["x0"] = model.x0.tolist()
    return doc


def dumps_canonical(doc) -> str:
    """Canonical JSON text: stable ordering and round-trip decimals."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_model(path) -> LssModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return model_from_dict(doc)


def save_model(model: LssModel, path) -> None:
    Path(path).write_text(dumps_canonical(model_to_dict(model)), encoding="utf-8")


def signal_from_obj(obj) -> SwitchingSignal:
    """Parse ``[[mode, duration], ...]`` into a switching signal."""
    if not isinstance(obj, list) or not obj:
        raise ModelFormatError("signal must be a non-empty array of [mode, duration]")
    events = []
    for idx, entry in enumerate(obj):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], (int, float))
        ):
            raise ModelFormatError(f"signal[{idx}]: expected [mode, duration]")
        events.append((int(entry[0]), float(entry[1])))
    try:
        return SwitchingSignal(events=tuple(events))
    except Exception as exc:
        raise ModelFormatError(f"invalid signal: {exc}") from exc


def signal_to_obj(signal: SwitchingSignal) -> list:
    return [[q, d] for q, d in signal.events]


def trajectory_to_csv(traj: Trajectory, reduced: Trajectory | None = None) -> str:
    """Render a trajectory (optionally with a reduced twin) as CSV text.

    Columns: t, mode, u_1..u_m, y_1..y_p and, when given, yhat_1..yhat_p
    from the reduced run on the same grid.  Decimal formatting uses the
    shortest representation that round-trips.
    """
    m = traj.inputs.shape[1]
    p = traj.outputs.shape[1]
    header = ["t", "mode"]
    header += [f"u_{c + 1}" for c in range(m)]
    header += [f"y_{c + 1}" for c in range(p)]
    columns = [traj.inputs, traj.outputs]
    if reduced is not None:
        if reduced.times.shape != traj.times.shape or not np.array_equal(
            reduced.times, traj.times
        ):
            raise ModelFormatError("reduced trajectory is on a different grid")
        header += [f"yhat_{c + 1}" for c in range(p)]
        columns.append(reduced.outputs)
    lines = [",".join(header)]
    for t, q, values in zip(traj.times.tolist(), traj.modes.tolist(),
                            np.hstack(columns).tolist()):
        lines.append(",".join([repr(t), str(q), *map(repr, values)]))
    return "\n".join(lines) + "\n"


def frequency_csv(omegas, response) -> str:
    """CSV of magnitude and phase samples for every transfer entry."""
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    response = np.asarray(response)
    p, m = response.shape[1], response.shape[2]
    header = ["omega"]
    for i in range(p):
        for j in range(m):
            suffix = "" if p == 1 and m == 1 else f"_{i + 1}_{j + 1}"
            header += [f"mag{suffix}", f"phase{suffix}"]
    lines = [",".join(header)]
    # (omega, p, m, 2) -> one row per omega, entries in header order
    values = np.stack([np.abs(response), np.angle(response)], axis=-1)
    for w, row in zip(omegas.tolist(), values.reshape(omegas.shape[0], -1).tolist()):
        lines.append(",".join(map(repr, [w, *row])))
    return "\n".join(lines) + "\n"
