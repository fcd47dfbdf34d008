"""JSON model, signal and input files, and CSV trajectory export.

Model file schema (1-based mode indices, row-major matrices of finite
doubles)::

    {"couplings": [
    {"K": [[...]], "from": i, "to": j},
    ...
    ],
    "modes": [
    {"A": [[...]], "B": [[...]], "C": [[...]]},
    ...
    ],
    "x0": [...]?}

`save_model` writes sorted keys, one mode or coupling per line, through
``json``'s C encoder with shortest round-trip decimals, so emit -> parse
-> emit is byte-identical.  Any JSON layout of the same document loads,
the indented files of earlier versions included.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import DimensionError, ModelFormatError
from .model import LssModel, ModeSystem, SwitchingSignal
from .simulation import InputSignal, Trajectory, _require_same_grid

# Python types a JSON number decodes to; bool, str and None are not numbers.
_JSON_NUMBERS = {int, float}


def _array_from_json(obj, label: str, ndim: int = 2) -> np.ndarray:
    """Convert a JSON array of finite numbers (``ndim=1``) or a non-empty one
    of equal-length rows of them (``ndim=2``), checked as whole arrays."""
    rows = obj if ndim == 2 else [obj]
    if not isinstance(obj, list) or not rows or not all(isinstance(r, list) for r in rows):
        kind = "a non-empty array of arrays" if ndim == 2 else "an array of numbers"
        raise ModelFormatError(f"{label}: expected {kind}")
    width = len(rows[0])
    if all(len(row) == width and set(map(type, row)) <= _JSON_NUMBERS for row in rows):
        try:
            values = np.asarray(rows, dtype=float)
            if np.isfinite(values).all():
                return values if ndim == 2 else values[0]
        except OverflowError:  # an integer literal beyond float range
            pass
    # Name the first fault in row-major order.
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ModelFormatError(f"{label}: row {r} has length {len(row)}, expected {width}")
        for c, v in enumerate(row):
            if type(v) not in _JSON_NUMBERS or not abs(v) <= sys.float_info.max:
                where = f"({r},{c})" if ndim == 2 else c
                raise ModelFormatError(f"{label}: entry {where} is not a finite number")
    raise AssertionError(f"{label}: checked entries failed conversion")


def _known_keys(entry: dict, keys: tuple[str, ...], where) -> None:
    """Refuse the first key of ``entry`` that is not one of ``keys``, naming it and ``where``."""
    unknown = next((key for key in entry if key not in keys), None)
    if unknown is not None:
        raise ModelFormatError(f"{where}: unknown key {unknown!r}; keys are {', '.join(keys)}")


def model_from_dict(doc: dict) -> LssModel:
    """Build a model from a parsed JSON document; an unknown key is refused."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    _known_keys(doc, ("modes", "couplings", "x0"), "model document")
    raw_modes = doc.get("modes")
    if not isinstance(raw_modes, list) or not raw_modes:
        raise ModelFormatError("'modes' must be a non-empty array")
    modes = []
    for q, entry in enumerate(raw_modes, start=1):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"modes[{q}]: expected an object")
        _known_keys(entry, ("A", "B", "C"), f"modes[{q}]")
        for key in ("A", "B", "C"):
            if key not in entry:
                raise ModelFormatError(f"modes[{q}]: missing matrix '{key}'")
        A, B, C = (_array_from_json(entry[key], f"modes[{q}].{key}") for key in "ABC")
        modes.append(ModeSystem(A=A, B=B, C=C))
    raw_couplings = doc.get("couplings", [])
    if not isinstance(raw_couplings, list):
        raise ModelFormatError("'couplings' must be an array")
    couplings = {}
    for idx, entry in enumerate(raw_couplings):
        if not isinstance(entry, dict) or not {"from", "to", "K"} <= set(entry):
            raise ModelFormatError(f"couplings[{idx}]: need 'from', 'to' and 'K'")
        _known_keys(entry, ("from", "to", "K"), f"couplings[{idx}]")
        i, j = entry["from"], entry["to"]
        if type(i) is not int or type(j) is not int:
            raise ModelFormatError(f"couplings[{idx}]: 'from'/'to' must be integers")
        if (i, j) in couplings:
            raise ModelFormatError(f"couplings[{idx}]: duplicate pair ({i},{j})")
        couplings[(i, j)] = _array_from_json(entry["K"], f"couplings[{idx}].K")
    x0 = doc.get("x0")
    x0 = None if x0 is None else _array_from_json(x0, "x0", ndim=1)
    return LssModel(modes=tuple(modes), couplings=couplings, x0=x0)


def _model_doc(model: LssModel, leaf) -> dict:
    """The model file document, with each array passed through ``leaf``."""
    doc: dict = {
        "modes": [{"A": leaf(m.A), "B": leaf(m.B), "C": leaf(m.C)} for m in model.modes],
        "couplings": [
            {"from": i, "to": j, "K": leaf(K)} for (i, j), K in sorted(model.couplings.items())
        ],
    }
    if model.x0 is not None:
        doc["x0"] = leaf(model.x0)
    return doc


def model_to_dict(model: LssModel) -> dict:
    return _model_doc(model, np.ndarray.tolist)


def _model_lines(model: LssModel) -> Iterator[str]:
    """The model file text in chunks: sorted keys, one line per mode and per
    coupling, so a matrix is a list only while its own line is encoded."""
    encode = json.JSONEncoder(sort_keys=True, default=np.ndarray.tolist).encode
    head = "{"
    for key, value in sorted(_model_doc(model, np.asarray).items()):
        if key == "x0" or not value:
            yield f'{head}"{key}": {encode(value)}'
        else:
            yield f'{head}"{key}": [\n{encode(value[0])}'
            yield from (f",\n{encode(entry)}" for entry in value[1:])
            yield "\n]"
        head = ",\n"
    yield "}\n"


def dumps_canonical(doc) -> str:
    """Canonical JSON text: sorted keys, indent 2 and round-trip decimals."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_json(text: str, source) -> object:
    """Decode JSON text; ``source`` names it in error messages."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer literal, deep nesting
        raise ModelFormatError(f"{source}: invalid JSON: {exc}") from exc


def read_json(path) -> object:
    """Read and decode a UTF-8 JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    return parse_json(text, path)


def load_model(path) -> LssModel:
    return model_from_dict(read_json(path))


def save_model(model: LssModel, path) -> None:
    """Write the model file text of ``model``, one mode or coupling at a time."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_model_lines(model))


def signal_from_obj(obj) -> SwitchingSignal:
    """Parse ``[[mode, duration], ...]`` into a switching signal."""
    if not isinstance(obj, list) or not obj:
        raise ModelFormatError("signal must be a non-empty array of [mode, duration]")
    for idx, entry in enumerate(obj):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or type(entry[0]) is not int
            or type(entry[1]) not in _JSON_NUMBERS
        ):
            raise ModelFormatError(f"signal[{idx}]: expected [mode, duration]")
    try:
        return SwitchingSignal(events=tuple(obj))
    except DimensionError as exc:
        raise ModelFormatError(f"invalid signal: {exc}") from exc


def input_from_obj(obj, source) -> InputSignal:
    """Parse ``{"times": [...], "values": [...]}`` into a sampled input;
    ``values`` holds one number or one row of numbers per sample time; any
    other key is refused."""
    if not isinstance(obj, dict) or "times" not in obj or "values" not in obj:
        raise ModelFormatError(f"{source}: input file needs 'times' and 'values'")
    _known_keys(obj, ("times", "values"), source)
    values = obj["values"]
    nested = isinstance(values, list) and values and isinstance(values[0], list)
    times = _array_from_json(obj["times"], f"{source}: times", ndim=1)
    values = _array_from_json(values, f"{source}: values", ndim=2 if nested else 1)
    try:
        return InputSignal.from_samples(times, values)
    except DimensionError as exc:
        raise ModelFormatError(f"{source}: invalid input: {exc}") from exc


def signal_to_obj(signal: SwitchingSignal) -> list:
    return [[q, d] for q, d in signal.events]


# Rows per chunk of streamed CSV text; bounds the text held at once.
_CSV_CHUNK_ROWS = 4096


def trajectory_to_csv(traj: Trajectory, reduced: Trajectory | None = None) -> str:
    """Render a trajectory (optionally with a reduced twin) as CSV text.

    Columns: t, mode, u_1..u_m, y_1..y_p and, when given, yhat_1..yhat_p
    from the reduced run on the same grid (another grid is refused with a
    DimensionError).  Decimal formatting uses the shortest representation
    that round-trips.
    """
    return "".join(_trajectory_csv_chunks(traj, reduced))


def _trajectory_csv_chunks(
    traj: Trajectory, reduced: Trajectory | None = None
) -> Iterator[str]:
    """The text of :func:`trajectory_to_csv` as the header line, then blocks of rows.

    The grids are compared before the first chunk is made, so a caller
    that writes the chunks to a file never starts one for a mismatched pair.
    """
    m = traj.inputs.shape[1]
    p = traj.outputs.shape[1]
    header = ["t", "mode"]
    header += [f"u_{c + 1}" for c in range(m)]
    header += [f"y_{c + 1}" for c in range(p)]
    columns = [traj.inputs, traj.outputs]
    if reduced is not None:
        _require_same_grid(traj, reduced)
        header += [f"yhat_{c + 1}" for c in range(p)]
        columns.append(reduced.outputs)
    values = np.hstack(columns)

    def rows(start: int) -> str:
        # one list repr per float column gives every float's repr at once
        stop = start + _CSV_CHUNK_ROWS
        cells = [repr(col.tolist())[1:-1].split(", ")
                 for col in (traj.times[start:stop], *values[start:stop].T)]
        cells.insert(1, map(str, traj.modes[start:stop].tolist()))
        return "\n".join(map(",".join, zip(*cells))) + "\n"

    return itertools.chain(
        [",".join(header) + "\n"], map(rows, range(0, len(values), _CSV_CHUNK_ROWS))
    )

