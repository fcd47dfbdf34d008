"""Model files through modelio: JSON arrays, signals, sampled inputs and the canonical writer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lssbal
from lssbal import LssModel, modelio
from lssbal.errors import ModelFormatError
from lssbal.modelio import _array_from_json

from oracles import canonical_json_by_encoder, matrix_from_json_by_scalar

HUGE_INT = 10**400  # an integer literal beyond float range

# One fault per generated matrix; "none" leaves it well formed.
FAULTS = {
    "none": None,
    "bool": True,
    "numeric string": "1.5",
    "null": None,
    "NaN": math.nan,
    "1e400": math.inf,  # what json.loads makes of 1e400
    "-1e400": -math.inf,
    "huge int": HUGE_INT,
    "negative huge int": -HUGE_INT,
    "empty list": [],
    "nested list": [1.0],
    "ragged row": "ragged",
    "row not an array": "scalar row",
    "no rows": "no rows",
}

numbers = st.one_of(
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def json_matrices(draw, fault):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    obj = [[draw(numbers) for _ in range(cols)] for _ in range(rows)]
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    if fault == "ragged row":
        obj[r] = obj[r] + [0.0] if draw(st.booleans()) else obj[r][:-1]
    elif fault == "row not an array":
        obj[r] = obj[r][0]
    elif fault == "no rows":
        obj = []
    elif fault != "none":
        obj[r][c] = FAULTS[fault]
    return obj


def _oracle(obj):
    try:
        return matrix_from_json_by_scalar(obj, "K")
    except (ModelFormatError, TypeError) as exc:
        return exc


@pytest.mark.parametrize("fault", list(FAULTS))
def test_matrix_checker_matches_scalar_oracle(fault):
    @settings(max_examples=25)
    @given(json_matrices(fault))
    def check(obj):
        expected = _oracle(obj)
        if isinstance(expected, np.ndarray):
            got = _array_from_json(obj, "K")
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            return
        with pytest.raises(ModelFormatError) as info:
            _array_from_json(obj, "K")
        if isinstance(expected, ModelFormatError):
            assert str(info.value) == str(expected)
        else:  # the oracle's np.isfinite raises TypeError on the huge integer
            r, c = next((r, c) for r, row in enumerate(obj) for c, v in enumerate(row)
                        if type(v) is int and abs(v) == HUGE_INT)
            assert str(info.value) == f"K: entry ({r},{c}) is not a finite number"

    check()


def _array_bytes(model):
    """Every array of a model, as (name, dtype, shape, bytes)."""
    named = [(f"{name}{q}", getattr(mode, name)) for q, mode in enumerate(model.modes, 1)
             for name in ("A", "B", "C", "E")]
    named += [(f"K{pair}", K) for pair, K in sorted(model.couplings.items())]
    named.append(("x0", model.x0))
    return [(name, None) if a is None else (name, a.dtype, a.shape, a.tobytes())
            for name, a in named]


def test_model_file_round_trip_is_exact(tmp_path):
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           with_x0=st.booleans())
    def check(seed, dims, with_x0):
        model = lssbal.random_stable_model(seed, num_modes=len(dims), dims=dims)
        if with_x0:
            x0 = np.random.default_rng(seed).normal(size=dims[0])
            model = LssModel(modes=model.modes, couplings=model.couplings, x0=x0)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        modelio.save_model(model, first)
        loaded = modelio.load_model(first)
        assert _array_bytes(loaded) == _array_bytes(model)
        modelio.save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    check()


EDGE_FLOATS = [-0.0, 5e-324, 0.1, 1e16, 1e22, math.nan, math.inf, -math.inf]
EDGE_STRINGS = ['"', "\\", "caf\u00e9 \u2603 \U0001d11e", "\x00\x1f\n\t\x7f", "\u2028"]

json_floats = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.floats().map(np.float64)
)
json_scalars = st.one_of(
    json_floats,
    st.integers(),
    st.just(2**60),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(EDGE_STRINGS),
)


def _json_containers(children):
    # keys of one sortable family per object, as json's sort_keys needs
    keys = [
        st.one_of(st.text(), st.sampled_from(EDGE_STRINGS)),
        st.one_of(st.integers(), json_floats, st.booleans()),
        st.none(),
    ]
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), json_floats), max_size=4),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        *(st.dictionaries(k, children, max_size=4) for k in keys),
    )


def test_canonical_text_matches_the_json_encoder():
    edge = {"floats": EDGE_FLOATS, "row": EDGE_FLOATS[:5], "strings": EDGE_STRINGS,
            "mixed": [1, 0.5, True, None, np.float64(0.1)], "empty": [[], {}, ()],
            "keys": {1: 0, 2.5: 1, True: 2, math.inf: 3}, "none": {None: 2**60}}
    assert modelio.dumps_canonical(edge) == canonical_json_by_encoder(edge)

    @settings(max_examples=50)
    @given(st.recursive(json_scalars, _json_containers, max_leaves=10))
    def check(doc):
        assert modelio.dumps_canonical(doc) == canonical_json_by_encoder(doc)

    check()


def test_save_model_streams_its_text(tmp_path):
    model = lssbal.random_stable_model(0, 3, [40] * 3)
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        modelio.save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The document's lists take about the file's size (1.1x measured); a
    # writer that builds the whole text first peaks near 4.9x.
    assert peak < 2.0 * path.stat().st_size


@pytest.mark.parametrize("raw, message", [
    ([1.0, True], "x0: entry 1 is not a finite number"),
    (["1.0"], "x0: entry 0 is not a finite number"),
    ([0.5, None], "x0: entry 1 is not a finite number"),
    ([math.nan], "x0: entry 0 is not a finite number"),
    ([1, -HUGE_INT], "x0: entry 1 is not a finite number"),
    ([[1.0]], "x0: entry 0 is not a finite number"),
    (2.0, "x0: expected an array of numbers"),
])
def test_x0_faults_name_the_entry(paper_model, raw, message):
    doc = modelio.model_to_dict(paper_model)
    doc["x0"] = raw
    with pytest.raises(ModelFormatError) as info:
        modelio.model_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("raw", [[1, -2.5, 2**60], []])
def test_x0_converts_like_numpy(paper_model, raw):
    doc = modelio.model_to_dict(paper_model)
    doc["x0"] = raw
    x0 = modelio.model_from_dict(doc).x0
    expected = np.asarray(raw, dtype=float)
    assert x0.shape == expected.shape and x0.tobytes() == expected.tobytes()


@pytest.mark.parametrize("raw", [True, 1.0, "1"])
def test_coupling_index_must_be_an_integer(paper_model, raw):
    doc = modelio.model_to_dict(paper_model)
    doc["couplings"][0]["from"] = raw
    with pytest.raises(ModelFormatError, match="'from'/'to' must be integers"):
        modelio.model_from_dict(doc)


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "model document must be a JSON object"),
    (lambda doc: doc | {"modes": []}, "'modes' must be a non-empty array"),
    (lambda doc: doc | {"modes": [doc["modes"][0], [1.0]]}, r"modes\[2\]: expected an object"),
    (lambda doc: doc | {"modes": [_without(doc["modes"][0], "B")]},
     r"modes\[1\]: missing matrix 'B'"),
    (lambda doc: doc | {"couplings": [_without(doc["couplings"][0], "K")]},
     r"couplings\[0\]: need 'from', 'to' and 'K'"),
    (lambda doc: doc | {"couplings": None}, "'couplings' must be an array"),
    (lambda doc: doc | {"couplings": 3}, "'couplings' must be an array"),
    (lambda doc: doc | {"couplings": "K"}, "'couplings' must be an array"),
    (lambda doc: doc | {"couplings": doc["couplings"][0]}, "'couplings' must be an array"),
    (lambda doc: _without(doc, "couplings") | {"coupling": doc["couplings"]},
     r"model document: unknown key 'coupling'; keys are modes, couplings, x0"),
    (lambda doc: doc | {"modes": [doc["modes"][0] | {"D": [[0.0]]}]},
     r"modes\[1\]: unknown key 'D'; keys are A, B, C, E"),
    (lambda doc: doc | {"couplings": [doc["couplings"][0] | {"k": 1}]},
     r"couplings\[0\]: unknown key 'k'; keys are from, to, K"),
])
def test_model_document_faults(paper_model, edit, message):
    with pytest.raises(ModelFormatError, match=message):
        modelio.model_from_dict(edit(modelio.model_to_dict(paper_model)))


@pytest.mark.parametrize("obj, match", [
    ([[True, 1.5]], r"signal\[0\]: expected \[mode, duration\]"),
    ([[1, 0.5], [2, False]], r"signal\[1\]: expected \[mode, duration\]"),
    ([[1, "1.5"]], r"signal\[0\]: expected \[mode, duration\]"),
    ([[1.0, 1.5]], r"signal\[0\]: expected \[mode, duration\]"),
    ([[1, 0.5], [2, math.nan]], "event 1: duration must be finite and positive"),
    ([[1, math.inf]], "event 0: duration must be finite and positive"),
    ([[1, 0]], "event 0: duration must be finite and positive"),
    ([[1, HUGE_INT]], "too large"),
    ([], "signal must be a non-empty array of"),
])
def test_signal_faults(obj, match):
    with pytest.raises(ModelFormatError, match=match):
        modelio.signal_from_obj(obj)


class TestSampledInput:
    def test_columns_and_single_input(self):
        u = modelio.input_from_obj({"times": [0, 1, 2], "values": [[0, 1], [1, 0], [2, 2]]}, "f")
        np.testing.assert_array_equal(u(1.0), [[1.0, 0.0]])
        u = modelio.input_from_obj({"times": [0, 1], "values": [0.5, 1]}, "f")
        assert u.width == 1 and u.sample_values.shape == (2, 1)

    @pytest.mark.parametrize("doc, message", [
        ({"times": [0, 1, math.nan], "values": [1, 2, 3]},
         "in.json: times: entry 2 is not a finite number"),
        ({"times": [0, 1], "values": ["1", 2]},
         "in.json: values: entry 0 is not a finite number"),
        ({"times": [0, 1], "values": [[1], [True]]},
         "in.json: values: entry (1,0) is not a finite number"),
        ({"times": [0, 1], "values": [[1], [2, 3]]},
         "in.json: values: row 1 has length 2, expected 1"),
        ({"times": None, "values": [1]},
         "in.json: times: expected an array of numbers"),
        ({"times": [0.0]}, "in.json: input file needs 'times' and 'values'"),
        ({"times": [0, 1], "values": [1, 2], "kind": "samples"},
         "in.json: unknown key 'kind'; keys are times, values"),
    ])
    def test_faults_name_file_and_field(self, doc, message):
        with pytest.raises(ModelFormatError) as info:
            modelio.input_from_obj(doc, "in.json")
        assert str(info.value) == message

    def test_no_samples(self):
        with pytest.raises(ModelFormatError, match="in.json: invalid input: .*non-empty"):
            modelio.input_from_obj({"times": [], "values": []}, "in.json")


class TestReadJson:
    def test_decode_error_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "modes": [1,\n}')
        with pytest.raises(ModelFormatError, match=r"bad\.json: invalid JSON at line 3, column 1"):
            modelio.read_json(path)

    def test_inline_text_uses_the_same_decode(self):
        with pytest.raises(ModelFormatError, match="inline: invalid JSON at line 1, column 9"):
            modelio.parse_json("[[1, 0.5", "inline")

    @pytest.mark.parametrize("content", [
        b"\xff\xfe[]",                           # not UTF-8
        b"[" * 100_000,                          # nesting past the recursion limit
        b"[1" + b"0" * 5000 + b"]",              # past the integer digit limit
    ])
    def test_unreadable_or_undecodable_file(self, tmp_path, content):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        with pytest.raises(ModelFormatError, match="in.json"):
            modelio.read_json(path)

    def test_directory(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            modelio.read_json(tmp_path)
