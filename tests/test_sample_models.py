"""The random model generator: its argument refusals and its dimensions."""

import math
import re

import numpy as np
import pytest

import lssbal
from lssbal import DimensionError


@pytest.mark.parametrize("kwargs, message", [
    ({"num_modes": 2, "dims": [True, 2]}, "dims[0] must be an integer, got True"),
    ({"num_modes": 2, "dims": [2, 2.7]}, "dims[1] must be an integer, got 2.7"),
    ({"num_modes": 2, "dims": [2, 2], "coupling_norm": math.nan},
     "coupling_norm must be a finite real number, got nan"),
    ({"stability_margin": math.inf}, "stability_margin must be a finite real number, got inf"),
    ({"num_modes": 3, "dims": [2, 2]}, "dims lists 2 dimensions for num_modes 3"),
])
def test_refusals_name_their_argument(kwargs, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        lssbal.random_stable_model(1, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"num_modes": 0}, "num_modes must be at least 1, got 0"),
    ({"num_modes": -1, "dims": []}, "num_modes must be at least 1, got -1"),
    ({"dims": [0, 2]}, "dims[0] must be at least 1, got 0"),
    ({"dims": [2, -1]}, "dims[1] must be at least 1, got -1"),
    ({"num_inputs": -1}, "num_inputs must be at least 0, got -1"),
    ({"num_outputs": -2}, "num_outputs must be at least 0, got -2"),
])
def test_out_of_range_counts_refused_before_any_draw(kwargs, message):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(DimensionError, match=re.escape(message)):
        lssbal.random_stable_model(rng, **kwargs)
    assert rng.bit_generator.state == state


def test_dims_are_drawn_when_omitted():
    model = lssbal.random_stable_model(5, num_modes=4)
    assert len(model.dims) == 4 and all(2 <= n <= 4 for n in model.dims)
    assert lssbal.validate_model(model).ok


def test_integral_dims_of_any_type_are_kept():
    model = lssbal.random_stable_model(5, num_modes=2, dims=[np.int64(2), 3.0])
    assert model.dims == (2, 3)
