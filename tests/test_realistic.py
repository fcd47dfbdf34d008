"""The pipeline at realistic sizes: each row of the scoreboard in ROADMAP item 2.

A row that returns silent garbage today is marked ``xfail(strict=True)``
with the ROADMAP item that must mend it, so the mending change has to flip it.
"""

import numpy as np
import pytest

from lssbal import InputSignal, SwitchingSignal, simulate

from oracles import heat_model


# The exponential reference gives max |y| of 1.2e-4 (n = 200) and 4.8e-5 (n = 400);
# fixed-step RK4 at the default dt leaves its stability region on both
# (h * rho(A) is 3.2 and 12.9), returning 1e273 at n = 200 and overflowing at n = 400.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("n", [200, 400])
def test_a_stiff_heat_model_simulates_to_bounded_outputs(n):
    traj = simulate(heat_model(n), SwitchingSignal(events=((1, 1.0), (2, 1.0))),
                    InputSignal.paper())
    assert np.isfinite(traj.outputs).all()
    assert np.abs(traj.outputs).max() < 1e-2
