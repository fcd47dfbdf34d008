"""The pipeline at realistic sizes: each row of the scoreboard in ROADMAP item 2.

A row that returns silent garbage today is marked ``xfail(strict=True)``
with the ROADMAP item that must mend it, so the mending change has to flip it.
A clean refusal by name is pinned as it stands.  Each row records its stage
seconds as user properties of its test item (what ``record_property`` writes,
without needing the junitxml plugin loaded), so the JUnit XML shows where
realistic sizes spend their time.
"""

import time

import numpy as np
import pytest

from lssbal import (
    BalancingError,
    InputSignal,
    LssError,
    ReductionPlan,
    StabilityError,
    SwitchingSignal,
    balance,
    certificates,
    compute_gramians,
    error_bound,
    random_stable_model,
    simulate,
    truncate,
)

from oracles import heat_model


def timed(seconds, name, call, *args):
    """``call(*args)``, with its wall-clock seconds stored under ``name``."""
    start = time.perf_counter()
    try:
        return call(*args)
    finally:
        seconds[name] = time.perf_counter() - start


def record(request, seconds):
    """Store each stage's seconds as a user property of the running test."""
    request.node.user_properties.extend(seconds.items())


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


# Orders 10,10.  The Gramians take 31 (reach) and 23 (obs) levels; mode 1's
# pair has sigma_min 3.1e-21 against sigma_max 1.7e-4, which square-root
# balancing cannot invert.  ROADMAP item 11 (projection onto the leading
# singular triplets) flips this row to a reduction.
def test_a_heat_model_with_a_singular_gramian_pair_is_refused_by_name(request):
    model, seconds = heat_model(200), {}
    gset = timed(seconds, "gramians_s", compute_gramians, model)
    with pytest.raises(BalancingError, match="^mode 1: Gramian pair is numerically singular"):
        timed(seconds, "balance_s", balance, model, gset)
    record(request, seconds)


@pytest.fixture(scope="module")
def random_row():
    """3x200 seed 1 at orders 20: the reduce chain's 2-beta, certificates and seconds."""
    model, seconds = random_stable_model(1, 3, [200] * 3, coupling_norm=0.07), {}
    gset = timed(seconds, "gramians_s", compute_gramians, model)
    bal = timed(seconds, "balance_s", balance, model, gset)
    plan = ReductionPlan.from_orders(bal, (20,) * 3)
    timed(seconds, "truncate_s", truncate, bal, plan)
    bound = error_bound(bal, plan)
    certs = timed(seconds, "certificates_s", certificates, model, gset)
    return bound, certs, seconds


# The reduction itself is fine (2-beta = 1.40e-3), but the certificates are
# vacuous: mu_obs is 3.2e12 s and mu_reach 8.1e12 s, and the stability
# certificate finds no decay rate for mode 1.  ROADMAP item 14 (rate-shifted
# Gramians), with item 11, flips this row.
def test_a_3x200_model_reduces_but_its_stability_certificate_refuses(random_row, request):
    bound, certs, seconds = random_row
    record(request, seconds)
    assert bound == pytest.approx(1.40e-3, rel=1e-2)
    assert isinstance(certs["stability"], StabilityError)
    assert str(certs["stability"]).startswith("mode 1 admits no decay rate")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_a_3x200_model_certifies_a_dwell_below_1e3_s(random_row):
    _, certs, _ = random_row
    for cert in certs.values():
        assert not isinstance(cert, LssError) and cert.mu < 1e3
