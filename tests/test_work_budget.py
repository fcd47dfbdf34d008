"""Work budget of one reduce pass and one validate pass, as the benchmark runs them.

A reduce pass validates the model once, factors each mode matrix once,
factors each Gramian once for balancing and the certificates alike and
measures each Gramian side once, however many public calls it makes
on the same model and Gramian set; a small model's series builds its
dense level map once per kind, and a wide one's never does.  The
certificates take the dual model and the coupling sums from the solve,
and truncation slices the balanced model.  A validate
pass builds each mode's RK4 step maps once per (mode, step size, step
count) of each simulation and samples its input once for all three
simulations plus once for its L2 norm.  The CLI's `simulate --reduced`
and `compare` run one reduce chain and one validation each.  The counts
below pin that, so repeated work cannot creep back in unnoticed.
"""

import numpy as np
import pytest

import lssbal
from lssbal import SwitchingSignal, analysis, balancing, cli, gramians, simulation


def reduce_pass(model, orders):
    """The calls of one benchmark reduce pass, in its order; returns the
    models reduced by each balancing."""
    gset = lssbal.compute_gramians(model)
    reduced = []
    for balance in (lssbal.balance, lssbal.balance_average):
        bal = balance(model, gset)
        plan = lssbal.ReductionPlan.from_orders(bal, orders)
        reduced.append(lssbal.truncate(bal, plan))
        lssbal.error_bound(bal, plan)
    lssbal.dwell_time(model, gset, side="obs")
    lssbal.dwell_time(model, gset, side="reach")
    lssbal.stability_certificate(model, gset)
    return reduced


def validate_pass(model, reduced, signal, dt):
    """The calls of one benchmark validate pass, in its order; returns the
    trajectories of the model and of each reduction."""
    u = lssbal.InputSignal.paper(model.num_inputs)
    trajs = [lssbal.simulate(model, signal, u, dt=dt)]
    for red in reduced:
        trajs.append(lssbal.simulate(red, signal, u, dt=dt))
        lssbal.output_l2_error(trajs[0], trajs[-1])
    lssbal.input_l2(u, signal.total_duration, dt=dt)
    return trajs


def count(monkeypatch, module, name, calls, keep=lambda *a, **k: True):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def wide_model():
    return lssbal.random_stable_model(1, 5, [100] * 5, coupling_norm=0.07)


@pytest.mark.parametrize("make, orders, level_maps, forcings", [
    (lssbal.three_mode_model, (1, 3, 2), 2, 2),
    # 5 levels per kind, the last four each from one coupling forcing
    (wide_model, (10,) * 5, 0, 10),
], ids=["paper", "wide"])
def test_reduce_pass_work(make, orders, level_maps, forcings, monkeypatch):
    model = make()
    calls = dict.fromkeys(["validate_model", "_gees", "_level_matrix", "_jump_factors",
                           "_check_pd", "eigvalsh", "allclose", "cholesky", "_lower_inverse",
                           "_dual", "_coupling_forcing", "_congruence"], 0)
    count(monkeypatch, lssbal.model, "validate_model", calls)
    # one factor per Gramian, shared by balancing and the certificates, plus
    # one per averaged Gramian; one inverse per Gramian factor; one dual model,
    # for the obs series, whose certificate side reuses it
    count(monkeypatch, np.linalg, "cholesky", calls)
    count(monkeypatch, analysis, "_lower_inverse", calls)
    count(monkeypatch, lssbal.model, "_dual", calls)
    count(monkeypatch, gramians, "_dual", calls)
    # the wide series' level forcings and one residual check per kind; the
    # dwell rates read that check's coupling sums
    count(monkeypatch, gramians, "_coupling_forcing", calls)
    count(monkeypatch, analysis, "_coupling_forcing", calls)
    # one change of coordinates per balancing; truncation slices
    count(monkeypatch, lssbal.model, "_congruence", calls)
    count(monkeypatch, balancing, "_congruence", calls)
    # a workspace query factors nothing
    count(monkeypatch, gramians, "_gees", calls, lambda *a, **k: k.get("lwork") != -1)
    count(monkeypatch, gramians, "_level_matrix", calls)
    count(monkeypatch, analysis, "_jump_factors", calls)
    count(monkeypatch, analysis, "_check_pd", calls)
    count(monkeypatch, np, "allclose", calls)
    # one spectrum per Gramian; the coupling sums' definiteness is read off
    # the whitened rates the dwell time needs anyway
    count(monkeypatch, np.linalg, "eigvalsh", calls)
    reduce_pass(model, orders)
    D = model.num_modes
    assert calls == {"validate_model": 1, "_gees": D, "_level_matrix": level_maps,
                     "_jump_factors": 2, "_check_pd": 2 * D, "eigvalsh": 2 * D, "allclose": 0,
                     "cholesky": 2 * D + 2, "_lower_inverse": 2 * D, "_dual": 1,
                     "_coupling_forcing": forcings, "_congruence": 2}


@pytest.mark.parametrize("make", [lssbal.three_mode_model, wide_model], ids=["paper", "wide"])
def test_certificates_do_not_depend_on_the_solve_record(make, monkeypatch):
    """A set built by hand from the same matrices, and a solved set used with
    a second model object of the same dims, build the dual model and the
    coupling sums afresh and certify exactly as the solved set does."""
    model = make()
    want = lssbal.certificates(model, lssbal.compute_gramians(model))
    solved = lssbal.compute_gramians(model)
    by_hand = lssbal.GramianSet(reach=solved.reach, obs=solved.obs,
                                reach_diagnostics=solved.reach_diagnostics,
                                obs_diagnostics=solved.obs_diagnostics)
    twin = lssbal.LssModel(modes=model.modes, couplings=model.couplings)
    for args in ((model, by_hand), (twin, solved)):
        calls = dict.fromkeys(["_dual", "_coupling_forcing"], 0)
        count(monkeypatch, gramians, "_dual", calls)
        count(monkeypatch, analysis, "_coupling_forcing", calls)
        assert lssbal.certificates(*args) == want
        assert calls == {"_dual": 1, "_coupling_forcing": 2}
        monkeypatch.undo()


@pytest.mark.parametrize("make, orders, signal, dt, builds", [
    # the walk of paper-validate seed 1: modes 2 and 3 return, but every
    # dwell differs, so no step size recurs
    (lssbal.three_mode_model, (1, 3, 2),
     SwitchingSignal(events=((2, 243.593), (3, 228.369), (2, 235.981), (3, 251.205))), 0.02, 4),
    # the walk of wide-reduce seed 1: 1 s dwells, five distinct modes in eight
    (wide_model, (10,) * 5,
     SwitchingSignal(events=tuple((q, 1.0) for q in (4, 2, 5, 2, 1, 3, 1, 3))), 1e-3, 5),
], ids=["paper", "wide"])
def test_validate_pass_work(make, orders, signal, dt, builds, monkeypatch):
    model = make()
    reduced = reduce_pass(model, orders)
    calls = dict.fromkeys(["_rk4_step_operators", "_lift", "__call__"], 0)
    for name in ("_rk4_step_operators", "_lift"):
        count(monkeypatch, simulation, name, calls)
    count(monkeypatch, simulation.InputSignal, "__call__", calls)
    trajs = validate_pass(model, reduced, signal, dt)
    # three simulations: the full model and its two reductions; one
    # sampling (u at t = 0, then each interval's grid and midpoints) and
    # one evaluation for the input's L2 norm
    assert calls == {"_rk4_step_operators": 3 * builds, "_lift": 3 * builds,
                     "__call__": 2 + 2 * len(signal.events)}
    for name in ("times", "modes", "inputs"):
        assert all(getattr(traj, name) is getattr(trajs[0], name) for traj in trajs)


@pytest.mark.parametrize("command, want", [
    # the random signal's dwell is the certified one the reduce chain found
    (["simulate", "--model", "{tmp}/model.json", "--reduced", "{tmp}/reduced.json",
      "--signal", "random:seed=1,count=4", "--input", "paper", "--dt", "0.05"],
     {"compute_gramians": 1, "simulate": 2, "input_l2": 1, "output_l2_error": 1}),
    # equal mode dims: the mode-wise and the average arm
    (["compare", "--model", "{tmp}/model.json", "--orders", "2,2,2", "--dt", "0.01"],
     {"compute_gramians": 1, "simulate": 3, "input_l2": 1, "output_l2_error": 2}),
], ids=["simulate-reduced", "compare"])
def test_cli_flow_work(command, want, tmp_path, monkeypatch, capsys):
    model_file, reduced_file = tmp_path / "model.json", tmp_path / "reduced.json"
    lssbal.save_model(lssbal.three_mode_model(), model_file)
    assert cli.main(["reduce", "--model", str(model_file), "--orders", "1,3,2",
                     "--out", str(reduced_file)]) == 0
    calls = dict.fromkeys(want, 0)
    count(monkeypatch, gramians, "compute_gramians", calls)
    for name in ("simulate", "input_l2", "output_l2_error"):
        count(monkeypatch, simulation, name, calls)
    assert cli.main([arg.format(tmp=tmp_path) for arg in command]) == 0
    assert calls == want
