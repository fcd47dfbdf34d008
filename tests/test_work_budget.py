"""Work budget of one reduce pass, as the benchmark runs it.

A pass validates the model once, factors each mode matrix once and
measures each Gramian side once, however many public calls it makes on
the same model and Gramian set; a small model's series builds its dense
level map once per kind, and a wide one's never does.  The counts below
pin that, so repeated work cannot creep back in unnoticed.
"""

import numpy as np
import pytest

import lssbal
from lssbal import analysis, gramians


def reduce_pass(model, orders):
    """The calls of one benchmark reduce pass, in its order."""
    gset = lssbal.compute_gramians(model)
    for balance in (lssbal.balance, lssbal.balance_average):
        bal = balance(model, gset)
        plan = lssbal.ReductionPlan.from_orders(bal, orders)
        lssbal.truncate(bal, plan)
        lssbal.error_bound(bal, plan)
    lssbal.dwell_time(model, gset, side="obs")
    lssbal.dwell_time(model, gset, side="reach")
    lssbal.stability_certificate(model, gset)


def count(monkeypatch, module, name, calls, keep=lambda *a, **k: True):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("make, orders, level_maps", [
    (lssbal.three_mode_model, (1, 3, 2), 2),
    (lambda: lssbal.random_stable_model(1, 5, [100] * 5, coupling_norm=0.07), (10,) * 5, 0),
], ids=["paper", "wide"])
def test_reduce_pass_work(make, orders, level_maps, monkeypatch):
    model = make()
    calls = dict.fromkeys(["validate_model", "_gees", "_level_matrix", "_jump_factors",
                           "_check_pd", "eigvalsh", "allclose"], 0)
    count(monkeypatch, lssbal.model, "validate_model", calls)
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
                     "_jump_factors": 2, "_check_pd": 2 * D, "eigvalsh": 2 * D, "allclose": 0}
