import dataclasses
import re
import sys
import threading

import numpy as np
import pytest

import lssbal
from lssbal import (
    AssumptionError,
    BalancingError,
    DimensionError,
    LssError,
    GramianSet,
    LssModel,
    ModeSystem,
    ReductionPlan,
    StabilityError,
    SwitchingSignal,
    certificates,
    dwell_time,
    simulate,
    stability_certificate,
    truncate,
)
from lssbal import analysis, cli
from lssbal.gramians import SolveDiagnostics

from golden import PAPER_CERTIFICATES
from oracles import (
    balanced_model,
    exact_states,
    heat_model,
    level_k_gramians,
    truncated_sigma,
    verify_energy_bounds,
    verify_relaxed_gramians,
)


def make_gramian_set(reach, obs):
    diag = SolveDiagnostics(increments=(0.0,), residuals=(0.0,))
    return GramianSet(
        reach=tuple(np.asarray(P, dtype=float) for P in reach),
        obs=tuple(np.asarray(Q, dtype=float) for Q in obs),
        reach_diagnostics=diag,
        obs_diagnostics=diag,
    )


def scalar_pair_model(k=2.0, a=-1.0):
    m = ModeSystem(A=[[a]], B=[[1.0]], C=[[1.0]])
    K = np.array([[k]])
    return LssModel(modes=(m, m), couplings={(1, 2): K, (2, 1): K})


class TestDwellTime:
    def test_scalar_hand_computation(self):
        model = scalar_pair_model(k=2.0)
        gset = make_gramian_set([[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]])
        cert = dwell_time(model, gset, side="obs")
        # the fixed slack shrinks the pair factor 1 / k^2, not the rate
        gamma = 0.25 * (1.0 - analysis.SLACK)
        assert cert.slack == analysis.SLACK == 1e-6
        assert cert.M == pytest.approx(4.0, rel=1e-15)
        assert cert.gamma == pytest.approx(gamma, rel=1e-15)
        assert cert.mu == pytest.approx(-np.log(gamma) / 4.0, rel=1e-15)
        assert cert.assumption == "observability-side"

    def test_zero_couplings_violate_assumption(self):
        model = scalar_pair_model(k=0.0)
        gset = make_gramian_set([[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]])
        with pytest.raises(AssumptionError, match="not positive definite"):
            dwell_time(model, gset, side="obs")

    @pytest.mark.parametrize("side", ["obs", "reach"])
    def test_paper_model_has_finite_dwell(self, paper_model, paper_gramians, side):
        cert = dwell_time(paper_model, paper_gramians, side=side)
        assert np.isfinite(cert.mu) and cert.mu > 0
        assert 0 < cert.gamma < 1

    def test_certificate_inequalities_hold(self, paper_model, paper_gramians):
        cert = dwell_time(paper_model, paper_gramians, side="obs")
        Q = paper_gramians.obs
        D = paper_model.num_modes
        for i in range(1, D + 1):
            coupled = np.zeros_like(Q[i - 1])
            for j in range(1, D + 1):
                if j == i:
                    continue
                K = paper_model.coupling(i, j)
                pair = K.T @ Q[j - 1] @ K
                coupled += pair
                # gamma * K'QK < Q with margin
                gap = Q[i - 1] - cert.gamma * pair
                scale = np.linalg.norm(Q[i - 1])
                assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * scale
            gap = coupled - cert.M * Q[i - 1]
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * np.linalg.norm(coupled)

    def test_reach_certificate_inequalities_hold(self, paper_model, paper_gramians):
        cert = dwell_time(paper_model, paper_gramians, side="reach")
        P = paper_gramians.reach
        inv = [np.linalg.inv(X) for X in P]
        D = paper_model.num_modes
        for i in range(1, D + 1):
            coupled = np.zeros_like(P[i - 1])
            for j in range(1, D + 1):
                if j == i:
                    continue
                K = paper_model.coupling(j, i)
                coupled += K @ P[j - 1] @ K.T
                gap = inv[i - 1] - cert.gamma * (K @ inv[j - 1] @ K.T)
                assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * np.linalg.norm(inv[i - 1])
            gap = coupled - cert.M * P[i - 1]
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * np.linalg.norm(coupled)

    def test_non_pd_gramians_rejected(self, paper_model):
        bad = make_gramian_set(
            [np.diag([1.0, 1.0, 0.0])] * 3, [np.eye(3)] * 3
        )
        with pytest.raises(AssumptionError):
            dwell_time(paper_model, bad, side="reach")


def _energy_bounds_on_side(model, gset, side):
    signal = SwitchingSignal(events=((1, 0.1),))
    traj = simulate(model, signal, u=None, x0=np.zeros(3), dt=0.05)
    states = exact_states(model, signal, np.zeros(3), 0.05)
    return verify_energy_bounds(model, gset, traj, signal, states, side=side)


@pytest.mark.parametrize("call, name, kind", [
    (lambda model, gset, kind: lssbal.solve_coupled(model, kind), "kind", "observability"),
    (lambda model, gset, kind: level_k_gramians(model, 2, kind=kind), "kind", "Reach"),
    (lambda model, gset, kind: dwell_time(model, gset, side=kind), "side", "ctrl"),
    (_energy_bounds_on_side, "side", "Obs"),
], ids=["solve_coupled", "level_k_gramians", "dwell_time", "verify_energy_bounds"])
def test_unknown_kind_or_side_rejected(paper_model, paper_gramians, call, name, kind):
    with pytest.raises(DimensionError, match=f"{name} must be 'reach' or 'obs', got '{kind}'"):
        call(paper_model, paper_gramians, kind)


def test_side_named_like_a_gramian_factor_rejected(fresh_paper_model, fresh_paper_gramians):
    # the set keeps its Gramian factors beside its sides, under names like "P[1]"
    lssbal.balance(fresh_paper_model, fresh_paper_gramians)
    with pytest.raises(DimensionError, match="side must be 'reach' or 'obs', got 'P\\[1\\]'"):
        dwell_time(fresh_paper_model, fresh_paper_gramians, side="P[1]")


class TestRelaxedGramians:
    def test_true_gramians_pass_below_dwell_rate(self, paper_model, paper_gramians):
        rate = 0.5 * min(
            dwell_time(paper_model, paper_gramians, "obs").M,
            dwell_time(paper_model, paper_gramians, "reach").M,
        )
        report = verify_relaxed_gramians(
            paper_model, rate, reach=paper_gramians.reach, obs=paper_gramians.obs
        )
        assert report.passed
        assert all(m < 0 for m in report.reach_margins + report.obs_margins)
        assert report.to_dict()["passed"] is True

    def test_huge_rate_fails(self, paper_model, paper_gramians):
        report = verify_relaxed_gramians(
            paper_model, 1e6, reach=paper_gramians.reach, obs=paper_gramians.obs
        )
        assert not report.passed

    def test_truncated_diagonals_pass_at_certified_rate(
        self, paper_model, paper_gramians, paper_balanced
    ):
        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        red = truncate(paper_balanced, plan)
        lam_hat = [np.diag(s) for s in truncated_sigma(paper_balanced, plan)]
        rate = min(
            dwell_time(paper_model, paper_gramians, "obs").M,
            dwell_time(paper_model, paper_gramians, "reach").M,
        )
        report = verify_relaxed_gramians(red, rate, reach=lam_hat, obs=lam_hat)
        assert report.passed


class TestEnergyBounds:
    def test_zero_everything_holds_trivially(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 240.0), (2, 240.0)))
        traj = simulate(paper_model, signal, u=None, x0=np.zeros(3), dt=5e-3)
        states = exact_states(paper_model, signal, np.zeros(3), 5e-3)
        for side in ("obs", "reach"):
            report = verify_energy_bounds(
                paper_model, paper_gramians, traj, signal, states, side=side
            )
            assert report.passed

    def test_paper_observability_inequality(self, paper_model, paper_gramians):
        mu = dwell_time(paper_model, paper_gramians, "obs").mu
        dur = np.ceil(mu) + 2.0
        signal = SwitchingSignal(events=((1, dur), (2, dur), (3, dur)))
        x0 = np.array([1.0, 0.0, 0.0])
        traj = simulate(paper_model, signal, u=None, x0=x0, dt=1e-3)
        report = verify_energy_bounds(
            paper_model, paper_gramians, traj, signal,
            exact_states(paper_model, signal, x0, 1e-3), side="obs"
        )
        assert report.passed
        # the bound is meaningfully tight: observed energy reaches a
        # sizable fraction of the certified budget
        assert report.rhs[-1] > 0.5 * report.lhs[0]

    def test_paper_reachability_inequality(self, paper_model, paper_gramians):
        mu = dwell_time(paper_model, paper_gramians, "reach").mu
        dur = np.ceil(mu) + 2.0
        signal = SwitchingSignal(events=((1, dur), (2, dur), (3, dur)))
        # an input still on at the switches (the paper input has decayed to
        # e^-115 by the first), so x' P^{-1} x there is far above rounding
        u = lssbal.InputSignal.expr(freq=0.2, decay=0.0)
        traj = simulate(paper_model, signal, u=u, x0=np.zeros(3), dt=2e-3)
        report = verify_energy_bounds(
            paper_model, paper_gramians, traj, signal,
            exact_states(paper_model, signal, np.zeros(3), 2e-3, u), side="reach"
        )
        assert report.passed
        assert report.times.shape[0] == 3
        # the bound is meaningfully tight: at some switch the control energy
        # reaches 1% of the input energy spent (1.8% at the first)
        assert np.max(report.lhs / report.rhs) > 0.01

    def test_nonzero_input_rejected_for_obs(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 75.0), (2, 75.0)))
        u = lssbal.InputSignal.paper()
        traj = simulate(paper_model, signal, u=u, dt=5e-3)
        states = exact_states(paper_model, signal, np.zeros(3), 5e-3, u)
        with pytest.raises(AssumptionError, match="zero input"):
            verify_energy_bounds(paper_model, paper_gramians, traj, signal, states, "obs")

    def test_nonzero_state_rejected_for_reach(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 240.0), (2, 240.0)))
        traj = simulate(paper_model, signal, u=None, x0=np.ones(3), dt=5e-3)
        states = exact_states(paper_model, signal, np.ones(3), 5e-3)
        with pytest.raises(AssumptionError, match="zero initial state"):
            verify_energy_bounds(paper_model, paper_gramians, traj, signal, states, "reach")

    def test_dwell_violation_rejected(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        traj = simulate(paper_model, signal, u=None, x0=np.zeros(3), dt=1e-3)
        states = exact_states(paper_model, signal, np.zeros(3), 1e-3)
        with pytest.raises(AssumptionError, match="dwell"):
            verify_energy_bounds(paper_model, paper_gramians, traj, signal, states, "obs")


class TestStabilityCertificate:
    def test_weakly_coupled_modes_certify_freely(self):
        modes = (
            ModeSystem(A=np.diag([-1.0, -2.0]), B=np.ones((2, 1)), C=[[1.0, 0.5]]),
            ModeSystem(A=np.diag([-2.0, -3.0]), B=np.ones((2, 1)), C=[[1.0, 0.5]]),
        )
        K = 0.01 * np.eye(2)
        model = LssModel(modes=modes, couplings={(1, 2): K, (2, 1): K})
        gset = lssbal.compute_gramians(model)
        cert = stability_certificate(model, gset)
        assert cert.mu == 0.0
        assert cert.M > 0 and cert.K >= 1.0

    def test_unstable_mode_rejected(self):
        modes = (
            ModeSystem(A=[[0.2]], B=[[1.0]], C=[[1.0]]),
            ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]]),
        )
        K = np.array([[0.5]])
        model = LssModel(modes=modes, couplings={(1, 2): K, (2, 1): K})
        gset = make_gramian_set([[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]])
        with pytest.raises(StabilityError, match="mode 1"):
            stability_certificate(model, gset)

    def test_paper_certificate_structure(self, paper_model, paper_gramians):
        cert = stability_certificate(paper_model, paper_gramians)
        assert cert.mu > 0 and np.isfinite(cert.mu)
        assert cert.M == pytest.approx(cert.quadratic_rate / 2.0)
        assert cert.K >= 1.0
        assert cert.route == "single-rate-doubled-dwell"

    def test_reduced_model_keeps_certificate(self, paper_balanced, paper_gramians):
        lam = [np.diag(s) for s in paper_balanced.sigma]
        bal_gset = make_gramian_set(lam, lam)
        cert_bal = stability_certificate(balanced_model(paper_balanced), bal_gset)

        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        red = truncate(paper_balanced, plan)
        lam_hat = [np.diag(s) for s in truncated_sigma(paper_balanced, plan)]
        red_gset = make_gramian_set(lam_hat, lam_hat)
        cert_red = stability_certificate(red, red_gset)
        assert np.isfinite(cert_red.mu)
        # extremal constants only improve on the leading sub-blocks
        assert cert_red.mu <= cert_bal.mu * (1.0 + 1e-9)

    def test_certificate_preserved_under_truncation(self):
        # extremal constants only improve on the leading balanced blocks
        for seed in (40, 41, 42):
            model = lssbal.random_stable_model(
                seed, num_modes=2, dims=[4, 4],
                coupling_norm=0.4, stability_margin=1.0,
            )
            gset = lssbal.compute_gramians(model)
            bal = lssbal.balance(model, gset)
            lam = [np.diag(s) for s in bal.sigma]
            cert_bal = stability_certificate(
                balanced_model(bal), make_gramian_set(lam, lam)
            )
            plan = ReductionPlan.from_orders(bal, [2, 3])
            red = truncate(bal, plan)
            lam_hat = [np.diag(s) for s in truncated_sigma(bal, plan)]
            cert_red = stability_certificate(red, make_gramian_set(lam_hat, lam_hat))
            assert cert_red.quadratic_rate >= cert_bal.quadratic_rate * (1 - 1e-9)
            if np.isfinite(cert_bal.gamma):
                assert cert_red.gamma >= cert_bal.gamma * (1 - 1e-9)
            assert cert_red.mu <= cert_bal.mu * (1 + 1e-9)

    def test_simulated_decay_respects_envelope(self):
        # seeds whose certificates come out with a workable dwell scale
        for seed in (5, 6):
            model = lssbal.random_stable_model(
                seed, num_modes=2, dims=[3, 3],
                coupling_norm=0.5, stability_margin=1.5,
            )
            gset = lssbal.compute_gramians(model)
            cert = stability_certificate(model, gset)
            assert np.isfinite(cert.mu)
            mu_run = max(cert.mu, 0.3)
            rng = np.random.default_rng(100 + seed)
            signal = lssbal.random_dwell_signal(2, mu_run, 4.0 * mu_run, rng)
            x0 = rng.normal(size=3)
            dt = min(0.05, mu_run / 50.0)
            traj = simulate(model, signal, u=None, x0=x0, dt=dt)
            norms = np.concatenate([np.linalg.norm(X, axis=1)
                                    for X in exact_states(model, signal, x0, dt)])
            envelope = cert.K * np.exp(-cert.M * traj.times) * np.linalg.norm(x0)
            assert np.all(norms <= envelope * (1.0 + 1e-9))


def zero_coupling_model(model):
    return LssModel(
        modes=model.modes,
        couplings={key: np.zeros_like(K) for key, K in model.couplings.items()},
    )


def separate_certificates(model, gset):
    """Each certificate by its own call, or the error that call raised."""
    out = {}
    for name, call in (
        ("dwell_obs", lambda: dwell_time(model, gset, "obs")),
        ("dwell_reach", lambda: dwell_time(model, gset, "reach")),
        ("stability", lambda: stability_certificate(model, gset)),
    ):
        try:
            out[name] = call()
        except LssError as exc:
            out[name] = exc
    return out


def count_measurements(monkeypatch) -> dict[str, int]:
    """Count the jump-factor passes and positive-definiteness checks from now on."""
    calls = {"_jump_factors": 0, "_check_pd": 0}
    for name in calls:
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(analysis, name, counted)
    return calls


class TestCertificates:
    def test_one_measurement_per_side(self, fresh_paper_model, fresh_paper_gramians,
                                      monkeypatch):
        model, gset = fresh_paper_model, fresh_paper_gramians
        calls = count_measurements(monkeypatch)
        # one jump-factor pass and one check per Gramian on each side
        once = {"_jump_factors": 2, "_check_pd": 2 * model.num_modes}
        cli._certificates_dict(model, gset)
        assert calls == once
        # the separate calls of a reduce pass, on a second set, measure it afresh
        gset = dataclasses.replace(gset)
        calls.update(dict.fromkeys(calls, 0))
        dwell_time(model, gset, side="obs")
        dwell_time(model, gset, side="reach")
        dwell_time(model, gset, side="obs")
        stability_certificate(model, gset)
        certificates(model, gset)
        assert calls == once

    def test_new_model_or_set_measures_afresh(self, fresh_paper_model,
                                              fresh_paper_gramians, monkeypatch):
        model, gset = fresh_paper_model, fresh_paper_gramians
        want = certificates(model, gset)
        calls = count_measurements(monkeypatch)
        same_model = LssModel(modes=model.modes, couplings=model.couplings)
        for args in ((same_model, gset), (model, dataclasses.replace(gset))):
            calls.update(dict.fromkeys(calls, 0))
            got = stability_certificate(*args)
            assert calls == {"_jump_factors": 1, "_check_pd": model.num_modes}
            assert got == want["stability"]

    def test_caller_arrays_cannot_change_certificates(self, paper_model, paper_gramians):
        reach = [np.array(P) for P in paper_gramians.reach]
        obs = [np.array(Q) for Q in paper_gramians.obs]
        gset = make_gramian_set(reach, obs)
        want = {name: cert.to_dict() for name, cert in certificates(paper_model, gset).items()}
        for X in reach + obs:
            X *= -1.0
        assert not any(X.flags.writeable for X in gset.reach + gset.obs)
        for got in (certificates(paper_model, gset),
                    certificates(paper_model, dataclasses.replace(gset))):
            assert {name: cert.to_dict() for name, cert in got.items()} == want

    @pytest.mark.parametrize("which", ["paper", "wide"])
    def test_equals_separate_calls_bitwise(self, which, paper_model, paper_gramians):
        if which == "paper":
            model, gset = paper_model, paper_gramians
        else:
            model = lssbal.random_stable_model(1, 5, [100] * 5, coupling_norm=0.07)
            gset = lssbal.compute_gramians(model)
        got = certificates(model, gset)
        # on a second set with the same matrices, which measures afresh
        want = separate_certificates(model, dataclasses.replace(gset))
        assert list(got) == ["dwell_obs", "dwell_reach", "stability"]
        for name, cert in want.items():
            assert type(got[name]) is type(cert)
            # repr of a float round-trips, so equal reprs mean equal bits
            assert repr(dataclasses.asdict(got[name])) == repr(dataclasses.asdict(cert))
            assert got[name].to_dict() == cert.to_dict()

    def test_paper_fields_match_golden(self, paper_model, paper_gramians):
        got = certificates(paper_model, paper_gramians)
        for name, fields in PAPER_CERTIFICATES.items():
            for field, want in fields.items():
                assert getattr(got[name], field) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_couplings_give_the_same_refusals(self, paper_model):
        model = zero_coupling_model(paper_model)
        gset = lssbal.compute_gramians(model)
        got = certificates(model, gset)
        want = separate_certificates(model, gset)
        assert [type(e) for e in got.values()] == [
            AssumptionError, AssumptionError, StabilityError
        ]
        for name, exc in want.items():
            assert type(got[name]) is type(exc) and str(got[name]) == str(exc)

    def test_failed_cholesky_is_a_per_entry_refusal(self):
        model = heat_model()
        got = certificates(model, lssbal.compute_gramians(model))
        assert list(got) == ["dwell_obs", "dwell_reach", "stability"]
        refusals = [str(c) for c in got.values() if isinstance(c, AssumptionError)]
        assert any(
            re.fullmatch(r"[PQ]\[[12]\] is not numerically positive definite: its "
                         r"Cholesky factorization fails \(min eigenvalue \d\.\d{3}e-\d\d\)",
                         msg)
            for msg in refusals
        )
        assert all(isinstance(c, (LssError, analysis.DwellTimeCertificate,
                                  analysis.StabilityCertificate)) for c in got.values())

    def test_lapack_failures_are_lss_errors(self):
        with pytest.raises(LssError, match="dsyevr"):
            analysis._eig(np.full((2, 2), np.nan), -1)
        with pytest.raises(LssError, match="dtrtri"):
            analysis._lower_inverse(np.zeros((2, 2)))

    @pytest.mark.parametrize("call", [
        lambda model, gset: dwell_time(model, gset, "obs"),
        lambda model, gset: dwell_time(model, gset, "reach"),
        stability_certificate,
        certificates,
    ], ids=["dwell_obs", "dwell_reach", "stability_certificate", "certificates"])
    @pytest.mark.parametrize("model, gset_of, match", [
        (lssbal.three_mode_model, lambda: lssbal.random_stable_model(1, 2, [3, 3]),
         r"mode 3: Gramian orders \(3, 3\) do not match the state dimensions \(3, 3, 3\)"),
        (lambda: lssbal.random_stable_model(1, 3, [3, 3, 3]),
         lambda: lssbal.random_stable_model(1, 3, [3, 3, 2]),
         r"mode 3: Gramian orders \(3, 3, 2\) do not match the state dimensions \(3, 3, 3\)"),
    ], ids=["fewer-pairs", "other-order"])
    def test_set_of_another_model_rejected(self, call, model, gset_of, match):
        # certificates refuses as a whole, not per entry
        with pytest.raises(DimensionError, match=match):
            call(model(), lssbal.compute_gramians(gset_of()))

    @pytest.mark.parametrize("side, label", [("reach", "P"), ("obs", "Q")])
    def test_asymmetric_gramian_rejected_as_by_balance(self, paper_model, paper_gramians,
                                                       side, label):
        mats = {"reach": list(paper_gramians.reach), "obs": list(paper_gramians.obs)}
        mats[side][1] = mats[side][1] + np.triu(np.full((3, 3), 1e-6), 1)
        gset = make_gramian_set(mats["reach"], mats["obs"])
        with pytest.raises(BalancingError, match=rf"^{label}\[2\] is not symmetric$"):
            lssbal.balance(paper_model, gset)
        got = certificates(paper_model, gset)
        names = ["dwell_obs", "stability"] if side == "obs" else ["dwell_reach"]
        for name, cert in got.items():
            assert isinstance(cert, BalancingError) == (name in names)
            if name in names:
                assert str(cert) == f"{label}[2] is not symmetric"

    def test_failed_obs_side_refuses_both_obs_certificates(self, paper_model):
        bad = make_gramian_set([np.eye(3)] * 3, [np.diag([1.0, 1.0, 0.0])] * 3)
        got = certificates(paper_model, bad)
        for name in ("dwell_obs", "stability"):
            assert isinstance(got[name], AssumptionError)
            assert "Q[1] is not positive definite" in str(got[name])
        assert not isinstance(got["dwell_reach"], LssError)


def balance_and_certify(model, gset, certify_first):
    """The bits of ``balance`` and ``certificates`` on ``gset``, in either order."""
    if certify_first:
        certs = certificates(model, gset)
    bal = lssbal.balance(model, gset)
    if not certify_first:
        certs = certificates(model, gset)
    full = balanced_model(bal)
    mats = [*bal.transforms, *bal.inverses, *bal.sigma,
            *(X for mode in full.modes for X in (mode.A, mode.B, mode.C)),
            *full.couplings.values()]
    return [X.tobytes() for X in mats], {name: repr(dataclasses.asdict(cert))
                                         for name, cert in certs.items()}


class TestSharedFactors:
    """Balancing and the certificates read one square factor per Gramian."""

    @pytest.mark.parametrize("make", [
        lssbal.three_mode_model,
        lambda: lssbal.random_stable_model(3, 3, [12] * 3, coupling_norm=0.2),
    ], ids=["paper", "3x12"])
    def test_call_order_does_not_change_results(self, make):
        model = make()
        gset = lssbal.compute_gramians(model)
        want = balance_and_certify(model, dataclasses.replace(gset), certify_first=False)
        assert balance_and_certify(model, gset, certify_first=True) == want
        # the factors of the first calls serve the second ones
        assert balance_and_certify(model, gset, certify_first=False) == want
        assert balance_and_certify(model, dataclasses.replace(gset), certify_first=True) == want

    def test_concurrent_first_calls_agree(self, fresh_paper_model, fresh_paper_gramians):
        # six threads race to factor and measure one fresh set
        model, gset = fresh_paper_model, fresh_paper_gramians
        want = balance_and_certify(model, dataclasses.replace(gset), certify_first=False)
        seen = []
        threads = [threading.Thread(target=lambda k=k: seen.append(
            balance_and_certify(model, gset, certify_first=k % 2 == 1))) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == len(threads)
        assert all(got == want for got in seen)
