import dataclasses

import numpy as np
import pytest

import lssbal
from lssbal import (
    AssumptionError,
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
    verify_energy_bounds,
    verify_relaxed_gramians,
)
from lssbal import analysis, cli
from lssbal.balancing import truncated_sigma
from lssbal.gramians import SolveDiagnostics


def make_gramian_set(reach, obs):
    diag = SolveDiagnostics(levels=1, residuals=(0.0,), increment=0.0, converged=True)
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
        cert = dwell_time(model, gset, side="obs", slack=0.0)
        assert cert.M == pytest.approx(4.0)
        assert cert.gamma == pytest.approx(0.25)
        assert cert.mu == pytest.approx(np.log(4.0) / 4.0)
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
        for side in ("obs", "reach"):
            report = verify_energy_bounds(
                paper_model, paper_gramians, traj, signal, side=side
            )
            assert report.passed

    def test_paper_observability_inequality(self, paper_model, paper_gramians):
        mu = dwell_time(paper_model, paper_gramians, "obs").mu
        dur = np.ceil(mu) + 2.0
        signal = SwitchingSignal(events=((1, dur), (2, dur), (3, dur)))
        x0 = np.array([1.0, 0.0, 0.0])
        traj = simulate(paper_model, signal, u=None, x0=x0, dt=1e-3)
        report = verify_energy_bounds(
            paper_model, paper_gramians, traj, signal, side="obs"
        )
        assert report.passed
        # the bound is meaningfully tight: observed energy reaches a
        # sizable fraction of the certified budget
        assert report.rhs[-1] > 0.5 * report.lhs[0]
        doc = report.to_dict()
        assert doc["side"] == "obs" and doc["checked"] == report.times.shape[0]

    def test_paper_reachability_inequality(self, paper_model, paper_gramians):
        mu = dwell_time(paper_model, paper_gramians, "reach").mu
        dur = np.ceil(mu) + 2.0
        signal = SwitchingSignal(events=((1, dur), (2, dur), (3, dur)))
        traj = simulate(
            paper_model, signal, u=lssbal.InputSignal.paper(), x0=np.zeros(3), dt=2e-3
        )
        report = verify_energy_bounds(
            paper_model, paper_gramians, traj, signal, side="reach"
        )
        assert report.passed
        assert report.times.shape[0] == 3

    def test_nonzero_input_rejected_for_obs(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 75.0), (2, 75.0)))
        traj = simulate(paper_model, signal, u=lssbal.InputSignal.paper(), dt=5e-3)
        with pytest.raises(AssumptionError, match="zero input"):
            verify_energy_bounds(paper_model, paper_gramians, traj, signal, "obs")

    def test_nonzero_state_rejected_for_reach(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 240.0), (2, 240.0)))
        traj = simulate(paper_model, signal, u=None, x0=np.ones(3), dt=5e-3)
        with pytest.raises(AssumptionError, match="zero initial state"):
            verify_energy_bounds(paper_model, paper_gramians, traj, signal, "reach")

    def test_dwell_violation_rejected(self, paper_model, paper_gramians):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        traj = simulate(paper_model, signal, u=None, x0=np.zeros(3), dt=1e-3)
        with pytest.raises(AssumptionError, match="dwell"):
            verify_energy_bounds(paper_model, paper_gramians, traj, signal, "obs")


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
        cert_bal = stability_certificate(paper_balanced.model, bal_gset)

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
                bal.model, make_gramian_set(lam, lam)
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
            norms = np.array([np.linalg.norm(x) for x in traj.states])
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


class TestCertificates:
    def test_one_measurement_per_side(self, paper_model, paper_gramians, monkeypatch):
        calls = {"_jump_factors": 0, "_check_pd": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(analysis, name, counted)
        cli._certificates_dict(paper_model, paper_gramians)
        # one jump-factor pass and one check per Gramian on each side
        assert calls == {"_jump_factors": 2, "_check_pd": 2 * paper_model.num_modes}

    @pytest.mark.parametrize("which", ["paper", "wide"])
    def test_equals_separate_calls_bitwise(self, which, paper_model, paper_gramians):
        if which == "paper":
            model, gset = paper_model, paper_gramians
        else:
            model = lssbal.random_stable_model(1, 5, [100] * 5, coupling_norm=0.07)
            gset = lssbal.compute_gramians(model)
        got = certificates(model, gset)
        want = separate_certificates(model, gset)
        assert list(got) == ["dwell_obs", "dwell_reach", "stability"]
        for name, cert in want.items():
            assert type(got[name]) is type(cert)
            # repr of a float round-trips, so equal reprs mean equal bits
            assert repr(dataclasses.asdict(got[name])) == repr(dataclasses.asdict(cert))
            assert got[name].to_dict() == cert.to_dict()

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

    def test_failed_obs_side_refuses_both_obs_certificates(self, paper_model):
        bad = make_gramian_set([np.eye(3)] * 3, [np.diag([1.0, 1.0, 0.0])] * 3)
        got = certificates(paper_model, bad)
        for name in ("dwell_obs", "stability"):
            assert isinstance(got[name], AssumptionError)
            assert "Q[1] is not positive definite" in str(got[name])
        assert not isinstance(got["dwell_reach"], LssError)
