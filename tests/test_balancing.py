import dataclasses
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lssbal
from lssbal import (
    BalancingError,
    DimensionError,
    GramianSet,
    LssModel,
    ModeSystem,
    ReductionPlan,
    SwitchingSignal,
    balance,
    balance_average,
    error_bound,
    simulate,
    truncate,
)
from lssbal.gramians import SolveDiagnostics, _square_factor

from golden import PAPER_SIGMA, reduced_matches_printed
from oracles import (
    apply_equivalence,
    balanced_model,
    balanced_sigma_by_eigh,
    has_ties,
    random_well_conditioned,
    truncated_sigma,
)

# Few, reproducible examples keep the property tests fast and deterministic.
PROPERTY_SETTINGS = settings(max_examples=8)
small_models = st.builds(
    lambda seed, dims: lssbal.random_stable_model(seed, num_modes=len(dims), dims=dims),
    st.integers(0, 2**16),
    st.lists(st.integers(1, 4), min_size=2, max_size=3),
)


def _dummy_diag():
    return SolveDiagnostics(increments=(0.0,), residuals=(0.0,))


def max_diagonal_error(bal, gset):
    """Largest relative gap between sigma and the balanced Gramians' diagonals."""
    worst = 0.0
    for S, Sinv, s, P, Q in zip(bal.transforms, bal.inverses, bal.sigma,
                                gset.reach, gset.obs):
        for balanced in (S @ P @ S.T, Sinv.T @ Q @ Sinv):
            worst = max(worst, float(np.max(np.abs(np.diag(balanced) - s) / s)))
    return worst


def make_gramian_set(reach, obs):
    return GramianSet(
        reach=tuple(np.asarray(P, dtype=float) for P in reach),
        obs=tuple(np.asarray(Q, dtype=float) for Q in obs),
        reach_diagnostics=_dummy_diag(),
        obs_diagnostics=_dummy_diag(),
    )


def square_factor(P):
    """The square factor that balancing and the certificates use for a Gramian P."""
    return _square_factor(np.asarray(P, dtype=float), "P")[0]


class TestSquareFactor:
    def test_identity(self):
        np.testing.assert_allclose(square_factor(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        U = square_factor(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(U, np.diag([2.0, 1.0]), atol=1e-14)

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            M = rng.normal(size=(4, 4))
            P = M @ M.T + 0.1 * np.eye(4)
            U = square_factor(P)
            np.testing.assert_allclose(U @ U.T, P, rtol=1e-10, atol=1e-12)

    def test_singular_psd_uses_eigen_fallback(self):
        P = np.diag([1.0, 0.0])
        U = square_factor(P)
        np.testing.assert_allclose(U @ U.T, P, atol=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(BalancingError):
            square_factor(np.diag([1.0, -0.5]))

    def test_entries_near_the_float_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U = square_factor(np.array([[1e308, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(U, np.diag([1e154, 1.0]))

    @pytest.mark.parametrize("P", [[[1.0, np.inf], [np.inf, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                                   [[np.nan, 0.0], [0.0, 1.0]]], ids=["inf-pair", "inf-diagonal", "nan"])
    def test_non_finite_rejected(self, P):
        with pytest.raises(BalancingError, match="finite"):
            square_factor(np.array(P))


class TestBalance:
    def test_already_balanced_fixed_point(self):
        modes = (
            ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
            ModeSystem(A=-2 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
        )
        model = LssModel(modes=modes)
        P = np.diag([4.0, 1.0])
        gset = make_gramian_set([P, P], [P, P])
        bal = balance(model, gset)
        for S, s in zip(bal.transforms, bal.sigma):
            np.testing.assert_allclose(S, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(s, [4.0, 1.0], rtol=1e-12)

    def test_paper_sigma(self, paper_balanced):
        for s, ref in zip(paper_balanced.sigma, PAPER_SIGMA):
            np.testing.assert_allclose(s, ref, atol=5e-4)

    def test_balancing_invariants_random_model(self):
        model = lssbal.random_stable_model(31, num_modes=3, dims=[3, 4, 2],
                                           coupling_norm=0.25)
        gset = lssbal.compute_gramians(model)
        bal = balance(model, gset)
        for q, (S, Sinv, s) in enumerate(
            zip(bal.transforms, bal.inverses, bal.sigma), start=1
        ):
            lam = np.diag(s)
            P, Q = gset.reach[q - 1], gset.obs[q - 1]
            err_p = np.linalg.norm(S @ P @ S.T - lam) / np.linalg.norm(lam)
            err_q = np.linalg.norm(Sinv.T @ Q @ Sinv - lam) / np.linalg.norm(lam)
            assert err_p < 1e-8 and err_q < 1e-8
            assert np.all(np.diff(s) <= 1e-12) and s[-1] > 0

    def test_balanced_equations_hold(self, paper_balanced):
        bal = paper_balanced
        model = balanced_model(bal)
        lam = [np.diag(s) for s in bal.sigma]
        for i in range(1, 4):
            mode = model.mode(i)
            reach_lhs = mode.A @ lam[i - 1] + lam[i - 1] @ mode.A.T + mode.B @ mode.B.T
            obs_lhs = mode.A.T @ lam[i - 1] + lam[i - 1] @ mode.A + mode.C.T @ mode.C
            for j in range(1, 4):
                if j == i:
                    continue
                Kji = model.coupling(j, i)
                Kij = model.coupling(i, j)
                reach_lhs = reach_lhs + Kji @ lam[j - 1] @ Kji.T
                obs_lhs = obs_lhs + Kij.T @ lam[j - 1] @ Kij
            scale = np.linalg.norm(lam[i - 1])
            assert np.linalg.norm(reach_lhs) < 1e-8 * max(scale, 1.0)
            assert np.linalg.norm(obs_lhs) < 1e-8 * max(scale, 1.0)

    def test_sigma_gauge_invariance(self, paper_model, paper_balanced):
        rng = np.random.default_rng(77)
        mats = [random_well_conditioned(rng, n) for n in paper_model.dims]
        transformed = apply_equivalence(paper_model, mats)
        gset = lssbal.compute_gramians(transformed)
        bal = balance(transformed, gset)
        for s, ref in zip(bal.sigma, paper_balanced.sigma):
            np.testing.assert_allclose(s, ref, rtol=1e-8, atol=1e-10)

    def test_unreachable_mode_rejected(self):
        modes = (
            ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
            ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
        )
        model = LssModel(modes=modes)
        P_sing = np.diag([1.0, 0.0])
        # an unreachable pair, then an unobservable one
        for P, Q in ((P_sing, np.eye(2)), (np.eye(2), P_sing)):
            gset = make_gramian_set([P, np.eye(2)], [Q, np.eye(2)])
            with pytest.raises(BalancingError, match="mode 1"):
                balance(model, gset)

    @pytest.mark.parametrize("balancer", [balance, balance_average])
    @pytest.mark.parametrize("model, gset_of, match", [
        (lssbal.three_mode_model, lambda: lssbal.random_stable_model(1, 2, [3, 3]),
         r"mode 3: Gramian orders \(3, 3\) do not match the state dimensions \(3, 3, 3\)"),
        (lambda: lssbal.random_stable_model(1, 2, [3, 3]), lssbal.three_mode_model,
         r"mode 3: Gramian orders \(3, 3, 3\) do not match the state dimensions \(3, 3\)"),
        (lambda: lssbal.random_stable_model(1, 3, [3, 3, 3]),
         lambda: lssbal.random_stable_model(1, 3, [3, 3, 2]),
         r"mode 3: Gramian orders \(3, 3, 2\) do not match the state dimensions \(3, 3, 3\)"),
    ], ids=["fewer-pairs", "more-pairs", "other-order"])
    def test_set_of_another_model_rejected(self, balancer, model, gset_of, match):
        gset = lssbal.compute_gramians(gset_of())
        with pytest.raises(DimensionError, match=match):
            balancer(model(), gset)

    def test_small_sigma_keep_relative_accuracy(self):
        model = lssbal.random_stable_model(1, num_modes=3, dims=[60] * 3)
        gset = lssbal.compute_gramians(model)
        assert max_diagonal_error(balance(model, gset), gset) < 1e-7

    def test_n200_model_balances(self):
        model = lssbal.random_stable_model(1, num_modes=3, dims=[200] * 3)
        gset = lssbal.compute_gramians(model)
        bal = balance(model, gset)
        np.testing.assert_allclose(bal.sigma[2][-1], 2.6976e-9, rtol=1e-4)
        assert max_diagonal_error(bal, gset) < 1e-6

    @PROPERTY_SETTINGS
    @given(small_models)
    def test_sigma_matches_eigh_oracle(self, model):
        gset = lssbal.compute_gramians(model)
        bal = balance(model, gset)
        for s, P, Q in zip(bal.sigma, gset.reach, gset.obs):
            np.testing.assert_allclose(s, balanced_sigma_by_eigh(P, Q), rtol=1e-8)

    @PROPERTY_SETTINGS
    @given(small_models, st.integers(0, 2**16))
    def test_sigma_invariant_under_equivalence(self, model, seed):
        rng = np.random.default_rng(seed)
        mats = [random_well_conditioned(rng, n) for n in model.dims]
        transformed = apply_equivalence(model, mats)
        ref = balance(model, lssbal.compute_gramians(model))
        bal = balance(transformed, lssbal.compute_gramians(transformed))
        for s, s_ref in zip(bal.sigma, ref.sigma):
            np.testing.assert_allclose(s, s_ref, rtol=1e-8)


class TestTruncate:
    def test_full_orders_keep_model(self, paper_model, paper_balanced):
        # the full-order truncation is the source model in balanced coordinates:
        # A S^-1 = S^-1 A_bal, B = S^-1 B_bal, C_bal = C S^-1, K S_i^-1 = S_j^-1 K_bal
        red = balanced_model(paper_balanced)
        assert red.dims == paper_model.dims and red.x0 is None
        inv = paper_balanced.inverses
        for a, b, Sinv in zip(paper_model.modes, red.modes, inv):
            np.testing.assert_allclose(Sinv @ b.A, a.A @ Sinv, atol=1e-12)
            np.testing.assert_allclose(Sinv @ b.B, a.B, atol=1e-12)
            np.testing.assert_allclose(b.C, a.C @ Sinv, atol=1e-12)
        assert set(red.couplings) == set(itertools.permutations(range(1, 4), 2))
        for (i, j), K in red.couplings.items():
            np.testing.assert_allclose(inv[j - 1] @ K, paper_model.coupling(i, j) @ inv[i - 1],
                                       atol=1e-12)

    @pytest.mark.parametrize("balancer", [balance, balance_average])
    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**16), st.integers(2, 4), st.integers(1, 4), st.data())
    def test_truncation_is_the_leading_block_of_the_full_order_one(self, balancer, seed,
                                                                    n, m, data):
        # mixed dims for mode-wise balancing, equal ones for the average; a
        # stored x0, and K[3,1] omitted between the two n-state modes, so that
        # it defaults to the identity
        dims = [n, m, n] if balancer is balance else [n] * 3
        base = lssbal.random_stable_model(seed, 3, dims, stability_margin=1.0)
        couplings = {key: K for key, K in base.couplings.items() if key != (3, 1)}
        x0 = np.random.default_rng(seed).normal(size=n)
        model = LssModel(modes=base.modes, couplings=couplings, x0=x0)
        bal = balancer(model, lssbal.compute_gramians(model))
        r = data.draw(st.tuples(*(st.integers(1, d) for d in dims)))
        red, full = truncate(bal, ReductionPlan.from_orders(bal, r)), balanced_model(bal)
        pairs = [(red.x0, full.x0[: r[0]], full.x0)]
        for q, (a, b) in enumerate(zip(red.modes, full.modes)):
            pairs += [(a.A, b.A[: r[q], : r[q]], b.A), (a.B, b.B[: r[q]], b.B),
                      (a.C, b.C[:, : r[q]], b.C)]
        assert set(red.couplings) == set(full.couplings)
        for (i, j), K in full.couplings.items():
            pairs.append((red.couplings[(i, j)], K[: r[j - 1], : r[i - 1]], K))
        # relative to the balanced matrix: a kept block can be tiny, the
        # rounding of its products scales with the whole
        for got, want, whole in pairs:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(whole)

    def test_printed_reduced_matrices(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        red = truncate(paper_balanced, plan)
        assert reduced_matches_printed(red)

    @pytest.mark.parametrize("call, message", [
        (lambda bal: ReductionPlan.from_orders(bal, [1, 3]), "2 orders given for 3 modes"),
        (lambda bal: ReductionPlan.from_threshold(bal, 0.0), "threshold must be in (0, 1], got 0.0"),
        (lambda bal: ReductionPlan.from_threshold(bal, 1.5), "threshold must be in (0, 1], got 1.5"),
        (lambda bal: ReductionPlan.from_threshold(bal, True),
         "threshold must be a finite real number, got True"),
    ])
    def test_plan_refusals_name_their_argument(self, paper_balanced, call, message):
        with pytest.raises(DimensionError, match=re.escape(message)):
            call(paper_balanced)

    def test_order_out_of_range(self, paper_balanced):
        with pytest.raises(DimensionError):
            ReductionPlan.from_orders(paper_balanced, [0, 3, 2])
        with pytest.raises(DimensionError):
            ReductionPlan.from_orders(paper_balanced, [1, 4, 2])

    @pytest.mark.parametrize("orders, mode, bad", [
        ([1.7, 3, 2.9], 1, 1.7), (["1", 3, True], 1, "1"), ([1, 3, True], 3, True),
        ([1, np.nan, 2], 2, np.nan),
    ])
    def test_orders_are_checked_not_truncated(self, paper_balanced, orders, mode, bad):
        message = f"mode {mode}: order must be an integer, got {bad!r}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            ReductionPlan.from_orders(paper_balanced, orders)

    def test_integral_orders_of_any_type_are_kept(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [np.int64(1), 3.0, 2])
        assert plan.orders == (1, 3, 2)
        assert all(type(r) is int for r in plan.orders)

    def test_truncated_relaxed_inequalities(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        red = truncate(paper_balanced, plan)
        lam_hat = [np.diag(s) for s in truncated_sigma(paper_balanced, plan)]
        for i in range(1, 4):
            mode = red.mode(i)
            reach_lhs = (
                mode.A @ lam_hat[i - 1] + lam_hat[i - 1] @ mode.A.T
                + mode.B @ mode.B.T
            )
            obs_lhs = (
                mode.A.T @ lam_hat[i - 1] + lam_hat[i - 1] @ mode.A
                + mode.C.T @ mode.C
            )
            for j in range(1, 4):
                if j == i:
                    continue
                Kji = red.coupling(j, i)
                Kij = red.coupling(i, j)
                reach_lhs = reach_lhs + Kji @ lam_hat[j - 1] @ Kji.T
                obs_lhs = obs_lhs + Kij.T @ lam_hat[j - 1] @ Kij
            scale = max(np.linalg.norm(lam_hat[i - 1]), 1.0)
            assert np.linalg.eigvalsh(0.5 * (reach_lhs + reach_lhs.T))[-1] < 1e-8 * scale
            assert np.linalg.eigvalsh(0.5 * (obs_lhs + obs_lhs.T))[-1] < 1e-8 * scale

    def test_cross_block_residual_closes_reach_equation(self, paper_balanced):
        # the truncated equation balances exactly once the discarded-block
        # coupling contribution is restored
        bal = paper_balanced
        plan = ReductionPlan.from_orders(bal, [1, 3, 2])
        red = truncate(bal, plan)
        lam = [np.diag(s) for s in bal.sigma]
        r = plan.orders
        for i in range(1, 4):
            ri = r[i - 1]
            lam_hat_i = lam[i - 1][:ri, :ri]
            lhs = (
                red.mode(i).A @ lam_hat_i + lam_hat_i @ red.mode(i).A.T
                + red.mode(i).B @ red.mode(i).B.T
            )
            for j in range(1, 4):
                if j == i:
                    continue
                rj = r[j - 1]
                Kb = balanced_model(bal).coupling(j, i)
                K11, K12 = Kb[:ri, :rj], Kb[:ri, rj:]
                lhs = lhs + K11 @ lam[j - 1][:rj, :rj] @ K11.T
                lhs = lhs + K12 @ lam[j - 1][rj:, rj:] @ K12.T
            assert np.linalg.norm(lhs) < 1e-8


class TestStoredInitialState:
    X0 = np.array([1.0, -2.0, 0.5])

    @pytest.fixture
    def model(self, paper_model):
        return LssModel(modes=paper_model.modes, couplings=paper_model.couplings,
                        x0=self.X0)

    @pytest.mark.parametrize("method", [balance, balance_average])
    def test_carried_in_mode_1_coordinates(self, model, paper_gramians, method):
        bal = method(model, paper_gramians)
        full = balanced_model(bal)
        np.testing.assert_array_equal(full.x0, bal.transforms[0] @ self.X0)
        red = truncate(bal, ReductionPlan.from_orders(bal, [1, 3, 2]))
        np.testing.assert_allclose(red.x0, full.x0[:1], rtol=1e-13, atol=0)

    def test_balanced_model_has_the_same_free_response(self, model, paper_gramians):
        signal = SwitchingSignal(((1, 1.0), (3, 1.0)))
        ref = simulate(model, signal, dt=1e-3)
        got = simulate(balanced_model(balance(model, paper_gramians)), signal, dt=1e-3)
        np.testing.assert_allclose(got.outputs, ref.outputs, rtol=0.0, atol=1e-10)


class TestErrorBound:
    def test_no_truncation_zero_bound(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [3, 3, 3])
        assert error_bound(paper_balanced, plan) == 0.0
        assert plan.eta == ()

    def test_paper_bound(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        assert abs(error_bound(paper_balanced, plan) - 0.2471) < 1e-3

    def test_layer_ledger_matches_staged_maxima(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        s = paper_balanced.sigma
        assert len(plan.eta) == 2
        np.testing.assert_allclose(plan.eta[0], max(s[0][2], s[2][2]), rtol=1e-12)
        np.testing.assert_allclose(plan.eta[1], s[0][1], rtol=1e-12)

    def test_plan_stores_only_orders_and_eta(self, paper_balanced):
        assert [f.name for f in dataclasses.fields(ReductionPlan)] == ["orders", "eta"]
        plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
        assert plan.beta == float(sum(plan.eta))
        assert error_bound(paper_balanced, plan) == 2.0 * plan.beta

    def test_single_layer_bound(self, paper_balanced):
        plan = ReductionPlan.from_orders(paper_balanced, [2, 3, 3])
        assert abs(error_bound(paper_balanced, plan) - 0.0838) < 1e-3

    def test_monotone_in_orders(self, paper_balanced):
        rng = np.random.default_rng(4)
        dims = paper_balanced.dims
        for _ in range(25):
            r = [int(rng.integers(1, n + 1)) for n in dims]
            bound = error_bound(paper_balanced, ReductionPlan.from_orders(paper_balanced, r))
            grow = list(r)
            q = int(rng.integers(0, len(dims)))
            if grow[q] < dims[q]:
                grow[q] += 1
            bound_grow = error_bound(
                paper_balanced, ReductionPlan.from_orders(paper_balanced, grow)
            )
            assert bound_grow <= bound + 1e-14

    def test_threshold_plan(self, paper_balanced):
        plan = ReductionPlan.from_threshold(paper_balanced, 0.5)
        assert plan.orders == (1, 1, 1)

    def test_bound_holds_on_certified_dwell_signals(self):
        # A seed scan rather than a hypothesis property: about one draw in
        # eight certifies a dwell time below the cap, too few for its
        # filter health check.
        u = lssbal.InputSignal.paper()
        dt = 0.05
        checked = seed = 0
        while checked < 8 and seed < 200:
            seed += 1
            rng = np.random.default_rng(seed)
            dims = [int(n) for n in rng.integers(2, 5, size=int(rng.integers(2, 4)))]
            orders = [int(rng.integers(1, n + 1)) for n in dims]
            if orders == dims:
                continue  # a zero bound against a rounding-level error
            model = lssbal.random_stable_model(
                seed, num_modes=len(dims), dims=dims,
                coupling_norm=0.5, stability_margin=1.5,
            )
            gset = lssbal.compute_gramians(model)
            certs = lssbal.certificates(model, gset)
            dwell = [certs["dwell_obs"], certs["dwell_reach"]]
            if any(isinstance(c, lssbal.LssError) for c in dwell):
                continue
            mu = max(c.mu for c in dwell)
            if mu > 600.0:
                continue
            checked += 1
            bal = balance(model, gset)
            plan = ReductionPlan.from_orders(bal, orders)
            mu_run = max(mu, 1.0)
            signal = lssbal.random_dwell_signal(len(dims), mu_run, 3.0 * mu_run, rng)
            traj = lssbal.simulate(model, signal, u, dt=dt)
            traj_red = lssbal.simulate(truncate(bal, plan), signal, u, dt=dt)
            err = lssbal.output_l2_error(traj, traj_red)
            ratio = err / lssbal.input_l2(u, signal.total_duration, dt=dt)
            assert ratio <= error_bound(bal, plan), (seed, orders, mu)
        assert checked == 8


class TestTieDetection:
    def test_distinct_values_have_no_ties(self, paper_balanced):
        assert not has_ties(paper_balanced)

    def test_repeated_values_flagged(self):
        modes = (
            ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
            ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
        )
        model = LssModel(modes=modes)
        P = np.diag([2.0, 2.0])
        bal = balance(model, make_gramian_set([P, P], [P, P]))
        assert has_ties(bal)


class TestBalanceAverage:
    def test_equal_gramians_match_modewise(self):
        modes = (
            ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
            ModeSystem(A=-2 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2))),
        )
        model = LssModel(modes=modes)
        rng = np.random.default_rng(8)
        M = rng.normal(size=(2, 2))
        P = M @ M.T + np.eye(2)
        gset = make_gramian_set([P, P], [P, P])
        avg = balance_average(model, gset)
        per_mode = balance(model, gset)
        for Sa, Sm in zip(avg.transforms, per_mode.transforms):
            np.testing.assert_allclose(Sa, Sm, rtol=1e-10, atol=1e-12)

    def test_unequal_dims_rejected(self):
        model = lssbal.random_stable_model(3, num_modes=2, dims=[2, 3])
        gset = lssbal.compute_gramians(model)
        with pytest.raises(DimensionError):
            balance_average(model, gset)

    def test_average_gramian_diagonalized(self):
        model = lssbal.random_stable_model(12, num_modes=2, dims=[3, 3],
                                           coupling_norm=0.2)
        gset = lssbal.compute_gramians(model)
        avg = balance_average(model, gset)
        P_avg = sum(gset.reach) / 2
        S = avg.transforms[0]
        diag = S @ P_avg @ S.T
        off = diag - np.diag(np.diag(diag))
        assert np.linalg.norm(off) < 1e-8 * np.linalg.norm(diag)
        # one global transform: every mode holds the same object
        assert all(T is S for T in avg.transforms)
        assert all(Ti is avg.inverses[0] for Ti in avg.inverses)
