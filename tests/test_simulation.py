import math

import numpy as np
import pytest

import lssbal
from lssbal import (
    DimensionError,
    EquivalenceTransform,
    InputSignal,
    LssModel,
    ModeSystem,
    SingularMatrixError,
    SwitchingSignal,
    Trajectory,
    frequency_response,
    initial_kernel_eval,
    input_l2,
    kernel_eval,
    output_l2_error,
    random_dwell_signal,
    simulate,
    transfer_eval,
)

from oracles import kernel_laplace_2d, piecewise_exact_state, random_well_conditioned


def scalar_jump_model():
    m1 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    m2 = ModeSystem(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
    K = np.array([[1.0]])
    return LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})


class TestSimulate:
    def test_zero_input_zero_state_gives_zero_output(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0), (3, 1.0)))
        traj = simulate(paper_model, signal, u=None, x0=np.zeros(3), dt=1e-2)
        assert np.all(traj.outputs == 0.0)

    def test_diagonal_mode_matches_closed_form(self):
        m1 = ModeSystem(A=np.diag([-1.0, -2.0]), B=np.zeros((2, 1)), C=np.eye(2))
        m2 = ModeSystem(A=np.diag([-1.0, -2.0]), B=np.zeros((2, 1)), C=np.eye(2))
        model = LssModel(modes=(m1, m2))
        signal = SwitchingSignal(events=((1, 2.0),))
        traj = simulate(model, signal, u=None, x0=np.array([1.0, 1.0]), dt=1e-3)
        expected = np.stack(
            [np.exp(-traj.times), np.exp(-2.0 * traj.times)], axis=1
        )
        np.testing.assert_allclose(np.stack(traj.states), expected, atol=1e-8)

    def test_two_mode_jump_product(self):
        model = scalar_jump_model()
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        traj = simulate(model, signal, u=None, x0=np.array([1.0]), dt=1e-3)
        x_final = traj.states[-1][0]
        assert abs(x_final - np.exp(-1.0) * np.exp(-2.0)) < 1e-8

    def test_jump_is_exact_coupling_product(self, paper_model):
        signal = SwitchingSignal(events=((1, 0.7), (3, 0.5), (2, 0.9)))
        traj = simulate(paper_model, signal, u=InputSignal.paper(), dt=1e-3)
        assert len(traj.jumps) == 2
        for jump in traj.jumps:
            K = paper_model.coupling(jump.from_mode, jump.to_mode)
            np.testing.assert_array_equal(jump.state_after, K @ jump.state_before)
            np.testing.assert_array_equal(
                traj.states[jump.index], jump.state_before
            )
            assert traj.modes[jump.index] == jump.from_mode
            assert traj.modes[jump.index + 1] == jump.to_mode

    def test_switch_instants_on_grid(self, paper_model):
        signal = SwitchingSignal(events=((1, 0.333), (2, 0.251), (3, 1.0)))
        traj = simulate(paper_model, signal, u=None, dt=1e-2)
        for T in signal.switch_times:
            assert np.min(np.abs(traj.times - T)) < 1e-12

    def test_matches_exponential_oracle_with_jumps(self, paper_model):
        signal = SwitchingSignal(events=((2, 0.8), (1, 1.1), (3, 0.6)))
        x0 = np.array([0.3, -0.4, 0.9])
        traj = simulate(paper_model, signal, u=None, x0=x0, dt=1e-3)
        for t_query in (0.5, 1.2, 2.4):
            idx = int(np.argmin(np.abs(traj.times - t_query)))
            ref = piecewise_exact_state(paper_model, signal, x0, traj.times[idx])
            np.testing.assert_allclose(traj.states[idx], ref, atol=1e-9)

    def test_wrong_x0_dimension(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0),))
        with pytest.raises(DimensionError):
            simulate(paper_model, signal, x0=np.zeros(2))

    def test_equivalence_invariant_outputs(self, paper_model):
        rng = np.random.default_rng(15)
        mats = [random_well_conditioned(rng, n) for n in paper_model.dims]
        other = lssbal.apply_equivalence(
            paper_model, EquivalenceTransform.similarity(mats)
        )
        signal = SwitchingSignal(events=((1, 0.9), (2, 0.8), (3, 1.2)))
        x0 = rng.normal(size=3)
        x0_other = np.linalg.solve(mats[0], np.zeros(3))  # zero stays zero
        traj = simulate(paper_model, signal, u=InputSignal.paper(), x0=np.zeros(3))
        traj_other = simulate(other, signal, u=InputSignal.paper(), x0=x0_other)
        scale = np.max(np.abs(traj.outputs))
        assert np.max(np.abs(traj.outputs - traj_other.outputs)) < 1e-8 * scale


    def test_interval_blocks_follow_rk4_recurrence(self):
        from lssbal.simulation import _rk4_step_operators

        model = lssbal.random_stable_model(8, num_modes=3, dims=[2, 3, 1],
                                           num_outputs=2)
        signal = SwitchingSignal(events=((2, 0.31), (3, 0.2), (1, 0.27), (2, 0.15)))
        u = InputSignal.paper()
        dt = 0.01
        x = np.array([1.0, -0.5, 2.0])
        traj = simulate(model, signal, u=u, x0=x, dt=dt)

        first, t_start = 1, 0.0
        for idx, (q, duration) in enumerate(signal.events):
            mode = model.mode(q)
            steps = math.ceil(duration / dt)
            h = duration / steps
            F, G1, G2, G3 = _rk4_step_operators(mode.A, mode.B, h)
            grid = t_start + h * np.arange(steps + 1)
            grid[-1] = t_start + duration
            u_lo, u_mid, u_hi = u(grid[:-1]), u(grid[:-1] + 0.5 * h), u(grid[1:])
            if idx:
                x = model.coupling(signal.events[idx - 1][0], q) @ x
            expected = []
            for k in range(steps):
                x = F @ x + (G1 @ u_lo[k] + G2 @ u_mid[k] + G3 @ u_hi[k])
                expected.append(x)
            block = traj.states[first:first + steps]
            assert block[0].base is not None
            assert all(row.base is block[0].base for row in block)
            assert np.array_equal(np.stack(block), np.stack(expected))
            first += steps
            t_start += duration
        assert first == len(traj.states)

        reference = np.stack([model.mode(q).C @ xk for q, xk in zip(traj.modes, traj.states)])
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(traj.outputs - reference)) <= 1e-14 * scale


class TestStepOperators:
    def test_matches_literal_runge_kutta_step(self):
        from lssbal.simulation import _rk4_step_operators

        rng = np.random.default_rng(33)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 2))
        h = 0.013
        x = rng.normal(size=3)
        u1, u2, u3 = rng.normal(size=(3, 2))

        k1 = A @ x + B @ u1
        k2 = A @ (x + 0.5 * h * k1) + B @ u2
        k3 = A @ (x + 0.5 * h * k2) + B @ u2
        k4 = A @ (x + h * k3) + B @ u3
        x_ref = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        F, G1, G2, G3 = _rk4_step_operators(A, B, h)
        x_op = F @ x + G1 @ u1 + G2 @ u2 + G3 @ u3
        np.testing.assert_allclose(x_op, x_ref, rtol=1e-13, atol=1e-15)


class TestIntegratorOrder:
    def test_order_at_least_three_and_a_half(self, paper_model):
        signal = SwitchingSignal(
            events=((1, 3.0), (2, 3.0), (3, 3.0), (1, 3.0), (2, 3.0))
        )
        u = InputSignal.paper()

        def outputs_at_switches(dt):
            traj = simulate(paper_model, signal, u=u, dt=dt)
            idx = [
                int(np.argmin(np.abs(traj.times - T)))
                for T in signal.switch_times
            ]
            return traj.outputs[idx].ravel()

        ref = outputs_at_switches(0.02 / 8)
        err_coarse = np.max(np.abs(outputs_at_switches(0.02) - ref))
        err_fine = np.max(np.abs(outputs_at_switches(0.01) - ref))
        order = np.log2(err_coarse / err_fine)
        assert order >= 3.5


class TestL2Norms:
    def test_identical_trajectories(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        traj = simulate(paper_model, signal, u=InputSignal.paper(), dt=1e-2)
        assert output_l2_error(traj, traj) == 0.0

    def test_exponential_difference_norm(self):
        t = np.linspace(0.0, 20.0, 20001)
        ya = np.exp(-t)[:, None]
        yb = np.zeros_like(ya)
        mk = lambda y: Trajectory(
            times=t,
            modes=np.ones(t.shape[0], dtype=int),
            states=tuple(np.zeros(1) for _ in t),
            outputs=y,
            inputs=np.zeros((t.shape[0], 1)),
        )
        err = output_l2_error(mk(ya), mk(yb))
        assert abs(err - np.sqrt(0.5)) < 1e-6

    def test_resampling_between_grids(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        a = simulate(paper_model, signal, u=InputSignal.paper(), dt=1e-3)
        b = simulate(paper_model, signal, u=InputSignal.paper(), dt=1.3e-3)
        # difference is pure resampling error of the oscillatory output
        assert output_l2_error(a, b) < 1e-3

    def test_disjoint_windows_rejected(self):
        t1 = np.linspace(0.0, 1.0, 11)
        t2 = np.linspace(2.0, 3.0, 11)
        mk = lambda t: Trajectory(
            times=t,
            modes=np.ones(11, dtype=int),
            states=tuple(np.zeros(1) for _ in range(11)),
            outputs=np.zeros((11, 1)),
            inputs=np.zeros((11, 1)),
        )
        with pytest.raises(lssbal.LssError):
            output_l2_error(mk(t1), mk(t2))

    def test_input_l2(self):
        u = InputSignal.expr(amp=0.0, freq=1.0, decay=0.5, offset=1.0)
        val = input_l2(u, horizon=20.0, dt=1e-3)
        assert abs(val - 1.0) < 1e-5  # integral of e^{-t} over [0, 20]
        assert input_l2(InputSignal.zero(), 5.0) == 0.0


class TestInputSignal:
    def test_sampled_linear_interpolation(self):
        u = InputSignal.from_samples([0.0, 1.0, 2.0], [[0.0], [2.0], [0.0]])
        vals = u([0.5, 1.5, 3.0])
        np.testing.assert_allclose(vals[:, 0], [1.0, 1.0, 0.0])

    def test_sampled_matches_expr_when_dense(self, paper_model):
        t = np.linspace(0.0, 2.0, 4001)
        ref = InputSignal.paper()
        sampled = InputSignal.from_samples(t, ref(t))
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        a = simulate(paper_model, signal, u=ref, dt=1e-3)
        b = simulate(paper_model, signal, u=sampled, dt=1e-3)
        assert np.max(np.abs(a.outputs - b.outputs)) < 1e-5

    def test_nonmonotone_samples_rejected(self):
        with pytest.raises(DimensionError):
            InputSignal.from_samples([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_channel_mismatch_rejected(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0),))
        with pytest.raises(DimensionError):
            simulate(paper_model, signal, u=InputSignal.zero(width=2))


class TestKernels:
    def test_depth_one_scalar_at_zero(self):
        model = scalar_jump_model()
        h = kernel_eval(model, [1], [0.0])
        np.testing.assert_allclose(h, [[1.0]])

    def test_depth_two_scalar_chain(self):
        model = scalar_jump_model()
        t1, t2 = 0.4, 0.7
        h = kernel_eval(model, [1, 2], [t1, t2])
        # state enters through mode 1, evolves, resets, then exits via mode 2
        np.testing.assert_allclose(
            h, [[np.exp(-t1) * np.exp(-2.0 * t2)]], rtol=1e-12
        )

    def test_initial_kernel(self, paper_model):
        g = initial_kernel_eval(
            paper_model, [1, 2], [0.5, 0.25], x0=np.array([1.0, 0.0, 0.0])
        )
        E1 = np.diag(np.exp(np.diag(paper_model.mode(1).A) * 0.5))
        E2 = np.diag(np.exp(np.diag(paper_model.mode(2).A) * 0.25))
        ref = paper_model.mode(2).C @ E2 @ paper_model.coupling(1, 2) @ E1 @ np.array([1.0, 0, 0])
        np.testing.assert_allclose(g, ref, rtol=1e-12)

    def test_invalid_sequence_rejected(self, paper_model):
        with pytest.raises(DimensionError):
            kernel_eval(paper_model, [1, 1], [0.1, 0.1])

    def test_kernel_invariant_under_equivalence(self, paper_model):
        rng = np.random.default_rng(19)
        mats = [random_well_conditioned(rng, n) for n in paper_model.dims]
        other = lssbal.apply_equivalence(
            paper_model, EquivalenceTransform.similarity(mats)
        )
        for seq in ([2], [1, 3], [2, 3, 1]):
            times = rng.uniform(0.05, 1.0, size=len(seq))
            ref = kernel_eval(paper_model, seq, times)
            got = kernel_eval(other, seq, times)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-13)


class TestTransfer:
    def test_scalar_resolvent(self):
        model = scalar_jump_model()
        H0 = transfer_eval(model, [1], [0.0])
        np.testing.assert_allclose(H0, [[1.0]])
        H1 = transfer_eval(model, [1], [1.0])
        np.testing.assert_allclose(H1, [[0.5]])

    def test_high_frequency_asymptotics(self, paper_model):
        s = 1e9
        H = transfer_eval(paper_model, [2], [s])
        CB = paper_model.mode(2).C @ paper_model.mode(2).B
        np.testing.assert_allclose(s * H, CB, rtol=1e-6)

    def test_singular_resolvent_rejected(self, paper_model):
        # s equal to an eigenvalue of A_1
        with pytest.raises(SingularMatrixError):
            transfer_eval(paper_model, [1], [-1.0])

    def test_laplace_of_depth_two_kernel(self):
        model = scalar_jump_model()
        got = kernel_laplace_2d(model, 1, 2, 1.0, 2.0, t_max=30.0, steps=6000)
        want = transfer_eval(model, [2, 1], [2.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_laplace_consistency_on_paper_model(self, paper_model):
        got = kernel_laplace_2d(paper_model, 1, 2, 1.0, 2.0, t_max=25.0, steps=8000)
        want = transfer_eval(paper_model, [2, 1], [2.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-4)


class TestFrequencyResponse:
    def test_scalar_lowpass(self):
        model = scalar_jump_model()
        resp = frequency_response(model, 1, [0.0, 1.0])
        assert abs(abs(resp[0, 0, 0]) - 1.0) < 1e-12
        assert abs(abs(resp[1, 0, 0]) - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_paper_mode_one_dc_gain(self, paper_model):
        mode = paper_model.mode(1)
        ref = -mode.C @ np.linalg.solve(mode.A, mode.B)
        resp = frequency_response(paper_model, 1, [0.0])
        np.testing.assert_allclose(np.abs(resp[0]), np.abs(ref), rtol=1e-12)


class TestRandomDwellSignal:
    def test_respects_dwell_and_horizon(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 2.0))
            horizon = float(rng.uniform(3.0, 30.0)) * mu
            signal = random_dwell_signal(3, mu, horizon, rng)
            assert signal.min_dwell >= mu - 1e-12
            assert abs(signal.total_duration - horizon) < 1e-9
            modes = [q for q, _ in signal.events]
            assert all(a != b for a, b in zip(modes, modes[1:]))

    def test_reproducible(self):
        a = random_dwell_signal(3, 0.5, 10.0, np.random.default_rng(42))
        b = random_dwell_signal(3, 0.5, 10.0, np.random.default_rng(42))
        assert a.events == b.events

    def test_bad_parameters(self):
        with pytest.raises(DimensionError):
            random_dwell_signal(3, 0.0, 10.0, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            random_dwell_signal(3, 2.0, 1.0, np.random.default_rng(0))
