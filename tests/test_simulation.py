import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lssbal
from lssbal import (
    DimensionError,
    InputSignal,
    LssError,
    LssModel,
    ModeSystem,
    SwitchingSignal,
    Trajectory,
    input_l2,
    output_l2_error,
    random_dwell_signal,
    simulate,
)
from lssbal.simulation import _block_plan, _lift, _outputs, _rk4_step_operators

from oracles import (
    apply_equivalence,
    exact_states,
    initial_kernel_eval,
    kernel_eval,
    kernel_laplace_2d,
    output_l2_by_trapezoid,
    random_well_conditioned,
    switch_times,
    transfer_eval,
)


def scalar_jump_model():
    m1 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    m2 = ModeSystem(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
    K = np.array([[1.0]])
    return LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})


def literal_rk4_blocks(model, signal, u, x, dt):
    """Each interval's states by the step-by-step recurrence x <- F x + d_k.

    The drive d_k = G [u_lo; u_mid; u_hi] comes from the RK4 step
    operators; the coupling matrix resets the state between intervals.
    """
    t_start = 0.0
    for idx, (q, duration) in enumerate(signal.events):
        mode = model.mode(q)
        steps = math.ceil(duration / dt)
        h = duration / steps
        F, G = _rk4_step_operators(mode.A, mode.B, h)
        grid = t_start + h * np.arange(steps + 1)
        grid[-1] = t_start + duration
        u_lo, u_mid, u_hi = u(grid[:-1]), u(grid[:-1] + 0.5 * h), u(grid[1:])
        if idx:
            x = model.coupling(signal.events[idx - 1][0], q) @ x
        expected = []
        for k in range(steps):
            x = F @ x + G @ np.concatenate((u_lo[k], u_mid[k], u_hi[k]))
            expected.append(x)
        yield expected
        t_start += duration


def fresh_interval_blocks(model, signal, u, x, dt):
    """Each interval's states, end state and outputs from step maps and
    lifted data built for it alone: with C = I the outputs of `_outputs`
    are the states.  The next interval starts from the coupling matrix
    times the end state."""
    t_start = 0.0
    for idx, (q, duration) in enumerate(signal.events):
        mode = model.mode(q)
        steps = math.ceil(duration / dt)
        h = duration / steps
        grid = t_start + h * np.arange(steps + 1)
        grid[-1] = t_start + duration
        V = np.hstack((u(grid[:-1]), u(grid[:-1] + 0.5 * h), u(grid[1:])))
        if idx:
            x = model.coupling(signal.events[idx - 1][0], q) @ x
        F, G = _rk4_step_operators(mode.A, mode.B, h)
        Y, _ = _outputs(_lift(F, G, mode.C, steps), V, x)
        X, x = _outputs(_lift(F, G, np.eye(mode.n), steps), V, x)
        yield X, x, Y
        t_start += duration


TWO_EVENTS = SwitchingSignal(events=((1, 0.5), (2, 0.5)))

# One case per argument refusal of the simulation module: the call, its
# error and its message.
REFUSALS = [
    (lambda m: simulate(m, SwitchingSignal(events=((1, 0.5), (4, 0.5)))), DimensionError,
     "signal uses mode 4, model has 3"),
    (lambda m: simulate(m, TWO_EVENTS, u="paper"), lssbal.LssError,
     "input must be an InputSignal or None"),
    (lambda m: simulate(m, TWO_EVENTS, dt=True), DimensionError,
     "dt must be finite and positive, got True"),
    (lambda m: simulate(m, TWO_EVENTS, dt="0.1"), DimensionError,
     "dt must be finite and positive, got '0.1'"),
    (lambda m: simulate(m, TWO_EVENTS, dt=10**400), DimensionError,
     "dt must be finite and positive, got a number too large for a float"),
    (lambda m: input_l2(InputSignal.zero(), True), DimensionError,
     "horizon must be finite and positive, got True"),
    (lambda m: random_dwell_signal(3, True, 5.0, rng=1), DimensionError,
     "min_dwell must be finite and positive, got True"),
    (lambda m: random_dwell_signal(2.5, 1.0, 5.0, rng=1), DimensionError,
     "num_modes must be an integer, got 2.5"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals_name_their_argument(paper_model, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(paper_model)


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
        np.testing.assert_allclose(traj.outputs, expected, atol=1e-8)

    def test_two_mode_jump_product(self):
        model = scalar_jump_model()
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        traj = simulate(model, signal, u=None, x0=np.array([1.0]), dt=1e-3)
        x_final = traj.outputs[-1, 0]
        assert abs(x_final - np.exp(-1.0) * np.exp(-2.0)) < 1e-8

    def test_jump_is_exact_coupling_product(self, paper_model):
        # each interval's outputs are bitwise those of a chain that starts it
        # from the coupling matrix times the end state of the one before; the
        # sample at a switch instant belongs to the outgoing mode
        signal = SwitchingSignal(events=((1, 0.7), (3, 0.5), (2, 0.9)))
        u = InputSignal.paper()
        traj = simulate(paper_model, signal, u=u, dt=1e-3)
        first = 1
        for (q, _), (_, _, Y) in zip(signal.events, fresh_interval_blocks(
                paper_model, signal, u, np.zeros(3), 1e-3)):
            assert np.array_equal(traj.outputs[first:first + len(Y)], Y)
            assert np.all(traj.modes[first:first + len(Y)] == q)
            first += len(Y)
        assert first == len(traj.times)

    def test_switch_instants_on_grid(self, paper_model):
        signal = SwitchingSignal(events=((1, 0.333), (2, 0.251), (3, 1.0)))
        traj = simulate(paper_model, signal, u=None, dt=1e-2)
        for T in switch_times(signal):
            assert np.min(np.abs(traj.times - T)) < 1e-12

    def test_matches_exponential_oracle_with_jumps(self, paper_model):
        signal = SwitchingSignal(events=((2, 0.8), (1, 1.1), (3, 0.6)))
        x0 = np.array([0.3, -0.4, 0.9])
        for u in (None, InputSignal.paper()):
            traj = simulate(paper_model, signal, u=u, x0=x0, dt=1e-3)
            blocks = exact_states(paper_model, signal, x0, 1e-3, u)
            modes = [signal.events[0][0], *(q for q, _ in signal.events)]
            ref = np.concatenate([X @ paper_model.mode(q).C.T for q, X in zip(modes, blocks)])
            np.testing.assert_allclose(traj.outputs, ref, atol=1e-9)

    def test_wrong_x0_dimension(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0),))
        with pytest.raises(DimensionError):
            simulate(paper_model, signal, x0=np.zeros(2))

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_positive(self, paper_model, dt):
        signal = SwitchingSignal(events=((1, 1.0),))
        with pytest.raises(DimensionError, match="dt must be finite and positive, got"):
            simulate(paper_model, signal, dt=dt)

    @pytest.mark.parametrize("dt", [1e-3, 5e-324])
    def test_grid_beyond_sample_budget_rejected(self, paper_model, dt):
        signal = SwitchingSignal(events=((1, 1e9),))
        with pytest.raises(DimensionError, match=r"dt = \S+ over a horizon of 1000000000.0 s"):
            simulate(paper_model, signal, dt=dt)

    def test_sample_budget_counts_every_interval(self, paper_model, monkeypatch):
        monkeypatch.setattr(lssbal.simulation, "_MAX_SAMPLES", 30)
        traj = simulate(paper_model, SwitchingSignal(events=((1, 5.0), (2, 2.5))), dt=0.25)
        assert len(traj.times) == 31
        with pytest.raises(DimensionError, match="more than 30 samples"):
            simulate(paper_model, SwitchingSignal(events=((1, 5.0), (2, 2.75))), dt=0.25)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf, -math.inf, True, "1.5",
                                          b"2"])
    def test_event_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(DimensionError, match="event 1: duration must be finite and positive"):
            SwitchingSignal(events=((1, 0.5), (2, duration)))

    def test_mode_labels_are_checked_not_truncated(self):
        with pytest.raises(DimensionError, match="event 0: mode must be an integer, got 1.7"):
            SwitchingSignal(events=((1.7, 1.0), (2.2, 0.5)))
        with pytest.raises(DimensionError, match="event 1: mode must be an integer, got nan"):
            SwitchingSignal(events=((1, 1.0), (math.nan, 0.5)))
        signal = SwitchingSignal(events=((np.int64(2), 1.0), (1.0, 0.5)))
        assert signal.events == ((2, 1.0), (1, 0.5))
        assert all(type(q) is int for q, _ in signal.events)

    def test_equivalence_invariant_outputs(self, paper_model):
        rng = np.random.default_rng(15)
        mats = [random_well_conditioned(rng, n) for n in paper_model.dims]
        other = apply_equivalence(paper_model, mats)
        signal = SwitchingSignal(events=((1, 0.9), (2, 0.8), (3, 1.2)))
        x0 = rng.normal(size=3)
        x0_other = np.linalg.solve(mats[0], np.zeros(3))  # zero stays zero
        traj = simulate(paper_model, signal, u=InputSignal.paper(), x0=np.zeros(3))
        traj_other = simulate(other, signal, u=InputSignal.paper(), x0=x0_other)
        scale = np.max(np.abs(traj.outputs))
        assert np.max(np.abs(traj.outputs - traj_other.outputs)) < 1e-8 * scale


    def test_interval_blocks_follow_rk4_recurrence(self):
        model = lssbal.random_stable_model(8, num_modes=3, dims=[2, 3, 1],
                                           num_outputs=2)
        signal = SwitchingSignal(events=((2, 0.31), (3, 0.2), (1, 0.27), (2, 0.15)))
        u = InputSignal.paper()
        dt = 0.01
        x = np.array([1.0, -0.5, 2.0])
        self.assert_intervals_follow_recurrence(model, signal, u, x, dt)

    @staticmethod
    def assert_intervals_follow_recurrence(model, signal, u, x, dt):
        """Each interval's outputs are bitwise those of `fresh_interval_blocks`,
        whose states and end state are within 1e-13 of the literal
        recurrence, relative to that interval's largest |state|; the outputs
        are within 1e-14 of C_q x_k, relative to the largest |y|.  Returns
        the (mode, steps) of every interval."""
        traj = simulate(model, signal, u=u, x0=x, dt=dt)
        first, plan = 1, []
        reference = [model.mode(signal.events[0][0]).C @ x]
        for (q, _), expected, (X, end, Y) in zip(signal.events,
                                                 literal_rk4_blocks(model, signal, u, x, dt),
                                                 fresh_interval_blocks(model, signal, u, x, dt)):
            steps = len(expected)
            assert np.all(traj.modes[first:first + steps] == q)
            assert np.array_equal(traj.outputs[first:first + steps], Y)
            # lifting reassociates the sums of the recurrence
            expected = np.stack(expected)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(X - expected)) <= 1e-13 * scale
            assert np.max(np.abs(end - expected[-1])) <= 1e-13 * scale
            reference.extend(X @ model.mode(q).C.T)
            plan.append((q, steps))
            first += steps
        assert first == len(traj.times)
        reference = np.stack(reference)
        assert np.max(np.abs(traj.outputs - reference)) <= 1e-14 * np.max(np.abs(reference))
        return plan

    @pytest.mark.parametrize("dims", [[70, 65], [100, 100]], ids=["70x65", "100x100"])
    def test_wide_modes_follow_recurrence(self, dims):
        # 1, 50, 230 and 1000 steps take blocks of L = 1, 1, 8 and 16 at
        # n = 65 and 70, and of L = 1, 1, 4 and 16 at n = 100
        model = lssbal.random_stable_model(3, num_modes=2, dims=dims)
        signal = SwitchingSignal(events=((1, 0.05), (2, 1.0), (1, 0.001), (2, 0.23)))
        x = np.linspace(-1.0, 1.0, dims[0])
        self.assert_intervals_follow_recurrence(model, signal, InputSignal.paper(), x, 1e-3)

    def test_ragged_blocks_across_changing_dimensions(self):
        # block lengths L = 1 up to 16, starts from the scan and from the
        # loop, and last blocks that are full, one step long or one step short
        model = lssbal.random_stable_model(12, num_modes=3, dims=[3, 5, 2])
        plan = ((1, 1), (2, 4), (3, 16), (1, 65), (2, 63), (3, 256), (1, 127), (2, 9),
                (3, 2049))
        dt = 0.01
        signal = SwitchingSignal(events=tuple((q, (steps - 0.5) * dt) for q, steps in plan))
        got = self.assert_intervals_follow_recurrence(
            model, signal, InputSignal.paper(), np.array([0.4, -1.0, 0.7]), dt)
        assert tuple(got) == plan
        blocks = [(*_block_plan(steps, model.mode(q).n), steps) for q, steps in plan]
        assert [L for L, _, _ in blocks] == [1, 1, 4, 8, 4, 8, 8, 2, 16]
        assert [scan for _, scan, _ in blocks] == [True, False, True, False, False,
                                                   True, True, False, True]
        assert {steps % L for L, _, steps in blocks if L > 1} == {0, 1, 3, 7}

    def test_revisited_modes_reuse_maps_of_their_own_step(self, monkeypatch):
        # dt = 2^-6: mode 1 returns at the same dwell (same maps), at 0.99 s
        # (64 steps again, another step size) and at 2 s (the same step
        # size, 128 steps); mode 2 returns at the same dwell
        model = lssbal.random_stable_model(4, num_modes=2, dims=[3, 2])
        signal = SwitchingSignal(events=((1, 1.0), (2, 0.5), (1, 1.0), (2, 0.5), (1, 0.99),
                                         (2, 0.25), (1, 2.0)))
        u, x, dt = InputSignal.paper(), np.array([0.5, -1.0, 0.25]), 2.0 ** -6
        builds = []

        def counted_lift(F, G, C, steps):
            builds.append(steps)
            return _lift(F, G, C, steps)

        monkeypatch.setattr(lssbal.simulation, "_lift", counted_lift)
        traj = simulate(model, signal, u=u, x0=x, dt=dt)
        assert builds == [64, 32, 64, 16, 128]
        first = 1
        for _, _, outputs in fresh_interval_blocks(model, signal, u, x, dt):
            steps = len(outputs)
            assert np.array_equal(traj.outputs[first:first + steps], outputs)
            first += steps
        assert first == len(traj.times)

    @pytest.mark.parametrize("x0", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
    def test_non_finite_x0_rejected(self, paper_model, x0):
        signal = SwitchingSignal(events=((1, 1.0),))
        with pytest.raises(DimensionError, match="x0 has non-finite entries"):
            simulate(paper_model, signal, x0=x0)

    def test_zero_dimension_mode(self):
        m0 = ModeSystem(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)))
        model = LssModel(modes=(scalar_jump_model().mode(1), m0),
                         couplings={(1, 2): np.zeros((0, 1)), (2, 1): np.zeros((1, 0))})
        signal = SwitchingSignal(events=((1, 0.1), (2, 0.1), (1, 0.1)))
        traj = simulate(model, signal, u=InputSignal.paper(), x0=[1.0], dt=0.01)
        assert len(traj.times) == 31
        assert traj.modes.tolist() == [1] * 11 + [2] * 10 + [1] * 10
        assert np.all(traj.outputs[11:21] == 0.0)

    def test_holds_no_object_per_sample(self, paper_model):
        # about 48,000 samples; the trajectory costs what its arrays cost
        signal = SwitchingSignal(events=((1, 240.0), (2, 250.0), (3, 230.0), (1, 239.0)))
        u = InputSignal.paper()
        simulate(paper_model, signal, u=u, dt=0.02)
        tracemalloc.start()
        try:
            traj = simulate(paper_model, signal, u=u, dt=0.02)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(traj.times) > 47_000
        nbytes = sum(a.nbytes for a in (traj.times, traj.modes, traj.outputs, traj.inputs))
        assert held < 1.5 * nbytes

    def test_cold_call_holds_little_beyond_its_trajectory(self, paper_model):
        # a new input: the call samples it, and holds little beyond the
        # trajectory's four arrays and the RK4 midpoint inputs the input keeps
        signal = SwitchingSignal(events=((1, 240.0), (2, 250.0), (3, 230.0), (1, 239.0)))
        u = InputSignal.paper()
        tracemalloc.start()
        try:
            traj = simulate(paper_model, signal, u=u, dt=0.02)
            held = tracemalloc.get_traced_memory()[0]
            nbytes = sum(a.nbytes for a in (traj.times, traj.modes, traj.outputs, traj.inputs,
                                            *u._sampling[1][3]))
            samples = len(traj.times)
            del traj
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.2 * nbytes
        # the input still holds its sampling: times, modes, grid and
        # midpoint inputs, 8 (2 + 2m) bytes a sample with m = 1
        assert u._sampling is not None
        assert 0.95 * 32 * samples <= kept <= 1.05 * 32 * samples

    @staticmethod
    def literal(F, G, V, x):
        expected = []
        for v in V:
            x = F @ x + G @ v
            expected.append(x)
        return np.stack(expected)

    @classmethod
    def assert_lifted_matches_literal(cls, F, G, V, x):
        """States, end state and outputs within 1e-13 of the literal
        recurrence: the states, the outputs of C = I, relative to the
        largest |state|; the outputs, of 0 to 2 rows of C, relative to the
        largest sum of |C_ij x_j|.  The end state does not depend on C."""
        steps, n = len(V), len(x)
        C = np.random.default_rng(steps).normal(size=(steps % 3, n))
        X, end = _outputs(_lift(F, G, np.eye(n), steps), V, x)
        Y, end_of_C = _outputs(_lift(F, G, C, steps), V, x)
        assert X.shape == (steps, n) and Y.shape == (steps, len(C))
        assert np.array_equal(end, end_of_C)
        expected = cls.literal(F, G, V, x)
        scale = np.max(np.abs(expected), initial=0.0)
        assert np.max(np.abs(X - expected), initial=0.0) <= 1e-13 * scale
        assert np.max(np.abs(end - expected[-1]), initial=0.0) <= 1e-13 * scale
        scale = np.max(np.abs(expected) @ np.abs(C).T, initial=0.0)
        assert np.max(np.abs(Y - expected @ C.T), initial=0.0) <= 1e-13 * scale

    @staticmethod
    def random_system(rng, n, r, radius):
        M = rng.normal(size=(n, n))
        F = radius / np.max(np.abs(np.linalg.eigvals(M))) * M
        return F, rng.normal(size=(n, r))

    @settings(max_examples=60)
    @given(n=st.integers(1, 12), steps=st.integers(1, 200),
           radius=st.floats(0.5, 1.02), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_lifted_steps_match_literal_recurrence(self, n, steps, radius, seed, data):
        r = data.draw(st.integers(0, n + 2), label="r")
        rng = np.random.default_rng(seed)
        F, G = self.random_system(rng, n, r, radius)
        self.assert_lifted_matches_literal(F, G, rng.normal(size=(steps, r)), rng.normal(size=n))

    @pytest.mark.parametrize("n", [1, 3, 10, 65, 100, 200])
    def test_lifted_steps_on_block_boundaries(self, n):
        # every count up to 2100 where the rule changes L or switches between
        # the scan and the loop, with its neighbours; 1; and the largest L
        # of those counts, with its neighbours
        changes = [s for s in range(2, 2101) if _block_plan(s, n) != _block_plan(s - 1, n)]
        largest = max(_block_plan(s, n)[0] for s in changes)
        counts = sorted({1, largest - 1, largest, largest + 1}.union(
            *({s - 1, s, s + 1} for s in changes)))
        rng = np.random.default_rng(n)
        F, G = self.random_system(rng, n, 3, 0.99)
        x = rng.normal(size=n)
        for steps in counts:
            self.assert_lifted_matches_literal(F, G, rng.normal(size=(steps, 3)), x)
        plans = {_block_plan(s, n) for s in counts}
        assert {L for L, _ in plans} == {1 << j for j in range(largest.bit_length())}
        assert {scan for _, scan in plans} == ({True} if n == 1 else {True, False})

    def test_block_plan_of_benchmark_shapes(self):
        # the paper's modes (n <= 3, ~12,000 steps per dwell) scan; a mode
        # of n = 100 at 1,000 steps keeps one product per block start
        assert {_block_plan(steps, n) for n in (1, 2, 3) for steps in (11_400, 12_540)} == {
            (16, True)}
        assert _block_plan(1_000, 100) == (16, False)

    def test_overflowing_power_keeps_zero_state(self):
        # (F^L)^(2^r) overflows halfway through the 4000 steps; the scan
        # must stop short of it, or inf * 0 would turn the zero state to NaN
        F, G, C = np.diag([1.5, 0.5]), np.array([[1.0], [0.0]]), np.ones((1, 2))
        V = np.zeros((4000, 1))
        assert _block_plan(len(V), 2)[1]
        Y, _ = _outputs(_lift(F, G, C, len(V)), V, np.zeros(2))
        X, end = _outputs(_lift(F, G, np.eye(2), len(V)), V, np.zeros(2))
        assert not Y.any() and not X.any() and not end.any()
        self.assert_lifted_matches_literal(F, G, V, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("n, r", [(0, 0), (0, 3), (4, 0)])
    def test_lifted_steps_without_states_or_inputs(self, n, r):
        rng = np.random.default_rng(5)
        F, G = (np.zeros((0, 0)), np.zeros((0, r))) if n == 0 else self.random_system(rng, n, r, 0.9)
        for steps in (1, 3, 17, 300):
            self.assert_lifted_matches_literal(F, G, rng.normal(size=(steps, r)), rng.normal(size=n))


class TestInitialState:
    def test_zero_state_in_any_first_mode(self, paper_model):
        # without x0 a run from mode 2 starts at zero, so a zero input keeps it there
        traj = simulate(paper_model, SwitchingSignal(events=((2, 0.5), (1, 0.5))), dt=0.1)
        assert np.all(traj.outputs == 0.0)

    def test_stored_x0_belongs_to_mode_1(self, paper_model):
        x0 = np.array([1.0, -2.0, 0.5])
        model = LssModel(modes=paper_model.modes, couplings=paper_model.couplings, x0=x0)
        traj = simulate(model, SwitchingSignal(events=((1, 0.5), (2, 0.5))), dt=0.1)
        np.testing.assert_allclose(traj.outputs[0], paper_model.mode(1).C @ x0, rtol=1e-15)
        with pytest.raises(DimensionError, match="mode 1"):
            simulate(model, SwitchingSignal(events=((2, 0.5), (1, 0.5))), dt=0.1)


class TestSharedSampling:
    """One sampling per (input, signal, dt), shared by every simulation on it."""

    @staticmethod
    def assert_same_run(got, want):
        for name in ("times", "modes", "outputs", "inputs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("make_input", [
        InputSignal.paper,
        lambda: InputSignal.from_samples([0.0, 0.2, 0.45, 1.0], [1.0, -0.5, 2.0, 0.3]),
        InputSignal.zero,
    ], ids=["expr", "samples", "zero"])
    def test_sampling_is_never_stale(self, make_input):
        model = lssbal.random_stable_model(6, num_modes=3, dims=[2, 3, 2])
        A = SwitchingSignal(events=((1, 0.3), (2, 0.25), (3, 0.2)))
        B = SwitchingSignal(events=((2, 0.2), (1, 0.35)))
        A_copy = SwitchingSignal(events=A.events)  # equal events, another object
        u = make_input()
        prev, prev_key = None, None
        # a change of dt, of events, A B A, then equal events held by a new signal
        for signal, dt in ((A, 0.01), (A, 0.007), (B, 0.007), (A, 0.007), (A_copy, 0.007)):
            x0 = np.linspace(-1.0, 1.0, model.mode(signal.events[0][0]).n)
            got = simulate(model, signal, u=u, x0=x0, dt=dt)
            self.assert_same_run(got, simulate(model, signal, u=make_input(), x0=x0, dt=dt))
            shared = (signal.events, dt) == prev_key
            assert all((getattr(got, name) is getattr(prev, name, None)) == shared
                       for name in ("times", "modes", "inputs"))
            prev, prev_key = got, (signal.events, dt)

    def test_reductions_share_read_only_arrays(self, paper_model, paper_balanced):
        reduced = lssbal.truncate(paper_balanced,
                                  lssbal.ReductionPlan.from_orders(paper_balanced, [1, 3, 2]))
        signal = SwitchingSignal(events=((1, 0.7), (3, 0.5), (2, 0.9)))
        u = InputSignal.paper()
        full = simulate(paper_model, signal, u=u, dt=0.01)
        red = simulate(reduced, signal, u=u, dt=0.01)
        for name in ("times", "modes", "inputs"):
            assert getattr(red, name) is getattr(full, name)
            with pytest.raises(ValueError):
                getattr(full, name)[-1] = 0
        self.assert_same_run(red, simulate(reduced, signal, u=InputSignal.paper(), dt=0.01))


class TestStepOperators:
    def test_matches_literal_runge_kutta_step(self):
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

        F, G = _rk4_step_operators(A, B, h)
        x_op = F @ x + G @ np.concatenate((u1, u2, u3))
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
                for T in switch_times(signal)
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
            outputs=y,
            inputs=np.zeros((t.shape[0], 1)),
        )
        err = output_l2_error(mk(ya), mk(yb))
        assert abs(err - np.sqrt(0.5)) < 1e-6

    def test_different_grids_refused(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        a = simulate(paper_model, signal, u=InputSignal.paper(), dt=1e-3)
        b = simulate(paper_model, signal, u=InputSignal.paper(), dt=1.3e-3)
        message = (r"trajectories are on different grids: 2001 samples over \[0.0, 2.0\] "
                   r"and 1541 samples over \[0.0, 2.0\]")
        with pytest.raises(DimensionError, match=message):
            output_l2_error(a, b)
        with pytest.raises(DimensionError, match=message):
            lssbal.modelio.trajectory_to_csv(a, b)

    def test_equal_grids_of_two_samplings_accepted(self, paper_model):
        signal = SwitchingSignal(events=((1, 1.0), (2, 1.0)))
        u = InputSignal.paper()
        full, shared = (simulate(paper_model, signal, u=u, dt=1e-2) for _ in range(2))
        # a new input is sampled afresh: equal times, another array
        other = simulate(paper_model, signal, u=InputSignal.paper(), dt=1e-2)
        assert shared.times is full.times and other.times is not full.times
        assert output_l2_error(full, other) == output_l2_error(full, shared) == 0.0
        assert (lssbal.modelio.trajectory_to_csv(full, other)
                == lssbal.modelio.trajectory_to_csv(full, shared))

    def test_disjoint_windows_rejected(self):
        t1 = np.linspace(0.0, 1.0, 11)
        t2 = np.linspace(2.0, 3.0, 11)
        mk = lambda t: Trajectory(
            times=t,
            modes=np.ones(11, dtype=int),
            outputs=np.zeros((11, 1)),
            inputs=np.zeros((11, 1)),
        )
        with pytest.raises(DimensionError, match=r"different grids: 11 samples over \[0.0, 1.0\] "
                                                 r"and 11 samples over \[2.0, 3.0\]"):
            output_l2_error(mk(t1), mk(t2))

    @staticmethod
    def synthetic(t, width=2, phase=0.0):
        t = np.asarray(t, dtype=float)
        outputs = np.stack([np.sin(3.0 * t + c + phase) * np.exp(-0.2 * t)
                            for c in range(width)], axis=1)
        return Trajectory(times=t, modes=np.ones(len(t), dtype=int), outputs=outputs,
                          inputs=np.zeros((len(t), 1)))

    @pytest.mark.parametrize("grid_a, grid_b", [
        ((0.0, 2.0, 201), (0.0, 2.0, 201)),     # one grid, in two equal arrays
    ], ids=["same-grid"])
    def test_l2_error_matches_trapezoid_oracle(self, grid_a, grid_b):
        a = self.synthetic(np.linspace(*grid_a))
        b = self.synthetic(np.linspace(*grid_b), phase=1.0)
        want = output_l2_by_trapezoid(a, b)
        assert want > 0.1
        assert abs(output_l2_error(a, b) - want) <= 1e-12 * want

    @pytest.mark.parametrize("grid_a, grid_b", [
        ((0.0, 2.0, 201), (-0.5, 3.0, 151)),    # b covers a's whole grid
        ((0.0, 3.0, 301), (0.5, 2.2, 97)),      # a reaches past b at both ends
        ((0.4, 3.0, 131), (0.0, 2.5, 211)),     # a starts and ends later
    ], ids=["full-window", "partial-window", "offset-window"])
    def test_window_grids_refused(self, grid_a, grid_b):
        a = self.synthetic(np.linspace(*grid_a))
        b = self.synthetic(np.linspace(*grid_b), phase=1.0)
        with pytest.raises(DimensionError, match=f"{grid_a[2]} samples over .* and "
                                                 f"{grid_b[2]} samples over"):
            output_l2_error(a, b)

    def test_simulated_l2_error_matches_trapezoid_oracle(self, paper_model, paper_balanced):
        reduced = lssbal.truncate(paper_balanced,
                                  lssbal.ReductionPlan.from_orders(paper_balanced, (1, 3, 2)))
        signal = SwitchingSignal(events=((1, 0.6), (3, 0.5), (2, 0.9)))
        u = InputSignal.paper()
        full = simulate(paper_model, signal, u=u, dt=1e-2)
        other = simulate(reduced, signal, u=u, dt=1e-2)
        want = output_l2_by_trapezoid(full, other)
        assert abs(output_l2_error(full, other) - want) <= 1e-12 * want
        # a shorter run on another step is a different grid
        shorter = simulate(reduced, SwitchingSignal(events=((1, 0.6), (3, 0.4))), u=u, dt=7e-3)
        with pytest.raises(DimensionError, match="different grids: 201 samples"):
            output_l2_error(full, shorter)

    def test_output_widths_must_agree(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DimensionError, match="trajectories have 1 and 2 outputs"):
            output_l2_error(self.synthetic(t, width=1), self.synthetic(t, width=2))

    def test_input_l2(self):
        u = InputSignal.expr(amp=0.0, freq=1.0, decay=0.5, offset=1.0)
        val = input_l2(u, horizon=20.0, dt=1e-3)
        assert abs(val - 1.0) < 1e-5  # integral of e^{-t} over [0, 20]
        assert input_l2(InputSignal.zero(), 5.0) == 0.0

    def test_a_norm_that_is_not_finite_is_refused(self):
        t = np.linspace(0.0, 2.0, 201)
        a, b = self.synthetic(t), self.synthetic(t, phase=1.0)
        diff = a.outputs - b.outputs
        # a finite norm is the plain trapezoid of the squared rows, bit for bit
        assert output_l2_error(a, b) == float(np.sqrt(np.trapezoid(np.sum(diff ** 2, axis=1), t)))
        for scale, norm in ((1e200, "inf"), (np.nan, "nan")):
            other = Trajectory(times=t, modes=a.modes, outputs=scale * a.outputs, inputs=a.inputs)
            with pytest.raises(LssError, match=f"the output L2 error is {norm}"):
                output_l2_error(other, b)
        with pytest.raises(LssError, match="the input L2 norm is inf"):
            input_l2(InputSignal.expr(amp=1e200), 1.0, dt=0.1)

    def test_an_expr_sample_that_is_not_finite_is_refused(self, paper_model):
        for u, value, t in ((InputSignal.expr(amp=1e308, offset=1e308), "inf", 0.1),
                            (InputSignal.expr(amp=0.0, offset=0.0, decay=-1000.0), "nan", 0.8)):
            message = re.escape(f"input {u.to_dict()} is {value} at t = {t}")
            with pytest.raises(DimensionError, match=message):
                input_l2(u, 1.0, dt=0.1)
            with pytest.raises(DimensionError, match=message):
                simulate(paper_model, SwitchingSignal(events=((1, 1.0),)), u, dt=0.1)

    def test_no_outputs_and_no_inputs_have_zero_norms(self):
        model = lssbal.random_stable_model(3, num_modes=2, dims=[2, 2], num_outputs=0)
        traj = simulate(model, SwitchingSignal(events=((1, 0.5), (2, 0.5))), dt=0.1)
        assert traj.outputs.shape == (11, 0)
        assert output_l2_error(traj, traj) == 0.0
        assert input_l2(InputSignal.zero(0), 1.0) == 0.0

    @pytest.mark.parametrize("horizon, dt, message", [
        (1.0, -1e-3, "dt must be finite and positive, got -0.001"),
        (1.0, 0.0, "dt must be finite and positive"),
        (1.0, math.nan, "dt must be finite and positive"),
        (1.0, math.inf, "dt must be finite and positive"),
        (0.0, 1e-3, "horizon must be finite and positive"),
        (-2.0, 1e-3, "horizon must be finite and positive"),
        (math.nan, 1e-3, "horizon must be finite and positive"),
        (math.inf, 1e-3, "horizon must be finite and positive"),
        (1e7, 1e-3, r"dt = 0.001 over a horizon of 10000000.0 s needs more than 10000000 samples"),
        (1.0, 5e-324, "needs more than 10000000 samples"),
    ])
    def test_input_l2_refusals_allocate_nothing(self, horizon, dt, message):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match=message):
                input_l2(InputSignal.paper(), horizon, dt=dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_input_l2_sample_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(lssbal.simulation, "_MAX_SAMPLES", 30)
        assert input_l2(InputSignal.paper(), 7.5, dt=0.25) > 0.0
        with pytest.raises(DimensionError, match="more than 30 samples"):
            input_l2(InputSignal.paper(), 7.75, dt=0.25)


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

    @pytest.mark.parametrize("times, values, message", [
        ([0.0, math.nan, 1.0], [1.0, 2.0, 3.0], "sample times must be finite"),
        ([0.0, 1.0, math.inf], [1.0, 2.0, 3.0], "sample times must be finite"),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], "sample values must be finite"),
        ([0.0, 1.0, 2.0], [[1.0, 0.0], [2.0, -math.inf], [3.0, 0.0]],
         "sample values must be finite"),
    ])
    def test_non_finite_samples_rejected(self, times, values, message):
        with pytest.raises(DimensionError, match=message):
            InputSignal.from_samples(times, values)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None, True, False])
    @pytest.mark.parametrize("field", ["amp", "freq", "decay", "offset"])
    def test_non_finite_expr_parameters_rejected(self, field, value):
        message = re.escape(f"{field} must be a finite real number, got {value!r}")
        with pytest.raises(DimensionError, match=message):
            InputSignal.expr(**{field: value})
        # the constructor itself refuses them too, for every kind
        with pytest.raises(DimensionError, match=message):
            InputSignal(kind="expr", **{field: value})
        with pytest.raises(DimensionError, match=message):
            InputSignal(**{field: value})

    @pytest.mark.parametrize("make, message", [
        (lambda: InputSignal(kind="bogus"), "kind must be 'zero', 'expr' or 'samples', got 'bogus'"),
        (lambda: InputSignal.zero(-1), "width must be a non-negative integer, got -1"),
        (lambda: InputSignal.paper(1.5), "width must be an integer, got 1.5"),
        (lambda: InputSignal(kind="expr", width="2"), "width must be an integer, got '2'"),
        (lambda: InputSignal(kind="zero", width=True), "width must be an integer, got True"),
        (lambda: InputSignal(kind="samples"), "a 'samples' input needs sample_times"),
        (lambda: InputSignal(kind="samples", sample_times=np.zeros(1)),
         "a 'samples' input needs sample_values"),
        (lambda: InputSignal(kind="samples", sample_values=np.zeros((1, 1))),
         "a 'samples' input needs sample_times"),
    ])
    def test_constructor_refuses_bad_fields(self, make, message):
        with pytest.raises(DimensionError, match=message):
            make()

    @pytest.mark.parametrize("fields, message", [
        ({"width": 2}, "width 2 differs from the 1 columns of sample_values"),
        ({"sample_values": [1.0, 2.0, 0.0]},
         r"sample_values 2-D \(one row per time\), got shapes \(3,\) and \(3,\)"),
        ({"sample_times": [0.0, 1.0, 0.4]}, "sample times must be non-empty and strictly increasing"),
        ({"sample_times": [0.0, 1.0]}, "sample times and values differ in length"),
        ({"sample_times": [0.0, 1.0, math.nan]}, "sample times must be finite"),
    ])
    def test_constructor_checks_samples(self, fields, message):
        good = {"sample_times": [0.0, 0.4, 1.0], "sample_values": [[1.0], [2.0], [0.0]]}
        assert InputSignal(kind="samples", **good)(0.2)[0, 0] == pytest.approx(1.5)
        with pytest.raises(DimensionError, match=message):
            InputSignal(kind="samples", **(good | fields))

    def test_constructor_keeps_read_only_copies_of_samples(self):
        times, values = np.array([0.0, 0.4, 1.0]), np.array([[1.0], [2.0], [0.0]])
        u = InputSignal(kind="samples", sample_times=times, sample_values=values)
        grid = np.linspace(0.0, 1.0, 11)
        before = u(grid)
        times[:] = [0.0, 1.0, 2.0]
        values[:] = 5.0
        assert np.array_equal(u(grid), before)
        with pytest.raises(ValueError):
            u.sample_values[0, 0] = 1.0

    def test_zero_width_inputs_stay_valid(self):
        for u in (InputSignal.zero(0), InputSignal.paper(0)):
            assert u(np.linspace(0.0, 1.0, 5)).shape == (5, 0)
        model = LssModel(modes=(ModeSystem(A=[[-1.0]], B=np.zeros((1, 0)), C=[[1.0]]),
                                ModeSystem(A=[[-2.0]], B=np.zeros((1, 0)), C=[[1.0]])))
        traj = simulate(model, SwitchingSignal(events=((1, 0.5), (2, 0.5))), x0=[1.0], dt=0.1)
        assert traj.inputs.shape == (11, 0)

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
        other = apply_equivalence(paper_model, mats)
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
        with pytest.raises(LssError, match="resolvent of mode 1 is singular"):
            transfer_eval(paper_model, [1], [-1.0])

    def test_mode_labels_are_checked_not_truncated(self, paper_model):
        with pytest.raises(DimensionError, match="event 0: mode must be an integer, got 1.9"):
            transfer_eval(paper_model, [1.9], [1.0])
        with pytest.raises(DimensionError, match="event 1: mode must be an integer"):
            transfer_eval(paper_model, [2, 1.5], [1.0, 1.0])
        np.testing.assert_array_equal(transfer_eval(paper_model, [np.int64(2), 1.0], [1.0, 2.0]),
                                      transfer_eval(paper_model, [2, 1], [1.0, 2.0]))

    def test_laplace_of_depth_two_kernel(self):
        model = scalar_jump_model()
        got = kernel_laplace_2d(model, 1, 2, 1.0, 2.0, t_max=30.0, steps=6000)
        want = transfer_eval(model, [2, 1], [2.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_laplace_consistency_on_paper_model(self, paper_model):
        got = kernel_laplace_2d(paper_model, 1, 2, 1.0, 2.0, t_max=25.0, steps=8000)
        want = transfer_eval(paper_model, [2, 1], [2.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-4)


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
        for num_modes in (1, 0):
            with pytest.raises(DimensionError, match=f"num_modes >= 2, got {num_modes}"):
                random_dwell_signal(num_modes, 1.0, 5.0, 0)

    def test_too_many_events_refused(self):
        # 15 s of dwells no shorter than 7.5e-5 s could hold 200,000 events
        with pytest.raises(DimensionError, match="allows more than 100000 events"):
            random_dwell_signal(3, 15.0 / 200_000, 15.0, np.random.default_rng(0))

    def test_event_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(lssbal.simulation, "_MAX_RANDOM_EVENTS", 10)
        signal = random_dwell_signal(3, 1.0, 10.0, np.random.default_rng(0))
        assert abs(signal.total_duration - 10.0) < 1e-9
        with pytest.raises(DimensionError, match="more than 10 events"):
            random_dwell_signal(3, 1.0, 10.5, np.random.default_rng(0))

    @pytest.mark.parametrize("min_dwell, horizon, message", [
        (1.0, math.nan, "horizon must be finite"),
        (1.0, math.inf, "horizon must be finite"),
        (math.nan, 10.0, "min_dwell must be finite and positive"),
        (math.inf, math.inf, "min_dwell must be finite and positive"),
    ])
    def test_non_finite_parameters_rejected(self, min_dwell, horizon, message):
        with pytest.raises(DimensionError, match=message):
            random_dwell_signal(3, min_dwell, horizon, 0)
