"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time

import numpy as np

import lssbal
from lssbal import (
    InputSignal,
    ReductionPlan,
    SwitchingSignal,
    balance,
    compute_gramians,
    dwell_time,
    error_bound,
    random_dwell_signal,
    simulate,
    solve_coupled,
    stability_certificate,
    truncate,
)

from golden import PAPER_BOUND_132, PAPER_SIGMA, reduced_matches_printed
from oracles import (
    apply_equivalence,
    dense_coupled_solve,
    exact_states,
    gramian_by_quadrature,
    level_k_gramians,
    random_well_conditioned,
    spectral_abscissa,
    switch_times,
    transfer_eval,
    verify_energy_bounds,
)

# dwell scale of the reference switching scenario (about ten switches
# over the 15 s horizon)
SCENARIO_DWELL = 1.5
SCENARIO_HORIZON = 15.0


def _criterion(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_balanced_gramian_values(paper_model):
    start = time.perf_counter()
    gset = compute_gramians(paper_model)
    bal = balance(paper_model, gset)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    worst = 0.0
    for s, ref in zip(bal.sigma, PAPER_SIGMA):
        worst = max(worst, float(np.max(np.abs(s - np.asarray(ref)))))
    ok = ok and worst < 5e-4
    _criterion(
        1, "balanced Gramian diagonals match the printed values",
        ok, f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_error_bound_value(paper_balanced):
    plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
    bound = error_bound(paper_balanced, plan)
    _criterion(
        2, "orders (1,3,2) give the printed output-error bound",
        abs(bound - PAPER_BOUND_132) < 1e-3, f"bound {bound:.4f}",
    )


def test_criterion_3_reduced_matrices(paper_balanced):
    plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
    red = truncate(paper_balanced, plan)
    _criterion(
        3, "reduced matrices match the printed values modulo sign gauge",
        reduced_matches_printed(red, atol=5e-4),
    )


def test_criterion_4_empirical_error_bound(paper_model, paper_balanced):
    plan = ReductionPlan.from_orders(paper_balanced, [1, 3, 2])
    red = truncate(paper_balanced, plan)
    bound = error_bound(paper_balanced, plan)
    u = InputSignal.paper()
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        signal = random_dwell_signal(
            paper_model.num_modes, SCENARIO_DWELL, SCENARIO_HORIZON, rng
        )
        traj = simulate(paper_model, signal, u=u, x0=np.zeros(3), dt=1e-3)
        traj_red = simulate(red, signal, u=u, x0=np.zeros(plan.orders[signal.events[0][0] - 1]), dt=1e-3)
        err = lssbal.output_l2_error(traj, traj_red)
        norm_u = lssbal.input_l2(u, signal.total_duration, dt=1e-3)
        worst = max(worst, err / norm_u)
    elapsed = time.perf_counter() - start
    ok = worst <= bound and elapsed < 30.0
    _criterion(
        4, "simulated output error stays below the bound on 20 seeded runs",
        ok, f"worst ratio {worst:.4f} vs bound {bound:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(50):
        D = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 6)) for _ in range(D)]
        model = lssbal.random_stable_model(
            rng, num_modes=D, dims=dims, coupling_norm=float(rng.uniform(0.05, 0.3))
        )
        for kind in ("reach", "obs"):
            sol = solve_coupled(model, kind)
            ref = dense_coupled_solve(model, kind)
            for got, want in zip(sol.matrices, ref):
                rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30)
                worst = max(worst, rel)
                sym = np.linalg.norm(got - got.T) / max(np.linalg.norm(got), 1e-30)
                eig = np.linalg.eigvalsh(got)
                assert sym <= 1e-12
                assert eig[0] >= -1e-10 * max(eig[-1], 1e-30)
            assert sol.diagnostics.converged
            assert max(sol.diagnostics.residuals) < 1e-10
            checked += 1
    _criterion(
        5, "series solver matches the dense vectorized solve on 50 models",
        worst < 1e-8, f"worst rel err {worst:.2e} over {checked} solves",
    )


def test_criterion_6_quadrature_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(10):
        model = lssbal.random_stable_model(
            rng, num_modes=2, dims=[int(rng.integers(2, 4)), int(rng.integers(2, 4))],
            coupling_norm=0.25, stability_margin=0.6,
        )
        abscissa = max(spectral_abscissa(m.A) for m in model.modes)
        t_max = min(30.0, np.log(1e9) / (2.0 * -abscissa))
        steps = int(t_max / 0.003)
        for k in (1, 2):
            levels = level_k_gramians(model, k, "reach")
            for q in (1, 2):
                quad = gramian_by_quadrature(
                    model, q, k, "reach", t_max=t_max, steps=steps
                )
                ref = levels[q - 1]
                rel = np.linalg.norm(quad - ref) / max(np.linalg.norm(ref), 1e-30)
                worst = max(worst, rel)
    _criterion(
        6, "tensor quadrature of the defining integrals matches the recursion",
        worst < 1e-4, f"worst rel err {worst:.2e}",
    )


def test_criterion_7_equivalence_invariance(paper_model):
    rng = np.random.default_rng(55)
    signal = SwitchingSignal(events=((1, 1.2), (3, 1.0), (2, 1.3)))
    u = InputSignal.paper()
    base_traj = simulate(paper_model, signal, u=u, x0=np.zeros(3), dt=1e-3)
    base_scale = np.max(np.abs(base_traj.outputs))
    sequences = ([1], [2, 3], [3, 1, 2])
    base_transfers = {}
    points = {}
    for seq in sequences:
        points[tuple(seq)] = rng.uniform(0.5, 4.0, size=len(seq)) + 1j * rng.uniform(
            -2.0, 2.0, size=len(seq)
        )
        base_transfers[tuple(seq)] = transfer_eval(paper_model, seq, points[tuple(seq)])

    worst_transfer = 0.0
    worst_output = 0.0
    for trial in range(20):
        mats = [random_well_conditioned(rng, n) for n in paper_model.dims]
        if trial % 2 == 0:
            other = apply_equivalence(paper_model, mats)
        else:
            rights = [random_well_conditioned(rng, n) for n in paper_model.dims]
            other = apply_equivalence(paper_model, mats, rights)
        for seq in sequences:
            ref = base_transfers[tuple(seq)]
            got = transfer_eval(other, seq, points[tuple(seq)])
            rel = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30)
            worst_transfer = max(worst_transfer, rel)
        traj = simulate(other, signal, u=u, x0=np.zeros(3), dt=1e-3)
        worst_output = max(
            worst_output,
            float(np.max(np.abs(traj.outputs - base_traj.outputs)) / base_scale),
        )
    ok = worst_transfer < 1e-8 and worst_output < 1e-8
    _criterion(
        7, "transfers and outputs invariant under 20 equivalence transforms",
        ok, f"transfer {worst_transfer:.2e}, output {worst_output:.2e}",
    )


def test_criterion_8_stability_decay():
    certified = 0
    seed = 0
    worst_slack = np.inf
    while certified < 10 and seed < 200:
        seed += 1
        D = 2 + (seed % 2)
        n = 3
        model = lssbal.random_stable_model(
            seed, num_modes=D, dims=[n] * D,
            coupling_norm=0.5, stability_margin=1.5,
        )
        try:
            gset = compute_gramians(model)
            cert = stability_certificate(model, gset)
        except lssbal.LssError:
            continue
        if not np.isfinite(cert.mu) or cert.mu > 300.0:
            continue
        certified += 1
        mu_run = max(cert.mu, 0.3)
        rng = np.random.default_rng(9000 + seed)
        signal = random_dwell_signal(D, mu_run, 4.0 * mu_run, rng)
        x0 = rng.normal(size=n)
        dt = min(0.05, mu_run / 50.0)
        traj = simulate(model, signal, u=None, x0=x0, dt=dt)
        norms = np.concatenate([np.linalg.norm(X, axis=1)
                                for X in exact_states(model, signal, x0, dt)])
        envelope = cert.K * np.exp(-cert.M * traj.times) * np.linalg.norm(x0)
        slack = float(np.min(envelope - norms))
        worst_slack = min(worst_slack, slack)
        assert np.all(norms <= envelope * (1.0 + 1e-9))
    _criterion(
        8, "zero-input decay stays inside the certified envelope on 10 models",
        certified == 10, f"min envelope slack {worst_slack:.2e}",
    )


def test_criterion_9_energy_bounds(paper_model, paper_gramians):
    mu_obs = dwell_time(paper_model, paper_gramians, "obs").mu
    dur = float(np.ceil(mu_obs) + 2.0)
    signal = SwitchingSignal(events=((1, dur), (2, dur), (3, dur)))
    x0 = np.array([1.0, 0.0, 0.0])
    traj = simulate(paper_model, signal, u=None, x0=x0, dt=1e-3)
    obs_report = verify_energy_bounds(
        paper_model, paper_gramians, traj, signal,
        exact_states(paper_model, signal, x0, 1e-3), side="obs"
    )

    mu_reach = dwell_time(paper_model, paper_gramians, "reach").mu
    dur = float(np.ceil(mu_reach) + 2.0)
    signal = SwitchingSignal(events=((1, dur), (2, dur), (3, dur)))
    # undecayed, so the pre-jump states are far above rounding
    u = InputSignal.expr(freq=0.2, decay=0.0)
    traj = simulate(paper_model, signal, u=u, x0=np.zeros(3), dt=1e-3)
    reach_report = verify_energy_bounds(
        paper_model, paper_gramians, traj, signal,
        exact_states(paper_model, signal, np.zeros(3), 1e-3, u), side="reach"
    )
    # x' P^-1 x reaches 1.8% of the input energy at the first switch: every P
    # scaled by 0.017 breaks the inequality, and by 2 the 1% ratio below
    reach_ratio = float(np.max(reach_report.lhs / reach_report.rhs))
    _criterion(
        9, "observation and control energy inequalities hold on the 3-mode model",
        obs_report.passed and reach_report.passed and reach_ratio > 0.01,
        f"obs margin {float(np.min(obs_report.lhs - obs_report.rhs)):.2e}, "
        f"largest reach x'P^-1x / input energy {reach_ratio:.3g}",
    )


def test_criterion_10_integrator_order(paper_model):
    signal = SwitchingSignal(
        events=((1, 3.0), (2, 3.0), (3, 3.0), (1, 3.0), (2, 3.0))
    )
    u = InputSignal.paper()

    def outputs_at_switches(dt):
        traj = simulate(paper_model, signal, u=u, dt=dt)
        idx = [int(np.argmin(np.abs(traj.times - T))) for T in switch_times(signal)]
        return traj.outputs[idx].ravel()

    ref = outputs_at_switches(0.02 / 8)
    err_coarse = np.max(np.abs(outputs_at_switches(0.02) - ref))
    err_fine = np.max(np.abs(outputs_at_switches(0.01) - ref))
    order = float(np.log2(err_coarse / err_fine))
    _criterion(
        10, "empirical convergence order of the integrator is at least 3.5",
        order >= 3.5, f"order {order:.2f}",
    )
