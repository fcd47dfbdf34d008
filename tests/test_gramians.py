import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dtrsyl

import lssbal
from lssbal import (
    ConvergenceError,
    LssModel,
    ModeSystem,
    StabilityError,
    check_existence,
    compute_gramians,
    solve_coupled,
    solve_lyapunov,
)
from lssbal import gramians

from oracles import (
    assemble_block_form,
    block_form_dense_solve,
    dense_coupled_solve,
    dual,
    extract_diagonal_blocks,
    gramian_by_quadrature,
    level_k_gramians,
    lyapunov_kron_solve,
    series_radius,
)


# One case per argument refusal of the solvers: the call, its error and its message.
REFUSALS = [
    (lambda m: solve_lyapunov(-np.eye(2), np.eye(3)), lssbal.LssError,
     "shape mismatch: A (2, 2), W (3, 3)"),
    (lambda m: solve_coupled(m, "reach", max_iter=2.5), lssbal.DimensionError,
     "max_iter must be an integer, got 2.5"),
    (lambda m: solve_coupled(m, "reach", max_iter=True), lssbal.DimensionError,
     "max_iter must be an integer, got True"),
    (lambda m: solve_coupled(m, "reach", max_iter=0), lssbal.DimensionError,
     "max_iter must be a positive integer, got 0"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals_name_their_argument(paper_model, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(paper_model)


def scalar_two_mode():
    m1 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    m2 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    K = np.array([[1.0]])
    return LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})


def strongly_coupled_model():
    """Three stable modes whose coupled series diverges on both sides."""
    base = lssbal.random_stable_model(3, num_modes=3, dims=[2, 3, 2])
    return LssModel(modes=base.modes,
                    couplings={key: 10.0 * K for key, K in base.couplings.items()})


def obs_divergence_model():
    """Two scalar modes, weighted differently by B and C, with radius 1.0607."""
    m1 = ModeSystem(A=[[-1.0]], B=[[30.0]], C=[[0.01]])
    m2 = ModeSystem(A=[[-0.5]], B=[[1.0]], C=[[1.0]])
    return LssModel(modes=(m1, m2), couplings={(1, 2): np.array([[3.0]]),
                                               (2, 1): np.array([[0.5]])})


def overflow_model(k=3.0):
    """Two scalar modes with K = k both ways: radius k^2, so the series overflows."""
    K = np.array([[k]])
    m = ModeSystem(A=[[-0.5]], B=[[1.0]], C=[[1.0]])
    return LssModel(modes=(m, m), couplings={(1, 2): K, (2, 1): K})


def drawn_model(seed, dims, identity, descriptor, coupling_norm):
    """Modes A = Q T Q' with a complex pair (a 2x2 Schur block) in every mode
    of order >= 2; with ``identity``, half the pairs of equal order keep the
    implicit identity coupling; with ``descriptor``, every other mode has E."""
    rng = np.random.default_rng(seed)
    modes = []
    for q, n in enumerate(dims):
        T = np.triu(rng.normal(size=(n, n)), 1) + np.diag(-rng.uniform(1.0, 3.0, n))
        if n >= 2:
            T[0, 1], T[1, 0], T[1, 1] = 2.0, -rng.uniform(0.5, 2.0), T[0, 0]
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A, B, E = Q @ T @ Q.T, rng.normal(size=(n, 2)), None
        if descriptor and q % 2 == 0:
            E = np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, size=(n, n)) / n
            A, B = E @ A, E @ B
        modes.append(ModeSystem(A=A, B=B, C=rng.normal(size=(1, n)), E=E))
    couplings = {}
    for i, j in itertools.permutations(range(1, len(dims) + 1), 2):
        if identity and dims[i - 1] == dims[j - 1] and rng.random() < 0.5:
            continue
        K = rng.normal(size=(dims[j - 1], dims[i - 1]))
        couplings[i, j] = coupling_norm * K / np.linalg.norm(K, 2)
    return LssModel(modes=tuple(modes), couplings=couplings)


# ``_DENSE_LEVEL_SIZE`` that runs every series on one level map: the dense
# matrix or per-mode Schur solves
LEVEL_PATHS = {"dense": math.inf, "schur": 0}


def near_boundary_model():
    """Three modes of order 4 with radius 0.928403: hundreds of levels."""
    return lssbal.random_stable_model(3, num_modes=3, dims=[4] * 3, coupling_norm=0.9)


class TestSolveLyapunov:
    def test_scalar(self):
        X = solve_lyapunov(np.array([[-0.5]]), np.array([[1.0]]))
        np.testing.assert_allclose(X, [[1.0]], rtol=1e-12)

    def test_zero_forcing(self):
        X = solve_lyapunov(-np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(X, np.zeros((2, 2)), atol=1e-14)

    def test_matches_vectorized_solve(self):
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        W = B @ B.T
        X = solve_lyapunov(A, W)
        X_ref = lyapunov_kron_solve(A, W)
        np.testing.assert_allclose(X, X_ref, rtol=1e-12, atol=1e-14)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_asymmetric_forcing_rejected(self):
        with pytest.raises(lssbal.LssError):
            solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry, where", [(np.inf, (0, 0)), (-np.inf, (1, 1)),
                                              (np.nan, (0, 1))])
    def test_non_finite_forcing_rejected(self, entry, where):
        W = np.eye(2)
        W[where] = entry
        with pytest.raises(lssbal.LssError, match="forcing term W must not contain infs or NaNs"):
            solve_lyapunov(-np.eye(2), W)

    @pytest.mark.parametrize("entry, where", [(np.inf, (0, 0)), (-np.inf, (1, 0)),
                                              (np.nan, (0, 1))])
    def test_non_finite_matrix_rejected(self, entry, where):
        A = -np.eye(2)
        A[where] = entry
        with pytest.raises(lssbal.LssError, match="matrix A must not contain infs or NaNs"):
            solve_lyapunov(A, np.eye(2))

    def test_scaled_trsyl_solution_rejected(self, monkeypatch):
        trsyl = gramians._trsyl

        def overflow_guarded(*args, **kwargs):
            Y, _, info = trsyl(*args, **kwargs)
            return Y, 0.5, info

        monkeypatch.setattr(gramians, "_trsyl", overflow_guarded)
        with pytest.raises(lssbal.LssError, match="overflow"):
            solve_lyapunov(-np.eye(2), np.eye(2))


def quasi_triangular(rng, n, first_block):
    """Stable standardized real Schur form with 2x2 blocks from ``first_block`` on."""
    T = np.triu(rng.normal(size=(n, n)))
    np.fill_diagonal(T, -rng.uniform(0.5, 2.0, size=n))
    for i in range(first_block, n - 1, 3):
        # [[a, b], [c, a]] with b c < 0: eigenvalues a +- i sqrt(-b c)
        T[i + 1, i + 1] = T[i, i]
        T[i, i + 1] = abs(T[i, i + 1]) + 0.5
        T[i + 1, i] = -rng.uniform(0.5, 2.0)
    return T


def is_standardized_schur(T):
    """Upper quasi-triangular, every 2x2 block [[a, b], [c, a]] with b c < 0."""
    n = len(T)
    sub = np.diag(T, -1)
    if np.any(np.tril(T, -2)) or np.any(sub[1:] * sub[:-1]):
        return False
    return all(T[k, k] == T[k + 1, k + 1] and T[k, k + 1] * T[k + 1, k] < 0
               for k in range(n - 1) if sub[k] != 0.0)


class TestTriangularKernel:
    def test_every_split_matches_kron_oracle(self, monkeypatch):
        # base size 2 recurses down to 1x1 and 2x2 blocks; 2x2 blocks start
        # at offsets 0, 1 and 2, so some split points fall next to one
        monkeypatch.setattr(gramians, "_BASE_SIZE", 2)
        rng = np.random.default_rng(11)
        for n in range(1, 13):
            for first_block in range(3):
                T = quasi_triangular(rng, n, first_block)
                B = rng.normal(size=(n, 2))
                C = B @ B.T
                Y = gramians._triangular_lyapunov(T, C)
                ref = lyapunov_kron_solve(T, -C)
                np.testing.assert_allclose(Y, ref, rtol=0, atol=1e-12 * np.linalg.norm(ref))

    def test_shared_factor_solves_both_forms(self, monkeypatch):
        # the dual factor's solve at every split, against A'X + XA + W = 0
        monkeypatch.setattr(gramians, "_BASE_SIZE", 2)
        rng = np.random.default_rng(12)
        for n in range(1, 13):
            M = rng.normal(size=(n, n))
            A = M - (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(n)
            B = rng.normal(size=(n, 1))
            W = B @ B.T
            factor = gramians._LyapunovFactor.of(A)
            for f, ref in ((factor, lyapunov_kron_solve(A, W)),
                           (factor.dual, lyapunov_kron_solve(A.T, W))):
                X = f.from_schur(f.solve_schur(f.U.T @ -W @ f.U))
                np.testing.assert_allclose(X, ref, rtol=0, atol=1e-12 * np.linalg.norm(ref))

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 40])
    def test_dual_factor_is_a_schur_form_of_the_transpose(self, n):
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n, n))
        A = M - (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(n)
        factor = gramians._LyapunovFactor.of(A)
        dual = factor.dual
        np.testing.assert_allclose(dual.U.T @ dual.U, np.eye(n), rtol=0, atol=1e-13)
        np.testing.assert_allclose(dual.U @ dual.T @ dual.U.T, A.T, rtol=0,
                                   atol=1e-13 * np.linalg.norm(A))
        assert is_standardized_schur(factor.T) and is_standardized_schur(dual.T)
        if n >= 7:  # a complex pair: a 2x2 block maps to itself
            assert np.any(np.diag(dual.T, -1))
        np.testing.assert_array_equal(np.sort(np.diag(dual.T)), np.sort(np.diag(factor.T)))
        assert dual.abscissa == factor.abscissa

    def test_large_solve_matches_plain_trsyl(self):
        rng = np.random.default_rng(13)
        n = 150
        T = quasi_triangular(rng, n, 0) / np.sqrt(n) - np.eye(n)
        B = rng.normal(size=(n, 3))
        C = B @ B.T
        Y = gramians._triangular_lyapunov(T, C)
        plain, scale, info = dtrsyl(T, T, C, trana="N", tranb="T")
        assert (scale, info) == (1.0, 0)
        for X in (Y, plain):
            resid = np.linalg.norm(T @ X + X @ T.T - C) / np.linalg.norm(C)
            assert resid < 1e-12
        assert np.linalg.norm(Y - plain) < 1e-12 * np.linalg.norm(plain)

    def test_large_dual_solve_matches_transposed_trsyl(self):
        # with S = JT'J, S Y + Y S' = C is T' Z + Z T = JCJ for Z = JYJ
        rng = np.random.default_rng(13)
        n = 150
        T = quasi_triangular(rng, n, 0) / np.sqrt(n) - np.eye(n)
        B = rng.normal(size=(n, 3))
        C = B @ B.T
        dual = gramians._LyapunovFactor(T, np.eye(n)).dual
        Y = dual.solve_schur(C)
        Z, scale, info = dtrsyl(T, T, C[::-1, ::-1], trana="T", tranb="N")
        assert (scale, info) == (1.0, 0)
        resid = np.linalg.norm(T.T @ Z + Z @ T - C[::-1, ::-1]) / np.linalg.norm(C)
        assert resid < 1e-12
        assert np.linalg.norm(Y - Z[::-1, ::-1]) < 1e-12 * np.linalg.norm(Z)


class TestLevelSeries:
    def test_zero_input_mode_gives_zero_first_level(self):
        m1 = ModeSystem(A=[[-1.0]], B=[[0.0]], C=[[1.0]])
        m2 = ModeSystem(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
        K = np.array([[1.0]])
        model = LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})
        level1 = level_k_gramians(model, 1, "reach")
        np.testing.assert_allclose(level1[0], [[0.0]], atol=1e-14)

    def test_scalar_recursion(self):
        model = scalar_two_mode()
        level1 = level_k_gramians(model, 1, "reach")
        np.testing.assert_allclose(level1[0], [[0.5]], rtol=1e-12)
        level2 = level_k_gramians(model, 2, "reach")
        np.testing.assert_allclose(level2[0], [[0.25]], rtol=1e-12)

    def test_level_one_equals_standard_gramian(self, paper_model):
        for kind in ("reach", "obs"):
            level1 = level_k_gramians(paper_model, 1, kind)
            for mode, X in zip(paper_model.modes, level1):
                if kind == "reach":
                    ref = solve_lyapunov(mode.A, mode.B @ mode.B.T)
                else:
                    ref = solve_lyapunov(mode.A.T, mode.C.T @ mode.C)
                np.testing.assert_array_equal(X, ref)

    def test_levels_are_psd(self, paper_model):
        for kind in ("reach", "obs"):
            for k in (1, 2, 3, 4):
                for X in level_k_gramians(paper_model, k, kind):
                    w = np.linalg.eigvalsh(X)
                    assert w[0] >= -1e-10 * max(w[-1], 1e-30)


class TestQuadratureOracle:
    def test_scalar_level_one(self):
        m1 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        m2 = ModeSystem(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
        K = np.array([[1.0]])
        model = LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})
        P = gramian_by_quadrature(model, 1, 1, "reach", t_max=40.0, steps=20000)
        np.testing.assert_allclose(P, [[0.5]], atol=1e-6)

    def test_scalar_level_two(self):
        model = scalar_two_mode()
        P = gramian_by_quadrature(model, 1, 2, "reach", t_max=25.0, steps=4000)
        np.testing.assert_allclose(P, [[0.25]], atol=1e-4)

    @pytest.mark.parametrize("kind", ["reach", "obs"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_recursion_on_paper_model(self, paper_model, kind, k):
        levels = level_k_gramians(paper_model, k, kind)
        for q in (1, 2):
            quad = gramian_by_quadrature(
                paper_model, q, k, kind, t_max=14.0, steps=14000
            )
            ref = levels[q - 1]
            err = np.linalg.norm(quad - ref) / np.linalg.norm(ref)
            assert err < 1e-4


class TestSolveCoupled:
    def test_zero_couplings_reduce_to_standard(self):
        rng = np.random.default_rng(0)
        base = lssbal.random_stable_model(rng, num_modes=2, dims=[3, 2])
        zeroed = {key: np.zeros_like(K) for key, K in base.couplings.items()}
        model = LssModel(modes=base.modes, couplings=zeroed)
        sol = solve_coupled(model, "reach")
        for mode, P in zip(model.modes, sol.matrices):
            ref = solve_lyapunov(mode.A, mode.B @ mode.B.T)
            np.testing.assert_allclose(P, ref, rtol=1e-10, atol=1e-12)
        assert sol.diagnostics.converged

    def test_matches_dense_solve_small_coupling(self):
        model = lssbal.random_stable_model(
            123, num_modes=2, dims=[3, 3], coupling_norm=0.1
        )
        for kind in ("reach", "obs"):
            sol = solve_coupled(model, kind)
            ref = dense_coupled_solve(model, kind)
            for got, want in zip(sol.matrices, ref):
                err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30)
                assert err < 1e-8

    def test_diagnostics_and_invariants(self, paper_model, paper_gramians):
        gset = paper_gramians
        assert gset.reach_diagnostics.converged and gset.obs_diagnostics.converged
        assert max(gset.reach_diagnostics.residuals) < 1e-10
        for P in list(gset.reach) + list(gset.obs):
            np.testing.assert_allclose(P, P.T, rtol=0, atol=1e-12 * np.linalg.norm(P))
            w = np.linalg.eigvalsh(P)
            assert w[0] >= -1e-10 * w[-1]

    def test_unstable_mode_raises(self):
        m1 = ModeSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        m2 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        K = np.array([[0.1]])
        model = LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})
        for kind in ("reach", "obs"):
            with pytest.raises(StabilityError, match="mode 1"):
                solve_coupled(model, kind)

    def test_last_allowed_level_is_tested(self, paper_model):
        default = solve_coupled(paper_model, "reach")
        assert default.diagnostics.levels == 11
        capped = solve_coupled(paper_model, "reach", max_iter=11)
        assert capped.diagnostics.levels == 11
        for got, want in zip(capped.matrices, default.matrices):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ConvergenceError):
            solve_coupled(paper_model, "reach", max_iter=10)

    def test_each_mode_matrix_factored_once(self, paper_model, monkeypatch):
        calls = []
        gees = gramians._gees

        def counting_gees(select, A, **kwargs):
            if kwargs.get("lwork") != -1:  # a workspace query factors nothing
                calls.append(A)
            return gees(select, A, **kwargs)

        monkeypatch.setattr(gramians, "_gees", counting_gees)
        for kind in ("reach", "obs"):
            calls.clear()
            sol = solve_coupled(paper_model, kind)
            assert sol.diagnostics.levels > 1
            assert len(calls) == paper_model.num_modes
        # both kinds together share one factor per mode
        calls.clear()
        compute_gramians(paper_model)
        assert len(calls) == paper_model.num_modes
        calls.clear()
        check_existence(paper_model)
        assert len(calls) == paper_model.num_modes
        # a failing series reports existence from the factors it solved on
        diverging = strongly_coupled_model()
        for kind in ("reach", "obs"):
            calls.clear()
            with pytest.raises(ConvergenceError):
                solve_coupled(diverging, kind, max_iter=20)
            assert len(calls) == diverging.num_modes

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**16),
           dims=st.lists(st.integers(1, 5), min_size=2, max_size=3))
    # every Schur-coordinate coupling rectangular, one mode split by the kernel
    @example(seed=7, dims=[3, 40, 5])
    def test_gramians_match_dense_solve(self, seed, dims):
        model = lssbal.random_stable_model(seed, num_modes=len(dims), dims=dims,
                                           num_inputs=2, coupling_norm=0.1)
        gset = compute_gramians(model)
        for kind, mats in (("reach", gset.reach), ("obs", gset.obs)):
            for got, want in zip(mats, dense_coupled_solve(model, kind)):
                assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-30)

    @pytest.mark.parametrize("entry", [
        lambda model, gset: compute_gramians(model),
        lambda model, gset: solve_coupled(model, "reach"),
        lambda model, gset: solve_coupled(model, "obs"),
        lambda model, gset: check_existence(model),
        lssbal.certificates,
        lssbal.dwell_time,
        lssbal.stability_certificate,
    ], ids=["compute_gramians", "solve_coupled_reach", "solve_coupled_obs",
            "check_existence", "certificates", "dwell_time",
            "stability_certificate"])
    def test_model_validated_once(self, fresh_paper_model, monkeypatch, entry):
        model = fresh_paper_model
        # measured on another model object, so nothing is reused from it
        gset = compute_gramians(lssbal.three_mode_model())
        calls = []
        validate = lssbal.model.validate_model

        def counting_validate(model):
            calls.append(model)
            return validate(model)

        monkeypatch.setattr(lssbal.model, "validate_model", counting_validate)
        entry(model, gset)
        entry(model, gset)
        # a whole reduce-and-validate pass on the same model checks it no more
        gset = compute_gramians(model)
        lssbal.balance(model, gset)
        lssbal.balance_average(model, gset)
        lssbal.dwell_time(model, gset, side="obs")
        lssbal.dwell_time(model, gset, side="reach")
        lssbal.stability_certificate(model, gset)
        lssbal.simulate(model, lssbal.SwitchingSignal(((1, 0.5), (3, 0.5))), dt=0.1)
        assert calls == [model]

    def test_residual_guard_fires(self, paper_model, monkeypatch):
        triangular = gramians._triangular_lyapunov

        def off_by_identity(T, C):
            return triangular(T, C) + 1e-3 * np.eye(len(C))

        monkeypatch.setattr(gramians, "_triangular_lyapunov", off_by_identity)
        with pytest.raises(lssbal.LssError, match="Lyapunov residual"):
            compute_gramians(paper_model)
        with pytest.raises(lssbal.LssError, match="Lyapunov residual"):
            solve_lyapunov(-np.eye(2), np.eye(2))

    def test_residual_guard_fires_on_the_level_map(self, paper_model, monkeypatch):
        gesv = gramians._gesv

        def off_by_identity(L, C):
            lu, piv, X, info = gesv(L, C)
            return lu, piv, X + 1e-3 * np.eye(len(X)), info

        monkeypatch.setattr(gramians, "_gesv", off_by_identity)
        # 3 modes of order 3: the paper model's levels go through the map
        assert sum(n * n for n in paper_model.dims) <= gramians._DENSE_LEVEL_SIZE
        for kind in ("reach", "obs"):
            with pytest.raises(lssbal.LssError, match="Lyapunov residual"):
                solve_coupled(paper_model, kind)
        # per-mode Schur solves never use the map
        monkeypatch.setattr(gramians, "_DENSE_LEVEL_SIZE", 0)
        gset = compute_gramians(paper_model)
        assert gset.reach_diagnostics.converged and gset.obs_diagnostics.converged

    def test_non_finite_coupling_rejected(self, paper_model):
        couplings = dict(paper_model.couplings)
        K = np.array(couplings[(1, 2)])
        K[0, 0] = np.nan
        couplings[(1, 2)] = K
        model = LssModel(modes=paper_model.modes, couplings=couplings)
        with pytest.raises(lssbal.DimensionError, match=r"coupling \(1,2\)"):
            solve_coupled(model, "obs")

    def test_non_finite_x0_rejected(self, paper_model):
        model = LssModel(modes=paper_model.modes, couplings=paper_model.couplings,
                         x0=[np.inf, 0.0, 0.0])
        with pytest.raises(lssbal.DimensionError, match="x0"):
            solve_coupled(model, "reach")

    def test_strong_coupling_diverges_with_report(self):
        with pytest.raises(ConvergenceError) as err:
            solve_coupled(overflow_model(), "reach", max_iter=60)
        assert err.value.diagnostics is not None
        assert not err.value.diagnostics.converged

    def test_obs_divergence_reports_the_obs_series(self):
        # B and C weight the modes differently, but the reach and obs level
        # maps are adjoint, so both runs observe the same radius
        model = obs_divergence_model()
        reports = {}
        for kind in ("reach", "obs"):
            with pytest.raises(ConvergenceError, match="within 30 levels") as err:
                solve_coupled(model, kind, max_iter=30)
            reports[kind] = err.value.diagnostics
        reach, obs = check_existence(model), check_existence(dual(model))
        assert reports["reach"].abscissas == reach.abscissas
        assert reports["obs"].abscissas == pytest.approx(obs.abscissas, rel=1e-12)
        assert not (reports["reach"].converged or reports["obs"].converged or reach.converged)
        radius = series_radius(model)
        for report in reports.values():
            assert report.contraction == pytest.approx(radius, rel=1e-9)

    def test_failing_series_runs_once(self, monkeypatch):
        model = strongly_coupled_model()
        runs = []  # the levels each run of a series yields
        levels = gramians._Series.levels

        def recorded(series):
            runs.append(0)
            for level in levels(series):
                runs[-1] += 1
                yield level

        monkeypatch.setattr(gramians._Series, "levels", recorded)
        for kind, size in itertools.product(("reach", "obs"), LEVEL_PATHS.values()):
            monkeypatch.setattr(gramians, "_DENSE_LEVEL_SIZE", size)
            runs.clear()
            with pytest.raises(ConvergenceError, match="within 20 levels") as err:
                solve_coupled(model, kind, max_iter=20)
            assert runs == [20]
            assert f"observed contraction {err.value.diagnostics.contraction:.4g}" in str(err.value)
            assert err.value.diagnostics.contraction == pytest.approx(series_radius(model), rel=0.01)

    def test_overflowing_series_stops_without_warnings(self, monkeypatch):
        # K = 1e160 overflows inside the first coupling product, before any
        # level norm does: the forcing bound stops the sum first
        for k, size in itertools.product([3.0, 1e60, 1e100, 1e160], LEVEL_PATHS.values()):
            monkeypatch.setattr(gramians, "_DENSE_LEVEL_SIZE", size)
            model = overflow_model(k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError, match="overflowed at level") as err:
                    compute_gramians(model)
                assert not check_existence(model).converged
            report = err.value.diagnostics
            assert not report.converged
            assert report.contraction > 1.0
            if k == 3.0:
                assert report.contraction == pytest.approx(series_radius(model), rel=1e-9)
                assert report.contraction == pytest.approx(9.0, rel=1e-12)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**16),
           dims=st.lists(st.integers(1, 4), min_size=2, max_size=4),
           identity=st.booleans(), descriptor=st.booleans(),
           coupling_norm=st.floats(0.05, 3.0))
    @example(seed=1, dims=[2, 2, 4], identity=True, descriptor=True, coupling_norm=0.3)
    @example(seed=4, dims=[2, 3, 4], identity=False, descriptor=True, coupling_norm=3.0)  # diverges
    def test_level_maps_agree(self, seed, dims, identity, descriptor, coupling_norm):
        model = drawn_model(seed, dims, identity, descriptor, coupling_norm)
        runs = {}
        for path, size in LEVEL_PATHS.items():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gramians, "_DENSE_LEVEL_SIZE", size)
                runs[path] = []
                for kind in ("reach", "obs"):
                    try:
                        runs[path].append(solve_coupled(model, kind, max_iter=200))
                    except ConvergenceError as exc:
                        runs[path].append(exc)
        for dense, schur in zip(runs["dense"], runs["schur"]):
            assert type(dense) is type(schur)
            if isinstance(schur, ConvergenceError):
                assert str(dense) == str(schur)
                assert dense.diagnostics.abscissas == schur.diagnostics.abscissas
                assert dense.diagnostics.contraction == pytest.approx(
                    schur.diagnostics.contraction, rel=1e-12)
                continue
            assert dense.diagnostics.levels == schur.diagnostics.levels
            np.testing.assert_allclose(dense.diagnostics.increments,
                                       schur.diagnostics.increments, rtol=1e-12, atol=0)
            for got, want in zip(dense.matrices, schur.matrices):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("make, path", [
        (lssbal.three_mode_model, "dense"),
        # 2x2 Schur blocks in every mode, each split by the kernel
        (lambda: lssbal.random_stable_model(2, 3, [40] * 3, coupling_norm=0.2), "schur"),
    ], ids=["paper", "wide"])
    def test_derived_dual_equals_direct_dual(self, make, path):
        # the obs series runs on the reach series' reversed-transpose factors
        # and couplings; the dual model's reach series factors A' afresh
        model = make()
        assert (sum(n * n for n in model.dims) <= gramians._DENSE_LEVEL_SIZE) == (path == "dense")
        if path == "schur":
            factors = gramians._reach_series(model).factors
            assert all(np.any(np.diag(f.T, -1)) for f in factors)
        derived, direct = compute_gramians(model), compute_gramians(dual(model))
        assert derived.obs_diagnostics.levels == direct.reach_diagnostics.levels
        for got, want in zip(derived.obs, direct.reach):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_near_boundary_series_converges_and_passes(self):
        model = near_boundary_model()
        gset = compute_gramians(model)
        for diag in (gset.reach_diagnostics, gset.obs_diagnostics):
            assert diag.converged and diag.levels > 300
            assert len(diag.increments) == diag.levels
        report = check_existence(model)
        assert report.converged is True
        assert report.contraction == pytest.approx(0.928403, abs=1e-6)


class TestBlockForm:
    def test_two_mode_antidiagonal(self):
        model = lssbal.random_stable_model(5, num_modes=2, dims=[2, 3])
        form = assemble_block_form(model)
        assert len(form.coupling_blocks) == 1
        Kd = form.coupling_blocks[0]
        n1, n2 = model.dims
        np.testing.assert_array_equal(Kd[:n1, :n1], np.zeros((n1, n1)))
        np.testing.assert_array_equal(Kd[n1:, n1:], np.zeros((n2, n2)))
        np.testing.assert_array_equal(Kd[:n1, n1:], model.coupling(2, 1))
        np.testing.assert_array_equal(Kd[n1:, :n1], model.coupling(1, 2))

    def test_three_mode_cyclic_blocks(self, paper_model):
        form = assemble_block_form(paper_model)
        assert len(form.coupling_blocks) == 2
        o = form.offsets
        K1, K2 = form.coupling_blocks

        def block(M, i, j):
            return M[o[i - 1]:o[i], o[j - 1]:o[j]]

        np.testing.assert_array_equal(block(K1, 1, 2), paper_model.coupling(2, 1))
        np.testing.assert_array_equal(block(K1, 2, 3), paper_model.coupling(3, 2))
        np.testing.assert_array_equal(block(K1, 3, 1), paper_model.coupling(1, 3))
        np.testing.assert_array_equal(block(K2, 1, 3), paper_model.coupling(3, 1))
        np.testing.assert_array_equal(block(K2, 2, 1), paper_model.coupling(1, 2))
        np.testing.assert_array_equal(block(K2, 3, 2), paper_model.coupling(2, 3))
        for Kd in (K1, K2):
            for i in range(1, 4):
                np.testing.assert_array_equal(
                    block(Kd, i, i), np.zeros_like(block(Kd, i, i))
                )

    @pytest.mark.parametrize("kind", ["reach", "obs"])
    def test_single_equation_solution_is_block_diagonal(self, paper_model, kind):
        form = assemble_block_form(paper_model)
        X = block_form_dense_solve(form, kind)
        sol = solve_coupled(paper_model, kind)
        blocks = extract_diagonal_blocks(X, form.offsets)
        for got, want in zip(blocks, sol.matrices):
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err < 1e-8
        # off-diagonal blocks vanish
        o = form.offsets
        for i in range(3):
            for j in range(3):
                if i != j:
                    off = X[o[i]:o[i + 1], o[j]:o[j + 1]]
                    assert np.linalg.norm(off) < 1e-10 * np.linalg.norm(X)


class TestExistence:
    def test_unstable_mode_fails(self, monkeypatch):
        m1 = ModeSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        m2 = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        K = np.array([[0.1]])
        model = LssModel(modes=(m1, m2), couplings={(1, 2): K, (2, 1): K})
        # no level runs
        monkeypatch.setattr(gramians._LyapunovFactor, "solve_schur", None)
        report = check_existence(model)
        assert not report.converged
        assert report.levels == 0 and report.residuals == ()
        assert report.abscissas[0] > 0
        assert report.contraction == np.inf

    def test_zero_couplings_pass(self):
        base = lssbal.random_stable_model(9, num_modes=2, dims=[2, 2])
        zeroed = {key: np.zeros_like(K) for key, K in base.couplings.items()}
        model = LssModel(modes=base.modes, couplings=zeroed)
        report = check_existence(model)
        assert report.converged
        assert report.contraction == 0.0

    def test_paper_model_passes(self, paper_model):
        report = check_existence(paper_model)
        assert report.converged
        assert all(a < 0 for a in report.abscissas)
        # the rate of the solver's own 11 levels, over the last 4 steps
        increments = solve_coupled(paper_model, "reach").diagnostics.increments
        assert len(increments) == 11
        assert report.contraction == (increments[-1] / increments[-5]) ** 0.25
        assert report.contraction == pytest.approx(series_radius(paper_model), rel=0.01)

    def test_one_record_per_run(self, paper_model):
        assert [f.name for f in dataclasses.fields(lssbal.SolveDiagnostics)] == [
            "increments", "residuals", "abscissas"]
        # a converged run carries the contraction check_existence reports
        diag, report = compute_gramians(paper_model).reach_diagnostics, check_existence(paper_model)
        assert isinstance(report, lssbal.SolveDiagnostics)
        assert diag.contraction == report.contraction
        assert diag.abscissas == report.abscissas
        assert diag.converged and len(diag.residuals) == paper_model.num_modes
        with pytest.raises(ConvergenceError) as err:
            solve_coupled(overflow_model(), "reach")
        assert isinstance(err.value.diagnostics, lssbal.SolveDiagnostics)
        assert err.value.diagnostics.residuals == ()
        assert not hasattr(err.value, "existence")
        assert not hasattr(err.value, "last_increment")

    def test_contraction_is_the_series_radius(self):
        model = near_boundary_model()
        assert check_existence(model).contraction == pytest.approx(
            series_radius(model), rel=1e-6)
        model = obs_divergence_model()
        with pytest.raises(ConvergenceError) as err:
            solve_coupled(model, "reach", max_iter=30)
        assert err.value.diagnostics.contraction == pytest.approx(series_radius(model), rel=1e-9)



class TestGramianSet:
    @pytest.mark.parametrize("reach, obs, match", [
        ([np.eye(3)] * 3, [np.eye(3)] * 2, r"mode 3: 3 reach Gramians for 2 obs Gramians"),
        ([np.eye(3), np.ones((3, 2))], [np.eye(3)] * 2,
         r"mode 2: Gramians must be square and of one size, got reach \(3, 2\) and obs \(3, 3\)"),
        ([np.eye(3), np.eye(2)], [np.eye(3), np.eye(4)],
         r"mode 2: Gramians must be square and of one size, got reach \(2, 2\) and obs \(4, 4\)"),
        ([np.eye(2)] * 2, [np.diag([np.nan, 1.0]), np.eye(2)], r"mode 1: Gramian Q\[1\] is not finite"),
        ([np.eye(2), np.diag([1.0, -np.inf])], [np.eye(2)] * 2,
         r"mode 2: Gramian P\[2\] is not finite"),
    ], ids=["unpaired", "non-square", "mismatched-pair", "nan", "inf"])
    def test_malformed_set_rejected(self, reach, obs, match):
        diag = lssbal.SolveDiagnostics(increments=(0.0,))
        with pytest.raises(lssbal.DimensionError, match=match):
            lssbal.GramianSet(reach=reach, obs=obs, reach_diagnostics=diag,
                              obs_diagnostics=diag)
