import dataclasses
import gc
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lssbal
from lssbal import (
    BalancedRealization,
    DimensionError,
    LssModel,
    ModeSystem,
    ReductionPlan,
    SingularMatrixError,
    SwitchingSignal,
    normalize_descriptor,
    truncate,
    validate_model,
)
from lssbal.model import as_normalized

from oracles import (apply_equivalence, dual, kernel_eval, random_well_conditioned,
                     transfer_eval)


def two_mode_model(n1=3, n2=3):
    rng = np.random.default_rng(42)
    return lssbal.random_stable_model(rng, num_modes=2, dims=[n1, n2])


def with_mode_2(**fields):
    """Two modes: a valid 2-state mode 1, and mode 2 with ``fields`` over the same matrices."""
    good = {"A": -np.eye(2), "B": np.ones((2, 1)), "C": np.ones((1, 2))}
    return ModeSystem(**good), ModeSystem(**(good | fields))


# One case per refusal of the model types; each call raises a DimensionError.
REFUSALS = [
    (lambda: lssbal.three_mode_model().mode(4), "mode index 4 outside 1..3"),
    (lambda: lssbal.three_mode_model().mode(0), "mode index 0 outside 1..3"),
    (lambda: LssModel(with_mode_2(A=-np.eye(3), B=np.ones((3, 1)), C=np.ones((1, 3))))
     .coupling(1, 2), "no coupling given for (1,2) and dimensions differ (2 vs 3)"),
    (lambda: SwitchingSignal(events=()), "switching signal needs at least one event"),
    (lambda: SwitchingSignal(events=((1, 1.0), (1, 2.0))), "consecutive events share mode 1"),
    (lambda: SwitchingSignal(events=((1, 1e308), (2, 1e308))),
     "total duration of the events overflows"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusals_name_their_argument(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()


class TestValidate:
    def test_paper_model_is_valid(self, paper_model):
        assert validate_model(paper_model).ok

    def test_wrong_coupling_shape_is_one_violation(self, paper_model):
        couplings = dict(paper_model.couplings)
        couplings[(1, 2)] = np.zeros((2, 3))
        bad = LssModel(modes=paper_model.modes, couplings=couplings)
        report = validate_model(bad)
        assert len(report.issues) == 1
        assert "(1,2)" in report.issues[0]

    @pytest.mark.parametrize("key, message", [
        ((1.5, 2), "coupling key (1.5, 2): mode must be an integer, got 1.5"),
        ((2, "3"), "coupling key (2, '3'): mode must be an integer, got '3'"),
        ((True, 3), "coupling key (True, 3): mode must be an integer, got True"),
        ((1, 2, 3), "coupling key (1, 2, 3) must be a pair of modes"),
        (5, "coupling key 5 must be a pair of modes"),
    ])
    def test_coupling_keys_are_checked_not_truncated(self, paper_model, key, message):
        with pytest.raises(DimensionError, match=re.escape(message)):
            LssModel(modes=paper_model.modes, couplings={key: paper_model.couplings[(1, 2)]})

    def test_integral_coupling_keys_are_stored_as_ints(self, paper_model):
        K = paper_model.couplings[(1, 2)]
        model = LssModel(modes=paper_model.modes, couplings={(np.int64(1), 2.0): K})
        assert list(model.couplings) == [(1, 2)]
        assert all(type(q) is int for q in next(iter(model.couplings)))

    def test_single_mode_rejected(self):
        mode = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        report = validate_model(LssModel(modes=(mode,)))
        assert not report.ok
        assert any("two modes" in issue for issue in report.issues)

    def test_missing_coupling_with_unequal_dims(self):
        m1 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        m2 = ModeSystem(A=-np.eye(3), B=np.ones((3, 1)), C=np.ones((1, 3)))
        model = LssModel(modes=(m1, m2), couplings={})
        report = validate_model(model)
        assert any("identity default" in issue for issue in report.issues)

    def test_self_coupling_flagged(self, paper_model):
        couplings = dict(paper_model.couplings)
        couplings[(2, 2)] = np.eye(3)
        report = validate_model(LssModel(modes=paper_model.modes, couplings=couplings))
        assert any("self-coupling" in issue for issue in report.issues)

    def test_nan_coupling_named(self, paper_model):
        couplings = dict(paper_model.couplings)
        K = np.array(couplings[(2, 3)])
        K[0, 1] = np.nan
        couplings[(2, 3)] = K
        report = validate_model(LssModel(modes=paper_model.modes, couplings=couplings))
        assert report.issues == ("coupling (2,3) has non-finite entries",)

    def test_inf_x0_named(self, paper_model):
        x0 = np.array([0.0, np.inf, 1.0])
        model = LssModel(modes=paper_model.modes, couplings=paper_model.couplings, x0=x0)
        assert validate_model(model).issues == ("x0 has non-finite entries",)

    def test_non_finite_mode_matrix_named(self):
        good = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        bad = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=[[1.0, np.nan]],
                         E=[[1.0, 0.0], [np.inf, 1.0]])
        report = validate_model(LssModel(modes=(good, bad)))
        assert report.issues == (
            "mode 2: C has non-finite entries",
            "mode 2: E has non-finite entries",
        )

    @pytest.mark.parametrize("make, issue", [
        (lambda: LssModel(with_mode_2(A=np.ones((2, 3)))), "mode 2: A must be square, got (2, 3)"),
        (lambda: LssModel(with_mode_2(B=np.ones((3, 1)))), "mode 2: B has 3 rows, expected 2"),
        (lambda: LssModel(with_mode_2(C=np.ones((1, 3)))), "mode 2: C has 3 columns, expected 2"),
        (lambda: LssModel(with_mode_2(C=np.ones((2, 2)))),
         "mode 2: output count 2 differs from mode 1 (1)"),
        (lambda: LssModel(with_mode_2(E=np.eye(3))), "mode 2: E must be 2x2, got (3, 3)"),
        (lambda: LssModel(with_mode_2(E=np.diag([1.0, 0.0]))), "mode 2: E is numerically singular"),
        (lambda: LssModel(with_mode_2(), couplings={(1, 3): np.eye(2)}),
         "coupling (1,3) references a missing mode"),
        (lambda: LssModel(with_mode_2(), x0=[1.0, 2.0, 3.0]), "x0 has length 3, expected 2 (mode 1)"),
    ])
    def test_each_issue_is_reported(self, make, issue):
        assert issue in validate_model(make()).issues

    def test_mismatched_io_dims_flagged(self):
        m1 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        m2 = ModeSystem(A=-np.eye(2), B=np.ones((2, 2)), C=np.ones((1, 2)))
        report = validate_model(LssModel(modes=(m1, m2)))
        assert any("input count" in issue for issue in report.issues)


class TestNormalizeDescriptor:
    def test_identity_descriptors_leave_matrices_unchanged(self, paper_model):
        modes = tuple(
            ModeSystem(A=m.A, B=m.B, C=m.C, E=np.eye(m.n)) for m in paper_model.modes
        )
        model = LssModel(modes=modes, couplings=dict(paper_model.couplings))
        out = normalize_descriptor(model)
        assert not out.has_descriptor
        for before, after in zip(paper_model.modes, out.modes):
            np.testing.assert_array_equal(before.A, after.A)
            np.testing.assert_array_equal(before.B, after.B)
        for key, K in paper_model.couplings.items():
            np.testing.assert_allclose(out.couplings[key], K)

    def test_scalar_descriptor_scaling(self):
        m1 = ModeSystem(A=-2.0 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                        E=2.0 * np.eye(2))
        m2 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        model = LssModel(modes=(m1, m2))
        out = normalize_descriptor(model)
        np.testing.assert_allclose(out.mode(1).A, -np.eye(2))
        np.testing.assert_allclose(out.mode(1).B, 0.5 * np.ones((2, 1)))

    def test_singular_descriptor_names_mode(self):
        m1 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                        E=np.diag([1.0, 0.0]))
        m2 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        model = LssModel(modes=(m1, m2))
        with pytest.raises(SingularMatrixError, match="mode 1"):
            normalize_descriptor(model)

    def test_transfer_function_preserved(self):
        rng = np.random.default_rng(7)
        base = two_mode_model()
        modes = []
        for m in base.modes:
            E = random_well_conditioned(rng, m.n)
            modes.append(ModeSystem(A=m.A, B=m.B, C=m.C, E=E))
        model = LssModel(modes=tuple(modes), couplings=dict(base.couplings))
        out = normalize_descriptor(model)
        for s in rng.uniform(0.5, 5.0, size=10) + 1j * rng.uniform(-3.0, 3.0, size=10):
            mode = model.mode(1)
            direct = mode.C @ np.linalg.solve(s * mode.E - mode.A, mode.B)
            via_norm = transfer_eval(out, [1], [s])
            np.testing.assert_allclose(via_norm, direct, rtol=1e-10, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        base = two_mode_model()
        modes = tuple(
            ModeSystem(A=m.A, B=m.B, C=m.C, E=random_well_conditioned(rng, m.n))
            for m in base.modes
        )
        model = LssModel(modes=modes, couplings=dict(base.couplings))
        once = normalize_descriptor(model)
        twice = normalize_descriptor(once)
        for a, b in zip(once.modes, twice.modes):
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.B, b.B)

    def test_output_is_valid(self):
        rng = np.random.default_rng(13)
        base = two_mode_model()
        modes = tuple(
            ModeSystem(A=m.A, B=m.B, C=m.C, E=random_well_conditioned(rng, m.n))
            for m in base.modes
        )
        model = LssModel(modes=modes, couplings=dict(base.couplings))
        assert validate_model(normalize_descriptor(model)).ok


def random_transform(rng, dims, similarity=True):
    """Left and right factors; no right factor for a change of state basis."""
    mats = [random_well_conditioned(rng, n) for n in dims]
    return mats, None if similarity else [random_well_conditioned(rng, n) for n in dims]


class TestApplyEquivalence:
    def test_identity_transform_is_noop(self, paper_model):
        out = apply_equivalence(paper_model, [np.eye(n) for n in paper_model.dims])
        for a, b in zip(paper_model.modes, out.modes):
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.B, b.B)
            np.testing.assert_array_equal(a.C, b.C)
            assert b.E is None
        assert set(out.couplings) == set(paper_model.couplings)
        for key in paper_model.couplings:
            np.testing.assert_array_equal(out.couplings[key], paper_model.couplings[key])

    def test_sign_flip_preserves_transfers(self, paper_model):
        rng = np.random.default_rng(3)
        signs = [np.diag(rng.choice([-1.0, 1.0], size=n)) for n in paper_model.dims]
        out = apply_equivalence(paper_model, signs)
        for _ in range(5):
            s1, s2 = rng.uniform(0.5, 4.0, size=2) + 1j * rng.uniform(-2, 2, size=2)
            seq = [1, 2]
            ref = transfer_eval(paper_model, seq, [s1, s2])
            got = transfer_eval(out, seq, [s1, s2])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    def test_random_transform_preserves_kernels(self, paper_model):
        rng = np.random.default_rng(5)
        out = apply_equivalence(paper_model, *random_transform(rng, paper_model.dims))
        for _ in range(5):
            t1, t2 = rng.uniform(0.05, 1.5, size=2)
            ref1 = kernel_eval(paper_model, [2], [t1])
            got1 = kernel_eval(out, [2], [t1])
            np.testing.assert_allclose(got1, ref1, rtol=1e-10, atol=1e-12)
            ref2 = kernel_eval(paper_model, [3, 1], [t1, t2])
            got2 = kernel_eval(out, [3, 1], [t1, t2])
            np.testing.assert_allclose(got2, ref2, rtol=1e-10, atol=1e-12)

    def test_transfers_preserved_up_to_depth_three(self, paper_model):
        rng = np.random.default_rng(17)
        for trial in range(4):
            out = apply_equivalence(
                paper_model,
                *random_transform(rng, paper_model.dims, similarity=trial % 2 == 0),
            )
            for seq in ([2], [1, 3], [3, 1, 2]):
                s = rng.uniform(0.5, 4.0, size=len(seq)) + 1j * rng.uniform(
                    -2.0, 2.0, size=len(seq)
                )
                ref = transfer_eval(paper_model, seq, s)
                got = transfer_eval(out, seq, s)
                np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_descriptor_model_transforms_consistently(self):
        rng = np.random.default_rng(29)
        base = two_mode_model()
        modes = tuple(
            ModeSystem(A=m.A, B=m.B, C=m.C, E=random_well_conditioned(rng, m.n))
            for m in base.modes
        )
        model = LssModel(modes=modes, couplings=dict(base.couplings))
        out = apply_equivalence(model, *random_transform(rng, model.dims, similarity=False))
        for seq, s in (([1], [1.5 + 0.3j]), ([2, 1], [1.0 + 1.0j, 2.5])):
            ref = transfer_eval(model, seq, s)
            got = transfer_eval(out, seq, s)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_implicit_couplings_materialized(self):
        m1 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        m2 = ModeSystem(A=-2 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        model = LssModel(modes=(m1, m2), couplings={})
        rng = np.random.default_rng(23)
        out = apply_equivalence(model, *random_transform(rng, model.dims))
        # the default identity reset must be carried into the new basis
        assert (1, 2) in out.couplings and (2, 1) in out.couplings
        s = 1.3 + 0.7j
        ref = transfer_eval(model, [1, 2], [s, 2.0])
        got = transfer_eval(out, [1, 2], [s, 2.0])
        np.testing.assert_allclose(got, ref, rtol=1e-9)


@st.composite
def mixed_models(draw):
    """Mixed mode dimensions, optional E per mode and optional x0; an
    equal-dimension pair may leave its coupling as the implicit identity."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    modes = [
        ModeSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 2)),
                   C=rng.normal(size=(1, n)),
                   E=random_well_conditioned(rng, n) if draw(st.booleans()) else None)
        for n in dims
    ]
    couplings = {
        (i, j): rng.normal(size=(dims[j - 1], dims[i - 1]))
        for i, j in itertools.permutations(range(1, len(dims) + 1), 2)
        if dims[i - 1] != dims[j - 1] or draw(st.booleans())
    }
    x0 = rng.normal(size=dims[0]) if draw(st.booleans()) else None
    return LssModel(modes=modes, couplings=couplings, x0=x0)


class TestCoordinateChanges:
    """Every rebuild stores each ordered coupling, validates, and equals
    the explicit per-pair formula, implicit identities included."""

    @staticmethod
    def check(out, formula):
        pairs = set(itertools.permutations(range(1, out.num_modes + 1), 2))
        assert set(out.couplings) == pairs
        assert validate_model(out).ok
        for i, j in pairs:
            np.testing.assert_array_equal(out.coupling(i, j), formula(i, j))

    @settings(max_examples=25)
    @given(model=mixed_models(), seed=st.integers(0, 2**16))
    def test_rebuilds_match_the_pairwise_formula(self, model, seed):
        norm = as_normalized(model)
        self.check(dual(model), lambda i, j: norm.coupling(j, i).T)

        if model.has_descriptor:
            inverses = [np.eye(m.n) if m.E is None else np.linalg.inv(m.E)
                        for m in model.modes]
            self.check(norm, lambda i, j: inverses[j - 1] @ model.coupling(i, j))
        else:
            assert norm is model

        rng = np.random.default_rng(seed)
        eyes = tuple(np.eye(n) for n in model.dims)
        for Zl, Zr in ((eyes, eyes), random_transform(rng, model.dims, similarity=False)):
            out = apply_equivalence(model, Zl, Zr)
            self.check(out, lambda i, j: Zl[j - 1] @ model.coupling(i, j) @ Zr[i - 1])
            if model.x0 is not None:
                np.testing.assert_array_equal(out.x0, np.linalg.solve(Zr[0], model.x0))

        bal = BalancedRealization(norm, eyes, eyes,
                                  tuple(np.arange(n, 0.0, -1.0) for n in model.dims))
        out = truncate(bal, ReductionPlan.from_orders(bal, model.dims))
        self.check(out, norm.coupling)
        assert (out.x0 is None) == (model.x0 is None)
        if model.x0 is not None:
            np.testing.assert_array_equal(out.x0, model.x0)


class TestDual:
    def test_dual_is_an_involution(self):
        model = lssbal.random_stable_model(4, num_modes=3, dims=[2, 3, 4])
        back = dual(dual(model))
        for got, want in zip(back.modes, model.modes):
            for name in ("A", "B", "C"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    np.testing.assert_array_equal(back.coupling(i, j), model.coupling(i, j))

    def test_dual_maps_each_matrix(self, paper_model):
        d = dual(paper_model)
        for q in (1, 2, 3):
            mode, dmode = paper_model.mode(q), d.mode(q)
            np.testing.assert_array_equal(dmode.A, mode.A.T)
            np.testing.assert_array_equal(dmode.B, mode.C.T)
            np.testing.assert_array_equal(dmode.C, mode.B.T)
        np.testing.assert_array_equal(d.coupling(2, 3), paper_model.coupling(3, 2).T)


class TestNormalizedEntry:
    def test_as_normalized_validates(self):
        mode = ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(DimensionError):
            as_normalized(LssModel(modes=(mode,)))

    def test_immutability(self, paper_model):
        with pytest.raises(ValueError):
            paper_model.mode(1).A[0, 0] = 5.0

    def test_refusal_is_not_remembered(self, monkeypatch):
        calls = []
        validate = lssbal.model.validate_model
        monkeypatch.setattr(lssbal.model, "validate_model",
                            lambda model: calls.append(model) or validate(model))
        model = LssModel(modes=(ModeSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]]),))
        for _ in range(2):
            with pytest.raises(DimensionError):
                as_normalized(model)
        assert calls == [model, model]

    def test_descriptor_model_normalized_once(self, paper_model):
        modes = tuple(ModeSystem(A=m.A, B=m.B, C=m.C, E=2.0 * np.eye(m.n))
                      for m in paper_model.modes)
        model = LssModel(modes=modes, couplings=paper_model.couplings)
        norm = as_normalized(model)
        assert not norm.has_descriptor and as_normalized(model) is norm

    def test_validated_model_is_freed_without_the_cyclic_gc(self):
        model = lssbal.three_mode_model()
        assert as_normalized(model) is model
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()


class TestArrayDataclassIdentity:
    """Dataclasses holding arrays compare and hash by identity, never raise."""

    def test_eq_false_exactly_where_arrays_are_held(self):
        for name in lssbal.__all__:
            cls = getattr(lssbal, name)
            if not dataclasses.is_dataclass(cls):
                continue
            holds_arrays = any(
                "ndarray" in str(f.type) for f in dataclasses.fields(cls)
            )
            assert cls.__dataclass_params__.eq is not holds_arrays, name

    def test_models_compare_and_hash(self):
        a, b = lssbal.three_mode_model(), lssbal.three_mode_model()
        assert (a == b) is False and a != b
        assert a == a
        assert len({a, b, a}) == 2 and a in {a}
        assert hash(a) == hash(a)
        assert (a.mode(1) == b.mode(1)) is False

    def test_trajectories_and_gramians_compare_and_hash(self, paper_model):
        signal = lssbal.SwitchingSignal(events=((1, 0.5), (2, 0.5)))
        traj = lssbal.simulate(paper_model, signal, dt=0.01)
        again = lssbal.simulate(paper_model, signal, dt=0.01)
        assert (traj == again) is False and traj == traj
        assert traj in {traj} and again not in {traj}
        g = lssbal.compute_gramians(paper_model)
        assert (g == lssbal.compute_gramians(paper_model)) is False and g == g
        assert hash(g) == hash(g)
