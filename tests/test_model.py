import dataclasses

import numpy as np
import pytest

import lssbal
from lssbal import (
    DimensionError,
    EquivalenceTransform,
    LssModel,
    ModeSystem,
    SingularMatrixError,
    apply_equivalence,
    normalize_descriptor,
    transfer_eval,
    validate_model,
)
from lssbal.model import as_normalized, dual

from oracles import kernel_eval, random_well_conditioned


def two_mode_model(n1=3, n2=3):
    rng = np.random.default_rng(42)
    return lssbal.random_stable_model(rng, num_modes=2, dims=[n1, n2])


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
    mats = [random_well_conditioned(rng, n) for n in dims]
    if similarity:
        return EquivalenceTransform.similarity(mats)
    rights = [random_well_conditioned(rng, n) for n in dims]
    return EquivalenceTransform(left=tuple(mats), right=tuple(rights))


class TestApplyEquivalence:
    def test_identity_transform_is_noop(self, paper_model):
        out = apply_equivalence(
            paper_model, EquivalenceTransform.identity(paper_model.dims)
        )
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
        out = apply_equivalence(paper_model, EquivalenceTransform.similarity(signs))
        for _ in range(5):
            s1, s2 = rng.uniform(0.5, 4.0, size=2) + 1j * rng.uniform(-2, 2, size=2)
            seq = [1, 2]
            ref = transfer_eval(paper_model, seq, [s1, s2])
            got = transfer_eval(out, seq, [s1, s2])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    def test_random_transform_preserves_kernels(self, paper_model):
        rng = np.random.default_rng(5)
        out = apply_equivalence(paper_model, random_transform(rng, paper_model.dims))
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
                random_transform(rng, paper_model.dims, similarity=trial % 2 == 0),
            )
            for seq in ([2], [1, 3], [3, 1, 2]):
                s = rng.uniform(0.5, 4.0, size=len(seq)) + 1j * rng.uniform(
                    -2.0, 2.0, size=len(seq)
                )
                ref = transfer_eval(paper_model, seq, s)
                got = transfer_eval(out, seq, s)
                np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch_raises(self, paper_model):
        bad = EquivalenceTransform.similarity([np.eye(2), np.eye(3), np.eye(3)])
        with pytest.raises(DimensionError):
            apply_equivalence(paper_model, bad)

    def test_singular_factor_rejected(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            EquivalenceTransform(left=(singular,), right=(np.eye(2),))

    def test_descriptor_model_transforms_consistently(self):
        rng = np.random.default_rng(29)
        base = two_mode_model()
        modes = tuple(
            ModeSystem(A=m.A, B=m.B, C=m.C, E=random_well_conditioned(rng, m.n))
            for m in base.modes
        )
        model = LssModel(modes=modes, couplings=dict(base.couplings))
        out = apply_equivalence(model, random_transform(rng, model.dims, similarity=False))
        for seq, s in (([1], [1.5 + 0.3j]), ([2, 1], [1.0 + 1.0j, 2.5])):
            ref = transfer_eval(model, seq, s)
            got = transfer_eval(out, seq, s)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_implicit_couplings_materialized(self):
        m1 = ModeSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        m2 = ModeSystem(A=-2 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        model = LssModel(modes=(m1, m2), couplings={})
        rng = np.random.default_rng(23)
        out = apply_equivalence(model, random_transform(rng, model.dims))
        # the default identity reset must be carried into the new basis
        assert (1, 2) in out.couplings and (2, 1) in out.couplings
        s = 1.3 + 0.7j
        ref = transfer_eval(model, [1, 2], [s, 2.0])
        got = transfer_eval(out, [1, 2], [s, 2.0])
        np.testing.assert_allclose(got, ref, rtol=1e-9)


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
        assert (traj.jumps[0] == again.jumps[0]) is False
        g = lssbal.compute_gramians(paper_model)
        assert (g == lssbal.compute_gramians(paper_model)) is False and g == g
        assert hash(g) == hash(g)
