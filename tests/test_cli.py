import json
import re
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dsyevr

import lssbal
from lssbal import analysis, cli, modelio, simulation
from lssbal.cli import main

from oracles import heat_model, trajectory_csv_by_scalar


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    assert main(["example", "paper-3mode", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def x0_file(tmp_path):
    """The paper model with a stored x0, which belongs to mode 1."""
    model = lssbal.three_mode_model()
    path = tmp_path / "x0.json"
    modelio.save_model(lssbal.LssModel(model.modes, model.couplings,
                                       x0=np.array([1.0, -2.0, 0.5])), path)
    return path


def read_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestExample:
    def test_emit_and_validate(self, model_file, capsys):
        assert main(["validate", "--model", str(model_file)]) == 0
        report = read_json(capsys)
        assert report["valid"] and report["issues"] == []

    def test_round_trip_is_byte_identical(self, model_file, tmp_path):
        text = model_file.read_text()
        model = modelio.load_model(model_file)
        again = tmp_path / "again.json"
        modelio.save_model(model, again)
        assert again.read_text() == text

    def test_unknown_name(self, capsys):
        assert main(["example", "no-such-model"]) == 1
        assert "available" in capsys.readouterr().err


# argv, exit code, and the report that stdout (and --report) must hold;
# "{tmp}/bad.json" is the model file with a mis-shaped coupling
REPORTS = {
    "example to stdout": (["example", "paper-3mode"], 0, None),
    "reduce an invalid model": (["reduce", "--model", "{tmp}/bad.json", "--orders", "1,3,2",
                                 "--report", "{tmp}/report.json"], 1,
                                {"issues": ["coupling (1,2) has shape (2, 3), expected (3,3)"],
                                 "model": "{tmp}/bad.json", "valid": False}),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_reports(name, model_file, tmp_path, capsys):
    argv, code, report = REPORTS[name]
    doc = json.loads(model_file.read_text())
    doc["couplings"][0]["K"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    out = capsys.readouterr().out
    if report is None:  # the model itself, as `example --out` writes it
        assert out == model_file.read_text()
        return
    report = report | {"model": report["model"].format(tmp=tmp_path)}
    assert out == modelio.dumps_canonical(report) == (tmp_path / "report.json").read_text()


class TestValidate:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"modes": [')
        assert main(["validate", "--model", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2

    def test_couplings_not_an_array_exit_2(self, model_file, tmp_path, capsys):
        doc = json.loads(model_file.read_text()) | {"couplings": None}
        bad = tmp_path / "null.json"
        bad.write_text(json.dumps(doc))
        assert main(["reduce", "--model", str(bad), "--orders", "1,3,2"]) == 2
        assert "'couplings' must be an array" in capsys.readouterr().err

    def test_invalid_model_exit_1(self, model_file, tmp_path, capsys):
        doc = json.loads(model_file.read_text())
        doc["couplings"][0]["K"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        bad = tmp_path / "badshape.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(bad)]) == 1
        report = read_json(capsys)
        assert not report["valid"] and len(report["issues"]) == 1


class TestReduce:
    def test_paper_orders(self, model_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        assert main([
            "reduce", "--model", str(model_file),
            "--orders", "1,3,2", "--out", str(out),
        ]) == 0
        report = read_json(capsys)
        assert abs(report["bound"] - 0.2471) < 1e-3
        assert report["orders"] == [1, 3, 2]
        assert report["gramians"]["reach"]["converged"]
        reduced = modelio.load_model(out)
        assert reduced.dims == (1, 3, 2)
        assert lssbal.validate_model(reduced).ok

    def test_full_orders_zero_bound(self, model_file, capsys):
        assert main([
            "reduce", "--model", str(model_file), "--orders", "3,3,3",
        ]) == 0
        report = read_json(capsys)
        assert report["bound"] == 0.0

    def test_threshold_rule(self, model_file, capsys):
        assert main([
            "reduce", "--model", str(model_file), "--threshold", "0.5",
        ]) == 0
        report = read_json(capsys)
        assert report["orders"] == [1, 1, 1]

    def test_orders_and_threshold_conflict(self, model_file):
        assert main([
            "reduce", "--model", str(model_file),
            "--orders", "1,2,3", "--threshold", "0.5",
        ]) == 1

    def test_diverging_series_exits_1(self, tmp_path, capsys):
        # K = 3 both ways: the series grows ninefold per level until its norm overflows
        K = np.array([[3.0]])
        mode = lssbal.ModeSystem(A=[[-0.5]], B=[[1.0]], C=[[1.0]])
        path = tmp_path / "diverging.json"
        modelio.save_model(lssbal.LssModel(modes=(mode, mode),
                                           couplings={(1, 2): K, (2, 1): K}), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reduce", "--model", str(path), "--orders", "1,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coupled reach series did not converge")
        assert "observed contraction 9 per level" in err and "Warning" not in err


# a signal whose dwells exceed the paper model's certified 228.4 s
DWELLS_KEPT = "[[1, 230.0], [3, 230.0], [2, 230.0]]"


class TestSimulate:
    def test_zero_input_zero_output_csv(self, model_file, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", "[[1, 1.0], [2, 1.0]]",
            "--input", "zero", "--dt", "0.01",
            "--csv", str(csv),
        ]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,mode,u_1,y_1"
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[2]) == 0.0 and float(cols[3]) == 0.0

    def test_reduced_run_reports_bound(self, model_file, tmp_path, capsys):
        reduced = tmp_path / "red.json"
        main(["reduce", "--model", str(model_file), "--orders", "1,3,2",
              "--out", str(reduced)])
        capsys.readouterr()
        csv = tmp_path / "both.csv"
        assert main([
            "simulate", "--model", str(model_file),
            "--reduced", str(reduced),
            "--signal", "random:seed=7,count=6,mu=1.5",
            "--input", "paper", "--csv", str(csv),
        ]) == 0
        report = read_json(capsys)
        assert report["ratio"] <= report["bound"]
        assert report["dwell_respected"] is False
        assert "warning" in report
        header = csv.read_text().splitlines()[0]
        assert header == "t,mode,u_1,y_1,yhat_1"

    def test_reproducible_outputs(self, model_file, tmp_path, monkeypatch):
        csv = tmp_path / "run.csv"
        rep = tmp_path / "run.json"
        captured = []
        # the second run streams the CSV in many small chunks
        for chunk_rows in (modelio._CSV_CHUNK_ROWS, 7):
            monkeypatch.setattr(modelio, "_CSV_CHUNK_ROWS", chunk_rows)
            assert main([
                "simulate", "--model", str(model_file),
                "--signal", "random:seed=3,count=4,mu=1.0",
                "--input", "paper", "--dt", "0.005",
                "--csv", str(csv), "--report", str(rep),
            ]) == 0
            captured.append((csv.read_bytes(), rep.read_bytes()))
        assert captured[0] == captured[1]

    def test_random_signal_events_pinned(self, model_file, capsys):
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", "random:seed=7,count=6,mu=1.5",
            "--input", "zero", "--dt", "0.1",
        ]) == 0
        assert read_json(capsys)["signal"] == [
            [3, 4.1916414029087266],
            [2, 3.8270570707355804],
            [3, 2.4004988547336765],
            [1, 4.120660336188786],
            [3, 3.963685255148299],
            [1, 3.8912082862561386],
        ]

    def test_random_signal_from_stored_x0_swaps_its_first_mode_with_1(self, x0_file, capsys):
        assert main([
            "simulate", "--model", str(x0_file),
            "--signal", "random:seed=7,count=3,mu=1.5",
            "--input", "zero", "--dt", "0.1",
        ]) == 0
        # the pinned walk above, with modes 3 and 1 swapped
        assert read_json(capsys)["signal"] == [
            [1, 4.1916414029087266],
            [2, 3.8270570707355804],
            [1, 2.4004988547336765],
        ]

    def test_signal_file(self, model_file, tmp_path, capsys):
        sig = tmp_path / "signal.json"
        sig.write_text("[[1, 0.5], [3, 0.5]]")
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", f"@{sig}", "--input", "zero", "--dt", "0.01",
        ]) == 0
        report = read_json(capsys)
        assert report["signal"] == [[1, 0.5], [3, 0.5]]

    def simulate_reduced(self, model_file, reduced, signal, capsys):
        assert main(["simulate", "--model", str(model_file), "--reduced", str(reduced),
                     "--signal", signal, "--input", "paper", "--dt", "0.05"]) == 0
        return read_json(capsys)

    def reduced_file(self, model_file, tmp_path, capsys):
        path = tmp_path / "red.json"
        assert main(["reduce", "--model", str(model_file), "--orders", "1,3,2",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_own_truncation_is_covered(self, model_file, tmp_path, capsys):
        reduced = self.reduced_file(model_file, tmp_path, capsys)
        report = self.simulate_reduced(model_file, reduced, DWELLS_KEPT, capsys)
        assert report["dwell_respected"] is True and "warning" not in report
        assert report["ratio"] <= report["bound"]

    def test_a_stored_x0_is_not_covered(self, x0_file, tmp_path, capsys):
        # the bound holds from a zero initial state; a nonzero x0 is named
        # before the other warnings, and an all-zero x0 warns nothing
        reduced = self.reduced_file(x0_file, tmp_path, capsys)
        x0_warning = "the model stores a nonzero x0; the bound covers a zero initial state only"
        assert main(["simulate", "--model", str(x0_file), "--reduced", str(reduced),
                     "--signal", DWELLS_KEPT, "--input", "zero", "--dt", "0.05"]) == 0
        report = read_json(capsys)
        assert report["dwell_respected"] is True and report["warning"] == x0_warning
        assert report["l2_output_error"] > 0 and report["ratio"] == 0.0
        report = self.simulate_reduced(x0_file, reduced, "[[1, 2.0], [3, 2.0]]", capsys)
        assert report["warning"].startswith(x0_warning + "; signal dwell")
        doc = json.loads(x0_file.read_text())
        doc["x0"] = [0.0, 0.0, 0.0]
        zero_x0 = tmp_path / "zero_x0.json"
        zero_x0.write_text(json.dumps(doc))
        reduced = self.reduced_file(zero_x0, tmp_path, capsys)
        assert "warning" not in self.simulate_reduced(zero_x0, reduced, DWELLS_KEPT, capsys)

    @pytest.mark.parametrize("edit", ["A scaled", "coupling scaled", "x0 dropped",
                                      "unrelated model"])
    def test_a_file_that_is_not_the_truncation_is_not_covered(self, edit, x0_file,
                                                               tmp_path, capsys):
        reduced = self.reduced_file(x0_file, tmp_path, capsys)
        doc = json.loads(reduced.read_text())
        if edit == "A scaled":
            doc["modes"][0]["A"][0][0] *= 1.001
        elif edit == "coupling scaled":
            doc["couplings"][-1]["K"] = [[1.001 * v for v in row]
                                         for row in doc["couplings"][-1]["K"]]
        elif edit == "x0 dropped":
            del doc["x0"]
        else:
            doc = modelio.model_to_dict(lssbal.random_stable_model(1, 3, [1, 3, 2]))
        path = tmp_path / "other.json"
        path.write_text(json.dumps(doc))
        not_covered = (f"{path} is not this model's truncation to its orders; the bound "
                       "and certificates belong to that truncation and do not cover it")
        for signal in (DWELLS_KEPT, "[[1, 2.0], [3, 2.0]]"):
            own = self.simulate_reduced(x0_file, reduced, signal, capsys)
            report = self.simulate_reduced(x0_file, path, signal, capsys)
            # the model's own bound and certificates, a warning joined to any dwell warning
            assert report["bound"] == own["bound"]
            assert report["certificates"] == own["certificates"]
            assert report["dwell_respected"] is own["dwell_respected"]
            dwell_warning = [own["warning"]] if "warning" in own else []
            assert report["warning"] == "; ".join(dwell_warning + [not_covered])

    def test_an_input_norm_that_overflows_is_refused(self, model_file, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        assert main(["simulate", "--model", str(model_file), "--reduced", str(model_file),
                     "--signal", "[[1, 1]]", "--input", "expr:amp=1e200", "--dt", "0.1",
                     "--csv", str(csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not csv.exists()
        assert captured.err == ("error: the input L2 norm is inf: the samples are too large "
                                "for double precision\n")

    def test_an_input_sample_that_is_not_finite_is_refused(self, model_file, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        assert main(["simulate", "--model", str(model_file), "--reduced", str(model_file),
                     "--signal", "[[1, 1]]", "--input", "expr:amp=1e308,offset=1e308",
                     "--dt", "0.1", "--csv", str(csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not csv.exists()
        assert captured.err == ("error: input {'kind': 'expr', 'amp': 1e+308, 'freq': 20.0, "
                                "'decay': 0.5, 'offset': 1e+308} is inf at t = 0.1\n")

    def test_bad_signal_json_exit_2(self, model_file):
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", "[[1, 0.5", "--input", "zero",
        ]) == 2


class TestModelFiles:
    def test_round_trip_with_descriptor_and_x0(self, tmp_path):
        base = lssbal.random_stable_model(6, num_modes=2, dims=[2, 2])
        modes = tuple(
            lssbal.ModeSystem(A=m.A, B=m.B, C=m.C, E=np.eye(2) + 0.1 * np.ones((2, 2)))
            for m in base.modes
        )
        model = lssbal.LssModel(
            modes=modes, couplings=dict(base.couplings), x0=np.array([1.0, -2.0])
        )
        path = tmp_path / "full.json"
        modelio.save_model(model, path)
        back = modelio.load_model(path)
        assert back.x0 is not None
        np.testing.assert_array_equal(back.x0, model.x0)
        for a, b in zip(model.modes, back.modes):
            np.testing.assert_array_equal(a.E, b.E)
        assert path.read_text() == modelio.dumps_canonical(modelio.model_to_dict(back))

    def test_written_files_load(self, model_file, x0_file, tmp_path, capsys):
        # unknown keys are refused, so every key the package writes must be known
        reduced = tmp_path / "red.json"
        assert main(["reduce", "--model", str(x0_file), "--orders", "1,3,2",
                     "--out", str(reduced)]) == 0
        base = lssbal.random_stable_model(6, num_modes=2, dims=[2, 2])
        modes = tuple(lssbal.ModeSystem(A=m.A, B=m.B, C=m.C, E=2.0 * np.eye(2))
                      for m in base.modes)
        descriptor = tmp_path / "descriptor.json"
        modelio.save_model(lssbal.LssModel(modes, dict(base.couplings), x0=[1.0, -2.0]),
                           descriptor)
        for path in (model_file, x0_file, reduced, descriptor):
            modelio.load_model(path)

    def test_duplicate_coupling_rejected(self, model_file, tmp_path):
        doc = json.loads(model_file.read_text())
        doc["couplings"].append(dict(doc["couplings"][0]))
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(lssbal.ModelFormatError, match="duplicate"):
            modelio.load_model(bad)

    def test_non_finite_entry_rejected(self, model_file, tmp_path):
        text = model_file.read_text().replace("-1.0", "NaN", 1)
        bad = tmp_path / "nan.json"
        bad.write_text(text)
        with pytest.raises(lssbal.ModelFormatError, match="finite"):
            modelio.load_model(bad)


class TestCsvWriters:
    def test_trajectory_matches_scalar_formatting(self, monkeypatch):
        model = lssbal.random_stable_model(21, num_modes=2, dims=[2, 3],
                                           num_inputs=2, coupling_norm=0.2)
        bal = lssbal.balance(model, lssbal.compute_gramians(model))
        reduced = lssbal.truncate(bal, lssbal.ReductionPlan.from_orders(bal, [1, 2]))
        rng = np.random.default_rng(5)
        u = lssbal.InputSignal.from_samples(np.linspace(0.0, 0.6, 13),
                                            rng.normal(size=(13, 2)))
        signal = lssbal.SwitchingSignal(events=((2, 0.3), (1, 0.25), (2, 0.2)))
        traj = lssbal.simulate(model, signal, u, dt=0.01)
        traj_red = lssbal.simulate(reduced, signal, u, dt=0.01)
        assert set(traj.modes.tolist()) == {1, 2}
        assert traj.outputs.shape == traj_red.outputs.shape == (len(traj.times), 1)
        text = modelio.trajectory_to_csv(traj, traj_red)
        assert text == trajectory_csv_by_scalar(traj, traj_red)
        assert text.splitlines()[0] == "t,mode,u_1,u_2,y_1,yhat_1"
        for chunk_rows in (1, 7):
            monkeypatch.setattr(modelio, "_CSV_CHUNK_ROWS", chunk_rows)
            assert modelio.trajectory_to_csv(traj, traj_red) == text

    @pytest.mark.parametrize("m, p", [(2, 1), (0, 2), (1, 0)])
    def test_trajectory_columns_match_scalar_formatting(self, m, p):
        # special floats, zero-width input or output columns, and row counts
        # on either side of a chunk boundary
        special = [-0.0, 1e-05, 1e16, 5e-324, np.inf, -np.inf, np.nan, 0.1]
        chunk = modelio._CSV_CHUNK_ROWS
        for rows in (1, chunk - 1, chunk, chunk + 1):
            times = np.resize(special[:5], rows)
            modes = np.arange(rows) % 3 + 1
            values = np.resize(special, (rows, m + 2 * p))
            traj, reduced = (
                lssbal.Trajectory(times=times, modes=modes, inputs=values[:, :m],
                                  outputs=outputs)
                for outputs in (values[:, m:m + p], values[:, m + p:])
            )
            text = modelio.trajectory_to_csv(traj, reduced)
            assert text == trajectory_csv_by_scalar(traj, reduced)
            assert text.count("\n") == rows + 1


class TestInputFile:
    def test_sampled_input_from_file(self, model_file, tmp_path, capsys):
        data = {"times": [0.0, 0.5, 1.0, 2.0], "values": [[0.0], [1.0], [0.5], [0.0]]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", "[[1, 1.0], [2, 1.0]]",
            "--input", str(path), "--dt", "0.01",
        ]) == 0
        report = read_json(capsys)
        assert report["input"]["kind"] == "samples"
        assert report["l2_input"] > 0

    def test_signal_bare_path(self, model_file, tmp_path, capsys):
        sig = tmp_path / "sig.json"
        sig.write_text("[[2, 0.5], [1, 0.5]]")
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", str(sig), "--input", "zero", "--dt", "0.01",
        ]) == 0
        assert read_json(capsys)["signal"] == [[2, 0.5], [1, 0.5]]


class TestCompare:
    def test_paper_model_both_arms(self, model_file, capsys):
        assert main([
            "compare", "--model", str(model_file), "--orders", "2,2,2",
            "--seed", "1", "--dt", "0.002", "--horizon", "6", "--mu", "1.0",
        ]) == 0
        report = read_json(capsys)
        arms = report["arms"]
        assert np.isfinite(arms["modewise"]["l2_error"])
        assert np.isfinite(arms["average"]["l2_error"])

    def test_full_orders_give_tiny_errors(self, model_file, capsys):
        assert main([
            "compare", "--model", str(model_file), "--orders", "3,3,3",
            "--seed", "2", "--dt", "0.002", "--horizon", "6", "--mu", "1.0",
        ]) == 0
        report = read_json(capsys)
        assert report["arms"]["modewise"]["l2_error"] < 1e-8
        assert report["arms"]["average"]["l2_error"] < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_stored_x0_starts_the_signal_in_mode_1(self, x0_file, capsys, seed):
        assert main(["compare", "--model", str(x0_file), "--orders", "1,3,2",
                     "--horizon", "3", "--seed", str(seed), "--dt", "0.1"]) == 0
        assert read_json(capsys)["signal"][0][0] == 1

    def test_stored_x0_is_warned_of(self, model_file, x0_file, capsys):
        reports = []
        for path in (model_file, x0_file):
            assert main(["compare", "--model", str(path), "--orders", "1,3,2",
                         "--horizon", "3", "--mu", "0.5", "--dt", "0.1"]) == 0
            reports.append(read_json(capsys))
        assert "warning" not in reports[0]
        assert reports[1]["warning"] == ("the model stores a nonzero x0; "
                                         "the bound covers a zero initial state only")

    def test_stored_x0_relabels_the_same_walk(self, model_file, x0_file, capsys):
        signals = []
        for path in (model_file, x0_file):
            assert main(["compare", "--model", str(path), "--orders", "1,3,2",
                         "--horizon", "3", "--mu", "0.5", "--seed", "0"]) == 0
            signals.append(read_json(capsys)["signal"])
        walk, started = signals
        swap = {walk[0][0]: 1, 1: walk[0][0]}
        assert walk[0][0] != 1 and len(walk) > 2
        assert started == [[swap.get(q, q), d] for q, d in walk]

    def test_mixed_dims_skip_average_arm(self, tmp_path, capsys):
        model = lssbal.random_stable_model(21, num_modes=2, dims=[2, 3],
                                           coupling_norm=0.2)
        path = tmp_path / "mixed.json"
        modelio.save_model(model, path)
        assert main([
            "compare", "--model", str(path), "--orders", "2,2",
            "--seed", "0", "--dt", "0.002", "--horizon", "6", "--mu", "1.0",
        ]) == 0
        report = read_json(capsys)
        assert "skipped" in report["arms"]["average"]
        assert np.isfinite(report["arms"]["modewise"]["l2_error"])


class TestFailedCertificates:
    """A refused certificate is a per-entry error, never a failed command."""

    @pytest.fixture()
    def zero_coupling_file(self, tmp_path):
        paper = lssbal.three_mode_model()
        model = lssbal.LssModel(
            modes=paper.modes,
            couplings={key: np.zeros_like(K) for key, K in paper.couplings.items()},
        )
        path = tmp_path / "zero.json"
        modelio.save_model(model, path)
        return path

    def reduce_refusals(self, zero_coupling_file, capsys):
        args = ["reduce", "--model", str(zero_coupling_file), "--orders", "1,3,2"]
        assert main(args) == 0
        certs = read_json(capsys)["certificates"]
        assert sorted(certs) == ["dwell_obs", "dwell_reach", "stability"]
        assert all(list(entry) == ["error"] for entry in certs.values())
        for side in ("obs", "reach"):
            assert re.fullmatch(
                rf"coupling sum of mode 1 is not positive definite on side '{side}' "
                r"\(min eigenvalue \S+\); dwell-time assumption fails",
                certs[f"dwell_{side}"]["error"],
            )
        # the eigenvalue printed here sits at rounding level, either sign
        assert re.fullmatch(
            r"mode 1 admits no decay rate for its certifying matrix "
            r"\(largest generalized eigenvalue -?\d\.\d{3}e[+-]\d\d is not below "
            r"the rounding threshold -\d\.\d{3}e-1[3-5]\)",
            certs["stability"]["error"],
        )

    def test_reduce_reports_each_refusal(self, zero_coupling_file, capsys):
        self.reduce_refusals(zero_coupling_file, capsys)

    def test_refusals_do_not_depend_on_the_triangle_read(self, zero_coupling_file,
                                                          capsys, monkeypatch):
        # reading the upper triangle flips the sign of mode 1's rounding-level
        # eigenvalue; the verdict and the mode named must not follow it
        def upper_eig(H, index):
            k = index % len(H) + 1
            return float(dsyevr(0.5 * (H + H.T), compute_v=0, range="I",
                                il=k, iu=k, lower=0)[0][0])

        monkeypatch.setattr(analysis, "_eig", upper_eig)
        self.reduce_refusals(zero_coupling_file, capsys)

    def test_simulate_on_a_failed_cholesky_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "heat25.json"
        modelio.save_model(heat_model(), path)
        args = ["simulate", "--model", str(path), "--signal", "random:seed=1,count=3",
                "--dt", "0.01"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_simulate_without_mu_fails(self, zero_coupling_file, capsys):
        args = ["simulate", "--model", str(zero_coupling_file),
                "--signal", "random:seed=1,count=3"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no certified dwell time available")


HUGE = "1" + "0" * 400  # an integer literal beyond float range
SIMULATE = ["simulate", "--model", "{model}", "--dt", "0.1"]
ZERO_SIGNAL = SIMULATE + ["--input", "zero", "--signal"]
ONE_EVENT = SIMULATE + ["--signal", "[[1, 1.0]]", "--input"]
VALIDATE_BAD = ["validate", "--model", "{tmp}/bad.json"]


def _edited(old, new):
    return {"bad.json": lambda text: text.replace(old, new, 1)}


def _input_file(text):
    return {"in.json": lambda _: text}


# name: (argv, files written to the test directory, text the error must contain)
MALFORMED = {
    "signal NaN duration": (ZERO_SIGNAL + ["[[1, NaN]]"], {}, "event 0: duration"),
    "signal infinite duration": (ZERO_SIGNAL + ["[[1, Infinity]]"], {}, "event 0: duration"),
    "signal huge duration": (ZERO_SIGNAL + [f"[[1, {HUGE}]]"], {}, "invalid signal"),
    "signal bool mode": (ZERO_SIGNAL + ["[[true, 1.5]]"], {}, "signal[0]"),
    "bad inline JSON": (ZERO_SIGNAL + ["[[1, 0.5"], {}, "inline signal: invalid JSON at line 1"),
    "unknown random key": (ZERO_SIGNAL + ["random:sed=3"], {}, "'sed=3'"),
    "random NaN mu": (ZERO_SIGNAL + ["random:seed=1,count=2,mu=nan"], {}, "'mu=nan'"),
    "expr NaN": (ONE_EVENT + ["expr:amp=nan"], {}, "'amp=nan'"),
    "expr unknown key": (ONE_EVENT + ["expr:ampl=1"], {}, "'ampl=1'"),
    "random repeated key": (ZERO_SIGNAL + ["random:seed=1,seed=2,count=2,mu=1"], {},
                            "repeated signal parameter 'seed'"),
    "expr repeated key": (ONE_EVENT + ["expr:amp=1,amp=2"], {}, "repeated input parameter 'amp'"),
    "input NaN time": (ONE_EVENT + ["{tmp}/in.json"],
                       _input_file('{"times": [0, NaN], "values": [1, 2]}'), "times: entry 1"),
    "input string value": (ONE_EVENT + ["{tmp}/in.json"],
                           _input_file('{"times": [0, 1], "values": ["1", 2]}'), "values: entry 0"),
    "input bool value": (ONE_EVENT + ["{tmp}/in.json"],
                         _input_file('{"times": [0, 1], "values": [[1], [true]]}'),
                         "values: entry (1,0)"),
    "input empty": (ONE_EVENT + ["{tmp}/in.json"],
                    _input_file('{"times": [], "values": []}'), "non-empty"),
    "signal duration overflows": (["simulate", "--model", "{model}", "--signal",
                                   "[[1, 1e308], [2, 1e308]]"], {},
                                  "invalid signal: total duration of the events overflows"),
    "dt NaN": (["simulate", "--model", "{model}", "--signal", "[[1, 1.0]]", "--dt", "nan"],
               {}, "--dt"),
    "threshold NaN": (["reduce", "--model", "{model}", "--threshold", "nan"], {}, "--threshold"),
    "compare horizon inf": (["compare", "--model", "{model}", "--orders", "2,2,2",
                             "--horizon", "inf"], {}, "--horizon"),
    "compare mu NaN": (["compare", "--model", "{model}", "--orders", "2,2,2", "--mu", "nan"],
                       {}, "--mu"),
    "random zero mu": (ZERO_SIGNAL + ["random:seed=1,count=2,mu=0"], {},
                       "'mu=0': must be a finite number > 0"),
    "random negative mu": (ZERO_SIGNAL + ["random:seed=1,count=2,mu=-1"], {}, "'mu=-1'"),
    "dt zero": (["simulate", "--model", "{model}", "--signal", "[[1, 1.0]]", "--dt", "0"],
                {}, "argument --dt: must be a finite number > 0, got '0'"),
    "compare dt negative": (["compare", "--model", "{model}", "--orders", "2,2,2",
                             "--dt", "-0.1"], {}, "argument --dt"),
    "compare horizon negative": (["compare", "--model", "{model}", "--orders", "2,2,2",
                                  "--horizon", "-5"], {}, "argument --horizon"),
    "compare mu negative": (["compare", "--model", "{model}", "--orders", "2,2,2",
                             "--mu", "-1"], {}, "argument --mu"),
    "simulate grid too fine": (["simulate", "--model", "{model}", "--signal", "[[1, 1e9]]",
                                "--dt", "1e-3"], {}, "dt = 0.001 over a horizon of 1000000000.0 s"),
    "compare mu 1e9": (["compare", "--model", "{model}", "--orders", "2,2,2", "--mu", "1e9"],
                       {}, "dt = 0.001 over a horizon"),
    "compare negative seed": (["compare", "--model", "{model}", "--orders", "2,2,2",
                               "--seed", "-1"], {}, "--seed"),
    "random negative seed": (ZERO_SIGNAL + ["random:seed=-1,count=3,mu=1"], {}, "'seed=-1'"),
    "random zero count": (ZERO_SIGNAL + ["random:seed=1,count=0,mu=1"], {}, "'count=0'"),
    "random negative count": (ZERO_SIGNAL + ["random:count=-3,mu=1"], {}, "'count=-3'"),
    "random huge count": (ZERO_SIGNAL + ["random:count=100001,mu=1"], {},
                          "'count=100001': must be at most 100000"),
    "random float count": (ZERO_SIGNAL + ["random:count=2.5,mu=1"], {}, "'count=2.5'"),
    "random empty item": (ZERO_SIGNAL + ["random:seed=1,,count=3"], {},
                          "'random:seed=1,,count=3'"),
    "expr empty item": (ONE_EVENT + ["expr:amp=1,"], {}, "'expr:amp=1,'"),
    "orders empty items": (["reduce", "--model", "{model}", "--orders", ",1,,3,2,"], {},
                           "',1,,3,2,'"),
    "model NaN entry": (VALIDATE_BAD, _edited("-1.0", "NaN"), "is not a finite number"),
    "model 1e400 entry": (VALIDATE_BAD, _edited("-1.0", "1e400"), "is not a finite number"),
    "model huge int entry": (VALIDATE_BAD, _edited("-1.0", HUGE), "is not a finite number"),
    "model bool entry": (VALIDATE_BAD, _edited("-1.0", "true"), "is not a finite number"),
    "model string entry": (VALIDATE_BAD, _edited("-1.0", '"-1.0"'), "is not a finite number"),
    "model null entry": (VALIDATE_BAD, _edited("-1.0", "null"), "is not a finite number"),
    "coupling bool from": (VALIDATE_BAD, _edited('"from": 1', '"from": true'), "'from'/'to'"),
    "model unknown key": (VALIDATE_BAD, _edited('"couplings"', '"coupling"'),
                          "model document: unknown key 'coupling'"),
    "model over-long integer": (VALIDATE_BAD, _edited("-1.0", "1" * 5000), "invalid JSON"),
    "unreadable model": (["validate", "--model", "{tmp}"], {}, "cannot read"),
    "model not UTF-8": (VALIDATE_BAD, {"bad.json": lambda _: b"\xff\xfe{}"}, "cannot read"),
}
# The MALFORMED cases that are domain errors (exit 1): a grid beyond the
# sample limit.  Every other case is a parse error (exit 2).
DOMAIN_ERRORS = {"simulate grid too fine", "compare mu 1e9"}


def test_random_signal_needs_two_modes(tmp_path, capsys):
    mode = lssbal.three_mode_model().modes[0]
    path = tmp_path / "one_mode.json"
    modelio.save_model(lssbal.LssModel(modes=(mode,), couplings={}), path)
    argv = ["simulate", "--model", str(path), "--signal", "random:seed=0,count=3,mu=1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a switching walk needs num_modes >= 2, got 1")
    assert "Traceback" not in captured.err


def test_bare_specs_take_every_default(paper_model):
    assert cli._parse_input_spec("expr:", 1).to_dict() == simulation.InputSignal.expr().to_dict()
    bare = cli._parse_signal_spec("random:", paper_model, lambda: 1.5)
    spelled = cli._parse_signal_spec("random:seed=0,count=8,mu=1.5", paper_model, lambda: None)
    assert bare.events == spelled.events


def test_random_count_bounds_are_inclusive():
    assert cli._event_count("1") == 1
    assert cli._event_count("100000") == simulation._MAX_RANDOM_EVENTS == 100_000


def test_compare_refuses_a_signal_of_too_many_events(model_file, capsys):
    # 15 s of dwells no shorter than 7.5e-5 s could hold 200,000 events
    argv = ["compare", "--model", str(model_file), "--orders", "2,2,2",
            "--horizon", "15", "--mu", repr(15 / 200_000)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a horizon of 15.0 s at min_dwell 7.5e-05 s")
    assert "more than 100000 events" in captured.err


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_input_is_an_error_not_a_crash(name, model_file, tmp_path, capsys):
    argv, files, expected = MALFORMED[name]
    for fname, make in files.items():
        content = make(model_file.read_text())
        path = tmp_path / fname
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    try:
        code = main([arg.format(model=model_file, tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse refuses an option value
        code = exc.code
    err = capsys.readouterr().err
    assert code == (1 if name in DOMAIN_ERRORS else 2)
    assert "error:" in err and expected in err
    assert "Traceback" not in err
