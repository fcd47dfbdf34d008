import json

import numpy as np
import pytest

import lssbal
from lssbal import modelio
from lssbal.cli import main

from oracles import frequency_csv_by_scalar, trajectory_csv_by_scalar


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    assert main(["example", "paper-3mode", "--out", str(path)]) == 0
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


class TestValidate:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"modes": [')
        assert main(["validate", "--model", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2

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

    def test_reproducible_outputs(self, model_file, tmp_path):
        csv = tmp_path / "run.csv"
        rep = tmp_path / "run.json"
        captured = []
        for _ in range(2):
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

    def test_signal_file(self, model_file, tmp_path, capsys):
        sig = tmp_path / "signal.json"
        sig.write_text("[[1, 0.5], [3, 0.5]]")
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", f"@{sig}", "--input", "zero", "--dt", "0.01",
        ]) == 0
        report = read_json(capsys)
        assert report["signal"] == [[1, 0.5], [3, 0.5]]

    def test_bad_signal_json_exit_2(self, model_file):
        assert main([
            "simulate", "--model", str(model_file),
            "--signal", "[[1, 0.5", "--input", "zero",
        ]) == 2


class TestFreq:
    def test_csv_output(self, model_file, tmp_path):
        csv = tmp_path / "freq.csv"
        assert main([
            "freq", "--model", str(model_file), "--mode", "1",
            "--wmin", "0.001", "--wmax", "10", "--points", "5",
            "--csv", str(csv),
        ]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "omega,mag,phase"
        first = lines[1].split(",")
        # near-DC gain of mode 1 is 1.25
        assert abs(float(first[1]) - 1.25) < 1e-3

    def test_bad_mode(self, model_file):
        assert main(["freq", "--model", str(model_file), "--mode", "9"]) == 1


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
    def test_trajectory_matches_scalar_formatting(self):
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
        assert {s.shape[0] for s in traj.states} == {2, 3}
        text = modelio.trajectory_to_csv(traj, traj_red)
        assert text == trajectory_csv_by_scalar(traj, traj_red)
        assert text.splitlines()[0] == "t,mode,u_1,u_2,y_1,yhat_1"

    def test_frequency_matches_scalar_formatting(self):
        model = lssbal.random_stable_model(4, num_modes=2, dims=[3, 3],
                                           num_inputs=2, num_outputs=2)
        omegas = np.logspace(-2, 3, 40)
        response = lssbal.frequency_response(model, 1, omegas)
        text = modelio.frequency_csv(omegas, response)
        assert text == frequency_csv_by_scalar(omegas, response)
        assert text.splitlines()[0] == (
            "omega,mag_1_1,phase_1_1,mag_1_2,phase_1_2,"
            "mag_2_1,phase_2_1,mag_2_2,phase_2_2"
        )


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
