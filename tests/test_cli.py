import json
import re

import numpy as np
import pytest

import lssbal
from lssbal import cli, modelio
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
        assert {s.shape[0] for s in traj.states} == {2, 3}
        text = modelio.trajectory_to_csv(traj, traj_red)
        assert text == trajectory_csv_by_scalar(traj, traj_red)
        assert text.splitlines()[0] == "t,mode,u_1,u_2,y_1,yhat_1"
        for chunk_rows in (1, 7):
            monkeypatch.setattr(modelio, "_CSV_CHUNK_ROWS", chunk_rows)
            assert modelio.trajectory_to_csv(traj, traj_red) == text

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

    def test_reduce_reports_each_refusal(self, zero_coupling_file, capsys):
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
        # the eigenvalue printed here sits at rounding level
        assert re.fullmatch(
            r"mode 1 admits no decay rate for its certifying matrix "
            r"\(largest generalized eigenvalue \S+ >= 0\)",
            certs["stability"]["error"],
        )

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
    "input NaN time": (ONE_EVENT + ["{tmp}/in.json"],
                       _input_file('{"times": [0, NaN], "values": [1, 2]}'), "times: entry 1"),
    "input string value": (ONE_EVENT + ["{tmp}/in.json"],
                           _input_file('{"times": [0, 1], "values": ["1", 2]}'), "values: entry 0"),
    "input bool value": (ONE_EVENT + ["{tmp}/in.json"],
                         _input_file('{"times": [0, 1], "values": [[1], [true]]}'),
                         "values: entry (1,0)"),
    "input empty": (ONE_EVENT + ["{tmp}/in.json"],
                    _input_file('{"times": [], "values": []}'), "non-empty"),
    "dt NaN": (["simulate", "--model", "{model}", "--signal", "[[1, 1.0]]", "--dt", "nan"],
               {}, "--dt"),
    "threshold NaN": (["reduce", "--model", "{model}", "--threshold", "nan"], {}, "--threshold"),
    "compare horizon inf": (["compare", "--model", "{model}", "--orders", "2,2,2",
                             "--horizon", "inf"], {}, "--horizon"),
    "compare mu NaN": (["compare", "--model", "{model}", "--orders", "2,2,2", "--mu", "nan"],
                       {}, "--mu"),
    "freq wmin NaN": (["freq", "--model", "{model}", "--mode", "1", "--wmin", "nan"], {}, "--wmin"),
    "freq wmax inf": (["freq", "--model", "{model}", "--mode", "1", "--wmax", "inf"], {}, "--wmax"),
    "freq negative points": (["freq", "--model", "{model}", "--mode", "1", "--points", "-1"],
                             {}, "--points"),
    "freq zero points": (["freq", "--model", "{model}", "--mode", "1", "--points", "0"],
                         {}, "--points"),
    "compare negative seed": (["compare", "--model", "{model}", "--orders", "2,2,2",
                               "--seed", "-1"], {}, "--seed"),
    "random negative seed": (ZERO_SIGNAL + ["random:seed=-1,count=3,mu=1"], {}, "'seed=-1'"),
    "random zero count": (ZERO_SIGNAL + ["random:seed=1,count=0,mu=1"], {}, "'count=0'"),
    "random negative count": (ZERO_SIGNAL + ["random:count=-3,mu=1"], {}, "'count=-3'"),
    "random huge count": (ZERO_SIGNAL + ["random:count=100001,mu=1"], {},
                          "'count=100001': must be at most 100000"),
    "random float count": (ZERO_SIGNAL + ["random:count=2.5,mu=1"], {}, "'count=2.5'"),
    "model NaN entry": (VALIDATE_BAD, _edited("-1.0", "NaN"), "is not a finite number"),
    "model 1e400 entry": (VALIDATE_BAD, _edited("-1.0", "1e400"), "is not a finite number"),
    "model huge int entry": (VALIDATE_BAD, _edited("-1.0", HUGE), "is not a finite number"),
    "model bool entry": (VALIDATE_BAD, _edited("-1.0", "true"), "is not a finite number"),
    "model string entry": (VALIDATE_BAD, _edited("-1.0", '"-1.0"'), "is not a finite number"),
    "model null entry": (VALIDATE_BAD, _edited("-1.0", "null"), "is not a finite number"),
    "coupling bool from": (VALIDATE_BAD, _edited('"from": 1', '"from": true'), "'from'/'to'"),
    "model over-long integer": (VALIDATE_BAD, _edited("-1.0", "1" * 5000), "invalid JSON"),
    "unreadable model": (["validate", "--model", "{tmp}"], {}, "cannot read"),
    "model not UTF-8": (VALIDATE_BAD, {"bad.json": lambda _: b"\xff\xfe{}"}, "cannot read"),
}


def test_random_count_bounds_are_inclusive():
    assert cli._event_count("1") == 1
    assert cli._event_count("100000") == cli._MAX_RANDOM_EVENTS == 100_000


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
    assert code in (1, 2)
    assert "error:" in err and expected in err
    assert "Traceback" not in err
