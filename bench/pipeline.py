"""Closed-loop measurement of the reduce -> certify -> validate pipeline.

One caller runs the workload's pipeline back to back, with no rate,
until the run's time is up.  Every call into the library is wrapped in
a span named after the module it enters; the untraced run passes
:data:`tracing.NO_TRACE`, so both runs execute the same code.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import lssbal
from lssbal.modelio import trajectory_to_csv

import checks
import workloads
from tracing import NO_TRACE, Tracer

MIN_REPEATS = 3
SETUP_REPEATS = 9
PROCESS_TIMEOUT_S = 150.0

# The statistic each end-to-end metric reports; names and units are in
# BENCHMARK.json.  Neighbours on a shared host slow this process's CPU
# down by up to 2x for seconds to minutes at a time, and how often they
# do drifts over tens of minutes.  The run's median follows that drift;
# its 90th percentile (a measured sample, by nearest rank) is the cost
# under contention, which was present in every run and held steadier.
STATISTIC = {
    "reduce_s": "p90",
    "validate_s": "p90",
    "cli_s": "p90",
    "cli_peak_rss_mb": "median",
    "setup_s": "median",
}

PHASES = ("phase.reduce", "phase.validate")
SELF_LAYERS = ("gramians", "balancing", "analysis", "simulation", "bench")

# Per-layer metrics taken as the median duration of one span per call.
SPAN_METRICS = {
    "cli.import_s": "cli.import",
    "model.validate_s": "model.validate_model",
    "modelio.load_s": "modelio.load_model",
    "modelio.save_s": "modelio.save_model",
    "modelio.csv_s": "modelio.trajectory_to_csv",
    "gramians.lyap_s": "gramians.solve_lyapunov",
    "gramians.reach_s": "gramians.solve_coupled_reach",
    "gramians.obs_s": "gramians.solve_coupled_obs",
    "gramians.existence_s": "gramians.check_existence",
    "balancing.balance_s": "balancing.balance",
    "balancing.balance_average_s": "balancing.balance_average",
    "balancing.truncate_s": "balancing.truncate",
    "analysis.dwell_obs_s": "analysis.dwell_time_obs",
    "analysis.dwell_reach_s": "analysis.dwell_time_reach",
    "analysis.stability_s": "analysis.stability_certificate",
    "simulation.simulate_s": "simulation.simulate",
    "simulation.l2_s": "simulation.l2",
}


@dataclass
class Reduction:
    gramians: lssbal.GramianSet
    balanced: lssbal.BalancedRealization
    reduced: lssbal.LssModel
    bound: float
    reduced_avg: lssbal.LssModel
    dwell_obs: lssbal.DwellTimeCertificate
    dwell_reach: lssbal.DwellTimeCertificate
    stability: lssbal.StabilityCertificate


@dataclass
class Validation:
    full: lssbal.Trajectory
    reduced: lssbal.Trajectory
    error: float
    error_avg: float
    input_norm: float


@dataclass
class ProcessResult:
    returncode: int
    seconds: float
    peak_rss_mb: float
    outputs: dict[str, bytes]
    stderr: bytes


def _truncate_arm(bal, orders, tr):
    with tr.span("balancing.truncate"):
        plan = lssbal.ReductionPlan.from_orders(bal, orders)
        return lssbal.truncate(bal, plan), lssbal.error_bound(bal, plan)


def reduce_case(case: workloads.Case, tr) -> Reduction:
    """Loaded model -> certified reduced models (mode-wise and averaged)."""
    model = case.model
    with tr.span("gramians.compute_gramians"):
        gset = lssbal.compute_gramians(model)
    with tr.span("balancing.balance"):
        bal = lssbal.balance(model, gset)
    reduced, bound = _truncate_arm(bal, case.orders, tr)
    with tr.span("balancing.balance_average"):
        bal_avg = lssbal.balance_average(model, gset)
    reduced_avg, _ = _truncate_arm(bal_avg, case.orders, tr)
    with tr.span("analysis.dwell_time_obs"):
        dwell_obs = lssbal.dwell_time(model, gset, side="obs")
    with tr.span("analysis.dwell_time_reach"):
        dwell_reach = lssbal.dwell_time(model, gset, side="reach")
    with tr.span("analysis.stability_certificate"):
        stability = lssbal.stability_certificate(model, gset)
    return Reduction(gset, bal, reduced, bound, reduced_avg,
                     dwell_obs, dwell_reach, stability)


def validate_case(case: workloads.Case, red: Reduction, tr) -> Validation:
    """Simulate the full and both reduced models along the case's signal."""
    sim = (case.signal, case.u)
    with tr.span("simulation.simulate"):
        full = lssbal.simulate(case.model, *sim, dt=case.dt)
    with tr.span("simulation.simulate_reduced"):
        traj = lssbal.simulate(red.reduced, *sim, dt=case.dt)
    with tr.span("simulation.simulate_reduced"):
        traj_avg = lssbal.simulate(red.reduced_avg, *sim, dt=case.dt)
    with tr.span("simulation.l2"):
        error = lssbal.output_l2_error(full, traj)
        error_avg = lssbal.output_l2_error(full, traj_avg)
        input_norm = lssbal.input_l2(case.u, case.signal.total_duration, dt=case.dt)
    return Validation(full, traj, error, error_avg, input_norm)


def run_process(argv, cwd: Path, env: dict, outputs: dict[str, str]) -> ProcessResult:
    """Run one subprocess to completion; wall time and peak RSS via wait4.

    ``outputs`` maps names to files (relative to ``cwd``) read back after
    the process ends; stdout is stored under the name ``report``.
    """
    stdout_path, stderr_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    data = {"report": stdout_path.read_bytes()}
    for name, rel in outputs.items():
        path = cwd / rel
        data[name] = path.read_bytes() if path.exists() else b""
    return ProcessResult(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                         data, stderr_path.read_bytes())


class Ledger:
    """Attempted operations, failures and their messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def call(self, name: str, fn, *args):
        """Run one operation; an exception is a failure and yields None."""
        try:
            result = fn(*args)
        except Exception:  # the loop must go on; the failure is recorded
            self.record(name, False, traceback.format_exc(limit=2))
            return None
        self.record(name, True)
        return result

    def check(self, name: str, fn, *args) -> None:
        """Run a checker; each check it returns is one operation."""
        try:
            results = fn(*args)
        except Exception:  # a checker that breaks is a failed check
            self.record(name, False, traceback.format_exc(limit=2))
            return
        for label, ok, detail in results:
            self.record(f"check {label}", ok, detail)


@dataclass
class Runner:
    """State of one benchmark run on one workload."""

    workload: workloads.Workload
    workdir: Path
    src: Path
    ledger: Ledger = field(default_factory=Ledger)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    cli_reference: dict[str, bytes] | None = None

    def pipeline(self, tr):
        """One pass over all cases; the reductions, validations and phase times."""
        reds, vals = [], []
        t0 = time.perf_counter()
        with tr.span("phase.reduce"):
            for case in self.workload.cases:
                reds.append(self.ledger.call(f"reduce {case.label}", reduce_case, case, tr))
        t1 = time.perf_counter()
        with tr.span("phase.validate"):
            for case, red in zip(self.workload.cases, reds):
                if red is None:
                    self.ledger.record(f"validate {case.label}", False, "reduce failed")
                    vals.append(None)
                else:
                    vals.append(self.ledger.call(f"validate {case.label}",
                                                 validate_case, case, red, tr))
        t2 = time.perf_counter()
        for case, red, val in zip(self.workload.cases, reds, vals):
            if red is not None:
                self.ledger.check("check reduction", checks.check_reduction,
                                  self.workload, case, red)
            if val is not None:
                self.ledger.check("check validation", checks.check_validation,
                                  self.workload, case, red, val)
        ok = all(v is not None for v in vals)
        if ok:
            self.count_work(reds, vals)
        return reds, vals, (t1 - t0, t2 - t1) if ok else None

    def count_work(self, reds, vals) -> None:
        """Counts from the result objects of one successful pass."""
        s = self.samples
        levels = [(r.gramians.reach_diagnostics.levels,
                   r.gramians.obs_diagnostics.levels) for r in reds]
        s["levels_reach"] += [reach for reach, _ in levels]
        s["levels_obs"] += [obs for _, obs in levels]
        s["pass_levels"].append(sum(map(sum, levels)))
        s["grid_samples"] += [len(v.full.times) for v in vals]

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), env.get("PYTHONPATH")) if p
        )
        return env

    def cli(self, red0) -> None:
        """One fresh ``lssbal`` process running the workload's command."""
        wl = self.workload
        argv = [sys.executable, "-m", "lssbal.cli", *wl.cli_args]
        outputs = {name: name for name in wl.cli_files}
        result = self.ledger.call("cli", run_process, argv, self.workdir, self.env(), outputs)
        if result is None:
            return
        self.ledger.check("check cli", checks.check_cli, wl, result,
                          self.cli_reference, red0)
        if result.returncode == 0:
            self.samples["cli_s"].append(result.seconds)
            self.samples["cli_peak_rss_mb"].append(result.peak_rss_mb)
            if self.cli_reference is None:
                self.cli_reference = result.outputs

    def untraced_repeat(self) -> None:
        reds, _, phases = self.pipeline(NO_TRACE)
        if phases is not None:
            self.samples["reduce_s"].append(phases[0])
            self.samples["validate_s"].append(phases[1])
        self.cli(reds[0])

    def probes(self, val, tr) -> None:
        """Single-layer calls on the first case, made only in traced repeats."""
        model, workdir = self.workload.cases[0].model, self.workdir
        largest = max(model.modes, key=lambda m: m.n)
        calls = [
            ("model.validate_model", lssbal.validate_model, model),
            ("modelio.save_model", lssbal.save_model, model, workdir / "probe.json"),
            ("modelio.load_model", lssbal.load_model, workdir / self.workload.model_file),
            ("modelio.trajectory_to_csv", trajectory_to_csv, val.full, val.reduced),
            ("gramians.solve_lyapunov", lssbal.solve_lyapunov,
             largest.A, largest.B @ largest.B.T),
            ("gramians.solve_coupled_reach", lssbal.solve_coupled, model, "reach"),
            ("gramians.solve_coupled_obs", lssbal.solve_coupled, model, "obs"),
            ("gramians.check_existence", lssbal.check_existence, model),
            ("cli.import", run_process, [sys.executable, "-c", "import lssbal"],
             workdir, self.env(), {}),
        ]
        results = {}
        for name, fn, *args in calls:
            with tr.span(name):
                results[name] = self.ledger.call(name, fn, *args)
        solved = [results[f"gramians.solve_coupled_{kind}"] for kind in ("reach", "obs")]
        if all(solved):
            self.samples["probe_levels"].append(sum(s.diagnostics.levels for s in solved))
        imported = results["cli.import"]
        if imported is not None:
            self.ledger.record("import lssbal exit 0", imported.returncode == 0,
                               imported.stderr.decode(errors="replace")[-300:])


def setup(name: str, seed: int, workdir: Path):
    """Generate the inputs, write the model files and run one warm-up pass."""
    start = time.perf_counter()
    workload = workloads.build(name, seed, workdir)
    for case in workload.cases:
        validate_case(case, reduce_case(case, NO_TRACE), NO_TRACE)
    return workload, time.perf_counter() - start


def measure(runner: Runner, seconds: float, setups: int = 0) -> None:
    """Untraced closed loop: pipeline then CLI, back to back.

    Until ``samples["setup_s"]`` holds ``setups`` samples, the workload is
    set up again at evenly spaced points of the loop, outside its measured
    time, so that set-up is timed under the same machine conditions as
    the loop is.
    """
    wl, setup_s = runner.workload, runner.samples["setup_s"]

    def due() -> bool:
        return len(setup_s) < setups and elapsed >= seconds * len(setup_s) / setups

    elapsed = 0.0
    repeats = 0
    while repeats < MIN_REPEATS or elapsed < seconds:
        if due():
            setup_s.append(setup(wl.name, wl.seed, runner.workdir)[1])
        start = time.perf_counter()
        runner.untraced_repeat()
        elapsed += time.perf_counter() - start
        repeats += 1
    while len(setup_s) < setups:
        setup_s.append(setup(wl.name, wl.seed, runner.workdir)[1])


def measure_traced(runner: Runner, seconds: float) -> Tracer:
    """Alternate untraced and traced pipeline passes; probes in traced ones."""
    tracer = Tracer()
    s = runner.samples
    deadline = time.perf_counter() + seconds
    repeats = 0
    while repeats < 2 * MIN_REPEATS or time.perf_counter() < deadline or repeats % 2:
        if repeats % 2 == 0:
            _, _, phases = runner.pipeline(NO_TRACE)
            if phases is not None:
                s["pipeline_untraced_s"].append(sum(phases))
        else:
            tracer.repeat = repeats
            _, vals, phases = runner.pipeline(tracer)
            if phases is not None:
                s["pipeline_traced_s"].append(sum(phases))
                with tracer.span("phase.probe"):
                    runner.probes(vals[0], tracer)
        repeats += 1
    return tracer


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def _ratio(num, den) -> float | None:
    return num / den if num is not None and den else None


def layer_metrics(runner: Runner, tracer: Tracer) -> dict[str, float | None]:
    """Every per-layer metric of a traced run, by name."""
    s = runner.samples
    wl = runner.workload
    out: dict[str, float | None] = {
        name: _median(tracer.durations(span)) for name, span in SPAN_METRICS.items()
    }
    out["modelio.model_bytes"] = float((runner.workdir / wl.model_file).stat().st_size)
    out["gramians.levels_reach"] = _median(s["levels_reach"])
    out["gramians.levels_obs"] = _median(s["levels_obs"])
    out["gramians.levels_min"] = min(s["levels_reach"] + s["levels_obs"], default=None)
    solved = (out["gramians.reach_s"] or 0.0) + (out["gramians.obs_s"] or 0.0)
    out["gramians.s_per_level"] = _ratio(solved or None, _median(s["probe_levels"]))
    # computed, not counted: every level solves one Lyapunov equation per mode
    pass_levels = _median(s["pass_levels"])
    out["gramians.lyap_solves"] = (
        None if pass_levels is None else pass_levels * wl.cases[0].model.num_modes
    )
    out["simulation.samples"] = _median(s["grid_samples"])
    out["simulation.us_per_sample"] = _ratio(
        None if out["simulation.simulate_s"] is None else 1e6 * out["simulation.simulate_s"],
        out["simulation.samples"])

    per_repeat = tracer.layer_self_times(PHASES).values()
    for layer in SELF_LAYERS:
        out[f"self.{layer}_s"] = _median([r[layer] for r in per_repeat])
    out["trace.reduce_s"] = _median(tracer.durations("phase.reduce"))
    out["trace.validate_s"] = _median(tracer.durations("phase.validate"))
    out["trace.gramians_share"] = _median(
        [r["gramians"] / r["phase.reduce"] for r in per_repeat])
    out["trace.simulation_share"] = _median(
        [r["simulation"] / r["phase.validate"] for r in per_repeat])
    traced, untraced = _median(s["pipeline_traced_s"]), _median(s["pipeline_untraced_s"])
    out["trace.overhead_s"] = None if None in (traced, untraced) else traced - untraced
    out["trace.spans"] = _ratio(float(len(tracer.spans)), len(per_repeat))
    return out


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def summarize(values: list[float]) -> dict:
    """Median, 90th percentile, and the highest percentile with ten samples beyond it.

    Percentiles are nearest-rank, so each is one of the measured samples.
    """
    n = len(values)
    ordered = sorted(values)
    out = {"samples": n, "median": _median(values),
           "p90": _nearest_rank(ordered, 0.9) if n else None,
           "p_hi": None, "p_hi_level": None, "values": list(values)}
    if n > 10:
        out["p_hi_level"] = round(100.0 * (n - 10) / n, 2)
        out["p_hi"] = ordered[n - 11]
    return out


def fail_rate(ledger: Ledger) -> float:
    return len(ledger.failures) / ledger.attempted if ledger.attempted else 1.0
