"""Seeded benchmark of the lssbal reduce -> certify -> validate pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-validate, wide-reduce, boundary-series (see
bench/README.md).  The run sets the workload up, then runs a closed
loop for ``--seconds``: one caller runs the pipeline and then one
``lssbal`` CLI process, back to back.  Eight more set-ups are spread
over the loop, outside its measured time; ``setup_s`` is the median of
the nine.  Every output is checked.  With ``--trace 1`` the loop alternates
untraced and traced pipeline passes instead and reports per-layer
metrics; the spans are written to .bench_out/.  Metric names and units
come from BENCHMARK.json.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.

The library is imported from src/ next to this directory, never from
an installed copy; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import env

env.pin_blas_threads()  # before anything loads numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"


def import_library() -> bool:
    """Put the checkout's src/ first on the path; False if it is missing."""
    if not (SRC / "lssbal" / "__init__.py").is_file():
        print(f"error: lssbal sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-validate", "wide-reduce", "boundary-series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    """Set up, measure and summarize one run; returns the full report."""
    import pipeline

    units = metric_units(bool(args.trace))
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload, setup_s = pipeline.setup(args.workload, args.seed, workdir)
        runner = pipeline.Runner(workload, workdir, SRC)
        runner.samples["setup_s"].append(setup_s)
        origin = time.perf_counter()
        if args.trace:
            tracer = pipeline.measure_traced(runner, args.seconds)
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file, origin)
            values = pipeline.layer_metrics(runner, tracer)
            summaries = {}
        else:
            pipeline.measure(runner, args.seconds, pipeline.SETUP_REPEATS)
            summaries = {name: pipeline.summarize(runner.samples[name])
                         for name in pipeline.STATISTIC}
            values = {name: summaries[name][stat]
                      for name, stat in pipeline.STATISTIC.items()}
            trace_file = None
        measured_s = time.perf_counter() - origin
        model_file_bytes = (workdir / workload.model_file).stat().st_size
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are "
                           f"not both measured and listed in {SPEC.name}")

    ledger = runner.ledger
    return {
        "workload": args.workload,
        "metadata": env.run_metadata(ROOT, args.seed),
        "loop": "closed, one caller, no rate",
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": bool(args.trace),
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "cases": [c.label for c in workload.cases],
        "model_file_bytes": model_file_bytes,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "fail_rate": pipeline.fail_rate(ledger),
        "failures": ledger.failures[:20],
        "summaries": summaries,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['metadata']['seed']}  "
          f"trace {int(report['trace'])}  measured {report['measured_s']:.1f} s")
    for name, metric in report["metrics"].items():
        line = f"  {name:32s} {metric['value']!r:>24} {metric['unit']}"
        summary = report["summaries"].get(name)
        if summary:
            hi = ("none" if summary["p_hi"] is None
                  else f"{summary['p_hi']!r} at p{summary['p_hi_level']}")
            line += (f"  ({summary['samples']} samples: p90 {summary['p90']!r}, "
                     f"median {summary['median']!r}, high percentile {hi})")
        print(line)
    print(f"  fail_rate {report['fail_rate']!r} "
          f"({report['failed']} of {report['attempted']} operations)")
    for failure in report["failures"]:
        print("  FAILED " + failure.rstrip().replace("\n", "\n    "))
    print("report " + json.dumps(report))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_library():
        return 2
    report = run(args)
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
