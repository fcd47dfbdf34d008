"""Seed-robustness check: every workload generator on further seeds.

    python3 bench/seeds.py

For each workload and each of SEEDS this sets the workload up once and runs
the untraced loop for its minimum number of repeats, with every
correctness gate (for boundary-series this includes the level range
derived from the series radius).  Prints one line per pair and exits
with status 0 only if every fail_rate is 0.
"""

from __future__ import annotations

import shutil
import sys

import env

env.pin_blas_threads()  # before anything loads numpy

import run  # noqa: E402  (after the pinning above)

SEEDS = (1, 2)


def main() -> int:
    if not run.import_library():
        return 2
    import pipeline
    import workloads

    clean = True
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workdir = run.WORK_DIR / f"seeds-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                workload, _ = pipeline.setup(name, seed, workdir)
                runner = pipeline.Runner(workload, workdir, run.SRC)
                pipeline.measure(runner, 0.0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            rate = pipeline.fail_rate(runner.ledger)
            clean = clean and rate == 0.0
            levels = sorted(set(runner.samples["levels_reach"] + runner.samples["levels_obs"]))
            extra = ""
            if workload.level_range is not None:
                extra = f"  levels {levels[0]}..{levels[-1]} in range {workload.level_range}"
            print(f"{name:16s} seed {seed:<6d} fail_rate {rate!r} "
                  f"({runner.ledger.attempted} operations){extra}")
            for failure in runner.ledger.failures[:5]:
                print("  FAILED " + failure.rstrip())
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
