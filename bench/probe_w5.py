"""One-shot probe: balancing random_stable_model(1, num_modes=3, dims=[200]*3).

    python3 bench/probe_w5.py

Neither a workload nor gated.  Balancing this n=200 model raises
BalancingError today: the smallest balanced values are near 1e-9, and
squaring them in the eigendecomposition of U'QU loses them below
roundoff.  A failing run cannot be timed before and after a fix (the
fix adds work), so the probe only records the outcome as data: the
Gramian solve time and levels, per-mode extreme eigenvalues of the
Gramians, and what balance() did.  Prints one JSON object and exits
with status 0 whatever the outcome.
"""

from __future__ import annotations

import json
import sys
import time

import env

env.pin_blas_threads()  # before anything loads numpy

import run  # noqa: E402  (after the pinning above)

SEED, MODES, DIM = 1, 3, 200


def main() -> int:
    if not run.import_library():
        return 2
    import numpy as np

    import lssbal

    model = lssbal.random_stable_model(SEED, num_modes=MODES, dims=[DIM] * MODES)
    start = time.perf_counter()
    gset = lssbal.compute_gramians(model)
    gramians_s = time.perf_counter() - start
    record = {
        "probe": f"random_stable_model({SEED}, num_modes={MODES}, dims=[{DIM}]*{MODES})",
        "metadata": env.run_metadata(run.ROOT, SEED),
        "gramians_s": gramians_s,
        "levels": [gset.reach_diagnostics.levels, gset.obs_diagnostics.levels],
        "eig_range_P": [[float(w[0]), float(w[-1])]
                        for w in map(np.linalg.eigvalsh, gset.reach)],
        "eig_range_Q": [[float(w[0]), float(w[-1])]
                        for w in map(np.linalg.eigvalsh, gset.obs)],
    }
    start = time.perf_counter()
    try:
        bal = lssbal.balance(model, gset)
    except lssbal.BalancingError as exc:
        record.update(outcome="BalancingError", message=str(exc))
    else:
        record.update(outcome="balanced",
                      sigma_range=[[float(s[-1]), float(s[0])] for s in bal.sigma])
    record["balance_s"] = time.perf_counter() - start
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
