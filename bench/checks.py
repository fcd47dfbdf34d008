"""Correctness gates applied to every pipeline pass and CLI invocation.

Each check is ``(name, ok, detail)``; every check counts as one
attempted operation and a failed one as one failure.
"""

from __future__ import annotations

import json
import math

import numpy as np

from lssbal.gramians import DEFAULT_TOL

import workloads as wl_mod

Check = tuple[str, bool, str]


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def check_reduction(workload, case, red) -> list[Check]:
    out: list[Check] = []
    for kind, diag in (("reach", red.gramians.reach_diagnostics),
                       ("obs", red.gramians.obs_diagnostics)):
        worst = max(diag.residuals)
        out.append((f"{case.label} {kind} residual < tol",
                    diag.converged and worst < DEFAULT_TOL, f"{worst:.3e}"))
    if workload.name == "paper-validate":
        sigma_err = max(
            float(np.max(np.abs(s - np.asarray(g))))
            for s, g in zip(red.balanced.sigma, wl_mod.PAPER_SIGMA)
        )
        out.append(("golden sigma", sigma_err <= wl_mod.GOLDEN_ATOL, f"{sigma_err:.2e}"))
        out.append(("golden bound 0.2471",
                    abs(red.bound - wl_mod.PAPER_BOUND) <= wl_mod.GOLDEN_ATOL,
                    f"{red.bound:.6f}"))
    if case.reference is not None:
        for kind, got, want in (("reach", red.gramians.reach, case.reference[0]),
                                ("obs", red.gramians.obs, case.reference[1])):
            err = max(_rel(g, w) for g, w in zip(got, want))
            out.append((f"{case.label} {kind} = dense Kronecker solve",
                        err <= wl_mod.REFERENCE_RTOL, f"{err:.2e}"))
    if workload.level_range is not None:
        lo, hi = workload.level_range
        for kind, diag in (("reach", red.gramians.reach_diagnostics),
                           ("obs", red.gramians.obs_diagnostics)):
            out.append((f"{case.label} {kind} levels in [{lo}, {hi}]",
                        lo <= diag.levels <= hi, str(diag.levels)))
    return out


def check_validation(workload, case, red, val) -> list[Check]:
    values = (val.error, val.error_avg, val.input_norm)
    out: list[Check] = [(f"{case.label} L2 norms finite",
                         all(math.isfinite(v) for v in values) and val.input_norm > 0.0,
                         repr(values))]
    if workload.name == "paper-validate":
        mu = max(red.dwell_obs.mu, red.dwell_reach.mu)
        out.append(("signal respects certified dwell",
                    case.signal.min_dwell >= mu,
                    f"min dwell {case.signal.min_dwell:.3f} vs mu {mu:.3f}"))
        ratio = val.error / val.input_norm
        out.append(("error ratio <= 2 beta", ratio <= red.bound,
                    f"{ratio:.4e} vs {red.bound:.4f}"))
    return out


def check_cli(workload, result, reference, red) -> list[Check]:
    """Exit status, byte-identical outputs and the report's content.

    ``reference`` holds the outputs of the run's first invocation, or
    is None for the first invocation itself; ``red`` is the library's
    reduction of the first case in the same repeat, or None if it failed.
    """
    out: list[Check] = [("cli exit 0", result.returncode == 0,
                         result.stderr.decode(errors="replace")[-300:])]
    if result.returncode != 0:
        return out
    if reference is not None:
        for name, data in result.outputs.items():
            out.append((f"cli {name} byte-identical", data == reference[name],
                        f"{len(data)} vs {len(reference[name])} bytes"))
    try:
        report = json.loads(result.outputs["report"])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return out + [("cli report parses", False, str(exc))]
    if workload.name == "paper-validate":
        out.append(("cli golden bound", abs(report["bound"] - wl_mod.PAPER_BOUND)
                    <= wl_mod.GOLDEN_ATOL, repr(report["bound"])))
        out.append(("cli ratio <= bound", report["ratio"] <= report["bound"],
                    f"{report['ratio']!r} vs {report['bound']!r}"))
        out.append(("cli dwell respected", report.get("dwell_respected") is True,
                    repr(report.get("dwell_respected"))))
    else:
        for kind in ("reach", "obs"):
            diag = report["gramians"][kind]
            out.append((f"cli {kind} residual < tol",
                        diag["converged"] and diag["residual_max"] < DEFAULT_TOL,
                        repr(diag["residual_max"])))
        if red is not None:
            agree = math.isclose(report["bound"], red.bound, rel_tol=1e-9)
            out.append(("cli bound = library bound", agree,
                        f"{report['bound']!r} vs {red.bound!r}"))
    return out
