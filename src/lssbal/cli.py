"""Command-line interface: validate, reduce, simulate, compare, export.

Exit codes: 0 on success, 1 on domain errors (validation, assumption or
solver failures), 2 on I/O or parse errors.  All randomness is seeded,
so identical invocations produce byte-identical CSV and JSON outputs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, balancing, gramians, modelio, sample_models, simulation
from .errors import LssError, ModelFormatError
from .model import LssModel, SwitchingSignal, _switches, validate_model


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _event_count(text: str) -> int:
    value = _positive_int(text)
    if value > simulation._MAX_RANDOM_EVENTS:
        raise argparse.ArgumentTypeError(
            f"must be at most {simulation._MAX_RANDOM_EVENTS}, got {text!r}"
        )
    return value


def _parse_orders(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ModelFormatError(f"bad --orders value {text!r}: {exc}") from exc


def _parse_params(spec: str, what: str, types: dict) -> dict:
    """Parse the ``key=value,...`` after the colon of ``spec``; every key
    must be one of ``types`` and appear once, and nothing after the colon
    means defaults."""
    body = spec.partition(":")[2]
    params = {}
    for part in body.split(",") if body else ():
        key, sep, value = part.partition("=")
        if not sep or key not in types:
            raise ModelFormatError(
                f"bad {what} parameter {part!r} in {spec!r}; keys are {', '.join(types)}"
            )
        if key in params:
            raise ModelFormatError(f"repeated {what} parameter {key!r} in {spec!r}")
        try:
            params[key] = types[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ModelFormatError(f"bad {what} parameter {part!r}: {exc}") from exc
    return params


def _parse_input_spec(spec: str, width: int) -> simulation.InputSignal:
    if spec in ("paper", "zero"):
        return getattr(simulation.InputSignal, spec)(width)
    if spec.startswith("expr:"):
        types = dict.fromkeys(("amp", "freq", "decay", "offset"), _finite_float)
        params = _parse_params(spec, "input", types)
        return simulation.InputSignal.expr(width=width, **params)
    return modelio.input_from_obj(modelio.read_json(spec), spec)


def _from_stored_x0(signal: SwitchingSignal, model: LssModel) -> SwitchingSignal:
    """A random walk made to start where the model's stored x0 lives, in mode 1.

    The walk's first mode and mode 1 swap labels.  The walk moves uniformly
    between modes, so the result is the same walk started in mode 1, and a
    signal that starts in mode 1, or any signal of a model without x0, is
    returned unchanged.
    """
    first = signal.events[0][0]
    if model.x0 is None or first == 1:
        return signal
    swap = {first: 1, 1: first}
    return SwitchingSignal(events=tuple((swap.get(q, q), d) for q, d in signal.events))


def _parse_signal_spec(spec: str, model: LssModel, default_mu) -> SwitchingSignal:
    if spec.startswith("random:"):
        types = {"seed": _nonnegative_int, "count": _event_count, "mu": _positive_float}
        params = _parse_params(spec, "signal", types)
        mu = params["mu"] if "mu" in params else default_mu()
        if mu is None or mu <= 0.0:
            raise LssError(
                "no certified dwell time available; pass mu explicitly, "
                "e.g. random:seed=0,count=8,mu=1.5"
            )
        rng = np.random.default_rng(params.get("seed", 0))
        walk = simulation._dwell_walk(model.num_modes, mu, rng)
        events = tuple(itertools.islice(walk, params.get("count", 8)))
        return _from_stored_x0(SwitchingSignal(events=events), model)
    if spec.startswith("@") or not spec.lstrip().startswith("["):
        return modelio.signal_from_obj(modelio.read_json(spec.removeprefix("@")))
    return modelio.signal_from_obj(modelio.parse_json(spec, "inline signal"))


def _gramian_diag_dict(diag: gramians.SolveDiagnostics) -> dict:
    return {
        "levels": diag.levels,
        "residual_max": max(diag.residuals),
        "converged": diag.converged,
    }


def _certificates_dict(model: LssModel, gset: gramians.GramianSet) -> dict:
    return {
        name: {"error": str(cert)} if isinstance(cert, LssError) else cert.to_dict()
        for name, cert in analysis.certificates(model, gset).items()
    }


def _certified_mu(certs: dict):
    values = [
        entry["mu"]
        for key, entry in certs.items()
        if key.startswith("dwell_") and "mu" in entry
    ]
    return max(values) if values else None


def _emit_report(report: dict, path) -> None:
    text = modelio.dumps_canonical(report)
    sys.stdout.write(text)
    if path:
        Path(path).write_text(text, encoding="utf-8")


def cmd_validate(args) -> int:
    model = modelio.load_model(args.model)
    report = validate_model(model)
    _emit_report({"model": str(args.model), "valid": report.ok,
                  "issues": list(report.issues)}, None)
    return 0 if report.ok else 1


def _reduce_and_certify(model: LssModel, orders=None, threshold=None):
    """Gramians, mode-wise balancing, the plan from ``orders`` (else ``threshold``),
    the truncation, its 2β bound and the model's certificates."""
    gset = gramians.compute_gramians(model)
    bal = balancing.balance(model, gset)
    if orders is not None:
        plan = balancing.ReductionPlan.from_orders(bal, orders)
    else:
        plan = balancing.ReductionPlan.from_threshold(bal, threshold)
    reduced = balancing.truncate(bal, plan)
    bound = balancing.error_bound(bal, plan)
    return gset, bal, plan, reduced, bound, _certificates_dict(model, gset)


def _validate(model: LssModel, reductions, signal, u_sig, dt):
    """The model's and each reduction's trajectory along one signal and input,
    the input's L2 norm, and each reduction's L2 output error."""
    traj = simulation.simulate(model, signal, u_sig, dt=dt)
    trajs = [simulation.simulate(red, signal, u_sig, dt=dt) for red in reductions]
    errors = [simulation.output_l2_error(traj, other) for other in trajs]
    return traj, trajs, simulation.input_l2(u_sig, signal.total_duration, dt=dt), errors


def cmd_reduce(args) -> int:
    model = modelio.load_model(args.model)
    report = validate_model(model)
    if not report.ok:
        _emit_report({"model": str(args.model), "valid": False,
                      "issues": list(report.issues)}, args.report)
        return 1
    if (args.orders is None) == (args.threshold is None):
        raise LssError("pass exactly one of --orders or --threshold")
    orders = _parse_orders(args.orders) if args.orders is not None else None
    gset, bal, plan, reduced, bound, certs = _reduce_and_certify(
        model, orders=orders, threshold=args.threshold
    )
    if args.out:
        modelio.save_model(reduced, args.out)
    run_report = {
        "model": str(args.model),
        "reduced_model": str(args.out) if args.out else None,
        "orders": list(plan.orders),
        "sigma": [s.tolist() for s in bal.sigma],
        "bound": bound,
        "eta": list(plan.eta),
        "gramians": {
            "reach": _gramian_diag_dict(gset.reach_diagnostics),
            "obs": _gramian_diag_dict(gset.obs_diagnostics),
        },
        "certificates": certs,
    }
    _emit_report(run_report, args.report)
    return 0


def _is_truncation(reduced: LssModel, own: LssModel) -> bool:
    """Whether every mode's A, B and C, every ordered coupling and x0 of
    ``reduced`` lie within 1e-9 relative (Frobenius) of ``own``'s."""
    pairs = [(getattr(r, k), getattr(o, k)) for r, o in zip(reduced.modes, own.modes)
             for k in "ABC"]
    pairs += [(reduced.coupling(i, j), own.coupling(i, j)) for i, j in _switches(own)]
    pairs.append((reduced.x0, own.x0))
    return all(a is b or (a is not None and b is not None and a.shape == b.shape
                          and np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b))
               for a, b in pairs)


def _x0_warning(model: LssModel) -> list[str]:
    """The warning for a model that stores a nonzero x0, which the bound does not cover."""
    if model.x0 is None or not model.x0.any():
        return []
    return ["the model stores a nonzero x0; the bound covers a zero initial state only"]


def cmd_simulate(args) -> int:
    model = modelio.load_model(args.model)
    reduced = modelio.load_model(args.reduced) if args.reduced else None
    u_sig = _parse_input_spec(args.input, model.num_inputs)

    certs = {}
    if reduced is not None:
        _, _, _, own, bound, certs = _reduce_and_certify(model, orders=reduced.dims)

    def default_mu():
        if not certs:
            certs.update(_certificates_dict(model, gramians.compute_gramians(model)))
        return _certified_mu(certs)

    signal = _parse_signal_spec(args.signal, model, default_mu)
    reductions = [] if reduced is None else [reduced]
    traj, trajs, l2_input, errors = _validate(model, reductions, signal, u_sig, args.dt)
    report: dict = {
        "model": str(args.model),
        "signal": modelio.signal_to_obj(signal),
        "input": u_sig.to_dict(),
        "dt": args.dt,
        "horizon": signal.total_duration,
        "l2_input": l2_input,
    }
    if reduced is not None:
        [err] = errors
        report["reduced"] = str(args.reduced)
        report["l2_output_error"] = err
        report["ratio"] = err / l2_input if l2_input > 0 else 0.0
        report["bound"] = bound
        mu_cert = _certified_mu(certs)
        report["certificates"] = certs
        warnings = _x0_warning(model)
        if mu_cert is not None:
            report["dwell_respected"] = signal.min_dwell >= mu_cert
            if not report["dwell_respected"]:
                warnings.append(
                    f"signal dwell {signal.min_dwell:.4g} is below the "
                    f"certified minimum {mu_cert:.4g}; the bound is not "
                    "guaranteed for this run"
                )
        if not _is_truncation(reduced, own):
            warnings.append(
                f"{args.reduced} is not this model's truncation to its orders; the bound "
                "and certificates belong to that truncation and do not cover it"
            )
        if warnings:
            report["warning"] = "; ".join(warnings)
    if args.csv:
        chunks = modelio._trajectory_csv_chunks(traj, *trajs)
        with open(args.csv, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        report["csv"] = str(args.csv)
    _emit_report(report, args.report)
    return 0


def cmd_example(args) -> int:
    model = sample_models.EXAMPLES[args.name]()
    if args.out:
        modelio.save_model(model, args.out)
    else:
        sys.stdout.writelines(modelio._model_lines(model))
    return 0


def cmd_compare(args) -> int:
    model = modelio.load_model(args.model)
    orders = _parse_orders(args.orders)
    gset, _, plan1, red1, bound1, certs = _reduce_and_certify(model, orders=orders)
    arms: dict = {"modewise": {"orders": list(plan1.orders), "bound": bound1}}
    reductions = {"modewise": red1}
    if len(set(model.dims)) == 1:
        bal2 = balancing.balance_average(model, gset)
        plan2 = balancing.ReductionPlan.from_orders(bal2, orders)
        reductions["average"] = balancing.truncate(bal2, plan2)
        arms["average"] = {"orders": list(plan2.orders)}
    else:
        arms["average"] = {
            "skipped": "average-Gramian balancing needs equal mode dimensions"
        }

    mu = args.mu if args.mu is not None else (_certified_mu(certs) or 1.0)
    horizon = max(args.horizon, mu)
    rng = np.random.default_rng(args.seed)
    signal = _from_stored_x0(
        simulation.random_dwell_signal(model.num_modes, mu, horizon, rng), model
    )
    u_sig = simulation.InputSignal.paper(model.num_inputs)
    _, _, l2u, errors = _validate(model, reductions.values(), signal, u_sig, args.dt)
    for arm, err in zip(reductions, errors):
        arms[arm]["l2_error"] = err

    report = {
        "model": str(args.model),
        "signal": modelio.signal_to_obj(signal),
        "dt": args.dt,
        "l2_input": l2u,
        "arms": arms,
        "certificates": certs,
    }
    if warnings := _x0_warning(model):
        report["warning"] = "; ".join(warnings)
    _emit_report(report, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lssbal",
        description="Balanced truncation toolkit for linear switched systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against the schema")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce", help="balance, truncate and report the error bound")
    p.add_argument("--model", required=True)
    p.add_argument("--orders", help="comma-separated per-mode orders, e.g. 1,3,2")
    p.add_argument("--threshold", type=_finite_float,
                   help="keep values >= threshold * largest, per mode")
    p.add_argument("--out", help="path for the reduced model file")
    p.add_argument("--report", help="also write the JSON report here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="time-domain simulation, optional reduced twin")
    p.add_argument("--model", required=True)
    p.add_argument("--reduced")
    p.add_argument("--signal", required=True,
                   help="inline JSON [[mode,dur],...], @file.json, or "
                        "random:seed=N,count=M[,mu=X]")
    p.add_argument("--input", default="zero",
                   help="paper | zero | expr:amp=..,freq=..,decay=..,offset=.. | file.json")
    p.add_argument("--dt", type=_positive_float, default=simulation.DEFAULT_DT)
    p.add_argument("--csv", help="write the trajectory as CSV here")
    p.add_argument("--report", help="also write the JSON report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("example", help="emit a bundled model file")
    p.add_argument("name", choices=sample_models.EXAMPLES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("compare", help="mode-wise vs average-Gramian reduction")
    p.add_argument("--model", required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--dt", type=_positive_float, default=simulation.DEFAULT_DT)
    p.add_argument("--horizon", type=_positive_float, default=15.0)
    p.add_argument("--mu", type=_positive_float,
                   help="dwell scale of the test signal (default: certified)")
    p.add_argument("--report", help="also write the JSON report here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LssError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
