import argparse
import dataclasses
import functools
import importlib
import inspect
import math
import pathlib
import pkgutil
import re
import types

import pytest

import lssbal
from lssbal import DimensionError, cli

# Test oracles that live in tests/oracles.py, not in the library, the
# frequency-domain names that left it, and the class members that only
# tests read, as ``Class.member``.
TEST_ONLY = ("spectral_abscissa", "truncated_sigma", "verify_relaxed_gramians",
             "RelaxedGramianReport", "verify_energy_bounds", "EnergyBoundReport",
             "level_k_gramians", "apply_equivalence", "EquivalenceTransform",
             "transfer_eval", "frequency_response", "frequency_csv", "dual",
             "has_ties", "TIE_TOL", "switch_times", "BalancedRealization.has_ties",
             "SwitchingSignal.switch_times", "ReductionPlan.depth", "GramianSet.converged",
             "LssModel.num_outputs", "ModeSystem.num_outputs", "LssModel.initial_state")


def exported_names():
    return {
        name for name, value in vars(lssbal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_exported_name_resolves():
    for name in lssbal.__all__:
        assert getattr(lssbal, name) is not None, name


def test_all_lists_exactly_the_exported_names_sorted():
    assert lssbal.__all__ == sorted(exported_names())


def test_test_oracles_stay_out_of_the_library():
    submodules = [importlib.import_module(f"lssbal.{info.name}")
                  for info in pkgutil.iter_modules(lssbal.__path__)]
    assert {module.__name__ for module in submodules} >= {"lssbal.modelio", "lssbal.simulation"}
    classes = {name: getattr(lssbal, name) for name in lssbal.__all__
               if inspect.isclass(getattr(lssbal, name))}
    assert {name.partition(".")[0] for name in TEST_ONLY if "." in name} <= set(classes)
    for module in (lssbal, *submodules):
        for name in TEST_ONLY:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for owner, cls in classes.items():
        for name in dir(cls):
            assert f"{owner}.{name}" not in TEST_ONLY, f"{owner}.{name}"


# The options ledger: the parameter names of every exported function and
# of the public methods (and a custom __init__) of every exported class,
# and the fields of every exported dataclass.  A new or removed option
# shows up as an edit here.
PARAMETERS = {
    "ConvergenceError.__init__": ("self", "message", "diagnostics"),
    "DwellTimeCertificate.to_dict": ("self",),
    "InputSignal.zero": ("cls", "width"),
    "InputSignal.paper": ("cls", "width"),
    "InputSignal.expr": ("cls", "amp", "freq", "decay", "offset", "width"),
    "InputSignal.from_samples": ("cls", "times", "values"),
    "InputSignal.to_dict": ("self",),
    "LssModel.mode": ("self", "q"),
    "LssModel.coupling": ("self", "i", "j"),
    "ReductionPlan.from_orders": ("cls", "bal", "orders"),
    "ReductionPlan.from_threshold": ("cls", "bal", "threshold"),
    "StabilityCertificate.to_dict": ("self",),
    "balance": ("model", "gramians"),
    "balance_average": ("model", "gramians"),
    "certificates": ("model", "gramians"),
    "check_existence": ("model",),
    "compute_gramians": ("model",),
    "dwell_time": ("model", "gramians", "side"),
    "error_bound": ("bal", "plan"),
    "input_l2": ("u", "horizon", "dt"),
    "load_model": ("path",),
    "model_from_dict": ("doc",),
    "model_to_dict": ("model",),
    "output_l2_error": ("a", "b"),
    "random_dwell_signal": ("num_modes", "min_dwell", "horizon", "rng"),
    "random_stable_model": ("seed", "num_modes", "dims", "num_inputs", "num_outputs",
                            "coupling_norm", "stability_margin"),
    "save_model": ("model", "path"),
    "simulate": ("model", "signal", "u", "x0", "dt"),
    "solve_coupled": ("model", "kind", "max_iter"),
    "solve_lyapunov": ("A", "W"),
    "stability_certificate": ("model", "gramians"),
    "three_mode_model": (),
    "truncate": ("bal", "plan"),
    "validate_model": ("model",),
}

FIELDS = {
    "BalancedRealization": ("model", "transforms", "inverses", "sigma"),
    "CoupledSolution": ("kind", "matrices", "diagnostics"),
    "DwellTimeCertificate": ("side", "M", "gamma", "mu", "mode_rates", "pair_factors", "slack"),
    "GramianSet": ("reach", "obs", "reach_diagnostics", "obs_diagnostics"),
    "InputSignal": ("kind", "width", "amp", "freq", "decay", "offset", "sample_times",
                    "sample_values"),
    "LssModel": ("modes", "couplings", "x0"),
    "ModeSystem": ("A", "B", "C", "E"),
    "ReductionPlan": ("orders", "eta"),
    "SolveDiagnostics": ("increments", "residuals", "abscissas"),
    "StabilityCertificate": ("M", "mu", "K", "gamma", "quadratic_rate", "eps", "phi",
                             "mode_rates", "route", "slack"),
    "SwitchingSignal": ("events",),
    "Trajectory": ("times", "modes", "outputs", "inputs"),
    "ValidationReport": ("issues",),
}


def exported_signatures():
    out = {}
    for name in lssbal.__all__:
        obj = getattr(lssbal, name)
        if not inspect.isclass(obj):
            out[name] = inspect.signature(obj)
            continue
        for attr, member in vars(obj).items():
            if attr == "__init__" and dataclasses.is_dataclass(obj):
                continue  # FIELDS holds a dataclass's constructor
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                out[f"{name}.{attr}"] = inspect.signature(member)
    return out


def exported_parameters():
    return {name: tuple(sig.parameters) for name, sig in exported_signatures().items()}


def test_parameters_are_the_ledger():
    assert exported_parameters() == PARAMETERS


def test_dataclass_fields_are_the_ledger():
    got = {name: tuple(f.name for f in dataclasses.fields(getattr(lssbal, name)))
           for name in lssbal.__all__ if dataclasses.is_dataclass(getattr(lssbal, name))}
    assert got == FIELDS


def numeric_parameters():
    """Every int- or float-annotated parameter of the ledger, and every such
    InputSignal field, mapped to its annotation."""
    out = {f"{name}.{param.name}": param.annotation
           for name, sig in exported_signatures().items()
           for param in sig.parameters.values() if param.annotation in ("int", "float")}
    out.update({f"InputSignal.{f.name}": f.type for f in dataclasses.fields(lssbal.InputSignal)
                if f.type in ("int", "float")})
    return out


@functools.cache
def paper():
    model = lssbal.three_mode_model()
    return model, lssbal.balance(model, lssbal.compute_gramians(model))


SIGNAL = lssbal.SwitchingSignal(events=((1, 0.5), (2, 0.5)))

# The numeric-argument ledger: each numeric parameter, the name its
# refusal gives, and a call that passes a value to it alone.
NUMERIC = {
    "InputSignal.zero.width": ("width", lambda v: lssbal.InputSignal.zero(v)),
    "InputSignal.paper.width": ("width", lambda v: lssbal.InputSignal.paper(v)),
    "InputSignal.width": ("width", lambda v: lssbal.InputSignal(width=v)),
    "InputSignal.amp": ("amp", lambda v: lssbal.InputSignal(kind="expr", amp=v)),
    "InputSignal.freq": ("freq", lambda v: lssbal.InputSignal(kind="expr", freq=v)),
    "InputSignal.decay": ("decay", lambda v: lssbal.InputSignal(kind="expr", decay=v)),
    "InputSignal.offset": ("offset", lambda v: lssbal.InputSignal(kind="expr", offset=v)),
    "LssModel.mode.q": ("mode index", lambda v: paper()[0].mode(v)),
    "LssModel.coupling.i": ("mode i", lambda v: paper()[0].coupling(v, 2)),
    "LssModel.coupling.j": ("mode j", lambda v: paper()[0].coupling(1, v)),
    "ReductionPlan.from_threshold.threshold":
        ("threshold", lambda v: lssbal.ReductionPlan.from_threshold(paper()[1], v)),
    "input_l2.horizon": ("horizon", lambda v: lssbal.input_l2(None, v)),
    "input_l2.dt": ("dt", lambda v: lssbal.input_l2(None, 1.0, dt=v)),
    "random_dwell_signal.num_modes": ("num_modes",
                                      lambda v: lssbal.random_dwell_signal(v, 1.0, 5.0, 1)),
    "random_dwell_signal.min_dwell": ("min_dwell",
                                      lambda v: lssbal.random_dwell_signal(3, v, 5.0, 1)),
    "random_dwell_signal.horizon": ("horizon",
                                    lambda v: lssbal.random_dwell_signal(3, 1.0, v, 1)),
    "random_stable_model.num_modes": ("num_modes", lambda v: lssbal.random_stable_model(1, v)),
    "random_stable_model.num_inputs": ("num_inputs",
                                       lambda v: lssbal.random_stable_model(1, num_inputs=v)),
    "random_stable_model.num_outputs": ("num_outputs",
                                        lambda v: lssbal.random_stable_model(1, num_outputs=v)),
    "random_stable_model.coupling_norm":
        ("coupling_norm", lambda v: lssbal.random_stable_model(1, coupling_norm=v)),
    "random_stable_model.stability_margin":
        ("stability_margin", lambda v: lssbal.random_stable_model(1, stability_margin=v)),
    "simulate.dt": ("dt", lambda v: lssbal.simulate(paper()[0], SIGNAL, dt=v)),
    "solve_coupled.max_iter": ("max_iter",
                               lambda v: lssbal.solve_coupled(paper()[0], max_iter=v)),
}


def test_numeric_ledger_covers_every_numeric_parameter():
    assert set(numeric_parameters()) == set(NUMERIC)


@pytest.mark.parametrize("key", sorted(NUMERIC))
def test_numeric_arguments_are_refused_by_name(key):
    name, call = NUMERIC[key]
    odd = 2.5 if numeric_parameters()[key] == "int" else math.nan
    for value in (True, "1", None, odd):
        with pytest.raises(DimensionError, match=re.escape(name)):
            call(value)


# Every subcommand of the CLI and its options (a positional by its name).
COMMANDS = {
    "validate": ("--model",),
    "reduce": ("--model", "--orders", "--threshold", "--out", "--report"),
    "simulate": ("--model", "--reduced", "--signal", "--input", "--dt", "--csv", "--report"),
    "example": ("name", "--out"),
    "compare": ("--model", "--orders", "--seed", "--dt", "--horizon", "--mu", "--report"),
}


def test_cli_options_are_the_ledger():
    (commands,) = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    got = {name: tuple(opt for action in sub._actions if action.dest != "help"
                       for opt in (action.option_strings or [action.dest]))
           for name, sub in commands.choices.items()}
    assert got == COMMANDS


def test_library_reads_no_environment_variables():
    for path in pathlib.Path(lssbal.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name
