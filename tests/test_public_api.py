import importlib
import pkgutil
import types

import lssbal

# Test oracles that live in tests/oracles.py, not in the library, and the
# frequency-domain names that left it.
TEST_ONLY = ("spectral_abscissa", "truncated_sigma", "verify_relaxed_gramians",
             "RelaxedGramianReport", "verify_energy_bounds", "EnergyBoundReport",
             "level_k_gramians", "apply_equivalence", "EquivalenceTransform",
             "transfer_eval", "frequency_response", "frequency_csv")


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
    for module in (lssbal, *submodules):
        for name in TEST_ONLY:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
