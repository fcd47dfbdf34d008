import types

import lssbal
from lssbal import analysis, balancing, gramians, model

# Test oracles that live in tests/oracles.py, not in the library.
TEST_ONLY = ("spectral_abscissa", "truncated_sigma", "verify_relaxed_gramians",
             "RelaxedGramianReport", "verify_energy_bounds", "EnergyBoundReport",
             "level_k_gramians", "apply_equivalence", "EquivalenceTransform")


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
    for module in (lssbal, analysis, balancing, gramians, model):
        for name in TEST_ONLY:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
