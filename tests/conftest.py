import os

# One BLAS thread, the benchmark's setting: at these matrix sizes more
# threads only contend.  Set before numpy loads, which reads it once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import lssbal

# Every property test is reproducible: fixed example order, no example
# database, no per-example deadline.  Tests set only max_examples.
settings.register_profile("lssbal", deadline=None, derandomize=True, database=None)
settings.load_profile("lssbal")


@pytest.fixture(scope="session")
def paper_model():
    return lssbal.three_mode_model()


@pytest.fixture(scope="session")
def paper_gramians(paper_model):
    return lssbal.compute_gramians(paper_model)


@pytest.fixture(scope="session")
def paper_balanced(paper_model, paper_gramians):
    return lssbal.balance(paper_model, paper_gramians)


# A model and its Gramian set remember what the library derived from them
# (their validation, each measured Gramian side), so the session fixtures
# above carry memos.  Tests that count calls or patch internals use these
# fresh objects instead.
@pytest.fixture()
def fresh_paper_model():
    return lssbal.three_mode_model()


@pytest.fixture()
def fresh_paper_gramians(fresh_paper_model):
    return lssbal.compute_gramians(fresh_paper_model)
