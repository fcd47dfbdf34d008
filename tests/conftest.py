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
