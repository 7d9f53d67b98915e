import os

import hypothesis
import numpy as np
import pytest

from singlering import measure

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.register_profile("thorough", max_examples=200, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running Monte Carlo test")


@pytest.fixture(scope="session")
def bernoulli():
    return measure.DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


@pytest.fixture(scope="session")
def two_point():
    return measure.DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))


@pytest.fixture(scope="session")
def two_point_sym(two_point):
    return measure.symmetrize(two_point)


@pytest.fixture(scope="session")
def quarter_circle_2000():
    return measure.reference_measure("quarter_circle", n_atoms=2000)


@pytest.fixture(scope="session")
def threads():
    return min(4, os.cpu_count() or 1)
