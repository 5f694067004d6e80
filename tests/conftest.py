import hypothesis
import pytest

from hvi import models

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def sin_toy():
    return models.make_sin_toy()


@pytest.fixture(scope="session")
def scaled_two():
    return models.make_scaled_factor(2.0)


@pytest.fixture(scope="session")
def conjugate():
    return models.make_conjugate_gaussian(1.0, 0.0)


@pytest.fixture(scope="session")
def ring():
    return models.make_ring()


@pytest.fixture(scope="session")
def sin_log_marginal(sin_toy):
    return models.quadrature_log_marginal(sin_toy)
