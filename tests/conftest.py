import numpy as np
import pytest

from h32fem.assembly import grams_of
from h32fem.experiments import get_mesh
from h32fem.lifting import lift_of


@pytest.fixture(scope="session")
def square4():
    return get_mesh("square", 4, 1)


@pytest.fixture(scope="session")
def square4_grams(square4):
    return grams_of(square4)


@pytest.fixture(scope="session")
def disk4k1():
    return get_mesh("disk", 4, 1)


@pytest.fixture(scope="session")
def disk4k2():
    return get_mesh("disk", 4, 2)


@pytest.fixture(scope="session")
def disk4k2_lift(disk4k2):
    return lift_of(disk4k2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250809)
