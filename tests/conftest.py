import numpy as np
import pytest
import scipy.sparse as sp

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


@pytest.fixture(scope="session")
def trace_selector():
    """The sparse selector R of a mesh's boundary rows, R u = trace(u).coeffs:
    the reference the Robin matrix A_bulk + R^T M_surf R is checked against."""

    def selector(mesh):
        nb = len(mesh.boundary_node_ids)
        return sp.csr_matrix(
            (np.ones(nb), (np.arange(nb), mesh.boundary_node_ids)), shape=(nb, mesh.n_nodes)
        )

    return selector


@pytest.fixture()
def rng():
    return np.random.default_rng(20250809)
