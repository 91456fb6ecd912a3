import pytest

from semple2.potentials import build_gluing_matrix
from semple2.recursion import compute_up_to


@pytest.fixture(scope="session")
def matrix2():
    return build_gluing_matrix(2)


@pytest.fixture(scope="session")
def table8():
    return compute_up_to(8)
