import pytest

from semple2 import build_gluing_matrix, compute_up_to


@pytest.fixture(scope="session")
def matrix2():
    return build_gluing_matrix(2)


@pytest.fixture(scope="session")
def table8():
    return compute_up_to(8)
