import pytest

from semple2 import recursion
from semple2.potentials import build_gluing_matrix
from semple2.recursion import compute_up_to


@pytest.fixture(scope="session")
def matrix2():
    return build_gluing_matrix(2)


@pytest.fixture(scope="session")
def table8():
    return compute_up_to(8)


@pytest.fixture
def point_draws(monkeypatch):
    """The number of point counts drawn from `_point_counts`, in a list of one."""
    draws = [0]
    point_counts = recursion._point_counts

    def counted():
        for n in point_counts():
            draws[0] += 1
            yield n

    monkeypatch.setattr(recursion, "_point_counts", counted)
    return draws
