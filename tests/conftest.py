"""Session-scoped corpora shared across test modules."""

import pytest
from hypothesis import settings

from regmatch.graphs import generate_connected_regular

# the property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def _corpus(d, sizes):
    return {n: generate_connected_regular(n, d) for n in sizes}


@pytest.fixture(scope="session")
def cubic_by_n():
    return _corpus(3, (4, 6, 8, 10))


@pytest.fixture(scope="session")
def cubic12(cubic_by_n):
    out = dict(cubic_by_n)
    out[12] = generate_connected_regular(12, 3)
    return out


@pytest.fixture(scope="session")
def quartic_by_n():
    return _corpus(4, (5, 6, 7, 8, 9))


@pytest.fixture(scope="session")
def quartic10(quartic_by_n):
    out = dict(quartic_by_n)
    out[10] = generate_connected_regular(10, 4)
    return out


@pytest.fixture(scope="session")
def fivereg_by_n():
    return _corpus(5, (6, 8))
