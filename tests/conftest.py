import tracemalloc

import numpy as np
import pytest

from conslab import Lattice, make_builtin
from conslab.systems import BUILTIN_CATALOGUE


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def burgers():
    return make_builtin("burgers")


@pytest.fixture(scope="session")
def elasto():
    return make_builtin("elastodynamics-1d")


@pytest.fixture
def tiny_lattice():
    return Lattice(k=1, n_time=16, n_space=16, extent_time=1.0,
                   extent_space=1.0)


# the catalogue's interior sampling boxes (default law parameters)
STATE_BOXES = {name: entry.box for name, entry in BUILTIN_CATALOGUE.items()}


def random_states(name, rng, count):
    lower, upper = STATE_BOXES[name]
    return rng.uniform(lower, upper, size=(count, len(lower)))


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
