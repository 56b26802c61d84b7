import tracemalloc

import numpy as np
import pytest

from conslab import Lattice, make_builtin


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


# interior sampling boxes for the built-in domains (default law parameters)
STATE_BOXES = {
    "burgers": ([-2.0], [2.0]),
    "euler-compressible-1d": ([0.3, -2.0], [2.0, 2.0]),
    "euler-compressible-m-form-1d": ([0.3, -2.0], [2.0, 2.0]),
    "elastodynamics-1d": ([0.3, -2.0], [2.0, 2.0]),
    "euler-incompressible-2d": ([-2.0] * 3, [2.0] * 3),
    "mhd-incompressible-1d": ([-2.0] * 6, [2.0] * 6),
}


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
