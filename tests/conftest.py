import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240901))
