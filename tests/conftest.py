import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
