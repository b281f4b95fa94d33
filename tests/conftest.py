import numpy as np
import pytest

from curvecross.config import RunConfig
from curvecross.model import Grid
from curvecross.resolvent import resolvent_rows


@pytest.fixture(scope="session")
def config():
    return RunConfig().validate()


@pytest.fixture(scope="session")
def model(config):
    return config.to_model()


@pytest.fixture(scope="session")
def grid(config):
    return config.to_grid()


@pytest.fixture(scope="session")
def fine_grid():
    return Grid(-1.5, 1.5, 32768)


@pytest.fixture(scope="session")
def ev_allowed_fine(model, fine_grid):
    """Allowed-curve resolvent rows at a mid-band energy on the fine grid."""
    z = model.resolvent_argument(11200.0)
    return resolvent_rows(model.allowed, z, fine_grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250808)
