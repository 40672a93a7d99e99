import numpy as np
import pytest

from qortho import ParamSet4


@pytest.fixture
def box_params():
    """The well-conditioned real parameter set used by most spot checks."""
    return ParamSet4(0.2, 0.1, 0.8, 0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
