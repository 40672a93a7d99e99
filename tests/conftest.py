import numpy as np
import pytest

from qortho import ParamSet4, verify


@pytest.fixture
def box_params():
    """The well-conditioned real parameter set used by most spot checks."""
    return ParamSet4(0.2, 0.1, 0.8, 0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def set_tolerance(monkeypatch):
    """``set_tolerance(identity, tolerance)`` swaps in, for one test, the
    identity's :data:`~qortho.verify.REGISTRY` record with another tolerance."""
    def swap(identity, tolerance):
        record = verify.REGISTRY[verify.IdentityId(identity)]
        monkeypatch.setitem(verify.REGISTRY, record.id,
                            verify.Identity(record.id, tolerance, record.box, record.draw))
    return swap
