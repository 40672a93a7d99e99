import numpy as np
import pytest

from qortho import ParamSet4, kernels, verify


@pytest.fixture
def box_params():
    """The well-conditioned real parameter set used by most spot checks."""
    return ParamSet4(0.2, 0.1, 0.8, 0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def swap_identity(monkeypatch):
    """``swap_identity(identity, **fields)`` swaps in, for one test, the
    identity's :data:`~qortho.verify.REGISTRY` record with the given fields
    (``tolerance``, ``box``, ...) replaced."""
    def swap(identity, **fields):
        record = verify.REGISTRY[verify.IdentityId(identity)]
        values = dict(zip(record._fields, record._values())) | fields
        monkeypatch.setitem(verify.REGISTRY, record.id, verify.Identity(**values))
    return swap


@pytest.fixture
def cleared_tables(monkeypatch):
    """No angle table held (:func:`~qortho.kernels.angle_table`) for one
    test; the warm tables come back after it."""
    monkeypatch.setattr(kernels, "_tables", {})
    monkeypatch.setattr(kernels, "_held", 0)
