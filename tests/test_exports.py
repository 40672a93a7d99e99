"""The package's public names: each listed once, each defined."""

import qortho


def test_all_has_no_duplicates():
    assert len(qortho.__all__) == len(set(qortho.__all__))


def test_every_entry_resolves():
    missing = [name for name in qortho.__all__ if not hasattr(qortho, name)]
    assert missing == []


def test_star_import_binds_every_entry():
    namespace: dict = {}
    exec("from qortho import *", namespace)
    assert set(qortho.__all__) <= namespace.keys()
