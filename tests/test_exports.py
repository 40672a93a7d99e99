"""The package's public names: each listed once, each defined."""

import pytest

import qortho
from qortho import ParamSet4, kernels, qcore, qfun, quad, verify


def test_all_has_no_duplicates():
    assert len(qortho.__all__) == len(set(qortho.__all__))


def test_every_entry_resolves():
    missing = [name for name in qortho.__all__ if not hasattr(qortho, name)]
    assert missing == []


def test_star_import_binds_every_entry():
    namespace: dict = {}
    exec("from qortho import *", namespace)
    assert set(qortho.__all__) <= namespace.keys()


def test_dir_lists_every_entry():
    assert set(qortho.__all__) <= set(dir(qortho))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(qortho, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(verify, "no_such_name")


def test_a_sweep_takes_its_numbers_not_a_spec_record():
    with pytest.raises(AttributeError, match="SweepSpec"):
        qortho.SweepSpec
    assert not hasattr(verify, "SweepSpec")


def test_a_lazy_name_is_bound_in_the_package_once_resolved():
    assert qortho.h_norm is qfun.h_norm
    assert vars(qortho)["h_norm"] is qfun.h_norm
    assert qortho.periodic_integral is quad.periodic_integral


@pytest.mark.parametrize("name", ["ParamSet4", "ReducedParams"])
def test_moved_parameter_types_keep_their_qfun_path(name):
    assert getattr(qfun, name) is getattr(qcore, name) is getattr(qortho, name)


@pytest.mark.parametrize("name", ["expansion_weights", "big_c_coeffs", "connection_coeffs"])
def test_moved_coefficient_builders_keep_their_qfun_path(name):
    assert getattr(qfun, name) is getattr(qcore, name)
    assert name not in qortho.__all__ or getattr(qortho, name) is getattr(qcore, name)


def test_a_check_calls_the_functions_of_the_modules_that_define_them(monkeypatch):
    # a function patched where it is defined is the one a check calls
    called = []
    for module, name in ((qfun, "diag_rhs_thm11"), (kernels, "poch_product_many"),
                         (quad, "periodic_integral")):
        def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    assert verify.check_thm_1_1(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 1, 1).passed
    assert set(called) == {"diag_rhs_thm11", "poch_product_many", "periodic_integral"}
