"""The checker contract: every checker returns a :class:`VerificationReport`
or raises :class:`DomainError`, whatever its input, inside its hypotheses or
not.  Numeric trouble is a report flag, never an exception.

Each identity's parameters are drawn by name from its checker's signature,
as ``qortho verify`` spells them: complex parameters of modulus up to 1.5,
real or turned by a random phase, and |q| up to 0.97, real or complex.  A
parameter with a default is left out of some draws."""

import cmath
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import DomainError, ParamSet4, ReducedParams, VerificationReport
from qortho.cli import _spelled
from qortho.verify import REGISTRY, IdentityId


def values(lo: float, hi: float):
    """Complex numbers with modulus in [lo, hi]: real of either sign, or at
    a random phase."""
    real = st.builds(operator.mul, st.floats(lo, hi), st.sampled_from((1.0, -1.0)))
    rotated = st.builds(cmath.rect, st.floats(lo, hi), st.floats(-math.pi, math.pi))
    return st.one_of(real, rotated)


def paramset(ra, rb, gamma, delta):
    return ParamSet4(ra * gamma, rb * delta, gamma, delta)


DEGREES = st.integers(0, 10)
# parameter name -> strategy; any other name is one complex parameter
BY_NAME = {
    "p": st.builds(paramset, values(0.0, 1.0), values(0.0, 1.0), values(0.05, 1.5),
                   values(0.05, 1.5)),
    "r": st.builds(ReducedParams, values(0.0, 0.99), values(0.0, 0.99)),
    "q": values(0.0, 0.97),
    "theta": st.floats(0.0, 2.0 * math.pi),
    "m": DEGREES, "n": DEGREES, "k": DEGREES,
}
COMPLEX = values(0.0, 1.5)


@pytest.mark.parametrize("identity", list(IdentityId))
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_a_checker_returns_a_report_or_raises_domain_error(identity, data):
    checker = REGISTRY[identity].checker
    args = {}
    try:
        for name, has_default in _spelled(checker).items():
            strategy = BY_NAME.get(name, COMPLEX)
            if has_default:
                strategy = st.none() | strategy
            value = data.draw(strategy, label=name)
            if value is not None:
                args[name] = value
        report = checker(**args)
    except DomainError:  # from the checker, or from building its ParamSet4
        return
    assert isinstance(report, VerificationReport)
    assert report.identity_id == identity.value
