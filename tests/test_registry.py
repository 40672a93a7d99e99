"""The identity registry: one record per identity, drawers that feed their
checkers, and draws pinned against the RNG order."""

import math

import numpy as np
import pytest

from qortho import DomainError, ParamSet4, ReducedParams, SweepSpec
from qortho.cli import _SPELLING, _spelled
from qortho.verify import REGISTRY, IdentityId, draw_params

# The first three draws at seed 0 for every identity: the keyword names, then
# each draw's values in that order, with a ParamSet4 spread into alpha, beta,
# gamma, delta and a ReducedParams into a, b.
PINNED_DRAWS = {
    "THM_1_1": (("p", "q", "m", "n"), [
        (0.045486850520079884, 0.2690253931637415, 0.7697867137638703, 0.5409735239361947,
         0.4821770123928726, 4, 6),
        (0.6937924091741181, 0.5204760867246865, 1.2294965609839985, 1.043624991465423,
         0.46398146546030794, 4, 0),
        (0.2941898530571707, 0.0524417622899936, 1.0414612202490918, 0.7997118905373848,
         0.6144425659525415, 0, 0),
    ]),
    "THM_1_2": (("p", "s", "t", "q"), [
        (0.045486850520079884, 0.2690253931637415, 0.7697867137638703, 0.5409735239361947,
         0.8379412143021573, 0.5874101626441273, 0.4821770123928726),
        (0.5204760867246865, 0.07391509153158313, 1.043624991465423, 1.4350724237877683,
         0.4251804188667243, 0.06352216858981603, 0.537697936590399),
        (0.23499550526991833, 0.2928674586945039, 0.675655620602559, 1.3631789223498867,
         0.24669758594478078, 0.0644386377910085, 0.5377932678579664),
    ]),
    "THM_1_3": (("r", "gamma", "delta", "q", "m", "n"), [
        (0.23489335688193516, 0.12048676196809735, 0.5165276355285291, 1.3132702392002724,
         0.4821770123928726, 6, 4),
        (0.46474828049199923, 0.37181249573271147, 1.4350724237877683, 1.3158535541215322,
         0.46398146546030794, 4, 0),
        (0.11679278765273218, 0.464827723214972, 0.675655620602559, 1.3631789223498867,
         0.6144425659525415, 0, 3),
    ]),
    "PROP_2_1_2": (("p", "q", "n", "theta"), [
        (0.045486850520079884, 0.2690253931637415, 0.7697867137638703, 0.5409735239361947,
         0.4821770123928726, 4, 3.811604993109835),
        (0.5204760867246865, 0.07391509153158313, 1.043624991465423, 1.4350724237877683,
         0.537697936590399, 6, 5.3872299529679575),
        (0.0524417622899936, 0.10920538612898052, 0.7997118905373848, 0.9226872211976584,
         0.12015134518327862, 0, 4.066411630084061),
    ]),
    "PROP_2_1_3": (("p", "q"), [
        (0.045486850520079884, 0.2690253931637415, 0.7697867137638703, 0.5409735239361947,
         0.4821770123928726),
        (0.38620896407457955, 0.6937924091741181, 1.1066357757671799, 1.2294965609839985,
         0.647653346366633),
        (0.23499550526991833, 0.2928674586945039, 0.675655620602559, 1.3631789223498867,
         0.5895121324729192),
    ]),
    "PROP_2_2": (("p", "q", "k"), [
        (0.035921800070239256, 0.25679974673354156, 0.6079146855055482, 0.5163894095744779,
         0.4821770123928726, 2),
        (0.446803913594629, 0.35780627111992735, 0.7917986243935994, 0.7174499965861691,
         0.46398146546030794, 3),
        (0.38043746734496414, 0.07527489608799959, 0.8429617106350278, 0.5134342301221857,
         0.10164310010208887, 0),
    ]),
    "PROP_2_4": (("p", "q", "n", "x", "y"), [
        (0.0395658179654461, 0.21991647965575523, 0.6888506996347092, 0.5286814667553362,
         0.4821770123928726, 6, 1.0389289040944054, 0.824645043037026),
        (0.059150316608222946, 0.4668184794339421, 1.1545506966514378, 1.0710974878850723,
         0.4261749948792537, 5, 0.42350990271382505, 0.9107588125009609),
        (0.3525616122690131, 0.21496132267411827, 0.9798793891364863, 0.9553214933874714,
         0.20539337236153543, 5, 0.4945675535156879, 0.9050418381358573),
    ]),
    "PROP_3_1": (("r", "gamma", "delta", "q", "m"), [
        (0.23489335688193516, 0.12048676196809735, 0.5165276355285291, 1.3132702392002724,
         0.4821770123928726, 4),
        (0.46474828049199923, 0.37181249573271147, 1.4350724237877683, 1.3158535541215322,
         0.46398146546030794, 6),
        (0.5287021382937847, 0.11679278765273218, 1.229655446429944, 0.675655620602559,
         0.10164310010208887, 0),
    ]),
    "ROGERS_6W5": (("a", "b", "c", "d", "q"), [
        (0.04457942083922105, 0.43489335688193514, 0.32048676196809733, 0.30826381776426454,
         0.5184808436607271),
        (0.2134888933585946, 0.6033178878835899, 0.6647482804919992, 0.5718124957327114,
         0.6563777886388609),
        (0.055822437501570385, 0.30136925008507404, 0.7287021382937846, 0.31679278765273217,
         0.607926777060766),
    ]),
    "QBINOMIAL": (("a", "z", "q"), [
        (-0.41438391522503343, -0.6426370664893274, 0.545873181125018),
        (0.5638864305604904, 0.5778578081888104, 0.11156934486997037),
        (0.41309380977119703, 0.06107498805159206, 0.524645043037026),
    ]),
    "ULTRA_ORTHO": (("beta", "q", "m", "n"), [
        (0.22536136394651568, 0.4821770123928726, 2, 0),
        (0.5786256554801771, 0.10991658131711746, 4, 6),
        (0.5241727646395989, 0.46398146546030794, 4, 3),
    ]),
}


def _flat_values(draw):
    out = []
    for value in draw.values():
        if isinstance(value, ParamSet4):
            out += [value.alpha, value.beta, value.gamma, value.delta]
        elif isinstance(value, ReducedParams):
            out += [value.a, value.b]
        else:
            out.append(value)
    return tuple(out)


def test_every_identity_has_exactly_one_record():
    assert list(REGISTRY) == list(IdentityId)
    for identity, record in REGISTRY.items():
        assert record.id is identity


@pytest.mark.parametrize("identity", list(IdentityId))
def test_drawer_output_is_accepted_by_its_checker(identity):
    record = REGISTRY[identity]
    draw = draw_params(identity, np.random.default_rng(0), SweepSpec(seed=0, draws=1))
    assert set(draw) <= set(_spelled(record.checker))
    report = record.checker(**draw)
    assert report.identity_id == identity.value
    assert report.tolerance == record.tolerance


SCALAR_PARAMS = [
    (identity, name)
    for identity, record in REGISTRY.items()
    for name in _spelled(record.checker)
    if _SPELLING.get(name, complex) in (complex, float)
]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("identity, name", SCALAR_PARAMS)
def test_non_finite_scalar_parameter_is_a_domain_error(identity, name, bad):
    draw = draw_params(identity, np.random.default_rng(0), SweepSpec(seed=0, draws=1))
    draw[name] = bad
    with pytest.raises(DomainError, match="finite"):
        REGISTRY[identity].checker(**draw)


@pytest.mark.parametrize("identity", list(IdentityId))
def test_first_draws_at_seed_zero_are_pinned(identity):
    keys, expected = PINNED_DRAWS[identity.value]
    rng = np.random.default_rng(0)
    spec = SweepSpec(seed=0, draws=3)
    draws = [draw_params(identity, rng, spec) for _ in range(3)]
    assert all(tuple(draw) == keys for draw in draws)
    assert [_flat_values(draw) for draw in draws] == expected
