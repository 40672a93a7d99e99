"""The identity registry: one record per identity, drawers that feed their
checkers, and draws pinned against the RNG order."""

import hashlib
import math

import numpy as np
import pytest

from qortho import DomainError, ParamSet4, ReducedParams
from qortho.cli import _SPELLING, _parameters
from qortho.hyper import rogers_6w5_argument
from qortho.verify import (
    REGISTRY,
    WEIGHT_MARGIN,
    IdentityId,
    _require,
    _thm_1_2_moduli,
    _thm_1_3_moduli,
    _ultra_ortho_moduli,
    _weight_moduli,
    draw_params,
)

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


def test_every_checker_parameter_is_positional():
    # so that each one is a parameter of the identity, spelled as verify flags
    for record in REGISTRY.values():
        assert record.checker.__code__.co_kwonlyargcount == 0, record.id


@pytest.mark.parametrize("identity", list(IdentityId))
def test_drawer_output_is_accepted_by_its_checker(identity):
    record = REGISTRY[identity]
    draw = draw_params(identity, np.random.default_rng(0), 6)
    assert set(draw) <= set(_parameters(record.checker))
    report = record.checker(**draw)
    assert report.identity_id == identity.value
    assert report.tolerance == record.tolerance


SCALAR_PARAMS = [
    (identity, name)
    for identity, record in REGISTRY.items()
    for name in _parameters(record.checker)
    if _SPELLING.get(name, complex) in (complex, float)
]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("identity, name", SCALAR_PARAMS)
def test_non_finite_scalar_parameter_is_a_domain_error(identity, name, bad):
    draw = draw_params(identity, np.random.default_rng(0), 6)
    draw[name] = bad
    with pytest.raises(DomainError, match="finite"):
        REGISTRY[identity].checker(**draw)


@pytest.mark.parametrize("identity", list(IdentityId))
def test_first_draws_at_seed_zero_are_pinned(identity):
    keys, expected = PINNED_DRAWS[identity.value]
    rng = np.random.default_rng(0)
    draws = [draw_params(identity, rng, 6) for _ in range(3)]
    assert all(tuple(draw) == keys for draw in draws)
    assert [_flat_values(draw) for draw in draws] == expected


# SHA-256 of repr of the first 2000 draws at seeds 1 and 2 for every identity.
PINNED_DIGESTS = {
    "THM_1_1": ("63f46e6fcbb2ee5d1bb807139cd235da729978ab133165423740c2cc9f34073f",
                "16383aa81d9993a9abc06778ccdc44c38f8c8f3b3fb17bcf164a1ec563c398d6"),
    "THM_1_2": ("f1832c3948ccfce4b1fb395e176f502f3986d5ab03bcd24fdab6bdb3e40dca72",
                "b69fee3c96e5dad3799fb9720fb9e1bf5c96c08e8a6a29868b990cad6d32b67c"),
    "THM_1_3": ("d33f928bbbd851cf47812053c19f3aa54a4a5d2d110b03320ca2850d7f05ba48",
                "9b79f249b863efd4afee4be6ed02df0d26f862894e7b5733f79f564028e71113"),
    "PROP_2_1_2": ("1d353b076ee1172db962d8821e58e2eab08d494ac2bf2972ee372f845b96d1e8",
                   "9d1098c2434cfae4bbf5304f36c7907c5b407c16032e27dc2d9e272fd3e24bd9"),
    "PROP_2_1_3": ("b31f22c304fbb21189fc59c9939866248abfc3da83d2a9400d79fdc59e8f9f78",
                   "4173c3550663e960cdd7cb926dd6873b29d63f36d736799b23632661495cafa9"),
    "PROP_2_2": ("ab6fd2bde8c9396aa1a113a185875bae67c6a396c94093db17a4228420d2bcac",
                 "87a8bd4fad1fd725a4ebd171bbc8e375ac9f67a942397c8f5b45a96b8f35cdc9"),
    "PROP_2_4": ("6e92f09339e2bce7ed6e8f3561fb1f7dfb5bec4467cca4703f7f13ef4ef062b5",
                 "9d0c2fb4f9fd28907942caa62fb1261075b89f021ab0cc542d938525b2a90c8b"),
    "PROP_3_1": ("c097671129855f9f53eeb91340a8f418b7ce0b50bb9c67a7670bf49e84cf4b7e",
                 "eba53290d246af6e5c9638f6d4770432172a46b531230a6ee57e4a0eac71daf1"),
    "ROGERS_6W5": ("7d3e1cfe1d0c5f194bb7cbbd41f39ed08e623a553889729d9e4d6f98374939c6",
                   "41f1c12dedbafc121e67a0ac3b1b4f3620dec2e4de7e34f999cca74272d17701"),
    "QBINOMIAL": ("4414a9814c1a18fad897c2d44fe59a872488a35c0e527a87a6041ddc46291705",
                  "d9bd3b8aa14b394096b2cf4dfb999f1eca5423a7ec86e494e7a3bce4acd2bb01"),
    "ULTRA_ORTHO": ("217c73e525cf4d90184fcc897743f2241679dcb9dee1fbaa8a07a1714174065c",
                    "9a073b51d4d529a95cc5eccd98f8d81d94e95bd65ddfb088b8be037863494677"),
}


@pytest.mark.parametrize("identity", list(IdentityId))
def test_first_2000_draws_at_seeds_one_and_two_are_pinned(identity):
    for seed, expected in zip((1, 2), PINNED_DIGESTS[identity.value]):
        rng = np.random.default_rng(seed)
        draws = [draw_params(identity, rng, 6) for _ in range(2000)]
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == expected, seed


_WEIGHT_BOUND = 1.0 - WEIGHT_MARGIN

# Each identity with modulus hypotheses: (moduli, the bound its drawer admits
# them at) pairs for one draw.
DOMAINS = {
    IdentityId.THM_1_1: lambda d: [(_weight_moduli(d["p"]), _WEIGHT_BOUND)],
    IdentityId.THM_1_2: lambda d: [
        (_thm_1_2_moduli(d["p"], d["s"], d["t"], d["q"]), 0.7),
        (_weight_moduli(d["p"]), _WEIGHT_BOUND),
    ],
    IdentityId.THM_1_3: lambda d: [
        (_thm_1_3_moduli(d["r"].a, d["gamma"], d["delta"]), _WEIGHT_BOUND),
    ],
    IdentityId.ULTRA_ORTHO: lambda d: [(_ultra_ortho_moduli(d["beta"]), _WEIGHT_BOUND)],
    # z is drawn from the box, and the closed form's domain check must pass on it
    IdentityId.ROGERS_6W5: lambda d: [
        ({"|z|": abs(rogers_6w5_argument(d["a"], d["b"], d["c"], d["d"], d["q"]))},
         REGISTRY[IdentityId.ROGERS_6W5].box["z"][1]),
    ],
}


@pytest.mark.parametrize("identity", list(DOMAINS))
def test_every_draw_lies_in_its_checkers_domain_within_the_drawers_bound(identity):
    for seed in (1, 2):
        for cap in (6, 30):
            rng = np.random.default_rng(seed)
            for _ in range(2000):
                draw = draw_params(identity, rng, cap)
                for moduli, bound in DOMAINS[identity](draw):
                    assert max(moduli.values()) <= bound, (seed, cap, draw, moduli)
                    _require(moduli)
