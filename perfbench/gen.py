"""Seeded inputs for the benchmark workloads.

Each workload is a fixed cycle of operation kinds ("slots"); operation i of a
stream draws its parameters for slot ``i % len(slots)``.  Cycling the slots in
a fixed order keeps the identity mix of every run the same, whatever the seed.

The parameter boxes copy the default sweep boxes of qortho (the README and
``qortho.verify.DEFAULT_BOXES``) as they stood when this benchmark was
written.  They are kept here, together with the rejection rules that keep each
draw inside its identity's hypotheses, so that a rewrite of the program's own
samplers cannot change the inputs the benchmark runs.  The generator uses the
standard library's ``random.Random``, whose stream is fixed across Python and
numpy versions; ``inputs_digest`` fingerprints the inputs so that runs on two
commits can be shown to use identical ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Iterator

WEIGHT_MARGIN = 0.08
DEGREE_MAX = 6
MAX_REJECTS = 500

Q = (0.1, 0.7)
RATIO = (0.05, 0.6)
SCALE = (0.5, 1.5)
AB = (0.1, 0.6)


def _u(rng: random.Random, box: tuple[float, float]) -> float:
    return rng.uniform(*box)


def _degree(rng: random.Random) -> int:
    return rng.randint(0, DEGREE_MAX)


def chain_margin(wmod: float, qmod: float) -> float:
    """min_k |w q^k - 1| over k >= 0 for nonnegative moduli w, q."""
    margin = 1.0
    while wmod > 1e-3:
        margin = min(margin, abs(wmod - 1.0))
        wmod *= qmod
    return margin


def _paramset(rng, q) -> dict:
    """alpha = ra gamma, beta = rb delta with both weight-denominator moduli
    |alpha/delta|, |beta/gamma| at most 1 - WEIGHT_MARGIN."""
    for _ in range(MAX_REJECTS):
        gamma, delta = _u(rng, SCALE), _u(rng, SCALE)
        alpha, beta = _u(rng, RATIO) * gamma, _u(rng, RATIO) * delta
        if max(abs(alpha / delta), abs(beta / gamma)) <= 1.0 - WEIGHT_MARGIN:
            return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta, "q": q}
    raise RuntimeError("could not draw a well-conditioned parameter set")


def _thm_1_1(rng):
    return _paramset(rng, _u(rng, Q)) | {"m": _degree(rng), "n": _degree(rng)}


def _thm_1_2(rng):
    q = _u(rng, Q)
    for _ in range(MAX_REJECTS):
        p = _paramset(rng, q)
        biggest = max(p["gamma"], p["delta"])
        s = _u(rng, (0.1, 1.0)) * 0.7 / biggest
        t = _u(rng, (0.1, 1.0)) * 0.7 / biggest
        moduli = (q, p["alpha"] / p["gamma"], p["beta"] / p["delta"],
                  p["gamma"] * s, p["gamma"] * t, p["delta"] * s, p["delta"] * t)
        if max(moduli) <= 0.7:
            return p | {"s": s, "t": t}
    raise RuntimeError("could not draw an admissible seven-parameter set")


def _reduced(rng, q, a_box=AB) -> dict:
    return {"a": _u(rng, a_box), "b": _u(rng, AB), "gamma": _u(rng, SCALE),
            "delta": _u(rng, SCALE), "q": q}


def _thm_1_3(rng):
    q = _u(rng, Q)
    for _ in range(MAX_REJECTS):
        r = _reduced(rng, q)
        a, gamma, delta = r["a"], r["gamma"], r["delta"]
        # |a gamma/delta| and |a delta/gamma| are also the weight moduli of
        # the a-family, so one test covers both hypotheses.
        if max(a * gamma / delta, a * delta / gamma) >= 1.0 - WEIGHT_MARGIN:
            continue
        m, n = _degree(rng), _degree(rng)
        if (m - n) % 2 == 0 and m < n:
            m, n = n, m
        return r | {"m": m, "n": n}
    raise RuntimeError("could not draw an admissible reduced parameter set")


def _ultra_ortho(rng):
    return {"beta": _u(rng, (0.05, 0.7)), "q": _u(rng, Q),
            "m": _degree(rng), "n": _degree(rng)}


def _rogers_6w5(rng):
    q = _u(rng, (0.2, 0.7))
    for _ in range(MAX_REJECTS):
        b, c, d = (_u(rng, (0.3, 0.8)) for _ in range(3))
        z = _u(rng, (0.05, 0.65))
        a = z * b * c * d / q
        if a >= 0.9:
            continue
        if min(chain_margin(w, q) for w in (a * q / b, a * q / c, a * q / d, z)) < WEIGHT_MARGIN:
            continue
        return {"a": a, "b": b, "c": c, "d": d, "q": q}
    raise RuntimeError("could not draw an admissible six-parameter set")


def _prop_3_1(rng):
    return _reduced(rng, _u(rng, Q), a_box=(max(AB[0], 0.05), AB[1])) | {"m": _degree(rng)}


# Left out: PROP_2_4, QBINOMIAL, PROP_2_1_2 and PROP_2_1_3.  At this commit
# qortho fails its own tolerance on some of their default-box draws, plain
# misses with no flag, so a run that met one could not be correct:
#   PROP_2_4    (1e-10) about 1 in 10^4 draws, rel 1.5e-10 at n = 0, q near 0.7
#   PROP_2_1_3  (0.05)  about 1 in 5 * 10^4, rel 0.051 at gamma near delta,
#                       q near 0.7
#   QBINOMIAL   (1e-11) about 1 in 10^5, rel 1.4e-11 at a near -0.9,
#                       z near -0.7, q near 0.8
#   PROP_2_1_2  (1e-12) about 1 in 10^6, rel 1.16e-12
# The identities kept had at least 4.4 digits of headroom over every draw of
# a scan of their boxes (3e4 draws of each circle identity, 4.7e5 of
# ROGERS_6W5 and of PROP_3_1).
#
# PROP_2_2 (the diagonal majorant) passes, but has no workload: every draw
# does the same fixed work, so the median latency of a run only says which of
# a shared host's speed states held for most of it, and it flipped between
# about 48 and 75 ms from seed to seed.
#
# workload -> slots; a slot is (identity, drawer)
WORKLOADS = {
    "circle_quadrature": (("THM_1_1", _thm_1_1), ("THM_1_2", _thm_1_2),
                          ("THM_1_3", _thm_1_3), ("ULTRA_ORTHO", _ultra_ortho)),
    # cheap identities, so that process start and import dominate.  They are
    # also the only callers of the hyper layer; an in-process loop of them,
    # run on a shared 2-vCPU host, spread wider across seeds than the bounds
    # in BENCHMARK.json, so they have no workload of their own.
    "cli_cold": (("ROGERS_6W5", _rogers_6w5), ("PROP_3_1", _prop_3_1)),
}


def stream(workload: str, seed: int, chunk) -> Iterator[dict]:
    """The endless input stream ``chunk`` of a workload for ``seed``; a run
    gives each of its worker processes its own chunk, so no input repeats.
    Each operation is {"identity": tag, "args": {name: number}}; parameters
    are real, as in the sweep boxes."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{chunk}")
    for i in itertools.count():
        tag, draw = slots[i % len(slots)]
        yield {"identity": tag, "args": draw(rng)}


def generate(workload: str, seed: int, chunk, count: int) -> list[dict]:
    """The first ``count`` operations of a stream."""
    return list(itertools.islice(stream(workload, seed, chunk), count))


def inputs_digest(ops: list) -> str:
    """SHA-256 of the canonical JSON of a list of operations (floats print
    exactly)."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
