"""How the benchmark calls qortho: one checker call, or one CLI process.

The program receives only concrete parameters, through the public
``check_*`` functions or as ``qortho verify`` flags.  An operation fails if an
exception escapes the checker, a flag is set or ``passed`` is false; a CLI
operation also fails on a nonzero exit code or a JSON record that differs from
the in-process report for the same inputs.
"""

from __future__ import annotations

import json
import math

# A report whose residual is exactly zero has unbounded headroom; cap it.
HEADROOM_CAP_DIGITS = 16.0

_PARAMSET = ("alpha", "beta", "gamma", "delta")
_INT_FLAGS = ("m", "n")


def run_checker(op: dict):
    """The operation's report, from the public ``check_*`` function."""
    import qortho

    kwargs = dict(op["args"])
    if "alpha" in kwargs:
        kwargs["p"] = qortho.ParamSet4(*(kwargs.pop(name) for name in _PARAMSET))
    elif op["identity"] in ("THM_1_3", "PROP_3_1"):
        kwargs["r"] = qortho.ReducedParams(kwargs.pop("a"), kwargs.pop("b"))
    return getattr(qortho, f"check_{op['identity'].lower()}")(**kwargs)


def cli_argv(op: dict) -> list[str]:
    """``qortho verify`` arguments for an operation; floats print exactly."""
    argv = ["verify", "--identity", op["identity"]]
    for name, value in op["args"].items():
        if name in _INT_FLAGS:
            argv += [f"--{name}", str(value)]
        elif name in ("q", "theta"):
            argv += [f"--{name}", repr(value)]
        else:
            argv += [f"--{name}-re", repr(value)]
    return argv


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def report_record(report) -> dict:
    """A report as the CLI prints it: a JSON round trip of ``to_record``."""
    return json.loads(json.dumps(_json_safe(report.to_record())))


def record_ok(rec: dict) -> bool:
    return bool(rec["passed"]) and not rec["flags"]


def headroom_digits(rec: dict) -> float | None:
    """log10(tolerance / rel_residual), capped; None when it does not apply."""
    if not record_ok(rec):
        return None
    rel = rec["rel_residual"]
    if rel == 0.0:
        return HEADROOM_CAP_DIGITS
    return min(HEADROOM_CAP_DIGITS, math.log10(rec["tolerance"] / rel))
