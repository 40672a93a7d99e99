"""Command-line front end.

Four subcommands:

    qortho eval    evaluate one function at explicit arguments
    qortho verify  run one identity checker, exit 0/1 on pass/fail
    qortho sweep   run a seeded randomized sweep of one identity
    qortho table   tabulate expansion or connection coefficients as CSV

Exit codes: 0 = pass, 1 = a check verified false, 2 = invalid input
(hypothesis violation, malformed arguments, or a flag the command does not
read).  ``verify`` takes the flags of the chosen identity's parameters, the
positional parameters of its checker other than ``qspec``, ``policy`` and
``tolerance``, plus the quadrature and truncation flags the checker reads.
:data:`_SPELLING` says how each parameter name is spelled as flags; complex
parameters are entered as two flags (--alpha-re / --alpha-im, imaginary part
defaulting to 0).  Reports serialize to JSON or RFC-4180 CSV with complex
values split into _re/_im fields.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .errors import DomainError, QOrthoError
from .hyper import PhiSpec, phi_series
from .qcore import (
    ParamSet4,
    QBase,
    QuadratureSpec,
    ReducedParams,
    TruncationPolicy,
    as_degree,
    big_c_coeffs,
    connection_coeffs,
    expansion_weights,
    finite_complex,
    qpoch_finite,
    qpoch_infinite,
)
from .verify import REGISTRY, IdentityId, SweepSpec, VerificationReport, run_sweep

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2

CSV_FIELDS = (
    "identity", "inputs", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
    "abs_residual", "rel_residual", "tolerance", "passed", "flags",
)

# How each parameter name is spelled as flags: a record built from its complex
# fields, or one int or float flag --NAME.  Any other name is one complex
# value, --NAME-re and --NAME-im.
_SPELLING = {
    "p": (ParamSet4, ParamSet4._fields), "r": (ReducedParams, ReducedParams._fields),
    "q": float, "theta": float,
    "m": int, "n": int, "k": int, "n_max": int,
}

# Tuning arguments a function may take -> (the class built from their flags,
# flag dest -> type).  A flag left unset keeps the class default.
_TUNING = {
    "qspec": (QuadratureSpec, {"nodes": int, "max_nodes": int}),
    "policy": (TruncationPolicy, {"max_terms": int, "rel_tol": float}),
}
_POLICY_FLAGS = _TUNING["policy"][1]
# Positional parameters that are not spelled as flags.
_UNSPELLED = {"qfun", *_TUNING, "tolerance"}

# eval functions f(qfun, parameters...[, policy]), handed the function family,
# which only they need; of them only "weight" loads numpy, to evaluate a
# one-angle grid.  "ultra" sums the (beta, beta) expansion weights directly, so
# any complex beta is admitted, not only |beta| <= 1 as in ParamSet4.  qpoch
# and phi_series have their own branches.
_EVAL = {
    "big_c": lambda qfun, n, theta, p, q: qfun.laurent_at(big_c_coeffs(n, p, q), n, theta),
    "phi": lambda qfun, n, x, y, p, q: qfun.phi_eval(n, x, y, p, q),
    "ultra": lambda qfun, n, theta, beta, q:
        qfun.laurent_at(expansion_weights(n, beta, beta, q), n, theta),
    "weight": lambda qfun, theta, p, q, policy: qfun.weight_omega_many([theta], p, q, policy)[0],
    "h": lambda qfun, n, a, q, policy: qfun.h_norm(n, a, q, policy),
}

# table functions f(parameters...) -> {degree: coefficients}.
_TABLE = {
    "big_c": lambda q, n_max, p: {n: big_c_coeffs(n, p, q)
                                  for n in range(as_degree("n_max", n_max) + 1)},
    "connection": lambda q, m, r, gamma, delta: {m: connection_coeffs(m, r, gamma * delta, q)},
    "ultra": lambda q, n_max, beta: {n: expansion_weights(n, beta, beta, QBase.coerce(q))
                                     for n in range(as_degree("n_max", n_max) + 1)},
}

_HELP = {
    "q": "base q (real, |q| < 1)",
    "tol": "tolerance override",
    "rel_tol": "truncation tolerance for products and series",
    "n_max": "degree cap",
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _dests(name: str) -> dict[str, type]:
    """Flag destination -> type, for the flags that spell one parameter."""
    spelling = _SPELLING.get(name)
    if spelling in (int, float):
        return {name: spelling}
    parts = spelling[1] if spelling else (name,)
    return {f"{part}_{half}": float for part in parts for half in ("re", "im")}


def _add_flags(parser: argparse.ArgumentParser, names, tuning: dict[str, type]) -> None:
    """Add each flag of the parameters ``names`` and of ``tuning`` once;
    every one defaults to None, meaning unset."""
    dests: dict[str, type] = {}
    for name in names:
        dests |= _dests(name)
    for dest, type_ in (dests | tuning).items():
        parser.add_argument(_flag(dest), type=type_, help=_HELP.get(dest))


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Evaluate and numerically verify q-orthogonal function identities.",
    )
    # No abbreviated flags: "--m" must not silently stand for "--max-terms".
    sub = parser.add_subparsers(dest="command", required=True)
    identities = [i.value for i in IdentityId]

    p_eval = sub.add_parser("eval", help="evaluate one function", allow_abbrev=False)
    p_eval.add_argument(
        "function",
        choices=("big_c", "phi", "ultra", "weight", "h", "qpoch", "phi_series"),
    )
    _add_flags(
        p_eval, ("q", *(name for func in _EVAL.values() for name in _spelled(func)), "a", "z"),
        _POLICY_FLAGS,
    )
    p_eval.add_argument("--inf", action="store_true", help="qpoch: infinite product")
    p_eval.add_argument("--num", action="append", default=[],
                        help="phi_series numerator parameter RE[,IM] (repeatable)")
    p_eval.add_argument("--den", action="append", default=[],
                        help="phi_series denominator parameter RE[,IM] (repeatable)")
    _add_output_flags(p_eval)

    p_verify = sub.add_parser("verify", help="run one identity check", allow_abbrev=False)
    p_verify.add_argument("--identity", required=True, choices=identities)
    _add_flags(
        p_verify, [name for record in REGISTRY.values() for name in _spelled(record.checker)],
        {"tol": float} | _TUNING["qspec"][1] | _POLICY_FLAGS,
    )
    _add_output_flags(p_verify)

    p_sweep = sub.add_parser("sweep", help="run a seeded randomized sweep", allow_abbrev=False)
    p_sweep.add_argument("--identity", required=True, choices=identities)
    p_sweep.add_argument("--draws", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--m-max", type=int, default=6)
    p_sweep.add_argument("--n-max", type=int, default=6)
    _add_flags(p_sweep, (), {"tol": float})
    _add_output_flags(p_sweep)

    p_table = sub.add_parser("table", help="tabulate coefficients as CSV", allow_abbrev=False)
    p_table.add_argument("what", choices=tuple(_TABLE))
    _add_flags(p_table, ("q", "m", "p", "r", "n_max"), {})
    p_table.add_argument("--out", default=None)

    return parser


def _arg(args, name: str, required: bool = True):
    """One parameter from its flags, or None when it is optional and unset.
    Raises DomainError naming a missing required flag or a non-finite value."""
    spelling = _SPELLING.get(name)
    if isinstance(spelling, tuple):
        cls, parts = spelling
        return cls(*(_arg(args, part) for part in parts))
    if spelling is None:
        re, im = getattr(args, f"{name}_re"), getattr(args, f"{name}_im")
        value = None if re is None else complex(re, 0.0 if im is None else im)
        flag = _flag(f"{name}_re")
    else:
        value, flag = getattr(args, name), _flag(name)
    if value is None and required:
        raise DomainError(f"missing required flag {flag}")
    if value is None or spelling is int:
        return value
    value = finite_complex(name, value)
    return value if spelling is None else value.real


def _parameters(func) -> dict[str, bool]:
    """Positional parameter name -> whether it has a default, for the Python
    function ``func`` or the one it wraps (``__wrapped__``, which
    ``functools.wraps`` sets), as ``inspect.signature`` reads them."""
    while hasattr(func, "__wrapped__"):
        func = func.__wrapped__
    names = func.__code__.co_varnames[:func.__code__.co_argcount]
    first_default = len(names) - len(func.__defaults__ or ())
    return {name: i >= first_default for i, name in enumerate(names)}


def _spelled(func) -> dict[str, bool]:
    """The entries of :func:`_parameters` that are spelled as flags."""
    return {name: has_default for name, has_default in _parameters(func).items()
            if name not in _UNSPELLED}


def _configured(cls, args, flags: dict[str, type]):
    """``cls`` built from the given ones of ``flags``, defaults elsewhere."""
    return cls(**{dest: getattr(args, dest) for dest in flags if getattr(args, dest) is not None})


def _kwargs(func, args) -> tuple[dict, set[str]]:
    """The keyword arguments of ``func`` from the flags, and the flag
    destinations read: its :data:`_TUNING` records, and its spelled
    parameters, one with a default omitted when its flags are unset."""
    kwargs, read = {}, set()
    accepted = _parameters(func)
    for name, (cls, flags) in _TUNING.items():
        if name in accepted:
            read |= flags.keys()
            kwargs[name] = _configured(cls, args, flags)
    for name, has_default in _spelled(func).items():
        read |= _dests(name).keys()
        value = _arg(args, name, required=not has_default)
        if value is not None:
            kwargs[name] = value
    return kwargs, read


def _parse_listed_complex(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) not in (1, 2):
        raise DomainError(f"cannot parse complex parameter {raw!r}, expected RE[,IM]")
    return finite_complex(f"parameter {raw!r}", complex(*map(float, parts)))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (``qortho verify ... | head``): what
            # is left goes to the null device, so the flush at exit succeeds
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_safe(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _report_json(report: VerificationReport) -> str:
    return json.dumps(_json_safe(report.to_record()), indent=2)


def _reports_csv(reports: list[VerificationReport]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, quoting=csv.QUOTE_MINIMAL)
    writer.writeheader()
    for report in reports:
        rec = report.to_record()
        rec["inputs"] = json.dumps(_json_safe(rec["inputs"]), sort_keys=True)
        rec["flags"] = json.dumps(rec["flags"])
        writer.writerow(rec)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    policy = _configured(TruncationPolicy, args, _POLICY_FLAGS)
    q = _arg(args, "q")
    metadata = {"rel_tol": policy.rel_tol, "max_terms": policy.max_terms}
    fn = args.function

    if fn in _EVAL:
        from . import qfun

        value = complex(_EVAL[fn](qfun, **_kwargs(_EVAL[fn], args)[0]))
    elif fn == "qpoch":
        a = _arg(args, "a")
        if args.inf:
            value = qpoch_infinite(a, q, policy)
        else:
            value = qpoch_finite(a, q, _arg(args, "n"))
    else:  # phi_series
        nums = tuple(_parse_listed_complex(v) for v in args.num)
        dens = tuple(_parse_listed_complex(v) for v in args.den)
        z = _arg(args, "z")
        value = phi_series(PhiSpec(nums, dens, QBase.coerce(q), z), policy)
        metadata["numerators"] = len(nums)
        metadata["denominators"] = len(dens)

    record = {
        "function": fn,
        "value_re": value.real,
        "value_im": value.imag,
        "metadata": metadata,
    }
    _emit(json.dumps(_json_safe(record), indent=2), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    """Check one identity with the arguments its checker names.  A parameter
    left unset takes the checker's default if it has one; a flag that the
    identity does not read is invalid input."""
    record = REGISTRY[IdentityId(args.identity)]
    checker = record.checker
    kwargs, read = _kwargs(checker, args)
    read |= {"command", "identity", "format", "out", "tol"}
    unread = [_flag(dest) for dest, value in vars(args).items()
              if value is not None and dest not in read]
    if unread:
        raise DomainError(f"{record.id.value} does not read {', '.join(unread)}")
    report = checker(**kwargs, tolerance=args.tol)
    if args.format == "csv":
        _emit(_reports_csv([report]), args.out)
    else:
        _emit(_report_json(report), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    from datetime import datetime, timezone

    identity = IdentityId(args.identity)
    spec = SweepSpec(seed=args.seed, draws=args.draws, m_max=args.m_max, n_max=args.n_max)
    reports = run_sweep(identity, spec, tolerance=args.tol)
    all_passed = all(r.passed for r in reports)
    if args.format == "csv":
        _emit(_reports_csv(reports), args.out)
    else:
        payload = {
            "identity": identity.value,
            "seed": args.seed,
            "draws": args.draws,
            "all_passed": all_passed,
            "reports": [_json_safe(r.to_record()) for r in reports],
            # excluded from the determinism contract
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    if all_passed:
        return EXIT_PASS
    first_bad = next(i for i, r in enumerate(reports) if not r.passed)
    inputs = reports[first_bad].to_record()["inputs"]
    print(f"draw {first_bad} failed: inputs {json.dumps(_json_safe(inputs))}", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _cmd_table(args) -> int:
    import csv

    by_degree = _TABLE[args.what](**_kwargs(_TABLE[args.what], args)[0])
    rows = [(n, k, c.real, c.imag) for n, coefs in by_degree.items() for k, c in enumerate(coefs)]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("n", "k", "coefficient_re", "coefficient_im"))
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "table":
            return _cmd_table(args)
    except (QOrthoError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_INVALID  # pragma: no cover - unreachable


if __name__ == "__main__":
    sys.exit(main())
