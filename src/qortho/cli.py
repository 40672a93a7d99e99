"""Command-line front end.

Four subcommands:

    qortho eval    evaluate one function at explicit arguments
    qortho verify  run one identity checker, exit 0/1 on pass/fail
    qortho sweep   run a seeded randomized sweep of one identity
    qortho table   tabulate expansion or connection coefficients as CSV

Exit codes: 0 = pass, 1 = a check verified false, 2 = invalid input
(hypothesis violation, malformed arguments, a flag the command does not
read, or an ``--out`` path that cannot be written).  ``verify`` takes the
flags of the chosen identity's parameters, the positional parameters of its
checker; no command takes a quadrature, truncation or tolerance flag, since
every check runs at one numerical setting and is judged at its identity's
registry tolerance.  :data:`_SPELLING` says how each parameter name is
spelled as flags; complex parameters are entered as two flags (--alpha-re /
--alpha-im, imaginary part defaulting to 0).
Reports serialize to JSON or RFC-4180 CSV with complex values split into
_re/_im fields.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import qortho

from .errors import DomainError, QOrthoError
from .hyper import PhiSpec, phi_series
from .qcore import (
    ParamSet4,
    ReducedParams,
    as_degree,
    big_c_coeffs,
    connection_coeffs,
    expansion_weights,
    finite_complex,
    qpoch_finite,
    qpoch_infinite,
)
from .verify import REGISTRY, IdentityId, VerificationReport, run_sweep

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

# eval functions f(parameters...), which call the function family by the
# package's lazily bound names; of them only "weight" loads numpy, to evaluate
# a one-angle grid.  "ultra" sums the (beta, beta) expansion weights directly,
# so any complex beta is admitted, not only |beta| <= 1 as in ParamSet4.
# "qpoch" without --n is (a;q)_oo.  phi_series reads its --num/--den itself.
_EVAL = {
    "big_c": lambda n, theta, p, q: qortho.laurent_at(big_c_coeffs(n, p, q), n, theta),
    "phi": lambda n, x, y, p, q: qortho.phi_eval(n, x, y, p, q),
    "ultra": lambda n, theta, beta, q:
        qortho.laurent_at(expansion_weights(n, beta, beta, q), n, theta),
    "weight": lambda theta, p, q: qortho.weight_omega_many([theta], p, q)[0],
    "h": lambda n, a, q: qortho.h_norm(n, a, q),
    "qpoch": lambda a, q, n=None:
        qpoch_infinite(a, q) if n is None else qpoch_finite(a, q, n),
}

# table functions f(parameters...) -> {degree: coefficients}.
_TABLE = {
    "big_c": lambda q, n_max, p: {n: big_c_coeffs(n, p, q)
                                  for n in range(as_degree("n_max", n_max) + 1)},
    "connection": lambda q, m, r, gamma, delta: {m: connection_coeffs(m, r, gamma * delta, q)},
    "ultra": lambda q, n_max, beta: {n: expansion_weights(n, beta, beta, q)
                                     for n in range(as_degree("n_max", n_max) + 1)},
}

_HELP = {
    "q": "base q (real, |q| < 1)",
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


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    """Add each flag of the parameters ``names`` once; every one defaults to
    None, meaning unset."""
    dests: dict[str, type] = {}
    for name in names:
        dests |= _dests(name)
    for dest, type_ in dests.items():
        parser.add_argument(_flag(dest), type=type_, help=_HELP.get(dest))


def _add_output_flags(parser: argparse.ArgumentParser, formats: bool) -> None:
    """``--out``, and ``--format`` for a command that writes JSON or CSV."""
    if formats:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Evaluate and numerically verify q-orthogonal function identities.",
    )
    # No abbreviated flags: "--n" must not silently stand for "--n-max".
    sub = parser.add_subparsers(dest="command", required=True)
    identities = [i.value for i in IdentityId]

    p_eval = sub.add_parser("eval", help="evaluate one function", allow_abbrev=False)
    p_eval.add_argument("function", choices=(*_EVAL, "phi_series"))
    _add_flags(p_eval, ("q", *(name for func in _EVAL.values() for name in _parameters(func)),
                        "z"))
    p_eval.add_argument("--num", action="append",
                        help="phi_series numerator parameter RE[,IM] (repeatable)")
    p_eval.add_argument("--den", action="append",
                        help="phi_series denominator parameter RE[,IM] (repeatable)")
    _add_output_flags(p_eval, formats=False)

    p_verify = sub.add_parser("verify", help="run one identity check", allow_abbrev=False)
    p_verify.add_argument("--identity", required=True, choices=identities)
    _add_flags(p_verify,
               [name for record in REGISTRY.values() for name in _parameters(record.checker)])
    _add_output_flags(p_verify, formats=True)

    p_sweep = sub.add_parser("sweep", help="run a seeded randomized sweep", allow_abbrev=False)
    p_sweep.add_argument("--identity", required=True, choices=identities)
    p_sweep.add_argument("--draws", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--degree-max", type=int, default=6)
    _add_output_flags(p_sweep, formats=True)

    p_table = sub.add_parser("table", help="tabulate coefficients as CSV", allow_abbrev=False)
    p_table.add_argument("what", choices=tuple(_TABLE))
    _add_flags(p_table, ("q", "m", "p", "r", "n_max"))
    _add_output_flags(p_table, formats=False)

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


def _kwargs(func, args) -> tuple[dict, set[str]]:
    """The keyword arguments of ``func`` from the flags, and the flag
    destinations read; a parameter with a default is omitted when its flags are unset."""
    kwargs, read = {}, set()
    for name, has_default in _parameters(func).items():
        read |= _dests(name).keys()
        value = _arg(args, name, required=not has_default)
        if value is not None:
            kwargs[name] = value
    return kwargs, read


def _reject_unread(args, read: set[str], what: str) -> None:
    """:class:`DomainError` naming every set flag (one not None) whose
    destination is not in ``read`` and does not choose or format the work."""
    read = read | {"command", "identity", "function", "what", "format", "out"}
    unread = [_flag(dest) for dest, value in vars(args).items()
              if value is not None and dest not in read]
    if unread:
        raise DomainError(f"{what} does not read {', '.join(unread)}")


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
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, no permission, a full disk
            raise DomainError(f"cannot write --out {out_path}: {exc.strerror}") from exc


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
    fn = args.function
    metadata = {}

    if fn in _EVAL:
        kwargs, read = _kwargs(_EVAL[fn], args)
        _reject_unread(args, read, f"eval {fn}")
        value = complex(_EVAL[fn](**kwargs))
    else:  # phi_series
        _reject_unread(args, {"q", "z_re", "z_im", "num", "den"}, "eval phi_series")
        nums = tuple(_parse_listed_complex(v) for v in args.num or ())
        dens = tuple(_parse_listed_complex(v) for v in args.den or ())
        z = _arg(args, "z")
        value = phi_series(PhiSpec(nums, dens, _arg(args, "q"), z))
        metadata = {"numerators": len(nums), "denominators": len(dens)}

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
    _reject_unread(args, read, record.id.value)
    report = checker(**kwargs)
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
    reports = run_sweep(identity, args.seed, args.draws, args.degree_max)
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

    kwargs, read = _kwargs(_TABLE[args.what], args)
    _reject_unread(args, read, f"table {args.what}")
    by_degree = _TABLE[args.what](**kwargs)
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
