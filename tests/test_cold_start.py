"""A fresh ``qortho`` process imports only what its command needs.

Importing numpy takes longer than a series check, so the commands built on
``qcore``, ``hyper`` and the function family ``qfun`` (``verify`` of
ROGERS_6W5, QBINOMIAL, PROP_3_1, PROP_2_1_2, PROP_2_1_3 and PROP_2_4, every
``eval`` but ``weight``, and ``table``) must start without it; only the
circle rule (``quad``) and the array kernels (``kernels``) load it.  A cold
``verify`` of ROGERS_6W5, QBINOMIAL and PROP_3_1 imports none of
``dataclasses``, ``inspect``, ``csv`` or ``datetime`` either: the records are
plain classes, and the CLI reads checker signatures from their code objects
and imports ``csv`` and ``datetime`` in the handlers that write CSV or a
timestamp.  ``import qortho`` imports no other ``qortho`` module, and a
submodule imports only the modules it uses.  The test modules import numpy
themselves, so every check here runs a new interpreter under
``-X importtime``, which lists each module it imports on stderr.
"""

import csv
import functools
import inspect
import io
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

import qortho
from qortho import (ParamSet4, PhiSpec, ReducedParams, check_prop_2_1_2, check_prop_2_1_3,
                    check_prop_2_4, check_prop_3_1, check_qbinomial, check_rogers_6w5,
                    h_norm, laurent_at, phi_eval, phi_series, qpoch_infinite, run_sweep,
                    verify)
from qortho.cli import _parameters, main
from qortho.qcore import big_c_coeffs, expansion_weights
from qortho.qfun import thm_1_2_rhs_series, thm_1_3_rhs

SRC = str(Path(qortho.__file__).resolve().parents[1])


def run_python(args: list[str]) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime *args`` on this source tree; the process
    and the names of the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:") and "|" in line}
    return proc, modules


def numpy_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "numpy" or m.startswith("numpy."))


@functools.cache
def interpreter_modules() -> frozenset[str]:
    """The modules a bare interpreter imports at start-up (``site`` and what
    it loads), which no qortho command can avoid."""
    proc, modules = run_python(["-c", "pass"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    return frozenset(modules)


# Standard modules a cold series ``verify`` has no use for.
UNUSED_BY_VERIFY = {"dataclasses", "inspect", "csv", "datetime"}


def cli(*argv: str):
    proc, modules = run_python(["-m", "qortho.cli", *argv])
    assert "qortho.verify" in modules  # the import log was read
    return proc, modules


@pytest.mark.parametrize("argv, report", [
    (["--identity", "ROGERS_6W5", "--a-re", "0.1", "--b-re", "0.5", "--c-re", "0.6",
      "--d-re", "0.7", "--q", "0.5"], lambda: check_rogers_6w5(0.1, 0.5, 0.6, 0.7, 0.5)),
    (["--identity", "QBINOMIAL", "--a-re", "0.3", "--z-re", "-0.4", "--q", "0.5"],
     lambda: check_qbinomial(0.3, -0.4, 0.5)),
    (["--identity", "PROP_3_1", "--a-re", "0.3", "--b-re", "0.2", "--gamma-re", "0.9",
      "--delta-re", "1.1", "--q", "0.5", "--m", "3"],
     lambda: check_prop_3_1(ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, 3)),
])
def test_series_verify_runs_without_numpy(argv, report):
    proc, modules = cli("verify", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert numpy_modules(modules) == []
    assert sorted(UNUSED_BY_VERIFY & (modules - interpreter_modules())) == []
    assert json.loads(proc.stdout) == json.loads(json.dumps(report().to_record()))


def test_cold_verify_writes_csv(tmp_path):
    argv = ["verify", "--identity", "QBINOMIAL", "--a-re", "0.3", "--z-re", "-0.4", "--q", "0.5",
            "--format", "csv"]
    proc, modules = cli(*argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "csv" in modules and numpy_modules(modules) == []
    out = tmp_path / "report.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert proc.stdout == out.read_text()
    (row,) = csv.DictReader(io.StringIO(proc.stdout))
    assert row["identity"] == "QBINOMIAL" and row["passed"] == "True"


def test_cold_sweep_stamps_its_output():
    proc, modules = cli("sweep", "--identity", "QBINOMIAL", "--draws", "3", "--seed", "4")
    assert proc.returncode == 0, proc.stderr[-2000:]
    payload = json.loads(proc.stdout)
    assert datetime.fromisoformat(payload["generated_at"]).tzinfo is not None
    expected = run_sweep("QBINOMIAL", 4, 3)
    assert payload["reports"] == json.loads(json.dumps([r.to_record() for r in expected]))


@pytest.mark.parametrize("argv, value", [
    (["qpoch", "--a-re", "0.5", "--q", "0.5"], lambda: qpoch_infinite(0.5, 0.5)),
    (["phi_series", "--num", "0.3", "--z-re", "0.4", "--q", "0.5"],
     lambda: phi_series(PhiSpec((0.3,), (), 0.5, 0.4))),
])
def test_series_eval_runs_without_numpy(argv, value):
    proc, modules = cli("eval", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert numpy_modules(modules) == []
    rec = json.loads(proc.stdout)
    assert complex(rec["value_re"], rec["value_im"]) == value()


@pytest.mark.parametrize("argv", [
    ["big_c", "--n-max", "3", "--alpha-re", "0.2", "--beta-re", "0.1", "--gamma-re", "0.8",
     "--delta-re", "0.9", "--q", "0.5"],
    ["connection", "--m", "4", "--a-re", "0.3", "--b-re", "0.5", "--gamma-re", "0.9",
     "--delta-re", "1.1", "--q", "0.5"],
    ["ultra", "--n-max", "3", "--beta-re", "0.3", "--q", "0.5"],
])
def test_table_runs_without_numpy(argv, tmp_path):
    proc, modules = cli("table", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert numpy_modules(modules) == []
    out = tmp_path / "table.csv"
    assert main(["table", *argv, "--out", str(out)]) == 0
    assert proc.stdout == out.read_text()


BOX = ["--alpha-re", "0.2", "--beta-re", "0.1", "--gamma-re", "0.8", "--delta-re", "0.9",
       "--q", "0.5"]
P = ParamSet4(0.2, 0.1, 0.8, 0.9)


@pytest.mark.parametrize("argv, report", [
    (["--identity", "PROP_2_4", *BOX, "--n", "3", "--x-re", "0.7", "--y-re", "0.9"],
     lambda: check_prop_2_4(P, 0.5, 3, 0.7, 0.9)),
    (["--identity", "PROP_2_1_2", *BOX, "--n", "5", "--theta", "1.2"],
     lambda: check_prop_2_1_2(P, 0.5, 5, 1.2)),
    (["--identity", "PROP_2_1_3", *BOX], lambda: check_prop_2_1_3(P, 0.5)),
])
def test_checks_off_the_circle_verify_without_numpy(argv, report):
    # the function family is numpy-free; only the circle rule needs arrays
    proc, modules = cli("verify", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "qortho.qfun" in modules
    assert numpy_modules(modules) == []
    assert json.loads(proc.stdout) == json.loads(json.dumps(report().to_record()))


@pytest.mark.parametrize("argv, value", [
    (["big_c", "--n", "3", "--theta", "0.3", *BOX],
     lambda: laurent_at(big_c_coeffs(3, P, 0.5), 3, 0.3)),
    (["phi", "--n", "3", "--x-re", "0.7", "--y-re", "0.9", *BOX],
     lambda: phi_eval(3, 0.7, 0.9, P, 0.5)),
    (["ultra", "--n", "3", "--theta", "0.4", "--beta-re", "0.3", "--q", "0.5"],
     lambda: laurent_at(expansion_weights(3, 0.3, 0.3, 0.5), 3, 0.4)),
    (["h", "--n", "2", "--a-re", "0.3", "--q", "0.5"], lambda: h_norm(2, 0.3, 0.5)),
])
def test_family_eval_runs_without_numpy(argv, value):
    proc, modules = cli("eval", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert numpy_modules(modules) == []
    rec = json.loads(proc.stdout)
    assert complex(rec["value_re"], rec["value_im"]) == value()


def test_closed_sides_of_the_circle_identities_run_without_numpy():
    # THM_1_2's series and THM_1_3's closed form live in the family module
    code = ("from qortho import ParamSet4, ReducedParams\n"
            "from qortho.qfun import thm_1_2_rhs_series, thm_1_3_rhs\n"
            "print(repr(thm_1_2_rhs_series(ParamSet4(0.3, 0.2, 0.9, 1.1), 0.5, 0.4, 0.6)))\n"
            "print(repr(thm_1_3_rhs(ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, 4, 2)))\n")
    proc, modules = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "qortho.qfun" in modules
    assert numpy_modules(modules) == []
    assert proc.stdout.split() == [
        repr(thm_1_2_rhs_series(ParamSet4(0.3, 0.2, 0.9, 1.1), 0.5, 0.4, 0.6)),
        repr(thm_1_3_rhs(ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, 4, 2))]


def test_eval_weight_still_loads_numpy():
    # the weight is evaluated by the array kernels, on a one-angle grid
    proc, modules = cli("eval", "weight", "--theta", "0.7", *BOX)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "numpy" in numpy_modules(modules)


def test_a_numeric_check_still_loads_numpy():
    # THM_1_1 integrates over the circle; the import log must show numpy then
    proc, modules = cli("verify", "--identity", "THM_1_1", "--alpha-re", "0.2", "--beta-re",
                        "0.1", "--gamma-re", "0.8", "--delta-re", "0.9", "--q", "0.5",
                        "--m", "1", "--n", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "numpy" in numpy_modules(modules)


def test_package_import_defers_numpy_until_a_numeric_name_is_used():
    code = ("import sys, qortho\n"
            "from qortho import verify\n"
            "assert 'numpy' not in sys.modules\n"
            "assert {'h_norm', 'periodic_integral'} <= set(dir(qortho))\n"
            "assert 'numpy' not in sys.modules\n"
            "assert qortho.h_norm is sys.modules['qortho.qfun'].h_norm\n"
            "assert 'numpy' not in sys.modules\n"
            "assert qortho.periodic_integral is sys.modules['qortho.quad'].periodic_integral\n"
            "assert 'numpy' in sys.modules\n")
    proc, _ = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]


def qortho_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "qortho" or m.startswith("qortho."))


@pytest.mark.parametrize("code, imported", [
    # the package binds every public name on first use
    ("import qortho", ["qortho"]),
    ("import qortho.qcore", ["qortho", "qortho.errors", "qortho.qcore"]),
    # what a benchmark's set-up imports: the kernels need no checker or series
    ("import numpy, qortho.kernels", ["qortho", "qortho.errors", "qortho.kernels", "qortho.qcore"]),
])
def test_an_import_loads_only_the_modules_it_names(code, imported):
    proc, modules = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert qortho_modules(modules) == imported


def test_the_registry_resolves_after_a_bare_package_import():
    # README names qortho.verify.REGISTRY; the package binds verify on first use
    code = "import qortho\nprint(len(qortho.verify.REGISTRY))\n"
    proc, modules = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "qortho.verify" in modules and numpy_modules(modules) == []
    assert int(proc.stdout) == len(verify.IdentityId)


def signature_reading(func) -> dict[str, bool]:
    """What ``inspect.signature`` says of the positional-or-keyword
    parameters: name -> has a default."""
    return {name: param.default is not inspect.Parameter.empty
            for name, param in inspect.signature(func).parameters.items()
            if param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD}


def wrapped(func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        return func(*args, **kwargs)

    return traced


@pytest.mark.parametrize("identity", list(verify.IdentityId))
def test_checker_parameters_are_read_as_inspect_reads_them(identity):
    checker = verify.REGISTRY[identity].checker
    assert _parameters(checker) == signature_reading(checker)
    assert _parameters(wrapped(wrapped(checker))) == signature_reading(checker)


def test_parameters_of_functions_with_and_without_defaults():
    def func(a, b, c=1, *args, d, e=2, **kwargs):
        pass

    assert _parameters(func) == {"a": False, "b": False, "c": True}
    assert _parameters(lambda: None) == {}


@pytest.mark.parametrize("argv, code, message", [
    # PROP_2_1_3's n has a default, so --n is optional
    (["--identity", "PROP_2_1_3", "--alpha-re", "0.2", "--beta-re", "0.1", "--gamma-re", "0.8",
      "--delta-re", "0.9", "--q", "0.5"], 0, ""),
    (["--identity", "ROGERS_6W5", "--a-re", "0.1", "--b-re", "0.5", "--c-re", "0.6",
      "--d-re", "0.7", "--q", "0.5"], 0, ""),
    # a flag of another identity's parameter
    (["--identity", "ROGERS_6W5", "--a-re", "0.1", "--b-re", "0.5", "--c-re", "0.6",
      "--d-re", "0.7", "--q", "0.5", "--m", "3"], 2, "does not read --m"),
    (["--identity", "ROGERS_6W5", "--a-re", "0.1", "--b-re", "0.5", "--c-re", "0.6",
      "--q", "0.5"], 2, "missing required flag --d-re"),
    (["--identity", "PROP_3_1", "--a-re", "0.3", "--b-re", "0.2", "--gamma-re", "0.9",
      "--delta-re", "1.1", "--q", "0.5", "--m", "3", "--n", "1"], 2, "does not read --n"),
    (["--identity", "THM_1_1", "--alpha-re", "0.2", "--beta-re", "0.1", "--gamma-re", "0.8",
      "--delta-re", "0.9", "--q", "0.5", "--m", "1", "--n", "1"], 0, ""),
])
def test_verify_through_a_wrapped_checker_reads_the_same_flags(monkeypatch, capsys, argv, code,
                                                                message):
    # a tracer that wraps every checker with functools.wraps must not change
    # which flags verify requires, reads or rejects
    results = []
    for wrap in (False, True):
        if wrap:
            record = verify.REGISTRY[verify.IdentityId(argv[1])]
            monkeypatch.setattr(verify, f"check_{argv[1].lower()}", wrapped(record.checker))
        results.append((main(["verify", *argv]), capsys.readouterr()))
    for got, captured in results:
        assert got == code
        assert message in captured.err
    assert results[0][1].out == results[1][1].out
