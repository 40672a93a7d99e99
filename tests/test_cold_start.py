"""A fresh ``qortho`` process that needs no numpy never imports it.

Importing numpy takes longer than a series check, so the commands built on
``qcore`` and ``hyper`` alone (``verify`` of ROGERS_6W5, QBINOMIAL and
PROP_3_1, ``eval qpoch``, ``eval phi_series`` and ``table``) must start
without it.  The test modules import numpy themselves, so every check here
runs a new interpreter under ``-X importtime``, which lists each module it
imports on stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qortho
from qortho import (PhiSpec, ReducedParams, check_prop_3_1, check_qbinomial, check_rogers_6w5,
                    phi_series, qpoch_infinite)
from qortho.cli import main

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
    assert json.loads(proc.stdout) == json.loads(json.dumps(report().to_record()))


@pytest.mark.parametrize("argv, value", [
    (["qpoch", "--a-re", "0.5", "--q", "0.5", "--inf"], lambda: qpoch_infinite(0.5, 0.5)),
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
            "assert verify.periodic_integral is qortho.periodic_integral\n"
            "assert 'numpy' in sys.modules\n")
    proc, _ = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr[-2000:]
