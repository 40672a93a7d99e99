import csv
import io
import json
import re
import subprocess
import sys

import pytest

import numpy as np

from qortho import VerificationReport, qpoch_finite
from qortho.cli import EXIT_FAIL, EXIT_INVALID, EXIT_PASS, main
from qortho.verify import REGISTRY, IdentityId, ParamKind, SweepSpec, draw_params

BOX = [
    "--alpha-re", "0.2", "--beta-re", "0.1",
    "--gamma-re", "0.8", "--delta-re", "0.9", "--q", "0.5",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_big_c_degree_zero(self, capsys):
        code, out, _ = run_cli(["eval", "big_c", "--n", "0", "--theta", "0.3", *BOX], capsys)
        assert code == EXIT_PASS
        rec = json.loads(out)
        assert rec["value_re"] == pytest.approx(1.0)
        assert rec["value_im"] == pytest.approx(0.0)

    def test_ultra_degree_one(self, capsys):
        code, out, _ = run_cli(
            ["eval", "ultra", "--n", "1", "--theta", "0", "--beta-re", "0.3", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_PASS
        assert json.loads(out)["value_re"] == pytest.approx(2.8)

    def test_qpoch_vanishing_infinite_product(self, capsys):
        code, out, _ = run_cli(["eval", "qpoch", "--a-re", "1", "--q", "0.5", "--inf"], capsys)
        assert code == EXIT_PASS
        assert json.loads(out)["value_re"] == 0.0

    def test_phi_series_product_ratio(self, capsys):
        code, out, _ = run_cli(
            ["eval", "phi_series", "--num", "0.3", "--q", "0.5", "--z-re", "0.4"],
            capsys,
        )
        assert code == EXIT_PASS
        rec = json.loads(out)
        assert rec["metadata"]["numerators"] == 1

    def test_missing_flag_is_invalid(self, capsys):
        code, _, err = run_cli(["eval", "big_c", "--theta", "0.3", *BOX], capsys)
        assert code == EXIT_INVALID
        assert "--n" in err


class TestVerify:
    def test_thm_1_1_off_diagonal_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "0", "--n", "1", *BOX], capsys
        )
        assert code == EXIT_PASS
        rec = json.loads(out)
        assert rec["passed"] is True

    def test_hypothesis_violation_exits_2_naming_bound(self, capsys):
        code, _, err = run_cli(
            ["verify", "--identity", "THM_1_2", "--s-re", "1.5", "--t-re", "0.5", *BOX],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "|gamma*s|" in err and "< 1" in err

    @pytest.mark.parametrize("flag", ["--q", "--alpha-re"])
    def test_nan_input_exits_2(self, flag, capsys):
        argv = ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1", *BOX]
        argv[argv.index(flag) + 1] = "nan"
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID
        assert "invalid input" in err and "finite" in err

    def test_rogers_defaults(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--identity", "ROGERS_6W5", "--a-re", "0.2", "--b-re", "0.5",
             "--c-re", "0.6", "--d-re", "0.7", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_PASS
        assert json.loads(out)["passed"] is True

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1", *BOX], capsys
        )
        assert code == EXIT_PASS
        rep = VerificationReport.from_record(json.loads(out))
        assert rep.passed and rep.identity_id == "THM_1_1"

    def test_csv_format_parses_back(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "0", "--n", "2", "--format", "csv",
             *BOX],
            capsys,
        )
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["identity"] == "THM_1_1"
        assert row["passed"] == "True"
        assert json.loads(row["inputs"])["m"] == 0
        assert json.loads(row["flags"]) == []

    def test_failing_check_exits_1(self, capsys):
        # impossible tolerance forces a verified-false outcome
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1",
             "--tol", "1e-18", *BOX],
            capsys,
        )
        assert code == EXIT_FAIL
        assert json.loads(out)["passed"] is False


    def test_truncation_trouble_exits_1_not_2(self, capsys):
        # valid input whose product side needs more factors than max_terms
        code, out, _ = run_cli(
            ["verify", "--identity", "QBINOMIAL", "--a-re", "0.5", "--z-re", "0.5",
             "--q", "0.999"],
            capsys,
        )
        assert code == EXIT_FAIL
        assert "TruncationExceeded" in json.loads(out)["flags"]

    def test_k_reaches_prop_2_2(self, capsys):
        code, out, _ = run_cli(["verify", "--identity", "PROP_2_2", "--k", "2", *BOX], capsys)
        assert code == EXIT_PASS
        assert json.loads(out)["inputs"]["k"] == 2

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_every_schema_parameter_has_a_flag(self, identity, capsys):
        # a sweep draw passed as flags gives the same report as the checker
        record = REGISTRY[identity]
        draw = draw_params(identity, np.random.default_rng(0), SweepSpec(seed=0, draws=1))
        argv = ["verify", "--identity", identity.value]
        for name, kind in record.params:
            if name not in draw:
                continue
            value = draw[name]
            if kind in (ParamKind.INT, ParamKind.FLOAT):
                argv += [f"--{name}", repr(value)]
                continue
            if kind is ParamKind.PARAMSET:
                parts = zip(("alpha", "beta", "gamma", "delta"),
                            (value.alpha, value.beta, value.gamma, value.delta))
            elif kind is ParamKind.REDUCED:
                parts = (("a", value.a), ("b", value.b))
            else:
                parts = ((name, value),)
            for flag, part in parts:
                part = complex(part)
                argv += [f"--{flag}-re", repr(part.real), f"--{flag}-im", repr(part.imag)]
        code, out, _ = run_cli(argv, capsys)
        report = record.checker(**draw)
        assert code == (EXIT_PASS if report.passed else EXIT_FAIL)
        assert json.loads(out) == json.loads(json.dumps(report.to_record()))


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--identity", "THM_1_1", "--draws", "2", "--seed", "1", "--alpha-re", "5"],
            ["sweep", "--identity", "THM_1_1", "--draws", "2", "--seed", "1", "--nodes", "16"],
            ["sweep", "--identity", "THM_1_1", "--draws", "2", "--seed", "1",
             "--max-terms", "1"],
            ["eval", "big_c", "--n", "0", "--theta", "0.3", "--tol", "1", *BOX],
            ["eval", "big_c", "--n", "0", "--theta", "0.3", "--nodes", "64", *BOX],
            ["eval", "big_c", "--n", "0", "--theta", "0.3", "--max-nodes", "64", *BOX],
            ["eval", "big_c", "--n", "0", "--theta", "0.3", "--m", "1", *BOX],
            ["verify", "--identity", "THM_1_1", "--m", "0", "--n", "1", "--k", "2", *BOX],
            ["verify", "--identity", "PROP_2_2", "--nodes", "512", *BOX],
            ["verify", "--identity", "PROP_2_1_2", "--n", "1", "--max-terms", "5", *BOX],
            ["verify", "--identity", "PROP_3_1", "--a-re", "0.3", "--b-re", "0.2",
             "--gamma-re", "1", "--delta-re", "1", "--q", "0.5", "--m", "3", "--max-terms", "1"],
        ],
    )
    def test_unread_flag_exits_2(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID
        assert "--" in err


class TestSweep:
    def test_draws_records_and_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(
            ["sweep", "--identity", "THM_1_1", "--draws", "20", "--seed", "42",
             "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_PASS
        payload = json.loads(out_path.read_text())
        assert payload["all_passed"] is True
        assert len(payload["reports"]) == 20

    def test_zero_draws(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--identity", "THM_1_1", "--draws", "0", "--seed", "1"], capsys
        )
        assert code == EXIT_PASS
        assert json.loads(out)["reports"] == []

    def test_same_seed_byte_identical_modulo_timestamp(self, capsys):
        argv = ["sweep", "--identity", "QBINOMIAL", "--draws", "5", "--seed", "9"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        strip = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', s)
        assert strip(out1) == strip(out2)


class TestTable:
    def test_big_c_identity_parameters(self, capsys):
        # alpha = gamma, beta = delta: only the n = 0 row is nonzero
        code, out, _ = run_cli(
            ["table", "big_c", "--n-max", "2", "--alpha-re", "0.8", "--beta-re", "0.9",
             "--gamma-re", "0.8", "--delta-re", "0.9", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["n"] == "0" and float(rows[0]["coefficient_re"]) == 1.0
        for row in rows[1:]:
            assert abs(float(row["coefficient_re"])) < 1e-14
            assert abs(float(row["coefficient_im"])) < 1e-14

    def test_connection_degree_zero(self, capsys):
        code, out, _ = run_cli(
            ["table", "connection", "--m", "0", "--a-re", "0.3", "--b-re", "0.5",
             "--gamma-re", "0.9", "--delta-re", "1.1", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["coefficient_re"]) == pytest.approx(1.0)

    def test_ultra_coefficients_match_explicit_quotients(self, capsys):
        beta, q = 0.3, 0.5
        code, out, _ = run_cli(
            ["table", "ultra", "--n-max", "2", "--beta-re", str(beta), "--q", str(q)],
            capsys,
        )
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            n, k = int(row["n"]), int(row["k"])
            expected = (
                qpoch_finite(beta, q, k) * qpoch_finite(beta, q, n - k)
                / (qpoch_finite(q, q, k) * qpoch_finite(q, q, n - k))
            )
            assert float(row["coefficient_re"]) == pytest.approx(expected.real, rel=1e-13)


class TestExitCodeContract:
    def test_invalid_identity_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--identity", "NOT_AN_ID", "--q", "0.5"], capsys)
        assert code == EXIT_INVALID

    def test_invalid_q_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "0", "--n", "0",
             "--alpha-re", "0.2", "--beta-re", "0.1", "--gamma-re", "0.8",
             "--delta-re", "0.9", "--q", "1.5"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "|q|" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qortho.cli", "eval", "ultra", "--n", "1",
             "--theta", "0", "--beta-re", "0.3", "--q", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value_re"] == pytest.approx(2.8)
