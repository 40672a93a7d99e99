import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import numpy as np

from qortho import ParamSet4, check_thm_1_1, qpoch_finite, qpoch_infinite
from qortho.cli import (_SPELLING, EXIT_FAIL, EXIT_INVALID, EXIT_PASS, _parameters, build_parser,
                        main)
from qortho.verify import REGISTRY, IdentityId, draw_params, run_sweep

from oracles import c_series_oracle, json_nulls, ultra_recurrence_oracle, weight_oracle

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

    def test_big_c_against_the_series_oracle(self, capsys):
        code, out, _ = run_cli(["eval", "big_c", "--n", "3", "--theta", "0.3", *BOX], capsys)
        assert code == EXIT_PASS
        rec = json.loads(out)
        expected = c_series_oracle(0.3, 0.2, 0.1, 0.8, 0.9, 0.5, 3)[3]
        assert complex(rec["value_re"], rec["value_im"]) == pytest.approx(expected, rel=1e-13)

    def test_ultra_beyond_unit_beta(self, capsys):
        # |beta| > 1 is outside ParamSet4's domain but the cosine sum is defined
        code, out, _ = run_cli(
            ["eval", "ultra", "--n", "3", "--theta", "0.4", "--beta-re", "1.5", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_PASS
        rec = json.loads(out)
        assert rec["value_re"] == pytest.approx(0.4414893510130313, rel=0, abs=1e-14)
        assert rec["value_re"] == pytest.approx(
            ultra_recurrence_oracle(3, 0.4, 1.5, 0.5).real, rel=1e-13)
        assert abs(rec["value_im"]) < 1e-14

    WEIGHT = ["--theta", "0", "--alpha-re", "0.81", "--beta-re", "0.1",
              "--gamma-re", "0.9", "--delta-re", "0.95", "--q", "0.97"]

    def test_weight_with_a_tiny_denominator_product(self, capsys):
        # the denominator product is about 1e-19, every factor of it >= 0.147
        code, out, _ = run_cli(["eval", "weight", *self.WEIGHT], capsys)
        assert code == EXIT_PASS
        rec = json.loads(out)
        expected = weight_oracle(0.0, ParamSet4(0.81, 0.1, 0.9, 0.95), 0.97)
        assert rec["value_re"] == pytest.approx(9.04e-30, rel=1e-3)
        assert complex(rec["value_re"], rec["value_im"]) == pytest.approx(expected, rel=1e-12)

    def test_weight_depth_beyond_max_terms_exits_2(self, capsys):
        # at q = 0.9999 the weight's head needs about 2e5 factors
        code, _, err = run_cli(["eval", "weight", *self.WEIGHT[:-2], "--q", "0.9999"], capsys)
        assert code == EXIT_INVALID
        assert "cap is 10000" in err

    def test_weight_with_an_overflowing_symbol_exits_2(self):
        # alpha/delta = 1e300 / 1e-300 overflows to inf: the screen must end
        # and the depth be refused, in a process that cannot hang the suite
        argv = ["eval", "weight", "--theta", "0", "--alpha-re", "1e300", "--beta-re", "0",
                "--gamma-re", "1e300", "--delta-re", "1e-300", "--q", "0.5"]
        proc = subprocess.run([sys.executable, "-m", "qortho.cli", *argv], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == EXIT_INVALID
        assert "a product of |a| = inf" in proc.stderr

    def test_weight_pole_on_the_circle_exits_2(self, capsys):
        # alpha/delta = 1: a denominator factor vanishes at theta = 0
        code, _, err = run_cli(
            ["eval", "weight", "--theta", "1.0", "--alpha-re", "0.6", "--beta-re", "0.1",
             "--gamma-re", "0.9", "--delta-re", "0.6", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "vanish on the circle" in err

    def test_qpoch_vanishing_infinite_product(self, capsys):
        code, out, _ = run_cli(["eval", "qpoch", "--a-re", "1", "--q", "0.5"], capsys)
        assert code == EXIT_PASS
        assert json.loads(out)["value_re"] == 0.0

    @pytest.mark.parametrize("a", [0.5, 0.3 - 0.7j, -2.5 + 1j])
    def test_qpoch_without_n_is_the_infinite_product(self, a, capsys):
        code, out, _ = run_cli(["eval", "qpoch", "--a-re", str(a.real), "--a-im", str(a.imag),
                                "--q", "0.6"], capsys)
        assert code == EXIT_PASS
        rec = json.loads(out)
        assert complex(rec["value_re"], rec["value_im"]) == qpoch_infinite(a, 0.6)

    def test_qpoch_finite_product(self, capsys):
        code, out, _ = run_cli(["eval", "qpoch", "--a-re", "0.5", "--n", "3", "--q", "0.5"],
                               capsys)
        assert code == EXIT_PASS
        assert json.loads(out)["value_re"] == pytest.approx(0.5 * 0.75 * 0.875, rel=1e-15)

    def test_a_malformed_listed_parameter_exits_2(self, capsys):
        code, out, err = run_cli(
            ["eval", "phi_series", "--num", "1,2,3", "--q", "0.5", "--z-re", "0.4"], capsys)
        assert code == EXIT_INVALID and out == ""
        assert "cannot parse complex parameter '1,2,3'" in err

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

    def test_thm_1_1_outside_the_weight_domain_exits_2(self, capsys):
        # |beta/gamma| = 1.11
        code, _, err = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1", "--alpha-re", "0.2",
             "--beta-re", "0.999", "--gamma-re", "0.9", "--delta-re", "1.0", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "|beta/gamma| < 1" in err

    def test_thm_1_3_zero_a_exits_2(self, capsys):
        code, _, err = run_cli(
            ["verify", "--identity", "THM_1_3", "--a-re", "0", "--b-re", "0.3",
             "--gamma-re", "1", "--delta-re", "1", "--q", "0.5", "--m", "2", "--n", "0"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "invalid input" in err and "a must be nonzero" in err

    @pytest.mark.parametrize("m, n, named", [("-1", "2", "m"), ("2", "-1", "n")])
    def test_a_negative_degree_is_named(self, capsys, m, n, named):
        code, out, err = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", m, "--n", n, *BOX], capsys)
        assert code == EXIT_INVALID and out == ""
        assert f"{named} must be a nonnegative integer, got -1" in err

    def test_prop_2_4_zero_x_exits_2(self, capsys):
        code, _, err = run_cli(
            ["verify", "--identity", "PROP_2_4", "--n", "3", "--x-re", "0", "--y-re", "0.9",
             *BOX],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "invalid input" in err and "gamma * x must be nonzero" in err

    def test_ultra_ortho_unit_beta_exits_2(self, capsys):
        code, _, err = run_cli(
            ["verify", "--identity", "ULTRA_ORTHO", "--beta-re", "1", "--q", "0.5",
             "--m", "2", "--n", "2"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "|beta| < 1" in err

    def test_rogers_defaults(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--identity", "ROGERS_6W5", "--a-re", "0.2", "--b-re", "0.5",
             "--c-re", "0.6", "--d-re", "0.7", "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_PASS
        assert json.loads(out)["passed"] is True

    def test_json_report_is_the_record(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1", *BOX], capsys
        )
        assert code == EXIT_PASS
        rep = check_thm_1_1(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 1, 1)
        assert rep.passed and json.loads(out) == rep.to_record()

    def test_a_flagged_json_report_is_the_record_with_nulls(self, capsys):
        # the CLI writes the flagged report's NaN sides and infinite residuals as null;
        # at q = 0.999 the weight's head needs more factors than MAX_TERMS
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "2", "--n", "2", *BOX[:-2],
             "--q", "0.999"], capsys)
        assert code == EXIT_FAIL
        rep = check_thm_1_1(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.999, 2, 2)
        assert rep.flags == ("TruncationExceeded",)
        rec = json.loads(out)
        assert rec == json_nulls(rep.to_record())
        assert rec["passed"] is False and rec["flags"] == ["TruncationExceeded"]
        assert rec["lhs_re"] is None and rec["abs_residual"] is None

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

    def test_failing_check_exits_1(self, swap_identity, capsys):
        # an impossible registry tolerance forces a verified-false outcome
        swap_identity("THM_1_1", tolerance=1e-300)
        code, out, _ = run_cli(
            ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1", *BOX], capsys
        )
        assert code == EXIT_FAIL
        assert json.loads(out)["passed"] is False


    def test_truncation_trouble_exits_1_not_2(self, capsys):
        # valid input whose product side needs more factors than MAX_TERMS
        code, out, _ = run_cli(
            ["verify", "--identity", "QBINOMIAL", "--a-re", "0.5", "--z-re", "0.5",
             "--q", "0.999"],
            capsys,
        )
        assert code == EXIT_FAIL
        assert "TruncationExceeded" in json.loads(out)["flags"]

    def test_quadrature_that_does_not_settle_exits_1(self, capsys):
        # its levels stay 1e-8 apart up to the 8192-node cap (tests/test_verify.py)
        code, out, _ = run_cli(
            ["verify", "--identity", "ULTRA_ORTHO", "--beta-re", "-0.9239", "--q", "0.8026",
             "--m", "6", "--n", "6"],
            capsys,
        )
        assert code == EXIT_FAIL
        assert json.loads(out)["flags"] == ["NoConvergence"]

    def test_k_reaches_prop_2_2(self, capsys):
        code, out, _ = run_cli(["verify", "--identity", "PROP_2_2", "--k", "2", *BOX], capsys)
        assert code == EXIT_PASS
        assert json.loads(out)["inputs"]["k"] == 2

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_every_schema_parameter_has_a_flag(self, identity, capsys):
        # a sweep draw passed as flags gives the same report as the checker
        record = REGISTRY[identity]
        draw = draw_params(identity, np.random.default_rng(0), 6)
        argv = ["verify", "--identity", identity.value]
        for name in _parameters(record.checker):
            if name not in draw:
                continue
            value = draw[name]
            spelling = _SPELLING.get(name)
            if spelling in (int, float):
                argv += [f"--{name}", repr(value)]
                continue
            if spelling is None:
                parts = ((name, value),)
            else:
                parts = ((part, getattr(value, part)) for part in spelling[1])
            for flag, part in parts:
                part = complex(part)
                argv += [f"--{flag}-re", repr(part.real), f"--{flag}-im", repr(part.imag)]
        code, out, _ = run_cli(argv, capsys)
        report = record.checker(**draw)
        assert code == (EXIT_PASS if report.passed else EXIT_FAIL)
        assert json.loads(out) == json.loads(json.dumps(report.to_record()))

    def test_t_fraction_is_not_a_flag(self, capsys):
        # PROP_2_2's keyword-only tuning arguments are not identity parameters
        code, _, err = run_cli(
            ["verify", "--identity", "PROP_2_2", "--t-fraction", "0.5", *BOX], capsys)
        assert code == EXIT_INVALID
        assert "--t-fraction" in err


# Every option string of each subcommand, in help order.
OPTION_STRINGS = {
    "eval": ["-h", "--help", "--q", "--n", "--theta", "--alpha-re", "--alpha-im", "--beta-re",
             "--beta-im", "--gamma-re", "--gamma-im", "--delta-re", "--delta-im", "--x-re",
             "--x-im", "--y-re", "--y-im", "--a-re", "--a-im", "--z-re", "--z-im",
             "--num", "--den", "--out"],
    "verify": ["-h", "--help", "--identity", "--alpha-re", "--alpha-im", "--beta-re",
               "--beta-im", "--gamma-re", "--gamma-im", "--delta-re", "--delta-im", "--q",
               "--m", "--n", "--s-re", "--s-im", "--t-re", "--t-im", "--a-re", "--a-im",
               "--b-re", "--b-im", "--theta", "--k", "--x-re", "--x-im", "--y-re", "--y-im",
               "--c-re", "--c-im", "--d-re", "--d-im", "--z-re", "--z-im", "--format", "--out"],
    "sweep": ["-h", "--help", "--identity", "--draws", "--seed", "--degree-max", "--format",
              "--out"],
    "table": ["-h", "--help", "--q", "--m", "--alpha-re", "--alpha-im", "--beta-re",
              "--beta-im", "--gamma-re", "--gamma-im", "--delta-re", "--delta-im", "--a-re",
              "--a-im", "--b-re", "--b-im", "--n-max", "--out"],
}


@pytest.mark.parametrize("command", OPTION_STRINGS)
def test_option_strings_are_pinned(command):
    subparsers = build_parser()._subparsers._group_actions[0].choices
    actions = subparsers[command]._actions
    assert [flag for action in actions for flag in action.option_strings] == \
        OPTION_STRINGS[command]


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["verify", "--identity", "THM_1_1", "--m", "0", "--n", "1", "--k", "2", *BOX],
             "--k"),
            # flags of another eval or table function
            (["table", "big_c", "--n-max", "1", *BOX, "--m", "7", "--a-re", "3"],
             "--m, --a-re"),
            (["eval", "big_c", "--n", "1", "--theta", "0", *BOX, "--x-re", "9", "--z-re", "4"],
             "--x-re, --z-re"),
            (["eval", "qpoch", "--a-re", "0.5", "--q", "0.5", "--theta", "1"], "--theta"),
            (["eval", "qpoch", "--a-re", "0.5", "--q", "0.5", "--n", "3", "--x-re", "1"],
             "--x-re"),
        ],
    )
    def test_unread_flag_exits_2(self, argv, unread, capsys):
        # the command parses the flag, and refuses it because it does not read it
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID and out == ""
        assert f"does not read {unread}\n" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--identity", "THM_1_1", "--draws", "2", "--seed", "1", "--alpha-re", "5"],
             "--alpha-re 5"),
            (["eval", "big_c", "--n", "0", "--theta", "0.3", "--tol", "1", *BOX], "--tol 1"),
            (["eval", "big_c", "--n", "0", "--theta", "0.3", "--m", "1", *BOX], "--m 1"),
            # the removed flag: the infinite product is qpoch without --n
            (["eval", "qpoch", "--a-re", "0.5", "--q", "0.5", "--inf"], "--inf"),
        ],
    )
    def test_a_flag_the_subcommand_lacks_is_unrecognized(self, argv, flag, capsys):
        # no function of the subcommand has the flag, so argparse refuses it
        # before any function is chosen
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID and out == ""
        assert f"unrecognized arguments: {flag}" in err and "does not read" not in err


EVAL_METADATA = [
    (["big_c", "--n", "1", "--theta", "0", *BOX], {}),
    (["phi", "--n", "1", "--x-re", "0.7", "--y-re", "0.9", *BOX], {}),
    (["ultra", "--n", "1", "--theta", "0", "--beta-re", "0.3", "--q", "0.5"], {}),
    (["qpoch", "--a-re", "0.5", "--n", "3", "--q", "0.5"], {}),
    (["qpoch", "--a-re", "0.5", "--q", "0.5"], {}),
    (["h", "--n", "1", "--a-re", "0.3", "--q", "0.5"], {}),
    (["weight", "--theta", "0.3", *BOX], {}),
    (["phi_series", "--num", "0.3", "--q", "0.5", "--z-re", "0.4"],
     {"numerators": 1, "denominators": 0}),
]


@pytest.mark.parametrize("argv, fields", EVAL_METADATA)
def test_eval_metadata_holds_only_the_series_parameter_counts(argv, fields, capsys):
    code, out, _ = run_cli(["eval", *argv], capsys)
    assert code == EXIT_PASS
    assert json.loads(out)["metadata"] == fields


@pytest.mark.parametrize("flag", ["--rel-tol", "--max-terms", "--nodes", "--max-nodes", "--tol"])
@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "THM_1_1", "--m", "1", "--n", "1", *BOX],
    ["sweep", "--identity", "QBINOMIAL", "--draws", "1", "--seed", "1"],
    *(["eval", *argv] for argv, _ in EVAL_METADATA),
])
def test_tuning_flags_are_not_flags(flag, argv, capsys):
    # every check runs at one numerical setting (the constants of qcore and
    # quad) and is judged at its identity's registry tolerance: verify, sweep
    # and every eval function reject the flags that tuned it
    code, out, err = run_cli([*argv, flag, "500"], capsys)
    assert code == EXIT_INVALID and out == ""
    assert f"unrecognized arguments: {flag} 500" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("identity", ["THM_1_3", "PROP_2_1_2"])
    def test_one_degree_cap_bounds_every_degree(self, identity, capsys):
        code, out, _ = run_cli(
            ["sweep", "--identity", identity, "--draws", "8", "--seed", "3",
             "--degree-max", "30"], capsys)
        assert code == EXIT_PASS
        reports = json.loads(out)["reports"]
        want = run_sweep(identity, 3, 8, 30)
        assert reports == json.loads(json.dumps([r.to_record() for r in want]))
        degrees = [r["inputs"][k] for r in reports for k in ("m", "n") if k in r["inputs"]]
        assert max(degrees) > 6 and max(degrees) <= 30

    def test_zero_draws(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--identity", "THM_1_1", "--draws", "0", "--seed", "1"], capsys
        )
        assert code == EXIT_PASS
        assert json.loads(out)["reports"] == []

    def test_negative_draws_exit_2(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--identity", "QBINOMIAL", "--draws", "-1", "--seed", "1"], capsys)
        assert code == EXIT_INVALID and out == ""
        assert err == "invalid input: draws must be a nonnegative integer, got -1\n"

    def test_csv_format_has_one_row_per_draw(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--identity", "QBINOMIAL", "--draws", "3", "--seed", "1",
             "--format", "csv"], capsys)
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["identity"] for row in rows] == ["QBINOMIAL"] * 3
        assert all(row["passed"] == "True" for row in rows)

    def test_a_failing_sweep_exits_1_naming_its_first_failing_draw(self, swap_identity,
                                                                    capsys):
        swap_identity("QBINOMIAL", tolerance=1e-300)
        code, out, err = run_cli(
            ["sweep", "--identity", "QBINOMIAL", "--draws", "3", "--seed", "1"], capsys)
        assert code == EXIT_FAIL
        assert json.loads(out)["all_passed"] is False
        assert err.startswith("draw 0 failed: inputs {")

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

    def test_an_overflowing_connection_coefficient_prints_inf(self, capsys):
        # (a gamma delta)^j overflows; ``**`` raised OverflowError and exited 1
        code, out, _ = run_cli(
            ["table", "connection", "--q", ".5", "--m", "4", "--a-re", ".3", "--b-re", ".2",
             "--gamma-re", "1e100", "--delta-re", "1e100"],
            capsys,
        )
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["k"] for row in rows] == ["0", "1", "2", "3", "4"]
        assert float(rows[0]["coefficient_re"]) == math.inf
        assert math.isfinite(float(rows[4]["coefficient_re"]))

    def test_an_underflowed_q_pochhammer_prints_nan(self, capsys):
        # (q;q)_k underflows to 0 from k = 143 at q = 0.9999
        code, out, _ = run_cli(["table", "big_c", "--n-max", "150", *BOX[:-2], "--q", "0.9999"],
                               capsys)
        assert code == EXIT_PASS
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 151 * 152 // 2
        assert math.isnan(float(rows[-1]["coefficient_re"]))

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

    @pytest.mark.parametrize("bcd", [("0", "0.6", "0.7"), ("0.5", "0", "0.7"),
                                     ("0.5", "0.6", "0")])
    def test_rogers_with_a_zero_denominator_parameter_is_input_error(self, bcd, capsys):
        b, c, d = bcd
        code, out, err = run_cli(
            ["verify", "--identity", "ROGERS_6W5", "--a-re", "0.1", "--b-re", b,
             "--c-re", c, "--d-re", d, "--q", "0.5"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert "nonzero" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "big_c", "--n", "2", "--theta", "nan", *BOX],
        ["eval", "ultra", "--n", "2", "--theta", "nan", "--beta-re", "0.3", "--q", "0.5"],
        ["eval", "weight", "--theta", "nan", *BOX],
        ["eval", "phi", "--n", "2", "--x-re", "nan", "--y-re", "1", *BOX],
        ["eval", "h", "--n", "1", "--a-re", "nan", "--q", "0.5"],
        ["eval", "qpoch", "--n", "1", "--a-re", "nan", "--q", "0.5"],
        ["eval", "phi_series", "--num", "0.3,nan", "--z-re", "0.4", "--q", "0.5"],
        ["table", "ultra", "--n-max", "2", "--beta-re", "nan", "--q", "0.5"],
    ])
    def test_a_non_finite_number_flag_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID and out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--identity", "THM_1_1", "--draws", "2", "--seed", "1", "--degree-max", "-1"],
        ["table", "big_c", "--n-max", "-1", *BOX],
    ])
    def test_a_negative_degree_cap_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID and out == ""
        assert "_max must be a nonnegative integer" in err

    def test_a_negative_seed_exits_2_naming_it(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--identity", "THM_1_1", "--draws", "2", "--seed", "-1"], capsys)
        assert code == EXIT_INVALID and out == ""
        assert "seed must be a nonnegative integer, got -1" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--identity", "QBINOMIAL", "--a-re", "0.5", "--z-re", "0.5", "--q", "0.5"],
        ["eval", "qpoch", "--a-re", "0.5", "--q", "0.5", "--n", "3"],
        ["sweep", "--identity", "ROGERS_6W5", "--draws", "1", "--seed", "1"],
        ["table", "ultra", "--n-max", "2", "--beta-re", "0.3", "--q", "0.5"],
    ])
    def test_out_into_a_missing_directory_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        code, stdout, err = run_cli([*argv, "--out", str(out)], capsys)
        assert code == EXIT_INVALID and stdout == ""
        assert err.startswith("invalid input: ") and str(out) in err
        assert "Traceback" not in err

    def test_eval_takes_no_format_flag(self, capsys):
        code, out, err = run_cli(
            ["eval", "qpoch", "--a-re", "0.5", "--q", "0.5", "--n", "3", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_INVALID and out == ""
        assert "--format" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qortho.cli", "eval", "ultra", "--n", "1",
             "--theta", "0", "--beta-re", "0.3", "--q", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value_re"] == pytest.approx(2.8)

    def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(self):
        # ``qortho verify ... | head -c 200``: here the reading end is closed
        # before the process starts, so its first write meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qortho.cli", "verify", "--identity", "ROGERS_6W5",
                 "--a-re", "0.2", "--b-re", "0.5", "--c-re", "0.6", "--d-re", "0.7",
                 "--q", "0.5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == EXIT_PASS
