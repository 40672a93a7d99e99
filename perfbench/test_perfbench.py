"""Tests of the benchmark's own helpers.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import calls
import gen
import run
import spans
import stats


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_latency_summary_states_sample_counts():
    summary = stats.latency_summary([i / 1000.0 for i in range(1, 101)])  # 1..100 ms
    assert summary["samples"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p90_ms"] == pytest.approx(90.1)
    assert summary["samples_above_p90"] == 10


def test_self_time_subtracts_children_on_a_nested_tree():
    # op 0: root [0, 10] with child a [1, 4] (grandchild g [2, 3]) and child
    # b [5, 9]; op 1: a second root of the same name [20, 22] with no children
    tree = [
        (0, 3, 2, "g", 2.0, 3.0),
        (0, 2, 1, "a", 1.0, 4.0),
        (0, 4, 1, "b", 5.0, 9.0),
        (0, 1, None, "root", 0.0, 10.0),
        (1, 5, None, "root", 20.0, 22.0),
    ]
    assert spans.self_times(tree) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 2.0}
    agg = spans.aggregate(tree)
    assert agg["root"] == {"calls": 2, "incl_s": 12.0, "self_s": 5.0}
    assert agg["a"] == {"calls": 1, "incl_s": 3.0, "self_s": 2.0}
    assert sum(v["self_s"] for v in agg.values()) == 12.0  # self times tile the roots


def test_tracer_records_parents_and_adopts_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    tracer.op_id = 7
    assert tracer.call("op", outer, 1) == 3
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[3], []).append(s)
    (op,), (out,) = by_name["op"], by_name["outer"]
    assert op[2] is None and out[2] == op[1]
    assert [s[2] for s in by_name["inner"]] == [out[1], out[1]]
    assert {s[0] for s in tracer.spans} == {7}

    child = [(0, 1, None, "cli.import", 1.0, 2.0), (0, 2, None, "cli.main", 2.0, 3.0),
             (0, 3, 2, "qcore.tail_start", 2.5, 2.6)]
    tracer.op_id = 8
    tracer.adopt("cli.process", 0.5, 3.5, child, {"x": 2})
    adopted = [s for s in tracer.spans if s[0] == 8]
    ids = [s[1] for s in tracer.spans]
    assert len(ids) == len(set(ids))
    root = next(s for s in adopted if s[3] == "cli.process")
    main = next(s for s in adopted if s[3] == "cli.main")
    assert main[2] == root[1]
    assert next(s for s in adopted if s[3] == "qcore.tail_start")[2] == main[1]
    assert tracer.counts["x"] == 2


def test_generator_is_deterministic_and_seed_dependent():
    for workload, slots in gen.WORKLOADS.items():
        first = gen.generate(workload, 11, 0, 40)
        assert first == gen.generate(workload, 11, 0, 40)
        assert gen.inputs_digest(first) == gen.inputs_digest(gen.generate(workload, 11, 0, 40))
        assert gen.inputs_digest(first) != gen.inputs_digest(gen.generate(workload, 12, 0, 40))
        assert gen.inputs_digest(first) != gen.inputs_digest(gen.generate(workload, 11, 1, 40))
        assert gen.generate(workload, 11, 0, 10) == first[:10]
        assert len({json.dumps(op, sort_keys=True) for op in first}) == len(first)
        assert [op["identity"] for op in first[:len(slots)]] == [tag for tag, _ in slots]


def _loaded_qortho_modules():
    import qortho.cli  # noqa: F401

    return [m for name, m in sys.modules.items() if name.split(".")[0] == "qortho"]


def test_install_rebinds_every_binding_and_uninstall_restores():
    import qortho
    from qortho import cli, hyper, kernels, qcore, verify

    originals = {f"{m}.{f}": getattr(sys.modules[f"qortho.{m}"], f)
                 for m, names in spans.TARGETS.items() for f in names}
    tracer = spans.Tracer()
    bindings = tracer.install()
    try:
        assert set(bindings["replaced"]) == set(originals) and not bindings["absent"]
        assert hyper.qpoch_infinite is not originals["qcore.qpoch_infinite"]
        assert cli.qpoch_infinite is qcore.qpoch_infinite
        assert verify._CHECKERS[verify.IdentityId.THM_1_1] is verify.check_thm_1_1
        assert qortho.check_thm_1_1 is verify.check_thm_1_1
        assert kernels.poch_product_many is not originals["kernels.poch_product_many"]
        leftover = {id(fn) for fn in originals.values()}
        for mod in _loaded_qortho_modules():
            for value in vars(mod).values():
                assert id(value) not in leftover
                if isinstance(value, dict):
                    assert not leftover & {id(v) for v in value.values()}
    finally:
        tracer.uninstall()
    assert hyper.qpoch_infinite is originals["qcore.qpoch_infinite"]
    assert verify._CHECKERS[verify.IdentityId.THM_1_1] is originals["verify.check_thm_1_1"]


def test_install_reports_targets_the_program_no_longer_defines(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "qcore", spans.TARGETS["qcore"] + ("not_there",))
    _loaded_qortho_modules()
    tracer = spans.Tracer()
    try:
        assert tracer.install()["absent"] == ["qcore.not_there"]
    finally:
        tracer.uninstall()


def test_tracing_leaves_reports_unchanged():
    ops = [op for w in gen.WORKLOADS for op in gen.generate(w, 3, 0, 6)]
    plain = [calls.report_record(calls.run_checker(op)) for op in ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [calls.report_record(tracer.call("op", calls.run_checker, op)) for op in ops]
    finally:
        tracer.uninstall()
    assert json.dumps(traced) == json.dumps(plain)
    names = {s[3] for s in tracer.spans}
    assert {"kernels.poch_product_many", "quad.periodic_integral", "qcore.qpoch_infinite",
            "hyper.phi_series"} <= names
    assert tracer.counts["quad.periodic_integral.integrand_points"] > 0


def test_cli_flags_reproduce_the_in_process_report():
    from qortho import cli

    for op in gen.generate("cli_cold", 5, 0, 8):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(calls.cli_argv(op)) == 0
        assert json.loads(out.getvalue()) == calls.report_record(calls.run_checker(op))


def test_headroom_is_capped_and_skips_failed_reports():
    rec = {"identity": "QBINOMIAL", "passed": True, "flags": [], "tolerance": 1e-11,
           "rel_residual": 1e-15}
    assert calls.headroom_digits(rec) == pytest.approx(4.0)
    assert calls.headroom_digits(rec | {"rel_residual": 0.0}) == calls.HEADROOM_CAP_DIGITS
    assert calls.headroom_digits(rec | {"passed": False}) is None


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)
