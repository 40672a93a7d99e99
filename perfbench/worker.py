"""One fresh benchmark process: set up, run one input stream of a workload in
a closed loop with one client, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  Set-up runs from the
parent's spawn time (``--spawned-at``, on ``time.monotonic``, which is the
system-wide CLOCK_MONOTONIC on Linux) to the first timed operation: the
interpreter, ``import qortho`` and warm-up.  Inputs are drawn between
operations, outside the timed calls.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import calls
import gen
import spans
import stats

ROOT = Path(__file__).resolve().parent.parent

# The first operations of every stream, whose reports feed the accuracy metric
# and whose inputs feed the digest, so that both depend only on seed and code.
# In-process workers time at least this many; on cli_cold they are in-process
# reference reports, which every CLI record must equal.
ACCURACY_OPS = {"circle_quadrature": 200, "cli_cold": 250}
# Untimed warm-up operations, drawn from a stream of their own.
WARMUP_OPS = {"circle_quadrature": 8, "cli_cold": 1}

# The layers each workload was chosen to stress (hyper: cli_cold is its only
# caller); a traced run that records no call into one of them measures
# something else and fails.
DOMINANT = {"circle_quadrature": ("kernels", "quad"), "cli_cold": ("cli", "verify", "hyper")}
PROBES = 5
CHILD_TIMEOUT_S = 60
# The traced pass ends early once it holds this many spans (about 45 MB).
SPAN_BUDGET = 200_000


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def canonical(rec) -> str:
    """Exact text of a record: floats print all their digits and -0.0 stays
    distinct from 0.0."""
    return json.dumps(rec, sort_keys=True)


class InProcess:
    """Operations as checker calls in this process."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def call(self, index, op):
        if self.tracer is None:
            return calls.run_checker(op)
        self.tracer.op_id = index
        return self.tracer.call("bench.op", calls.run_checker, op)

    def record(self, report):
        return calls.report_record(report), None


class ColdCli:
    """Operations as one ``qortho verify`` process each.  Traced, the process
    is ``tracecli.py``, which times the import and wraps the layers."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.env = child_env()
        if tracer is None:
            self.prefix = [sys.executable, "-m", "qortho.cli"]
        else:
            self.prefix = [sys.executable, str(Path(__file__).with_name("tracecli.py"))]

    def call(self, index, op):
        start = time.perf_counter()
        proc = subprocess.run(self.prefix + calls.cli_argv(op), env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        if self.tracer is not None and proc.returncode == 0:
            trace = json.loads(proc.stderr.strip().splitlines()[-1])
            self.tracer.op_id = index
            self.tracer.adopt("cli.process", start, end, trace["spans"], trace["counts"])
        return proc

    def record(self, proc):
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        try:
            return json.loads(proc.stdout), None
        except json.JSONDecodeError:
            return None, f"output is not a JSON report: {proc.stdout[:200]!r}"


def run_loop(runner, ops, seconds, min_ops, keep=math.inf):
    """Closed loop over the iterator ``ops`` for ``seconds`` and at least
    ``min_ops`` operations.  Returns the latency of each operation, the
    records of the first ``keep`` and the failures."""
    latencies, records, failures = [], [], []
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(ops):
        if index >= min_ops and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            raw, error = runner.call(index, op), None
        except Exception as exc:  # an escaping exception is a failed operation
            raw, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        rec = None
        if error is None:
            rec, error = runner.record(raw)
        if rec is not None and not calls.record_ok(rec):
            error = f"passed={rec['passed']} flags={rec['flags']}"
        if error is not None:
            failures.append({"index": index, "op": op, "error": error})
        if index < keep:
            records.append(rec)
    return latencies, records, failures


def probe_cli(seed) -> dict:
    """cli.interpreter_ms, cli.import_ms (fresh interpreters) and cli.main_ms
    (in-process ``cli.main`` after import), each a median over PROBES."""
    env = child_env()
    interp, imports = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True,
                       timeout=CHILD_TIMEOUT_S)
        interp.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import qortho.cli; "
             "print(time.perf_counter() - t)"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        imports.append(float(out.stdout))
    from qortho import cli

    mains = []
    for op in gen.generate("cli_cold", seed, "probe", PROBES):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(calls.cli_argv(op))
        mains.append(time.perf_counter() - start)
    return {name: 1000.0 * stats.percentile(v, 50) for name, v in
            (("cli.interpreter_ms", interp), ("cli.import_ms", imports), ("cli.main_ms", mains))}


def setup(args):
    import numpy
    from qortho import kernels  # imports the whole package, a set-up cost

    runner_cls = ColdCli if args.workload == "cli_cold" else InProcess
    warm = gen.generate(args.workload, args.seed, "warmup", WARMUP_OPS[args.workload])
    run_loop(runner_cls(), iter(warm), 0.0, len(warm))
    return runner_cls, {"numpy": numpy.__version__, "backend": kernels.BACKEND}


def reference(op):
    """The in-process record for an operation, or None if the checker raised."""
    try:
        return calls.report_record(calls.run_checker(op))
    except Exception:  # the CLI run of the same inputs then fails too
        return None


def timed(args, runner_cls):
    count = ACCURACY_OPS[args.workload]
    ops = gen.stream(args.workload, args.seed, args.chunk)
    if runner_cls is ColdCli:
        latencies, cli_recs, failures = run_loop(ColdCli(), ops, args.seconds, 1)
        prefix = gen.generate(args.workload, args.seed, args.chunk, max(count, len(cli_recs)))
        refs = [reference(op) for op in prefix]
        for index, rec in enumerate(cli_recs):
            if rec is not None and canonical(rec) != canonical(refs[index]):
                failures.append({"index": index, "op": prefix[index],
                                 "error": "CLI record differs from the in-process report"})
        records = refs[:count]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        latencies, records, failures = run_loop(InProcess(), ops, args.seconds, count, count)
        prefix = gen.generate(args.workload, args.seed, args.chunk, count)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    heads = (calls.headroom_digits(rec) for rec in records if rec is not None)
    return {
        "inputs_sha256": gen.inputs_digest(prefix[:count]),
        "latencies_s": latencies,
        "headroom_digits": [h for h in heads if h is not None],
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(latencies),
        "failures": failures,
    }


def traced(args, runner_cls):
    """Untraced then traced passes over the same inputs, half the time each
    (the traced one at most SPAN_BUDGET spans).  Reports must match bit for
    bit."""
    probes = probe_cli(args.seed)
    half = args.seconds / 2.0
    plain_lat, plain, failures = run_loop(
        runner_cls(), gen.stream(args.workload, args.seed, args.chunk), half, 1)
    tracer = spans.Tracer()
    bindings = tracer.install()
    try:
        stream = gen.stream(args.workload, args.seed, args.chunk)
        budgeted = itertools.takewhile(lambda _: len(tracer.spans) < SPAN_BUDGET, stream)
        traced_lat, traced_recs, traced_failures = run_loop(runner_cls(tracer), budgeted, half, 1)
    finally:
        tracer.uninstall()
    failures += traced_failures
    common = min(len(plain), len(traced_recs))
    mismatched = [i for i in range(common) if canonical(plain[i]) != canonical(traced_recs[i])]
    ops_traced = len(traced_lat)
    layers = spans.aggregate(tracer.spans)
    silent = [layer for layer in DOMINANT[args.workload]
              if not any(name.startswith(layer + ".") for name in layers)]
    total_self = sum(v["self_s"] for v in layers.values())
    top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans_{args.workload}_{args.seed}.jsonl.gz"
    with gzip.open(span_file, "wt") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "inputs_sha256": gen.inputs_digest(
            gen.generate(args.workload, args.seed, args.chunk, ACCURACY_OPS[args.workload])),
        "attempted": len(plain_lat) + ops_traced,
        "failures": failures,
        "ops_traced": ops_traced,
        "mismatched": mismatched,
        "silent_layers": silent,
        "bindings": bindings,
        "layers": {name: {"calls": v["calls"] / ops_traced,
                          "incl_ms": 1000.0 * v["incl_s"] / ops_traced,
                          "self_ms": 1000.0 * v["self_s"] / ops_traced}
                   for name, v in layers.items()},
        "counts": {name: tracer.counts[name] / ops_traced for name in spans.COUNTERS},
        "probes": probes,
        # throughput ratio on the operations both passes ran
        "overhead_ratio": sum(plain_lat[:common]) / sum(traced_lat[:common]),
        "top_self_share": {name: v["self_s"] / total_self for name, v in top},
        "spans_file": str(span_file.relative_to(ROOT)),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunk", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    runner_cls, info = setup(args)
    info["setup_s"] = time.monotonic() - args.spawned_at
    run = traced if args.trace else timed
    print(json.dumps(info | run(args, runner_cls)))


if __name__ == "__main__":
    main()
