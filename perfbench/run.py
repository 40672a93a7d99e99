"""Layered benchmark for qortho.

Usage (from the repository root):

    python3 perfbench/run.py --workload circle_quadrature --seed 1 --seconds 20 --trace 0

Workloads (see gen.py for the inputs, and BENCHMARK.json):

    circle_quadrature  THM_1_1, THM_1_2, THM_1_3, ULTRA_ORTHO checker calls
    cli_cold           one ``python -m qortho.cli verify`` process per operation

Each run is a closed loop with one client.  With ``--trace 0`` the time is
split over WORKERS fresh single-threaded worker processes, run one after
another, each on its own stream of seeded inputs; the end-to-end metrics are

    draws_per_s          operations completed per second of operation time
                         (inputs are drawn between operations, untimed)
    draw_ms_p50/_p90     per-operation latency over all workers
    tol_headroom_digits  5th percentile of log10(tolerance / rel_residual)
                         over a fixed prefix of every stream; fixed by seed
                         and code
    setup_s              median over workers of spawn to first timed operation
    peak_rss_mb          median over workers of peak RSS (of the CLI children
                         on cli_cold)

The failed share (failed / attempted) is printed and counted in the result
line.  With ``--trace 1`` one worker runs one stream untraced, then traced
with every layer's public functions wrapped, and reports per-layer metrics;
the spans go to .bench_out/.  The last line of stdout is the JSON result; a
fuller record, with the environment and the inputs' digest, goes to
.bench_out/ too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans
import stats
from worker import ROOT, child_env

WORKER = Path(__file__).with_name("worker.py")
WORKERS = 4
HEADROOM_PERCENTILE = 5
WORKER_SLACK_S = 60

END_TO_END = {"draws_per_s": "1/s", "draw_ms_p50": "ms", "draw_ms_p90": "ms",
              "tol_headroom_digits": "digits", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in spans.TARGETS.items():
        for fname in names:
            stats_ = ("incl_ms", "self_ms") if module == "verify" else ("calls", "self_ms")
            for stat in stats_:
                units[f"{module}.{fname}.{stat}"] = "count/op" if stat == "calls" else "ms/op"
    units.update({name: "count/op" for name in spans.COUNTERS})
    units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
                  "trace.overhead_ratio": "ratio"})
    return units


def environment() -> dict:
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        cpu = None
    env = child_env()
    record = {
        "python": platform.python_version(),
        "QORTHO_NUMBA": os.environ.get("QORTHO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "blas_threads": {v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS")},
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        record["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                              text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout
        record["git_dirty"] = bool(status.strip())
    return record


def run_worker(args, chunk: int, seconds: float) -> dict:
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
         "--chunk", str(chunk), "--seconds", repr(seconds), "--trace", str(args.trace),
         "--spawned-at", repr(spawned_at)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=seconds + WORKER_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {chunk} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workers: list[dict]) -> dict:
    latencies = [s for w in workers for s in w["latencies_s"]]
    lat = stats.latency_summary(latencies)
    heads = [h for w in workers for h in w["headroom_digits"]]
    values = {
        "draws_per_s": len(latencies) / math.fsum(latencies),
        "draw_ms_p50": lat["p50_ms"],
        "draw_ms_p90": lat["p90_ms"],
        # no headroom when every accuracy report failed; the run is incorrect then
        "tol_headroom_digits": stats.percentile(heads, HEADROOM_PERCENTILE) if heads else 0.0,
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    notes = {
        "draws_per_s": f"{lat['samples']} operations",
        "draw_ms_p50": f"{lat['samples']} samples",
        "draw_ms_p90": f"{lat['samples']} samples, {lat['samples_above_p90']} above",
        "tol_headroom_digits": f"p{HEADROOM_PERCENTILE} of {len(heads)} reports",
        "setup_s": f"median of {len(workers)} processes",
        "peak_rss_mb": f"median of {len(workers)} processes",
    }
    return {name: {"value": v, "unit": END_TO_END[name], "note": notes[name]}
            for name, v in values.items()}


def per_layer(worker: dict) -> dict:
    layers, units = worker["layers"], per_layer_units()
    values = {}
    for name in units:
        if name in worker["counts"]:
            values[name] = worker["counts"][name]
        elif name in worker["probes"]:
            values[name] = worker["probes"][name]
        elif name == "trace.overhead_ratio":
            values[name] = worker["overhead_ratio"]
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = layers.get(span, {}).get(stat, 0.0)
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qortho" / "__init__.py").is_file():
        print(f"qortho sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    # byte-compile once, so that no worker's set-up pays for it
    subprocess.run([sys.executable, "-c", "import qortho.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=WORKER_SLACK_S)

    if args.trace:
        workers = [run_worker(args, 0, args.seconds)]
    else:
        workers = [run_worker(args, chunk, args.seconds / WORKERS) for chunk in range(WORKERS)]
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    problems = [f"{len(failures)} failed operations"] if failures else []
    if args.trace:
        w = workers[0]
        metrics = per_layer(w)
        if w["mismatched"]:
            problems.append(f"traced reports differ at operation indices {w['mismatched'][:10]}")
        if w["silent_layers"]:
            problems.append(f"no calls into dominant layers {w['silent_layers']}")
    else:
        metrics = end_to_end(workers)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env | {"numpy": workers[0]["numpy"],
                                                   "backend": workers[0]["backend"]},
        "inputs_sha256": gen.inputs_digest([w["inputs_sha256"] for w in workers]),
        "fail_share": len(failures) / attempted, "failures": failures[:20],
        "problems": problems, "metrics": metrics,
    }
    if args.trace:
        record |= {k: workers[0][k] for k in ("top_self_share", "bindings",
                                              "ops_traced", "spans_file")}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"result_{args.workload}_{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256 {record['inputs_sha256'][:16]}")
    for name, m in metrics.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  fail_share {record['fail_share']:.6g} ({len(failures)}/{attempted})")
    if args.trace:
        top = ", ".join(f"{k} {v:.1%}" for k, v in workers[0]["top_self_share"].items())
        print(f"  largest self-time shares: {top}")
        if workers[0]["bindings"]["absent"]:
            print(f"  targets qortho no longer defines: {workers[0]['bindings']['absent']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    for f in failures[:3]:
        print(f"  failed: {f['op']['identity']} {f['error']} inputs {json.dumps(f['op']['args'])}")
    print(f"  full record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
