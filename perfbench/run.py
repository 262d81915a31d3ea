"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 8 \\
        --trace 0

Run from the root of a checkout (the directory holding ``nrt_ray``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds an
in-process traced pass and prints the per-layer metrics, the per-layer
CPU share table and the tracing overhead instead.  Before the result
line it prints a run record (host, versions, input size, raw samples).
Spans of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = [("setup_s", "s"), ("op_cpu_ms", "ms"),
              ("throughput_per_cpu_s", "1/cpu_s"), ("peak_rss_mb", "MB"),
              ("store_bytes", "bytes")]

#: metric base name -> span name; each gives ``<base>_s`` (self wall)
#: and ``<base>_cpu_s`` (self CPU)
LAYER_SPANS = [
    ("extract.read", "extract.read"), ("extract.self", "extract"),
    ("assemble.self", "assemble"), ("exchange.self", "exchange"),
    ("fit_monitor.self", "fit_monitor"), ("rollup.self", "rollup"),
    ("compress.encode", "compress.encode"),
    ("compress.decode", "compress.decode"),
    ("manifest.write", "manifest.write"),
    ("manifest.commit", "manifest.commit"),
    ("incremental.load", "incremental.load"),
    ("incremental.update", "incremental.update"),
    ("incremental.persist", "incremental.persist"),
    ("continuous.ingest", "continuous.ingest"),
    ("continuous.checkpoint", "continuous.checkpoint"),
    ("serve.route", "serve.route"), ("serve.file_read", "serve.file_read"),
    ("serve.decode", "serve.decode"),
]

#: spans that are the write path's own work; what a Ray run spends
#: beyond their sum is orchestration
WRITE_PATH = ["extract.read", "extract", "assemble", "exchange",
              "fit_monitor", "rollup", "compress.encode", "manifest.write",
              "manifest.commit", "incremental.load", "incremental.update",
              "incremental.persist"]

SERVE_PATH = ["serve.route", "serve.file_read", "serve.decode"]

LAYER_COUNTS = [
    ("monitor_pipeline.orchestration_s", "s"),
    ("monitor_pipeline.orchestration_cpu_s", "s"),
    ("extract.rows", "count"), ("assemble.series", "count"),
    ("exchange.bytes", "bytes"), ("exchange.skew", "ratio"),
    ("fit_monitor.alerts", "count"),
    ("rollup.observed_buckets", "count"), ("rollup.points", "count"),
    ("rollup.observed_share", "ratio"),
    ("compress.bytes_per_point", "B/point"),
    ("manifest.bytes", "bytes"), ("manifest.files", "count"),
    ("incremental.bytes_rewritten", "bytes"),
    ("incremental.late_rows", "count"),
    ("continuous.apply_task_s", "s"),
    ("serve.bytes_read", "bytes"),
    ("trace.overhead_s", "s"),
]


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for base, _ in LAYER_SPANS:
        out += [(f"{base}_s", "s"), (f"{base}_cpu_s", "s")]
    return out + LAYER_COUNTS


def layer_metrics(run) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads
    0 (the trace saw no span or count for it)."""
    selfs = run.tracer.self_times()
    values = {}
    for base, span in LAYER_SPANS:
        wall, cpu = selfs.get(span, (0.0, 0.0))
        values[f"{base}_s"] = wall
        values[f"{base}_cpu_s"] = cpu
    values.update(run.tracer.counts)
    values.update({k: v for k, v in run.layers.items()
                   if k != "orchestration_from"})
    if "orchestration_from" in run.layers:
        wall, cpu = run.layers["orchestration_from"]
        values["monitor_pipeline.orchestration_s"] = wall - sum(
            selfs.get(s, (0.0, 0.0))[0] for s in WRITE_PATH)
        values["monitor_pipeline.orchestration_cpu_s"] = cpu - sum(
            selfs.get(s, (0.0, 0.0))[1] for s in WRITE_PATH)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer_units()}


def share_table(run) -> str:
    """Share of the workload's CPU time by layer; on ``flagship`` this is
    the ROADMAP's "share of CPU time by layer" profile."""
    selfs = run.tracer.self_times()
    cpu = {s: selfs[s][1] for s in WRITE_PATH + SERVE_PATH if s in selfs}
    total = sum(cpu.values()) or 1.0
    lines = ["| layer | self CPU s | share |", "|---|---|---|"]
    for s, v in sorted(cpu.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {s} | {v:.3f} | {100 * v / total:.1f}% |")
    return "\n".join(lines)


def host_steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests while this host's
    vCPUs wanted to run (``steal`` in ``/proc/stat``, summed over vCPUs).
    Its change over a run tells a slow run on a busy host from a slow
    program."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def source_record() -> dict:
    """What keeps numbers from different code and hosts apart."""
    import numpy
    import pyarrow
    import ray
    digest = hashlib.sha256()
    for d, _, names in sorted(os.walk(os.path.join(ROOT, "nrt_ray"))):
        for n in sorted(names):
            if n.endswith(".py"):
                with open(os.path.join(d, n), "rb") as f:
                    digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "host": platform.node(), "cpu": platform.processor()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "increment", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "toy"], default="full",
                    help="input size; 'toy' is for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "nrt_ray")):
        print(f"no nrt_ray package under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import inputs, workloads
    from perfbench.trace import RssSampler

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    run = workloads.Run(root=ROOT, work=work, workload=args.workload,
                        seed=args.seed,
                        size=inputs.SIZES[args.size][args.workload],
                        seconds=args.seconds, trace=bool(args.trace))
    # a terminated run still stops Ray and waits for its processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    t0, steal0 = time.perf_counter(), host_steal_s()
    try:
        with RssSampler(run.tree) as run.rss:
            getattr(workloads, args.workload)(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workloads.stop_ray(run)
        shutil.rmtree(work, ignore_errors=True)
    # each op's peak (flagship: one run_pipeline; increment: one batch in
    # either mode, or the checkpoint; serve: the whole request loop),
    # median over ops
    peaks = [p for w in run.windows if (p := run.rss.peak(*w)) is not None]
    run.end_to_end["peak_rss_mb"] = statistics.median(peaks) / 2**20
    run.record["op_peak_rss_mb"] = [round(p / 2**20, 1) for p in peaks]

    run.record.update(source_record(), workload=args.workload,
                      seed=args.seed, seconds=args.seconds,
                      trace=args.trace, size=args.size,
                      nproc=workloads.nproc(),
                      cpus_visible=len(os.sched_getaffinity(0)),
                      run_wall_s=round(time.perf_counter() - t0, 3),
                      host_steal_s=round(host_steal_s() - steal0, 2),
                      error_rate=run.failed / max(run.attempted, 1),
                      problems=run.problems[:10])
    print(json.dumps({"record": run.record}, default=str))
    if args.trace:
        out = os.path.join(ROOT, ".perfbench_out",
                           f"spans-{args.workload}-{args.seed}.jsonl")
        run.tracer.dump(out)
        print(f"spans: {out}")
        print(share_table(run))
        metrics = layer_metrics(run)
    else:
        metrics = {name: {"value": float(run.end_to_end[name]),
                          "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
