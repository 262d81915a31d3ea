"""The three benchmark workloads: ``flagship``, ``increment``, ``serve``.

Each workload has a set-up (input generation, Ray start, and for
``increment`` / ``serve`` the store they start from), a measured loop of
operations against the engine's public functions, an output check, and,
when traced, an in-process pass through the same layers with a span
around each layer's public function.

* ``flagship``: one op is one ``run_pipeline`` (EWMA, default 1h/1d/1w
  tiers) over the crawl table into a fresh store.  It drives every
  write-side layer, including hot-url salting and the merge phase.
* ``increment``: one op is one micro-batch applied through both increment
  modes: ``run_increment`` on one copy of the base store, then
  ``ContinuousMonitor.ingest`` on another.  Batches are small, so
  per-batch fixed costs dominate.
* ``serve``: one op is one dashboard request, a ``lookup_url`` plus a
  ``read_url_range`` from a single closed-loop caller.  No fit, rollup or
  write runs; only routing, partition file reads and segment decode.
"""

from __future__ import annotations

import glob
import hashlib
import logging
import math
import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import inputs
from perfbench.trace import ProcTree, RssSampler, Tracer

INPUT_COLUMNS = ["url", "warc_ts", "text"]

#: set-ups per run; ``setup_s`` takes their median
SETUPS = 3


@dataclass
class Run:
    """Everything one benchmark run owns."""
    root: str                 # checkout root (holds ``nrt_ray``)
    work: str                 # scratch directory inside the checkout
    workload: str
    seed: int
    size: inputs.Size
    seconds: float
    trace: bool
    tree: ProcTree = field(default_factory=ProcTree)
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    record: dict = field(default_factory=dict)     # run record fields
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)     # per-layer extras
    rss: RssSampler | None = None
    #: (start, end) of each op; ``peak_rss_mb`` is the median of their
    #: peak RSS
    windows: list = field(default_factory=list)

    def __post_init__(self):
        self.tracer = Tracer(f"{self.workload}-{self.seed}",
                             enabled=self.trace, tree=self.tree)

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)


# -- shared helpers --------------------------------------------------------

def start_ray(run: Run) -> None:
    """Start Ray with ``num_cpus = nproc`` and a runtime env that puts the
    checkout on every worker's import path, whatever the caller's cwd."""
    import ray
    import ray.data

    temp = os.path.join(run.root, ".perfbench_ray")
    # AF_UNIX socket paths are limited to 107 bytes; Ray nests its
    # sockets ~63 characters below the temp dir
    kw = {"_temp_dir": temp} if len(temp) <= 44 else {}
    ray.init(num_cpus=nproc(), include_dashboard=False,
             log_to_driver=False, logging_level=logging.ERROR,
             object_store_memory=512 * 1024 * 1024,
             runtime_env={"env_vars": {"PYTHONPATH": run.root}}, **kw)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    run.record["ray_num_cpus"] = int(ray.cluster_resources()["CPU"])
    run.record["ray_temp_in_checkout"] = bool(kw)


def set_up(run: Run, t0: float, build):
    """Start Ray and warm it with one ``run_pipeline`` over a tiny seeded
    input, so its worker is up and has imported the engine; the start is
    everything since ``t0`` (engine imports included).  Ray starts once
    per process: a cold restart costs several seconds, so it is not
    repeated.  Then run ``build`` -- input generation and the store the
    workload starts from -- ``SETUPS`` times into a fresh ``setup/``
    directory.  ``setup_s`` is the start plus the median build; returns
    the last build's result."""
    start_ray(run)
    warm = run.path("warm")
    table = inputs.crawl_table(run.seed, inputs.WARM)
    _pipeline(run, inputs.write(table, os.path.join(warm, "in.parquet")),
              os.path.join(warm, "out"))
    shutil.rmtree(warm)
    start_s = time.perf_counter() - t0
    walls = []
    for _ in range(SETUPS):
        shutil.rmtree(run.path("setup"), ignore_errors=True)
        w0 = time.perf_counter()
        out = build()
        walls.append(time.perf_counter() - w0)
    run.record.update(start_s=round(start_s, 4),
                      setup_builds_s=[round(w, 4) for w in walls])
    run.end_to_end["setup_s"] = start_s + statistics.median(walls)
    return out


def stop_ray(run: Run, timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended,
    killing any still alive after ``timeout_s``."""
    import ray
    ray.shutdown()
    for kill in (False, True):
        deadline = time.monotonic() + timeout_s
        while len(run.tree.pids()) > 1 and time.monotonic() < deadline:
            try:        # reap direct children so they leave /proc
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            time.sleep(0.1)
        if kill:
            return
        for pid in run.tree.pids()[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def nproc() -> int:
    """What GNU ``nproc`` prints: ``OMP_NUM_THREADS`` when set, else the
    CPUs this process may run on."""
    try:
        return max(1, int(os.environ["OMP_NUM_THREADS"]))
    except (KeyError, ValueError):
        return len(os.sched_getaffinity(0))


def dir_bytes(path: str) -> tuple[int, int]:
    """(bytes, files) of every regular file under ``path``."""
    total = files = 0
    for d, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(d, n))
            files += 1
    return total, files


def record_input(run: Run, table: pa.Table) -> None:
    """Input size fields of the run record."""
    run.record.update(urls=len(set(table.column("url").to_pylist())),
                      rows=table.num_rows,
                      class_rows=inputs.class_rows(table),
                      partitions=run.size.partitions)


def pct(values, q: float) -> float:
    """Percentile by linear interpolation (``numpy`` default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def split_by_pid(table: pa.Table) -> list[pa.Table]:
    """One table per non-empty ``pid``, like a hash exchange's reduce."""
    if not table.num_rows:
        return []
    table = table.take(pc.sort_indices(table.column("pid")))
    pid = table.column("pid").to_numpy()
    starts = np.flatnonzero(np.r_[True, pid[1:] != pid[:-1]])
    ends = np.r_[starts[1:], len(pid)]
    return [table.slice(s, e - s) for s, e in zip(starts, ends)]


def partitions(out_dir: str, table: str) -> dict[int, str]:
    """``{pid: file}`` of one output table."""
    out = {}
    for f in glob.glob(os.path.join(out_dir, table, "part=*",
                                    "part.parquet")):
        out[int(f.split("part=")[1].split(os.sep)[0])] = f
    return out


def decode_partition(path: str, tracer: Tracer) -> pa.Table:
    """All tier points of one segments file, sorted by
    ``(url, tier, bucket_ts)``."""
    from nrt_ray.stages.compress import decode_segments_table
    seg = pq.read_table(path)
    with tracer.span("compress.decode"):
        pts = decode_segments_table(seg)
    return pts.take(pc.sort_indices(pts, sort_keys=[
        ("url", "ascending"), ("tier", "ascending"),
        ("bucket_ts", "ascending")]))


def _sha(table: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def store_digest(out_dir: str) -> dict:
    """``{pid: (state_checksum, segments digest)}`` of a committed store.
    The segment codecs are deterministic, so equal segment tables mean
    equal decoded tier points."""
    from nrt_ray.state import manifest
    checksums = {r["partition_id"]: r["state_checksum"]
                 for r in manifest.load_manifest(out_dir)}
    segments = partitions(out_dir, "segments")
    out = {}
    for pid in checksums.keys() | segments.keys():
        digest = None
        if pid in segments:
            seg = pq.read_table(segments[pid])
            digest = _sha(seg.take(pc.sort_indices(seg, sort_keys=[
                ("tier", "ascending"), ("url", "ascending"),
                ("seg_start", "ascending")])))
        out[pid] = (checksums.get(pid), digest)
    return out


def served_points(out_dir: str, tracer: Tracer) -> int:
    """Decoded tier points of a store: every point the read path serves,
    observed and gap-filled."""
    return sum(decode_partition(f, tracer).num_rows
               for f in partitions(out_dir, "segments").values())


def store_stats(out_dir: str, run: Run) -> None:
    """Store-level counters: alerts, rollup points, observed share,
    segment bytes per point."""
    from nrt_ray.pipelines.monitor_pipeline import read_output_table
    points = observed = 0
    for tier in ("1h", "1d", "1w"):
        t = read_output_table(out_dir, f"rollup_{tier}")
        if t is None:
            continue
        points += t.num_rows
        observed += t.num_rows - int(pc.sum(pc.cast(
            t.column("gapfilled"), pa.int64())).as_py() or 0)
    seg = read_output_table(out_dir, "segments")
    payload = sum(int(pc.sum(pc.binary_length(seg.column(c))).as_py())
                  for c in ("payload_ts", "payload_value"))
    n = int(pc.sum(seg.column("n_points")).as_py())
    alerts = read_output_table(out_dir, "alerts")
    run.layers["fit_monitor.alerts"] = \
        0 if alerts is None else alerts.num_rows
    run.layers["rollup.points"] = points
    run.layers["rollup.observed_buckets"] = observed
    run.layers["rollup.observed_share"] = observed / points
    run.layers["compress.bytes_per_point"] = payload / n


def exchange_probe(run: Run, table: pa.Table, num_partitions: int) -> None:
    """The engine's hash exchange with an identity reduce over ``table``
    (rows carry ``pid``): wall and process-tree CPU, bytes moved, and
    skew as max partition rows over mean partition rows."""
    import ray.data

    from nrt_ray.stages.exchange import exchange_map_groups

    def identity(group: pa.Table) -> pa.Table:
        return pa.table({"rows": [group.num_rows],
                         "bytes": [group.nbytes]})

    ds = ray.data.from_arrow(table)
    with run.tracer.span("exchange", tree=True):
        out = exchange_map_groups(ds, num_partitions, identity)
    rows = [r for t in out for r in t.to_pylist()]
    run.layers["exchange.bytes"] = sum(r["bytes"] for r in rows)
    run.layers["exchange.skew"] = max(r["rows"] for r in rows) / (
        sum(r["rows"] for r in rows) / num_partitions)


def write_targets(run: Run, assemble_owner):
    """Write-side layer functions rebound during a traced pass."""
    from nrt_ray.stages import compress, rollup
    from nrt_ray.stages.fit_monitor import SeriesFitMonitor
    from nrt_ray.state import manifest

    def written(path, args, kwargs):
        run.tracer.count("manifest.bytes", os.path.getsize(path))
        run.tracer.count("manifest.files", 1)

    return [(assemble_owner, "assemble_series", "assemble", None),
            (SeriesFitMonitor, "__call__", "fit_monitor", None),
            (rollup, "rollup_series_table", "rollup", None),
            (compress, "segments_from_rollups", "compress.encode", None),
            (manifest, "write_partition_table", "manifest.write", written),
            (manifest, "commit_partition", "manifest.commit", None),
            (manifest, "state_checksum", "manifest.commit", None)]


def traced_and_untraced(run: Run, pass_fn) -> None:
    """Run an in-process pass untraced (warming this process), traced,
    then untraced again; the traced wall minus the second untraced wall
    is the tracing overhead."""
    quiet = Tracer(run.tracer.run_id, enabled=False)
    pass_fn(quiet, "warm")
    with run.tracer.span("pass"):
        pass_fn(run.tracer, "traced")
    t0 = time.perf_counter()
    pass_fn(quiet, "untraced")
    run.layers["trace.overhead_s"] = run.tracer.total_wall("pass") \
        - (time.perf_counter() - t0)


# -- flagship ---------------------------------------------------------------

def _pipeline(run: Run, input_path: str, out_dir: str) -> dict:
    from nrt_ray.pipelines.monitor_pipeline import run_pipeline
    return run_pipeline(input_path, out_dir,
                        num_partitions=run.size.partitions)


def expected_hot_urls(table: pa.Table, num_partitions: int) -> list[str]:
    """The auto-salting rule applied to the input's url row counts."""
    from nrt_ray.pipelines import monitor_pipeline as mp
    counts = table.group_by("url").aggregate([("url", "count")])
    n = counts.column("url_count").to_numpy()
    total = int(n.sum())
    floor = max(mp.AUTO_SALT_MIN_ROWS,
                math.ceil(mp.AUTO_SALT_PART_FRAC * total / num_partitions),
                math.ceil(mp.AUTO_SALT_FACTOR * total / len(n)))
    return sorted(u for u, c in zip(counts.column("url").to_pylist(), n)
                  if c >= floor)


def flagship_pass(run: Run, tracer: Tracer, input_path: str,
                  out_dir: str, hot: list[str]) -> pa.Table:
    """``run_pipeline``'s work for the same input, in this process and
    without Ray: read, extract, route + split by partition, the engine's
    ``PartitionProcessor`` per partition, then the hot-url merge phase.
    Returns the routed flat table (the exchange's input)."""
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.sources.extract import ExtractSignal
    from nrt_ray.stages.assemble import add_bucket_column, flatten_series
    from nrt_ray.stages.rollup import DEFAULT_TIERS

    P = run.size.partitions
    with tracer.span("extract.read"):
        hw = mp.global_high_water_us(input_path)
        table = pq.read_table(input_path, columns=INPUT_COLUMNS)
    with tracer.span("extract"):
        flat = ExtractSignal()(table)
    tracer.count("extract.rows", flat.num_rows)
    with tracer.span("assemble"):
        flat = add_bucket_column(flat, P, hot_urls=set(hot),
                                 slice_us=mp.DEFAULT_SALT_SLICE_US)
        groups = split_by_pid(flat)
    kwargs = dict(out_dir=out_dir, run_id="in-process", num_partitions=P,
                  strategy="EWMA", monitor_start="2021-01-01",
                  tiers=DEFAULT_TIERS, high_water_us=hw)
    targets = write_targets(run, mp) if tracer.enabled else []
    with tracer.patched(targets):
        proc = mp.PartitionProcessor(hot_urls=set(hot), **kwargs)
        rows = [proc(g) for g in groups]
        # merge phase, as merge_hot_partitions does it in Ray tasks
        M = max(1, min(mp.DEFAULT_MERGE_TASKS, len(hot)))
        files = sorted(glob.glob(os.path.join(out_dir, "hot_series",
                                              "part=*", "part.parquet")))
        for m in range(M if hot else 0):
            want = pa.array(hot[m::M], pa.string())
            with tracer.span("assemble"):
                parts = []
                for f in files:
                    t = pq.read_table(f)
                    sub = t.filter(pc.is_in(t.column("url"),
                                            value_set=want))
                    if sub.num_rows:
                        parts.append(flatten_series(sub))
                merged = pa.concat_tables(parts, promote_options="default")
                merged = merged.append_column("pid", pa.array(
                    np.full(merged.num_rows, P + m, np.int32)))
            rows.append(mp.PartitionProcessor(**kwargs)(merged))
    tracer.count("assemble.series", sum(r["series"][0].as_py()
                                        for r in rows))
    return flat


def flagship(run: Run) -> None:
    size = run.size
    t0 = time.perf_counter()          # engine imports count as set-up
    from nrt_ray.pipelines.incremental import read_run_config

    def build():
        table = inputs.crawl_table(run.seed, size)
        return table, inputs.write(table, run.path("setup", "crawl.parquet"))

    table, input_path = set_up(run, t0, build)
    record_input(run, table)

    walls, cpus, stores = [], [], []
    hot = expected_hot_urls(table, size.partitions)
    loop_start = time.perf_counter()
    give_up = loop_start + 3 * run.seconds
    # at least five ops: now and then Ray starts a fresh worker inside an
    # op, which then pays the worker's imports (~2.7 s of CPU on one
    # core); five ops keep one or two such ops from moving the median
    while (len(walls) < 5 or sum(walls) < run.seconds) \
            and time.perf_counter() < give_up:
        out = run.path(f"op{len(walls)}")
        c0, w0 = run.tree.cpu_s(), time.perf_counter()
        try:
            _pipeline(run, input_path, out)
        except Exception as e:          # a failed op, not a failed run
            run.op(False, f"run_pipeline raised {e!r}")
            shutil.rmtree(out, ignore_errors=True)
            continue
        walls.append(time.perf_counter() - w0)
        cpus.append(run.tree.cpu_s() - c0)
        run.windows.append((w0, w0 + walls[-1]))
        stores.append(out)

    # reference: the same work in-process, no Ray
    routed = {}

    def one_pass(tracer, tag):
        routed[tag] = flagship_pass(run, tracer, input_path,
                                    run.path(f"in-process-{tag}"), hot)

    if run.trace:
        traced_and_untraced(run, one_pass)
    else:
        one_pass(run.tracer, "untraced")
    want = store_digest(run.path("in-process-untraced"))
    points = served_points(run.path("in-process-untraced"), run.tracer)
    if run.trace:
        run.op(store_digest(run.path("in-process-traced")) == want,
               "traced in-process store differs from the untraced one")
    for out in stores:
        got = store_digest(out)
        persisted = read_run_config(out)["hot_urls"]
        bad = sorted(p for p in want.keys() | got.keys()
                     if want.get(p) != got.get(p))
        run.op(not bad and persisted == hot,
               f"{out}: partitions {bad} differ from the in-process "
               f"pass; hot urls {persisted} vs expected {hot}")
    store = dir_bytes(stores[-1])[0]

    run.record["flagship_wall_s"] = [round(w, 4) for w in walls]
    run.record["flagship_cpu_s"] = [round(c, 4) for c in cpus]
    run.record["tier_points"] = points
    run.end_to_end["op_cpu_ms"] = statistics.median(cpus) * 1e3
    run.end_to_end["throughput_per_cpu_s"] = points / statistics.median(cpus)
    run.end_to_end["store_bytes"] = store
    if run.trace:
        exchange_probe(run, routed["traced"], size.partitions)
        store_stats(run.path("in-process-traced"), run)
        run.layers["orchestration_from"] = (statistics.median(walls),
                                            statistics.median(cpus))


# -- increment --------------------------------------------------------------

def increment_pass(run: Run, tracer: Tracer, store: str,
                   batch_paths: list[str]) -> list[pa.Table]:
    """``run_increment``'s work for each micro-batch, in this process:
    read, extract, dead-letter split, route + split by partition, then
    the engine's ``IncrementProcessor`` load / update / persist per
    partition, and the retention sweep of partitions without rows.
    Returns each batch's routed rows (the exchange's input)."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.sources.extract import ExtractSignal
    from nrt_ray.stages.assemble import add_bucket_column

    config = inc.read_run_config(store)
    P = int(config["num_partitions"])
    hot_sorted, m_tasks, P_total = inc.salted_layout(store, config)
    route = (hot_sorted, m_tasks) if m_tasks else None
    routed = []
    targets = write_targets(run, inc) if tracer.enabled else []
    with tracer.patched(targets):
        for path in batch_paths:
            with tracer.span("extract.read"):
                table = pq.read_table(path, columns=INPUT_COLUMNS)
            with tracer.span("extract"):
                flat = ExtractSignal()(table)
            tracer.count("extract.rows", flat.num_rows)
            hw = int(config["high_water_us"])
            with tracer.span("assemble"):
                ts = flat.column("warc_ts").cast(pa.int64())
                late = pc.less_equal(ts, hw)
                tracer.count("incremental.late_rows", int(pc.sum(
                    pc.cast(late, pa.int64())).as_py()))
                new = add_bucket_column(flat.filter(pc.invert(late)), P,
                                        merge_route=route)
                groups = split_by_pid(new)
            routed.append(new)
            new_hw = max(hw, int(pc.max(ts).as_py()))
            proc = inc.IncrementProcessor(store, "in-process", config,
                                          new_hw)
            seen = set()
            for g in groups:
                pid = int(g.column("pid")[0].as_py())
                seen.add(pid)
                with tracer.span("incremental.load"):
                    old = proc.load_partition(pid)
                with tracer.span("incremental.update"):
                    art = proc.update_partition(g, old)
                tracer.count("assemble.series", art["series_rows"])
                with tracer.span("incremental.persist"):
                    proc.persist_partition(pid, art)
            for pid in sorted(set(range(P_total)) - seen):
                if new_hw <= hw:
                    break
                with tracer.span("incremental.load"):
                    old = proc.load_partition(pid)
                with tracer.span("incremental.update"):
                    art = proc.sweep_update(old)
                if art is not None:
                    with tracer.span("incremental.persist"):
                        proc.persist_partition(pid, art)
            config["high_water_us"] = new_hw
            with tracer.span("manifest.commit"):
                inc.write_run_config(store, config)
    tracer.count("incremental.bytes_rewritten",
                 tracer.counts.get("manifest.bytes", 0))
    return routed


def _by_url(table: pa.Table, *extra) -> pa.Table:
    keys = [("url", "ascending")] + [(c, "ascending") for c in extra]
    return table.take(pc.sort_indices(table, sort_keys=keys))


def _close(a: pa.ChunkedArray, b: pa.ChunkedArray) -> bool:
    """Exact for non-float columns; relative 1e-12 for floats and
    float lists (same list lengths)."""
    t = a.type
    if pa.types.is_list(t):
        a, b = a.combine_chunks(), b.combine_chunks()
        if not a.value_lengths().equals(b.value_lengths()):
            return False
        a, b, t = a.flatten(), b.flatten(), t.value_type
    if not pa.types.is_floating(t):
        return a.equals(b)
    return bool(np.allclose(a.to_numpy(zero_copy_only=False),
                            b.to_numpy(zero_copy_only=False),
                            rtol=1e-12, atol=1e-14, equal_nan=True))


def same_store(a: str, b: str) -> list[str]:
    """Differences between two stores' state and tier contents, under the
    engine's documented increment semantics: float columns (fitted state,
    boundary-bucket sums and means) agree to a relative 1e-12, the rest
    exactly."""
    from nrt_ray.pipelines.monitor_pipeline import read_output_table
    problems = []
    for table, keys in [("state", ())] + [
            (f"rollup_{t}", ("bucket_ts",)) for t in ("1h", "1d", "1w")]:
        ta = _by_url(read_output_table(a, table), *keys)
        tb = _by_url(read_output_table(b, table), *keys)
        if ta.num_rows != tb.num_rows or \
                ta.column_names != tb.column_names:
            problems.append(f"{table}: {ta.num_rows} vs {tb.num_rows} "
                            "rows or different columns")
            continue
        problems += [f"{table}.{c}" for c in ta.column_names
                     if not _close(ta.column(c), tb.column(c))]
    return problems


def increment(run: Run) -> None:
    size = run.size
    t0 = time.perf_counter()          # engine imports count as set-up
    from nrt_ray.pipelines.continuous import ContinuousMonitor
    from nrt_ray.pipelines.incremental import (read_run_config,
                                               run_increment, salted_layout)
    from nrt_ray.pipelines.monitor_pipeline import ingest_webtext

    def build():
        table = inputs.crawl_table(run.seed, size)
        base, batches, on_time = inputs.split_increment(table, run.seed,
                                                        size)
        base_path = inputs.write(base, run.path("setup", "base.parquet"))
        batch_paths = [inputs.write(b, run.path("setup",
                                                f"batch{k}.parquet"))
                       for k, b in enumerate(batches)]
        base_store = run.path("setup", "base")
        _pipeline(run, base_path, base_store)
        return table, base, batches, on_time, batch_paths, base_store

    table, base, batches, on_time, batch_paths, base_store = \
        set_up(run, t0, build)
    record_input(run, table)
    run.record.update(base_rows=base.num_rows,
                      batch_rows=[b.num_rows for b in batches],
                      batch_class_rows=[inputs.class_rows(b)
                                        for b in batches])
    hw = int(base.column("warc_ts").cast(pa.int64()).to_numpy().max())
    late_want = [int((b.column("warc_ts").cast(pa.int64()).to_numpy()
                      <= hw).sum()) for b in batches]

    disc_walls, cont_walls, disc_cpus, cont_cpus = [], [], [], []
    steady_rows, ckpt, ckpt_cpus = [], [], []
    apply_task_s, round_no = 0.0, 0
    loop_start = time.perf_counter()
    while round_no == 0 or time.perf_counter() < loop_start + run.seconds:
        disc, cont = run.path(f"discrete{round_no}"), \
            run.path(f"continuous{round_no}")
        shutil.copytree(base_store, disc)
        shutil.copytree(base_store, cont)
        d_walls, d_cpus = [], []
        for k, p in enumerate(batch_paths):
            c0, w0 = run.tree.cpu_s(), time.perf_counter()
            try:
                s = run_increment(disc, ingest_webtext(p))
                run.op(s["late_rows"] == late_want[k],
                       f"run_increment batch {k}: {s['late_rows']} late "
                       f"rows, expected {late_want[k]}")
            except Exception as e:
                run.op(False, f"run_increment batch {k} raised {e!r}")
            d_walls.append(time.perf_counter() - w0)
            d_cpus.append(run.tree.cpu_s() - c0)
            run.windows.append((w0, w0 + d_walls[-1]))
        c_walls, c_cpus = [], []
        cm = ContinuousMonitor(cont)
        try:
            for k, p in enumerate(batch_paths):
                c0, w0 = run.tree.cpu_s(), time.perf_counter()
                try:
                    with run.tracer.span("continuous.ingest", tree=True):
                        s = cm.ingest(ingest_webtext(p))
                    apply_task_s += s["apply_task_seconds"]
                    run.op(s["late_rows"] == late_want[k],
                           f"ingest batch {k}: {s['late_rows']} late "
                           f"rows, expected {late_want[k]}")
                except Exception as e:
                    run.op(False, f"ingest batch {k} raised {e!r}")
                c_walls.append(time.perf_counter() - w0)
                c_cpus.append(run.tree.cpu_s() - c0)
                run.windows.append((w0, w0 + c_walls[-1]))
            c0, w0 = run.tree.cpu_s(), time.perf_counter()
            with run.tracer.span("continuous.checkpoint", tree=True):
                cm.checkpoint()
            ckpt.append(time.perf_counter() - w0)
            ckpt_cpus.append(run.tree.cpu_s() - c0)
            run.windows.append((w0, w0 + ckpt[-1]))
        finally:
            cm.close()
        # the first batch of each mode pays one-off costs (actor start,
        # cache warm-up); steady batches are the rest.  The checkpoint
        # persists what every batch ingested, so each continuous batch
        # carries an equal share of its CPU time.
        share = ckpt_cpus[-1] / len(batch_paths)
        disc_walls += d_walls[1:]
        cont_walls += c_walls[1:]
        disc_cpus += d_cpus[1:]
        cont_cpus += [c + share for c in c_cpus[1:]]
        steady_rows += [b.num_rows for b in batches[1:]]
        if round_no:
            shutil.rmtree(run.path(f"discrete{round_no - 1}"))
            shutil.rmtree(run.path(f"continuous{round_no - 1}"))
        round_no += 1

    # reference: one run_pipeline over base + every on-time holdout row
    oneshot = run.path("oneshot")
    _pipeline(run, inputs.write(on_time, run.path("input", "all.parquet")),
              oneshot)
    for mode in ("discrete", "continuous"):
        got = run.path(f"{mode}{round_no - 1}")
        bad = same_store(oneshot, got)
        run.op(not bad, f"{mode} increments differ from one-shot: {bad}")

    run.record.update(
        increment_batch_s=[round(w, 4) for w in disc_walls],
        continuous_batch_s=[round(w, 4) for w in cont_walls],
        increment_batch_cpu_s=[round(c, 4) for c in disc_cpus],
        continuous_batch_cpu_s=[round(c, 4) for c in cont_cpus],
        checkpoint_s=[round(w, 4) for w in ckpt],
        checkpoint_cpu_s=[round(c, 4) for c in ckpt_cpus], rounds=round_no)
    run.end_to_end["op_cpu_ms"] = (statistics.median(disc_cpus)
                                   + statistics.median(cont_cpus)) * 1e3
    run.end_to_end["throughput_per_cpu_s"] = 2 * sum(steady_rows) / (
        sum(disc_cpus) + sum(cont_cpus))
    run.end_to_end["store_bytes"] = dir_bytes(
        run.path(f"discrete{round_no - 1}"))[0]
    if run.trace:
        run.layers["continuous.apply_task_s"] = apply_task_s
        stores, routed = {}, {}

        def one_pass(tracer, tag):
            stores[tag] = run.path(f"in-process-{tag}")
            shutil.copytree(base_store, stores[tag])
            routed[tag] = increment_pass(run, tracer, stores[tag],
                                         batch_paths)

        traced_and_untraced(run, one_pass)
        for tag, store in stores.items():
            bad = same_store(oneshot, store)
            run.op(not bad, f"{tag} in-process increments differ from "
                            f"one-shot: {bad}")
        cfg = read_run_config(base_store)
        exchange_probe(run, pa.concat_tables(routed["traced"]),
                       salted_layout(base_store, cfg)[2])
        store_stats(stores["traced"], run)
        served_points(stores["traced"], run.tracer)    # compress.decode
        # the last round's discrete batches did the in-process pass's work
        run.layers["orchestration_from"] = (sum(d_walls), sum(d_cpus))


# -- serve --------------------------------------------------------------------

def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN, through lists/dicts."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


class StoreIndex:
    """Direct decode of every partition of a store: the reference each
    served answer is checked against."""

    def __init__(self, out_dir: str, tracer: Tracer):
        self.points = {}          # url -> {tier: (ts, mean)}
        self.pid = {}             # url -> partition holding its segments
        self.state = {}           # url -> state row
        self.alerts = {}          # url -> alert rows
        for pid, f in partitions(out_dir, "segments").items():
            pts = decode_partition(f, tracer)
            url = pts.column("url").to_numpy(zero_copy_only=False)
            tier = pts.column("tier").to_numpy(zero_copy_only=False)
            ts = pts.column("bucket_ts").cast(pa.int64()).to_numpy()
            mean = pts.column("mean").to_numpy()
            starts = np.flatnonzero(np.r_[
                True, (url[1:] != url[:-1]) | (tier[1:] != tier[:-1])])
            ends = np.r_[starts[1:], len(url)]
            for s, e in zip(starts, ends):
                self.points.setdefault(url[s], {})[tier[s]] = \
                    (ts[s:e], mean[s:e])
                self.pid[url[s]] = pid
        for pid, f in partitions(out_dir, "state").items():
            for row in pq.read_table(f).to_pylist():
                self.state[row["url"]] = row
        for pid, f in partitions(out_dir, "alerts").items():
            for u in pq.read_table(f).column("url").to_pylist():
                self.alerts[u] = self.alerts.get(u, 0) + 1

    def check_lookup(self, url: str, got: dict) -> str:
        if got["pid"] != self.pid.get(url):
            return f"lookup {url}: pid {got['pid']} != {self.pid.get(url)}"
        if not _same(got["state"], self.state.get(url)):
            return f"lookup {url}: state differs"
        if got["alerts"] != self.alerts.get(url, 0):
            return f"lookup {url}: alerts differ"
        want = {}
        for tier, (ts, mean) in self.points.get(url, {}).items():
            last = int(ts.max())
            want[tier] = {"points": len(ts), "last_bucket_us": last,
                          "last_mean": float(mean[ts == last][0])}
        if not _same(got["tiers"], want):
            return f"lookup {url}: tiers differ"
        return ""

    def check_range(self, req: inputs.Request, got: dict) -> str:
        if got["tier"] != req.tier:
            return f"range {req}: tier {got['tier']} != {req.tier}"
        ts, mean = self.points.get(req.url, {}).get(
            req.tier, (np.array([], np.int64), np.array([])))
        m = (ts >= req.t0_us) & (ts < req.t1_us)
        order = np.argsort(ts[m], kind="stable")
        if got["bucket_ts_us"] != ts[m][order].tolist() \
                or not _same(got["mean"], mean[m][order].tolist()):
            return f"range {req}: points differ"
        return ""


def serve_targets(run: Run):
    """Read-side layer functions rebound during a traced pass."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.stages import compress, rollup

    def read(_, args, kwargs):
        run.tracer.count("serve.bytes_read", os.path.getsize(args[0]))

    return [(inc, "read_run_config", "serve.route", None),
            (mp, "_serving_pid", "serve.route", None),
            (rollup, "choose_tier", "serve.route", None),
            (pq, "read_table", "serve.file_read", read),
            (compress, "decode_segments_table", "serve.decode", None)]


def serve(run: Run) -> None:
    size = run.size
    t0 = time.perf_counter()          # engine imports count as set-up
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.pipelines.incremental import read_run_config

    def build():
        table = inputs.crawl_table(run.seed, size)
        store = run.path("setup", "store")
        _pipeline(run, inputs.write(table, run.path("setup",
                                                    "crawl.parquet")), store)
        return table, store

    table, store = set_up(run, t0, build)
    record_input(run, table)
    stop_ray(run)          # reads need no Ray; the loop runs alone

    requests = inputs.serve_requests(
        table, run.seed, int(read_run_config(store)["high_water_us"]))
    lookups, ranges, walls, cpus, answers = [], [], [], [], []
    served = 0
    i = 0

    def cpu_s() -> float:
        # this process, Arrow's decode and I/O threads included, without
        # the RSS sampler thread
        return time.process_time() - run.rss.cpu_s()

    loop_start = time.perf_counter()
    give_up = loop_start + 3 * run.seconds
    while sum(walls) < run.seconds and time.perf_counter() < give_up:
        req = requests[i % len(requests)]
        i += 1
        try:
            c0, w0 = cpu_s(), time.perf_counter()
            got_l = mp.lookup_url(store, req.url)
            w1 = time.perf_counter()
            got_r = mp.read_url_range(store, req.url, req.t0_us, req.t1_us)
            w2, c2 = time.perf_counter(), cpu_s()
        except Exception as e:
            run.op(False, f"request {req} raised {e!r}")
            continue
        lookups.append(w1 - w0)
        ranges.append(w2 - w1)
        walls.append(w2 - w0)
        cpus.append(c2 - c0)
        served += got_r["points"]
        answers.append((req, got_l, got_r))
    # requests are shorter than the sampling interval: one window
    run.windows.append((loop_start, time.perf_counter()))

    index = StoreIndex(store, run.tracer)
    tiers_seen = set()
    for req, got_l, got_r in answers:
        problem = index.check_lookup(req.url, got_l) \
            or index.check_range(req, got_r)
        run.op(not problem, problem)
        tiers_seen.add(got_r["tier"])
    run.op(tiers_seen == {"1h", "1d", "1w"},
           f"ranges reached tiers {sorted(tiers_seen)}, not all three")

    run.record.update(
        requests=len(walls), request_p50_ms=pct(walls, 50) * 1e3,
        lookup_p50_ms=pct(lookups, 50) * 1e3,
        lookup_p99_ms=pct(lookups, 99) * 1e3,
        range_p50_ms=pct(ranges, 50) * 1e3,
        range_p99_ms=pct(ranges, 99) * 1e3)
    run.end_to_end["op_cpu_ms"] = statistics.median(cpus) * 1e3
    run.end_to_end["throughput_per_cpu_s"] = served / sum(cpus)
    run.end_to_end["store_bytes"] = dir_bytes(store)[0]
    if run.trace:
        sample = requests[:64]

        def one_pass(tracer, tag):
            with tracer.patched(serve_targets(run) if tracer.enabled
                                else []):
                for req in sample:
                    mp.lookup_url(store, req.url)
                    mp.read_url_range(store, req.url, req.t0_us,
                                      req.t1_us)

        traced_and_untraced(run, one_pass)
        store_stats(store, run)
