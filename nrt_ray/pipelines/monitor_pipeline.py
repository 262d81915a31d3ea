"""End-to-end Ray Data pipeline: ingest → fit/monitor → rollup → segments.

One streaming DAG over ``ray.data.Dataset``:

    read_parquet(columns pruned)            # html/binary never leaves the read
      → map_batches(ExtractSignal)          # wide text cols dropped here
      → map_batches(add bucket column)      # hash(url) % P, P pinned in manifest
      → [resume filter: drop committed partitions]
      → groupby(pid).map_groups(PartitionProcessor)   # THE wide step
      → lineage rows (tiny) collected on the driver

``PartitionProcessor`` does everything for its partition in one task —
series assembly, fused fit/monitor, tier rollups, segment compression,
atomic Parquet writes, manifest commit — so a partition is either fully
committed or will be recomputed on resume.  Nothing ever materializes the
full dataset on the driver; only per-partition lineage rows come back.

Skew note: hash partitioning over *urls* spreads hot domains automatically
(each url is its own key); per-url hot series (daily vs weekly crawls) only
skew a partition by the ratio of cadences, which ``num_partitions ≈ 4 ×
cores`` absorbs.  For a single url exceeding partition capacity the SURVEY
§4 salting path is ON BY DEFAULT (``salt_threshold="auto"``): detection is
a plain task graph of url-column pruned per-file counts, key-disjoint
hash folds and one gather (threshold = max(8× mean rows/url, half a
mean partition share, 10k rows)), run OVERLAPPED with read/extract (its
ObjectRef feeds the split-side prep), so it costs almost no wall.  Pass
``salt_threshold=None`` to disable, or a fixed ``hot_urls`` set to skip
detection.  A run that starts with nothing committed time-slices the hot
urls across partitions, and a tiny merge phase re-concatenates the
assembled slices (``merge_hot_partitions``) from the ``hot_series``
intermediates, which the run deletes once the merges commit.  A run that
starts with committed partitions (a resume, a backfill) routes hot rows
the way increments do: straight to their merge partitions
``P + sorted_rank % M`` in the one exchange.  The hot-url list and
merge-task count persist in the run config, so resumes, increments,
continuous mode, forget, backfill and the point-read serving API all
route hot urls to their committed merge partitions.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from nrt_ray.pipelines.incremental import (NOTHING, PartitionWriter,
                                           read_run_config,
                                           write_run_config)
from nrt_ray.sources.extract import ExtractSignal, timestamp_features
from nrt_ray.stages import rollup
from nrt_ray.stages.assemble import add_bucket_column, assemble_series
from nrt_ray.state import manifest


#: ``hot_series`` schema-metadata key: ``{hot url: its rows' fragments}``
HOT_FRAGMENTS = b"nrt_ray.hot_fragments"


def _url_fragments(group: pa.Table, urls: pa.Array) -> dict:
    """``{url: fragment ids}`` of ``urls``' rows in ``group``."""
    if "frag" not in group.column_names:
        return {}
    agg = group.filter(pc.is_in(group.column("url"), value_set=urls)) \
        .group_by("url").aggregate([("frag", "distinct")])
    return dict(zip(agg.column("url").to_pylist(),
                    agg.column("frag_distinct").to_pylist()))


class PartitionProcessor(PartitionWriter):
    """Per-partition fused processor (runs inside ``map_groups``):
    assemble the partition's series, set salted hot urls' sub-series
    aside for the merge phase, then the shared update onto nothing
    stored (:meth:`PartitionWriter.update_series`) and one persist.

    Takes :class:`PartitionWriter`'s arguments plus ``hot_urls`` (a set,
    any iterable, or the ObjectRef of an overlapped detection) and the
    chaos-testing ``fault_hook`` (see :func:`manifest.persist_partition`;
    None in production)."""

    def __init__(self, hot_urls=None, fault_hook=None, **kwargs):
        super().__init__(**kwargs)
        self.fault_hook = fault_hook
        if isinstance(hot_urls, ray.ObjectRef):
            # overlapped detection hands an ObjectRef to the hot list;
            # resolve lazily in __call__ (reduce tasks run long after
            # detection finishes)
            self.hot_urls = None
            self._hot_ref = hot_urls
        else:
            self.hot_urls = set(hot_urls) if hot_urls is not None \
                else set()
            self._hot_ref = None

    def __call__(self, group: pa.Table, input_frags=None) -> pa.Table:
        """One partition; a merge task passes its ``input_frags``."""
        t0 = time.perf_counter()
        if self.hot_urls is None:
            self.hot_urls = set(ray.get(self._hot_ref))
        pid = int(group.column("pid")[0].as_py())
        if input_frags is None:
            input_frags = np.unique(group.column("frag").to_numpy(
                zero_copy_only=False)).tolist() \
                if "frag" in group.column_names else []
        series = assemble_series(group)
        hot_rows, deferred = 0, {}
        if self.hot_urls:
            hot = pa.array(sorted(self.hot_urls), pa.string())
            hot_mask = pc.is_in(series.column("url"), value_set=hot)
            if pc.any(hot_mask).as_py():
                # salted sub-series: assembled (sorted+deduped) here, but
                # fit/monitor/rollup happen in the merge phase which sees
                # the url's full series — write the sub-series aside,
                # each url's input fragments in its schema metadata
                hot_series = series.filter(hot_mask)
                hot_rows = int(pc.sum(hot_series.column("n")).as_py() or 0)
                deferred = {"hot_series": hot_series.replace_schema_metadata(
                    {HOT_FRAGMENTS: json.dumps(_url_fragments(group, hot))})}
                series = series.filter(pc.invert(hot_mask))
        ts_flat = series.column("ts").combine_chunks().flatten() \
            .cast(pa.int64()) if series.num_rows else None
        max_ts = int(pc.max(ts_flat).as_py()) if ts_flat is not None and \
            len(ts_flat) else 0
        art = self.update_series(
            series, NOTHING, group.num_rows,
            max_ts if self.new_hw is None else self.new_hw)
        checksum = self.persist_partition(
            pid, art, deferred,
            row_counts={"hot_rows_deferred": hot_rows},
            # north-rule lineage: which input fragments (file ids, map in
            # the run config) fed this partition + metrics
            input_fragments=input_frags,
            metrics={"elapsed_s": round(time.perf_counter() - t0, 4)})
        return pa.table({
            "pid": pa.array([pid], pa.int32()),
            "input_rows": pa.array([group.num_rows], pa.int64()),
            "series": pa.array([series.num_rows], pa.int64()),
            "rollup_points": pa.array([art["rollup_points"]], pa.int64()),
            "observed_buckets": pa.array([art["observed_buckets"]],
                                         pa.int64()),
            "alerts": pa.array([art["alerts"].num_rows], pa.int64()),
            "max_ts_us": pa.array([max_ts], pa.int64()),
            "state_checksum": pa.array([checksum], pa.string()),
            "seconds": pa.array([time.perf_counter() - t0], pa.float64()),
        })


def input_files(input_path) -> list[str]:
    """Enumerate the concrete parquet files (lineage fragments) behind
    ``input_path`` (a file, directory, glob, or list thereof)."""
    import glob as _glob
    paths = []
    for p in ([input_path] if isinstance(input_path, str) else input_path):
        paths.extend(sorted(_glob.glob(p)) if "*" in p else
                     ([os.path.join(p, f) for f in sorted(os.listdir(p))
                       if f.endswith(".parquet")] if os.path.isdir(p)
                      else [p]))
    return paths


def _absolute(input_path):
    """``input_path`` (a path or a list of them) with each local,
    scheme-less relative path made absolute."""
    def fix(p):
        p = os.fspath(p)
        return p if "://" in p or os.path.isabs(p) else os.path.abspath(p)
    if isinstance(input_path, (str, os.PathLike)):
        return fix(input_path)
    return [fix(p) for p in input_path]


def is_warc_input(input_path) -> bool:
    """True when the input is WARC file(s) (.warc / .warc.gz) — the raw
    Common Crawl wire format (`sources/warc.py`) — rather than Parquet."""
    paths = [input_path] if isinstance(input_path, str) else list(input_path)
    return bool(paths) and all(
        p.endswith((".warc", ".warc.gz")) for p in paths)


def ingest_webtext(input_path, verify_extract: bool = False,
                   aux: bool = False,
                   min_warc_ts_us: int | None = None,
                   frag_ids: dict | None = None):
    """Read a webtext Parquet table and extract the flat signal rows.

    ``aux=True`` additionally emits the CCDC_RIRLS secondary-signal
    columns (kept off otherwise so the shuffle stays narrow).

    ``min_warc_ts_us``: high-water predicate PUSHED INTO THE SCAN
    (``warc_ts > min``): row groups whose max timestamp is at or below
    the mark are never read — the fragment-pruned incremental read
    SURVEY §2.1 calls for.  Crawl files are written roughly
    time-ordered, so a daily increment over a deep archive reads a
    sliver of the bytes.  Note the trade-off: rows at or below the mark
    never surface, so `run_increment`'s dead-letter AUDIT of late rows
    is skipped for them — use it when the archive is append-only and
    audit is not needed (the CLI exposes it as ``--prune-ingested``).

    ``frag_ids`` ({file path: int id}): tag every row with its source
    fragment id (int32 ``frag`` column, 4 B/row through the shuffle) so
    each partition's manifest commit can record exactly which input
    fragments fed it (north-rule lineage).
    A plain scan of local Parquet files (no ``frag_ids``) returns a
    :class:`WebtextScan`: its :class:`ScanRecipe` lists the files, and
    the Ray Data Dataset is built only when a caller uses it.
    """
    if is_warc_input(input_path):
        # raw crawl bytes: parse WARC records, run the byte-identity
        # extractor on the html itself (it PRODUCES text here, so the
        # verify flag is moot); scan pruning / fragment lineage are
        # Parquet-layer features and don't apply
        from nrt_ray.sources.warc import warc_to_flat
        return warc_to_flat(input_path, aux=aux)
    # Ray Data lists and samples the files in worker processes, whose
    # working directory need not be the driver's
    input_path = _absolute(input_path)
    columns = ["url", "warc_ts", "text"] + (
        ["html"] if verify_extract else [])
    kw = {}
    if min_warc_ts_us is not None:
        import pyarrow.dataset as pds
        kw["filter"] = (pds.field("warc_ts")
                        > pa.scalar(min_warc_ts_us, pa.int64())
                        .cast(pa.timestamp("us")))
    extract = ExtractSignal(verify=verify_extract, aux=aux)
    files = None if frag_ids else _local_files(input_path)
    if files:
        return WebtextScan(ScanRecipe(tuple(files), tuple(columns),
                                      kw.get("filter"), extract))
    if frag_ids:
        kw["include_paths"] = True
    ds = ray.data.read_parquet(input_path, columns=columns, **kw)
    if frag_ids:
        paths = pa.array(_absolute(list(frag_ids)), pa.string())
        ids = pa.array(list(frag_ids.values()), pa.int32())

        def tag(t: pa.Table) -> pa.Table:
            # map each row's path to its small int id (one Arrow hash
            # lookup per row) and drop the string column
            path = t.column("path")
            pos = pc.index_in(path, value_set=paths.cast(path.type))
            if pos.null_count:
                missing = path.filter(pc.is_null(pos))[0].as_py()
                raise KeyError(f"input row from unlisted fragment "
                               f"{missing!r}")
            return t.drop_columns(["path"]).append_column(
                "frag", pc.take(ids, pos))

        ds = ds.map_batches(tag, batch_format="pyarrow")
    return ds.map_batches(extract, batch_format="pyarrow")


def _local_files(input_path) -> list[str] | None:
    """The files a Parquet read of ``input_path`` scans — each local
    file, and every file under each local directory, hidden (``.`` or
    ``_``) entries skipped — sorted; None when a path is neither."""
    files = []
    for p in [input_path] if isinstance(input_path, str) else input_path:
        if os.path.isfile(p):
            files.append(p)
        elif not os.path.isdir(p):
            return None
        for root, dirs, names in os.walk(p):
            dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
            files += [os.path.join(root, n) for n in names
                      if not n.startswith((".", "_"))]
    return sorted(files)


@dataclass(frozen=True)
class ScanRecipe:
    """How :func:`ingest_webtext` scans local Parquet files (its
    :class:`WebtextScan`'s ``scan_recipe``), so that
    ``incremental.split_batch`` reads them file by file in plain
    tasks."""
    files: tuple
    columns: tuple
    filter: object          # the ``min_warc_ts_us`` expression, or None
    extract: ExtractSignal

    def read(self, path: str) -> pa.Table:
        import pyarrow.parquet as pq
        return self.extract(pq.read_table(path, columns=list(self.columns),
                                          filters=self.filter,
                                          use_threads=False))

    def dataset(self):
        """The same scan as a Ray Data Dataset of flat rows."""
        return ray.data.read_parquet(
            list(self.files), columns=list(self.columns),
            **({} if self.filter is None else {"filter": self.filter})) \
            .map_batches(self.extract, batch_format="pyarrow")


class WebtextScan:
    """:func:`ingest_webtext`'s flat rows of local Parquet files: its
    ``scan_recipe``, and otherwise the recipe's Ray Data Dataset, built
    the first time a caller uses it (``.count()``, ``.map_batches``, …).
    An increment reads the recipe and never builds it: building it runs
    Ray Data's planning, a ``sample_fragments`` task included."""

    def __init__(self, recipe: ScanRecipe):
        self.scan_recipe = recipe
        self._dataset = None

    def __getattr__(self, name):
        if name.startswith("__") or name == "_dataset":
            raise AttributeError(name)
        if self._dataset is None:
            self._dataset = self.scan_recipe.dataset()
        return getattr(self._dataset, name)


#: auto-salting heuristic knobs (``salt_threshold="auto"``): a url is
#: hot when its row count reaches ALL of — ``AUTO_SALT_FACTOR`` × the
#: mean rows/url (relative skew), ``AUTO_SALT_PART_FRAC`` × the mean
#: partition share (the actual blow-a-partition failure mode), and the
#: absolute floor ``AUTO_SALT_MIN_ROWS`` (small datasets never pay the
#: merge phase).  Effective threshold = max of the three.
AUTO_SALT_FACTOR = 8.0
AUTO_SALT_PART_FRAC = 0.5
AUTO_SALT_MIN_ROWS = 10_000


def _input_total_rows(input_path) -> int | None:
    """Exact row count from Parquet footers — no data scan."""
    import pyarrow.parquet as pq
    try:
        return sum(pq.read_metadata(f).num_rows
                   for f in input_files(input_path))
    except Exception:
        return None


def _detect_count_file(path: str, nparts: int):
    """Overlapped-detection map task: one input file's per-url row
    counts, split into ``nparts`` url-hash buckets (num_returns)."""
    import pyarrow.parquet as _pq

    from nrt_ray.stages.exchange import split_by_pid
    from nrt_ray.stages.hashagg import _pid_for_keys
    t = _pq.read_table(path, columns=["url"])
    g = t.group_by("url").aggregate([("url", "count")])
    urls = np.asarray(g.column("url").to_pylist(), dtype=object)
    pid = _pid_for_keys(urls, nparts)
    tbl = pa.table({"url": g.column("url"),
                    "n": g.column("url_count").cast(pa.int64())})
    out = split_by_pid(tbl, pid, nparts)
    return tuple(out) if nparts > 1 else out[0]


def _detect_fold(floor: int, *tables):
    """Overlapped-detection fold task: exact global counts for this url
    bucket (buckets are key-disjoint across files), floor-filtered, plus
    the bucket's distinct-url / total-row summary for the auto rule."""
    parts = [t for t in tables if t is not None and t.num_rows]
    if not parts:
        return [], 0, 0
    tbl = pa.concat_tables(parts)
    urls = np.asarray(tbl["url"].to_pylist(), dtype=object)
    n = tbl["n"].to_numpy(zero_copy_only=False)
    uk, inv = np.unique(urls, return_inverse=True)
    acc = np.zeros(len(uk), np.int64)
    np.add.at(acc, inv, n)
    keep = acc >= floor
    return (list(zip(uk[keep].tolist(),
                     acc[keep].astype(int).tolist())),
            int(len(uk)), int(acc.sum()))


def _detect_gather(floor: int, total, *folds):
    """Overlapped-detection reduce: apply the AUTO_SALT mean-skew term
    over the already-tiny candidate set; returns the sorted hot urls."""
    import math
    n_urls = sum(f[1] for f in folds) or 1
    if total is None:                 # no parquet footers available
        total = sum(f[2] for f in folds)
    eff = max(floor, math.ceil(AUTO_SALT_FACTOR * total / n_urls))
    return sorted(u for f in folds for u, c in f[0] if c >= eff)


def _submit_detect_auto(input_path, num_partitions: int):
    """Submit the auto hot-url detection as a PLAIN ray task graph
    (per-file url-column count → key-disjoint hash folds → one gather)
    and return the gather's ObjectRef immediately — no Ray Data job, no
    driver blocking.  A url is hot when its row count reaches ALL of
    the AUTO_SALT_* terms."""
    import math
    files = input_files(input_path)
    total = _input_total_rows(input_path)
    floor = AUTO_SALT_MIN_ROWS if total is None else max(
        AUTO_SALT_MIN_ROWS,
        math.ceil(AUTO_SALT_PART_FRAC * total
                  / max(num_partitions or 1, 1)))
    K = max(2, min(16, len(files) * 2))
    count_remote = ray.remote(num_returns=K)(_detect_count_file) \
        if K > 1 else ray.remote(_detect_count_file)
    fold_remote = ray.remote(_detect_fold)
    gather_remote = ray.remote(num_cpus=0)(_detect_gather)
    per_file = [count_remote.remote(f, K) for f in files]
    folds = [fold_remote.remote(floor, *[pf[k] for pf in per_file])
             for k in range(K)]
    return gather_remote.remote(floor, total, *folds)


#: default salt slice: 8 epoch-aligned weeks — a multiple of every default
#: tier width, so each slice holds whole rollup buckets
DEFAULT_SALT_SLICE_US = 8 * 7 * 86400 * 1_000_000

#: merge tasks for the hot-url second phase; effective count is
#: ``min(DEFAULT_MERGE_TASKS, len(hot_urls))`` and the sorted-rank → task
#: assignment (``rank % M``) is PERSISTED semantics: increments route a
#: hot url's new rows to merge pid ``P + rank % M`` from the run config
DEFAULT_MERGE_TASKS = 8


def _merge_tasks(hot_urls) -> int:
    """Merge partitions ``M`` of a run with these hot urls (0 for none)."""
    return max(1, min(DEFAULT_MERGE_TASKS, len(hot_urls))) if hot_urls \
        else 0


def merge_hot_partitions(out_dir: str, hot_urls, processor_kwargs: dict,
                         num_partitions: int) -> list:
    """Second (tiny) phase for salted hot urls: each merge task reads the
    hot sub-series its urls left in every committed partition, concatenates
    them by time (flatten → re-assemble), and runs the SAME fused
    processor, committing under merge pids ``P .. P+M−1``
    (``run_pipeline`` then deletes the ``hot_series`` files).  The heavy
    shuffle/assembly work already happened in parallel; only the
    algorithm-inherent sequential monitor recursion runs per url here."""
    hot_urls = sorted(hot_urls)
    M = _merge_tasks(hot_urls)
    by_task: list[list[str]] = [[] for _ in range(M)]
    for i, u in enumerate(hot_urls):
        by_task[i % M].append(u)

    pids = sorted(manifest.committed_partitions(out_dir))

    def merge_one(urls: list[str], merge_pid: int) -> pa.Table:
        from nrt_ray.stages.assemble import flatten_series
        want = pa.array(urls, pa.string())
        parts, frags = [], set()
        for pid in pids:
            t = manifest.read_partition(out_dir, pid,
                                        ["hot_series"])["hot_series"]
            if t is None:
                continue
            sub = t.filter(pc.is_in(t.column("url"), value_set=want))
            if sub.num_rows:
                parts.append(flatten_series(sub))
            by_url = json.loads((t.schema.metadata or {}).get(
                HOT_FRAGMENTS, b"{}"))
            frags.update(i for u in urls for i in by_url.get(u, ()))
        proc = PartitionProcessor(**processor_kwargs)
        if not parts:
            return None
        flat = pa.concat_tables(parts, promote_options="default")
        flat = flat.append_column(
            "pid", pa.array(np.full(flat.num_rows, merge_pid,
                                    dtype=np.int32)))
        return proc(flat, sorted(frags))

    merge_remote = ray.remote(merge_one)
    refs = [merge_remote.remote(by_task[m], num_partitions + m)
            for m in range(M) if by_task[m]]
    return [t for t in ray.get(refs) if t is not None]


def global_high_water_us(input_path) -> int:
    """Dataset high-water mark (drives retention + bucket closing
    deterministically).  Prefers Parquet row-group statistics (no data
    scan); falls back to a column-pruned max() scan."""
    import pyarrow.parquet as pq
    paths = input_files(input_path)
    try:
        hw = None
        for f in paths:
            md = pq.read_metadata(f)
            ci = md.schema.to_arrow_schema().get_field_index("warc_ts")
            for rg in range(md.num_row_groups):
                stats = md.row_group(rg).column(ci).statistics
                if stats is None or not stats.has_min_max:
                    raise ValueError("missing stats")
                mx = stats.max
                hw = mx if hw is None else max(hw, mx)
        if hw is None:
            raise ValueError("no row groups")
        return int(pa.scalar(hw, pa.timestamp("us")).cast(pa.int64())
                   .as_py())
    except Exception:
        ds = ray.data.read_parquet(input_path, columns=["warc_ts"])
        hw = ds.max("warc_ts")
        return int(pa.scalar(hw, pa.timestamp("us")).cast(pa.int64())
                   .as_py())


def run_pipeline(input_path, out_dir: str, *, strategy: str = "EWMA",
                 monitor_start: str = "2021-01-01",
                 num_partitions: int = 64,
                 tiers=rollup.DEFAULT_TIERS,
                 resume: bool = True,
                 verify_extract: bool = False,
                 fit_method: str | None = None,
                 screen_outliers: str | None = "default",
                 monitor_params: dict | None = None,
                 fit_params: dict | None = None,
                 high_water_us: int | None = None,
                 run_id: str | None = None,
                 flat_dataset=None,
                 salt_threshold: str | None = "auto",
                 hot_urls=None,
                 reduce_num_cpus: float = 1.0,
                 fault_hook=None) -> dict:
    """Run the flagship pipeline; returns a summary dict (tiny).

    Args:
        input_path: path(s) to webtext Parquet (ignored when
            ``flat_dataset`` is given).
        flat_dataset: optional pre-extracted flat Dataset with columns
            ``url, warc_ts, value, days, dyear`` (e.g. the events adapter).
        resume: skip partitions already committed in ``out_dir``'s manifest.
        salt_threshold: ``"auto"`` (the default) detects hot urls from
            the url row-count distribution (AUTO_SALT_* knobs — skew
            factor, partition-share fraction, absolute floor) so a
            skewed run can't blow a partition because the operator
            forgot the flag; ``None`` is the kill switch (no detection
            pass).  Any other value raises ``ValueError``: a fixed hot
            set goes in ``hot_urls``.  Auto detection engages only for
            Parquet inputs, where the url-column count pass is a cheap
            pruned read; WARC and ``flat_dataset`` inputs would re-run
            extraction to count, so they stay unsalted unless
            ``hot_urls`` is passed.  On a run that starts with nothing
            committed, hot urls are salted by time slice (SURVEY §4):
            their rows spread over many partitions (no single melted
            reduce task), each partition assembles its slice, and a tiny
            merge phase concatenates the slices and runs
            fit/monitor/rollup on the full series — results identical to
            the unsalted plan (bitwise for rollups / segments / codes;
            last-ulp float tolerance for fitted state, whose reductions
            run over differently-shaped padded batches).  A run that
            starts with committed partitions routes each hot url's rows
            to its merge partition ``P + sorted_rank % M`` in the
            exchange, as increments do, and its merge partitions that
            are committed are skipped like any other.
        hot_urls: explicit hot-url set (skips detection).  A resumed run
            over a store whose run config records a hot set reuses it.
        reduce_num_cpus: logical CPUs each fused fit/monitor/rollup
            reduce task requests.  The reduce is memory-bandwidth-bound
            (large padded matrices + segment reductions), so >1 trades
            concurrency for per-task bandwidth.  Host-phase dependent:
            a congested-host session measured 4.0 as 2.3× faster than
            1.0, but on a quiet host full concurrency (1.0) wins ~2.7×
            despite ~30% per-task inflation — see the REDUCE_CPUS note
            in bench.py.  Results are identical at any value
            (scheduling only).
    """
    if salt_threshold not in ("auto", None):
        raise ValueError(
            f"salt_threshold must be 'auto' or None, got "
            f"{salt_threshold!r}; pass a fixed hot-url set as hot_urls=")
    os.makedirs(out_dir, exist_ok=True)
    manifest.check_partitioning(out_dir, num_partitions)
    run_id = run_id or uuid.uuid4().hex[:12]
    if flat_dataset is None:
        input_path = _absolute(input_path)    # worker tasks read it too

    needs_hw = any(t.retention_us is not None for t in tiers)
    if high_water_us is None and needs_hw and flat_dataset is None \
            and not is_warc_input(input_path):
        high_water_us = global_high_water_us(input_path)

    if screen_outliers == "default":
        from nrt_ray.kernels.monitors import MONITOR_REGISTRY
        effective_screen = MONITOR_REGISTRY[strategy].default_screen_outliers
    else:
        effective_screen = screen_outliers
    frag_paths = [] if (flat_dataset is not None
                        or is_warc_input(input_path)) else \
        input_files(input_path)
    frag_ids = {p: i for i, p in enumerate(frag_paths)}
    ds = flat_dataset if flat_dataset is not None else \
        ingest_webtext(input_path, verify_extract,
                       aux=(effective_screen == "CCDC_RIRLS"),
                       frag_ids=frag_ids)
    if high_water_us is None and needs_hw:
        hw = ds.max("warc_ts")
        high_water_us = int(pa.scalar(hw, pa.timestamp("us"))
                            .cast(pa.int64()).as_py())

    prev = {}
    if resume:
        try:
            prev = read_run_config(out_dir)
        except (OSError, ValueError):
            pass
    if hot_urls is None and "hot_urls" in prev \
            and int(prev.get("num_partitions", -1)) == num_partitions:
        # an existing store pins its salting layout: reuse the persisted
        # hot set (possibly empty) instead of re-detecting — re-salting
        # mid-life would scatter a url's state across inconsistent pids
        hot_urls = prev["hot_urls"]
    # urls a forget removed stay out of every partition a resumed run
    # rebuilds (say after fsck repair uncommitted one)
    forgotten = prev.get("forgotten_urls", [])
    forgotten_arr = pa.array(forgotten, pa.string()) if forgotten else None
    committed = manifest.committed_partitions(out_dir) if resume else set()
    skipped = sorted(committed)
    committed_arr = pa.array(skipped, pa.int32()) if committed else None
    detect_ref = None
    salt_detect_sec = None
    if hot_urls is None and salt_threshold == "auto" \
            and flat_dataset is None and not is_warc_input(input_path):
        # OVERLAPPED detection (only where counting is a cheap pruned
        # parquet read): a plain ray task graph whose final ObjectRef
        # feeds the exchange's split-side prep — the read/extract stream
        # executes concurrently with detection, and only the split tasks
        # (which need routing) wait on the tiny hot set
        detect_t0 = time.perf_counter()
        detect_ref = _submit_detect_auto(input_path, num_partitions)
        # both ends on the driver's clock: stamped when the ref
        # resolves, not by a worker
        detect_done = []
        detect_ref.future().add_done_callback(
            lambda _: detect_done.append(time.perf_counter()))
    # a run that starts with committed partitions routes hot rows the
    # way increments do (straight to their merge pids P + rank % M), so
    # its hot set and merge-task count are needed before the exchange;
    # only a run from nothing salts by time slice and merges afterwards
    routed = bool(committed)
    if detect_ref is None or routed:
        hot_urls = sorted(ray.get(detect_ref) if detect_ref is not None
                          else set(hot_urls or ()))
    hot = detect_ref if detect_ref is not None and not routed else hot_urls
    n_merge = _merge_tasks(hot_urls) if routed else 0

    processor_kwargs = dict(
        out_dir=out_dir, run_id=run_id, num_partitions=num_partitions,
        strategy=strategy, monitor_start=monitor_start, tiers=tiers,
        high_water_us=high_water_us, fit_method=fit_method,
        screen_outliers=screen_outliers, monitor_params=monitor_params,
        fit_params=fit_params)
    processor = PartitionProcessor(hot_urls=None if routed else hot,
                                   fault_hook=fault_hook, **processor_kwargs)
    def process_partition(group: pa.Table) -> pa.Table:
        return processor(group)

    from nrt_ray.stages.exchange import exchange_map_groups

    def prep(t: pa.Table, hot) -> pa.Table:
        # routing + resume filter fused into the split task (one
        # less object-store hop than separate map_batches stages);
        # ``hot`` is the sorted hot set, resolved here when overlapped
        t = add_bucket_column(t, num_partitions,
                              merge_route=(hot, n_merge)) if routed else \
            add_bucket_column(t, num_partitions, hot_urls=set(hot),
                              slice_us=DEFAULT_SALT_SLICE_US)
        if committed_arr is not None:
            t = t.filter(pc.invert(pc.is_in(
                t.column("pid"), value_set=committed_arr)))
        if forgotten_arr is not None:
            t = t.filter(pc.invert(pc.is_in(
                t.column("url"), value_set=forgotten_arr)))
        return t

    tables = exchange_map_groups(
        ds, num_partitions + n_merge, process_partition,
        num_cpus_per_reduce=reduce_num_cpus,
        prep_fn=prep, prep_args=(hot,))
    rows = [row for t in tables for row in t.to_pylist()]
    if detect_ref is not None:
        hot_urls = sorted(ray.get(detect_ref))
        # the callback may still be running when ray.get returns
        salt_detect_sec = round((detect_done or [time.perf_counter()])
                                [0] - detect_t0, 4)
    if hot_urls and not routed:
        merged = merge_hot_partitions(out_dir, hot_urls, processor_kwargs,
                                      num_partitions)
        rows += [row for t in merged for row in t.to_pylist()]
    # the hot sub-series are read only by the merge phase of the run
    # that wrote them: gone once the merge partitions commit
    shutil.rmtree(os.path.join(out_dir, "hot_series"), ignore_errors=True)

    hw_cfg = high_water_us if high_water_us is not None else \
        max((int(r["max_ts_us"]) for r in rows), default=0)
    if high_water_us is None and skipped and prev.get("high_water_us"):
        # resumed run: partitions committed earlier are absent from `rows`,
        # so merge with the previous run config's high-water mark — else a
        # later increment would re-classify already-ingested rows as new
        hw_cfg = max(hw_cfg, int(prev["high_water_us"]))
    write_run_config(out_dir, {
        "strategy": strategy, "monitor_start": monitor_start,
        "num_partitions": num_partitions,
        "monitor_params": monitor_params, "fit_params": fit_params,
        "fit_method": fit_method, "screen_outliers": screen_outliers,
        "tiers": [t.to_dict() for t in tiers],
        "high_water_us": hw_cfg,
        # fragment-id → file map for the per-partition input_fragments
        # lineage recorded in each manifest commit
        "fragments": {str(i): p for p, i in frag_ids.items()},
        # salting metadata: increments route a hot url's new rows to
        # merge pid P + sorted_rank % M (must match merge_hot_partitions'
        # by_task assignment above)
        "hot_urls": hot_urls,
        "num_merge_tasks": _merge_tasks(hot_urls),
        "forgotten_urls": forgotten,
    })
    summary = {
        "run_id": run_id,
        "partitions_processed": len(rows),
        "partitions_skipped": len(skipped),
        "input_rows": int(sum(r["input_rows"] for r in rows)),
        "series": int(sum(r["series"] for r in rows)),
        "rollup_points": int(sum(r["rollup_points"] for r in rows)),
        "observed_buckets": int(sum(r["observed_buckets"] for r in rows)),
        "alerts": int(sum(r["alerts"] for r in rows)),
        "high_water_us": high_water_us,
        "num_partitions": num_partitions,
        # parallel-efficiency instrumentation: total partition-processor
        # task-seconds and the straggler; wall / (task_s / cpus) ≈ how far
        # from perfectly parallel the wide stage ran
        "pp_task_seconds": round(float(sum(r["seconds"] for r in rows)), 2),
        "pp_max_seconds": round(float(max((r["seconds"] for r in rows),
                                          default=0.0)), 2),
        # driver wall from submitting the auto-detection graph to its
        # result resolving (None when no detection ran); NOT serial
        # pipeline time — on a run from nothing it runs concurrently
        # with read/extract and only the split tasks wait on its result
        "salt_detect_sec": salt_detect_sec,
    }
    return summary


def events_to_flat(batch: pa.Table) -> pa.Table:
    """Adapter: the driver ``events`` table → canonical flat signal rows
    (user_id plays the url/key role, ``value`` is the monitored signal)."""
    ts = batch.column("ts")
    days, dyear = timestamp_features(ts)
    return pa.table({
        "url": pc.cast(batch.column("user_id"), pa.string()),
        "warc_ts": ts,
        "value": pc.cast(batch.column("value"), pa.float64()),
        "days": pa.array(days, pa.int32()),
        "dyear": pa.array(dyear, pa.float64()),
    })


def top_recent_breaks(out_dir: str, k: int = 100):
    """Report: the k most recently confirmed breaks across all partitions
    (the engine's analog of the reference's GeoTIFF report layers
    mask/detection_date/process) — a global sort + limit over the small
    alerts table (committed partitions only)."""
    files = manifest.committed_files(out_dir, "alerts")
    alerts = ray.data.read_parquet(files) if files else \
        ray.data.from_items([])
    if alerts.count() == 0:
        return alerts
    return alerts.sort(["detection_date", "url"],
                       descending=[True, False]).limit(k)


def window_starts(config: dict) -> dict:
    """``{tier: first served bucket}`` at a store's committed mark, from
    its run config: the retention cut every segment reader applies
    (``window`` of :func:`compress.decode_segments_table`)."""
    hw = int(config["high_water_us"])
    return {t["name"]: rollup.window_start(t["width_us"], t["retention_us"],
                                           hw) for t in config["tiers"]}


def read_output_table(out_dir: str, table):
    """Read a pipeline output table back as one pyarrow Table (test/report
    helper; committed partitions concatenated in pid order), None
    without rows.  ``rollup_*`` tables come back as served: the stored
    observed buckets gap-filled and retention-trimmed on read at the
    store's committed mark, or each file's own without a run config
    (:func:`rollup.serve_tier_table`).

    ``table`` may also be a list of table names: then ``{name: Table or
    None}``, each partition read once — its tiers from one read of its
    ``rollup`` file."""
    names = [table] if isinstance(table, str) else list(table)
    parts = {name: [] for name in names}
    for pid in sorted(manifest.committed_partitions(out_dir)):
        for name, t in manifest.read_partition(out_dir, pid,
                                               names).items():
            if t is not None:
                parts[name].append(t)
    if any(name.startswith("rollup_") for name in names):
        hw = read_run_config(out_dir)["high_water_us"] if os.path.exists(
            os.path.join(out_dir, manifest.MANIFEST_DIR, "run.json")) \
            else None
        for name in names:
            if name.startswith("rollup_"):
                parts[name] = [rollup.serve_tier_table(p, hw)
                               for p in parts[name]]
    out = {name: pa.concat_tables(p) if p else None
           for name, p in parts.items()}
    return out[table] if isinstance(table, str) else out


def _serving_pid(out_dir: str, config: dict, url: str) -> int:
    """Partition that OWNS ``url``'s committed outputs: its hash
    partition — or, on a salted run, a HOT url's merge partition
    ``P + sorted_rank % M`` from the persisted layout (the same routing
    the increment / continuous / forget paths use)."""
    from nrt_ray.pipelines.incremental import owning_pids
    return owning_pids(out_dir, config, [url])[0]


def lookup_url(out_dir: str, url: str) -> dict:
    """O(1)-partition point lookup: route the url to its owning
    partition, read ONLY that partition's state / alerts / segments
    files, and return the url's monitor state plus per-tier decoded
    point counts and the latest rollup point per tier.  The whole read
    touches ``|tables|`` files regardless of P or corpus size — the
    serving-path complement to the scan-shaped queries.  Points are
    served at the store's committed mark (:func:`window_starts`).

    Salted runs serve too: a hot url reads its merge partition (the
    persisted ``P + sorted_rank % M`` routing), everything else its
    hash partition."""
    from nrt_ray.pipelines.incremental import read_run_config
    from nrt_ray.stages.compress import decode_segments_table

    config = read_run_config(out_dir)
    pid = _serving_pid(out_dir, config, url)
    out = {"url": url, "pid": pid, "state": None, "alerts": 0,
           "tiers": {}}
    st, al, seg = manifest.read_partition(
        out_dir, pid, ["state", "alerts", "segments"]).values()
    if st is not None:
        hit = st.filter(pc.equal(st.column("url"), url))
        if hit.num_rows:
            out["state"] = hit.to_pylist()[0]
    if al is not None:
        out["alerts"] = int(
            al.filter(pc.equal(al.column("url"), url)).num_rows)
    if seg is not None:
        mine = seg.filter(pc.equal(seg.column("url"), url))
        if mine.num_rows:
            pts = decode_segments_table(mine, window=window_starts(config))
            ts = pts.column("bucket_ts").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            mean = pts.column("mean").to_numpy(zero_copy_only=False)
            # per-tier masks on the Arrow column: the served points
            # (fills included) never become Python objects
            for t in sorted(pc.unique(pts.column("tier")).to_pylist()):
                m = pc.equal(pts.column("tier"), t) \
                    .to_numpy(zero_copy_only=False)
                last = int(np.argmax(np.where(m, ts,
                                              np.iinfo(np.int64).min)))
                out["tiers"][t] = {
                    "points": int(m.sum()),
                    "last_bucket_us": int(ts[last]),
                    "last_mean": float(mean[last]),
                }
    return out


def read_url_range(out_dir: str, url: str, t0_us: int, t1_us: int,
                   max_points: int = 500) -> dict:
    """Dashboard-shaped serving read: one url's points over
    ``[t0, t1)`` at ≤ ``max_points`` resolution — hash to the owning
    partition, pick the finest retention-eligible tier that fits the
    budget (:func:`nrt_ray.stages.rollup.choose_tier`), decode ONLY
    that url's segments overlapping the range (segment metadata prunes
    before any payload decodes), and return the (bucket_ts, mean)
    series at the store's committed mark.  Still O(1) files read at any
    P or corpus size; on salted runs a hot url reads its merge partition
    (persisted routing)."""
    from nrt_ray.pipelines.incremental import read_run_config
    from nrt_ray.stages.compress import decode_segments_table
    from nrt_ray.stages.rollup import TierSpec, choose_tier

    config = read_run_config(out_dir)
    tiers = [TierSpec(**t) for t in config["tiers"]]
    tier = choose_tier(tiers, t0_us, t1_us, max_points,
                       now_us=int(config["high_water_us"]))
    pid = _serving_pid(out_dir, config, url)
    out = {"url": url, "pid": pid, "tier": tier.name, "points": 0,
           "bucket_ts_us": [], "mean": []}
    seg = manifest.read_partition(out_dir, pid, ["segments"])["segments"]
    if seg is None:
        return out
    mine = seg.filter(pc.and_(
        pc.equal(seg.column("url"), url),
        pc.equal(seg.column("tier"), tier.name)))
    if not mine.num_rows:
        return out
    pts = decode_segments_table(mine, tier=tier.name, t0_us=t0_us,
                                t1_us=t1_us, window=window_starts(config))
    ts = pts.column("bucket_ts").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    mean = pts.column("mean").to_numpy(zero_copy_only=False)
    order = np.argsort(ts)
    out["points"] = int(len(ts))
    out["bucket_ts_us"] = [int(v) for v in ts[order]]
    out["mean"] = [float(v) for v in mean[order]]
    return out
