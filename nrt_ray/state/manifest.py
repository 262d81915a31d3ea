"""Checkpoint manifest: per-partition lineage + atomic commits + resume.

The reference persists state as one netCDF per tile plus a processed-dates
log, with documented write-to-scratch-then-atomic-move advice
(``/root/reference/docs/deploy.rst:319-343,445,448``).  Our engine replaces
that with:

* output layout ``{out_dir}/{table}/part={pid}/part.parquet`` — one file
  per hash partition per logical table, written to a temp name and renamed
  (atomic on POSIX).  The tier tables ``rollup_{tier}`` share one
  ``rollup`` file per partition, url-major (:func:`persist_partition`);
  a partition written before that keeps its ``rollup_{tier}`` files
  until it is rewritten;
* a manifest directory with one JSON lineage record per committed
  partition: run id, partition id, partitioning config (num_partitions —
  pinned so state and future ingests stay co-partitioned), input row count,
  per-table row counts, and a state checksum;
* resume = read the committed-partition set and skip those partitions'
  rows right after extraction (cheap filter, no recompute).

A partition is committed only after *all* its table files are durably in
place, so a kill at any point leaves either a fully committed partition
(skipped on resume) or an uncommitted one (recomputed; its possibly
half-written temp files are ignored by readers and overwritten).  Every
writer — flagship reduce, hot-url merge, increment, continuous
checkpoint, retier, forget and backfill — commits through
:func:`persist_partition`, so every record carries the same keys.

Readers see committed partitions only, through functions here, the
only code that knows the layout: :func:`read_partition` (one pid's
tables), :func:`committed_files` (for Ray Data scans and byte counts),
:func:`uncommitted_pids` (files without a commit record) and
:func:`rollup_layout` (fsck of the tier files).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from nrt_ray.util import url_major_order

MANIFEST_DIR = "manifest"

#: the file table of a partition's tier tables, and their name prefix:
#: tables ``rollup_{tier}`` are the rows of ``rollup`` with that ``tier``
ROLLUP = "rollup"
TIER_PREFIX = "rollup_"
#: ``rollup`` schema-metadata key: the tier tables it holds, in order;
#: each one's own metadata is kept under keys ``b"rollup_{tier}:" + key``
TIERS_KEY = b"nrt_ray.tiers"


def partition_dir(out_dir: str, table: str, pid: int) -> str:
    return os.path.join(out_dir, table, f"part={pid}")


def _file(out_dir: str, table: str, pid: int) -> str:
    return os.path.join(partition_dir(out_dir, table, pid), "part.parquet")


def _record_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"partition-{pid:05d}.json")


def write_partition_table(out_dir: str, table: str, pid: int,
                          data: pa.Table) -> str:
    """Atomically write one partition of one logical table.

    Write options are tuned for the hot path (these writes sit inside
    every reduce task): dictionary encoding OFF — it cost more write
    time than it saved bytes, and lz4 compresses the repeated url
    strings as well — except for Arrow dictionary columns (the
    ``rollup`` file's ``tier``), and row-group statistics OFF because a partition
    file is a single row group, so min/max stats can never prune
    anything on read.  float64 columns are BYTE_STREAM_SPLIT (lz4 then
    finds their shared exponent bytes), timestamps DELTA_BINARY_PACKED."""
    d = partition_dir(out_dir, table, pid)
    os.makedirs(d, exist_ok=True)
    final = _file(out_dir, table, pid)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-part.parquet")
    encodings = {f.name: "BYTE_STREAM_SPLIT"
                 if pa.types.is_float64(f.type) else "DELTA_BINARY_PACKED"
                 for f in data.schema if pa.types.is_float64(f.type)
                 or pa.types.is_timestamp(f.type)}
    pq.write_table(data, tmp, compression="lz4", write_statistics=False,
                   use_dictionary=[f.name for f in data.schema
                                   if pa.types.is_dictionary(f.type)],
                   column_encoding=encodings)
    os.replace(tmp, final)
    return final


def _tier_file(tiers: dict) -> pa.Table | None:
    """The ``rollup`` table of a partition's tier tables (``{rollup_{t}:
    table or None}``, in tier order; None without a table): their rows
    with a ``tier`` column after ``url``, url-major — sorted by (url,
    tier, bucket_ts), since each tier table is (url, bucket_ts)-sorted —
    so a url's tiers sit side by side for LZ4.  Its schema metadata
    lists the tiers and keeps each one's own metadata."""
    tiers = {name: t for name, t in tiers.items() if t is not None}
    if not tiers:
        return None
    meta = {TIERS_KEY: json.dumps(list(tiers)).encode()}
    for name, t in tiers.items():
        meta.update({name.encode() + b":" + k: v
                     for k, v in (t.schema.metadata or {}).items()})
    table = pa.concat_tables([t.replace_schema_metadata(None)
                              for t in tiers.values()])
    tier = pa.DictionaryArray.from_arrays(
        np.repeat(np.arange(len(tiers), dtype=np.int8),
                  [t.num_rows for t in tiers.values()]),
        [name[len(TIER_PREFIX):] for name in tiers])
    table = table.add_column(1, "tier", tier)
    return table.take(url_major_order(table.column("url"))) \
        .replace_schema_metadata(meta)


def _split_tiers(table: pa.Table, names) -> dict:
    """``{name: tier table or None}`` of a ``rollup`` table: the rows of
    each requested tier, (url, bucket_ts)-sorted, with its own schema
    metadata back; None for a tier the file does not hold."""
    meta = table.schema.metadata
    held = json.loads(meta[TIERS_KEY])
    tier = table.column("tier").combine_chunks()
    codes = tier.indices.to_numpy(zero_copy_only=False)
    code = {t: k for k, t in enumerate(tier.dictionary.to_pylist())}
    rows = table.drop_columns(["tier"]).replace_schema_metadata(None)
    out = {}
    for name in names:
        if name not in held:
            out[name] = None
            continue
        prefix = name.encode() + b":"
        out[name] = rows.filter(pa.array(
            codes == code.get(name[len(TIER_PREFIX):], -1))) \
            .replace_schema_metadata(
                {k[len(prefix):]: v for k, v in meta.items()
                 if k.startswith(prefix)} or None)
    return out


def _legacy_tier_files(out_dir: str, pid: int) -> dict:
    """``{rollup_{tier}: path}`` of ``pid``'s files of the tier layout
    before the ``rollup`` file."""
    return {name: f for name in sorted(os.listdir(out_dir))
            if name.startswith(TIER_PREFIX)
            and os.path.exists(f := _file(out_dir, name, pid))}


def state_checksum(state: pa.Table) -> str:
    """Order-insensitive sha256 of a state table (rows sorted by url).

    The schema is canonicalized first (metadata stripped, list child
    fields renamed to Arrow's default) so the checksum survives a
    Parquet roundtrip — ``verify_store`` recomputes it from the file."""
    if state.num_rows == 0:
        return hashlib.sha256(b"empty").hexdigest()

    def canon(t: pa.DataType) -> pa.DataType:
        return pa.list_(canon(t.value_type)) if pa.types.is_list(t) else t

    state = state.cast(pa.schema(
        [pa.field(f.name, canon(f.type)) for f in state.schema]))
    idx = pa.compute.sort_indices(state.column("url"))
    sorted_tbl = state.take(idx).combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, sorted_tbl.schema) as writer:
        writer.write_table(sorted_tbl)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def commit_partition(out_dir: str, run_id: str, pid: int,
                     record: dict) -> str:
    """Atomically write the lineage record that marks ``pid`` committed."""
    d = os.path.join(out_dir, MANIFEST_DIR)
    os.makedirs(d, exist_ok=True)
    record = dict(record, run_id=run_id, partition_id=pid,
                  committed=True, committed_at=time.time())
    final = _record_path(out_dir, pid)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{pid:05d}.json")
    with open(tmp, "w") as f:
        json.dump(record, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, final)
    return final


def persist_partition(out_dir: str, run_id: str, pid: int, tables: dict,
                      record: dict, points: tuple = (0, 0),
                      fault_hook=None) -> dict:
    """The one way a partition's files change: ``state`` first, then
    ``fault_hook(pid)``, then every other table of ``tables`` (a table
    mapped to None has its file deleted), then the lineage record,
    committed last.  The tier tables ``rollup_{tier}`` of ``tables``
    (all of the partition's, in tier order) are written as one
    ``rollup`` file (:func:`_tier_file`; deleted when all map to None),
    and the partition's ``rollup_{tier}`` files of the earlier layout
    are deleted after it.

    The record gains each written table's row count (merged into its
    ``row_counts``), the state checksum when ``tables`` has a ``state``
    entry ("" when it maps to None), and ``points`` — the partition's
    served tier points and observed buckets over all its tiers — as
    ``metrics``.  ``fault_hook`` is the chaos-testing hook: a worker
    death there leaves uncommitted output that a retry overwrites
    (tests/test_resilience.py); None in production.  Returns the
    committed record."""
    record = dict(record, row_counts=dict(record.get("row_counts") or {}),
                  metrics=dict(record.get("metrics") or {},
                               rollup_points=int(points[0]),
                               observed_buckets=int(points[1])))
    state = tables.get("state")
    if state is not None:
        write_partition_table(out_dir, "state", pid, state)
    if fault_hook is not None:
        fault_hook(pid)
    tiers = {n: t for n, t in tables.items() if n.startswith(TIER_PREFIX)}
    files = {n: t for n, t in tables.items() if n not in tiers}
    if tiers:
        files[ROLLUP] = _tier_file(tiers)
    for name, table in files.items():
        if table is None:
            path = _file(out_dir, name, pid)
            if os.path.exists(path):
                os.remove(path)
        elif name != "state":
            write_partition_table(out_dir, name, pid, table)
    if tiers:
        for path in _legacy_tier_files(out_dir, pid).values():
            os.remove(path)
    for name, table in tables.items():
        if table is None:
            record["row_counts"].pop(name, None)
        else:
            record["row_counts"][name] = table.num_rows
    if "state" in tables:
        record["state_checksum"] = "" if state is None \
            else state_checksum(state)
    commit_partition(out_dir, run_id, pid, record)
    return record


def load_manifest(out_dir: str) -> list[dict]:
    d = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(d):
        return []
    records = []
    for name in sorted(os.listdir(d)):
        if name.startswith("partition-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                records.append(json.load(f))
    return records


def committed_partitions(out_dir: str) -> set[int]:
    """Pids with a commit record, from the records' names: a record is
    in place only once :func:`commit_partition` committed its pid (as
    :func:`read_partition` reads it), so no record is parsed.
    :func:`load_manifest` parses them (fsck, stats)."""
    d = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(d):
        return set()
    return {int(name[len("partition-"):-len(".json")])
            for name in os.listdir(d)
            if name.startswith("partition-") and name.endswith(".json")}


def check_partitioning(out_dir: str, num_partitions: int) -> None:
    """Refuse to resume with a different partition count than the one the
    existing manifest was written with (co-partitioning invariant)."""
    for r in load_manifest(out_dir):
        p = r.get("num_partitions")
        if p is not None and p != num_partitions:
            raise ValueError(
                f"manifest was written with num_partitions={p}, "
                f"got {num_partitions}; partitioning is pinned per output")


def uncommit_partitions(out_dir: str, pids) -> list[int]:
    """Remove the commit records for ``pids`` (hash or merge pids) so a
    resumed ``run_pipeline`` rebuilds them: used by backfill and by
    ``verify_store(repair=True)`` only.  Output tables stay on disk,
    unread, until the rebuild overwrites them (:func:`uncommitted_pids`
    lists such pids) — a crash between uncommit and rebuild is safe:
    the partitions simply rebuild on the next resume."""
    removed = []
    for pid in pids:
        p = _record_path(out_dir, pid)
        if os.path.exists(p):
            os.remove(p)
            removed.append(int(pid))
    return removed


def _read(path: str) -> pa.Table:
    with pq.ParquetFile(path) as f:
        return f.read(use_threads=False)


def read_partition(out_dir: str, pid: int, tables) -> dict:
    """``{table: Table | None}`` of partition ``pid``: all None unless
    its commit record is in place.  Tier tables ``rollup_{tier}`` come
    from the partition's ``rollup`` file, split back into per-tier
    tables with their own metadata (:func:`_split_tiers`); a partition
    without one serves them from its ``rollup_{tier}`` files of the
    earlier layout.  The one read mode: single-threaded (many readers
    run at once, and pyarrow's process-wide thread pool costs several
    times the CPU on a small file), file closed after."""
    out = dict.fromkeys(tables)
    if not os.path.exists(_record_path(out_dir, pid)):  # uncommitted
        return out
    tiers = [t for t in out if t.startswith(TIER_PREFIX)]
    if tiers and os.path.exists(path := _file(out_dir, ROLLUP, pid)):
        out.update(_split_tiers(_read(path), tiers))
    else:
        tiers = []                  # the earlier layout: a file per tier
    for table in out:
        if table not in tiers and \
                os.path.exists(path := _file(out_dir, table, pid)):
            out[table] = _read(path)
    return out


def committed_files(out_dir: str, table: str) -> list[str]:
    """Paths of ``table``'s files of committed partitions, in pid order
    (Ray Data scans, byte counts).  For ``rollup``, a partition of the
    earlier tier layout lists its ``rollup_{tier}`` files instead."""
    files = []
    for pid in sorted(committed_partitions(out_dir)):
        if os.path.exists(f := _file(out_dir, table, pid)):
            files.append(f)
        elif table == ROLLUP:
            files += _legacy_tier_files(out_dir, pid).values()
    return files


def rollup_layout(out_dir: str, pid: int):
    """``(tier tables, legacy tier tables)`` of partition ``pid``'s
    files: the ``rollup_{tier}`` tables its ``rollup`` file holds (None
    without one), and those with a file of the earlier layout."""
    path = _file(out_dir, ROLLUP, pid)
    held = json.loads(pq.read_schema(path).metadata[TIERS_KEY]) \
        if os.path.exists(path) else None
    return held, list(_legacy_tier_files(out_dir, pid))


def uncommitted_pids(out_dir: str) -> list[int]:
    """Pids with table files but no commit record (a run that died
    before committing them, or :func:`uncommit_partitions`); a resumed
    ``run_pipeline`` rebuilds them."""
    on_disk = {int(p[len("part="):]) for table in os.listdir(out_dir)
               if table != MANIFEST_DIR
               and os.path.isdir(os.path.join(out_dir, table))
               for p in os.listdir(os.path.join(out_dir, table))
               if p.startswith("part=") and os.path.exists(
                   os.path.join(out_dir, table, p, "part.parquet"))}
    return sorted(on_disk - committed_partitions(out_dir))
