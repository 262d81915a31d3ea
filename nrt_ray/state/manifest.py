"""Checkpoint manifest: per-partition lineage + atomic commits + resume.

The reference persists state as one netCDF per tile plus a processed-dates
log, with documented write-to-scratch-then-atomic-move advice
(``/root/reference/docs/deploy.rst:319-343,445,448``).  Our engine replaces
that with:

* output layout ``{out_dir}/{table}/part={pid}/part.parquet`` — one file
  per hash partition per logical table, written to a temp name and renamed
  (atomic on POSIX);
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
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST_DIR = "manifest"


def partition_dir(out_dir: str, table: str, pid: int) -> str:
    return os.path.join(out_dir, table, f"part={pid}")


def write_partition_table(out_dir: str, table: str, pid: int,
                          data: pa.Table) -> str:
    """Atomically write one partition of one logical table.

    Write options are tuned for the hot path (these writes sit inside
    every reduce task): dictionary encoding OFF — it cost more write
    time than it saved bytes, and lz4 compresses the repeated url
    strings as well — and row-group statistics OFF because a partition
    file is a single row group, so min/max stats can never prune
    anything on read.  float64 columns are BYTE_STREAM_SPLIT (lz4 then
    finds their shared exponent bytes), timestamps DELTA_BINARY_PACKED."""
    d = partition_dir(out_dir, table, pid)
    os.makedirs(d, exist_ok=True)
    final = os.path.join(d, "part.parquet")
    tmp = os.path.join(d, f".tmp-{os.getpid()}-part.parquet")
    encodings = {f.name: "BYTE_STREAM_SPLIT"
                 if pa.types.is_float64(f.type) else "DELTA_BINARY_PACKED"
                 for f in data.schema if pa.types.is_float64(f.type)
                 or pa.types.is_timestamp(f.type)}
    pq.write_table(data, tmp, compression="lz4", use_dictionary=False,
                   write_statistics=False, column_encoding=encodings)
    os.replace(tmp, final)
    return final


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
    final = os.path.join(d, f"partition-{pid:05d}.json")
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
    committed last.

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
    for name, table in tables.items():
        if table is None:
            path = os.path.join(partition_dir(out_dir, name, pid),
                                "part.parquet")
            if os.path.exists(path):
                os.remove(path)
            record["row_counts"].pop(name, None)
            continue
        if name != "state":
            write_partition_table(out_dir, name, pid, table)
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
    return {r["partition_id"] for r in load_manifest(out_dir)
            if r.get("committed")}


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
    ``verify_store(repair=True)`` only.  Output tables stay on disk
    until the rebuild overwrites them (``verify_store`` lists such pids
    as files without a commit record) — a crash between uncommit and
    rebuild is safe: the partitions simply rebuild on the next resume."""
    d = os.path.join(out_dir, MANIFEST_DIR)
    removed = []
    for pid in pids:
        p = os.path.join(d, f"partition-{pid:05d}.json")
        if os.path.exists(p):
            os.remove(p)
            removed.append(int(pid))
    return removed
