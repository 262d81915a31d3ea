"""Source-format interop: JSONL, CSV and Arrow IPC writers for any
engine table (the CLI ``export`` command).

Parquet is the engine's native format; these converters cover the
interchange formats real crawls arrive in.  Fidelity rules for a reader
(pyarrow's own JSON, CSV and IPC readers read the shards back):

* timestamps serialize as INTEGER epoch microseconds (ISO strings are
  lossy across writers and timezone-ambiguous), restored by an explicit
  cast on read;
* binary columns are not representable in CSV/JSONL — callers drop or
  hex-encode them first (``html`` never travels through these paths);
* floats round-trip bit-exactly through both formats (Arrow writes
  shortest-repr doubles and reads them back to the same bits);
* IPC keeps every type as is.

The writers stream block-by-block (``write_json``/``write_csv`` are Ray
Data native); nothing is materialized on the driver.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data


def _ts_columns(schema: pa.Schema) -> list[str]:
    return [f.name for f in schema if pa.types.is_timestamp(f.type)]


def _encode_ts(batch: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        i = batch.column_names.index(c)
        batch = batch.set_column(
            i, c, batch.column(c).cast(pa.int64()))
    return batch


def dataset_to_jsonl(ds: ray.data.Dataset, out_dir: str) -> list[str]:
    """Write a Dataset as JSONL shards (timestamps → epoch µs ints)."""
    cols = _ts_columns(ds.schema().base_schema)
    ds.map_batches(lambda b: _encode_ts(b, cols),
                   batch_format="pyarrow").write_json(out_dir)
    return cols


def dataset_to_csv(ds: ray.data.Dataset, out_dir: str) -> list[str]:
    """Write a Dataset as CSV shards (timestamps → epoch µs ints)."""
    cols = _ts_columns(ds.schema().base_schema)
    ds.map_batches(lambda b: _encode_ts(b, cols),
                   batch_format="pyarrow").write_csv(out_dir)
    return cols


def dataset_to_ipc(ds: ray.data.Dataset, out_dir: str) -> list[str]:
    """Write a Dataset as Arrow IPC (Feather v2) shards — the zero-copy
    interchange format: full type fidelity (timestamps, binary, lists),
    no encode/decode transforms needed.  One file per block, written
    inside the map task (nothing on the driver); returns the paths."""
    import os
    import uuid

    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        p = os.path.join(out_dir, f"shard-{uuid.uuid4().hex[:12]}.arrow")
        tmp = p + ".tmp"
        with pa.OSFile(tmp, "wb") as f:
            with pa.ipc.new_file(f, batch.schema) as w:
                w.write_table(batch)
        os.replace(tmp, p)
        return pa.table({"path": pa.array([p], pa.string()),
                         "rows": pa.array([batch.num_rows], pa.int64())})

    manifest = ds.map_batches(write_block, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    return sorted(manifest["path"].tolist())
