"""JSONL / CSV / IPC interchange round-trips: the shards the writers
stream out, read back with pyarrow's own JSON, CSV and IPC readers, are
value-identical to the parquet source after the documented timestamp
encoding."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.csv as pcsv
import pyarrow.json as pjson
import pytest

from nrt_ray.sources import formats

SF_DIR = os.environ.get("NRT_TEST_SF_DIR", "/root/testdata/sf0.001")


def _events(limit=None):
    import ray.data
    ds = ray.data.read_parquet(
        f"{SF_DIR}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"])
    return ds


def _read_shards(out: str, read, ts_columns=()) -> pd.DataFrame:
    """Every shard in ``out`` read with ``read`` (a pyarrow reader), the
    ``ts_columns`` cast from epoch µs back to timestamps."""
    t = pa.concat_tables([read(os.path.join(out, f))
                          for f in sorted(os.listdir(out))])
    for c in ts_columns:
        t = t.set_column(t.column_names.index(c), c,
                         t.column(c).cast(pa.int64())
                         .cast(pa.timestamp("us")))
    return t.to_pandas()


def _read_ipc(path: str) -> pa.Table:
    with pa.memory_map(path, "rb") as f:
        return pa.ipc.open_file(f).read_all()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("event_id").reset_index(drop=True) \
        [["event_id", "ts", "user_id", "event_type", "value"]]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_roundtrip_events(ray_session, tmp_path, fmt):
    src = _events()
    out = str(tmp_path / fmt)
    if fmt == "jsonl":
        ts_cols = formats.dataset_to_jsonl(src, out)
        back = _read_shards(out, pjson.read_json, ts_cols)
    else:
        ts_cols = formats.dataset_to_csv(src, out)
        back = _read_shards(out, pcsv.read_csv, ts_cols)
    assert ts_cols == ["ts"]
    a = _norm(src.to_pandas())
    b = _norm(back)
    assert len(os.listdir(out)) >= 1        # sharded, not one giant file
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_csv_float_bit_exact(ray_session, tmp_path):
    """Doubles survive CSV via shortest-repr round-trip."""
    src = _events()
    out = str(tmp_path / "csv_exact")
    formats.dataset_to_csv(src, out)
    back = _read_shards(out, pcsv.read_csv, ["ts"])
    a = _norm(src.to_pandas())["value"].to_numpy()
    b = _norm(back)["value"].to_numpy()
    assert (a == b).all()


def test_roundtrip_ipc(ray_session, tmp_path):
    src = _events()
    out = str(tmp_path / "ipc")
    paths = formats.dataset_to_ipc(src, out)
    assert paths and all(p.endswith(".arrow") for p in paths)
    back = pa.concat_tables([_read_ipc(p) for p in paths])
    a = _norm(src.to_pandas())
    b = _norm(back.to_pandas())
    pd.testing.assert_frame_equal(a, b)      # type-exact, incl. ts dtype
    assert back.schema.field("ts").type == "timestamp[us]"


def test_ipc_preserves_binary_and_lists(ray_session, tmp_path):
    import ray.data
    t = pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "blob": pa.array([b"\x00\xff", b"abc"], pa.binary()),
        "vec": pa.array([[1.5, 2.5], [3.5]], pa.list_(pa.float64())),
    })
    out = str(tmp_path / "ipc2")
    formats.dataset_to_ipc(ray.data.from_arrow(t), out)
    got = _read_shards(out, _read_ipc) \
        .sort_values("k").reset_index(drop=True)
    assert got["blob"].tolist() == [b"\x00\xff", b"abc"]
    assert [list(v) for v in got["vec"]] == [[1.5, 2.5], [3.5]]
