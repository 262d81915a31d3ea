"""End-to-end Ray pipeline: correctness vs single-process oracle, resume
idempotence, manifest lineage."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nrt_ray.sources import extract, synthetic
from nrt_ray.stages import assemble, rollup
from nrt_ray.stages.fit_monitor import SeriesFitMonitor
from nrt_ray.state import manifest
from nrt_ray.pipelines import monitor_pipeline as mp

US = 1_000_000


@pytest.fixture(scope="module")
def webtext(tmp_path_factory):
    d = tmp_path_factory.mktemp("wt")
    info = synthetic.generate_webtext(str(d), n_urls=128, seed=42)
    return info


TIERS = (rollup.TierSpec("1d"), rollup.TierSpec("1w"))


def _run(webtext, out_dir, **kw):
    kw.setdefault("strategy", "EWMA")
    kw.setdefault("monitor_params", {"trend": False})
    kw.setdefault("num_partitions", 8)
    kw.setdefault("tiers", TIERS)
    return mp.run_pipeline(webtext["webtext"], str(out_dir), **kw)


def test_pipeline_end_to_end_matches_local_oracle(ray_session, webtext,
                                                  tmp_path):
    summary = _run(webtext, tmp_path / "out", verify_extract=True)
    assert summary["partitions_processed"] > 0
    assert summary["rollup_points"] > 0

    # ---- local single-process oracle over the same inputs --------------
    t = pq.read_table(webtext["webtext"])
    flat = extract.ExtractSignal()(t)
    series = assemble.assemble_series(flat)
    stage = SeriesFitMonitor(strategy="EWMA", monitor_start="2021-01-01",
                             monitor_params={"trend": False})
    state_local = stage(series)
    tiers_local = rollup.rollup_series_table(series, tiers=TIERS)

    state_ray = mp.read_output_table(str(tmp_path / "out"), "state")
    assert state_ray.num_rows == state_local.num_rows
    # align on url and compare everything exactly
    def by_url(tbl):
        idx = pa.compute.sort_indices(tbl.column("url"))
        return tbl.take(idx)
    a, b = by_url(state_ray), by_url(state_local)
    assert a.column("url").to_pylist() == b.column("url").to_pylist()
    np.testing.assert_array_equal(
        a.column("status").to_numpy(zero_copy_only=False),
        b.column("status").to_numpy(zero_copy_only=False))
    np.testing.assert_array_equal(
        a.column("detection_date").to_numpy(zero_copy_only=False),
        b.column("detection_date").to_numpy(zero_copy_only=False))
    np.testing.assert_allclose(
        a.column("process").to_numpy(zero_copy_only=False),
        b.column("process").to_numpy(zero_copy_only=False),
        rtol=1e-10, atol=1e-12)

    for name, local_tbl in tiers_local.items():
        ray_tbl = mp.read_output_table(str(tmp_path / "out"),
                                       f"rollup_{name}")
        la = by_url(local_tbl)
        ra = by_url(ray_tbl)
        assert ra.num_rows == la.num_rows, name
        # bit-for-bit tier equality (sorted by url, bucket_ts)
        def key_sorted(tbl):
            idx = pa.compute.sort_indices(
                tbl, sort_keys=[("url", "ascending"),
                                ("bucket_ts", "ascending")])
            return tbl.take(idx)
        ra, la = key_sorted(ray_tbl), key_sorted(local_tbl)
        for col in ("url", "bucket_ts", "count", "gapfilled"):
            assert ra.column(col).to_pylist() == la.column(col).to_pylist()
        for col in ("mean", "min", "max", "last"):
            va = ra.column(col).to_numpy(zero_copy_only=False)
            vb = la.column(col).to_numpy(zero_copy_only=False)
            np.testing.assert_array_equal(va.astype(np.float64).view(np.uint64),
                                          vb.astype(np.float64).view(np.uint64))


def test_segments_decode_to_rollup_means(ray_session, webtext, tmp_path):
    from nrt_ray.stages import compress
    _run(webtext, tmp_path / "out")
    seg = mp.read_output_table(str(tmp_path / "out"), "segments")
    roll = mp.read_output_table(str(tmp_path / "out"), "rollup_1d")
    assert seg.num_rows > 0
    df = roll.to_pandas()
    one = seg.to_pylist()[0]
    # the payload holds stored rows; the segment serves them gap-filled
    pts = compress.decode_segments_table(seg.slice(0, 1))
    got = pts.column("mean").to_numpy()
    sub = df[df.url == one["url"]].sort_values("bucket_ts")
    exp = sub["mean"].to_numpy()[:one["n_points"]]
    assert len(got) == one["n_points"]
    np.testing.assert_array_equal(got, exp)
    ts = pts.column("bucket_ts").cast(pa.int64()).to_numpy()
    exp_ts = sub["bucket_ts"].astype("int64").to_numpy()[:one["n_points"]]
    np.testing.assert_array_equal(ts, exp_ts)


def test_resume_skips_committed_and_is_idempotent(ray_session, webtext,
                                                  tmp_path):
    out = tmp_path / "out"
    s1 = _run(webtext, out)
    assert s1["partitions_skipped"] == 0

    # simulate a kill after partial commit: drop half the manifest +
    # the corresponding outputs
    records = manifest.load_manifest(str(out))
    assert len(records) == s1["partitions_processed"]
    victims = [r["partition_id"] for r in records[::2]]
    for pid in victims:
        os.remove(os.path.join(out, "manifest",
                               f"partition-{pid:05d}.json"))
        for table in ("state", "alerts", "segments", "rollup"):
            shutil.rmtree(os.path.join(out, table, f"part={pid}"),
                          ignore_errors=True)

    s2 = _run(webtext, out)
    assert s2["partitions_skipped"] == s1["partitions_processed"] - len(victims)
    assert s2["partitions_processed"] == len(victims)

    # full fresh run for byte comparison
    s3 = _run(webtext, tmp_path / "fresh")
    for table in ("state", "rollup_1d", "rollup_1w", "segments", "alerts"):
        a = mp.read_output_table(str(out), table)
        b = mp.read_output_table(str(tmp_path / "fresh"), table)
        assert a.equals(b), f"{table} differs after resume"
    # lineage checksums match the fresh run's
    ca = {r["partition_id"]: r["state_checksum"]
          for r in manifest.load_manifest(str(out))}
    cb = {r["partition_id"]: r["state_checksum"]
          for r in manifest.load_manifest(str(tmp_path / "fresh"))}
    assert ca == cb


def test_partition_count_pinned(ray_session, webtext, tmp_path):
    out = tmp_path / "out"
    _run(webtext, out)
    with pytest.raises(ValueError, match="pinned"):
        _run(webtext, out, num_partitions=16)


def test_events_adapter(ray_session, tmp_path):
    import ray.data
    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/events.parquet") \
        .map_batches(mp.events_to_flat, batch_format="pyarrow")
    # one month of events → intercept-only model, split mid-month
    summary = mp.run_pipeline(
        None, str(tmp_path / "out"), flat_dataset=ds, strategy="IQR",
        monitor_params={"trend": False, "harmonic_order": 0},
        fit_method="OLS", monitor_start="2024-01-22",
        num_partitions=4,
        tiers=(rollup.TierSpec("1d", gapfill=False),))
    assert summary["series"] > 0
    assert summary["rollup_points"] > 0


def test_flagship_identical_via_hierarchical_exchange(ray_session, webtext,
                                                      tmp_path,
                                                      monkeypatch):
    """Dropping the hierarchical autoswitch threshold to 2 forces the
    flagship's exchange through the two-level split (P=8 → fanout 3);
    every output table must be byte-identical to the flat path."""
    from nrt_ray.stages import exchange
    _run(webtext, tmp_path / "flat")
    monkeypatch.setattr(exchange, "_HIERARCHICAL_MIN_P", 2)
    _run(webtext, tmp_path / "hier")
    for table in ("state", "rollup_1d", "rollup_1w", "segments", "alerts"):
        a = mp.read_output_table(str(tmp_path / "flat"), table)
        b = mp.read_output_table(str(tmp_path / "hier"), table)
        assert a.equals(b), table
