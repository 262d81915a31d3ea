"""Every writer commits the same lineage record.

After an increment, a continuous checkpoint and a retier, the manifest's
summed ``rollup_points``/``observed_buckets`` (what ``cli stats``
prints) equal a one-shot run's at the same input and mark, plus the new
tier's decoded points after the retier; and an increment's record holds
the per-table row counts ``verify_store`` checks its files against."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nrt_ray import cli
from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.pipelines import retier
from nrt_ray.pipelines.continuous import ContinuousMonitor
from nrt_ray.sources import synthetic
from nrt_ray.stages import compress, rollup
from nrt_ray.state import manifest

US = 1_000_000
WEEK = 7 * 86400 * US
CUTS = (np.datetime64("2021-06-01", "us"),
        np.datetime64("2021-10-01", "us"))
COMMON = dict(strategy="EWMA", fit_method="OLS",
              monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=4)


def _stats(out: str, capsys) -> dict:
    capsys.readouterr()
    assert cli.main(["stats", "--out", out]) == 0
    s = json.loads(capsys.readouterr().out)
    return {k: s[k] for k in ("rollup_points", "observed_buckets")}


def _oneshot(paths, out: str, hw: int) -> dict:
    s = mp.run_pipeline(paths, out, high_water_us=hw, **COMMON)
    return {k: s[k] for k in ("rollup_points", "observed_buckets")}


def _hw(out: str) -> int:
    return int(inc.read_run_config(out)["high_water_us"])


def test_every_writer_records_points_and_row_counts(ray_session, tmp_path,
                                                    capsys):
    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=32,
                                      seed=61)
    t = pq.read_table(info["webtext"])
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    c0, c1 = (int(c.astype(np.int64)) for c in CUTS)
    paths = []
    for k, keep in enumerate((ts <= c0, (ts > c0) & (ts <= c1), ts > c1)):
        paths.append(str(tmp_path / f"chunk{k}.parquet"))
        pq.write_table(t.filter(pa.array(keep)), paths[-1])
    store = str(tmp_path / "store")
    mp.run_pipeline(paths[0], store, **COMMON)

    # increment: points as a one-shot run's, row counts verifiable
    inc.run_increment(store, mp.ingest_webtext(paths[1]))
    assert any(r.get("increment") for r in manifest.load_manifest(store))
    assert _stats(store, capsys) == _oneshot(
        paths[:2], str(tmp_path / "oneshot1"), _hw(store))
    assert not retier.verify_store(store)["issues"]
    broken = str(tmp_path / "broken")
    shutil.copytree(store, broken)
    pid = next(r["partition_id"] for r in manifest.load_manifest(broken)
               if r.get("increment"))
    f = os.path.join(manifest.partition_dir(broken, "rollup_1d", pid),
                     "part.parquet")
    tier = pq.read_table(f)
    pq.write_table(tier.slice(0, tier.num_rows - 1), f)
    issues = retier.verify_store(broken)["issues"]
    assert issues and all(i.startswith(f"pid {pid}:") for i in issues)
    assert any("rollup_1d rows" in i for i in issues)

    # continuous ingest + checkpoint
    cm = ContinuousMonitor(store, pool=2)
    try:
        cm.ingest(mp.ingest_webtext(paths[2]))
        cm.checkpoint()
    finally:
        cm.close()
    want = _oneshot(paths, str(tmp_path / "oneshot2"), _hw(store))
    assert _stats(store, capsys) == want
    assert not retier.verify_store(store)["issues"]

    # retier: the new tier's points are its decoded points, added in
    s = retier.run_retier(store, rollup.TierSpec("4w", width_us=4 * WEEK),
                          "1w")
    decoded = observed = 0
    for pid in manifest.committed_partitions(store):
        seg = pq.read_table(os.path.join(
            manifest.partition_dir(store, "segments", pid), "part.parquet"))
        decoded += compress.decode_segments_table(seg.filter(
            pc.equal(seg.column("tier"), "4w"))).num_rows
        observed += rollup.served_counts(pq.read_table(os.path.join(
            manifest.partition_dir(store, "rollup_4w", pid),
            "part.parquet")))[1]
    assert decoded > 0 and s["rollup_points"] == decoded
    assert _stats(store, capsys) == {
        "rollup_points": want["rollup_points"] + decoded,
        "observed_buckets": want["observed_buckets"] + observed}
    assert not retier.verify_store(store)["issues"]
