"""The tier layout: each partition keeps its tier tables in one url-major
``rollup`` file, tier sums as decimals, segment values dec coded.  A
store written before that — a ``rollup_{tier}`` file per tier with float
sums, and tier-major "dod+xor3" segments — serves the same answers, and
each partition moves to the one file and the decimal codec when a writer
rewrites it."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.pipelines import retier
from nrt_ray.sources import synthetic
from nrt_ray.stages import compress, rollup
from nrt_ray.state import manifest
from nrt_ray.util import url_major_order

US = 1_000_000
DAY = 86400 * US
P = 4
TIERS = rollup.DEFAULT_TIERS
COMMON = dict(strategy="EWMA", monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=P, tiers=TIERS)


def test_url_major_order_is_a_stable_url_sort():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 50, 2000):
        urls = [f"u{k}" for k in rng.integers(0, 7, n)]
        for col in (pa.array(urls, pa.string()),
                    pa.chunked_array([urls[:n // 2], urls[n // 2:]],
                                     pa.string())):
            assert url_major_order(col).tolist() == sorted(
                range(n), key=lambda i: (urls[i], i))


def _exists(out: str, table: str, pid: int) -> bool:
    return os.path.exists(os.path.join(
        manifest.partition_dir(out, table, pid), "part.parquet"))


def _sorted(table: pa.Table, *keys: str) -> pa.Table:
    return table.take(pc.sort_indices(table, sort_keys=[
        (k, "ascending") for k in keys]))


def _assert_serves_the_same(a: str, b: str, urls) -> None:
    """Equal served views of every table, equal segment rows (in any row
    order, payloads compared by the points they decode to), point
    lookups and range reads of every url over 1h- and 1w-sized
    ranges."""
    tiers = [t["name"] for t in inc.read_run_config(a)["tiers"]]
    for table in ["state", "alerts", *(f"rollup_{t}" for t in tiers)]:
        assert mp.read_output_table(a, table).equals(
            mp.read_output_table(b, table)), table
    sa, sb = (_sorted(mp.read_output_table(root, "segments"), "tier", "url",
                      "seg_start") for root in (a, b))
    payload = ["codec", "payload_ts", "payload_value"]
    assert sa.drop_columns(payload).equals(sb.drop_columns(payload))
    pa_, pb = (_sorted(compress.decode_segments_table(s), "tier", "url",
                       "bucket_ts") for s in (sa, sb))
    assert pa_.drop_columns(["mean"]).equals(pb.drop_columns(["mean"]))
    assert np.array_equal(pa_.column("mean").to_numpy().view(np.uint64),
                          pb.column("mean").to_numpy().view(np.uint64))
    hw = inc.read_run_config(a)["high_water_us"]
    assert hw == inc.read_run_config(b)["high_water_us"]
    for url in urls:
        assert mp.lookup_url(a, url) == mp.lookup_url(b, url), url
        for days in (5, 400):
            assert mp.read_url_range(a, url, hw - days * DAY, hw) \
                == mp.read_url_range(b, url, hw - days * DAY, hw), url


def _codecs(out: str, pid: int) -> tuple[set, set]:
    """``(segment codec tags, tier sum types)`` of partition ``pid``."""
    got = manifest.read_partition(out, pid, ["segments", *(
        f"rollup_{x.name}" for x in TIERS)])
    seg = got.pop("segments")
    return (set(seg.column("codec").to_pylist()),
            {str(t.schema.field("sum").type) for t in got.values()})


def test_earlier_layout_store_serves_then_migrates(ray_session, tmp_path,
                                                   earlier_tier_layout):
    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=30,
                                      seed=67)
    t = pq.read_table(info["webtext"])
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    cut = int(np.quantile(ts, 0.8))
    urls = sorted(set(t.column("url").to_pylist()))
    early, late = str(tmp_path / "early.parquet"), \
        str(tmp_path / "late.parquet")
    pq.write_table(t.filter(pa.array(ts <= cut)), early)
    # newer rows of three urls: at least one of the P partitions keeps
    # its files as they are
    newer = t.filter(pa.array(ts > cut))
    pq.write_table(newer.filter(pc.is_in(newer.column("url"),
                                         value_set=pa.array(urls[:3]))),
                   late)

    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    mp.run_pipeline(early, new, **COMMON)
    shutil.copytree(new, old)
    earlier_tier_layout(old)
    for pid in range(P):
        assert not _exists(old, "rollup", pid)
        assert all(_exists(old, f"rollup_{x.name}", pid) for x in TIERS)
        assert _codecs(old, pid) == ({compress.XOR3}, {"double"})
    _assert_serves_the_same(old, new, urls)

    for root in (new, old):
        inc.run_increment(root, mp.ingest_webtext(late))
    touched = {r["partition_id"] for r in manifest.load_manifest(old)
               if r.get("increment")}
    assert touched and len(touched) < P
    for pid in range(P):
        # a rewrite writes the one file, then deletes the tier files;
        # its segments and tier sums move to the decimal codec
        assert _exists(old, "rollup", pid) == (pid in touched)
        assert all(_exists(old, f"rollup_{x.name}", pid) != (pid in touched)
                   for x in TIERS)
        assert _codecs(old, pid) == (({compress.CODEC}, {"int64"})
                                     if pid in touched else
                                     ({compress.XOR3}, {"double"}))
    _assert_serves_the_same(old, new, urls)
    assert retier.verify_store(old)["issues"] == []

    four = rollup.TierSpec("4w", width_us=28 * DAY)
    for root in (new, old):
        retier.run_retier(root, four, source="1w")
    assert not any(_exists(old, f"rollup_{x.name}", pid)
                   for x in TIERS for pid in range(P))
    assert all(_codecs(old, pid)[0] == {compress.CODEC} for pid in range(P))
    _assert_serves_the_same(old, new, urls)
    assert retier.verify_store(old)["issues"] == []
