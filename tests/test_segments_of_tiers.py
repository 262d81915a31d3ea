"""A partition's segments are a pure function of its committed tiers:
after every writer path, each committed partition's ``segments`` file
equals ``segments_from_rollups`` over its committed tier files, in the
run config's tier order, each at its own file's mark."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.pipelines import retier
from nrt_ray.sources import synthetic
from nrt_ray.stages import compress, rollup
from nrt_ray.state import manifest

US = 1_000_000
DAY = 86400 * US
CUT = np.datetime64("2021-09-01", "us").astype(np.int64)
#: the default 1h tier (its 90-day window moves with every increment)
TIERS = (rollup.DEFAULT_TIERS[0], rollup.TierSpec("1d"),
         rollup.TierSpec("1w", retention_us=300 * DAY))
COMMON = dict(strategy="EWMA", monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=3)
PATHS = ["oneshot", "increment", "continuous", "forget", "retier",
         "backfill"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``(early, batch 1, batch 2)`` Parquet paths: the base run's rows,
    then two chronological micro-batches.  Batch 1 also carries three
    urls' rows from the 20 days before the cut, held back from the base
    run: an increment dead-letters them and a backfill applies them."""
    d = tmp_path_factory.mktemp("segments_of_tiers")
    info = synthetic.generate_webtext(str(d), n_urls=36, seed=71)
    t = pq.read_table(info["webtext"])
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    urls = t.column("url").to_numpy(zero_copy_only=False)
    held = np.isin(urls, np.unique(urls)[:3]) & (ts > CUT - 20 * DAY) \
        & (ts <= CUT)
    mid = (CUT + ts.max()) // 2
    paths = []
    for name, rows in (("early", (ts <= CUT) & ~held),
                       ("batch1", held | ((ts > CUT) & (ts <= mid))),
                       ("batch2", ts > mid)):
        paths.append(str(d / f"{name}.parquet"))
        pq.write_table(t.filter(pa.array(rows)), paths[-1])
    return paths


def _assert_segments_encode_tiers(out: str) -> int:
    """Every committed partition's segments equal the encode of its
    committed tier files; returns how many partitions were checked."""
    tiers = [t["name"] for t in inc.read_run_config(out)["tiers"]]

    def read(table, pid):
        p = os.path.join(manifest.partition_dir(out, table, pid),
                         "part.parquet")
        return pq.read_table(p) if os.path.exists(p) else None

    checked = 0
    for pid in sorted(manifest.committed_partitions(out)):
        stored = {t: read(f"rollup_{t}", pid) for t in tiers}
        seg = read("segments", pid)
        if seg is None:                    # a partition committed empty
            assert all(v is None for v in stored.values()), pid
            continue
        assert seg.equals(compress.segments_from_rollups(stored)), pid
        checked += 1
    return checked


@pytest.mark.parametrize("path", PATHS)
def test_segments_encode_the_committed_tiers(ray_session, inputs, tmp_path,
                                             path):
    from nrt_ray.pipelines.continuous import ContinuousMonitor

    early, b1, b2 = inputs
    out = str(tmp_path / "out")
    if path == "oneshot":
        flat = pa.concat_tables([pq.read_table(p) for p in inputs])
        pq.write_table(flat, str(tmp_path / "all.parquet"))
        mp.run_pipeline(str(tmp_path / "all.parquet"), out, tiers=TIERS,
                        **COMMON)
    else:
        mp.run_pipeline(early, out, tiers=TIERS[:2] if path == "retier"
                        else TIERS, **COMMON)
    if path == "continuous":
        cm = ContinuousMonitor(out, pool=2)
        try:
            for b in (b1, b2):
                cm.ingest(mp.ingest_webtext(b))
            assert cm.checkpoint()["partitions_flushed"] > 0
        finally:
            cm.close()
    elif path != "oneshot":
        for b in (b1, b2):
            assert inc.run_increment(out, mp.ingest_webtext(b))[
                "partitions_processed"] > 0
    if path == "forget":
        seg = mp.read_output_table(out, "segments")
        urls = sorted(set(seg.column("url").to_pylist()))[::7]
        s = inc.run_forget(out, urls)
        assert s["partitions_rewritten"] > 0
        assert not pc.any(pc.is_in(
            mp.read_output_table(out, "segments").column("url"),
            value_set=pa.array(urls))).as_py()
    elif path == "retier":
        assert retier.run_retier(out, TIERS[2], source="1d")[
            "partitions"] == COMMON["num_partitions"]
    elif path == "backfill":
        assert inc.run_backfill(out, inputs)["partitions_rebuilt"] > 0
    assert _assert_segments_encode_tiers(out) >= COMMON["num_partitions"]
