"""Continuous actor-pool mode ≡ discrete increments ≡ one-shot run."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.pipelines.continuous import ContinuousMonitor
from nrt_ray.sources import synthetic
from nrt_ray.stages import rollup

US = 1_000_000
CUTS = (np.datetime64("2021-06-01", "us"),
        np.datetime64("2021-10-01", "us"))

TIERS = (rollup.DEFAULT_TIERS[0], rollup.TierSpec("1d"),
         rollup.TierSpec("1w", retention_us=300 * 86400 * US))


@pytest.fixture(scope="module")
def chunked_webtext(tmp_path_factory):
    """Webtext split into a fit chunk + two later micro-batches."""
    d = tmp_path_factory.mktemp("wt_cont")
    info = synthetic.generate_webtext(str(d), n_urls=48, seed=47)
    t = pq.read_table(info["webtext"])

    def cut_scalar(c):
        return pa.scalar(int(c.astype(np.int64)), pa.int64()) \
            .cast(pa.timestamp("us"))

    c0, c1 = (cut_scalar(c) for c in CUTS)
    pq.write_table(t.filter(pc.less_equal(t.column("warc_ts"), c0)),
                   str(d / "chunk0.parquet"))
    pq.write_table(t.filter(pc.and_(pc.greater(t.column("warc_ts"), c0),
                                    pc.less_equal(t.column("warc_ts"),
                                                  c1))),
                   str(d / "chunk1.parquet"))
    pq.write_table(t.filter(pc.greater(t.column("warc_ts"), c1)),
                   str(d / "chunk2.parquet"))
    return d


def _by_url(tbl, extra=()):
    keys = [("url", "ascending")] + [(c, "ascending") for c in extra]
    return tbl.take(pa.compute.sort_indices(tbl, sort_keys=keys))


COMMON = dict(strategy="EWMA", fit_method="OLS",
              monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=5, tiers=TIERS)


def _assert_outputs_equal(dir_a: str, dir_b: str):
    sa = _by_url(mp.read_output_table(dir_a, "state"))
    sb = _by_url(mp.read_output_table(dir_b, "state"))
    assert sa.column("url").to_pylist() == sb.column("url").to_pylist()
    for col in ("status", "detection_date", "histsize", "n"):
        if col in sa.column_names:
            assert sa.column(col).to_pylist() == \
                sb.column(col).to_pylist(), col
    np.testing.assert_allclose(
        sa.column("process").to_numpy(zero_copy_only=False),
        sb.column("process").to_numpy(zero_copy_only=False),
        rtol=1e-12, atol=1e-14)
    for name in ("rollup_1h", "rollup_1d", "rollup_1w"):
        ta = _by_url(mp.read_output_table(dir_a, name),
                     extra=("bucket_ts",))
        tb = _by_url(mp.read_output_table(dir_b, name),
                     extra=("bucket_ts",))
        assert ta.num_rows == tb.num_rows, name
        for col in ("url", "bucket_ts", "count", "gapfilled"):
            assert ta.column(col).to_pylist() == tb.column(col).to_pylist()
        for col in ("min", "max", "last", "sum", "mean"):
            np.testing.assert_allclose(
                ta.column(col).to_numpy(zero_copy_only=False),
                tb.column(col).to_numpy(zero_copy_only=False),
                rtol=1e-12, equal_nan=True, err_msg=f"{name}.{col}")


def test_continuous_equals_discrete_and_oneshot(ray_session,
                                                chunked_webtext, tmp_path):
    d = chunked_webtext

    # one-shot over everything
    mp.run_pipeline(str(d / "webtext.parquet"), str(tmp_path / "full"),
                    **COMMON)

    # discrete mode: fit chunk0, run_increment chunk1 then chunk2
    mp.run_pipeline(str(d / "chunk0.parquet"), str(tmp_path / "disc"),
                    **COMMON)
    for c in ("chunk1", "chunk2"):
        inc.run_increment(str(tmp_path / "disc"),
                          mp.ingest_webtext(str(d / f"{c}.parquet")))

    # continuous mode: fit chunk0, then a live actor pool applies both
    # micro-batches with NO intermediate checkpoint, flushing once
    mp.run_pipeline(str(d / "chunk0.parquet"), str(tmp_path / "cont"),
                    **COMMON)
    cm = ContinuousMonitor(str(tmp_path / "cont"), pool=3)
    try:
        s1 = cm.ingest(mp.ingest_webtext(str(d / "chunk1.parquet")))
        s2 = cm.ingest(mp.ingest_webtext(str(d / "chunk2.parquet")))
        assert s1["input_rows"] > 0 and s2["input_rows"] > 0
        assert s1["late_rows"] == 0 and s2["late_rows"] == 0
        ck = cm.checkpoint()
        assert ck["partitions_flushed"] == COMMON["num_partitions"]
        assert ck["high_water_us"] == s2["high_water_us"]
    finally:
        cm.close()

    _assert_outputs_equal(str(tmp_path / "cont"), str(tmp_path / "disc"))
    _assert_outputs_equal(str(tmp_path / "cont"), str(tmp_path / "full"))

    # committed run config carries the new high-water mark
    cfg = inc.read_run_config(str(tmp_path / "cont"))
    assert cfg["high_water_us"] == ck["high_water_us"]


def test_continuous_late_rows_dead_lettered(ray_session, chunked_webtext,
                                            tmp_path):
    d = chunked_webtext
    out = str(tmp_path / "o")
    mp.run_pipeline(str(d / "chunk0.parquet"), out, **COMMON)
    cm = ContinuousMonitor(out, pool=2)
    try:
        state_before = mp.read_output_table(out, "state")
        # replay chunk0: everything at-or-before the high-water mark
        s = cm.ingest(mp.ingest_webtext(str(d / "chunk0.parquet")))
        assert s["late_rows"] > 0 and s["input_rows"] == 0
        assert os.path.isdir(os.path.join(out, "dead_letter"))
        ck = cm.checkpoint()
        assert ck["partitions_flushed"] == 0   # nothing dirty
        state_after = mp.read_output_table(out, "state")
        assert _by_url(state_before).equals(_by_url(state_after))
    finally:
        cm.close()


def test_continuous_actor_crash_recovery(ray_session, chunked_webtext,
                                         tmp_path):
    """Actors die after an un-checkpointed ingest → rebuild the pool from
    the last committed checkpoint, replay the lost micro-batch, and the
    final output equals the uninterrupted run (the manifest contract:
    nothing between checkpoints is ever persisted, so replay is clean)."""
    import ray as _ray
    d = chunked_webtext

    mp.run_pipeline(str(d / "webtext.parquet"), str(tmp_path / "full"),
                    **COMMON)

    out = str(tmp_path / "crash")
    mp.run_pipeline(str(d / "chunk0.parquet"), out, **COMMON)
    cm = ContinuousMonitor(out, pool=2)
    cm.ingest(mp.ingest_webtext(str(d / "chunk1.parquet")))
    cm.checkpoint()                       # chunk1 committed
    cm.ingest(mp.ingest_webtext(str(d / "chunk2.parquet")))
    # crash before the chunk2 checkpoint: all cached state is lost
    for a in cm.actors:
        _ray.kill(a)
    # a further ingest on the dead pool raises (driver sees actor death)
    with pytest.raises(Exception):
        cm.ingest(mp.ingest_webtext(str(d / "chunk2.parquet")))

    # recovery: fresh pool resumes from the last committed checkpoint —
    # run.json still carries chunk1's high-water, so chunk2 replays clean
    cm2 = ContinuousMonitor(out, pool=2)
    try:
        assert cm2.high_water_us < cm.high_water_us
        s = cm2.ingest(mp.ingest_webtext(str(d / "chunk2.parquet")))
        assert s["late_rows"] == 0 and s["input_rows"] > 0
        cm2.checkpoint()
    finally:
        cm2.close()

    _assert_outputs_equal(out, str(tmp_path / "full"))


def _count_encodes(cm) -> None:
    """Count the segment encodes in each actor's process (a local
    function, so Ray ships it by value)."""
    import ray as _ray

    def install(actor):
        from nrt_ray.stages import compress
        real = compress.segments_from_rollups
        actor.encodes = 0

        def counting(*args, **kwargs):
            actor.encodes += 1
            return real(*args, **kwargs)

        compress.segments_from_rollups = counting

    _ray.get([a.__ray_call__.remote(install) for a in cm.actors])


def _encodes(cm) -> int:
    import ray as _ray
    return sum(_ray.get([a.__ray_call__.remote(lambda actor: actor.encodes)
                         for a in cm.actors]))


def test_continuous_encodes_segments_at_checkpoint(ray_session,
                                                   chunked_webtext,
                                                   tmp_path):
    """Segments are encoded at a checkpoint, once per dirty partition,
    from all of its tiers: batch 1 touches only url A, batch 2 only the
    other urls (its newer rows advance the 1h window).  The checkpointed
    segment files equal the discrete run's byte for byte, and a
    checkpoint with nothing pending encodes nothing."""
    d = chunked_webtext
    t = pq.read_table(str(d / "webtext.parquet"))
    c0, c1 = (pa.scalar(int(c.astype(np.int64)), pa.int64())
              .cast(pa.timestamp("us")) for c in CUTS)
    ts, url = t.column("warc_ts"), t.column("url")
    mid = pc.and_(pc.greater(ts, c0), pc.less_equal(ts, c1))
    a = t.filter(mid).column("url")[0]
    pq.write_table(t.filter(pc.and_(mid, pc.equal(url, a))),
                   str(tmp_path / "b1.parquet"))
    pq.write_table(t.filter(pc.and_(pc.greater(ts, c1),
                                    pc.not_equal(url, a))),
                   str(tmp_path / "b2.parquet"))
    batches = [str(tmp_path / f"b{k}.parquet") for k in (1, 2)]

    disc, cont = str(tmp_path / "disc"), str(tmp_path / "cont")
    for out in (disc, cont):
        mp.run_pipeline(str(d / "chunk0.parquet"), out, **COMMON)
    for b in batches:
        inc.run_increment(disc, mp.ingest_webtext(b))

    cm = ContinuousMonitor(cont, pool=2)
    try:
        _count_encodes(cm)
        for b in batches:
            assert cm.ingest(mp.ingest_webtext(b))["input_rows"] > 0
        assert _encodes(cm) == 0              # nothing encoded per batch
        ck = cm.checkpoint()
        assert ck["partitions_flushed"] == COMMON["num_partitions"]
        assert _encodes(cm) == ck["partitions_flushed"]
        assert cm.checkpoint()["partitions_flushed"] == 0
        assert _encodes(cm) == ck["partitions_flushed"]
    finally:
        cm.close()

    for pid in range(COMMON["num_partitions"]):
        f = os.path.join("segments", f"part={pid}", "part.parquet")
        with open(os.path.join(disc, f), "rb") as fa, \
                open(os.path.join(cont, f), "rb") as fb:
            assert fa.read() == fb.read(), f
    _assert_outputs_equal(cont, disc)
