"""run_backfill: dead-lettered late rows get applied by rebuilding only
the owning partitions; the result equals a fresh one-shot run over the
full combined input; untouched partitions are never rewritten."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.sources import synthetic
from nrt_ray.stages import rollup
from nrt_ray.state import manifest

US = 1_000_000
CUT = np.datetime64("2021-09-01", "us")
TIERS = (rollup.TierSpec("1d"),
         rollup.TierSpec("1w", retention_us=300 * 86400 * US))
COMMON = dict(strategy="CUSUM", fit_method="OLS",
              monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=5, tiers=TIERS)


def _by_url(tbl, extra=()):
    keys = [("url", "ascending")] + [(c, "ascending") for c in extra]
    return tbl.take(pa.compute.sort_indices(tbl, sort_keys=keys))


def _assert_tables_equal(out, ref, tiers=("1d", "1w")):
    for name in (["state", "alerts", "segments"]
                 + [f"rollup_{t}" for t in tiers]):
        extra = ("bucket_ts",) if name.startswith("rollup") else \
            (("tier", "seg_start") if name == "segments" else ())
        ta = _by_url(mp.read_output_table(out, name), extra=extra)
        tb = _by_url(mp.read_output_table(ref, name), extra=extra)
        assert ta.num_rows == tb.num_rows, name
        for col in ta.column_names:
            if col == "part":
                continue
            if ta.schema.field(col).type == pa.float64():
                np.testing.assert_allclose(
                    ta.column(col).to_numpy(zero_copy_only=False),
                    tb.column(col).to_numpy(zero_copy_only=False),
                    rtol=1e-12, equal_nan=True,
                    err_msg=f"{name}.{col}")
            else:
                assert ta.column(col).to_pylist() \
                    == tb.column(col).to_pylist(), f"{name}.{col}"


def test_backfill_applies_late_rows(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=40, seed=61)
    t = pq.read_table(info["webtext"])
    urls = np.asarray(t.column("url").to_pandas(), dtype=object)
    late_urls = np.unique(urls)[:3]

    cut = pa.scalar(int(CUT.astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    window = pa.scalar(int((CUT - np.timedelta64(20, "D"))
                           .astype("datetime64[us]").astype(np.int64)),
                       pa.int64()).cast(pa.timestamp("us"))
    is_late_url = pa.array(np.isin(urls, late_urls), pa.bool_())
    held_back = pc.and_(pc.and_(is_late_url,
                                pc.greater(t.column("warc_ts"), window)),
                        pc.less_equal(t.column("warc_ts"), cut))
    early = t.filter(pc.and_(pc.less_equal(t.column("warc_ts"), cut),
                             pc.invert(held_back)))
    batch2 = t.filter(pc.or_(pc.greater(t.column("warc_ts"), cut),
                             held_back))
    n_held = int(pc.sum(held_back).as_py())
    assert n_held > 0
    ep = str(tmp_path / "early.parquet")
    bp = str(tmp_path / "batch2.parquet")
    pq.write_table(early, ep)
    pq.write_table(batch2, bp)

    out = str(tmp_path / "out")
    mp.run_pipeline(ep, out, **COMMON)
    s_inc = inc.run_increment(out, mp.ingest_webtext(bp))
    assert s_inc["late_rows"] == n_held

    mtime_before = {}
    for pid in range(COMMON["num_partitions"]):
        p = os.path.join(manifest.partition_dir(out, "state", pid),
                         "part.parquet")
        mtime_before[pid] = os.path.getmtime(p)

    s_bf = inc.run_backfill(out, [ep, bp])
    assert s_bf["late_rows_applied"] == n_held
    assert s_bf["partitions_rebuilt"] == len(s_bf["affected_pids"])
    assert 0 < len(s_bf["affected_pids"]) < COMMON["num_partitions"]

    # untouched partitions' files were not rewritten
    for pid in range(COMMON["num_partitions"]):
        p = os.path.join(manifest.partition_dir(out, "state", pid),
                         "part.parquet")
        if pid not in s_bf["affected_pids"]:
            assert os.path.getmtime(p) == mtime_before[pid], pid

    # dead letter archived, not re-applied
    assert not os.path.isdir(os.path.join(out, "dead_letter"))
    assert os.path.isdir(os.path.join(out, "dead_letter_applied",
                                      "backfill"))
    s_again = inc.run_backfill(out, [ep, bp])
    assert s_again["late_rows_applied"] == 0
    assert s_again["partitions_rebuilt"] == 0

    # equality: fresh one-shot run over the full combined input
    ref = str(tmp_path / "ref")
    mp.run_pipeline(info["webtext"], ref, **COMMON)
    _assert_tables_equal(out, ref)


def test_backfill_noop_without_dead_letter(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=10, seed=7)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, **COMMON)
    s = inc.run_backfill(out, info["webtext"])
    assert s == {"late_rows_applied": 0, "partitions_rebuilt": 0,
                 "affected_pids": [],
                 "high_water_us": s["high_water_us"]}


@pytest.mark.parametrize("mode,files", [
    pytest.param("discrete", False, id="discrete"),
    pytest.param("continuous", False, id="continuous"),
    pytest.param("discrete", True, id="discrete-files"),
    pytest.param("continuous", True, id="continuous-files")])
def test_dead_letter_contents_then_backfill(ray_session, tmp_path, mode,
                                            files):
    """A mixed micro-batch in three blocks (all late / mixed / all new):
    ``dead_letter/`` holds exactly the batch's rows at or before the
    mark, one file per block with late rows and no temporary file; the
    new rows are applied; and a backfill then equals a one-shot run over
    everything.  As a generic Dataset the batch runs one Ray Data
    execution; as three Parquet files read by ``ingest_webtext`` it runs
    none."""
    from unittest import mock

    import ray.data
    from ray.data._internal.plan import ExecutionPlan

    from nrt_ray.pipelines.continuous import ContinuousMonitor

    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=30, seed=67)
    t = pq.read_table(info["webtext"])
    urls = np.asarray(t.column("url").to_pandas(), dtype=object)
    cut = pa.scalar(int(CUT.astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    held_back = pc.and_(pa.array(np.isin(urls, np.unique(urls)[:4])),
                        pc.greater(t.column("warc_ts"), pc.subtract(
                            cut, pa.scalar(40 * 86400 * US,
                                           pa.duration("us")))))
    held_back = pc.and_(held_back, pc.less_equal(t.column("warc_ts"), cut))
    early = t.filter(pc.and_(pc.less_equal(t.column("warc_ts"), cut),
                             pc.invert(held_back)))
    batch = t.filter(pc.or_(pc.greater(t.column("warc_ts"), cut),
                            held_back))
    ep, bp = str(tmp_path / "early.parquet"), str(tmp_path / "batch.parquet")
    pq.write_table(early, ep)
    pq.write_table(batch, bp)
    out = str(tmp_path / "out")
    mp.run_pipeline(ep, out, **COMMON)
    hw = inc.read_run_config(out)["high_water_us"]

    flat = pa.concat_tables(list(mp.ingest_webtext(bp).iter_batches(
        batch_format="pyarrow")))
    is_late = pc.less_equal(flat.column("warc_ts").cast(pa.int64()), hw)
    late, new = flat.filter(is_late), flat.filter(pc.invert(is_late))
    n_late = late.num_rows
    assert 2 <= n_late and new.num_rows > 2

    def thirds(late, new):
        return [late.slice(0, late.num_rows // 2),
                pa.concat_tables([late.slice(late.num_rows // 2),
                                  new.slice(0, new.num_rows // 2)]),
                new.slice(new.num_rows // 2)]

    if files:
        # the same split of the input rows, one Parquet file per block
        in_late = pc.less_equal(batch.column("warc_ts").cast(pa.int64()),
                                hw)
        paths = [str(tmp_path / f"block{i}.parquet") for i in range(3)]
        for path, block in zip(paths, thirds(
                batch.filter(in_late), batch.filter(pc.invert(in_late)))):
            pq.write_table(block, path)

    real = ExecutionPlan.create_executor
    calls = []

    def counting(self):
        calls.append(1)
        return real(self)

    with mock.patch.object(ExecutionPlan, "create_executor", counting):
        # a lazy stage on top, so reading the blocks is an execution
        ds = mp.ingest_webtext(paths) if files else ray.data.from_arrow(
            thirds(late, new)).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=None)
        if mode == "discrete":
            s = inc.run_increment(out, ds)
        else:
            cm = ContinuousMonitor(out, pool=2)
            try:
                s = cm.ingest(ds)
                cm.checkpoint()
            finally:
                cm.close()
    assert len(calls) == (0 if files else 1)
    assert s["late_rows"] == n_late and s["input_rows"] == new.num_rows

    dl = os.path.join(out, "dead_letter")
    written = sorted(os.listdir(dl))
    assert len(written) == 2 and all(f.endswith(".parquet") and
                                     not f.startswith(".") for f in written)
    got = pa.concat_tables([pq.read_table(os.path.join(dl, f))
                            for f in written])
    keys = [(c, "ascending") for c in late.column_names]
    assert got.select(late.column_names).take(
        pc.sort_indices(got, sort_keys=keys)).equals(
        late.take(pc.sort_indices(late, sort_keys=keys)))

    s_bf = inc.run_backfill(out, [ep, bp])
    assert s_bf["late_rows_applied"] == n_late
    ref = str(tmp_path / "ref")
    mp.run_pipeline(info["webtext"], ref, **COMMON)
    _assert_tables_equal(out, ref)


def _decoded(out):
    """Decoded segment points of a store, sorted."""
    from nrt_ray.stages import compress
    t = compress.decode_segments_table(
        mp.read_output_table(out, "segments"),
        window=mp.window_starts(inc.read_run_config(out)))
    keys = [(c, "ascending") for c in ("url", "tier", "bucket_ts")]
    return t.take(pc.sort_indices(t, sort_keys=keys))


def test_write_paths_start_no_ray_data_execution(ray_session, tmp_path):
    """``run_pipeline``, a resumed ``run_pipeline`` and ``run_backfill``
    over two Parquet files of several row groups each read them in the
    exchange's split tasks: no Ray Data executor starts and no Ray Data
    read is built.  Each store equals a ``flat_dataset=`` run of the
    same rows through Ray Data (state checksums of the partitions built
    from source, served tiers, segments and their decoded points), and
    each partition built from source records exactly the files that fed
    it."""
    import shutil
    from unittest import mock

    import ray.data
    from ray.data._internal.plan import ExecutionPlan

    from nrt_ray.sources.extract import ExtractSignal
    from nrt_ray.stages.assemble import bucket_of

    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=30, seed=71)
    t = pq.read_table(info["webtext"])
    urls = np.asarray(t.column("url").to_pandas(), dtype=object)
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    cut = int(CUT.astype(np.int64))
    held_back = np.isin(urls, np.unique(urls)[:3]) \
        & (ts > cut - 20 * 86400 * US) & (ts <= cut)
    early, batch = (ts <= cut) & ~held_back, (ts > cut) | held_back
    files = [str(tmp_path / "early.parquet"), str(tmp_path / "batch.parquet")]
    for f, keep, groups in zip(files, (early, batch), (3, 2)):
        pq.write_table(t.filter(pa.array(keep)), f,
                       row_group_size=int(keep.sum()) // groups + 1)
        assert pq.ParquetFile(f).num_row_groups == groups
    assert len(mp.ingest_webtext(files).scan_recipe.units()) == 5
    P = COMMON["num_partitions"]
    pids_of = [set(bucket_of(urls[keep], P).tolist())
               for keep in (early, batch)]

    ref = str(tmp_path / "ref")
    mp.run_pipeline(files, ref, flat_dataset=ray.data.read_parquet(
        files, columns=["url", "warc_ts", "text"]).map_batches(
        ExtractSignal(), batch_format="pyarrow"), **COMMON)
    ref_sums = {r["partition_id"]: r["state_checksum"]
                for r in manifest.load_manifest(ref)}

    def check(out, pids):
        _assert_tables_equal(out, ref)
        assert _decoded(out).equals(_decoded(ref))
        frag = {p: int(i) for i, p in
                inc.read_run_config(out)["fragments"].items()}
        recs = {r["partition_id"]: r for r in manifest.load_manifest(out)}
        for pid in pids:
            assert recs[pid]["state_checksum"] == ref_sums[pid], pid
            assert recs[pid]["input_fragments"] == sorted(
                frag[f] for f, got in zip(files, pids_of) if pid in got), \
                pid

    real = ExecutionPlan.create_executor
    calls = []

    def counting(self):
        calls.append(1)
        return real(self)

    def read(*args, **kwargs):
        raise AssertionError("a Ray Data read was built")

    full, resumed, bf = (str(tmp_path / n) for n in ("full", "resumed",
                                                      "backfill"))
    with mock.patch.object(ExecutionPlan, "create_executor", counting), \
            mock.patch.object(ray.data, "read_parquet", read):
        mp.run_pipeline(files, full, **COMMON)
        shutil.copytree(full, resumed)
        manifest.uncommit_partitions(resumed, [0, 2])
        s_resumed = mp.run_pipeline(files, resumed, **COMMON)
        mp.run_pipeline(files[0], bf, **COMMON)
        assert inc.run_increment(bf, mp.ingest_webtext(files[1]))[
            "late_rows"] == int(held_back.sum())
        s_bf = inc.run_backfill(bf, files)
    assert not calls
    check(full, range(P))
    assert s_resumed["partitions_processed"] == 2
    check(resumed, range(P))
    assert 0 < len(s_bf["affected_pids"]) < P
    check(bf, s_bf["affected_pids"])
