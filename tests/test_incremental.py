"""Incremental ingest ≡ one-shot run; late data is dead-lettered."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.sources import extract, synthetic
from nrt_ray.stages import rollup

US = 1_000_000
CUT = np.datetime64("2021-09-01", "us")

TIERS = (rollup.TierSpec("1d"),
         rollup.TierSpec("1w", retention_us=300 * 86400 * US))
#: plus the default 1h tier: its 90-day window moves past every early
#: row, so increments must keep each url's retention anchor right
TIERS_1H = (rollup.DEFAULT_TIERS[0],) + TIERS


@pytest.fixture(scope="module")
def split_webtext(tmp_path_factory):
    d = tmp_path_factory.mktemp("wt_inc")
    info = synthetic.generate_webtext(str(d), n_urls=64, seed=43)
    t = pq.read_table(info["webtext"])
    cut = pa.scalar(int(CUT.astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    early = t.filter(pc.less_equal(t.column("warc_ts"), cut))
    late = t.filter(pc.greater(t.column("warc_ts"), cut))
    pq.write_table(early, str(d / "early.parquet"))
    pq.write_table(late, str(d / "late.parquet"))
    return d, info


def _by_url(tbl, extra=()):
    keys = [("url", "ascending")] + [(c, "ascending") for c in extra]
    return tbl.take(pa.compute.sort_indices(tbl, sort_keys=keys))


def test_incremental_equals_oneshot(ray_session, split_webtext, tmp_path):
    d, info = split_webtext
    common = dict(strategy="CUSUM", fit_method="OLS",
                  monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=6,
                  tiers=TIERS_1H)

    full = mp.run_pipeline(str(d / "webtext.parquet"),
                           str(tmp_path / "full"), **common)

    mp.run_pipeline(str(d / "early.parquet"), str(tmp_path / "inc"),
                    **common)
    import ray.data
    flat_late = mp.ingest_webtext(str(d / "late.parquet"))
    summary = inc.run_increment(str(tmp_path / "inc"), flat_late)
    assert summary["late_rows"] == 0
    assert summary["input_rows"] > 0

    # ---- state: bit-identical -----------------------------------------
    sa = _by_url(mp.read_output_table(str(tmp_path / "full"), "state"))
    sb = _by_url(mp.read_output_table(str(tmp_path / "inc"), "state"))
    assert sa.column("url").to_pylist() == sb.column("url").to_pylist()
    for col in ("status", "detection_date", "histsize", "n"):
        assert sa.column(col).to_pylist() == sb.column(col).to_pylist(), col
    np.testing.assert_allclose(
        sa.column("process").to_numpy(zero_copy_only=False),
        sb.column("process").to_numpy(zero_copy_only=False),
        rtol=1e-12, atol=1e-14)

    # ---- rollups: exact except boundary-bucket sums/means -------------
    for name in ("rollup_1h", "rollup_1d", "rollup_1w"):
        ta = _by_url(mp.read_output_table(str(tmp_path / "full"), name),
                     extra=("bucket_ts",))
        tb = _by_url(mp.read_output_table(str(tmp_path / "inc"), name),
                     extra=("bucket_ts",))
        assert ta.num_rows == tb.num_rows, name
        for col in ("url", "bucket_ts", "count", "gapfilled"):
            assert ta.column(col).to_pylist() == tb.column(col).to_pylist()
        for col in ("min", "max", "last"):
            a = ta.column(col).to_numpy(zero_copy_only=False)
            b = tb.column(col).to_numpy(zero_copy_only=False)
            np.testing.assert_array_equal(a.view(np.uint64),
                                          b.view(np.uint64), err_msg=col)
        for col in ("sum", "mean"):
            a = ta.column(col).to_numpy(zero_copy_only=False)
            b = tb.column(col).to_numpy(zero_copy_only=False)
            np.testing.assert_allclose(a, b, rtol=1e-12, equal_nan=True)


def test_late_rows_dead_lettered(ray_session, split_webtext, tmp_path):
    d, info = split_webtext
    out = str(tmp_path / "o")
    mp.run_pipeline(str(d / "early.parquet"), out, strategy="IQR",
                    monitor_params={"trend": False, "harmonic_order": 1},
                    fit_method="OLS", monitor_start="2021-01-01",
                    num_partitions=4, tiers=(rollup.TierSpec("1d"),))
    state_before = mp.read_output_table(out, "state")
    # feed the EARLY rows again: all at-or-before the high-water mark
    flat_old = mp.ingest_webtext(str(d / "early.parquet"))
    summary = inc.run_increment(out, flat_old)
    assert summary["late_rows"] > 0
    assert summary["input_rows"] == 0
    dead = os.path.join(out, "dead_letter")
    assert os.path.isdir(dead)
    state_after = mp.read_output_table(out, "state")
    assert _by_url(state_before).equals(_by_url(state_after))


def test_pruned_increment_filters_in_the_split_task(ray_session,
                                                    split_webtext, tmp_path):
    """``ingest_webtext(min_warc_ts_us=)`` (the CLI's ``increment
    --prune-ingested``) reads through its scan recipe and applies the
    filter inside the split task: over the on-time rows plus replayed
    early ones, the pruned increment sees no late row, the unpruned one
    dead-letters them, their state and tiers are equal, and neither
    runs a Ray Data execution."""
    import shutil
    from unittest import mock

    from ray.data._internal.plan import ExecutionPlan

    d, _ = split_webtext
    base = str(tmp_path / "base")
    mp.run_pipeline(str(d / "early.parquet"), base, strategy="CUSUM",
                    fit_method="OLS", monitor_params={"trend": False},
                    monitor_start="2021-01-01", num_partitions=4,
                    tiers=TIERS)
    hw = inc.read_run_config(base)["high_water_us"]
    bp = str(tmp_path / "batch.parquet")
    pq.write_table(pa.concat_tables([
        pq.read_table(str(d / "early.parquet")).slice(0, 50),
        pq.read_table(str(d / "late.parquet"))]), bp)

    real = ExecutionPlan.create_executor
    calls, got = [], {}

    def counting(self):
        calls.append(1)
        return real(self)

    with mock.patch.object(ExecutionPlan, "create_executor", counting):
        for name, mark in (("plain", None), ("pruned", hw)):
            shutil.copytree(base, str(tmp_path / name))
            got[name] = inc.run_increment(
                str(tmp_path / name), mp.ingest_webtext(
                    bp, min_warc_ts_us=mark))
    assert not calls
    assert got["plain"]["late_rows"] == 50
    assert got["pruned"]["late_rows"] == 0
    assert got["pruned"]["input_rows"] == got["plain"]["input_rows"] > 0
    assert not os.path.exists(str(tmp_path / "pruned" / "dead_letter"))
    for table in ("state", "rollup_1d", "rollup_1w"):
        extra = ("bucket_ts",) if table.startswith("rollup") else ()
        assert _by_url(mp.read_output_table(
            str(tmp_path / "plain"), table), extra).equals(_by_url(
                mp.read_output_table(str(tmp_path / "pruned"), table),
                extra)), table


def test_scan_recipe_lists_the_files_ray_data_reads(ray_session,
                                                    split_webtext, tmp_path):
    """The recipe names every file the Ray Data read would scan, nested
    directories included; a derived Dataset carries none."""
    d, _ = split_webtext
    os.makedirs(tmp_path / "in" / "sub")
    t = pq.read_table(str(d / "late.parquet"))
    pq.write_table(t.slice(0, 10), str(tmp_path / "in" / "a.parquet"))
    pq.write_table(t.slice(10), str(tmp_path / "in" / "sub" / "b.parquet"))
    ds = mp.ingest_webtext(str(tmp_path / "in"))
    assert ds.scan_recipe.files == (str(tmp_path / "in" / "a.parquet"),
                                    str(tmp_path / "in" / "sub" / "b.parquet"))
    assert not hasattr(ds.map_batches(lambda b: b), "scan_recipe")


def test_ingest_relative_path_after_chdir(ray_session, split_webtext,
                                         tmp_path, monkeypatch):
    """A driver that changed directory after ``ray.init`` reads relative
    paths: Ray Data samples the files in worker processes, whose working
    directory is not the driver's.  The reads run in a thread with a
    join timeout, so a hang fails the test instead of stalling the run."""
    import threading

    d, _ = split_webtext
    want = mp.ingest_webtext(str(d / "late.parquet")).count()
    monkeypatch.chdir(d)
    got = []

    def read():
        got.append(mp.ingest_webtext("late.parquet").count())
        # fragment lineage maps each row's file path to its id
        got.append(mp.run_pipeline(
            "late.parquet", str(tmp_path / "out"), strategy="IQR",
            monitor_start="2021-01-01", num_partitions=2,
            tiers=TIERS)["input_rows"])

    th = threading.Thread(target=read, daemon=True)
    th.start()
    th.join(300)
    assert not th.is_alive(), "a relative-path read hung"
    assert got == [want, want]


def test_sparse_increment_reuses_segments(ray_session, tmp_path):
    """An increment touching a FEW urls must (a) still produce outputs
    identical to the one-shot run — including compressed segment BYTES —
    and (b) only re-encode the touched urls' segments (O(touched)
    increments)."""
    from unittest import mock

    from nrt_ray.stages import compress as cz

    d = tmp_path / "wt"
    info = synthetic.generate_webtext(str(d), n_urls=40, seed=53)
    t = pq.read_table(info["webtext"])
    urls = t.column("url").to_pandas().to_numpy(dtype=object)
    hot = np.unique(urls)[:4]                     # the 4 touched urls
    cut = pa.scalar(int(CUT.astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    # early = everything ≤ cut; late = post-cut rows of the hot urls ONLY;
    # the reference "all" excludes other urls' post-cut rows so that
    # one-shot(all) ≡ early + late exactly
    is_post = pc.greater(t.column("warc_ts"), cut)
    late_mask = pc.and_(is_post, pa.array(np.isin(urls, hot), pa.bool_()))
    early = t.filter(pc.invert(is_post))
    pq.write_table(early, str(d / "early.parquet"))
    pq.write_table(t.filter(late_mask), str(d / "late.parquet"))
    pq.write_table(pa.concat_tables([early, t.filter(late_mask)]),
                   str(d / "all.parquet"))

    common = dict(strategy="IQR", fit_method="OLS",
                  monitor_params={"trend": False, "harmonic_order": 1},
                  monitor_start="2021-01-01", num_partitions=3,
                  tiers=TIERS)
    mp.run_pipeline(str(d / "all.parquet"), str(tmp_path / "full"),
                    **common)
    mp.run_pipeline(str(d / "early.parquet"), str(tmp_path / "inc"),
                    **common)

    n_encoded = {"n": 0}
    real_encode = cz.encode_chunks

    def counting_encode(ts, mean, cs, pe):
        n_encoded["n"] += len(cs)            # chunks, one per segment
        return real_encode(ts, mean, cs, pe)

    # drive the per-partition update IN-PROCESS (what the exchange's
    # reduce tasks run) so the encode-counting mock can observe it
    from nrt_ray.stages.assemble import add_bucket_column
    cfg = inc.read_run_config(str(tmp_path / "inc"))
    flat = mp.ingest_webtext(str(d / "late.parquet")).materialize()
    ft = pa.concat_tables([b for b in
                           flat.iter_batches(batch_format="pyarrow")],
                          promote_options="default")
    ft = add_bucket_column(ft, cfg["num_partitions"])
    new_hw = int(pc.max(ft.column("warc_ts")).cast(pa.int64()).as_py())
    proc = inc.IncrementProcessor(str(tmp_path / "inc"), "incr", cfg,
                                  new_hw)
    total = 0
    swept = 0
    with mock.patch.object(cz, "encode_chunks", counting_encode):
        for pid in range(cfg["num_partitions"]):
            group = ft.filter(pc.equal(ft.column("pid"), pid))
            if group.num_rows:
                proc(group)
                total += group.num_rows
            else:
                # empty partitions get the retention sweep (the new
                # high-water mark applies everywhere)
                swept += proc.sweep_partition(pid)
    cfg["high_water_us"] = new_hw
    inc.write_run_config(str(tmp_path / "inc"), cfg)
    assert total > 0 and swept >= 1

    # (b) fewer encodes than a full rebuild (~40 urls × 2 tiers = 80):
    # only the touched urls plus the retention-trimmed untouched urls
    # (the 1w tier's advancing cutoff legitimately dirties more, incl.
    # the swept empty partition's urls)
    assert 0 < n_encoded["n"] < 60

    # (a) outputs identical to one-shot, segments byte-for-byte
    for name in ("rollup_1d", "rollup_1w"):
        ta = _by_url(mp.read_output_table(str(tmp_path / "full"), name),
                     extra=("bucket_ts",))
        tb = _by_url(mp.read_output_table(str(tmp_path / "inc"), name),
                     extra=("bucket_ts",))
        assert ta.num_rows == tb.num_rows
        for col in ("url", "bucket_ts", "count", "gapfilled"):
            assert ta.column(col).to_pylist() == tb.column(col).to_pylist()
    sa = mp.read_output_table(str(tmp_path / "full"), "segments")
    sb = mp.read_output_table(str(tmp_path / "inc"), "segments")
    key = [("tier", "ascending"), ("url", "ascending"),
           ("seg_start", "ascending")]
    sa = sa.take(pc.sort_indices(sa, sort_keys=key))
    sb = sb.take(pc.sort_indices(sb, sort_keys=key))
    assert sa.num_rows == sb.num_rows
    for col in ("url", "tier", "seg_start", "seg_end", "n_points"):
        assert sa.column(col).to_pylist() == sb.column(col).to_pylist(), col
    assert sa.column("payload_ts").to_pylist() == \
        sb.column("payload_ts").to_pylist()
    assert sa.column("payload_value").to_pylist() == \
        sb.column("payload_value").to_pylist()


def test_legacy_codec_store_migrates_on_increment(ray_session,
                                                  split_webtext,
                                                  tmp_path):
    """END-TO-END v1→v2 codec migration: a store whose segment files
    carry legacy 'dod+xor' payloads (no block-size header) is upgraded
    by a normal run_increment — touched AND untouched urls of every
    affected partition re-encode to v2 (byte-reuse of ambiguous v1
    payloads would decode silently wrong), and the decoded store equals
    an end-to-end fresh run."""
    from nrt_ray.stages import compress as cz

    d, info = split_webtext
    out = str(tmp_path / "out")
    mp.run_pipeline(str(d / "early.parquet"), out, strategy="EWMA",
                    monitor_params={"trend": False},
                    monitor_start="2021-01-01", num_partitions=4,
                    tiers=TIERS)

    # forge v1: strip the u16 block field from every payload header and
    # retag the codec column (bytes become exactly the r3/r4 layout)
    import glob
    for f in glob.glob(os.path.join(out, "segments", "part=*",
                                    "part.parquet")):
        t = pq.read_table(f)
        pts = [b[:4] + b[6:] for b in
               t.column("payload_ts").to_pylist()]
        pvs = [b[:4] + b[6:] for b in
               t.column("payload_value").to_pylist()]
        t = t.set_column(t.column_names.index("codec"), "codec",
                         pa.array(["dod+xor"] * t.num_rows, pa.string()))
        t = t.set_column(t.column_names.index("payload_ts"),
                         "payload_ts", pa.array(pts, pa.binary()))
        t = t.set_column(t.column_names.index("payload_value"),
                         "payload_value", pa.array(pvs, pa.binary()))
        pq.write_table(t, f)
    legacy = mp.read_output_table(out, "segments")
    with pytest.raises(ValueError, match="dod\\+xor"):
        cz.decode_segments_table(legacy, tier="1d")

    s = inc.run_increment(out, mp.ingest_webtext(str(d / "late.parquet")))
    assert s["input_rows"] > 0

    segs = mp.read_output_table(out, "segments")
    assert set(segs.column("codec").to_pylist()) == {cz.CODEC}
    got = cz.decode_segments_table(segs, tier="1d")

    ref = str(tmp_path / "ref")
    mp.run_pipeline(info["webtext"], ref, strategy="EWMA",
                    monitor_params={"trend": False},
                    monitor_start="2021-01-01", num_partitions=4,
                    tiers=TIERS)
    exp = cz.decode_segments_table(
        mp.read_output_table(ref, "segments"), tier="1d")
    got = _by_url(got, extra=("bucket_ts",))
    exp = _by_url(exp, extra=("bucket_ts",))
    assert got.equals(exp)


def test_legacy_tier_files_drop_fills_on_load(ray_session, split_webtext,
                                              tmp_path):
    """Tier files written before stores kept observed buckets only hold
    the served view (fills included, no tier metadata).  An increment
    drops their gap-filled rows on load — untouched urls' rows too — and
    the result equals a fresh run."""
    import glob

    d, _ = split_webtext
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=3,
                  tiers=(rollup.TierSpec("1d"),))
    late = pq.read_table(str(d / "late.parquet"))
    urls = sorted(set(late.column("url").to_pylist()))
    late = late.filter(pc.is_in(late.column("url"),
                                value_set=pa.array(urls[::2])))
    pq.write_table(late, str(tmp_path / "late_half.parquet"))
    pq.write_table(pa.concat_tables([pq.read_table(str(d / "early.parquet")),
                                     late]), str(tmp_path / "all.parquet"))

    out = str(tmp_path / "out")
    mp.run_pipeline(str(d / "early.parquet"), out, **common)
    for f in glob.glob(os.path.join(out, "rollup_1d", "part=*",
                                    "part.parquet")):
        pq.write_table(rollup.serve_tier_table(pq.read_table(f)), f)
    assert pc.any(pc.equal(mp.read_output_table(out, "rollup_1d")
                           .column("count"), 0)).as_py()
    inc.run_increment(out, mp.ingest_webtext(str(tmp_path /
                                                  "late_half.parquet")))
    for f in glob.glob(os.path.join(out, "rollup_1d", "part=*",
                                    "part.parquet")):
        t = pq.read_table(f)
        assert rollup.tier_meta(t) is not None
        assert not pc.any(pc.equal(t.column("count"), 0)).as_py()

    ref = str(tmp_path / "ref")
    mp.run_pipeline(str(tmp_path / "all.parquet"), ref, **common)
    ta = _by_url(mp.read_output_table(ref, "rollup_1d"), extra=("bucket_ts",))
    tb = _by_url(mp.read_output_table(out, "rollup_1d"), extra=("bucket_ts",))
    assert ta.num_rows == tb.num_rows
    for col in ("url", "bucket_ts", "count", "gapfilled"):
        assert ta.column(col).to_pylist() == tb.column(col).to_pylist()
    np.testing.assert_allclose(ta.column("mean").to_numpy(),
                               tb.column("mean").to_numpy(), rtol=1e-12)


def test_retention_advance_reencodes_fill_only_changes(ray_session,
                                                       split_webtext,
                                                       tmp_path):
    """A small high-water advance moves the 1h window's start inside
    filled gaps: untouched urls keep their stored rows but serve fewer
    fills, so their segments must be re-encoded — decoded segments equal
    a one-shot run's."""
    from nrt_ray.stages import compress as cz

    d, _ = split_webtext
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=3,
                  tiers=TIERS_1H)
    early = pq.read_table(str(d / "early.parquet"))
    late = pq.read_table(str(d / "late.parquet"))
    first = late.take(pc.sort_indices(late, sort_keys=[
        ("warc_ts", "ascending")])).slice(0, 1)      # one url, one row
    pq.write_table(first, str(tmp_path / "one.parquet"))
    pq.write_table(pa.concat_tables([early, first]),
                   str(tmp_path / "all.parquet"))

    out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
    mp.run_pipeline(str(d / "early.parquet"), out, **common)
    inc.run_increment(out, mp.ingest_webtext(str(tmp_path / "one.parquet")))
    mp.run_pipeline(str(tmp_path / "all.parquet"), ref, **common)

    def decoded(root):
        pts = cz.decode_segments_table(mp.read_output_table(root,
                                                            "segments"))
        return pts.take(pc.sort_indices(pts, sort_keys=[
            ("url", "ascending"), ("tier", "ascending"),
            ("bucket_ts", "ascending")]))

    a, b = decoded(ref), decoded(out)
    for col in ("url", "tier", "bucket_ts"):
        assert a.column(col).to_pylist() == b.column(col).to_pylist(), col
    np.testing.assert_allclose(a.column("mean").to_numpy(),
                               b.column("mean").to_numpy(), rtol=1e-12)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_mosum_increment_adds_urls(ray_session, tmp_path, mode):
    """A MoSum store keeps taking increments after one brings in urls
    with no stored state: each url's ring buffer is stored at its own
    ``winsize``, so the restored windows of the old and the new urls
    stack, and a second increment runs.  The store then equals a
    one-shot run over the same rows."""
    from nrt_ray.pipelines.continuous import ContinuousMonitor

    d = tmp_path / "wt"
    info = synthetic.generate_webtext(str(d), n_urls=32, seed=43)
    t = pq.read_table(info["webtext"])
    urls = t.column("url").to_pandas().to_numpy(dtype=object)
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    cuts = [int(np.datetime64(c, "us").astype(np.int64))
            for c in ("2021-09-01", "2021-11-01")]
    # two urls start after the first cut: increment 1 brings them in
    late_urls = np.unique(urls)[[3, 17]]
    keep = ~(np.isin(urls, late_urls) & (ts <= cuts[0]))
    t, ts = t.filter(pa.array(keep)), ts[keep]
    pieces = [ts <= cuts[0], (ts > cuts[0]) & (ts <= cuts[1]),
              ts > cuts[1]]
    paths = []
    for i, sel in enumerate(pieces):
        paths.append(str(d / f"chunk{i}.parquet"))
        pq.write_table(t.filter(pa.array(sel)), paths[-1])
    pq.write_table(t, str(d / "all.parquet"))
    common = dict(strategy="MOSUM", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=3,
                  tiers=(rollup.TierSpec("1d"),))

    out = str(tmp_path / "inc")
    mp.run_pipeline(paths[0], out, **common)
    if mode == "discrete":
        for p in paths[1:]:
            inc.run_increment(out, mp.ingest_webtext(p))
    else:
        cm = ContinuousMonitor(out, pool=2)
        try:
            for p in paths[1:]:
                cm.ingest(mp.ingest_webtext(p))
                cm.checkpoint()
        finally:
            cm.close()
    ref = str(tmp_path / "ref")
    mp.run_pipeline(str(d / "all.parquet"), ref, **common)

    sa = _by_url(mp.read_output_table(out, "state"))
    sb = _by_url(mp.read_output_table(ref, "state"))
    assert set(late_urls) <= set(sa.column("url").to_pylist())
    for col in ("url", "status", "detection_date", "histsize", "n",
                "winsize"):
        assert sa.column(col).to_pylist() == sb.column(col).to_pylist(), col
    wa, wb = sa.column("window").to_pylist(), sb.column("window").to_pylist()
    assert [len(w) for w in wa] == sa.column("winsize").to_pylist()
    assert [len(w) for w in wa] == [len(w) for w in wb]
    for col, a, b in (("process", sa.column("process").to_pylist(),
                       sb.column("process").to_pylist()),
                      ("window", [x for w in wa for x in w],
                       [x for w in wb for x in w])):
        np.testing.assert_allclose(np.array(a, np.float64),
                                   np.array(b, np.float64), rtol=1e-12,
                                   atol=1e-14, err_msg=col)
