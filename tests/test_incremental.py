"""Incremental ingest ≡ one-shot run; late data is dead-lettered."""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.sources import extract, synthetic
from nrt_ray.stages import rollup
from nrt_ray.state import manifest

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
    runs a Ray Data execution nor builds a Ray Data read."""
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

    def read(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a Ray Data read was built")

    with mock.patch.object(ExecutionPlan, "create_executor", counting), \
            mock.patch.object(mp.ray.data, "read_parquet", read):
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


def test_scan_recipe_reads_by_row_group(split_webtext, tmp_path):
    """A recipe's units are its files' row groups.  With a mark, a row
    group whose ``warc_ts`` maximum is at or below it is skipped and the
    others are filtered, so the units read exactly the rows above it."""
    d, _ = split_webtext
    t = pq.read_table(str(d / "late.parquet"),
                      columns=["url", "warc_ts", "text"])
    t = t.take(pc.sort_indices(t, sort_keys=[("warc_ts", "ascending")]))
    size = t.num_rows // 4 + 1
    p = str(tmp_path / "sorted.parquet")
    pq.write_table(t, p, row_group_size=size)
    assert mp.ingest_webtext(p).scan_recipe.units() == [
        (0, rg) for rg in range(4)]
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    mark = int(ts[t.num_rows // 2])
    kept = [(0, rg) for rg in range(4)
            if ts[rg * size:(rg + 1) * size].max() > mark]
    recipe = mp.ingest_webtext(p, min_warc_ts_us=mark).scan_recipe
    assert recipe.units() == kept and 0 < len(kept) < 4
    got = pa.concat_tables([recipe.read(u) for u in recipe.units()])
    assert got.equals(extract.ExtractSignal()(t.filter(pa.array(ts > mark))))


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


def _tier_files(root: str, pid: int) -> dict:
    """``{tier: stored table}`` of one partition."""
    got = manifest.read_partition(root, pid,
                                  [f"rollup_{t.name}" for t in TIERS])
    return {t.name: got[f"rollup_{t.name}"] for t in TIERS}


def _served_points(root: str) -> pa.Table:
    """Every decoded segment point at the store's mark, sorted."""
    from nrt_ray.stages import compress as cz
    pts = cz.decode_segments_table(
        mp.read_output_table(root, "segments"),
        window=mp.window_starts(inc.read_run_config(root)))
    return pts.take(pc.sort_indices(pts, sort_keys=[
        ("url", "ascending"), ("tier", "ascending"),
        ("bucket_ts", "ascending")]))


def _assert_same_points(a: pa.Table, b: pa.Table) -> None:
    for col in ("url", "tier", "bucket_ts"):
        assert a.column(col).to_pylist() == b.column(col).to_pylist(), col
    np.testing.assert_allclose(a.column("mean").to_numpy(),
                               b.column("mean").to_numpy(), rtol=1e-12)


def test_sparse_increment_serves_oneshot(ray_session, tmp_path):
    """An increment touching a FEW urls serves what the one-shot run
    serves — tiers and decoded segment points at the store's mark — and
    a partition without rows is not rewritten."""
    from nrt_ray.stages.assemble import bucket_of

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
    inc_dir = str(tmp_path / "inc")
    mp.run_pipeline(str(d / "early.parquet"), inc_dir, **common)

    touched = set(bucket_of(list(hot), common["num_partitions"]).tolist())
    untouched = set(range(common["num_partitions"])) - touched
    assert untouched
    before = {pid: _tier_files(inc_dir, pid) for pid in untouched}
    s = inc.run_increment(inc_dir, mp.ingest_webtext(str(d / "late.parquet")))
    assert s["partitions_processed"] == len(touched)
    for pid in untouched:
        for name, old in before[pid].items():
            assert _tier_files(inc_dir, pid)[name].equals(old)

    # served views equal the one-shot run's at the store's mark
    for name in ("rollup_1d", "rollup_1w"):
        ta = _by_url(mp.read_output_table(str(tmp_path / "full"), name),
                     extra=("bucket_ts",))
        tb = _by_url(mp.read_output_table(inc_dir, name),
                     extra=("bucket_ts",))
        assert ta.num_rows == tb.num_rows
        for col in ("url", "bucket_ts", "count", "gapfilled"):
            assert ta.column(col).to_pylist() == tb.column(col).to_pylist()
    _assert_same_points(_served_points(str(tmp_path / "full")),
                        _served_points(inc_dir))


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
                                              tmp_path,
                                              earlier_tier_layout):
    """Tier files written before stores kept observed buckets only hold
    the served view (fills included, no tier metadata).  An increment
    drops their gap-filled rows on load — untouched urls' rows too — and
    the result equals a fresh run."""
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
    earlier_tier_layout(out, rollup.serve_tier_table)
    assert pc.any(pc.equal(mp.read_output_table(out, "rollup_1d")
                           .column("count"), 0)).as_py()
    inc.run_increment(out, mp.ingest_webtext(str(tmp_path /
                                                  "late_half.parquet")))
    for pid in manifest.committed_partitions(out):
        t = manifest.read_partition(out, pid, ["rollup_1d"])["rollup_1d"]
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
    fills.  The partitions the advance does not rewrite keep segments
    written at the old mark, and the readers' cut at the store's mark
    still serves the one-shot run's points."""
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

    def segments(root):
        seg = mp.read_output_table(root, "segments")
        return seg.take(pc.sort_indices(seg, sort_keys=[
            ("url", "ascending"), ("tier", "ascending"),
            ("seg_start", "ascending")]))

    def stored_rows(root):
        n = Counter()
        for pid in manifest.committed_partitions(root):
            for name, table in manifest.read_partition(
                    root, pid, [f"rollup_{t.name}" for t in TIERS_1H]
            ).items():
                for u in table.column("url").to_pylist():
                    n[name[len("rollup_"):], u] += 1
        return n

    n_old = stored_rows(out)
    inc.run_increment(out, mp.ingest_webtext(str(tmp_path / "one.parquet")))
    mp.run_pipeline(str(tmp_path / "all.parquet"), ref, **common)
    new, n_new = segments(out), stored_rows(out)

    url = first.column("url")[0].as_py()
    moved = {k for k in n_old.keys() | n_new.keys()
             if n_old[k] != n_new[k]} | {(t.name, url) for t in TIERS_1H}
    assert len(moved) > len(TIERS_1H)

    def rest(seg):
        return seg.filter(pa.array([
            (t, u) not in moved for t, u in zip(
                seg.column("tier").to_pylist(),
                seg.column("url").to_pylist())]))

    # some of the others serve fewer 1h points at the new mark than
    # their segment metadata (written at the old one) records
    n_points = [Counter() for _ in range(2)]
    for n, seg in zip(n_points, (segments(ref), rest(new))):
        for u, k in zip(*seg.filter(pc.field("tier") == "1h").select(
                ["url", "n_points"]).to_pydict().values()):
            n[u] += k
    assert any(k != n_points[0][u] for u, k in n_points[1].items())
    _assert_same_points(_served_points(ref), _served_points(out))


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


def _partition_files(root: str) -> dict:
    """``{pid: {path: bytes}}``: every table file and commit record."""
    import glob
    out = {}
    for f in glob.glob(os.path.join(root, "*", "part=*", "part.parquet")) \
            + glob.glob(os.path.join(root, "manifest", "partition-*.json")):
        pid = int(f.split("part=")[1].split(os.sep)[0]) if "part=" in f \
            else int(f.rsplit("-", 1)[1].split(".")[0])
        with open(f, "rb") as fh:
            out.setdefault(pid, {})[os.path.relpath(f, root)] = fh.read()
    return out


def _close(a, b) -> bool:
    """Equal, floats to a relative 1e-12 (boundary-bucket sums and
    means, fitted state), through lists and dicts."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b)) \
            or abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-14
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_increment_rewrites_only_touched_partitions(ray_session,
                                                    split_webtext, tmp_path,
                                                    mode):
    """Readers apply retention at the store's committed mark, so an
    increment rewrites only the partitions its rows touch: a one-row
    increment for one url leaves every other partition's commit record
    and files byte-identical.  After a batch that leaves a partition
    without rows, the store serves exactly what a one-shot run over the
    same input, at the same mark, serves: ``state`` and every tier
    through ``read_output_table``, ``lookup_url`` and ``read_url_range``
    for every url."""
    from nrt_ray.pipelines.continuous import ContinuousMonitor
    from nrt_ray.stages.assemble import bucket_of

    d, _ = split_webtext
    P = 4
    common = dict(strategy="CUSUM", fit_method="OLS",
                  monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=P,
                  tiers=TIERS_1H)
    early = pq.read_table(str(d / "early.parquet"))
    late = pq.read_table(str(d / "late.parquet"))
    late = late.take(pc.sort_indices(late, sort_keys=[
        ("warc_ts", "ascending")]))
    one = late.slice(0, 1)
    rest = late.filter(pc.greater(late.column("warc_ts"),
                                  one.column("warc_ts")[0]))
    owner = int(bucket_of(one.column("url").to_pylist(), P)[0])
    idle = (owner + 1) % P                  # gets no row of the batch
    batch = rest.filter(pa.array(bucket_of(
        rest.column("url").to_pylist(), P) != idle))
    paths = {}
    for name, t in (("one", one), ("batch", batch),
                    ("all", pa.concat_tables([early, one, batch]))):
        paths[name] = str(tmp_path / f"{name}.parquet")
        pq.write_table(t, paths[name])

    out = str(tmp_path / "store")
    mp.run_pipeline(str(d / "early.parquet"), out, **common)
    cm = ContinuousMonitor(out, pool=2) if mode == "continuous" else None
    try:
        def apply(path):
            if cm is None:
                inc.run_increment(out, mp.ingest_webtext(path))
            else:
                cm.ingest(mp.ingest_webtext(path))
                cm.checkpoint()

        before = _partition_files(out)
        apply(paths["one"])
        after = _partition_files(out)
        assert after.keys() == before.keys() == set(range(P))
        for pid in range(P):
            assert (after[pid] == before[pid]) == (pid != owner), pid
        apply(paths["batch"])
    finally:
        if cm is not None:
            cm.close()
    assert _partition_files(out)[idle] == before[idle]

    ref = str(tmp_path / "ref")
    mp.run_pipeline(paths["all"], ref, **common)
    hw = inc.read_run_config(out)["high_water_us"]
    assert hw == inc.read_run_config(ref)["high_water_us"]
    for table in ["state"] + [f"rollup_{t.name}" for t in TIERS_1H]:
        extra = ("bucket_ts",) if table.startswith("rollup") else ()
        a = _by_url(mp.read_output_table(ref, table), extra)
        b = _by_url(mp.read_output_table(out, table), extra)
        assert _close(a.to_pylist(), b.to_pylist()), table
    day = 86400 * US
    served = Counter()
    for url in sorted(set(early.column("url").to_pylist())
                      | set(late.column("url").to_pylist())):
        assert _close(mp.lookup_url(ref, url), mp.lookup_url(out, url)), url
        # 1h, then 1d (before the 1h window), then 1w
        for t0, t1, budget in ((hw - 20 * day, hw, 500),
                               (hw - 200 * day, hw - 100 * day, 500),
                               (hw - 280 * day, hw, 60)):
            a = mp.read_url_range(ref, url, t0, t1, budget)
            served[a["tier"]] += a["points"]
            assert _close(a, mp.read_url_range(out, url, t0, t1, budget))
    assert all(served[t.name] for t in TIERS_1H)
