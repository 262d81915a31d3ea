"""Hot-url salting: a url with ~100× cadence is split across partitions by
time slice and merged back — outputs must be bit-identical to the unsalted
plan, and unskewed runs must not change at all."""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.sources import synthetic
from nrt_ray.stages import rollup

US = 1_000_000
HOT_URL = "https://hot.example.com/live"

TIERS = (rollup.TierSpec("1d"), rollup.TierSpec("1w"))


@pytest.fixture(scope="module")
def skewed_webtext(tmp_path_factory):
    """Synthetic crawl + ONE url at ~100× the cadence of the others."""
    d = tmp_path_factory.mktemp("wt_skew")
    info = synthetic.generate_webtext(str(d), n_urls=32, seed=17)
    t = pq.read_table(info["webtext"])
    # clone the schema-compatible rows of one existing url into an
    # hourly-cadence mega-url spanning the same period
    rng = np.random.default_rng(5)
    ts0 = int(pc.min(t.column("warc_ts")).cast(pa.int64()).as_py())
    ts1 = int(pc.max(t.column("warc_ts")).cast(pa.int64()).as_py())
    hours = np.arange(ts0, ts1, 3600 * US, dtype=np.int64)
    vals = 0.5 + 0.05 * rng.standard_normal(len(hours))
    texts = [f"snapshot ndvi:{v:.6f} hot page" for v in vals]
    htmls = [f"<html><p>{x}</p></html>".encode() for x in texts]
    hot = pa.table({
        "url": pa.array(["https://hot.example.com/live"] * len(hours),
                        pa.string()),
        "warc_ts": pa.array(hours, pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(hours), pa.string()),
    })
    merged = pa.concat_tables([t.select(hot.column_names), hot])
    path = str(d / "skewed.parquet")
    pq.write_table(merged, path)
    return path, len(hours)


def _read_all(out, name):
    t = mp.read_output_table(out, name)
    order = pc.sort_indices(t, sort_keys=[
        (c, "ascending") for c in ("url", "bucket_ts", "seg_start")
        if c in t.column_names])
    return t.take(order)


def test_salted_equals_unsalted(ray_session, skewed_webtext, tmp_path):
    path, hot_rows = skewed_webtext
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=6,
                  tiers=TIERS)
    mp.run_pipeline(path, str(tmp_path / "plain"), salt_threshold=None,
                    **common)
    summary = mp.run_pipeline(path, str(tmp_path / "salted"),
                              hot_urls={HOT_URL}, **common)
    # the hot url was deferred to the merge phase, whose sub-series
    # intermediates are gone once it committed
    assert summary["partitions_processed"] > common["num_partitions"] - 1
    assert not os.path.exists(str(tmp_path / "salted" / "hot_series"))

    # state floats come from reductions over padded (T, K) batches whose K
    # differs between the plans → last-ulp tolerance; everything computed
    # per url independently (rollups, segments, ints, codes) is bitwise
    for name in ("state", "alerts", "rollup_1d", "rollup_1w", "segments"):
        a = _read_all(str(tmp_path / "plain"), name)
        b = _read_all(str(tmp_path / "salted"), name)
        assert a.num_rows == b.num_rows, name
        state_like = name in ("state", "alerts")
        for col in a.column_names:
            ca, cb = a.column(col), b.column(col)
            if pa.types.is_floating(ca.type):
                va = ca.to_numpy(zero_copy_only=False)
                vb = cb.to_numpy(zero_copy_only=False)
                if state_like:
                    np.testing.assert_allclose(va, vb, rtol=1e-9,
                                               atol=1e-12, equal_nan=True,
                                               err_msg=f"{name}.{col}")
                else:
                    np.testing.assert_array_equal(
                        va.view(np.uint64), vb.view(np.uint64),
                        err_msg=f"{name}.{col}")
            elif pa.types.is_list(ca.type) and state_like:
                la = [np.asarray(x, dtype=np.float64)
                      for x in ca.to_pylist()]
                lb = [np.asarray(x, dtype=np.float64)
                      for x in cb.to_pylist()]
                for x, y in zip(la, lb):
                    np.testing.assert_allclose(x, y, rtol=1e-9,
                                               atol=1e-12, equal_nan=True,
                                               err_msg=f"{name}.{col}")
            else:
                assert ca.to_pylist() == cb.to_pylist(), f"{name}.{col}"


def test_salting_kill_switch(ray_session, skewed_webtext, tmp_path):
    """salt_threshold=None: no detection pass, no hot partitions —
    even though the default 'auto' would salt this 39k-row url."""
    path, _ = skewed_webtext
    summary = mp.run_pipeline(path, str(tmp_path / "o"), strategy="EWMA",
                              monitor_params={"trend": False},
                              monitor_start="2021-01-01",
                              num_partitions=4, tiers=TIERS,
                              salt_threshold=None)
    assert summary["partitions_processed"] <= 4


def test_salt_threshold_takes_auto_or_none(tmp_path):
    """A numeric threshold is refused, pointing at ``hot_urls=``."""
    with pytest.raises(ValueError, match="hot_urls="):
        mp.run_pipeline(str(tmp_path / "none.parquet"),
                        str(tmp_path / "o"), salt_threshold=1000)


def test_legacy_salted_run_without_metadata_raises(ray_session,
                                                   skewed_webtext,
                                                   tmp_path):
    """A salted run whose config predates hot-url persistence (merged
    pids exist but no hot_urls recorded) must refuse increments loudly
    instead of silently re-fitting hot urls as unknown."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.pipelines.continuous import ContinuousMonitor

    path, hot_rows = skewed_webtext
    out = str(tmp_path / "out")
    mp.run_pipeline(path, out, strategy="EWMA",
                    monitor_start="2021-01-01",
                    monitor_params={"trend": False}, num_partitions=4)
    assert inc.read_run_config(out)["hot_urls"] == [HOT_URL]
    cfg = inc.read_run_config(out)
    cfg.pop("hot_urls", None)
    cfg.pop("num_merge_tasks", None)
    inc.write_run_config(out, cfg)
    with pytest.raises(RuntimeError, match="salted"):
        inc.run_increment(out, mp.ingest_webtext(path))
    with pytest.raises(RuntimeError, match="salted"):
        ContinuousMonitor(out)


def test_salted_increment_equals_salted_oneshot(ray_session,
                                                skewed_webtext,
                                                tmp_path):
    """Increments on a salted run: the hot url's new rows route to its
    committed merge partition and append to the checkpointed recursion —
    base(early)+increment(late) must equal the salted one-shot over the
    full input (same hot set on both plans)."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.pipelines.continuous import ContinuousMonitor

    path, hot_rows = skewed_webtext
    t = pq.read_table(path)
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    cut = int(np.quantile(np.unique(ts), 0.7))
    early = str(tmp_path / "early.parquet")
    late = str(tmp_path / "late.parquet")
    pq.write_table(t.filter(pa.array(ts <= cut)), early)
    pq.write_table(t.filter(pa.array(ts > cut)), late)

    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=6,
                  tiers=TIERS, hot_urls={HOT_URL})

    mp.run_pipeline(path, str(tmp_path / "full"), **common)

    for mode in ("discrete", "continuous"):
        out = str(tmp_path / mode)
        mp.run_pipeline(early, out, **common)
        if mode == "discrete":
            s = inc.run_increment(out, mp.ingest_webtext(late))
            assert s["late_rows"] == 0 and s["input_rows"] > 0
        else:
            cm = ContinuousMonitor(out)
            try:
                s = cm.ingest(mp.ingest_webtext(late))
                assert s["late_rows"] == 0 and s["input_rows"] > 0
                cm.checkpoint()
            finally:
                cm.close()

        sa = mp.read_output_table(str(tmp_path / "full"), "state")
        sb = mp.read_output_table(out, "state")
        oa = sa.take(pc.sort_indices(sa, sort_keys=[("url",
                                                     "ascending")]))
        ob = sb.take(pc.sort_indices(sb, sort_keys=[("url",
                                                     "ascending")]))
        assert oa.column("url").to_pylist() == \
            ob.column("url").to_pylist(), mode
        for col in ("status", "detection_date", "n"):
            if col in oa.column_names:
                assert oa.column(col).to_pylist() == \
                    ob.column(col).to_pylist(), (mode, col)
        np.testing.assert_allclose(
            oa.column("process").to_numpy(zero_copy_only=False),
            ob.column("process").to_numpy(zero_copy_only=False),
            rtol=1e-9, atol=1e-12, equal_nan=True)

        for name in ("rollup_1d", "rollup_1w"):
            ta = _read_all(str(tmp_path / "full"), name)
            tb = _read_all(out, name)
            assert ta.num_rows == tb.num_rows, (mode, name)
            for col in ("url", "bucket_ts", "count", "gapfilled"):
                assert ta.column(col).to_pylist() == \
                    tb.column(col).to_pylist(), (mode, name, col)
            for col in ("min", "max", "last"):
                np.testing.assert_array_equal(
                    ta.column(col).to_numpy(zero_copy_only=False)
                      .view(np.uint64),
                    tb.column(col).to_numpy(zero_copy_only=False)
                      .view(np.uint64), err_msg=f"{mode}.{name}.{col}")
            for col in ("sum", "mean"):
                np.testing.assert_allclose(
                    ta.column(col).to_numpy(zero_copy_only=False),
                    tb.column(col).to_numpy(zero_copy_only=False),
                    rtol=1e-12, equal_nan=True,
                    err_msg=f"{mode}.{name}.{col}")


def test_auto_salting_default_path(ray_session, skewed_webtext, tmp_path):
    """salt_threshold='auto' (the default): the 39k-row hot url clears
    every auto term (8x mean, half a partition share, the 10k floor)
    and is detected with no explicit threshold; outputs equal the
    unsalted plan (VERDICT r3 #4)."""
    path, hot_rows = skewed_webtext
    assert hot_rows > mp.AUTO_SALT_MIN_ROWS
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=6,
                  tiers=TIERS)
    mp.run_pipeline(path, str(tmp_path / "plain"), salt_threshold=None,
                    **common)
    t0 = time.perf_counter()
    summary = mp.run_pipeline(path, str(tmp_path / "auto"), **common)
    wall = time.perf_counter() - t0
    assert summary["partitions_processed"] > common["num_partitions"] - 1
    assert not os.path.exists(str(tmp_path / "auto" / "hot_series"))
    # overlapped detection is timed on the driver's clock alone
    assert 0 < summary["salt_detect_sec"] <= wall
    for name in ("state", "alerts", "rollup_1d", "rollup_1w", "segments"):
        a = _read_all(str(tmp_path / "plain"), name)
        b = _read_all(str(tmp_path / "auto"), name)
        assert a.num_rows == b.num_rows, name
        state_like = name in ("state", "alerts")
        for col in a.column_names:
            ca, cb = a.column(col), b.column(col)
            if pa.types.is_floating(ca.type):
                va = ca.to_numpy(zero_copy_only=False)
                vb = cb.to_numpy(zero_copy_only=False)
                if state_like:
                    np.testing.assert_allclose(va, vb, rtol=1e-9,
                                               atol=1e-12, equal_nan=True,
                                               err_msg=f"{name}.{col}")
                else:
                    np.testing.assert_array_equal(
                        va.view(np.uint64), vb.view(np.uint64),
                        err_msg=f"{name}.{col}")
            elif pa.types.is_list(ca.type) and state_like:
                for x, y in zip(ca.to_pylist(), cb.to_pylist()):
                    np.testing.assert_allclose(
                        np.asarray(x, np.float64),
                        np.asarray(y, np.float64), rtol=1e-9,
                        atol=1e-12, equal_nan=True,
                        err_msg=f"{name}.{col}")
            else:
                assert ca.to_pylist() == cb.to_pylist(), f"{name}.{col}"


def test_auto_threshold_detection(ray_session, skewed_webtext):
    """Auto threshold finds the skewed url; an unskewed input (the base
    crawl, ~200 rows/url, under the 10k floor) yields an empty set."""
    import ray
    path, hot_rows = skewed_webtext
    assert set(ray.get(mp._submit_detect_auto(path, 6))) \
        == {"https://hot.example.com/live"}
    base = os.path.join(os.path.dirname(path), "webtext.parquet")
    assert set(ray.get(mp._submit_detect_auto(base, 6))) == set()


def test_salted_forget_hot_and_cold(ray_session, skewed_webtext,
                                    tmp_path):
    """run_forget on a salted run: forgetting the hot url filters its
    merge partition; forgetting a normal url filters its hash partition
    — outputs equal a salted run over the filtered input at the same
    high-water mark.  The store is built from a copy of the input that
    is deleted before the forget, so the forget reads no input."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.pipelines import retier

    path, hot_rows = skewed_webtext
    t = pq.read_table(path)
    urls = sorted(set(t.column("url").to_pylist()))
    hot_url = "https://hot.example.com/live"
    cold_url = next(u for u in urls if u != hot_url)
    hot = {hot_url}
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=5,
                  tiers=TIERS, hot_urls=hot)

    out = str(tmp_path / "out")
    copy = str(tmp_path / "input.parquet")
    shutil.copy(path, copy)
    mp.run_pipeline(copy, out, **common)
    os.remove(copy)
    hw = inc.read_run_config(out)["high_water_us"]
    # a store written before runs deleted their hot sub-series still
    # holds them: the forget removes the directory
    assert not os.path.exists(os.path.join(out, "hot_series"))
    leftover = os.path.join(out, "hot_series", "part=0")
    os.makedirs(leftover)
    pq.write_table(pa.table({"url": [hot_url]}),
                   os.path.join(leftover, "part.parquet"))

    s = inc.run_forget(out, [hot_url, cold_url])
    assert s["urls_forgotten"] == 2
    P = common["num_partitions"]
    assert any(p >= P for p in s["affected_pids"])   # merge pid touched
    assert any(p < P for p in s["affected_pids"])    # hash pid touched
    assert s["partitions_rewritten"] + s["partitions_emptied"] \
        == len(s["affected_pids"])
    assert retier.verify_store(out)["issues"] == []

    assert not os.path.exists(os.path.join(out, "hot_series"))

    # reference: salted run over the filtered input, same hot set minus
    # nothing (forgotten urls just absent from the stream)
    keep = ~np.isin(np.asarray(t.column("url").to_pylist(),
                               dtype=object),
                    np.asarray([hot_url, cold_url], dtype=object))
    fp = str(tmp_path / "filtered.parquet")
    pq.write_table(t.filter(pa.array(keep, pa.bool_())), fp)
    ref = str(tmp_path / "ref")
    mp.run_pipeline(fp, ref, high_water_us=hw, **common)

    for name in ("state", "alerts", "rollup_1d", "rollup_1w",
                 "segments"):
        a = _read_all(out, name)
        b = _read_all(ref, name)
        assert a.num_rows == b.num_rows, name
        assert hot_url not in a.column("url").to_pylist()
        state_like = name in ("state", "alerts")
        for col in a.column_names:
            ca, cb = a.column(col), b.column(col)
            if pa.types.is_floating(ca.type):
                va = ca.to_numpy(zero_copy_only=False)
                vb = cb.to_numpy(zero_copy_only=False)
                if state_like:
                    np.testing.assert_allclose(va, vb, rtol=1e-9,
                                               atol=1e-12,
                                               equal_nan=True,
                                               err_msg=f"{name}.{col}")
                else:
                    np.testing.assert_array_equal(
                        va.view(np.uint64), vb.view(np.uint64),
                        err_msg=f"{name}.{col}")
            elif pa.types.is_list(ca.type) and state_like:
                for x, y in zip(ca.to_pylist(), cb.to_pylist()):
                    np.testing.assert_allclose(
                        np.asarray(x, np.float64),
                        np.asarray(y, np.float64), rtol=1e-9,
                        atol=1e-12, equal_nan=True,
                        err_msg=f"{name}.{col}")
            else:
                assert ca.to_pylist() == cb.to_pylist(), f"{name}.{col}"


def test_salted_backfill_hot_late_rows(ray_session, skewed_webtext,
                                       tmp_path):
    """Late rows of the HOT url dead-letter and then backfill into its
    MERGE partition (rebuilt from source); the final store equals the
    salted one-shot over the full input."""
    from nrt_ray.pipelines import incremental as inc

    path, hot_rows = skewed_webtext
    t = pq.read_table(path)
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    urls = np.asarray(t.column("url").to_pylist(), dtype=object)
    hot_url = "https://hot.example.com/live"
    uts = np.unique(ts)
    cut = int(np.quantile(uts, 0.7))
    window = int(np.quantile(uts, 0.5))
    # hold back a mid-window slice of the HOT url's rows
    held = (urls == hot_url) & (ts > window) & (ts <= cut)
    early = t.filter(pa.array((ts <= cut) & ~held))
    batch2 = t.filter(pa.array((ts > cut) | held))
    n_held = int(held.sum())
    assert n_held > 0
    ep = str(tmp_path / "early.parquet")
    bp = str(tmp_path / "batch2.parquet")
    pq.write_table(early, ep)
    pq.write_table(batch2, bp)

    hot = {hot_url}
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=5,
                  tiers=TIERS, hot_urls=hot)
    out = str(tmp_path / "out")
    mp.run_pipeline(ep, out, **common)
    s_inc = inc.run_increment(out, mp.ingest_webtext(bp))
    # held rows at or below the early run's high-water dead-letter;
    # the few above it (the early max may sit below `cut` once the hot
    # slice is held back) ingest as new — both paths must reconverge
    n_late = s_inc["late_rows"]
    assert 0 < n_late <= n_held

    s_bf = inc.run_backfill(out, [ep, bp])
    assert s_bf["late_rows_applied"] == n_late
    P = common["num_partitions"]
    assert any(p >= P for p in s_bf["affected_pids"])

    ref = str(tmp_path / "ref")
    mp.run_pipeline(path, ref, **common)
    for name in ("state", "rollup_1d", "rollup_1w", "segments"):
        a = _read_all(out, name)
        b = _read_all(ref, name)
        assert a.num_rows == b.num_rows, name
        for col in ("url",):
            assert a.column(col).to_pylist() == \
                b.column(col).to_pylist(), name
        for col in a.column_names:
            ca, cb = a.column(col), b.column(col)
            if pa.types.is_floating(ca.type):
                va = ca.to_numpy(zero_copy_only=False)
                vb = cb.to_numpy(zero_copy_only=False)
                np.testing.assert_allclose(va, vb, rtol=1e-9,
                                           atol=1e-12, equal_nan=True,
                                           err_msg=f"{name}.{col}")
            elif pa.types.is_list(ca.type):
                for x, y in zip(ca.to_pylist(), cb.to_pylist()):
                    np.testing.assert_allclose(
                        np.asarray(x, np.float64),
                        np.asarray(y, np.float64), rtol=1e-9,
                        atol=1e-12, equal_nan=True,
                        err_msg=f"{name}.{col}")
            else:
                assert ca.to_pylist() == cb.to_pylist(), f"{name}.{col}"


def test_resume_rebuilds_an_uncommitted_merge_partition(ray_session,
                                                        skewed_webtext,
                                                        tmp_path):
    """A store salted with two hot urls (M = 2) loses merge pid P + 1
    (commit record and files); a resumed run takes the hot set from the
    run config, routes the hot rows straight to their merge pids as an
    increment does, rebuilds only that pid, and every table equals a
    fresh run's."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.pipelines import retier
    from nrt_ray.state import manifest

    path, _ = skewed_webtext
    urls = sorted(set(pq.read_table(path, columns=["url"])
                      .column("url").to_pylist()))
    hot = {HOT_URL, next(u for u in urls if u != HOT_URL)}
    P = 5
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=P,
                  tiers=TIERS)
    fresh = str(tmp_path / "fresh")
    mp.run_pipeline(path, fresh, hot_urls=hot, **common)
    assert inc.read_run_config(fresh)["num_merge_tasks"] == 2
    assert manifest.committed_partitions(fresh) == set(range(P + 2))

    out = str(tmp_path / "out")
    shutil.copytree(fresh, out)
    tables = ["state", "alerts", "segments", "rollup_1d", "rollup_1w"]
    assert manifest.uncommit_partitions(out, [P + 1]) == [P + 1]
    for name in ["state", "alerts", "segments", "rollup"]:    # the files
        shutil.rmtree(manifest.partition_dir(out, name, P + 1))

    s = mp.run_pipeline(path, out, **common)
    assert s["partitions_processed"] == 1
    assert s["partitions_skipped"] == P + 1
    assert manifest.committed_partitions(out) == set(range(P + 2))
    assert retier.verify_store(out)["issues"] == []
    assert not os.path.exists(os.path.join(out, "hot_series"))
    assert inc.read_run_config(out)["hot_urls"] == sorted(hot)
    for name in tables:
        assert _read_all(out, name).equals(_read_all(fresh, name)), name


def test_merge_partitions_record_their_hot_rows_fragments(
        ray_session, skewed_webtext, tmp_path):
    """A fresh salted run's merge pid records the input fragments its hot
    urls' rows came from, the list a resumed rebuild of that pid records:
    over three input files, the hourly hot url's rows sit in the first
    two and the second hot url's in the first and third."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.state import manifest

    path, _ = skewed_webtext
    t = pq.read_table(path)
    t = t.take(pc.sort_indices(t, sort_keys=[("warc_ts", "ascending")]))
    other = next(u for u in sorted(set(t.column("url").to_pylist()))
                 if u != HOT_URL)
    half = t.num_rows // 2
    late = t.slice(half)
    is_other = pc.equal(late.column("url"), other)
    d = tmp_path / "input"
    d.mkdir()
    for i, part in enumerate((t.slice(0, half),
                              late.filter(pc.invert(is_other)),
                              late.filter(is_other))):
        pq.write_table(part, str(d / f"part{i}.parquet"))
    P = 5
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=P,
                  tiers=TIERS)
    fresh = str(tmp_path / "fresh")
    mp.run_pipeline(str(d), fresh, hot_urls={HOT_URL, other}, **common)
    cfg = inc.read_run_config(fresh)
    frag = {os.path.basename(f): int(i)
            for i, f in cfg["fragments"].items()}
    files_of = {HOT_URL: ("part0.parquet", "part1.parquet"),
                other: ("part0.parquet", "part2.parquet")}
    M = cfg["num_merge_tasks"]
    want = {P + r % M: sorted(frag[f] for f in files_of[u])
            for r, u in enumerate(cfg["hot_urls"])}
    assert M == 2 and want[P] != want[P + 1]

    def recorded(out):
        return {r["partition_id"]: r["input_fragments"]
                for r in manifest.load_manifest(out)
                if r["partition_id"] >= P}

    assert recorded(fresh) == want
    out = str(tmp_path / "out")
    shutil.copytree(fresh, out)
    manifest.uncommit_partitions(out, list(want))
    s = mp.run_pipeline(str(d), out, **common)
    assert s["partitions_processed"] == M
    assert recorded(out) == want


def test_salted_serving_point_reads(ray_session, skewed_webtext,
                                    tmp_path):
    """lookup_url / read_url_range on a salted store: a hot url serves
    from its merge partition, a cold url from its hash partition — both
    agree with the full-table read path (no more refusal)."""
    path, hot_rows = skewed_webtext
    hot_url = "https://hot.example.com/live"
    out = str(tmp_path / "out")
    mp.run_pipeline(path, out, strategy="EWMA",
                    monitor_params={"trend": False},
                    monitor_start="2021-01-01", num_partitions=5,
                    tiers=TIERS, hot_urls={hot_url})

    t = pq.read_table(path, columns=["url"])
    cold_url = next(u for u in sorted(set(t.column("url").to_pylist()))
                    if u != hot_url)
    full = mp.read_output_table(out, "rollup_1d")
    for url in (hot_url, cold_url):
        res = mp.lookup_url(out, url)
        assert res["state"] is not None and res["state"]["url"] == url
        mine = full.filter(np.asarray(
            [u == url for u in full.column("url").to_pylist()]))
        assert res["tiers"]["1d"]["points"] == mine.num_rows, url
    # the hot url must have routed to a merge pid (>= P)
    assert mp.lookup_url(out, hot_url)["pid"] >= 5
    assert mp.lookup_url(out, cold_url)["pid"] < 5

    ts_int = full.column("bucket_ts").cast("int64").to_pylist()
    t0, t1 = min(ts_int), max(ts_int) + 1
    rr = mp.read_url_range(out, hot_url, t0, t1, max_points=10**6)
    keep = [(u == hot_url and t0 <= ts < t1) for u, ts in zip(
        full.column("url").to_pylist(), ts_int)]
    assert rr["points"] == int(np.sum(keep)) > 0


@pytest.mark.parametrize("make", [
    lambda urls: np.asarray(urls, dtype=object),
    lambda urls: dict.fromkeys(urls).keys(),
], ids=["numpy", "dict_keys"])
def test_partition_processor_coerces_hot_url_iterables(make, tmp_path):
    """Any iterable of hot urls is coerced with set(); only a Ray
    ObjectRef takes the deferred path."""
    from nrt_ray.sources.extract import ExtractSignal
    info = synthetic.generate_webtext(str(tmp_path), n_urls=8, seed=3)
    flat = ExtractSignal()(pq.read_table(info["webtext"]))
    flat = flat.append_column("pid", pa.array(
        np.zeros(flat.num_rows, np.int32)))
    urls = sorted(set(flat.column("url").to_pylist()))
    kw = dict(out_dir=str(tmp_path / "out"), run_id="t", num_partitions=1,
              strategy="EWMA", monitor_start="2021-01-01", tiers=TIERS,
              high_water_us=None, monitor_params={"trend": False})
    want = mp.PartitionProcessor(hot_urls={urls[0]}, **kw)(flat)
    got = mp.PartitionProcessor(hot_urls=make(urls[:1]), **kw)(flat)
    assert got.column("series").to_pylist() == [len(urls) - 1]
    assert got.drop_columns(["seconds"]).equals(
        want.drop_columns(["seconds"]))


def test_nested_input_is_one_listing(ray_session, skewed_webtext, tmp_path):
    """A Hive-style directory (``dt=a/``, ``dt=b/`` and a hidden
    ``_SUCCESS``) is one listing for hot-url detection, lineage, the
    high-water mark and the scan: the hot url is salted, the run config
    lists both files, every partition records input fragments, and the
    store equals the single-file run's."""
    from nrt_ray.pipelines import incremental as inc
    from nrt_ray.state import manifest

    path, _ = skewed_webtext
    t = pq.read_table(path)
    d = tmp_path / "crawl"
    files = []
    for name, part in (("dt=a", t.slice(0, t.num_rows // 2)),
                       ("dt=b", t.slice(t.num_rows // 2))):
        (d / name).mkdir(parents=True)
        files.append(str(d / name / "part-0.parquet"))
        pq.write_table(part, files[-1])
    (d / "_SUCCESS").write_text("")
    assert mp.input_files(str(d)) == files
    common = dict(strategy="EWMA", monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=4,
                  tiers=TIERS)
    nested, single = str(tmp_path / "nested"), str(tmp_path / "single")
    mp.run_pipeline(str(d), nested, **common)
    mp.run_pipeline(path, single, **common)
    cfg, want = inc.read_run_config(nested), inc.read_run_config(single)
    assert cfg["hot_urls"] == want["hot_urls"] == [HOT_URL]
    assert cfg["high_water_us"] == want["high_water_us"]
    assert sorted(cfg["fragments"].values()) == files
    recs = manifest.load_manifest(nested)
    assert recs and all(r["input_fragments"] for r in recs)
    assert {r["partition_id"]: r["state_checksum"] for r in recs} == {
        r["partition_id"]: r["state_checksum"]
        for r in manifest.load_manifest(single)}
    for name in ("state", "alerts", "rollup_1d", "rollup_1w", "segments"):
        assert _read_all(nested, name).equals(_read_all(single, name)), \
            name
