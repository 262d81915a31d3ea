"""run_retier: a tier composed from the persisted finer tier equals a
fresh run that included the tier (exact integer/extrema columns, ulp-tol
sums per the engine's documented merge semantics); resumable and
idempotent; increments maintain the new tier.  verify_store: clean
stores pass, corruption is localized and reported."""

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
P = 5
BASE = dict(strategy="CUSUM", fit_method="OLS",
            monitor_params={"trend": False},
            monitor_start="2021-01-01", num_partitions=P)


def _sorted(tbl: pa.Table) -> pa.Table:
    return tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("url", "ascending"), ("bucket_ts", "ascending")]))


def _read_tier(out: str, tier: str) -> pa.Table:
    parts = []
    for pid in range(P):
        t = manifest.read_partition(out, pid, [f"rollup_{tier}"])[
            f"rollup_{tier}"]
        if t is not None:
            parts.append(rollup.tier_table(*rollup.table_rolled(t)))
    return _sorted(pa.concat_tables(parts, promote_options="default"))


def _assert_tier_equal(got: pa.Table, want: pa.Table):
    assert got.num_rows == want.num_rows
    for c in ("url", "count", "gapfilled"):
        assert got.column(c).to_pylist() == want.column(c).to_pylist(), c
    assert got.column("bucket_ts").cast(pa.int64()).to_pylist() \
        == want.column("bucket_ts").cast(pa.int64()).to_pylist()
    for c in ("min", "max", "last"):
        a = got.column(c).to_numpy(zero_copy_only=False)
        b = want.column(c).to_numpy(zero_copy_only=False)
        np.testing.assert_array_equal(a, b, err_msg=c)
    for c in ("sum", "mean"):  # regrouped summation: ulp tolerance
        a = got.column(c).to_numpy(zero_copy_only=False)
        b = want.column(c).to_numpy(zero_copy_only=False)
        np.testing.assert_allclose(a, b, rtol=1e-12, equal_nan=True,
                                   err_msg=c)


def test_retier_matches_fresh_run(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=40, seed=61)

    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out,
                    tiers=(rollup.TierSpec("1h", max_gap=24),
                           rollup.TierSpec("1d")), **BASE)
    ref = str(tmp_path / "ref")
    mp.run_pipeline(info["webtext"], ref,
                    tiers=(rollup.TierSpec("1h", max_gap=24),
                           rollup.TierSpec("1d"), rollup.TierSpec("1w")),
                    **BASE)

    s = retier.run_retier(out, rollup.TierSpec("1w"), source="1d")
    assert s["partitions"] == P and s["skipped_partitions"] == 0
    assert s["rollup_points"] > 0

    _assert_tier_equal(_read_tier(out, "1w"), _read_tier(ref, "1w"))

    # segments of the new tier decode to the same points as fresh-run's
    for pid in range(P):
        for root in (out, ref):
            p = os.path.join(manifest.partition_dir(root, "segments", pid),
                             "part.parquet")
            segs = pq.read_table(p)
            dec = compress.decode_segments_table(segs, tier="1w")
            if root == out:
                got = _sorted(dec)
            else:
                want = _sorted(dec)
        assert got.column("url").to_pylist() == want.column("url").to_pylist()
        np.testing.assert_allclose(
            got.column("mean").to_numpy(zero_copy_only=False),
            want.column("mean").to_numpy(zero_copy_only=False),
            rtol=1e-12)

    # tier registered in run config → lookup/serving paths see it
    assert [t["name"] for t in inc.read_run_config(out)["tiers"]] \
        == ["1h", "1d", "1w"]

    # second run is a no-op: nothing rewritten
    mtimes = {pid: os.path.getmtime(os.path.join(manifest.partition_dir(
        out, "rollup", pid), "part.parquet")) for pid in range(P)}
    with pytest.raises(ValueError, match="already exists"):
        retier.run_retier(out, rollup.TierSpec("1w"), source="1d")
    for pid in range(P):
        assert os.path.getmtime(os.path.join(manifest.partition_dir(
            out, "rollup", pid), "part.parquet")) == mtimes[pid]


def test_retier_composes_at_the_store_mark(ray_session, tmp_path):
    """An increment leaves a partition without rows untouched, so its 1h
    tier still holds the older mark's wider window.  Retier cuts the
    source at the store's mark before composing: the new tier's served
    view and decoded segments equal a retier of the one-shot store,
    the coarse bucket straddling the window start included."""
    from nrt_ray.stages.assemble import bucket_of

    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=40,
                                      seed=61)
    t = pq.read_table(info["webtext"])
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy()
    pid = bucket_of(t.column("url").to_pylist(), P)
    # the batch moves the mark by less than the 1h window, so partition
    # 0's stored 1h rows reach into the new window from before it
    cut = int(np.datetime64("2021-09-01", "us").astype(np.int64))
    batch = (ts > cut) & (ts <= cut + 30 * 86400 * US) & (pid != 0)
    paths = {}
    for name, keep in (("early", ts <= cut), ("batch", batch),
                       ("all", (ts <= cut) | batch)):
        paths[name] = str(tmp_path / f"{name}.parquet")
        pq.write_table(t.filter(pa.array(keep)), paths[name])
    tiers = (rollup.DEFAULT_TIERS[0], rollup.TierSpec("1d"))
    six = rollup.TierSpec("6h", width_us=6 * 3600 * US,
                          retention_us=tiers[0].retention_us)

    out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
    mp.run_pipeline(paths["early"], out, tiers=tiers, **BASE)
    s = inc.run_increment(out, mp.ingest_webtext(paths["batch"]))
    assert s["partitions_processed"] == P - 1
    mp.run_pipeline(paths["all"], ref, tiers=tiers, **BASE)
    for root in (out, ref):
        retier.run_retier(root, six, source="1h")

    _assert_tier_equal(_sorted(mp.read_output_table(out, "rollup_6h")),
                       _sorted(mp.read_output_table(ref, "rollup_6h")))
    got, want = (_sorted(compress.decode_segments_table(
        mp.read_output_table(root, "segments"), tier="6h",
        window=mp.window_starts(inc.read_run_config(root))))
        for root in (out, ref))
    assert got.column("url").to_pylist() == want.column("url").to_pylist()
    assert got.column("bucket_ts").to_pylist() \
        == want.column("bucket_ts").to_pylist()
    np.testing.assert_allclose(got.column("mean").to_numpy(),
                               want.column("mean").to_numpy(), rtol=1e-12)


def test_retier_resume_and_increment(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=30, seed=62)
    t = pq.read_table(info["webtext"])
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    cut = int(np.quantile(ts, 0.8))
    base_p = str(tmp_path / "base.parquet")
    newer_p = str(tmp_path / "newer.parquet")
    pq.write_table(t.filter(pa.array(ts <= cut)), base_p)
    pq.write_table(t.filter(pa.array(ts > cut)), newer_p)

    out = str(tmp_path / "out")
    mp.run_pipeline(base_p, out, tiers=(rollup.TierSpec("1d"),), **BASE)

    # simulate a crash: mark partitions 0,1 as already retiered by
    # running the real per-partition path for just those pids
    full = retier.run_retier(out, rollup.TierSpec("1w"), source="1d",
                             run_id="leg1")
    assert full["partitions"] == P
    # drop the config tier + two partitions' markers to replay a partial run
    cfg = inc.read_run_config(out)
    cfg["tiers"] = [x for x in cfg["tiers"] if x["name"] != "1w"]
    inc.write_run_config(out, cfg)
    recs = {r["partition_id"]: r for r in manifest.load_manifest(out)}
    for pid in (2, 3, 4):
        rec = dict(recs[pid])
        rec["tiers_added"] = []
        for k in ("run_id", "committed", "committed_at"):
            rec.pop(k, None)
        manifest.commit_partition(out, "crashed", rec.pop("partition_id"),
                                  rec)
    s = retier.run_retier(out, rollup.TierSpec("1w"), source="1d")
    assert s["partitions"] == 3 and s["skipped_partitions"] == 2

    # an increment now maintains the retiered 1w tier: equality vs a
    # fresh one-shot run over the combined input with all tiers
    inc.run_increment(out, mp.ingest_webtext(newer_p))
    ref = str(tmp_path / "ref")
    mp.run_pipeline(info["webtext"], ref,
                    tiers=(rollup.TierSpec("1d"), rollup.TierSpec("1w")),
                    **BASE)
    _assert_tier_equal(_read_tier(out, "1w"), _read_tier(ref, "1w"))


def test_earlier_tier_layout_reads_the_same(ray_session, tmp_path,
                                            earlier_tier_layout):
    """Tier files in the earlier layout (a ``rollup_{tier}`` file per
    tier, ``mean`` and ``gapfilled`` stored, no nulls) need no
    migration: such a store takes an increment and a retier and then
    serves the same views and segments as a store in the current
    layout."""
    import shutil

    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=30, seed=65)
    t = pq.read_table(info["webtext"])
    ts = t.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    cut = int(np.quantile(ts, 0.8))
    base_p = str(tmp_path / "base.parquet")
    newer_p = str(tmp_path / "newer.parquet")
    pq.write_table(t.filter(pa.array(ts <= cut)), base_p)
    # newer rows of a few urls: some partitions keep their files as is
    newer = t.filter(pa.array(ts > cut))
    few = pa.array(sorted(set(newer.column("url").to_pylist()))[:3])
    pq.write_table(newer.filter(pc.is_in(newer.column("url"),
                                         value_set=few)), newer_p)
    tiers = (rollup.TierSpec("1h", retention_us=30 * 86400 * US,
                             max_gap=24), rollup.TierSpec("1d"),
             rollup.TierSpec("1w"))
    new = str(tmp_path / "new")
    mp.run_pipeline(base_p, new, tiers=tiers, **BASE)
    old = str(tmp_path / "old")
    shutil.copytree(new, old)

    def earlier(stored: pa.Table) -> pa.Table:
        t = rollup.tier_table(*rollup.table_rolled(stored)) \
            .replace_schema_metadata(stored.schema.metadata)
        assert "mean" in t.column_names
        assert not t.column("min").null_count
        return t

    earlier_tier_layout(old, earlier)
    for out in (new, old):
        inc.run_increment(out, mp.ingest_webtext(newer_p))
        if out == old:   # some partition kept its earlier-layout files
            files = [os.path.join(manifest.partition_dir(
                old, "rollup_1d", pid), "part.parquet") for pid in range(P)]
            assert any(os.path.exists(f) and "mean" in pq.read_schema(f)
                       .names for f in files)
        retier.run_retier(out, rollup.TierSpec(
            "4w", width_us=28 * 86400 * US), source="1d")
        assert retier.verify_store(out)["issues"] == []
    for table in ("rollup_1h", "rollup_1d", "rollup_1w", "rollup_4w",
                  "segments"):
        assert mp.read_output_table(old, table).equals(
            mp.read_output_table(new, table)), table


def test_retier_validation(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=10, seed=63)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out,
                    tiers=(rollup.TierSpec("1h",
                                           retention_us=90 * 86400 * US,
                                           max_gap=24),
                           rollup.TierSpec("1d")), **BASE)
    with pytest.raises(ValueError, match="does not divide"):
        retier.run_retier(out, rollup.TierSpec(
            "10h", width_us=10 * 3600 * US), source="1d")
    with pytest.raises(ValueError, match="retains only"):
        retier.run_retier(out, rollup.TierSpec("1w"), source="1h")
    with pytest.raises(ValueError, match="not in store"):
        retier.run_retier(out, rollup.TierSpec("1w"), source="1m")


def test_verify_store(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=20, seed=64)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out,
                    tiers=(rollup.TierSpec("1d"),), **BASE)

    rep = retier.verify_store(out)
    assert rep["partitions"] == P and rep["ok"] == P and not rep["issues"]

    # corrupt partition 1's state (drop a row) → checksum + rows flagged
    p = os.path.join(manifest.partition_dir(out, "state", 1),
                     "part.parquet")
    st = pq.read_table(p)
    pq.write_table(st.slice(1), p)
    # truncate partition 2's rollup file → row-count mismatch
    p2 = os.path.join(manifest.partition_dir(out, "rollup", 2),
                      "part.parquet")
    r2 = pq.read_table(p2)
    assert set(r2.column("tier").to_pylist()) == {"1d"}
    pq.write_table(r2.slice(0, max(1, r2.num_rows - 3)), p2)

    rep = retier.verify_store(out)
    assert rep["ok"] == P - 2
    assert any("state checksum mismatch" in i for i in rep["issues"])
    assert any("rollup_1d rows" in i for i in rep["issues"])

    # repair: damaged partitions uncommit, a resumed run rebuilds
    # exactly them, and the store verifies clean again
    rep = retier.verify_store(out, repair=True)
    assert sorted(rep["uncommitted"]) == [1, 2]
    s = mp.run_pipeline(info["webtext"], out,
                        tiers=(rollup.TierSpec("1d"),), **BASE)
    assert s["partitions_processed"] == 2 and s["partitions_skipped"] == 3
    rep = retier.verify_store(out)
    assert rep["ok"] == P and not rep["issues"]


def test_null_extremum_in_multi_observation_bucket_fails_loudly(
        ray_session, tmp_path):
    """A stored tier row with ``count != 1`` must hold its own
    ``min``/``max``/``last``: a null there is corruption, which fsck
    lists and an increment refuses instead of filling it from ``sum``."""
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=20, seed=64)
    out = str(tmp_path / "out")
    # 4-week buckets: the weekly crawls put several observations in each
    mp.run_pipeline(info["webtext"], out, tiers=(rollup.TierSpec(
        "4w", width_us=28 * 86400 * US),), **BASE)
    pid = 0
    p = os.path.join(manifest.partition_dir(out, "rollup", pid),
                     "part.parquet")
    tbl = pq.read_table(p)            # the one tier: the 4w rows
    row = int(np.flatnonzero(tbl.column("count").to_numpy() >= 2)[0])
    mins = tbl.column("min").to_pylist()
    mins[row] = None
    pq.write_table(tbl.set_column(tbl.column_names.index("min"), "min",
                                  pa.array(mins, pa.float64())), p)

    rep = retier.verify_store(out)
    assert rep["ok"] == P - 1
    assert rep["issues"] == [
        f"pid {pid}: rollup_4w unreadable: tier 4w: a stored row holds a "
        "null 'min'"]

    # one newer row of the corrupt row's url: the increment loads that
    # partition's tier and raises
    url = tbl.column("url")[row].as_py()
    t = pq.read_table(info["webtext"])
    t = t.filter(pc.equal(t.column("url"), url)).slice(0, 1)
    hw = inc.read_run_config(out)["high_water_us"]
    newer = str(tmp_path / "newer.parquet")
    pq.write_table(t.set_column(
        t.column_names.index("warc_ts"), "warc_ts",
        pa.array([hw + 3600 * US], pa.int64()).cast(
            t.schema.field("warc_ts").type)), newer)
    with pytest.raises(ValueError, match="tier 4w: a stored row holds"):
        inc.run_increment(out, mp.ingest_webtext(newer))


def test_verify_store_lists_a_sum_stored_twice_or_never(ray_session,
                                                        tmp_path):
    """A stored tier row keeps its sum in exactly one of the decimal
    ``sum`` and ``sum_float``: a row with both set, or neither, is
    corruption that fsck lists."""
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=20, seed=64)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out,
                    tiers=(rollup.TierSpec("1d"),), **BASE)
    for pid, col in ((0, "sum_float"), (1, "sum")):
        p = os.path.join(manifest.partition_dir(out, "rollup", pid),
                         "part.parquet")
        tbl = pq.read_table(p)
        vals = tbl.column(col).to_pylist()
        vals[0] = 0.5 if col == "sum_float" else None
        pq.write_table(tbl.set_column(tbl.column_names.index(col), col,
                                      pa.array(vals, tbl.schema.field(
                                          col).type)), p)
    rep = retier.verify_store(out)
    assert rep["ok"] == P - 2
    assert rep["issues"] == [
        "pid 0: rollup_1d unreadable: tier 1d: a stored row holds both "
        "'sum' and 'sum_float'",
        "pid 1: rollup_1d unreadable: tier 1d: a stored row holds a null "
        "'sum'"]


def test_verify_store_lists_uncommitted_partition(ray_session, tmp_path):
    """A partition whose files are on disk without a commit record (an
    uncommit, or a run that died before committing it) is an fsck issue
    until a resumed run rebuilds it."""
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=20, seed=64)
    out = str(tmp_path / "out")
    kw = dict(tiers=(rollup.TierSpec("1d"),), **BASE)
    mp.run_pipeline(info["webtext"], out, **kw)
    assert manifest.uncommit_partitions(out, [3]) == [3]

    rep = retier.verify_store(out)
    assert rep["issues"] == ["pid 3: files present but no commit record"]
    assert rep["partitions"] == P - 1 and rep["ok"] == P - 1

    s = mp.run_pipeline(info["webtext"], out, **kw)
    assert s["partitions_processed"] == 1
    rep = retier.verify_store(out)
    assert rep["partitions"] == P and rep["ok"] == P and not rep["issues"]


def test_verify_store_lists_rollup_file_without_a_config_tier(ray_session,
                                                              tmp_path):
    """A ``rollup`` file must hold every run-config tier: one whose 1d
    rows and metadata are gone is listed, by the missing tier."""
    import json

    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=20,
                                      seed=64)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, tiers=(
        rollup.TierSpec("1d"), rollup.TierSpec("1w")), **BASE)
    assert not retier.verify_store(out)["issues"]

    pid = 1
    p = os.path.join(manifest.partition_dir(out, "rollup", pid),
                     "part.parquet")
    t = pq.read_table(p)
    meta = {k: v for k, v in t.schema.metadata.items()
            if not k.startswith(b"rollup_1d:")}
    meta[manifest.TIERS_KEY] = json.dumps(["rollup_1w"]).encode()
    pq.write_table(t.filter(pc.equal(t.column("tier"), "1w"))
                   .replace_schema_metadata(meta), p)

    rep = retier.verify_store(out)
    assert rep["ok"] == P - 1
    assert f"pid {pid}: rollup file lacks tier rollup_1d" in rep["issues"]
    assert all(i.startswith(f"pid {pid}:") for i in rep["issues"])


def test_verify_store_lists_rollup_file_beside_tier_files(ray_session,
                                                          tmp_path):
    """A partition holds its tiers in one layout: a ``rollup_{tier}``
    file of the earlier layout beside its ``rollup`` file is listed."""
    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=20,
                                      seed=64)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out,
                    tiers=(rollup.TierSpec("1d"),), **BASE)
    pid = 2
    manifest.write_partition_table(out, "rollup_1d", pid,
                                   manifest.read_partition(
                                       out, pid, ["rollup_1d"])["rollup_1d"])

    rep = retier.verify_store(out)
    assert rep["ok"] == P - 1
    assert rep["issues"] == [f"pid {pid}: rollup file and earlier-layout "
                             "tier files ['rollup_1d']"]


def test_retier_skips_a_partition_forget_emptied(ray_session, tmp_path):
    """A partition ``run_forget`` committed empty has no tiers to compose
    from: retier leaves it empty, and fsck finds the store clean."""
    from nrt_ray.stages.assemble import bucket_of

    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=20,
                                      seed=64)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out,
                    tiers=(rollup.TierSpec("1d"),), **BASE)
    urls = sorted(set(pq.read_table(info["webtext"], columns=["url"])
                      .column("url").to_pylist()))
    gone = [u for u, pid in zip(urls, bucket_of(urls, P)) if pid == 0]
    assert inc.run_forget(out, gone)["partitions_emptied"] == 1

    s = retier.run_retier(out, rollup.TierSpec("1w"), source="1d")
    assert s["partitions"] == P - 1 and s["rollup_points"] > 0
    assert manifest.read_partition(out, 0, ["rollup_1w"]) == {
        "rollup_1w": None}
    assert retier.verify_store(out)["issues"] == []
