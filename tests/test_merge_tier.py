"""The increment tier merge (append-only) ≡ the pandas regroup it
replaced, bit for bit, on the merged tables."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.stages import rollup
from nrt_ray.stages.assemble import assemble_series

US = 1_000_000
HOUR = 3600 * US
DAY = 24 * HOUR
T0 = int(np.datetime64("2021-01-01", "us").astype(np.int64))
OLD_HW = T0 + 100 * DAY + 5 * HOUR + 20 * 60 * US
NEW_HW = OLD_HW + 2 * DAY
CONFIG = {"tiers": [t.to_dict() for t in rollup.DEFAULT_TIERS],
          "strategy": "EWMA", "monitor_start": "2021-01-01"}


def _retention_advance(proc, table, tier):
    if tier.retention_us is None or not table.num_rows:
        return rollup.tag_tier(table, tier, proc.new_hw)
    rolled, urls = rollup.table_rolled(table)
    keys = {"series_idx": rolled["series_idx"],
            "bucket_ts": rolled["bucket_ts"],
            "row": np.arange(len(rolled["series_idx"]))}
    kept = rollup.trim_for_retention(keys, tier.width_us,
                                     tier.retention_us, proc.new_hw)
    if len(kept["row"]) < table.num_rows:
        table = table.take(pa.array(kept["row"]))
    return rollup.tag_tier(table, tier, proc.new_hw)


def _frame(table: pa.Table) -> pd.DataFrame:
    """A tier table's rows as pandas, read through ``table_rolled``."""
    rolled, urls = rollup.table_rolled(table)
    return pd.DataFrame(dict(
        url=urls.take(pa.array(rolled["series_idx"])).to_pandas(),
        **{k: rolled[k] for k in ("bucket_ts", "count", "sum", "min",
                                  "max", "last")}))


def pandas_merge_tier(proc, old, series, tier):
    """The former merge: touched urls regrouped with pandas, untouched
    urls advanced by a retention trim, then one full re-sort.  (Its
    pandas sums start from +0.0, so a bucket summing to -0.0 would come
    out +0.0; the inputs here hold no -0.0.)"""
    touched = np.unique(np.asarray(series.column("url").to_pandas(),
                                   dtype=object))
    passthrough = None
    if old is not None and old.num_rows:
        tmask = pc.is_in(old.column("url"),
                         value_set=pa.array(touched, pa.string(),
                                            from_pandas=True))
        untouched = old.filter(pc.invert(tmask))
        old = old.filter(tmask)
        if untouched.num_rows:
            passthrough = _retention_advance(proc, untouched, tier)
    else:
        old = None
    new = rollup.observed_tier_tables(
        series, tiers=[rollup.TierSpec(tier.name, tier.width_us)],
        high_water_us=proc.new_hw)[tier.name]
    if old is None or old.num_rows == 0:
        merged = _frame(new)
    else:
        merged = pd.concat([_frame(old), _frame(new)], ignore_index=True)
        g = merged.groupby(["url", "bucket_ts"], sort=True)
        merged = pd.DataFrame({
            "count": g["count"].sum().astype(np.int32),
            "sum": g["sum"].sum(),
            "min": g["min"].min(),
            "max": g["max"].max(),
            "last": g["last"].last(),
        }).reset_index()
        merged = merged.sort_values(["url", "bucket_ts"])
    merged["mean"] = merged["sum"] / merged["count"]
    urls = merged["url"].to_numpy(dtype=object)
    first = np.r_[True, urls[1:] != urls[:-1]] if len(urls) else \
        np.array([], bool)
    rolled = {
        "series_idx": np.cumsum(first) - 1,
        "bucket_ts": merged["bucket_ts"].astype("int64").to_numpy(),
        "count": merged["count"].to_numpy().astype(np.int32),
        "sum": merged["sum"].to_numpy(),
        "mean": merged["mean"].to_numpy(),
        "min": merged["min"].to_numpy(),
        "max": merged["max"].to_numpy(),
        "last": merged["last"].to_numpy(),
    }
    rolled = rollup.trim_for_retention(rolled, tier.width_us,
                                       tier.retention_us, proc.new_hw)
    rebuilt = rollup.stored_tier_table(
        rolled, pa.array(urls[first], pa.string()), tier, proc.new_hw)
    if passthrough is not None and passthrough.num_rows:
        # untouched and merged rows, stored as one table: one ``sum``
        # scale over all of them
        rebuilt = pa.concat_tables([rollup.tier_table(
            *rollup.table_rolled(t)) for t in (passthrough, rebuilt)])
        rebuilt = rollup.stored_tier_table(*rollup.table_rolled(
            rebuilt.take(pc.sort_indices(rebuilt, sort_keys=[
                ("url", "ascending"), ("bucket_ts", "ascending")]))),
            tier, proc.new_hw)
    return rollup.tag_tier(rebuilt, tier, proc.new_hw)


def _series(rows: dict) -> pa.Table:
    """Assembled series from ``{url: (ts_us array, value array)}``."""
    url = np.concatenate([[u] * len(ts) for u, (ts, _) in rows.items()])
    ts = np.concatenate([ts for ts, _ in rows.values()])
    val = np.concatenate([v for _, v in rows.values()])
    return assemble_series(pa.table({
        "url": pa.array(url, pa.string()),
        "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(val, pa.float64())}))


def _obs(rng, *ts):
    ts = np.sort(np.concatenate([np.atleast_1d(t) for t in ts]))
    return ts.astype(np.int64), rng.normal(0.5, 0.1, len(ts))


@pytest.fixture(scope="module")
def cases():
    """``{name: (old rows, new rows)}`` (see the module tests)."""
    rng = np.random.default_rng(5)
    hours = np.arange(24 * 20) * HOUR
    # a: touched, its last stored observation at the old mark, the new
    #    one 10 minutes later — one boundary bucket in every tier
    # b: brand new;  c: untouched, its 1h anchor's fills cross the
    #    moving window start (served count moves, stored rows do not);
    # d: untouched, rows trimmed by the 1h window;  e: untouched, quiet
    old = {"a": _obs(rng, T0 + 80 * DAY + hours[::3], OLD_HW),
           "c": _obs(rng, T0 + 10 * DAY + np.arange(4) * HOUR,
                     T0 + 14 * DAY + 2 * HOUR),
           "d": _obs(rng, T0 + 11 * DAY + np.arange(0, 40, 5) * HOUR,
                     T0 + 20 * DAY),
           "e": _obs(rng, T0 + 95 * DAY + hours[:60:7])}
    new = {"a": _obs(rng, OLD_HW + 10 * 60 * US,
                     OLD_HW + np.arange(1, 30, 4) * HOUR),
           "b": _obs(rng, OLD_HW + np.arange(2, 40, 6) * HOUR)}
    # the hot url of a salted run: its merge partition holds it alone
    slots = np.flatnonzero(rng.random(100 * 24) < 0.36)
    hot_old = {"hot": _obs(rng, T0 + slots * HOUR, OLD_HW)}
    hot_new = {"hot": _obs(rng, OLD_HW + 5 * 60 * US,
                           OLD_HW + np.arange(1, 48) * HOUR)}
    return {"partition": (old, new), "hot": (hot_old, hot_new)}


def _stored(rows: dict, tier) -> pa.Table:
    return rollup.observed_tier_tables(_series(rows), [tier], OLD_HW)[
        tier.name]


def _assert_bits_equal(gt, et):
    assert gt.schema.equals(et.schema, check_metadata=True)
    assert gt.num_rows == et.num_rows
    for name in gt.column_names:
        a, b = gt.column(name), et.column(name)
        if pa.types.is_floating(a.type):
            a = a.to_numpy(zero_copy_only=False).view(np.uint64)
            b = b.to_numpy(zero_copy_only=False).view(np.uint64)
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            assert a.to_pylist() == b.to_pylist(), name


@pytest.mark.parametrize("tier", rollup.DEFAULT_TIERS,
                         ids=[t.name for t in rollup.DEFAULT_TIERS])
@pytest.mark.parametrize("case", ["partition", "hot", "old_none",
                                  "legacy"])
def test_append_merge_equals_pandas_merge(cases, tier, case):
    proc = inc.IncrementProcessor("unused", "t", CONFIG, NEW_HW)
    old_rows, new_rows = cases["hot" if case == "hot" else "partition"]
    old = _stored(old_rows, tier)
    series = _series(new_rows)
    if case == "old_none":
        old = None
    elif case == "legacy":
        # a tier file written before stores kept observed buckets only:
        # the served view, no tier metadata; load drops its fills
        legacy = rollup.serve_tier_table(old).replace_schema_metadata(None)
        assert rollup.tier_meta(legacy) is None
        old = rollup.stored_rows(legacy, tier, OLD_HW)
    got = proc._merge_tier(old, series, tier, NEW_HW)
    exp = pandas_merge_tier(proc, old, series, tier)
    # the served/observed counts it returns are the merged table's
    assert got[1] == rollup.served_counts(got[0])
    _assert_bits_equal(got[0], exp)
    if case == "partition":
        # the cases the fixture plants are really there
        urls = got[0].column("url").to_numpy(zero_copy_only=False)
        stored_a = old.filter(pc.equal(old.column("url"), "a"))
        merged_a = got[0].filter(pc.equal(got[0].column("url"), "a"))
        assert merged_a.num_rows < stored_a.num_rows + _stored(
            {"a": new_rows["a"]}, tier).num_rows     # one bucket combined
        assert (urls == "b").any()
    if case == "partition" and tier.name == "1h":
        c_old = old.filter(pc.equal(old.column("url"), "c"))
        c_new = got[0].filter(pc.equal(got[0].column("url"), "c"))
        assert c_old.num_rows == c_new.num_rows     # only the fills moved


@pytest.mark.parametrize("tier", rollup.DEFAULT_TIERS,
                         ids=[t.name for t in rollup.DEFAULT_TIERS])
def test_append_merge_rejects_out_of_order_bucket(cases, tier):
    proc = inc.IncrementProcessor("unused", "t", CONFIG, NEW_HW)
    old_rows, _ = cases["partition"]
    early = _series({"a": (np.array([OLD_HW - 30 * DAY]),
                           np.array([0.4]))})
    with pytest.raises(ValueError, match="precedes"):
        proc._merge_tier(_stored(old_rows, tier), early, tier, NEW_HW)


STORED_COLUMNS = ["url", "bucket_ts", "count", "sum", "sum_float", "min",
                  "max", "last"]


@pytest.mark.parametrize("tier", rollup.DEFAULT_TIERS,
                         ids=[t.name for t in rollup.DEFAULT_TIERS])
def test_stored_layout_round_trips_bit_for_bit(cases, tier, tmp_path):
    """A stored tier holds each bucket once — ``min``/``max``/``last``
    null exactly where ``count == 1``, the sum in exactly one of the
    decimal ``sum`` and ``sum_float``, no ``mean`` or ``gapfilled`` —
    and ``table_rolled`` of its Parquet file gives back the rollup_flat
    arrays it was written from, bit for bit: a fresh tier and one an
    increment merged a boundary bucket into."""
    from nrt_ray.state import manifest
    proc = inc.IncrementProcessor("unused", "t", CONFIG, NEW_HW)
    old_rows, new_rows = cases["partition"]
    (_, fresh, urls, _), = rollup.observed_rolled(_series(old_rows),
                                                  [tier], OLD_HW)
    old = _stored(old_rows, tier)
    merged_tbl, _, (merged, dictionary, _) = proc._merge_tier(
        old, _series(new_rows), tier, NEW_HW)
    seen = set()                        # single- and multi-observation
    for i, (stored, want, wurls) in enumerate(
            ((old, fresh, urls), (merged_tbl, merged, dictionary))):
        assert stored.column_names == STORED_COLUMNS
        single = want["count"] == 1
        seen |= set(single.tolist())
        for k in ("min", "max", "last"):
            np.testing.assert_array_equal(
                stored.column(k).is_null().to_numpy(zero_copy_only=False),
                single, err_msg=k)
        np.testing.assert_array_equal(
            stored.column("sum").is_null().to_numpy(zero_copy_only=False),
            stored.column("sum_float").is_valid().to_numpy(
                zero_copy_only=False))
        assert int(stored.schema.metadata[rollup.SUM_SCALE]) in range(23)
        manifest.write_partition_table(str(tmp_path), "rollup", i, stored)
        got, gurls = rollup.table_rolled(pq.read_table(
            os.path.join(manifest.partition_dir(str(tmp_path), "rollup", i),
                         "part.parquet")))
        assert gurls.take(pa.array(got["series_idx"])).to_pylist() \
            == wurls.take(pa.array(want["series_idx"])).to_pylist()
        for k in ("bucket_ts", "count", "sum", "mean", "min", "max",
                  "last"):
            assert got[k].dtype == want[k].dtype, k
            np.testing.assert_array_equal(
                got[k].view(np.uint64) if got[k].dtype == np.float64
                else got[k], want[k].view(np.uint64)
                if want[k].dtype == np.float64 else want[k], err_msg=k)
    # both kinds of bucket, the merged boundary bucket and (1h) a
    # retention anchor are there
    assert seen == {True, False}
    w = tier.width_us
    a = merged_tbl.filter(pc.equal(merged_tbl.column("url"), "a"))
    boundary = a.filter(pc.equal(a.column("bucket_ts").cast(pa.int64()),
                                 OLD_HW // w * w))
    assert boundary.column("count")[0].as_py() >= 2
    start = rollup.window_start(w, tier.retention_us, NEW_HW)
    assert (start is None) == (tier.retention_us is None)
    if start is not None:
        assert (merged["bucket_ts"] < start).any()
