"""Rollup + gap-fill + retention vs an independent slow oracle.

The oracle here is deliberately written row-at-a-time with dicts (a second,
independent implementation of the pinned semantics) and the vectorized
engine must match it bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from nrt_ray.stages import assemble, rollup

US = 1_000_000
HOUR = 3600 * US


def slow_rollup_oracle(urls, ts_us, values, width_us, gapfill=True,
                       max_gap=None):
    """Independent per-row implementation of the tier semantics."""
    per_url: dict[str, dict[int, list]] = {}
    for u, t, v in sorted(zip(urls, ts_us, values),
                          key=lambda r: (r[0], r[1])):
        if not np.isfinite(v):
            continue
        b = (t // width_us) * width_us
        per_url.setdefault(u, {}).setdefault(b, []).append(v)
    rows = []
    for u in sorted(per_url):
        buckets = sorted(per_url[u])
        observed = {}
        for b in buckets:
            vs = per_url[u][b]
            observed[b] = dict(url=u, bucket_ts=b, count=len(vs),
                               mean=sum(vs) / len(vs), min=min(vs),
                               max=max(vs), last=vs[-1], gapfilled=False)
        out = []
        for i, b in enumerate(buckets):
            out.append(observed[b])
            if gapfill and i + 1 < len(buckets):
                nb = buckets[i + 1]
                nmiss = (nb - b) // width_us - 1
                if max_gap is not None and nmiss > max_gap:
                    continue
                for s in range(1, nmiss + 1):
                    frac = s / (nmiss + 1)
                    out.append(dict(
                        url=u, bucket_ts=b + s * width_us, count=0,
                        mean=observed[b]["mean"] * (1 - frac)
                        + observed[nb]["mean"] * frac,
                        min=None, max=None, last=None, gapfilled=True))
        rows.extend(sorted(out, key=lambda r: r["bucket_ts"]))
    return rows


@pytest.fixture(scope="module")
def random_flat():
    rng = np.random.default_rng(11)
    n = 4000
    urls = rng.choice([f"u{i}" for i in range(37)], n)
    ts = rng.integers(0, 40 * 86400, n) * US
    values = rng.normal(0.5, 0.3, n)
    values[rng.random(n) < 0.08] = np.nan
    # force exact duplicates away (dedup tested elsewhere)
    ts = ts + np.arange(n)
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(values, pa.float64()),
        "days": pa.array(ts // 86_400_000_000, pa.int32()),
        "dyear": pa.array(np.full(n, 2018.5), pa.float64()),
    })
    return urls, ts, values, assemble.assemble_series(t)


@pytest.mark.parametrize("tier_kw", [
    dict(name="1h", gapfill=True),
    dict(name="1d", gapfill=True),
    dict(name="1w", gapfill=False),
    dict(name="1h", gapfill=True, max_gap=3),
])
def test_rollup_matches_oracle(random_flat, tier_kw):
    urls, ts, values, series = random_flat
    tier = rollup.TierSpec(**tier_kw)
    got = rollup.rollup_series_table(series, tiers=[tier])[tier.name]
    expected = slow_rollup_oracle(urls, ts, values, tier.width_us,
                                  gapfill=tier.gapfill, max_gap=tier.max_gap)
    assert got.num_rows == len(expected)
    g = got.to_pylist()
    for got_row, exp_row in zip(g, expected):
        assert got_row["url"] == exp_row["url"]
        assert int(got_row["bucket_ts"].timestamp() * US) == \
            exp_row["bucket_ts"]
        assert got_row["count"] == exp_row["count"]
        assert got_row["gapfilled"] == exp_row["gapfilled"]
        # bit-for-bit float equality (same reduction order)
        for k in ("min", "max", "last"):
            assert got_row[k] == exp_row[k]
        assert got_row["mean"] == pytest.approx(exp_row["mean"], rel=1e-12)


def test_retention_drops_old_buckets(random_flat):
    urls, ts, values, series = random_flat
    retention = 10 * 86400 * US
    tier = rollup.TierSpec("1d", gapfill=False, retention_us=retention)
    got = rollup.rollup_series_table(series, tiers=[tier])["1d"]
    ts_col = got.column("bucket_ts").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    full = rollup.rollup_series_table(
        series, tiers=[rollup.TierSpec("1d", gapfill=False)])["1d"]
    hw = int(ts.max())  # dataset high-water mark = max raw timestamp
    assert got.num_rows < full.num_rows
    # every kept bucket overlaps the retention window, none beyond it
    assert np.all(ts_col + 86400 * US > hw - retention)
    dropped = full.num_rows - got.num_rows
    assert dropped > 0


def test_gapfill_linear_values():
    """A 3-bucket gap is filled with exact linear interpolation."""
    t = pa.table({
        "url": pa.array(["x", "x"], pa.string()),
        "warc_ts": pa.array([0, 4 * HOUR], pa.int64()).cast(
            pa.timestamp("us")),
        "value": pa.array([1.0, 9.0], pa.float64()),
        "days": pa.array([0, 0], pa.int32()),
        "dyear": pa.array([2018.0, 2018.0], pa.float64()),
    })
    series = assemble.assemble_series(t)
    got = rollup.rollup_series_table(
        series, tiers=[rollup.TierSpec("1h")])["1h"]
    assert got.num_rows == 5
    means = got.column("mean").to_pylist()
    np.testing.assert_allclose(means, [1.0, 3.0, 5.0, 7.0, 9.0])
    assert got.column("gapfilled").to_pylist() == [False, True, True, True,
                                                   False]
    assert got.column("count").to_pylist() == [1, 0, 0, 0, 1]


def test_choose_tier_resolution_rule():
    import pytest

    from nrt_ray.stages.rollup import TierSpec, choose_tier
    US = 1_000_000
    tiers = [TierSpec("1h"), TierSpec("1d"),
             TierSpec("1w", retention_us=None)]
    day = 86400 * US
    # 30 days at <=800 points: 1h gives 720 -> finest fitting is 1h
    assert choose_tier(tiers, 0, 30 * day, 800).name == "1h"
    # 30 days at <=100 points: 1h=720, 1d=30 -> 1d
    assert choose_tier(tiers, 0, 30 * day, 100).name == "1d"
    # 2 years at <=100 points: 1d=730 no, 1w=105 no -> coarsest wins
    assert choose_tier(tiers, 0, 730 * day, 100).name == "1w"
    # 2 years at <=110 points: 1w=105 fits
    assert choose_tier(tiers, 0, 730 * day, 110).name == "1w"
    # ceil rounding: 25h span at 1h tier = 25 points, budget 24 -> 1d
    assert choose_tier(tiers, 0, 25 * 3600 * US, 24).name == "1d"
    with pytest.raises(ValueError):
        choose_tier(tiers, 10, 10, 5)
    # retention: a 90-day 1h tier cannot serve a year-old window even
    # when it fits the budget — the next eligible tier wins
    now = 1000 * day
    rt = [TierSpec("1h", retention_us=90 * day), TierSpec("1d"),
          TierSpec("1w")]
    old0, old1 = now - 400 * day, now - 399 * day
    assert choose_tier(rt, old0, old1, 10_000, now_us=now).name == "1d"
    # recent window: 1h eligible again
    assert choose_tier(rt, now - day, now, 10_000,
                       now_us=now).name == "1h"


# -- stored observed buckets, gap-fill derived on read ----------------------

DAY = 86400 * US


def _fill_on_read_series():
    """Urls placed around the default 1h tier's retention boundary
    (90 days) and its fill cap (168 missing buckets):

    * ``a``: anchor before the window, fills crossing the cutoff, a
      10-day gap (> max_gap) inside the window, then dense hourly points
      with short gaps (these cross chunk boundaries at small chunk sizes);
    * ``b``: anchor before the window whose next observation is 6 days
      later: the window opens on fills after the anchor (at
      ``max_points=1`` its first chunk serves nothing but those fills);
    * ``c``: anchor whose gap to the next observation exceeds max_gap, so
      it serves nothing;
    * ``d``: entirely before the window (no 1h rows at all)."""
    hw = 400 * DAY
    obs = {
        "a": [hw - 100 * DAY, hw - 91 * DAY, hw - 89 * DAY - 5 * HOUR]
        + [hw - 80 * DAY + k * HOUR for k in range(0, 30, 3)]
        + [hw - 70 * DAY + k * HOUR for k in range(40) if k % 7]
        + [hw],
        "b": [hw - 91 * DAY - 3 * HOUR, hw - 85 * DAY],
        "c": [hw - 92 * DAY, hw - 80 * DAY, hw - 79 * DAY],
        "d": [hw - 300 * DAY, hw - 200 * DAY],
    }
    urls, ts = [], []
    for u, t in obs.items():
        urls += [u] * len(t)
        ts += t
    ts = np.asarray(ts, np.int64)
    vals = np.sin(ts / (7 * HOUR)) + 0.01 * (ts // HOUR % 13)
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(vals, pa.float64()),
        "days": pa.array(ts // DAY, pa.int32()),
        "dyear": pa.array(np.full(len(ts), 2018.5), pa.float64()),
    })
    return assemble.assemble_series(t)


def _sorted_points(t: pa.Table) -> pa.Table:
    return t.take(pa.compute.sort_indices(t, sort_keys=[
        ("url", "ascending"), ("bucket_ts", "ascending")]))


@pytest.mark.parametrize("max_points", [1, 8, 4096])
@pytest.mark.parametrize("tier", rollup.DEFAULT_TIERS,
                         ids=lambda t: t.name)
def test_fill_on_read_matches_rollup_series_table(tmp_path, tier,
                                                  max_points):
    """Stored tiers hold observed buckets only; the read view and the
    decoded segments serve exactly rollup_series_table's rows."""
    from nrt_ray.pipelines.monitor_pipeline import read_output_table
    from nrt_ray.stages import compress
    from nrt_ray.state import manifest

    series = _fill_on_read_series()
    want = rollup.rollup_series_table(series, tiers=[tier])[tier.name]
    stored = rollup.observed_tier_tables(series, tiers=[tier])[tier.name]
    assert stored.num_rows < want.num_rows            # fills not stored
    rolled, _ = rollup.table_rolled(stored)
    assert (rolled["count"] > 0).all()                # no fill row stored
    assert "gapfilled" not in stored.column_names
    gf = want.column("gapfilled").to_numpy(zero_copy_only=False)
    assert rollup.served_counts(stored) == (want.num_rows, int((~gf).sum()))

    manifest.persist_partition(str(tmp_path), "test", 0,
                               {f"rollup_{tier.name}": stored}, {})
    view = read_output_table(str(tmp_path), f"rollup_{tier.name}")
    assert view.equals(want)

    seg = compress.segments_from_rollups({tier.name: stored},
                                         max_points=max_points)
    assert seg.column("n_points").to_numpy().sum() == want.num_rows
    for i in range(seg.num_rows):
        assert compress.decode_segments_table(seg.slice(i, 1)).num_rows \
            == seg.column("n_points")[i].as_py()
    dec = _sorted_points(compress.decode_segments_table(seg,
                                                        tier=tier.name))
    assert dec.column("url").equals(want.column("url"))
    assert dec.column("bucket_ts").equals(want.column("bucket_ts"))
    np.testing.assert_array_equal(
        dec.column("mean").to_numpy().view(np.uint64),
        want.column("mean").to_numpy().view(np.uint64))
    # a url's chunks tile its served span, so range pruning stays exact
    lo = seg.column("seg_start").cast(pa.int64()).to_numpy()
    hi = seg.column("seg_end").cast(pa.int64()).to_numpy()
    same = np.asarray(seg.column("url").to_pylist())
    same = same[1:] == same[:-1]
    assert np.all(lo <= hi) and np.all(hi[:-1][same] < lo[1:][same])
    if tier.name == "1h" and max_points == 8:
        # some gap crosses a chunk boundary: that chunk's payload ends on
        # the next chunk's first row, past its own served span
        ends = [compress.decode_dod(p)[-1] for p in
                seg.column("payload_ts").to_pylist()]
        assert np.any(np.asarray(ends) > hi)
    bts = want.column("bucket_ts").cast(pa.int64()).to_numpy()
    for t0, t1 in ((bts[3], bts[-5]), (bts[len(bts) // 2] + 1, bts[-1])):
        rng_dec = _sorted_points(compress.decode_segments_table(
            seg, tier=tier.name, t0_us=int(t0), t1_us=int(t1)))
        assert rng_dec.equals(dec.filter(pa.compute.and_(
            pa.compute.greater_equal(dec.column("bucket_ts").cast(
                pa.int64()), int(t0)),
            pa.compute.less(dec.column("bucket_ts").cast(pa.int64()),
                            int(t1)))))


def test_fill_on_read_cases_are_present():
    """The fixture really exercises the boundary cases it names."""
    series = _fill_on_read_series()
    h = rollup.DEFAULT_TIERS[0]
    stored = rollup.tier_table(*rollup.table_rolled(
        rollup.observed_tier_tables(series, tiers=[h])["1h"]))
    served = rollup.rollup_series_table(series, tiers=[h])["1h"]
    hw = 400 * DAY
    lo = hw - h.retention_us - h.width_us
    by = {}
    for t in (stored, served):
        for r in t.select(["url", "bucket_ts", "gapfilled"]).to_pylist():
            by.setdefault((id(t), r["url"]), []).append(
                (int(r["bucket_ts"].timestamp() * US), r["gapfilled"]))
    # every url but d stores one anchor before the window, never served
    for u in "abc":
        assert sum(b <= lo for b, _ in by[(id(stored), u)]) == 1
        assert all(b > lo for b, _ in by[(id(served), u)])
    assert (id(stored), "d") not in by and (id(served), "d") not in by
    # b's window opens on fills; c's anchor is past the fill cap
    assert by[(id(served), "b")][0][1]
    assert by[(id(served), "c")][0] == (hw - 80 * DAY, False)
    # a has an unfilled gap longer than max_gap inside the window
    a = [b for b, _ in by[(id(served), "a")]]
    assert max(np.diff(a)) > (h.max_gap + 1) * h.width_us


def test_table_rolled_rejects_nulls_the_layout_does_not_allow():
    """A null ``min``/``max``/``last`` stands for ``sum`` only where
    ``count == 1``; any other null in a stored tier raises, naming the
    tier.  A served view (no tier metadata) holds nulls in its fills."""
    tier = rollup.TierSpec("1d")
    rolled = {"series_idx": np.array([0, 0, 1]),
              "bucket_ts": np.array([0, 3 * DAY, 0]),
              "count": np.array([1, 2, 1], np.int32),
              "sum": np.array([0.5, 1.5, -2.0]),
              "min": np.array([0.5, 0.25, -2.0]),
              "max": np.array([0.5, 1.25, -2.0]),
              "last": np.array([0.5, 1.25, -2.0])}
    stored = rollup.stored_tier_table(rolled, pa.array(["a", "b"]), tier, 0)
    assert stored.column("min").to_pylist() == [None, 0.25, None]
    got, _ = rollup.table_rolled(stored)
    assert got["min"].tolist() == [0.5, 0.25, -2.0]
    assert got["mean"].tolist() == [0.5, 0.75, -2.0]
    for col, row in (("count", 0), ("sum", 2), ("min", 1), ("last", 1)):
        vals = stored.column(col).to_pylist()
        vals[row] = None
        bad = stored.set_column(stored.column_names.index(col), col,
                                pa.array(vals, stored.column(col).type))
        with pytest.raises(ValueError, match=f"tier 1d: .* null '{col}'"):
            rollup.table_rolled(bad)
    served = rollup.serve_tier_table(stored)
    assert served.column("sum").null_count == 2       # the two fills
    assert rollup.table_rolled(served)[0]["count"].tolist() == \
        [1, 0, 0, 2, 1]
