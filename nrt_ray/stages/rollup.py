"""Tiered continuous aggregates (rollup + downsample + retention + gap-fill).

New surface relative to the reference (which has no rollup operators — the
north rule pins these semantics; the bit-for-bit oracle is the pure-NumPy
implementation in ``tests/test_rollup.py``):

* A *tier* is a fixed bucket width (default 1h / 1d / 1w).  Buckets are
  epoch-aligned: ``bucket_ts = floor(ts_us / width_us) · width_us`` — the
  same arithmetic is SQL-expressible for the DuckDB oracle.
* Per ``(url, bucket)``: ``count, mean, min, max, last`` over the *finite*
  observed values (NaN signal = masked observation, like the reference's
  cloud-masked NaNs).
* *Gap-fill*: empty buckets strictly between two observed buckets of the
  same url get ``count = 0, gapfilled = true`` and a linearly interpolated
  ``mean`` (on the bucket index axis); ``min/max/last`` are null.
* *Retention*: per tier, buckets whose end falls more than ``retention``
  before the dataset's high-water mark are dropped after being rolled
  into coarser tiers (:func:`window_start` holds the rule).
* *Stored vs served*: a store persists only the observed buckets plus
  each series' retention anchor (:func:`observed_tier_tables`), each
  once (:func:`stored_tier_table`, read back by :func:`table_rolled`);
  gap-fill and retention run when a tier is read
  (:func:`serve_tier_table`), the retention at the store's committed
  mark.
  :func:`rollup_series_table` is the two halves composed — the served
  view, unchanged bit for bit.

Everything is vectorized over the whole series batch at once (no per-url
Python loop): buckets are computed on the flattened list values and reduced
with ``np.add.reduceat``-style segment reductions over run boundaries.

Each tier reduces the RAW flat values rather than cascading from the next
finer tier (1h→1d→1w).  A cascade would make the coarse tiers
O(fine-buckets) instead of O(N), but it changes float summation order —
sum-of-hourly-sums ≠ sum-in-time-order in the last ulp — breaking the
bit-for-bit tier oracle.  The per-tier reduceat passes are a small
fraction of partition cost (the shuffle dominates), so exactness wins;
at 100 TB the trade-off stays the same because each partition still
holds only its own key range.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nrt_ray.util import full as nrfull

US = 1_000_000
TIER_WIDTH_US = {"1h": 3600 * US, "1d": 86400 * US, "1w": 7 * 86400 * US}


def rollup_flat(series_idx: np.ndarray, ts_us: np.ndarray,
                value: np.ndarray, width_us: int):
    """Segment-reduce flattened per-series observations into tier buckets.

    Args:
        series_idx: ``(N,)`` int — which series each flat element belongs
            to; elements of one series are contiguous and time-sorted.
        ts_us: ``(N,)`` int64 epoch-microsecond timestamps.
        value: ``(N,)`` float64 signal (NaN = masked).

    Returns:
        dict of 1-D arrays: ``series_idx, bucket_ts, count, sum, mean,
        min, max, last`` — one row per non-empty (series, bucket).
    """
    finite = np.isfinite(value)
    v = value[finite]
    # each observation is a one-observation row: regroup reduces them
    return regroup({"series_idx": series_idx[finite].astype(np.int64),
                    "bucket_ts": ts_us[finite],
                    "count": np.ones(len(v), np.int32),
                    "sum": v, "min": v, "max": v, "last": v}, width_us)


def regroup(rolled: dict, width_us: int) -> dict:
    """Merge the rows of ``rolled`` (series-contiguous, time-sorted) that
    share a series and a ``width_us`` bucket: ``count`` and ``sum`` add
    in row order, extrema reduce, ``last`` is the last row's, ``mean`` is
    ``sum / count``.  Rows are raw observations, a finer tier's buckets
    or an increment's boundary bucket."""
    sidx = rolled["series_idx"]
    bucket = (rolled["bucket_ts"] // width_us) * width_us
    if not len(sidx):
        return dict(rolled, bucket_ts=bucket,
                    mean=rolled["sum"] / rolled["count"])
    # run boundaries: new series or new bucket (both monotone within series)
    starts = np.flatnonzero(np.r_[True, (sidx[1:] != sidx[:-1])
                                  | (bucket[1:] != bucket[:-1])])
    ends = np.r_[starts[1:], len(bucket)]
    count = np.add.reduceat(rolled["count"], starts).astype(np.int32)
    sums = np.add.reduceat(rolled["sum"], starts)
    return {
        "series_idx": sidx[starts],
        "bucket_ts": bucket[starts],
        "count": count,
        "sum": sums,
        "mean": sums / count,
        "min": np.minimum.reduceat(rolled["min"], starts),
        "max": np.maximum.reduceat(rolled["max"], starts),
        "last": rolled["last"][ends - 1],
    }


def _gap_lengths(sidx: np.ndarray, bts: np.ndarray, width_us: int,
                 max_gap: int | None) -> np.ndarray:
    """Buckets filled between each row and the next (``len − 1``
    values): the empty buckets between two rows of one series, 0 across
    series and for gaps longer than ``max_gap``.  Points closer than one
    width (an unaligned served view) miss none."""
    nmiss = np.where(sidx[1:] == sidx[:-1],
                     np.maximum((bts[1:] - bts[:-1]) // width_us - 1, 0), 0)
    if max_gap is not None:
        nmiss = np.where(nmiss > max_gap, 0, nmiss)
    return nmiss


def gapfill_linear(rolled: dict, width_us: int, max_gap: int | None = None):
    """Insert linearly interpolated rows for empty buckets between observed
    buckets of the same series.

    Args:
        rolled: output of :func:`rollup_flat` (rows sorted by
            (series_idx, bucket_ts), which rollup_flat guarantees).
        max_gap: optional cap — gaps with more than this many missing
            buckets are left unfilled (sparsity guard for fine tiers).

    Returns:
        same dict layout plus a ``gapfilled`` bool column, rows re-sorted by
        (series_idx, bucket_ts); filled rows have count=0 and NaN
        min/max/last.
    """
    sidx, bts = rolled["series_idx"], rolled["bucket_ts"]
    n = len(sidx)
    if n == 0:
        out = {k: v.copy() for k, v in rolled.items()}
        out["gapfilled"] = np.array([], dtype=bool)
        return out
    nmiss = _gap_lengths(sidx, bts, width_us, max_gap)
    total = int(nmiss.sum())
    if total == 0:
        out = {k: v.copy() for k, v in rolled.items()}
        out["gapfilled"] = np.zeros(n, dtype=bool)
        return out

    gap_src = np.repeat(np.arange(n - 1), nmiss)  # left neighbour index
    # position of each filled bucket inside its gap: 1..nmiss
    step = np.arange(total) - np.repeat(np.cumsum(nmiss) - nmiss, nmiss) + 1
    fill_ts = bts[gap_src] + step * width_us
    frac = step / (nmiss[gap_src] + 1)
    fill_mean = (rolled["mean"][gap_src] * (1 - frac)
                 + rolled["mean"][gap_src + 1] * frac)

    # scatter-merge instead of concat + lexsort: originals keep their
    # relative order and each gap's fills land right after their left
    # anchor, so the output is (series, bucket)-sorted BY CONSTRUCTION
    # (identical to the former lexsort result — keys never collide)
    orig_pos = np.arange(n)
    orig_pos[1:] += np.cumsum(nmiss)
    fill_pos = orig_pos[gap_src] + step
    m = n + total

    def merge(a, fill):
        out = np.empty(m, a.dtype)
        out[orig_pos] = a
        out[fill_pos] = fill
        return out

    gapfilled = np.zeros(m, bool)
    gapfilled[fill_pos] = True
    nanfill = nrfull(total, np.nan)
    out = {"series_idx": merge(sidx, sidx[gap_src]),
           "bucket_ts": merge(bts, fill_ts),
           "mean": merge(rolled["mean"], fill_mean)}
    # any other statistic present (the segment read path carries none):
    # count 0, the rest NaN
    for k, v in rolled.items():
        if k not in out:
            out[k] = merge(v, np.zeros(total, v.dtype) if k == "count"
                           else nanfill)
    out["gapfilled"] = gapfilled
    return out


def window_start(width_us: int, retention_us: int | None,
                 high_water_us: int) -> int | None:
    """The retention window rule, the one place it lives: the first
    bucket a tier serves at mark ``high_water_us`` — the bucket holding
    ``high_water − retention``, so every bucket that ends after it is
    served.  None for a tier that keeps every bucket."""
    if retention_us is None:
        return None
    return (high_water_us - retention_us) // width_us * width_us


def apply_retention(rolled: dict, width_us: int, retention_us: int | None,
                    high_water_us: int):
    """Drop buckets before the :func:`window_start` at ``high_water``."""
    start = window_start(width_us, retention_us, high_water_us)
    if start is None:
        return rolled
    keep = rolled["bucket_ts"] >= start
    return {k: v[keep] for k, v in rolled.items()}


def trim_for_retention(rolled: dict, width_us: int,
                       retention_us: int | None, high_water_us: int):
    """Pre-gapfill retention trim: drop observed buckets outside the
    retention window EXCEPT each series' last bucket before the window
    (the left interpolation anchor), so gap-fill inside the window is
    bit-identical to gap-filling the full history first — without
    materializing millions of fill rows that retention would discard.
    """
    start = window_start(width_us, retention_us, high_water_us)
    if start is None:
        return rolled
    in_window = rolled["bucket_ts"] >= start
    sidx = rolled["series_idx"]
    # a bucket is the left anchor iff it is out-of-window and its successor
    # within the same series is in-window (rows are series/bucket sorted)
    succ_in = np.r_[in_window[1:], False]
    same = np.r_[sidx[1:] == sidx[:-1], False]
    keep = in_window | (~in_window & same & succ_in)
    return {k: v[keep] for k, v in rolled.items()}


class TierSpec:
    """One rollup tier: name, bucket width, gap-fill + retention policy."""

    def __init__(self, name: str, width_us: int | None = None,
                 gapfill: bool = True, max_gap: int | None = None,
                 retention_us: int | None = None):
        self.name = name
        self.width_us = width_us or TIER_WIDTH_US[name]
        self.gapfill = gapfill
        self.max_gap = max_gap
        self.retention_us = retention_us

    @property
    def fill_gap(self) -> int | None:
        """``max_gap`` as :func:`gapfill_linear` takes it: 0 fills
        nothing, so a ``gapfill=False`` tier runs the same code path."""
        return self.max_gap if self.gapfill else 0

    def to_dict(self) -> dict:
        return {"name": self.name, "width_us": self.width_us,
                "gapfill": self.gapfill, "max_gap": self.max_gap,
                "retention_us": self.retention_us}

    def __repr__(self):
        return (f"TierSpec({self.name}, width={self.width_us}, "
                f"gapfill={self.gapfill}, max_gap={self.max_gap}, "
                f"retention={self.retention_us})")


DEFAULT_TIERS = (
    # fine tier: short retention + bounded gap-fill (sparsity guard)
    TierSpec("1h", retention_us=90 * 86400 * US, max_gap=24 * 7),
    TierSpec("1d"),
    TierSpec("1w"),
)

#: schema-metadata key of a stored tier table: its TierSpec plus the
#: high-water mark its retention was trimmed at — everything
#: :func:`serve_tier_table` needs, so a tier file serves on its own
TIER_META = b"nrt_ray.tier"


def tier_meta(table: pa.Table, high_water_us: int | None = None):
    """``(TierSpec, mark)`` of a stored tier table, or None for a table
    that carries no tier metadata (a served view, or a tier file written
    before stores kept observed buckets only).  The mark is
    ``high_water_us`` when given (a reader's store mark), else the one
    the file was trimmed at."""
    raw = (table.schema.metadata or {}).get(TIER_META)
    if raw is None:
        return None
    d = json.loads(raw)
    hw = d.pop("high_water_us")
    return TierSpec(**d), hw if high_water_us is None else high_water_us


def tag_tier(table: pa.Table, tier: TierSpec,
             high_water_us: int | None) -> pa.Table:
    """Attach the tier metadata :func:`tier_meta` reads back."""
    return table.replace_schema_metadata({TIER_META: json.dumps(
        dict(tier.to_dict(), high_water_us=high_water_us))})


def tier_table(rolled: dict, urls) -> pa.Table:
    """A served view from a ``rolled`` dict; ``urls[i]`` is series
    ``i``'s url.  Rows without a ``gapfilled`` flag are observed.  Stores
    write :func:`stored_tier_table` instead."""
    gapfilled = rolled.get("gapfilled")
    if gapfilled is None:
        gapfilled = np.zeros(len(rolled["bucket_ts"]), bool)
    return pa.table({
        "url": urls.take(pa.array(rolled["series_idx"])),
        "bucket_ts": pa.array(rolled["bucket_ts"],
                              pa.int64()).cast(pa.timestamp("us")),
        "count": pa.array(rolled["count"], pa.int32()),
        "sum": pa.array(rolled["sum"], pa.float64(), from_pandas=True),
        "mean": pa.array(rolled["mean"], pa.float64()),
        "min": pa.array(rolled["min"], pa.float64(), from_pandas=True),
        "max": pa.array(rolled["max"], pa.float64(), from_pandas=True),
        "last": pa.array(rolled["last"], pa.float64(), from_pandas=True),
        "gapfilled": pa.array(gapfilled, pa.bool_()),
    })


def stored_tier_table(rolled: dict, urls, tier: TierSpec,
                      high_water_us: int | None) -> pa.Table:
    """The stored layout of a tier's observed rows, tagged with ``tier``
    at mark ``high_water_us``: ``url, bucket_ts, count, sum, min, max,
    last``, ``min``/``max``/``last`` null exactly where ``count == 1``
    (they equal ``sum`` there); no ``mean``, no ``gapfilled``."""
    once = rolled["count"] == 1
    return tag_tier(pa.table({
        "url": urls.take(pa.array(rolled["series_idx"])),
        "bucket_ts": pa.array(rolled["bucket_ts"],
                              pa.int64()).cast(pa.timestamp("us")),
        "count": pa.array(rolled["count"], pa.int32()),
        "sum": pa.array(rolled["sum"], pa.float64()),
        **{k: pa.array(rolled[k], pa.float64(), mask=once)
           for k in ("min", "max", "last")},
    }), tier, high_water_us)


def table_rolled(table: pa.Table):
    """``(rolled dict, per-series url array)`` of a (url, bucket_ts)-sorted
    tier table: stored (:func:`stored_tier_table`, or the earlier layout
    with ``mean`` and ``gapfilled``) or served.  Null ``min``/``max``/
    ``last`` are filled from ``sum``, ``mean`` is ``sum / count`` unless
    stored.  A stored row with a null ``count`` or ``sum``, or a null
    extremum or ``last`` where ``count != 1``, raises ValueError."""
    urls = table.column("url").combine_chunks()
    n = len(urls)
    first = np.ones(n, bool)
    if n > 1:
        first[1:] = pc.not_equal(urls.slice(1), urls.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
    rolled = {"series_idx": np.cumsum(first) - 1,
              "bucket_ts": np.asarray(table.column("bucket_ts")
                                      .cast(pa.int64())
                                      .to_numpy(zero_copy_only=False))}
    meta = tier_meta(table)
    for k in ("count", "sum", "mean", "min", "max", "last"):
        if k not in table.column_names:
            continue
        col = table.column(k)
        bad = col.null_count
        if bad and k in ("min", "max", "last"):
            bad = pc.any(pc.and_(pc.is_null(col), pc.not_equal(
                table.column("count"), 1))).as_py()
            col = pc.coalesce(col, table.column("sum"))
        if bad and meta is not None:
            raise ValueError(f"tier {meta[0].name}: a stored row holds a "
                             f"null {k!r}")
        rolled[k] = col.to_numpy(zero_copy_only=False)
    if "mean" not in rolled:
        rolled["mean"] = rolled["sum"] / rolled["count"]
    return rolled, urls.filter(pa.array(first))


def served_runs(rolled: dict, tier: TierSpec, high_water_us: int | None):
    """The buckets :func:`gapfill_linear` + :func:`apply_retention`
    serve from each stored row — the row's own bucket, then the linear
    fills up to the series' next row — counted from the gap lengths
    without materializing a single fill.

    Returns per-row ``(first_ts, last_ts, count)``; ``count`` 0 marks a
    row that serves nothing (a retention anchor whose fills all fall
    outside the window), and its ``first_ts``/``last_ts`` are then
    meaningless."""
    sidx, bts = rolled["series_idx"], rolled["bucket_ts"]
    w = tier.width_us
    nmiss = np.zeros(len(bts), np.int64)
    nmiss[:-1] = _gap_lengths(sidx, bts, w, tier.fill_gap)
    last = bts + nmiss * w
    start = window_start(w, tier.retention_us, high_water_us)
    if start is None:
        return bts, last, nmiss + 1
    # positions j = 0..nmiss sit at bts + j·w; the first served is the
    # first at or after the window start
    skip = np.maximum(-((bts - start) // w), 0)
    return bts + skip * w, last, np.maximum(nmiss + 1 - skip, 0)


def run_totals(bucket_ts: np.ndarray, first: np.ndarray,
               count: np.ndarray) -> tuple[int, int]:
    """``(served points, observed buckets among them)`` from the
    :func:`served_runs` of stored rows at ``bucket_ts``: a row's own
    bucket is served iff its run starts there."""
    return (int(count.sum()),
            int(np.count_nonzero((count > 0) & (first == bucket_ts))))


def served_counts(table: pa.Table) -> tuple[int, int]:
    """``(served points, observed buckets among them)`` of a stored tier
    table: what its served view holds, without building it."""
    meta = tier_meta(table)
    if meta is None or not table.num_rows:
        return table.num_rows, table.num_rows
    rolled, _ = table_rolled(table)
    first, _, count = served_runs(rolled, *meta)
    return run_totals(rolled["bucket_ts"], first, count)


def observed_rolled(series: pa.Table, tiers, high_water_us: int | None):
    """Per tier: ``(tier, stored rolled dict, per-series urls, high-water
    mark)`` — observed buckets plus each series' retention anchor (the
    last bucket before the window, :func:`trim_for_retention`)."""
    n = series.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    urls = series.column("url")
    sidx = np.repeat(np.arange(len(n)), n)
    ts_us = np.asarray(series.column("ts").combine_chunks().flatten()
                       .cast(pa.int64()).to_numpy(zero_copy_only=False))
    value = np.asarray(series.column("value").combine_chunks().flatten()
                       .to_numpy(zero_copy_only=False), dtype=np.float64)
    if high_water_us is None:
        high_water_us = int(ts_us.max()) if len(ts_us) else 0
    for tier in tiers:
        rolled = rollup_flat(sidx, ts_us, value, tier.width_us)
        yield tier, trim_for_retention(rolled, tier.width_us,
                                       tier.retention_us, high_water_us), \
            urls, high_water_us


def _served(rolled: dict, tier: TierSpec, high_water_us: int) -> dict:
    """Stored rows → served rows: linear gap-fill, then retention (which
    drops the anchor)."""
    rolled = gapfill_linear(rolled, tier.width_us, tier.fill_gap)
    return apply_retention(rolled, tier.width_us, tier.retention_us,
                           high_water_us)


def observed_tier_tables(series: pa.Table, tiers=DEFAULT_TIERS,
                         high_water_us: int | None = None
                         ) -> dict[str, pa.Table]:
    """The stored half of :func:`rollup_series_table`: per tier, the
    observed buckets plus each series' retention anchor — what the store
    persists.  Each table carries its tier and high-water mark as schema
    metadata; :func:`serve_tier_table` derives the gap-fill from them."""
    return {tier.name: stored_tier_table(rolled, urls, tier, hw)
            for tier, rolled, urls, hw in
            observed_rolled(series, tiers, high_water_us)}


def serve_tier_table(table: pa.Table,
                     high_water_us: int | None = None) -> pa.Table:
    """The read half: a stored tier table's served view — linear gap-fill
    between its observed buckets, then retention (which drops the anchor
    row) at ``high_water_us``, the store's committed mark: it cuts the
    wider window of a file written at an older mark.  With no mark the
    file's own applies, exact for a one-shot store.  A table without
    tier metadata is returned as it is: it already is a served view."""
    meta = tier_meta(table, high_water_us)
    if meta is None:
        return table
    rolled, urls = table_rolled(table)
    return tier_table(_served(rolled, *meta), urls)


def rollup_series_table(series: pa.Table, tiers=DEFAULT_TIERS,
                        high_water_us: int | None = None) -> dict[str, pa.Table]:
    """Roll one assembled series table into every tier's served view.

    Args:
        series: table with ``url, n, ts(list), value(list)`` (output of
            :func:`nrt_ray.stages.assemble.assemble_series`).
        high_water_us: ingest high-water mark for retention; defaults to the
            max observed timestamp in this table.

    Returns:
        ``{tier_name: pa.Table(url, bucket_ts, count, mean, min, max, last,
        gapfilled)}`` — the stored half (:func:`observed_tier_tables`)
        served (:func:`serve_tier_table`) without the Arrow round trip:
        exactly what a store serves.
    """
    return {tier.name: tier_table(_served(rolled, tier, hw), urls)
            for tier, rolled, urls, hw in
            observed_rolled(series, tiers, high_water_us)}


def choose_tier(tiers, t0_us: int, t1_us: int, max_points: int,
                now_us: int | None = None):
    """Resolution-aware tier selection (the Grafana/M3 downsample-read
    rule): return the FINEST tier whose point count over ``[t0, t1)``
    fits the ``max_points`` budget, falling back to the coarsest
    eligible tier when even it overflows.  Ties in width resolve to the
    first listed.

    A tier with a retention policy is only ELIGIBLE when its retained
    window still covers ``t0`` (its :func:`window_start` at ``now_us``,
    normally the run's committed high-water mark): a 90-day 1-hour
    tier cannot serve last year's data no matter how well it fits the
    point budget.  Pass ``now_us=None`` to skip the retention check.

    This is the storage-side query planner for the continuous-aggregate
    tiers: a dashboard asking for ≤ 500 points over a year reads the
    1-week tier and never touches the 1-hour segments.
    """
    if t1_us <= t0_us or max_points <= 0:
        raise ValueError("need t1 > t0 and max_points > 0")

    def eligible(t):
        start = None if now_us is None else \
            window_start(t.width_us, t.retention_us, now_us)
        return start is None or start <= t0_us

    cands = [t for t in tiers if eligible(t)] or list(tiers)
    span = t1_us - t0_us
    fitting = [t for t in cands
               if -(-span // t.width_us) <= max_points]
    if fitting:
        return min(fitting, key=lambda t: t.width_us)
    return max(cands, key=lambda t: t.width_us)
