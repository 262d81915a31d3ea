"""Seeded synthetic inputs for the benchmark workloads.

Everything here depends only on ``(seed, size)``: the same pair always
gives the same crawl table, the same increment micro-batches and the same
serve request list.  The engine sees only the files written here.

The crawl table has three url classes:

* weekly urls (most of the table),
* daily urls (the engine's per-key skew case),
* hourly "hot" urls, each just above the engine's auto-salting floor
  (``AUTO_SALT_MIN_ROWS``), so hot-url detection, time-slice salting
  and ``merge_hot_partitions`` run on every build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

US = 1_000_000
HOUR_US = 3600 * US
DAY_US = 24 * HOUR_US

START = np.datetime64("2019-01-01", "us").astype(np.int64)
END = np.datetime64("2022-06-15", "us").astype(np.int64)
#: share of hourly slots a hot url is crawled in: ~10.9 k rows over
#: [START, END), just above the engine's auto-salting floor
#: (``AUTO_SALT_MIN_ROWS`` = 10 k), so a hot url is the smallest url the
#: engine still salts and holds no more rows than salting needs
HOT_KEEP = 0.36


@dataclass(frozen=True)
class Size:
    weekly: int          # weekly-crawled urls
    daily: int           # daily-crawled urls
    hot: int             # hourly-crawled urls (salted)
    partitions: int      # pinned num_partitions
    batches: int         # increment micro-batches over the holdout
    holdout_days: int    # span of the holdout, split into the batches
    late_frac: float     # share of extra late rows per micro-batch


#: The url mix follows the engine's own generator (``generate_webtext``):
#: ~1% of urls crawled daily, the rest weekly.  At its 2 k-url size
#: (437 k rows, P = 20) a few hot urls at the salting floor would hold
#: ~7% of the rows.  A hot url cannot hold fewer than the floor's 10 k
#: rows, so at this smaller size one hot url keeps the class shares close
#: to that: rows are ~85% weekly, ~6% daily and ~9% hot (the run record
#: keeps ``class_rows``).
_FULL = Size(weekly=640, daily=6, hot=1, partitions=8, batches=4,
             holdout_days=28, late_frac=0.02)
# smoke-test size: one hot url still clears the salting floor
_TOY = Size(weekly=40, daily=3, hot=1, partitions=4, batches=3,
            holdout_days=21, late_frac=0.02)

#: ``{size name: {workload: Size}}``.  ``increment`` and ``serve`` run on
#: half the urls over half the partitions, so a partition file holds about
#: as many urls as a flagship one and their three set-up builds stay
#: short.  The hot url keeps its rows, so it is ~17% of that table and of
#: each micro-batch -- near the ~15% a few floor-sized hot urls would
#: take of a micro-batch at the 2 k-url size.
SIZES = {
    "full": {"flagship": _FULL,
             **dict.fromkeys(("increment", "serve"),
                             replace(_FULL, weekly=300, daily=3,
                                     partitions=4))},
    "toy": dict.fromkeys(("flagship", "increment", "serve"), _TOY),
}

#: input of the warm-up pipeline run once after Ray starts
WARM = replace(_TOY, weekly=6, daily=1, hot=0)


def _text(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Page text with the ``ndvi:<value>`` token the extractor parses
    (``nan`` for masked snapshots), between a few filler words."""
    words = np.array(["crawl", "index", "page", "report", "update", "news"])
    pre = words[rng.integers(0, len(words), len(values))]
    tok = np.where(np.isfinite(values),
                   np.char.mod("%.6f", np.nan_to_num(values)), "nan")
    return np.char.add(np.char.add(pre, " ndvi:"),
                       np.char.add(tok, " archive"))


def crawl_table(seed: int, size: Size) -> pa.Table:
    """The full crawl table ``url, warc_ts, text`` in fetch (shuffled)
    order: seasonal signal + noise + an optional level break + rare
    outliers, with ~10% of weekly/daily snapshots missing."""
    rng = np.random.default_rng(seed)
    urls, ts = [], []
    for cls, n, step, start, keep in (
            ("page", size.weekly, 7 * DAY_US, START, 0.9),
            ("daily", size.daily, DAY_US, START, 0.9),
            ("feed", size.hot, HOUR_US, START, HOT_KEEP)):
        # the url names do not depend on the seed: urls hash to
        # partitions, so a per-seed url set would make partition skew,
        # and with it every timing, vary from seed to seed
        domains = np.random.default_rng(n).zipf(1.4, n) % 97
        for i in range(n):
            t = np.arange(start, END, step, dtype=np.int64)
            # per-url crawl offset inside one step keeps timestamps unique
            t = t + int(rng.integers(0, step // US)) * US
            t = t[(t < END) & (rng.random(len(t)) < keep)]
            host = f"hot{i}" if cls == "feed" else f"d{domains[i]}"
            urls.append(np.full(len(t), f"https://{host}.example.com/"
                                        f"{cls}/{i}", dtype=object))
            ts.append(t)
    lengths = np.array([len(t) for t in ts])
    url = np.concatenate(urls)
    t = np.concatenate(ts)
    per = len(lengths)
    amp = np.repeat(rng.uniform(0.1, 0.35, per), lengths)
    phase = np.repeat(rng.uniform(0, 2 * np.pi, per), lengths)
    noise = np.repeat(rng.uniform(0.02, 0.1, per), lengths)
    brk_at = np.repeat(rng.uniform(START, END, per)
                       * (rng.random(per) < 0.3)
                       + END * (rng.random(per) >= 0.3), lengths)
    dyear = t / (365.2425 * DAY_US)
    value = (0.5 + amp * np.sin(2 * np.pi * dyear + phase)
             + rng.normal(0, 1, len(t)) * noise
             - 0.3 * (t >= brk_at))
    outlier = rng.random(len(t)) < 0.02
    value = value + outlier * rng.uniform(0.3, 0.8, len(t))
    order = rng.permutation(len(t))
    return _table(url[order], t[order], value[order], rng)


#: url path segment of each crawl class
CLASSES = {"weekly": "/page/", "daily": "/daily/", "hot": "/feed/"}


def class_rows(table: pa.Table) -> dict[str, int]:
    """Rows of each crawl class in ``table``."""
    url = table.column("url")
    return {cls: int(pc.sum(pc.cast(pc.match_substring(url, part),
                                    pa.int64())).as_py() or 0)
            for cls, part in CLASSES.items()}


def _table(url, ts, value, rng) -> pa.Table:
    return pa.table({
        "url": pa.array(url, pa.string()),
        "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "text": pa.array(_text(value, rng), pa.string()),
    })


def write(table: pa.Table, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, row_group_size=50_000)
    return path


def split_increment(table: pa.Table, seed: int, size: Size):
    """Split the crawl table at a cut date into a base table and
    ``size.batches`` chronological micro-batches over the holdout.

    Each micro-batch also carries a seeded ``late_frac`` share of extra
    rows timestamped before the cut, which both increment paths must
    dead-letter.  Returns ``(base, batches, on_time)``: ``on_time`` is
    base plus every holdout row, the input a one-shot run must match."""
    rng = np.random.default_rng(seed + 1)
    ts = table.column("warc_ts").cast(pa.int64()).to_numpy()
    cut = END - size.holdout_days * DAY_US
    base = table.filter(pa.array(ts <= cut))
    base_hw = int(ts[ts <= cut].max())
    edges = np.linspace(cut, END, size.batches + 1).astype(np.int64)
    urls = np.unique(table.column("url").to_numpy(zero_copy_only=False))
    batches = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ts > lo) & (ts <= hi)
        part = table.filter(pa.array(sel))
        n_late = max(1, int(round(size.late_frac * part.num_rows)))
        late = _table(rng.choice(urls, n_late),
                      rng.integers(START, base_hw - DAY_US, n_late),
                      rng.normal(0.5, 0.1, n_late), rng)
        batches.append(pa.concat_tables([part, late]))
    return base, batches, table


@dataclass(frozen=True)
class Request:
    url: str
    t0_us: int
    t1_us: int
    tier: str            # tier ``choose_tier`` must pick for the range


#: range widths in days per tier, cycled so every seed asks for the same
#: amount of data; ``choose_tier`` (500-point budget, 90-day 1h retention)
#: must pick the named tier for each
RANGE_DAYS = {"1h": (2, 5, 10, 20), "1d": (60, 120, 240, 480),
              "1w": (520, 700, 900, 1100)}


def serve_requests(table: pa.Table, seed: int, high_water_us: int,
                   n: int = 4096) -> list[Request]:
    """Seeded dashboard requests: a url from the weekly or daily class and
    a range ending at a seeded offset before the high-water mark.  1h
    ranges stay inside the 1h retention; 1d ranges start before it."""
    rng = np.random.default_rng(seed + 2)
    all_urls = np.unique(table.column("url").to_numpy(zero_copy_only=False))
    weekly = [u for u in all_urls if CLASSES["weekly"] in u]
    daily = [u for u in all_urls if CLASSES["daily"] in u]
    out = []
    for i in range(n):
        pool = daily if i % 4 == 0 else weekly
        url = pool[int(rng.integers(0, len(pool)))]
        tier = ("1h", "1d", "1w")[i % 3]
        span = RANGE_DAYS[tier][(i // 3) % 4] * DAY_US
        back = int(rng.integers(100, 300)) if tier == "1d" \
            else int(rng.integers(0, 60))
        t1 = high_water_us - back * DAY_US
        out.append(Request(url, t1 - span, t1, tier))
    return out
