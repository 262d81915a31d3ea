"""Series assembly: flat crawl rows → one list-row per url.

This is the engine's single wide step.  Rows are hash-partitioned on
``url`` into a fixed number of buckets (the partition count is pinned in the
checkpoint manifest so state and new observations stay co-partitioned
across runs), shuffled with one ``groupby(bucket)``, and assembled inside
each bucket fully vectorized:

    sort by (url, warc_ts)  →  exact dedup (url, warc_ts) first-wins
    →  list offsets per url →  series rows
       (url, ts: list<timestamp[us]>, value: list<float64>,
        days: list<int32>, dyear: list<float64>)

The reference has no shuffle at all (dense rasters are already
pixel-aligned); sortedness-in-time — which its fit asserts
(``/root/reference/nrt/monitor/__init__.py:170-171``) — is re-established
here per url after the shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from nrt_ray.util import full as nrfull


def bucket_of(urls, num_buckets: int) -> np.ndarray:
    """Deterministic hash bucket per url (stable across processes and runs —
    pandas' SipHash with the fixed default key), as int32."""
    arr = np.asarray(urls, dtype=object)
    h = pd.util.hash_array(arr, categorize=False)
    return (h % np.uint64(num_buckets)).astype(np.int32)


_SALT_MULT = np.uint64(0x9E3779B97F4A7C15)


def add_bucket_column(batch: pa.Table, num_buckets: int,
                      hot_urls=None, slice_us: int | None = None,
                      merge_route=None) -> pa.Table:
    """Append the partition id column ``pid = hash(url) % P``.

    Hot-url salting (SURVEY §4): rows of urls in ``hot_urls`` are salted by
    time slice — ``pid = mix(hash(url), warc_ts // slice_us) % P`` — so one
    mega-url's rows spread over many partitions instead of melting a single
    reduce task.  Each salt slice holds a contiguous time range; the merge
    phase re-concatenates them (see monitor_pipeline.merge_hot_partitions).

    ``merge_route=(hot_sorted, M)``: the routing of increments and of a
    resumed run on a salted store — rows of a hot url go straight to its
    merge partition ``num_buckets + sorted_rank % M`` (where its
    checkpointed state lives), everything else hashes as usual.
    Mutually exclusive with ``hot_urls`` salting (a run from nothing
    spreads + merges; increments append, resumes rebuild in place).
    """
    urls = batch.column("url").to_pandas().to_numpy(dtype=object)
    pid = bucket_of(urls, num_buckets)
    if merge_route is not None:
        hot_sorted, m_tasks = merge_route
        hot_arr = np.asarray(hot_sorted, dtype=object)
        if len(hot_arr):
            idx = np.searchsorted(hot_arr, urls)
            idxc = np.minimum(idx, len(hot_arr) - 1)
            mask = hot_arr[idxc] == urls
            pid[mask] = (num_buckets
                         + (idxc[mask] % m_tasks)).astype(np.int32)
    if hot_urls:
        mask = np.isin(urls, np.asarray(sorted(hot_urls), dtype=object))
        if mask.any():
            h = pd.util.hash_array(urls[mask], categorize=False)
            ts = batch.column("warc_ts").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)[mask]
            salt = (ts // np.int64(slice_us)).astype(np.uint64)
            with np.errstate(over="ignore"):
                hh = (h ^ (salt * _SALT_MULT)) * _SALT_MULT
            pid[mask] = (hh % np.uint64(num_buckets)).astype(np.int32)
    return batch.append_column("pid", pa.array(pid, pa.int32()))


def flatten_series(series: pa.Table) -> pa.Table:
    """Inverse of :func:`assemble_series`: series rows back to flat rows
    (url, warc_ts, value, days, dyear[, aux...]) — used by the hot-url
    merge phase to re-concatenate time-sliced sub-series."""
    n = series.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    urls = series.column("url").to_pandas().to_numpy(dtype=object)
    cols: dict[str, pa.Array] = {
        "url": pa.array(np.repeat(urls, n), pa.string()),
        "warc_ts": series.column("ts").combine_chunks().flatten(),
    }
    for name in series.column_names:
        if name in ("url", "n", "ts"):
            continue
        cols[name] = series.column(name).combine_chunks().flatten()
    return pa.table(cols)


def assemble_series(batch: pa.Table) -> pa.Table:
    """Assemble all rows of one bucket into per-url series rows.

    Expects columns ``url, warc_ts, value, days, dyear`` (any subset of the
    numeric ones is carried through).  Fully vectorized: one stable lexsort,
    a run-boundary dedup, then zero-copy list construction from offsets.
    """
    if batch.num_rows == 0:
        return _empty_series_table()
    url = batch.column("url").to_pandas().to_numpy(dtype=object)
    ts = batch.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    # stable sort by (url, ts, original order) → first-wins dedup
    codes, uniques = pd.factorize(pd.Series(url), sort=True)
    order = np.lexsort((np.arange(len(url)), ts, codes))
    codes_s, ts_s = codes[order], ts[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (codes_s[1:] != codes_s[:-1]) | (ts_s[1:] != ts_s[:-1])
    keep = order[first]
    codes_k, ts_k = codes_s[first], ts_s[first]

    # list offsets: one run per url code (codes_k is sorted)
    run_starts = np.flatnonzero(np.r_[True, codes_k[1:] != codes_k[:-1]])
    offsets = np.r_[run_starts, len(codes_k)].astype(np.int32)
    url_values = uniques[codes_k[run_starts]]

    cols: dict[str, pa.Array] = {
        "url": pa.array(url_values, pa.string()),
        "n": pa.array(np.diff(offsets).astype(np.int32)),
        "ts": pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(ts_k, pa.int64()).cast(
                pa.timestamp("us"))),
    }
    for name, typ in (("value", pa.float64()), ("days", pa.int32()),
                      ("dyear", pa.float64()), ("aux_green", pa.float64()),
                      ("aux_swir", pa.float64())):
        if name in batch.column_names:
            flat = batch.column(name).to_numpy(zero_copy_only=False)[keep]
            cols[name] = pa.ListArray.from_arrays(pa.array(offsets),
                                                  pa.array(flat, typ))
    return pa.table(cols)


def _empty_series_table() -> pa.Table:
    return pa.table({
        "url": pa.array([], pa.string()),
        "n": pa.array([], pa.int32()),
        "ts": pa.array([], pa.list_(pa.timestamp("us"))),
        "value": pa.array([], pa.list_(pa.float64())),
        "days": pa.array([], pa.list_(pa.int32())),
        "dyear": pa.array([], pa.list_(pa.float64())),
    })


def ragged_row_index(lengths: np.ndarray) -> np.ndarray:
    """Vectorized per-segment position index: [0..l0-1, 0..l1-1, ...]."""
    total = int(lengths.sum())
    if total == 0:
        return np.array([], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def padded_matrices(series: pa.Table):
    """Series rows → dense NaN-padded ``(T, K)`` float64 matrices.

    Returns a dict with ``value`` (T,K), ``days`` (T,K int64, 0-padded),
    ``dyear`` (T,K, NaN-padded), ``length`` (K,), ``url`` (K,) — the
    time-major layout every kernel in :mod:`nrt_ray.kernels` operates on.
    """
    n = series.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    K = len(n)
    T = int(n.max()) if K else 0
    row_idx = ragged_row_index(n)
    col_idx = np.repeat(np.arange(K), n)

    def pad(flat, fill, dtype):
        out = nrfull((T, K), fill, dtype=dtype)
        out[row_idx, col_idx] = flat
        return out

    def flat_of(name):
        return np.asarray(series.column(name).combine_chunks().flatten()
                          .to_numpy(zero_copy_only=False))

    out = {
        "url": series.column("url").to_pandas().to_numpy(dtype=object),
        "length": n,
        "value": pad(flat_of("value").astype(np.float64), np.nan, np.float64),
        "days": pad(flat_of("days").astype(np.int64), 0, np.int64),
        "dyear": pad(flat_of("dyear").astype(np.float64), np.nan, np.float64),
        "ts": pad(series.column("ts").combine_chunks().flatten()
                  .cast(pa.int64()).to_numpy(zero_copy_only=False),
                  0, np.int64),
    }
    for aux in ("aux_green", "aux_swir"):
        if aux in series.column_names:
            out[aux] = pad(flat_of(aux).astype(np.float64), np.nan,
                           np.float64)
    return out
