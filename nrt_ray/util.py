"""Small shared utilities."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def full(shape, fill, dtype=np.float64) -> np.ndarray:
    """Fast ``np.full`` replacement.

    ``np.full``'s scalar ``copyto`` path is two orders of magnitude slower
    than ``empty + fill`` on some builds/VMs (measured ~94ms vs ~0.5ms for
    a 7MB array here), and padded-matrix allocation sits on the per-batch
    hot path.
    """
    a = np.empty(shape, dtype=dtype)
    a.fill(fill)
    return a


def url_major_order(urls) -> np.ndarray:
    """Row order that groups rows by url, urls ascending, each url's rows
    kept in their order: one stable argsort of an integer url code.
    Codes are ranked per run of equal adjacent urls, so a column made of
    a few url-sorted pieces (a partition's tiers) hashes one string per
    run; a string sort of the whole column costs several times more."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    n = len(urls)
    if not n:
        return np.zeros(0, np.int64)
    new_run = pc.not_equal(urls.slice(1), urls.slice(0, n - 1))
    starts = np.flatnonzero(np.r_[True, new_run.to_numpy(
        zero_copy_only=False)])
    heads = pc.dictionary_encode(urls.take(pa.array(starts)))
    rank = np.empty(len(heads.dictionary), np.int64)
    rank[pc.sort_indices(heads.dictionary).to_numpy()] = \
        np.arange(len(heads.dictionary))
    return np.argsort(np.repeat(rank[heads.indices.to_numpy()],
                                np.diff(np.r_[starts, n])), kind="stable")
