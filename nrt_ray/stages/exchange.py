"""Explicit hash-partition exchange (map-side split + per-partition reduce).

Semantically identical to ``ds.groupby("pid").map_groups(process_fn)`` but
implemented with raw Ray tasks — the documented escape hatch for the one
place the Dataset API underperforms: Ray Data's sort-based groupby funnels
every row through a sample + serial SortMap (measured ~10–15 s of
non-scaling wall on a 4.4 M-row shuffle), while this exchange is a classic
two-phase shuffle:

    split phase:  one task per input source, slices its rows into P
                  sub-tables by the precomputed ``pid`` column
                  (zero-copy Arrow ``take``/``slice``), P object refs out;
    reduce phase: one task per partition, concatenates its sub-tables and
                  runs the partition processor.

Both phases are embarrassingly parallel; all data moves through the object
store exactly once (any shuffle materializes its input).  Partitioning is
by the same pinned ``hash(url) % P`` column, so resume/increment
co-partitioning is unchanged.

Sources: the split hop's inputs come from one rule
(:func:`split_sources`).  A Dataset carrying ``ingest_webtext``'s
``scan_recipe`` (local Parquet files) has one source per ``(file, row
group)`` unit, which its split task reads itself — no Ray Data executor,
read task or ``map_batches`` stage starts, and a large file still fans
out over several split tasks.  Any other Dataset's sources are its
blocks, consumed via ``iter_internal_ref_bundles`` so split tasks launch
while it is still executing.  Either way each reduce task starts as soon
as its own split inputs exist — Ray's ref scheduling provides the only
barrier a shuffle inherently needs.  Reduce results are collected with
``ray.wait`` as they finish rather than one final ``ray.get`` gate.

Scale bound: the flat exchange creates ``blocks × P`` object refs, and a
reduce task takes ``blocks`` refs as arguments — fine for the P≈10²-10³
partitions this engine targets per job (partition size is held constant,
so a 256-node cluster runs MANY exchanges over data/time slices rather
than one exchange with a huge P; the incremental path then merges slices
mergeably).  For P beyond that, the HIERARCHICAL path (enabled
automatically at ``P ≥ _HIERARCHICAL_MIN_P``, forceable either way via
the ``hierarchical=`` flag) splits each block into ⌈√P⌉ COARSE buckets,
one re-split task per coarse bucket then slices its rows into the fine
pids — O(blocks·√P + P) refs, ⌈√P⌉-arg task lists instead of P of them —
and each fine reduce takes exactly ONE ref.  The partitioning key,
reduce semantics and manifest contract are identical on both paths.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray

#: flat→hierarchical autoswitch threshold (the flat path is one hop
#: cheaper, so it stays the default at the engine's usual P≈10²)
_HIERARCHICAL_MIN_P = 128


def split_by_pid(table: pa.Table, pid: np.ndarray, n: int) -> list:
    """Slice ``table`` into ``n`` sub-tables by its rows' ``pid`` (0..n-1;
    rows outside that range are dropped): one stable sort, then zero-copy
    slices, empty ones included."""
    order = np.argsort(pid, kind="stable")
    sorted_tbl = table.take(pa.array(order))
    bounds = np.searchsorted(pid[order], np.arange(n + 1), side="left")
    return [sorted_tbl.slice(lo, hi - lo)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def split_sources(ds):
    """The split hop's sources of ``ds`` and the recipe that reads one
    (:func:`read_source`): a ``scan_recipe``'s ``(file, row group)``
    units, or the blocks of any other Dataset as it streams them (recipe
    None)."""
    recipe = getattr(ds, "scan_recipe", None)
    if recipe is not None:
        return recipe.units(), recipe
    return _iter_block_refs(ds), None


def read_source(source, recipe) -> pa.Table:
    """One split task's input table: the block, or the recipe's read of
    its unit."""
    return source if recipe is None else recipe.read(source)


def _split_block(block, num_partitions: int, divisor: int = 1,
                 prep_fn=None, *prep_args, recipe=None):
    """Slice one block into per-``pid // divisor`` sub-tables (sort by
    key + boundary slicing — zero-copy on the value buffers).  With a
    ``recipe``, ``block`` is a source unit the task reads first
    (:func:`read_source`).

    ``prep_fn(block, *prep_args) -> block`` runs first when given — the
    hook that lets callers fold a routing/filter stage INTO the split
    task (one less object-store hop than a separate ``map_batches``).
    ``prep_args`` may contain ``ObjectRef``s: they arrive RESOLVED (Ray
    resolves top-level task args), so a small broadcast side input
    computed concurrently (e.g. the hot-url set) gates only the split
    tasks, never an upstream Dataset's stages."""
    block = read_source(block, recipe)
    if prep_fn is not None and block.num_rows:
        # (0-row blocks can surface with an EMPTY schema — e.g. a fully
        # filtered upstream batch — which prep_fn's column access would
        # KeyError on; they are partition-less either way)
        block = prep_fn(block, *prep_args)
    if block.num_rows == 0 or "pid" not in block.column_names:
        # fully-filtered blocks surface with an empty schema
        return tuple(None for _ in range(num_partitions)) \
            if num_partitions > 1 else None
    pid = block.column("pid").to_numpy(zero_copy_only=False)
    if divisor != 1:
        pid = pid // divisor
    out = split_by_pid(block, pid, num_partitions)
    return tuple(out) if num_partitions > 1 else out[0]


def _resplit(coarse: int, fanout: int, *tables):
    """Second split hop of the hierarchical exchange: concatenate one
    coarse bucket's sub-tables and slice them into its fine pids."""
    parts = [t for t in tables if t is not None and t.num_rows]
    if not parts:
        return tuple(None for _ in range(fanout)) if fanout > 1 else None
    tbl = pa.concat_tables(parts)
    pid = tbl.column("pid").to_numpy(zero_copy_only=False) \
        - coarse * fanout
    out = [t if t.num_rows else None
           for t in split_by_pid(tbl, pid, fanout)]
    return tuple(out) if fanout > 1 else out[0]


def reduce_tables(process_fn, empty_fn, *tables):
    """One partition's reduce: ``process_fn`` of its concatenated
    sub-tables, or ``empty_fn()`` (None without one) if none has rows."""
    parts = [t for t in tables if t is not None and t.num_rows]
    if not parts:
        return empty_fn() if empty_fn is not None else None
    return process_fn(pa.concat_tables(parts))


def _exchange_reduce_refs(ds, num_partitions: int, process_fn, empty_fn,
                          num_cpus_per_reduce: float,
                          hierarchical: bool | None = None,
                          prep_fn=None, prep_args=()) -> list:
    """Common plan of both exchange entry points: split ``ds``'s sources
    (:func:`split_sources`) by pid (flat or two-level) and submit one
    reduce task per partition; returns the P output refs.  Each reduce
    is :func:`reduce_tables`.  ``prep_fn``/``prep_args`` run inside the
    (first) split hop — see :func:`_split_block`."""

    def _reduce(pid: int, *tables):
        return reduce_tables(process_fn, empty_fn, *tables)

    reduce_remote = ray.remote(num_cpus=num_cpus_per_reduce)(_reduce)
    sources, recipe = split_sources(ds)
    if num_partitions == 1:
        if prep_fn is None and recipe is None:
            return [reduce_remote.remote(0, *sources)]
        prep_remote = ray.remote(_split_block)
        return [reduce_remote.remote(0, *[
            prep_remote.remote(src, 1, 1, prep_fn, *prep_args,
                               recipe=recipe)
            for src in sources])]
    if hierarchical is None:
        hierarchical = num_partitions >= _HIERARCHICAL_MIN_P
    if not hierarchical:
        split_remote = ray.remote(num_returns=num_partitions)(_split_block)
        # submit split tasks as upstream sources stream in (pipelined)
        split_refs = [split_remote.remote(src, num_partitions, 1, prep_fn,
                                          *prep_args, recipe=recipe)
                      for src in sources]
        return [reduce_remote.remote(p,
                                     *[split_refs[b][p]
                                       for b in range(len(split_refs))])
                for p in range(num_partitions)]
    fanout = max(2, math.isqrt(num_partitions - 1) + 1)   # ⌈√P⌉
    n_coarse = -(-num_partitions // fanout)
    coarse_remote = ray.remote(num_returns=n_coarse)(_split_block) \
        if n_coarse > 1 else ray.remote(_split_block)
    resplit_remote = ray.remote(num_returns=fanout)(_resplit) \
        if fanout > 1 else ray.remote(_resplit)
    coarse_refs = [coarse_remote.remote(src, n_coarse, fanout, prep_fn,
                                        *prep_args, recipe=recipe)
                   for src in sources]
    out = []
    for c in range(n_coarse):
        fine = resplit_remote.remote(
            c, fanout, *[coarse_refs[b][c] if n_coarse > 1
                         else coarse_refs[b]
                         for b in range(len(coarse_refs))])
        for j in range(fanout):
            p = c * fanout + j
            if p >= num_partitions:
                break
            out.append(reduce_remote.remote(
                p, fine[j] if fanout > 1 else fine))
    return out


def _iter_block_refs(ds):
    """Yield the dataset's block refs as they are produced (streaming)."""
    for bundle in ds.iter_internal_ref_bundles():
        refs = getattr(bundle, "block_refs", None)
        if refs is None:  # older RefBundle layout: .blocks = [(ref, meta)]
            refs = [r for r, _ in bundle.blocks]
        yield from refs


def exchange_map_groups(ds, num_partitions: int, process_fn,
                        num_cpus_per_reduce: float = 1.0,
                        hierarchical: bool | None = None,
                        prep_fn=None, prep_args=()) -> list:
    """Run ``process_fn`` once per pid partition of ``ds``.

    Args:
        ds: Dataset whose rows carry an int ``pid`` column in
            ``[0, num_partitions)`` — or, when ``prep_fn`` is given, a
            Dataset whose blocks ``prep_fn`` maps to pid-carrying tables
            inside the split tasks themselves.
        process_fn: ``pa.Table -> pa.Table`` called with one partition's
            full table (rows in arbitrary order, like map_groups).
        hierarchical: force the two-level split path on (True) or off
            (False); None = auto (on at P ≥ _HIERARCHICAL_MIN_P).
        prep_fn / prep_args: routing/filter fold for the split hop
            (``prep_args`` ObjectRefs arrive resolved) — see
            :func:`_split_block`.

    Returns:
        list of result tables (one per non-empty partition).
    """
    out_refs = _exchange_reduce_refs(ds, num_partitions, process_fn, None,
                                     num_cpus_per_reduce, hierarchical,
                                     prep_fn, prep_args)
    results = []
    pending = list(out_refs)
    while pending:
        done, pending = ray.wait(pending, num_returns=1)
        r = ray.get(done[0])
        if r is not None:
            results.append(r)
    return results


def exchange_dataset(ds, num_partitions: int, process_fn, empty_fn,
                     num_cpus_per_reduce: float = 1.0,
                     hierarchical: bool | None = None):
    """Like :func:`exchange_map_groups`, but hands the reduce outputs
    back as a DATASET built from the object-store refs — the reduced
    tables never touch the driver, so downstream Dataset stages
    (groupby, map_batches, write) keep streaming.

    ``empty_fn() -> pa.Table`` supplies the (empty) output schema for
    partitions that received no rows — ``from_arrow_refs`` requires a
    table per ref.
    """
    import ray.data
    return ray.data.from_arrow_refs(
        _exchange_reduce_refs(ds, num_partitions, process_fn, empty_fn,
                              num_cpus_per_reduce, hierarchical))
