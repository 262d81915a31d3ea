"""Incremental ingest: apply new crawl snapshots to a checkpointed run.

This is the engine's analog of the reference's operational loop
(``/root/reference/docs/deploy.rst:319-343``: load state → fetch new
acquisitions → ``monitor()`` each in ascending date order → write state +
report back):

* new observations are filtered to ``warc_ts > high_water`` (strictly
  newer than anything already ingested); older rows land in a
  ``dead_letter`` table instead of corrupting order-sensitive monitor
  state (the reference has no late-data story; it simply processes
  forward),
* both sides stay co-partitioned: the new batch is bucketed with the SAME
  pinned ``num_partitions``, and each partition task reads exactly its own
  state/rollup files — a partition-local zipper join, no broadcast and no
  second shuffle,
* monitor state is restored per partition, updated sequentially per url in
  ``warc_ts`` order, and written back atomically,
* rollup tiers are merged mergeably (counts/sums add, min/min, max/max,
  ``last`` = newest since ingest is monotone) over the stored observed
  buckets, and retention is re-trimmed at the new high-water mark (each
  series keeps its anchor); gap-fill is derived on read, so the gap
  between a series' previous last bucket and its first new bucket fills
  with the same linear semantics as a one-shot run.

Float caveat (documented semantics): a bucket whose observations span an
increment boundary accumulates its sum as ``sum_old + sum_new``, which can
differ from the one-shot time-ordered summation in the last ulp; all other
columns are bit-identical.  The equivalence test asserts exact equality
everywhere except boundary-bucket sums/means (1e-12 rel).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from nrt_ray.stages import compress, rollup
from nrt_ray.stages.assemble import add_bucket_column, assemble_series
from nrt_ray.stages.fit_monitor import SeriesFitMonitor, regressor_tensor
from nrt_ray.stages.assemble import padded_matrices
from nrt_ray.state import manifest
from nrt_ray.util import full as nrfull

US = 1_000_000


def write_run_config(out_dir: str, config: dict) -> None:
    d = os.path.join(out_dir, manifest.MANIFEST_DIR)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, ".tmp-run.json")
    with open(tmp, "w") as f:
        json.dump(config, f, sort_keys=True)
    os.replace(tmp, os.path.join(d, "run.json"))


def read_run_config(out_dir: str) -> dict:
    with open(os.path.join(out_dir, manifest.MANIFEST_DIR, "run.json")) as f:
        return json.load(f)


class IncrementProcessor:
    """Per-partition incremental update (runs inside ``map_groups``)."""

    def __init__(self, out_dir: str, run_id: str, config: dict,
                 new_high_water_us: int):
        self.out_dir = out_dir
        self.run_id = run_id
        self.config = config
        self.new_hw = new_high_water_us
        self.tiers = [rollup.TierSpec(**t) for t in config["tiers"]]
        self.stage = SeriesFitMonitor(
            strategy=config["strategy"],
            monitor_start=config["monitor_start"],
            monitor_params=config.get("monitor_params"),
            fit_params=config.get("fit_params"),
            fit_method=config.get("fit_method"),
            screen_outliers=config.get("screen_outliers", "default"))

    # -- state update ---------------------------------------------------

    def _update_state(self, state: pa.Table, series: pa.Table) -> pa.Table:
        """Apply the new observations to the restored monitor, per url.

        Urls first appearing in this increment (absent from the old state
        table) are fitted fresh over their new observations — exactly what a
        one-shot run would do if these were the url's only rows — and their
        state rows are appended, so no series is ever silently invisible to
        monitoring.
        """
        mon = self.stage.restore(state)
        state_urls = state.column("url").to_pylist()
        pos = {u: i for i, u in enumerate(state_urls)}
        mats = padded_matrices(series)
        idx = np.array([pos.get(u, -1) for u in mats["url"]])
        known = idx >= 0
        if known.any():
            sel = idx[known]
            X3 = regressor_tensor(mats["days"][:, known],
                                  mats["dyear"][:, known],
                                  self.stage.trend,
                                  self.stage.harmonic_order)
            preds = np.einsum("tki,ik->tk", X3, mon.beta[:, sel],
                              optimize=True)
            # one (T, all state urls) block, NaN for urls not in the batch
            Tm = mats["value"].shape[0]
            within = (np.arange(Tm)[:, None]
                      < mats["length"][None, known])
            resid = nrfull((Tm, len(state_urls)), np.nan)
            values = nrfull((Tm, len(state_urls)), np.nan)
            days = np.zeros((Tm, len(state_urls)), dtype=np.int64)
            resid[:, sel] = mats["value"][:, known] - preds
            values[:, sel] = np.where(within, mats["value"][:, known], np.nan)
            days[:, sel] = mats["days"][:, known]
            mon.monitor_block(resid, values, days)
        new_state = self.stage._state_table(np.array(state_urls,
                                                     dtype=object), mon)
        if not known.all():
            unknown = pa.array(np.asarray(mats["url"], dtype=object)[~known],
                               pa.string())
            fresh = self.stage(series.filter(
                pc.is_in(series.column("url"), value_set=unknown)))
            new_state = pa.concat_tables([new_state, fresh],
                                         promote_options="default")
        return new_state

    # -- rollup merge ---------------------------------------------------

    def _retention_advance(self, table: pa.Table, tier: rollup.TierSpec) \
            -> tuple[pa.Table, np.ndarray]:
        """Advance retention on already-committed stored rows to the new
        high-water mark WITHOUT re-rolling them: ``trim_for_retention``
        drops what left the window but keeps each series' anchor, so the
        rows are exactly what a one-shot run would store.  A url changed
        when its stored rows or its served span moved — served counts
        before and after, from the gap lengths, no fill materialized.
        Returns ``(table tagged at the new mark, changed urls)``."""
        if tier.retention_us is None or not table.num_rows:
            return rollup.tag_tier(table, tier, self.new_hw), \
                np.array([], dtype=object)
        _, old_hw = rollup.tier_meta(table)
        rolled, urls = rollup.table_rolled(table)
        sidx = rolled["series_idx"]
        keys = {"series_idx": sidx, "bucket_ts": rolled["bucket_ts"],
                "row": np.arange(len(sidx))}
        kept = rollup.trim_for_retention(keys, tier.width_us,
                                         tier.retention_us, self.new_hw)
        n = len(urls)
        before = np.bincount(sidx, rollup.served_runs(keys, tier,
                                                      old_hw)[2], n)
        after = np.bincount(kept["series_idx"], rollup.served_runs(
            kept, tier, self.new_hw)[2], n)
        moved = (before != after) | (np.bincount(sidx, minlength=n)
                                     != np.bincount(kept["series_idx"],
                                                    minlength=n))
        if len(kept["row"]) < table.num_rows:
            table = table.take(pa.array(kept["row"]))
        return (rollup.tag_tier(table, tier, self.new_hw),
                urls.filter(pa.array(moved)).to_numpy(zero_copy_only=False))

    def _merge_tier(self, old: pa.Table | None, series: pa.Table,
                    tier: rollup.TierSpec) -> tuple[pa.Table, np.ndarray]:
        """Merge one tier's stored rows; returns ``(merged_table,
        changed_urls)``.

        O(touched) design: only urls with new observations are re-merged
        and re-trimmed; UNTOUCHED urls' old rows only advance retention
        (:meth:`_retention_advance`).  ``changed_urls`` (touched ∪ urls
        whose served rows moved) tells the segment stage which (url,
        tier) payloads must be re-encoded; the rest are reused
        byte-identical.
        """
        touched = np.unique(np.asarray(series.column("url").to_pandas(),
                                       dtype=object))
        passthrough = None
        if old is not None and old.num_rows:
            # hash-based membership (pc.is_in) — np.isin over object
            # string arrays scans ar1 once PER touched url (O(n·m)),
            # which dominated the whole increment at ~180 k tier rows
            tmask = pc.is_in(old.column("url"),
                             value_set=pa.array(touched, pa.string(),
                                                from_pandas=True))
            untouched = old.filter(pc.invert(tmask))
            old = old.filter(tmask)
            changed_untouched = np.array([], dtype=object)
            if untouched.num_rows:
                passthrough, changed_untouched = \
                    self._retention_advance(untouched, tier)
            changed = np.union1d(touched, changed_untouched)
        else:
            old = None
            changed = touched

        new = rollup.observed_tier_tables(
            series, tiers=[rollup.TierSpec(tier.name, tier.width_us)],
            high_water_us=self.new_hw)[tier.name]
        if old is None or old.num_rows == 0:
            merged = new.to_pandas()
        else:
            import pandas as pd
            merged = pd.concat([old.to_pandas(), new.to_pandas()],
                               ignore_index=True)
            g = merged.groupby(["url", "bucket_ts"], sort=True)
            merged = pd.DataFrame({
                "count": g["count"].sum().astype(np.int32),
                "sum": g["sum"].sum(),
                "min": g["min"].min(),
                "max": g["max"].max(),
                "last": g["last"].last(),  # new rows come last (monotone)
            }).reset_index()
            merged["mean"] = merged["sum"] / merged["count"]
            merged = merged.sort_values(["url", "bucket_ts"])
        # re-trim retention over the merged observed buckets
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
                                           tier.retention_us, self.new_hw)
        rebuilt = rollup.tier_table(rolled,
                                    pa.array(urls[first], pa.string()))
        if passthrough is not None and passthrough.num_rows:
            rebuilt = pa.concat_tables(
                [passthrough.select(rebuilt.column_names), rebuilt],
                promote_options="default")
            rebuilt = rebuilt.take(pc.sort_indices(rebuilt, sort_keys=[
                ("url", "ascending"), ("bucket_ts", "ascending")]))
        return rollup.tag_tier(rebuilt, tier, self.new_hw), changed

    # -------------------------------------------------------------------

    def load_partition(self, pid: int) -> dict:
        """Read a partition's checkpointed artifacts (None where absent).

        ``use_threads=False``: many loaders run concurrently (one per
        actor / reduce task), so each small per-partition file decoding
        on pyarrow's GLOBAL thread pool (sized to ALL cores, per
        process) oversubscribes the node ~25× and serializes everyone;
        single-threaded decode of a few-MB file is the scalable shape."""
        state_path = os.path.join(manifest.partition_dir(
            self.out_dir, "state", pid), "part.parquet")
        old_state = pq.read_table(state_path, use_threads=False) \
            if os.path.exists(state_path) else None
        old_tiers = {}
        for tier in self.tiers:
            p = os.path.join(manifest.partition_dir(
                self.out_dir, f"rollup_{tier.name}", pid), "part.parquet")
            old_tiers[tier.name] = _stored_rows(
                pq.read_table(p, use_threads=False), tier,
                self.config["high_water_us"]) if os.path.exists(p) \
                else None
        segp = os.path.join(manifest.partition_dir(
            self.out_dir, "segments", pid), "part.parquet")
        old_segments = pq.read_table(segp, use_threads=False) \
            if os.path.exists(segp) \
            else None
        return {"state": old_state, "tiers": old_tiers,
                "segments": old_segments}

    def update_partition(self, group: pa.Table, old: dict) -> dict:
        """Pure update: old artifacts + new observations → new artifacts.

        ``old`` is ``load_partition``'s shape; no disk I/O here, so a
        long-lived actor can keep artifacts cached between micro-batches
        and persist on its own checkpoint cadence.
        """
        series = assemble_series(group)
        if old["state"] is not None:
            new_state = self._update_state(old["state"], series)
        else:
            new_state = self.stage(series)  # brand-new partition
        tier_tables = {}
        changed_urls = {}
        points = 0
        for tier in self.tiers:
            merged, changed = self._merge_tier(
                old["tiers"].get(tier.name), series, tier)
            tier_tables[tier.name] = merged
            changed_urls[tier.name] = changed
            points += rollup.served_counts(merged)[0]
        segments = compress.segments_from_rollups(
            tier_tables, changed_urls=changed_urls,
            old_segments=old.get("segments"))
        alerts = new_state.filter(pc.equal(new_state.column("status"), 3)) \
            .select([c for c in ("url", "strategy", "detection_date",
                                 "process", "boundary")
                     if c in new_state.column_names])
        return {"state": new_state, "tiers": tier_tables,
                "segments": segments, "alerts": alerts,
                "rollup_points": points,
                "input_rows": group.num_rows, "series_rows": series.num_rows}

    def sweep_update(self, old: dict) -> dict | None:
        """Pure retention advance for a partition with NO new rows this
        increment (one-shot equivalence requires every partition to see
        the new high-water mark, not just the ones with data).  A cutoff
        filter per retention tier; returns the new artifacts, or None
        when nothing dropped (nothing needs rewriting)."""
        if old["state"] is None:
            return None
        tier_tables = {}
        changed_urls = {}
        any_changed = False
        for tier in self.tiers:
            told = old["tiers"].get(tier.name)
            if told is None:
                continue
            filtered, changed = self._retention_advance(told, tier)
            tier_tables[tier.name] = filtered
            changed_urls[tier.name] = changed
            any_changed = any_changed or len(changed) > 0
        if not any_changed:
            return None
        segments = compress.segments_from_rollups(
            tier_tables, changed_urls=changed_urls,
            old_segments=old.get("segments"))
        state = old["state"]
        alerts = state.filter(pc.equal(state.column("status"), 3)) \
            .select([c for c in ("url", "strategy", "detection_date",
                                 "process", "boundary")
                     if c in state.column_names])
        return {"state": state, "tiers": tier_tables,
                "segments": segments, "alerts": alerts,
                "rollup_points": sum(rollup.served_counts(t)[0]
                                     for t in tier_tables.values()),
                "input_rows": 0, "series_rows": 0}

    def sweep_partition(self, pid: int) -> bool:
        """Disk-backed :meth:`sweep_update`; returns True if rewritten."""
        art = self.sweep_update(self.load_partition(pid))
        if art is None:
            return False
        self.persist_partition(pid, art)
        return True

    def persist_partition(self, pid: int, art: dict) -> str:
        """Atomically write a partition's artifacts + manifest commit;
        returns the state checksum."""
        manifest.write_partition_table(self.out_dir, "state", pid,
                                       art["state"])
        for name, merged in art["tiers"].items():
            manifest.write_partition_table(self.out_dir, f"rollup_{name}",
                                           pid, merged)
        manifest.write_partition_table(self.out_dir, "segments", pid,
                                       art["segments"])
        manifest.write_partition_table(self.out_dir, "alerts", pid,
                                       art["alerts"])
        checksum = manifest.state_checksum(art["state"])
        manifest.commit_partition(self.out_dir, self.run_id, pid, {
            "num_partitions": self.config["num_partitions"],
            "row_counts": {"input": art["input_rows"],
                           "series": art["series_rows"]},
            "state_checksum": checksum,
            "strategy": self.config["strategy"],
            "high_water_us": self.new_hw,
            "increment": True,
        })
        return checksum

    def __call__(self, group: pa.Table) -> pa.Table:
        pid = int(group.column("pid")[0].as_py())
        art = self.update_partition(group, self.load_partition(pid))
        checksum = self.persist_partition(pid, art)
        return pa.table({
            "pid": pa.array([pid], pa.int32()),
            "input_rows": pa.array([art["input_rows"]], pa.int64()),
            "rollup_points": pa.array([art["rollup_points"]], pa.int64()),
            "state_checksum": pa.array([checksum], pa.string()),
        })


def _stored_rows(table: pa.Table, tier: rollup.TierSpec,
                 high_water_us: int) -> pa.Table:
    """A loaded tier file as stored rows.  Files written before stores
    kept observed buckets only hold the served view: their gap-filled
    rows are dropped and the tier metadata attached."""
    if rollup.tier_meta(table) is not None:
        return table
    observed = table.filter(pc.invert(table.column("gapfilled")))
    return rollup.tag_tier(observed, tier, high_water_us)


def salted_layout(out_dir: str, config: dict):
    """Partition layout of a (possibly) salted run: returns
    ``(hot_sorted, m_tasks, P_total)`` where ``P_total`` includes the
    merge partitions.  Hot urls' checkpointed state lives in merge pid
    ``P + sorted_rank % M`` (the persisted one-shot assignment), so
    increments route their new rows there.  Raises for legacy salted
    runs whose config predates hot-url persistence."""
    P = int(config["num_partitions"])
    merged = any(pid >= P
                 for pid in manifest.committed_partitions(out_dir))
    if not merged:
        return [], 0, P
    hot = config.get("hot_urls") or []
    m_tasks = int(config.get("num_merge_tasks") or 0)
    if not (hot and m_tasks):
        raise RuntimeError(
            "salted run predates hot-url persistence: merged partitions "
            "(pid >= P) exist but the run config records no hot_urls — "
            "re-run the full pipeline once to write the salting "
            "metadata, then increments can route hot urls to their "
            "merge partitions.")
    return list(hot), m_tasks, P + m_tasks


def run_increment(out_dir: str, flat_dataset, run_id: str = "incr") -> dict:
    """Apply a new batch of observations to an existing pipeline output.

    Args:
        out_dir: output directory of a previous ``run_pipeline`` call that
            wrote a run config (see ``write_run_config``).
        flat_dataset: Dataset of new flat rows
            ``url, warc_ts, value, days, dyear``.

    Returns:
        summary dict incl. late-row count (dead-lettered).
    """
    config = read_run_config(out_dir)
    P = config["num_partitions"]
    old_hw = config["high_water_us"]
    hot_sorted, m_tasks, P_total = salted_layout(out_dir, config)

    # split late vs new (strictly-forward contract)
    hw_scalar = pa.scalar(old_hw, pa.int64()).cast(pa.timestamp("us"))

    def is_new(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("warc_ts"), hw_scalar))

    def is_late(t: pa.Table) -> pa.Table:
        return t.filter(pc.less_equal(t.column("warc_ts"), hw_scalar))

    # execute the upstream lineage (read/extract) exactly once; the late /
    # new splits and the high-water max below then scan cached blocks
    flat_dataset = flat_dataset.materialize()
    late = flat_dataset.map_batches(is_late, batch_format="pyarrow")
    late_rows = late.count()
    if late_rows:
        late.write_parquet(os.path.join(out_dir, "dead_letter"))

    mr = (hot_sorted, m_tasks) if m_tasks else None
    ds = flat_dataset.map_batches(is_new, batch_format="pyarrow") \
        .map_batches(lambda t: add_bucket_column(t, P, merge_route=mr),
                     batch_format="pyarrow")
    new_hw_t = ds.max("warc_ts")
    new_hw = int(pa.scalar(new_hw_t, pa.timestamp("us"))
                 .cast(pa.int64()).as_py()) if new_hw_t is not None \
        else old_hw

    proc = IncrementProcessor(out_dir, run_id, config, new_hw)

    def process(group: pa.Table) -> pa.Table:
        return proc(group)

    from nrt_ray.stages.exchange import exchange_map_groups
    tables = exchange_map_groups(ds, P_total, process)
    rows = [row for t in tables for row in t.to_pylist()]
    # partitions that received no rows still need the new high-water
    # mark applied to their retention tiers (one-shot equivalence);
    # the sweep is a cheap retention trim and rewrites only on change
    swept = 0
    empty_pids = sorted(set(range(P_total)) - {r["pid"] for r in rows})
    if empty_pids and new_hw > old_hw:
        import ray as _ray
        sweep_remote = _ray.remote(
            lambda pid: IncrementProcessor(
                out_dir, run_id, config, new_hw).sweep_partition(pid))
        swept = sum(_ray.get([sweep_remote.remote(p)
                              for p in empty_pids]))
    config["high_water_us"] = new_hw
    write_run_config(out_dir, config)
    return {
        "partitions_processed": len(rows),
        "partitions_swept": int(swept),
        "input_rows": int(sum(r["input_rows"] for r in rows)),
        "rollup_points": int(sum(r["rollup_points"] for r in rows)),
        "late_rows": int(late_rows),
        "high_water_us": new_hw,
    }


def _merge_rebuild(pid, kwargs, want, *blocks):
    """One merge partition rebuilt from flat source blocks: filter to
    the merge task's urls, tag the pid, run the fused processor."""
    from nrt_ray.pipelines import monitor_pipeline as mp
    parts = []
    for b in blocks:
        if b is None or not b.num_rows:
            continue
        keep = pc.is_in(b.column("url"),
                        value_set=pa.array(sorted(want), pa.string()))
        sub = b.filter(keep)
        if sub.num_rows:
            parts.append(sub)
    if not parts:
        return None
    tbl = pa.concat_tables(parts, promote_options="default")
    tbl = tbl.append_column(
        "pid", pa.array(np.full(tbl.num_rows, pid, np.int32)))
    return mp.PartitionProcessor(**kwargs)(tbl)


def _rebuild_merge_partitions(out_dir: str, config: dict, hot_sorted,
                              m_tasks: int, merge_pids, flat, run_id,
                              exclude=frozenset()) -> int:
    """Rebuild the given merge partitions from SOURCE (the ``flat``
    stream), each filtered to its task's hot urls minus ``exclude``.
    Shared by run_forget and run_backfill — increment-proof, unlike
    replaying the one-shot hot_series intermediates.  Returns how many
    partitions were rebuilt (fully-excluded tasks are skipped and left
    for the caller's empty-commit cleanup)."""
    import ray as _ray
    from nrt_ray.stages.exchange import _iter_block_refs

    P = int(config["num_partitions"])
    processor_kwargs = dict(
        out_dir=out_dir, run_id=run_id, num_partitions=P,
        strategy=config["strategy"],
        monitor_start=config["monitor_start"],
        tiers=[rollup.TierSpec(**t) for t in config["tiers"]],
        high_water_us=int(config["high_water_us"]),
        fit_method=config.get("fit_method"),
        screen_outliers=config.get("screen_outliers", "default"),
        monitor_params=config.get("monitor_params"),
        fit_params=config.get("fit_params"))
    rebuild_remote = _ray.remote(_merge_rebuild)
    # materialize the source block refs ONCE (iterating inside the loop
    # would re-execute the flat stream per merge partition) and launch
    # every rebuild task concurrently, gathering once
    blocks = None
    futs = []
    for mpid in sorted(merge_pids):
        m = mpid - P
        want = {u for i, u in enumerate(hot_sorted)
                if i % m_tasks == m and u not in exclude}
        if not want:
            continue
        if blocks is None:
            blocks = list(_iter_block_refs(flat))
        futs.append(rebuild_remote.remote(
            mpid, processor_kwargs, want, *blocks))
    return sum(1 for res in _ray.get(futs) if res is not None)


def _scrub_hot_series(out_dir: str, urls) -> int:
    """Remove ``urls`` from every one-shot ``hot_series`` intermediate.

    A salted one-shot run writes each hot url's assembled sub-series
    aside in nearly every hash partition (``hot_series/part=*``) for the
    merge phase to replay.  Right-to-be-forgotten covers every output
    artifact, intermediates included — rebuilding the merge partitions
    alone would leave the forgotten url's complete raw series on disk.
    Atomic rewrite per file (tmp + rename, the manifest discipline);
    files left empty are deleted.  Returns how many files were touched.
    """
    import glob as _glob

    import ray as _ray

    files = sorted(_glob.glob(os.path.join(
        out_dir, "hot_series", "part=*", "part.parquet")))
    if not files:
        return 0
    urls_sorted = sorted(set(urls))

    def scrub(path: str) -> int:
        import pyarrow.parquet as _pq
        t = _pq.read_table(path, use_threads=False)
        drop = pc.is_in(t.column("url"),
                        value_set=pa.array(urls_sorted, pa.string()))
        if not (pc.sum(pc.cast(drop, pa.int64())).as_py() or 0):
            return 0
        kept = t.filter(pc.invert(drop))
        if kept.num_rows:
            tmp = path + f".tmp-{os.getpid()}"
            _pq.write_table(kept, tmp)
            os.replace(tmp, path)
        else:
            os.remove(path)
        return 1
    scrub_remote = _ray.remote(num_cpus=0.5)(scrub)
    return int(sum(_ray.get([scrub_remote.remote(f) for f in files])))


def run_forget(out_dir: str, input_path, urls, run_id: str = "forget",
               reduce_num_cpus: float = 1.0) -> dict:
    """Right-to-be-forgotten: remove ``urls`` from every output artifact
    (state, rollup tiers, compressed segments, alerts) by REBUILDING only
    the partitions that own them from the original input minus those
    urls — everything else is untouched (hash-pinned partitioning makes
    the blast radius exactly ``len({hash(url) % P})`` partitions).

    ``input_path`` must cover EVERYTHING the run has ingested (original
    input plus any increment batches — ``read_parquet`` accepts a list),
    since affected partitions rebuild from source; rows above the
    committed high-water mark, if any, are naturally re-ingested by the
    rebuild.

    Result is identical to a fresh run over the input with the urls
    filtered out, except the committed high-water mark is preserved (it
    may have been set by a forgotten url's last snapshot; shrinking it
    would re-classify other urls' already-ingested rows as new).  The
    ``dead_letter`` audit table, if any, is NOT scrubbed (it is an
    append-only audit log outside the queryable outputs).

    Salted runs: forgetting a HOT url rebuilds its merge partition
    ``P + sorted_rank % M`` from SOURCE (filtered to that merge task's
    remaining urls — increment-proof, unlike replaying the one-shot
    ``hot_series`` intermediates); the persisted hot-url list stays
    intact so increment routing for the other hot urls is unchanged.
    The forgotten urls are additionally scrubbed from every
    ``hot_series/part=*`` intermediate file — the one-shot run wrote
    their full assembled sub-series aside in nearly every hash
    partition, and "every output artifact" includes intermediates
    (only the append-only ``dead_letter`` audit log is exempt).
    """
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.stages.assemble import bucket_of

    config = read_run_config(out_dir)
    P = int(config["num_partitions"])
    hot_sorted, m_tasks, _ = salted_layout(out_dir, config)
    hot_rank = {u: i for i, u in enumerate(hot_sorted)}
    urls_arr = np.asarray(sorted(set(urls)), dtype=object)
    non_hot = np.asarray([u for u in urls_arr if u not in hot_rank],
                         dtype=object)
    hot_forgot = [u for u in urls_arr if u in hot_rank]
    pids = sorted(set(bucket_of(non_hot, P).tolist())) \
        if len(non_hot) else []
    merge_pids = sorted({P + hot_rank[u] % m_tasks
                         for u in hot_forgot}) if hot_forgot else []
    # hash pids first; merge pids stay committed until after the
    # run_pipeline rebuild so its resume-skip keeps the one-shot merge
    # phase (which replays stale hot_series intermediates) disabled
    manifest.uncommit_partitions(out_dir, pids)

    def drop_urls(t: pa.Table) -> pa.Table:
        drop = pc.is_in(t.column("url"),
                        value_set=pa.array(urls_arr, pa.string(),
                                           from_pandas=True))
        return t.filter(pc.invert(drop))

    flat = mp.ingest_webtext(input_path) \
        .map_batches(drop_urls, batch_format="pyarrow")
    summary = {"partitions_processed": 0}
    if pids:
        summary = mp.run_pipeline(
            input_path, out_dir,
            strategy=config["strategy"],
            monitor_start=config["monitor_start"],
            num_partitions=P,
            tiers=[rollup.TierSpec(**t) for t in config["tiers"]],
            monitor_params=config.get("monitor_params"),
            fit_params=config.get("fit_params"),
            fit_method=config.get("fit_method"),
            screen_outliers=config.get("screen_outliers", "default"),
            high_water_us=int(config["high_water_us"]),
            resume=True, run_id=run_id, flat_dataset=flat,
            # hash-partition rebuilds must keep deferring the (still
            # live) hot urls to the merge phase, exactly as one-shot
            hot_urls=set(hot_sorted) or None,
            reduce_num_cpus=reduce_num_cpus)

    if merge_pids:
        # rebuild each affected merge partition from SOURCE: the flat
        # stream filtered to that merge task's REMAINING urls (ranks —
        # and therefore routing for the other hot urls — are preserved
        # by keeping the persisted list intact)
        manifest.uncommit_partitions(out_dir, merge_pids)
        n_rebuilt = _rebuild_merge_partitions(
            out_dir, config, hot_sorted, m_tasks, merge_pids, flat,
            run_id, exclude=frozenset(hot_forgot))
        summary["partitions_processed"] = \
            int(summary["partitions_processed"]) + n_rebuilt

    # scrub forgotten HOT urls out of the one-shot hot_series
    # intermediates (after the rebuilds: the hash-pid rebuild rewrites
    # its own pids' files from the already-filtered flat stream, so the
    # scrub only has the untouched partitions left to clean)
    scrubbed = _scrub_hot_series(out_dir, hot_forgot) if hot_forgot else 0

    # a partition whose every url was forgotten gets no exchange rows →
    # its stale tables must be dropped and an empty commit recorded
    still_open = (set(pids) | set(merge_pids)) \
        - manifest.committed_partitions(out_dir)
    for pid in sorted(still_open):
        for table in (["state", "alerts", "segments"]
                      + [f"rollup_{t['name']}" for t in config["tiers"]]):
            p = os.path.join(manifest.partition_dir(out_dir, table, pid),
                             "part.parquet")
            if os.path.exists(p):
                os.remove(p)
        manifest.commit_partition(out_dir, run_id, pid, {
            "num_partitions": P, "row_counts": {"input": 0},
            "state_checksum": "", "strategy": config["strategy"],
            "high_water_us": int(config["high_water_us"]),
            "forgotten_empty": True,
        })
    return {
        "partitions_rebuilt": int(summary["partitions_processed"]),
        "partitions_emptied": len(still_open),
        "urls_forgotten": int(len(urls_arr)),
        "affected_pids": pids + merge_pids,
        "hot_series_files_scrubbed": int(scrubbed),
    }


def run_backfill(out_dir: str, input_path, run_id: str = "backfill",
                 reduce_num_cpus: float = 1.0) -> dict:
    """Fold the dead-lettered LATE rows into the committed output by
    rebuilding only the partitions that own them — the repair path for
    the strictly-forward increment contract (``run_increment`` routes
    rows at or below the committed high-water mark to the
    ``dead_letter`` audit table instead of corrupting order-sensitive
    monitor state; this applies them properly, by recomputation).

    ``input_path`` must cover EVERYTHING the run has ingested INCLUDING
    the late rows' source batches (original input plus every increment
    batch — ``read_parquet`` accepts a list), the same contract as
    ``run_forget``: affected partitions rebuild from source, and the
    dead-letter table is only used to locate them (its url set hashes
    to exactly the partitions whose state is missing late data).  The
    result is identical to a fresh one-shot run over the combined
    input; untouched partitions are never recomputed or rewritten.

    On success the applied dead-letter files are moved to
    ``dead_letter_applied/{run_id}/`` (append-only audit, never
    re-applied).  Salted runs: a hot url's late rows map to its MERGE
    partition, which rebuilds from source like ``run_forget``'s path.
    Returns a summary dict.
    """
    import ray as _ray
    import ray.data as _rd

    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.stages.assemble import add_bucket_column, bucket_of

    config = read_run_config(out_dir)
    P = int(config["num_partitions"])
    hot_sorted, m_tasks, _ = salted_layout(out_dir, config)
    mr = (hot_sorted, m_tasks) if m_tasks else None
    dl_dir = os.path.join(out_dir, "dead_letter")
    if not os.path.isdir(dl_dir) or not any(
            f.endswith(".parquet") for f in os.listdir(dl_dir)):
        return {"late_rows_applied": 0, "partitions_rebuilt": 0,
                "affected_pids": [],
                "high_water_us": int(config["high_water_us"])}

    # affected partitions, computed distributed: per-batch distinct pid
    # partials — the driver sees at most P+M values, never the url set
    dl = _rd.read_parquet(dl_dir)
    late_rows = dl.count()

    def pid_partial(t: pa.Table) -> pa.Table:
        routed = add_bucket_column(t, P, merge_route=mr)
        pids = np.unique(routed.column("pid")
                         .to_numpy(zero_copy_only=False)) \
            .astype(np.int64)
        return pa.table({"pid": pa.array(pids)})

    all_pids = sorted(int(p) for p in
                      dl.map_batches(pid_partial, batch_format="pyarrow")
                      .unique("pid"))
    pids = [p for p in all_pids if p < P]
    merge_pids = [p for p in all_pids if p >= P]
    manifest.uncommit_partitions(out_dir, pids)

    summary = {"partitions_processed": 0}
    if pids:
        summary = mp.run_pipeline(
            input_path, out_dir,
            strategy=config["strategy"],
            monitor_start=config["monitor_start"],
            num_partitions=P,
            tiers=[rollup.TierSpec(**t) for t in config["tiers"]],
            monitor_params=config.get("monitor_params"),
            fit_params=config.get("fit_params"),
            fit_method=config.get("fit_method"),
            screen_outliers=config.get("screen_outliers", "default"),
            high_water_us=int(config["high_water_us"]),
            resume=True, run_id=run_id,
            reduce_num_cpus=reduce_num_cpus)

    if merge_pids:
        manifest.uncommit_partitions(out_dir, merge_pids)
        flat = mp.ingest_webtext(input_path)
        n_rebuilt = _rebuild_merge_partitions(
            out_dir, config, hot_sorted, m_tasks, merge_pids, flat,
            run_id)
        summary["partitions_processed"] = \
            int(summary["partitions_processed"]) + n_rebuilt

    # archive the applied dead-letter files (audit, never re-applied)
    applied = os.path.join(out_dir, "dead_letter_applied", run_id)
    os.makedirs(os.path.dirname(applied), exist_ok=True)
    n = 2
    while os.path.exists(applied):
        applied = os.path.join(out_dir, "dead_letter_applied",
                               f"{run_id}-{n}")
        n += 1
    os.replace(dl_dir, applied)

    return {
        "late_rows_applied": int(late_rows),
        "partitions_rebuilt": int(summary["partitions_processed"]),
        "affected_pids": pids + merge_pids,
        "high_water_us": int(config["high_water_us"]),
    }
