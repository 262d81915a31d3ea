"""Incremental ingest: apply new crawl snapshots to a checkpointed run.

This is the engine's analog of the reference's operational loop
(``/root/reference/docs/deploy.rst:319-343``: load state → fetch new
acquisitions → ``monitor()`` each in ascending date order → write state +
report back):

* new observations are filtered to ``warc_ts > high_water`` (strictly
  newer than anything already ingested); older rows land in the
  ``dead_letter`` table, one file per input source (:func:`split_batch`),
  instead of corrupting order-sensitive monitor state (the reference
  has no late-data story; it simply processes forward),
* both sides stay co-partitioned: the new batch is bucketed with the SAME
  pinned ``num_partitions``, and each partition task reads exactly its own
  state/rollup files — a partition-local zipper join, no broadcast and no
  second shuffle,
* monitor state is restored per partition, updated sequentially per url in
  ``warc_ts`` order, and written back atomically,
* rollup tiers are merged append-only: new buckets follow each url's
  stored ones, and only the boundary bucket combines (counts/sums add,
  min/min, max/max, ``last`` = newest since ingest is monotone); an
  out-of-order bucket raises.  A rewritten partition's tiers are
  re-trimmed at the new high-water mark (each series keeps its anchor);
  gap-fill is derived on read, so the gap between a series' previous
  last bucket and its first new bucket fills with the same linear
  semantics as a one-shot run,
* only the partitions the batch's rows touch are loaded and rewritten,
  each with all of its segments encoded from its tiers.
  Readers apply the retention window at the store's committed mark, so
  a partition without new rows keeps the stored rows, segments and
  commit record of the older mark it was last written at, and still
  serves what a one-shot run at the new mark serves.

Float caveat (documented semantics): a bucket whose observations span an
increment boundary accumulates its sum as ``sum_old + sum_new``, which can
differ from the one-shot time-ordered summation in the last ulp; all other
columns are bit-identical.  The equivalence test asserts exact equality
everywhere except boundary-bucket sums/means (1e-12 rel).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from nrt_ray.stages import compress, rollup
from nrt_ray.stages.assemble import (add_bucket_column, assemble_series,
                                     bucket_of, padded_matrices)
from nrt_ray.stages.fit_monitor import SeriesFitMonitor, regressor_tensor
from nrt_ray.stages.exchange import (_split_block, read_source,
                                     reduce_tables, split_sources)
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


def run_settings(config: dict) -> dict:
    """The arguments a run config pins, for every partition writer and
    for ``run_pipeline``: strategy, fit and monitor parameters,
    partitioning, tiers (as ``TierSpec``s) and the committed high-water
    mark."""
    return dict(strategy=config["strategy"],
                monitor_start=config["monitor_start"],
                num_partitions=config.get("num_partitions"),
                tiers=[rollup.TierSpec(**t) for t in config["tiers"]],
                high_water_us=config.get("high_water_us"),
                fit_method=config.get("fit_method"),
                screen_outliers=config.get("screen_outliers", "default"),
                monitor_params=config.get("monitor_params"),
                fit_params=config.get("fit_params"))


#: a partition with nothing stored, in ``load_partition``'s shape: a
#: fresh partition is an update onto it
NOTHING = {"state": None, "tiers": {}}


class PartitionWriter:
    """One partition's load → pure update → persist, shared by every
    writer.  A fresh partition (``monitor_pipeline.PartitionProcessor``)
    is an update onto :data:`NOTHING`; an increment is an update onto
    the loaded artifacts.

    ``high_water_us`` is the mark the writer builds and commits at
    (``new_hw``).  It may be None only when no tier keeps a retention
    window; each partition's tiers are then tagged with its newest
    observation."""

    #: chaos-testing hook, see :func:`manifest.persist_partition`
    fault_hook = None

    def __init__(self, out_dir: str, run_id: str, num_partitions: int,
                 strategy: str, monitor_start: str, tiers,
                 high_water_us: int | None,
                 fit_method: str | None = None,
                 screen_outliers: str | None = "default",
                 monitor_params: dict | None = None,
                 fit_params: dict | None = None):
        self.out_dir = out_dir
        self.run_id = run_id
        self.num_partitions = num_partitions
        self.tiers = list(tiers)
        self.new_hw = high_water_us
        self.stage = SeriesFitMonitor(
            strategy=strategy, monitor_start=monitor_start,
            fit_method=fit_method, screen_outliers=screen_outliers,
            monitor_params=monitor_params, fit_params=fit_params)

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

    def _merge_tier(self, old: pa.Table | None, series: pa.Table,
                    tier: rollup.TierSpec, hw: int):
        """Append one tier's new observed buckets to its stored rows at
        mark ``hw``; returns ``(merged_table, (served points, observed
        buckets), rolled)``, the counts over the merged table and
        ``rolled`` the arrays its segments encode from
        (``segments_from_rollups``' ``rolled``).

        Strictly-forward contract: every new row is newer than the
        committed high-water mark, so a url's new buckets start at or
        after its last stored bucket and only that boundary bucket can
        combine (count +, ``sum_old + sum_new``, min, max, ``last`` =
        new, ``mean = sum / count``).  One stable url sort appends them
        to every url's stored rows, touched or not; a new bucket before
        its url's last stored bucket raises.  Retention is re-trimmed
        at the new mark (each url keeps its anchor).  ``old=None``
        builds the tier fresh: assembled series are url-sorted and
        unique, so their rows are taken as they are.
        """
        (_, cat, dictionary, _), = rollup.observed_rolled(
            series, [rollup.TierSpec(tier.name, tier.width_us)], hw)
        dictionary = dictionary.combine_chunks()
        if old is not None:
            # (rolled dict, per-series urls), stored rows first
            rolled = [rollup.table_rolled(old), (cat, dictionary)]
            keys = ("bucket_ts", "count", "sum", "mean", "min", "max",
                    "last")
            # one sorted url dictionary; each row keyed by its url's rank
            dictionary = pc.unique(pa.chunked_array(
                [u for _, u in rolled], pa.string()))
            dictionary = dictionary.take(pc.sort_indices(dictionary))
            rank = np.concatenate([pc.index_in(u, value_set=dictionary)
                                   .to_numpy()[r["series_idx"]]
                                   for r, u in rolled])
            order = np.argsort(rank, kind="stable")
            rank = rank[order]
            cat = {k: np.concatenate([r[k] for r, _ in rolled])[order]
                   for k in keys}
            same = rank[1:] == rank[:-1]
            step = np.diff(cat["bucket_ts"])
            if (same & (step < 0)).any():
                raise ValueError(
                    f"tier {tier.name}: a new bucket precedes its url's "
                    "last stored bucket (increments must be strictly "
                    "newer than the committed high-water mark)")
            cat["series_idx"] = rank
            if (same & (step == 0)).any():  # a stored row, then a new one
                cat = rollup.regroup(cat, tier.width_us)
        merged = rollup.trim_for_retention(cat, tier.width_us,
                                           tier.retention_us, hw)
        runs = rollup.served_runs(merged, tier, hw)
        return (rollup.stored_tier_table(merged, dictionary, tier, hw),
                rollup.run_totals(merged["bucket_ts"], runs[0], runs[2]),
                (merged, dictionary, runs))

    # -- update and persist ---------------------------------------------

    def update_series(self, series: pa.Table, old: dict, input_rows: int,
                      hw: int) -> dict:
        """The pure update every writer shares: ``old`` artifacts
        (``load_partition``'s shape; :data:`NOTHING` for a fresh
        partition) + one partition's assembled new ``series`` → new
        artifacts at mark ``hw``.  Urls without stored state are fitted
        fresh; no disk I/O and no segment encode, so a long-lived actor
        can keep artifacts cached between micro-batches and persist
        (and encode) on its own cadence."""
        if old["state"] is not None:
            state = self._update_state(old["state"], series)
        else:
            state = self.stage(series)
        merged = {tier.name: self._merge_tier(old["tiers"].get(tier.name),
                                              series, tier, hw)
                  for tier in self.tiers}
        # the tier tables, the arrays each tier's segments encode from,
        # alerts from the state
        alerts = state.filter(pc.equal(state.column("status"), 3)) \
            .select([c for c in ("url", "strategy", "detection_date",
                                 "process", "boundary")
                     if c in state.column_names])
        return {"state": state,
                "tiers": {name: m[0] for name, m in merged.items()},
                "rolled": {name: m[2] for name, m in merged.items()},
                "alerts": alerts,
                "rollup_points": sum(m[1][0] for m in merged.values()),
                "observed_buckets": sum(m[1][1] for m in merged.values()),
                "input_rows": input_rows, "series_rows": series.num_rows}

    def persist_partition(self, pid: int, art: dict, tables=None,
                          **record) -> str:
        """Commit ``art`` (and any extra ``tables``) through
        :func:`manifest.persist_partition`; ``record`` adds lineage
        fields.  The segments are encoded here, once per commit, from
        all of the partition's tiers in config order: a function of the
        committed tier tables alone.  Returns the state checksum."""
        record["row_counts"] = dict(record.get("row_counts") or {},
                                    input=art["input_rows"],
                                    series=art["series_rows"])
        return manifest.persist_partition(
            self.out_dir, self.run_id, pid,
            {"state": art["state"],
             **{f"rollup_{name}": t for name, t in art["tiers"].items()},
             "segments": compress.segments_from_rollups(
                 art["tiers"], rolled=art["rolled"]),
             "alerts": art["alerts"],
             **(tables or {})},
            dict(record, num_partitions=self.num_partitions,
                 strategy=self.stage.strategy, high_water_us=self.new_hw),
            (art["rollup_points"], art["observed_buckets"]),
            self.fault_hook)["state_checksum"]


class IncrementProcessor(PartitionWriter):
    """Per-partition incremental update (runs in an increment's
    partition task): load the stored artifacts, update them with the new
    rows at the new mark, persist."""

    def __init__(self, out_dir: str, run_id: str, config: dict,
                 new_high_water_us: int):
        super().__init__(out_dir, run_id, **dict(
            run_settings(config), high_water_us=new_high_water_us))
        self.config = config

    def load_partition(self, pid: int) -> dict:
        """Read a partition's committed artifacts (None where absent,
        and for a pid without a commit record)."""
        names = {f"rollup_{t.name}": t for t in self.tiers}
        got = manifest.read_partition(self.out_dir, pid, ["state", *names])
        return {"state": got["state"],
                "tiers": {t.name: None if got[name] is None else
                          rollup.stored_rows(got[name], t,
                                             self.config["high_water_us"])
                          for name, t in names.items()}}

    def update_partition(self, group: pa.Table, old: dict) -> dict:
        """:meth:`update_series` of one partition's new flat rows."""
        series = assemble_series(group)
        return self.update_series(series, old, group.num_rows, self.new_hw)

    def persist_partition(self, pid: int, art: dict) -> str:
        """Commit an increment's artifacts; returns the state checksum."""
        return super().persist_partition(pid, art, increment=True)

    def __call__(self, group: pa.Table) -> dict:
        pid = int(group.column("pid")[0].as_py())
        art = self.update_partition(group, self.load_partition(pid))
        return {"pid": pid, "input_rows": art["input_rows"],
                "rollup_points": art["rollup_points"],
                "state_checksum": self.persist_partition(pid, art)}


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


def owning_pids(out_dir: str, config: dict, urls) -> list[int]:
    """The partition holding each url's committed outputs: its hash
    pid, or a salted hot url's merge pid ``P + sorted_rank % M``."""
    P = int(config["num_partitions"])
    hot_sorted, m_tasks, _ = salted_layout(out_dir, config)
    rank = {u: i for i, u in enumerate(hot_sorted)}
    return [P + rank[u] % m_tasks if u in rank else int(pid) for u, pid
            in zip(urls, bucket_of(np.asarray(urls, dtype=object), P))]


def increment_target(out_dir: str):
    """The store a batch of either increment mode applies to: ``(run
    config, P, merge route, P_total)``, hot urls routed to their merge
    partitions (:func:`salted_layout`).  Raises for a store with
    uncommitted partition files: readers skip them, so an increment
    would refit their urls from nothing."""
    config = read_run_config(out_dir)
    if pids := manifest.uncommitted_pids(out_dir):
        raise RuntimeError(
            f"partitions {pids} have files but no commit record: rebuild "
            "them with a resumed run_pipeline before applying increments")
    hot_sorted, m_tasks, P_total = salted_layout(out_dir, config)
    return (config, int(config["num_partitions"]),
            (hot_sorted, m_tasks) if m_tasks else None, P_total)


def _hw_scalar(high_water_us: int) -> pa.Scalar:
    return pa.scalar(high_water_us, pa.int64()).cast(pa.timestamp("us"))


@ray.remote
def _split_source(source, recipe, high_water_us: int, dl_dir: str,
                  num_partitions: int, merge_route, p_total: int):
    """One micro-batch source (:func:`exchange.read_source`): its late
    rows go to a ``dl_dir`` file named by their Arrow IPC digest, so a
    replay overwrites it (tmp + rename; the tmp name does not end in
    ``.parquet``); its new rows are routed (:func:`route_new`) and
    sliced by partition.  Returns ``((late rows, max(newest warc_ts,
    mark)), *sub-tables)``."""
    block = read_source(source, recipe)
    parts = _split_block(block, p_total, 1, route_new, high_water_us,
                         num_partitions, merge_route)
    parts = parts if p_total > 1 else (parts,)
    if not block.num_rows:
        return ((0, high_water_us), *parts)
    ts = block.column("warc_ts")
    late = block.filter(pc.less_equal(ts, _hw_scalar(high_water_us)))
    if late.num_rows:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, late.schema) as w:
            w.write_table(late)
        name = hashlib.sha256(sink.getvalue()).hexdigest()[:32]
        os.makedirs(dl_dir, exist_ok=True)
        tmp = os.path.join(dl_dir, f".{name}-{os.getpid()}.tmp")
        pq.write_table(late, tmp)
        os.replace(tmp, os.path.join(dl_dir, f"{name}.parquet"))
    newest = pc.max(ts).cast(pa.timestamp("us")).cast(pa.int64()).as_py()
    return ((late.num_rows, max(newest, high_water_us)), *parts)


def split_batch(flat_dataset, high_water_us: int, out_dir: str,
                num_partitions: int, merge_route, p_total: int):
    """The split hop both increment modes share: one plain task per
    source (:func:`_split_source`), dead-lettering each source's late
    rows to one ``dead_letter/`` file named by their content.  The
    sources are the exchange's (:func:`exchange.split_sources`): an
    ``ingest_webtext`` scan's row groups, read in the tasks so no Ray
    Data executor starts, or any other Dataset's blocks.  The driver
    gets only the late counts and newest ``warc_ts``.  Returns
    ``(per-source lists of p_total sub-table refs, late rows, new
    high-water mark)``."""
    sources, recipe = split_sources(flat_dataset)
    split = _split_source.options(num_returns=p_total + 1)
    outs = [split.remote(src, recipe, high_water_us,
                         os.path.join(out_dir, "dead_letter"),
                         num_partitions, merge_route, p_total)
            for src in sources]
    stats = ray.get([o[0] for o in outs])
    return ([o[1:] for o in outs], sum(n for n, _ in stats),
            max((m for _, m in stats), default=high_water_us))


def route_new(block: pa.Table, high_water_us: int, num_partitions: int,
              merge_route) -> pa.Table:
    """Split-hop prep of an increment: keep the rows newer than the mark
    and tag each with its partition (``merge_route``: hot urls go to
    their merge partitions, see :func:`salted_layout`)."""
    new = block.filter(pc.greater(block.column("warc_ts"),
                                  _hw_scalar(high_water_us)))
    return add_bucket_column(new, num_partitions, merge_route=merge_route)


#: one partition's increment task: its new rows through the processor;
#: a partition without rows returns None, nothing loaded or written
_increment_partition = ray.remote(reduce_tables)


def run_increment(out_dir: str, flat_dataset, run_id: str = "incr") -> dict:
    """Apply a new batch of observations to an existing pipeline output.

    One :func:`split_batch` hop, then one task per partition
    (``_increment_partition``): a partition the batch's rows touch is
    loaded, updated and rewritten, any other is neither loaded nor
    written.  The new mark is committed last; readers apply retention
    at it, so the partitions left as they were serve the new window too.
    A store with uncommitted partition files is refused
    (:func:`increment_target`).

    Args:
        out_dir: output directory of a previous ``run_pipeline`` call that
            wrote a run config (see ``write_run_config``).
        flat_dataset: Dataset of new flat rows
            ``url, warc_ts, value, days, dyear``.

    Returns:
        summary dict incl. late-row count (dead-lettered).
    """
    config, P, merge_route, P_total = increment_target(out_dir)
    # strictly-forward contract: rows at or before the mark are late
    parts, late_rows, new_hw = split_batch(
        flat_dataset, config["high_water_us"], out_dir, P, merge_route,
        P_total)
    proc = IncrementProcessor(out_dir, run_id, config, new_hw)
    rows = [r for r in ray.get([_increment_partition.remote(
        proc, None, *[s[pid] for s in parts]) for pid in range(P_total)])
        if r is not None]
    config["high_water_us"] = new_hw
    write_run_config(out_dir, config)
    return {
        "partitions_processed": len(rows),
        "input_rows": int(sum(r["input_rows"] for r in rows)),
        "rollup_points": int(sum(r["rollup_points"] for r in rows)),
        "late_rows": int(late_rows),
        "high_water_us": new_hw,
    }


@ray.remote
def _forget_partition(out_dir: str, run_id: str, config: dict, pid: int,
                      record: dict, urls) -> str | None:
    """Drop ``urls``' rows from partition ``pid``'s committed tables
    (state, alerts, segments and the run ``config``'s tiers, in the
    stored layout, :func:`rollup.stored_rows`; schema metadata kept,
    segments not re-encoded) and commit once over its lineage
    ``record`` at the same mark, tier points recounted; a partition
    left without rows is committed empty.  Returns "emptied",
    "rewritten", or None (nothing written) when the record already
    counts every filtered table's rows — so a rerun also commits a
    partition whose files a crashed forget wrote but did not commit."""
    tiers = {f"rollup_{t['name']}": rollup.TierSpec(**t)
             for t in config["tiers"]}
    tables = ["state", "alerts", "segments", *tiers]
    drop = pa.array(urls, pa.string())
    kept = {name: t.filter(pc.invert(pc.is_in(t.column("url"),
                                              value_set=drop)))
            for name, t in manifest.read_partition(out_dir, pid,
                                                   tables).items()
            if t is not None}
    kept.update({name: rollup.stored_rows(t, tiers[name],
                                          config["high_water_us"])
                 for name, t in kept.items() if name in tiers})
    counts = record.get("row_counts") or {}
    if all(counts.get(name) == t.num_rows for name, t in kept.items()):
        return None
    empty = not any(t.num_rows for t in kept.values())
    points = [rollup.served_counts(t) for name, t in kept.items()
              if name.startswith("rollup_")]
    manifest.persist_partition(
        out_dir, run_id, pid, dict.fromkeys(tables) if empty else kept,
        dict(record, forgotten_empty=True) if empty else record,
        np.sum([(0, 0), *points], axis=0))
    return "emptied" if empty else "rewritten"


def run_forget(out_dir: str, urls, run_id: str = "forget") -> dict:
    """Right-to-be-forgotten: remove ``urls`` from every output artifact
    (state, rollup tiers, segments, alerts), leaving the store as if they
    had never been ingested.  Each url is its own series, so one task
    per owning partition (hash pid ``bucket_of(url, P)``, or merge pid
    ``P + sorted_rank % M`` for a salted hot url) drops their rows
    (:func:`_forget_partition`): no input is read, nothing is rebuilt,
    and a rerun finishes an interrupted forget.

    Before any partition is written, the urls join the run config's
    sorted ``forgotten_urls``: a resumed ``run_pipeline`` (the rebuild
    after ``verify_store(repair=True)``, or a backfill's) drops their
    rows, so no rebuild brings them back.  Increments do not consult
    the list.

    The committed high-water mark stays (a forgotten url may have set
    it; shrinking it would re-classify other urls' ingested rows as
    new), and so does the persisted hot-url list (increment routing).
    A ``hot_series`` directory a salted run left behind (one that died
    before its merges committed, or a store written before runs deleted
    it) holds hot urls' raw sub-series and is deleted wholesale; only
    the append-only ``dead_letter`` audit log is exempt.
    """
    config = read_run_config(out_dir)
    urls = sorted(set(urls))
    records = {r["partition_id"]: r for r in manifest.load_manifest(out_dir)
               if r.get("committed")}
    pids = sorted(set(owning_pids(out_dir, config, urls)) & records.keys())
    forgotten = sorted(set(config.get("forgotten_urls", ())) | set(urls))
    if forgotten != config.get("forgotten_urls"):
        config["forgotten_urls"] = forgotten
        write_run_config(out_dir, config)
    shutil.rmtree(os.path.join(out_dir, "hot_series"), ignore_errors=True)
    done = ray.get([_forget_partition.remote(
        out_dir, run_id, config, pid, records[pid], urls) for pid in pids])
    return {
        "urls_forgotten": len(urls),
        "affected_pids": pids,
        "partitions_rewritten": done.count("rewritten"),
        "partitions_emptied": done.count("emptied"),
    }


@ray.remote
def _late_pids(path: str, num_partitions: int, merge_route):
    """One dead-letter file's row count and the pids its urls route to."""
    t = pq.read_table(path, columns=["url"])
    pid = add_bucket_column(t, num_partitions, merge_route=merge_route) \
        .column("pid").to_numpy(zero_copy_only=False)
    return t.num_rows, set(np.unique(pid).tolist())


def run_backfill(out_dir: str, input_path, run_id: str = "backfill") -> dict:
    """Fold the dead-lettered LATE rows into the committed output by
    rebuilding only the partitions that own them — the repair path for
    the strictly-forward increment contract (``run_increment`` routes
    rows at or below the committed high-water mark to the
    ``dead_letter`` audit table instead of corrupting order-sensitive
    monitor state; this applies them properly, by recomputation).

    ``input_path`` must cover EVERYTHING the run has ingested INCLUDING
    the late rows' source batches (original input plus every increment
    batch, as a list of paths): affected partitions
    rebuild from source, and the dead-letter table is only used to
    locate them (its url set routes to exactly the partitions whose
    state is missing late data: hash pids, and merge pids for a salted
    run's hot urls).  Those are uncommitted and one resumed
    ``run_pipeline`` rebuilds them, routing hot rows to their merge
    partitions as increments do.  The result is identical to a fresh
    one-shot run over the combined input; untouched partitions are never
    recomputed or rewritten.

    On success the applied dead-letter files are moved to
    ``dead_letter_applied/{run_id}/`` (append-only audit, never
    re-applied).  Returns a summary dict.
    """
    from nrt_ray.pipelines import monitor_pipeline as mp

    config = read_run_config(out_dir)
    P = int(config["num_partitions"])
    hot_sorted, m_tasks, _ = salted_layout(out_dir, config)
    mr = (hot_sorted, m_tasks) if m_tasks else None
    dl_dir = os.path.join(out_dir, "dead_letter")
    files = mp.input_files(dl_dir) if os.path.isdir(dl_dir) else []
    if not files:
        return {"late_rows_applied": 0, "partitions_rebuilt": 0,
                "affected_pids": [],
                "high_water_us": int(config["high_water_us"])}

    # affected partitions, one task per dead-letter file: the driver
    # sees at most P+M pids per file, never the url set
    found = ray.get([_late_pids.remote(f, P, mr) for f in files])
    late_rows = sum(n for n, _ in found)
    pids = sorted(set().union(*(p for _, p in found)))
    manifest.uncommit_partitions(out_dir, pids)
    summary = mp.run_pipeline(
        input_path, out_dir, **run_settings(config),
        resume=True, run_id=run_id)

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
        "affected_pids": pids,
        "high_water_us": int(config["high_water_us"]),
    }
