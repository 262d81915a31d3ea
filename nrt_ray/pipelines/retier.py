"""Retier: add a new rollup tier to a committed store by composing it
from a persisted finer tier — plus ``verify_store`` (manifest fsck).

This is the continuous-aggregate maintenance path of the engine
(reference analog: the operational re-aggregation a user of
``/root/reference/docs/deploy.rst`` would script by hand around
``to_netcdf``/``from_netcdf``): the store already holds, say, 1h and 1d
tiers; the operator decides a 1w tier is needed.  Re-running the whole
pipeline would re-read every raw observation; ``run_retier`` instead
reads ONLY the persisted source-tier rows — O(source buckets), no raw
scan, no shuffle (tiers are already url-hash partition-local), one Ray
task per committed partition.

Composition semantics (mergeable sufficient statistics, same contract
the incremental merge documents at ``incremental.py:24-28``):

* a coarse bucket is observed iff ≥1 observed (non-gap-filled) source
  bucket falls in it — exactly the condition under which a fresh
  from-raw run would emit it;
* ``count`` = Σ source counts, ``min``/``max`` = min/max of source
  mins/maxes, ``last`` = last source bucket's last (source rows are
  (url, bucket_ts)-sorted) — all BIT-IDENTICAL to a fresh run;
* ``sum`` = Σ source sums — associativity regrouping of the fresh run's
  time-ordered summation, equal to the last ulp (~1e-15 rel); ``mean``
  and gap-filled interpolated means inherit that tolerance.  This is
  the engine's documented float caveat for any out-of-order
  accumulation, identical to the increment-boundary case.

The source tier is read as served at the store's committed mark, so a
partition no increment rewrote since an older mark composes what a
current one does.  Retention trimming and segment encoding then run
through the SAME kernels as the flagship (`rollup.trim_for_retention`,
`compress.segments_from_rollups`), and the new tier stores observed
buckets only — its gap-fill is derived on read like every tier's — so it
is served by the existing lookup / decode / choose_tier paths with no
special casing.

Resume / idempotence: each partition's manifest record gains a
``tiers_added`` list; a killed retier run skips already-recorded
partitions on re-run, and a second complete run is a no-op (files not
rewritten).  The run config's tier list is extended LAST — only after
every partition committed — so future increments maintain the new tier
atomically with respect to crashes mid-retier.

Validation: the source tier's width must divide the new width and the
source must not have a retention window narrower than the new tier
needs (a 90-day 1h tier cannot back a full-history 1w tier).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from nrt_ray.stages import compress, rollup
from nrt_ray.state import manifest


def compose_rolled(src: pa.Table, width_us: int,
                   high_water_us: int | None):
    """Compose a coarser ``rolled`` dict (rollup_flat layout) from a
    persisted finer tier table, read through :func:`rollup.table_rolled`;
    returns it with the per-series urls.  Only served observations
    count: the source's retention window, at ``high_water_us`` (the
    store's mark; the file's own when None), drops its anchor and any
    older mark's wider window, and so are the gap-filled rows (count==0)
    of a tier file that still holds them."""
    rolled, urls = rollup.table_rolled(src)
    meta = rollup.tier_meta(src, high_water_us)
    if meta is not None:
        tier, hw = meta
        rolled = rollup.apply_retention(rolled, tier.width_us,
                                        tier.retention_us, hw)
    observed = rolled["count"] > 0
    return rollup.regroup({k: v[observed] for k, v in rolled.items()},
                          width_us), urls


def retier_partition(out_dir: str, pid: int, new_tier: rollup.TierSpec,
                     source: str, high_water_us: int | None, run_id: str,
                     record: dict) -> int:
    """Build one partition's new-tier rows + segments from its persisted
    source tier and commit them over its lineage ``record`` (new row
    counts, the new tier's points added to ``metrics``, the tier added
    to ``tiers_added``); returns the new tier's served points."""
    src_path = os.path.join(manifest.partition_dir(
        out_dir, f"rollup_{source}", pid), "part.parquet")
    src = pq.read_table(src_path)
    rolled, urls = compose_rolled(src, new_tier.width_us, high_water_us)
    if high_water_us is None:
        high_water_us = int(rolled["bucket_ts"].max()) \
            if len(rolled["bucket_ts"]) else 0
    rolled = rollup.trim_for_retention(rolled, new_tier.width_us,
                                       new_tier.retention_us,
                                       high_water_us)
    tier_tbl = rollup.stored_tier_table(rolled, urls, new_tier,
                                        high_water_us)

    seg_path = os.path.join(manifest.partition_dir(
        out_dir, "segments", pid), "part.parquet")
    segs = pq.read_table(seg_path)
    # idempotence: drop any earlier rows of this tier before appending
    segs = segs.filter(pc.invert(pc.equal(segs.column("tier"),
                                          new_tier.name)))
    new_segs = compress.segments_from_rollups({new_tier.name: tier_tbl})
    # after the existing rows: the full encode's order once the run
    # config lists the new tier last
    merged = pa.concat_tables([segs, new_segs],
                              promote_options="default")
    served, observed = rollup.served_counts(tier_tbl)
    metrics = record.get("metrics") or {}
    manifest.persist_partition(
        out_dir, run_id, pid,
        {f"rollup_{new_tier.name}": tier_tbl, "segments": merged},
        dict(record, tiers_added=sorted(
            set(record.get("tiers_added", [])) | {new_tier.name})),
        (metrics.get("rollup_points", 0) + served,
         metrics.get("observed_buckets", 0) + observed))
    return served


def run_retier(out_dir: str, new_tier, source: str,
               run_id: str | None = None) -> dict:
    """Add ``new_tier`` (TierSpec or dict) to a committed store, composed
    from persisted tier ``source``.  One Ray task per committed
    partition, each committing its own partition; resumable; updates
    the run config last."""
    import uuid
    from nrt_ray.pipelines.incremental import (read_run_config,
                                               write_run_config)

    if isinstance(new_tier, dict):
        new_tier = rollup.TierSpec(**new_tier)
    cfg = read_run_config(out_dir)
    tiers = {t["name"]: rollup.TierSpec(**t) for t in cfg["tiers"]}
    if new_tier.name in tiers:
        raise ValueError(f"tier {new_tier.name!r} already exists")
    if source not in tiers:
        raise ValueError(f"source tier {source!r} not in store "
                         f"(have {sorted(tiers)})")
    src_spec = tiers[source]
    if new_tier.width_us % src_spec.width_us:
        raise ValueError(
            f"source width {src_spec.width_us} does not divide new tier "
            f"width {new_tier.width_us}: composition would be lossy")
    if src_spec.retention_us is not None and (
            new_tier.retention_us is None
            or new_tier.retention_us > src_spec.retention_us):
        raise ValueError(
            f"source tier {source!r} retains only "
            f"{src_spec.retention_us} us — cannot back a tier retaining "
            f"{new_tier.retention_us}")
    run_id = run_id or uuid.uuid4().hex[:12]
    high_water_us = cfg.get("high_water_us")

    records = {r["partition_id"]: r for r in manifest.load_manifest(out_dir)
               if r.get("committed")}
    todo = [pid for pid, r in sorted(records.items())
            if new_tier.name not in r.get("tiers_added", [])]
    skipped = len(records) - len(todo)

    spec_dict = new_tier.to_dict()
    retier_remote = ray.remote(num_cpus=1)(retier_partition)
    points = sum(ray.get([retier_remote.remote(
        out_dir, pid, rollup.TierSpec(**spec_dict), source, high_water_us,
        run_id, records[pid]) for pid in todo]))

    # config updated LAST: increments start maintaining the tier only
    # once every partition holds it
    cfg["tiers"] = cfg["tiers"] + [spec_dict]
    write_run_config(out_dir, cfg)
    return {"tier": new_tier.name, "source": source,
            "partitions": len(todo), "skipped_partitions": skipped,
            "rollup_points": points, "run_id": run_id}


def verify_store(out_dir: str, repair: bool = False) -> dict:
    """Manifest fsck: re-derive every committed partition's invariants
    from its files and compare against the lineage records.

    Checks per partition: state file present + ``state_checksum``
    matches the record (one committed empty, checksum "", must have no
    file); every per-table row count recorded at commit
    time matches the file on disk (tier files: stored rows, retention
    anchors included); every tier file reads through
    :func:`rollup.table_rolled` (no null it rejects); every segment
    decodes and serves ``n_points``
    points at the mark it was written at.  One Ray task per partition.
    A pid with ``state``/``alerts``/``segments``/``rollup_*`` files but
    no commit record (uncommitted, or written by a run that died before
    committing it) is reported as ``pid N: files present but no commit
    record``.  Returns ``{"partitions": N, "ok": M, "issues": [...]}``,
    ``N`` and ``M`` counting committed partitions.

    ``repair=True`` additionally UNCOMMITS every partition with an
    issue (removes its manifest record): the next resumed
    ``run_pipeline`` over the original input rebuilds exactly the
    uncommitted partitions, hash and merge pids alike (a resumed run
    routes hot urls' rows to their merge partitions) — corruption
    recovery reuses the engine's normal resume path, no special rebuild
    code.  The rebuild drops the run config's ``forgotten_urls``, so a
    partition an interrupted ``run_forget`` left half-written comes back
    without them; rerunning the forget mends it too, without reading
    any input.
    """
    records = {r["partition_id"]: r for r in manifest.load_manifest(out_dir)
               if r.get("committed")}
    tables = ["state", "segments", "alerts"] + sorted(
        t for t in os.listdir(out_dir) if t.startswith("rollup_"))
    on_disk = {int(d.split("=")[1]) for t in tables
               if os.path.isdir(os.path.join(out_dir, t))
               for d in os.listdir(os.path.join(out_dir, t))
               if d.startswith("part=") and os.path.exists(
                   os.path.join(out_dir, t, d, "part.parquet"))}

    def check(pid: int, rec: dict) -> list:
        if rec.get("state_checksum") == "":    # emptied by run_forget
            return [f"pid {pid}: empty partition has a {t} file"
                    for t in tables if os.path.exists(os.path.join(
                        manifest.partition_dir(out_dir, t, pid),
                        "part.parquet"))]
        issues = []
        st_path = os.path.join(manifest.partition_dir(out_dir, "state",
                                                      pid), "part.parquet")
        try:
            state = pq.read_table(st_path)
            got = manifest.state_checksum(state)
            want = rec.get("state_checksum")
            if want and got != want:
                issues.append(f"pid {pid}: state checksum mismatch "
                              f"({got[:12]} != {want[:12]})")
        except OSError as e:
            issues.append(f"pid {pid}: state unreadable: {e}")
        for table, want_rows in (rec.get("row_counts") or {}).items():
            if table in ("input", "series", "hot_rows_deferred",
                         "hot_series"):
                # not persisted as a table, or (hot_series) an
                # intermediate its run deletes once the merges commit
                continue
            p = os.path.join(manifest.partition_dir(out_dir, table, pid),
                             "part.parquet")
            try:
                if table.startswith("rollup_"):
                    t = pq.read_table(p)
                    rollup.table_rolled(t)    # raises on a corrupt row
                    got_rows = t.num_rows
                else:
                    got_rows = pq.read_metadata(p).num_rows
            except (OSError, ValueError) as e:
                issues.append(f"pid {pid}: {table} unreadable: {e}")
                continue
            if got_rows != want_rows:
                issues.append(f"pid {pid}: {table} rows {got_rows} != "
                              f"recorded {want_rows}")
        seg_path = os.path.join(manifest.partition_dir(out_dir, "segments",
                                                       pid), "part.parquet")
        try:
            segs = pq.read_table(seg_path)
            for i in range(segs.num_rows):
                n = segs.column("n_points")[i].as_py()
                try:
                    got = compress.decode_segments_table(
                        segs.slice(i, 1)).num_rows
                except ValueError as e:
                    got = e
                if got != n:
                    issues.append(f"pid {pid}: segment {i} decodes "
                                  f"{got} points, metadata {n}")
                    break
        except OSError:
            pass  # absence already reported via row_counts when recorded
        return issues

    check_remote = ray.remote(num_cpus=1)(check)
    refs = [check_remote.remote(pid, rec)
            for pid, rec in sorted(records.items())]
    issues = [i for chunk in ray.get(refs) for i in chunk] + [
        f"pid {pid}: files present but no commit record"
        for pid in sorted(on_disk - records.keys())]
    bad_pids = sorted({int(i.split(":")[0].split()[1]) for i in issues})
    out = {"partitions": len(records),
           "ok": len(records.keys() - bad_pids),
           "issues": issues}
    if repair and bad_pids:
        out["uncommitted"] = manifest.uncommit_partitions(out_dir,
                                                          bad_pids)
    return out
