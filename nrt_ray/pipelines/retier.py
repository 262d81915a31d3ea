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

import pyarrow as pa

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
                     source: str, tiers, high_water_us: int | None,
                     run_id: str, record: dict) -> int:
    """Build one partition's new-tier rows from its persisted source
    tier and commit them with its ``tiers`` (the run config's, in
    order; earlier layouts converted, :func:`rollup.stored_rows`) over
    its lineage ``record`` (new row counts, the new tier's points added
    to ``metrics``, the tier added to ``tiers_added``), its segments
    encoded whole from all of them, the new tier last; returns the new
    tier's served points."""
    got = manifest.read_partition(out_dir, pid,
                                  [f"rollup_{t.name}" for t in tiers])
    stored = {t.name: rollup.stored_rows(got[f"rollup_{t.name}"], t,
                                         high_water_us) for t in tiers}
    rolled, urls = compose_rolled(stored[source], new_tier.width_us,
                                  high_water_us)
    if high_water_us is None:
        high_water_us = int(rolled["bucket_ts"].max()) \
            if len(rolled["bucket_ts"]) else 0
    rolled = rollup.trim_for_retention(rolled, new_tier.width_us,
                                       new_tier.retention_us,
                                       high_water_us)
    stored[new_tier.name] = rollup.stored_tier_table(
        rolled, urls, new_tier, high_water_us)
    served, observed = rollup.served_counts(stored[new_tier.name])
    metrics = record.get("metrics") or {}
    manifest.persist_partition(
        out_dir, run_id, pid,
        {**{f"rollup_{name}": t for name, t in stored.items()},
         "segments": compress.segments_from_rollups(stored)},
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

    # a partition committed empty (run_forget) gets no tier files
    records = {r["partition_id"]: r for r in manifest.load_manifest(out_dir)
               if r.get("committed") and r.get("state_checksum") != ""}
    todo = [pid for pid, r in sorted(records.items())
            if new_tier.name not in r.get("tiers_added", [])]
    skipped = len(records) - len(todo)

    spec_dict = new_tier.to_dict()
    retier_remote = ray.remote(num_cpus=1)(retier_partition)
    points = sum(ray.get([retier_remote.remote(
        out_dir, pid, rollup.TierSpec(**spec_dict), source,
        list(tiers.values()), high_water_us, run_id, records[pid])
        for pid in todo]))

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

    Checks per partition: ``state_checksum`` matches the record (one
    committed empty, checksum "", must have no file); every per-table
    row count recorded at commit time matches the file on disk (tier
    tables, read through the ``rollup`` file: stored rows, retention
    anchors included); every tier table reads through
    :func:`rollup.table_rolled` (no null it rejects); the ``rollup``
    file holds every run-config tier, and no ``rollup_{tier}`` file of
    the earlier layout sits beside it; every segment decodes and serves
    ``n_points`` points at the mark it was written at.  One Ray task
    per partition.  A record whose
    ``high_water_us`` is ahead of ``run.json``'s (a driver that died
    between the partition commits and the run config) is an issue, and
    so is a pid in :func:`manifest.uncommitted_pids` (``pid N: files
    present but no commit record``).  Returns ``{"partitions": N,
    "ok": M, "issues": [...]}``, ``N`` and ``M`` counting committed
    partitions.

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
    from nrt_ray.pipelines.incremental import read_run_config

    records = {r["partition_id"]: r for r in manifest.load_manifest(out_dir)
               if r.get("committed")}
    try:
        config = read_run_config(out_dir)
    except FileNotFoundError:
        config = {"tiers": []}
    tiers = [f"rollup_{t['name']}" for t in config["tiers"]]
    tables = ["state", "segments", "alerts", *tiers]

    def check(pid: int, rec: dict) -> list:
        def read(names) -> dict:
            """The committed tables (None if absent): each other table
            on its own, the tiers together; the error for one that does
            not read."""
            joint = [n for n in names if n.startswith("rollup_")]
            got = {}
            for group in [[n] for n in names if n not in joint] + [joint]:
                try:
                    got.update(manifest.read_partition(out_dir, pid, group))
                except (OSError, ValueError, KeyError) as e:
                    got.update(dict.fromkeys(group, e))
            for name in joint:
                try:
                    if isinstance(got[name], pa.Table):
                        rollup.table_rolled(got[name])  # a corrupt row
                except ValueError as e:
                    got[name] = e
            return got

        if rec.get("state_checksum") == "":    # emptied by run_forget
            return [f"pid {pid}: empty partition has a {t} file"
                    for t, v in read(tables).items() if v is not None]
        # the recorded row counts of persisted tables (hot_series is an
        # intermediate its run deletes once the merges commit)
        counts = {k: v for k, v in (rec.get("row_counts") or {}).items()
                  if k not in ("input", "series", "hot_rows_deferred",
                               "hot_series")}
        got = read(sorted({"state", "segments", *counts}))
        issues = []
        try:
            held, legacy = manifest.rollup_layout(out_dir, pid)
        except (OSError, ValueError, KeyError):
            held, legacy = None, []     # listed as unreadable tiers
        if held is not None:
            issues += [f"pid {pid}: rollup file lacks tier {t}"
                       for t in tiers if t not in held]
            if legacy:
                issues.append(f"pid {pid}: rollup file and earlier-layout "
                              f"tier files {legacy}")
        state, want = got["state"], rec.get("state_checksum")
        if isinstance(state, pa.Table) and want and \
                (have := manifest.state_checksum(state)) != want:
            issues.append(f"pid {pid}: state checksum mismatch "
                          f"({have[:12]} != {want[:12]})")
        # a missing or unreadable state is listed by its row count
        for name, want_rows in counts.items():
            t = got[name]
            if not isinstance(t, pa.Table):
                issues.append(f"pid {pid}: {name} unreadable: "
                              f"{t or 'no file'}")
            elif t.num_rows != want_rows:
                issues.append(f"pid {pid}: {name} rows {t.num_rows} != "
                              f"recorded {want_rows}")
        segs = got["segments"]       # absent or unreadable: listed above
        for i in range(segs.num_rows if isinstance(segs, pa.Table) else 0):
            n = segs.column("n_points")[i].as_py()
            try:
                points = compress.decode_segments_table(
                    segs.slice(i, 1)).num_rows
            except ValueError as e:
                points = e
            if points != n:
                issues.append(f"pid {pid}: segment {i} decodes "
                              f"{points} points, metadata {n}")
                break
        return issues

    check_remote = ray.remote(num_cpus=1)(check)
    refs = [check_remote.remote(pid, rec)
            for pid, rec in sorted(records.items())]
    hw = config.get("high_water_us")
    issues = [i for chunk in ray.get(refs) for i in chunk] + [
        f"pid {pid}: committed mark {r['high_water_us']} is ahead of "
        f"run.json's {hw}" for pid, r in sorted(records.items())
        if hw is not None and r.get("high_water_us") is not None
        and r["high_water_us"] > hw] + [
        f"pid {pid}: files present but no commit record"
        for pid in manifest.uncommitted_pids(out_dir)]
    bad_pids = sorted({int(i.split(":")[0].split()[1]) for i in issues})
    out = {"partitions": len(records),
           "ok": len(records.keys() - bad_pids),
           "issues": issues}
    if repair and bad_pids:
        out["uncommitted"] = manifest.uncommit_partitions(out_dir,
                                                          bad_pids)
    return out
