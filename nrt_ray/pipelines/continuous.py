"""Continuous monitoring: a stateful actor pool over micro-batches.

``run_increment`` (pipelines/incremental.py) is the discrete-job mode:
every invocation re-reads each partition's checkpointed state/rollup
parquet from storage and writes it back.  That is the right default for
cron-style ingestion (reference analog: ``/root/reference/docs/deploy.rst``
:404-428 runs ``monitor()`` from a fresh process per acquisition), but a
near-real-time deployment applying many small micro-batches pays the
checkpoint round-trip per batch.

This module is the actor-pool mode the north rule names: long-lived
``PartitionMonitorActor``s each own a fixed subset of the pinned
``hash(url) % P`` partitions and keep those partitions' monitor state and
rollup tiers CACHED IN MEMORY between micro-batches.  A micro-batch is
routed through the same split hop as ``run_increment``
(``incremental.split_batch`` — zero-copy per-pid slices), each slice
is sent to its owning actor, and the actor applies it sequentially
(Ray actor tasks from one caller execute in submission order, preserving
the order-sensitive monitor recursion).  ``checkpoint()`` flushes dirty
partitions through the normal atomic manifest commit, so a crash between
checkpoints loses at most the un-flushed micro-batches — the same
replay-from-manifest contract as the discrete mode (re-ingest anything
newer than the committed high-water mark).  Segments only reach disk at
a checkpoint, so they are encoded there, once per dirty partition, from
all of its tiers.  A partition is loaded when a batch first touches it.

Scale notes: partition→actor assignment is static (``pid % pool``), so a
partition's state never moves between nodes; micro-batch routing ships
only each partition's slice of the new rows (not state); actors hold
``P/pool`` partitions' state in heap — size the pool so a node's share of
the state table fits comfortably (state rows are a few hundred bytes per
url).  Late rows are dead-lettered against the IN-MEMORY high-water mark,
which leads the committed one between checkpoints.
"""

from __future__ import annotations

import pyarrow as pa

import ray

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines.relational import pool_size


@ray.remote
class PartitionMonitorActor:
    """Owns a fixed set of partitions; caches their artifacts in memory.

    ``apply`` / ``checkpoint`` are actor methods: per-actor execution is
    serial, so state updates for a partition are applied in exactly the
    order the driver submitted them.
    """

    def __init__(self, out_dir: str, config: dict):
        self.proc = inc.IncrementProcessor(out_dir, run_id="continuous",
                                           config=config,
                                           new_high_water_us=0)
        # pid -> artifacts (``load_partition``'s shape)
        self.cache: dict[int, dict] = {}
        # dirty pid -> (its newest artifacts, the mark they were built at)
        self.pending: dict[int, tuple[dict, int]] = {}

    def _artifacts(self, pid: int) -> dict:
        if pid not in self.cache:
            # first contact with an uncheckpointed pid: empty artifacts
            self.cache[pid] = self.proc.load_partition(pid)
        return self.cache[pid]

    def apply(self, pid: int, new_hw_us: int, *tables) -> dict | None:
        """Apply one micro-batch's slice for ``pid``; returns summary, or
        None for a slice without rows (the partition is left as it is:
        readers apply retention at the store's mark)."""
        import time
        t0 = time.perf_counter()
        parts = [t for t in tables if t is not None and t.num_rows]
        if not parts:
            return None
        self.proc.new_hw = new_hw_us
        art = self.proc.update_partition(pa.concat_tables(parts),
                                         self._artifacts(pid))
        # cache the new artifacts for the next micro-batch (what
        # load_partition would return)
        self.cache[pid] = {"state": art["state"], "tiers": art["tiers"]}
        self.pending[pid] = art, new_hw_us
        return {"pid": pid, "input_rows": art["input_rows"],
                "rollup_points": art["rollup_points"],
                "elapsed_s": round(time.perf_counter() - t0, 4)}

    def checkpoint(self, run_id: str) -> list[dict]:
        """Flush dirty partitions via atomic writes + manifest commits,
        encoding each one's segments; each commit records the mark of
        the last batch that touched it, which its tiers are trimmed at."""
        out = []
        self.proc.run_id = run_id
        for pid in sorted(self.pending):
            art, self.proc.new_hw = self.pending.pop(pid)
            checksum = self.proc.persist_partition(pid, art)
            out.append({"pid": pid, "state_checksum": checksum})
        return out


class ContinuousMonitor:
    """Driver-side handle for the actor-pool continuous mode.

    A micro-batch updates only the partitions its rows route to; a
    partition without rows is neither touched nor flushed, and serves
    the newer window anyway, because readers apply retention at the
    mark the checkpoint commits.  Like ``run_increment``, it refuses a
    store with uncommitted partition files
    (:func:`incremental.increment_target`).

    Usage::

        cm = ContinuousMonitor(out_dir)          # resume from checkpoint
        for micro_batch in stream:               # Datasets of flat rows
            cm.ingest(micro_batch)
        cm.checkpoint()                          # atomic commit
        cm.close()
    """

    def __init__(self, out_dir: str, pool: int | None = None):
        self.out_dir = out_dir
        self.config, self.P, self._merge_route, self.P_total = \
            inc.increment_target(out_dir)
        self.high_water_us = int(self.config["high_water_us"])
        if pool is None:
            # one actor per core by default: actors are the unit of both
            # parallelism AND state residency here (each holds P/pool
            # partitions' cached state), unlike a transient task pool
            cpus = int(ray.cluster_resources().get("CPU", 0)) \
                if ray.is_initialized() else 0
            pool = max(pool_size(), cpus)
        self.pool = max(1, min(pool, self.P_total))
        self.actors = [PartitionMonitorActor.remote(out_dir, self.config)
                       for _ in range(self.pool)]
        self.batches_applied = 0

    # -- ingestion ------------------------------------------------------

    def ingest(self, flat_dataset) -> dict:
        """Apply one micro-batch (Dataset of flat rows
        ``url, warc_ts, value, days, dyear``) through
        ``incremental.split_batch`` and the owning actors; returns a
        summary."""
        parts, late_rows, new_hw = inc.split_batch(
            flat_dataset, self.high_water_us, self.out_dir, self.P,
            self._merge_route, self.P_total)
        refs = [self.actors[pid % self.pool].apply.remote(
                    pid, new_hw, *[s[pid] for s in parts])
                for pid in range(self.P_total)]
        summaries = [s for s in ray.get(refs) if s is not None]
        self.high_water_us = new_hw
        self.batches_applied += 1
        return {
            "input_rows": int(sum(s["input_rows"] for s in summaries)),
            "rollup_points": int(sum(s["rollup_points"]
                                     for s in summaries)),
            "late_rows": int(late_rows),
            "high_water_us": new_hw,
            # machine-speed-independent work measure (pair-validity
            # signal for the pinned scaling protocol)
            "apply_task_seconds": round(
                float(sum(s["elapsed_s"] for s in summaries)), 3),
        }

    # -- durability -----------------------------------------------------

    def checkpoint(self, run_id: str = "continuous") -> dict:
        """Flush all cached dirty partitions + commit the new high-water
        mark; after this, a crash replays nothing."""
        commits = ray.get([a.checkpoint.remote(run_id)
                           for a in self.actors])
        flushed = [c for per_actor in commits for c in per_actor]
        self.config["high_water_us"] = self.high_water_us
        inc.write_run_config(self.out_dir, self.config)
        return {"partitions_flushed": len(flushed),
                "high_water_us": self.high_water_us}

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
