"""Inverted-index sink: token → postings, as a resumable partitioned
Parquet output.

The classic training-data side artifact (corpus search, df lookups,
stopword mining) built with the engine's standard machinery: per-batch
(token, doc_id, tf) combiner partials → the two-phase hash exchange on
``hash(token) % P`` → per-partition postings assembly written with the
same atomic-commit + manifest protocol the monitor state sink uses
(`nrt_ray/state/manifest.py`), so a killed build resumes by skipping
committed partitions.  Postings are ``list<int64>`` doc ids (sorted) +
parallel term-frequency lists — one parquet file per partition, never
one giant file.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from nrt_ray.pipelines.textops import (_doc_tokens, _pair_counts,
                                       _read_docs, md5_low64)
from nrt_ray.stages.exchange import exchange_map_groups
from nrt_ray.state import manifest


def _posting_partial(nparts: int, done: frozenset):
    """Batch → (token, doc_id, tf, pid) rows; committed partitions are
    dropped at the source (resume prunes before the shuffle)."""

    def fn(batch: pa.Table) -> pa.Table:
        flat, doc_idx = _doc_tokens(batch)
        empty = pa.table({"token": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64()),
                          "tf": pa.array([], pa.int64()),
                          "pid": pa.array([], pa.int32())})
        if not len(flat):
            return empty
        uniq_tok, d, tok_of_pair, tf = _pair_counts(flat, doc_idx)
        hp = np.fromiter((md5_low64(t.encode()) for t in uniq_tok),
                         dtype=np.uint64, count=len(uniq_tok))
        pid_of_tok = (hp % np.uint64(nparts)).astype(np.int32)
        pid = pid_of_tok[tok_of_pair]
        keep = ~np.isin(pid, np.array(sorted(done), dtype=np.int32)) \
            if done else np.ones(len(pid), dtype=bool)
        if not keep.any():
            return empty
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "token": pa.array(uniq_tok[tok_of_pair[keep]].astype(object),
                              pa.string()),
            "doc_id": pa.array(doc_ids[d[keep]], pa.int64()),
            "tf": pa.array(tf[keep].astype(np.int64)),
            "pid": pa.array(pid[keep]),
        })

    return fn


def _assemble_postings(tbl: pa.Table) -> pa.Table:
    """One partition's (token, doc_id, tf) rows → postings table."""
    tok = np.asarray(tbl["token"].to_pylist(), dtype=object)
    did = tbl["doc_id"].to_numpy(zero_copy_only=False)
    tf = tbl["tf"].to_numpy(zero_copy_only=False)
    order = np.lexsort((did, tok))
    tok, did, tf = tok[order], did[order], tf[order]
    new = np.empty(len(tok), dtype=bool)
    new[0] = True
    new[1:] = tok[1:] != tok[:-1]
    starts = np.flatnonzero(new)
    offsets = np.append(starts, len(tok)).astype(np.int32)
    df = np.diff(offsets).astype(np.int64)
    return pa.table({
        "token": pa.array(tok[starts].astype(object), pa.string()),
        "df": pa.array(df),
        "doc_ids": pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(did, pa.int64())),
        "tfs": pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(tf, pa.int64())),
    })


def build_inverted_index(sf_dir: str, out_dir: str,
                         num_partitions: int = 8,
                         run_id: str = "index") -> dict:
    """Build (or resume) the index; returns a summary dict."""
    manifest.check_partitioning(out_dir, num_partitions)
    done = frozenset(manifest.committed_partitions(out_dir))
    todo = num_partitions - len(done)
    if todo == 0:
        return {"partitions_processed": 0,
                "partitions_skipped": num_partitions}

    ds = _read_docs(sf_dir, columns=("doc_id", "text")) \
        .map_batches(_posting_partial(num_partitions, done),
                     batch_format="pyarrow")

    def write_partition(tbl: pa.Table) -> pa.Table:
        pid = int(tbl["pid"][0].as_py())
        out = _assemble_postings(tbl)
        manifest.write_partition_table(out_dir, "index", pid, out)
        manifest.commit_partition(out_dir, run_id, pid, {
            "num_partitions": num_partitions,
            "n_tokens": out.num_rows,
            "n_postings": int(out["df"].to_numpy().sum()),
        })
        return pa.table({"pid": pa.array([pid], pa.int32()),
                         "n_tokens": pa.array([out.num_rows], pa.int64())})

    results = exchange_map_groups(ds, num_partitions, write_partition)
    return {"partitions_processed": len(results),
            "partitions_skipped": len(done)}


def read_index(out_dir: str):
    """The written index as a Dataset (one block per partition file)."""
    return ray.data.read_parquet(manifest.committed_files(out_dir, "index"))


_INDEX_CACHE: dict = {}


def inverted_index_stats(sf_dir: str):
    """Build the index into a scratch dir (once per input per session),
    read it BACK from parquet, and fold postings stats — the oracle
    recomputes them straight from ``documents``, so a match validates
    the whole sink round-trip (partial → exchange → postings assembly →
    atomic write → read)."""
    import tempfile
    out_dir = _INDEX_CACHE.get(sf_dir)
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="nrt_ray_invindex_")
        build_inverted_index(sf_dir, out_dir)
        _INDEX_CACHE[sf_dir] = out_dir

    def stats_partial(batch: pa.Table) -> pa.Table:
        df = batch["df"].to_numpy(zero_copy_only=False)
        occ = batch["tfs"].combine_chunks().flatten() \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "n_tokens": pa.array([batch.num_rows], pa.int64()),
            "n_postings": pa.array([int(df.sum())], pa.int64()),
            "max_df": pa.array([int(df.max()) if len(df) else 0],
                               pa.int64()),
            "total_occurrences": pa.array([int(occ.sum())], pa.int64()),
        })

    s = read_index(out_dir).map_batches(
        stats_partial, batch_format="pyarrow").to_pandas()
    return pa.table({
        "n_tokens": pa.array([int(s["n_tokens"].sum())], pa.int64()),
        "n_postings": pa.array([int(s["n_postings"].sum())], pa.int64()),
        "max_df": pa.array([int(s["max_df"].max())], pa.int64()),
        "total_occurrences": pa.array([int(s["total_occurrences"].sum())],
                                      pa.int64()),
    })
