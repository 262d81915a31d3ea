"""CLI surface smoke: each subcommand runs in a subprocess (the CLI owns
its own Ray session) and prints one parseable JSON summary line."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: the checkout these tests run from: the CLI subprocesses import it
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=ROOT)
    out = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli"] + args + ["--num-cpus", "4"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_run_stream_increment_report(tmp_path):
    d = str(tmp_path)
    gen = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "generate",
         "--out", "wt", "--urls", "60"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=300)
    assert gen.returncode == 0, gen.stderr[-2000:]
    info = json.loads(gen.stdout.strip().splitlines()[-1])
    assert info["n_urls"] == 60

    # chronological split for the streaming path
    t = pq.read_table(os.path.join(d, "wt", "webtext.parquet"))
    cut = pa.scalar(int(np.datetime64("2021-09-01", "us")
                        .astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    pq.write_table(t.filter(pc.less_equal(t.column("warc_ts"), cut)),
                   os.path.join(d, "early.parquet"))
    pq.write_table(t.filter(pc.greater(t.column("warc_ts"), cut)),
                   os.path.join(d, "late.parquet"))

    s = _run(["run", "--input", "early.parquet", "--out", "out",
              "--strategy", "CUSUM", "--partitions", "3"], d)
    assert s["partitions_processed"] == 3 and s["series"] == 60

    # resume: everything committed → nothing recomputed
    s2 = _run(["run", "--input", "early.parquet", "--out", "out",
               "--strategy", "CUSUM", "--partitions", "3"], d)
    assert s2["partitions_processed"] == 0 and s2["partitions_skipped"] == 3

    st = _run(["stream", "--inputs", "late.parquet", "--out", "out",
               "--pool", "2"], d)
    assert st["input_rows"] > 0 and st["late_rows"] == 0
    assert st["partitions_flushed"] == 3

    # replaying the same rows is all-late now → dead-lettered
    i = _run(["increment", "--input", "late.parquet", "--out", "out"], d)
    assert i["input_rows"] == 0 and i["late_rows"] > 0

    # with scan pruning the already-ingested rows are never read at all
    i2 = _run(["increment", "--input", "late.parquet", "--out", "out",
               "--prune-ingested"], d)
    assert i2["input_rows"] == 0 and i2["late_rows"] == 0

    # stats: manifest summary (no Ray session — returns immediately)
    stat = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "stats", "--out", "out"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=60)
    assert stat.returncode == 0, stat.stderr[-2000:]
    sm = json.loads(stat.stdout.strip().splitlines()[-1])
    assert sm["partitions_committed"] == 3
    # after stream+increment the latest commits are increment records,
    # whose row_counts carry input/series (state rows live in the tables)
    assert sm["row_counts"]["input"] >= 0 and "runs" in sm

    rep = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "report", "--out", "out",
         "--k", "3", "--num-cpus", "4"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=300)
    assert rep.returncode == 0, rep.stderr[-2000:]
    lines = [ln for ln in rep.stdout.strip().splitlines()
             if ln.startswith("{")]
    assert 0 < len(lines) <= 3
    assert "url" in json.loads(lines[0])


def test_cli_decode_range_matches_filtered_full(tmp_path):
    d = str(tmp_path)
    gen = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "generate",
         "--out", "wt", "--urls", "40"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=300)
    assert gen.returncode == 0, gen.stderr[-2000:]
    _run(["run", "--input", "wt/webtext.parquet", "--out", "out",
          "--strategy", "EWMA", "--partitions", "2"], d)

    full = _run(["decode", "--out", "out", "--dest", "dec_full",
                 "--tier", "1d"], d)
    rng = _run(["decode", "--out", "out", "--dest", "dec_rng",
                "--tier", "1d", "--t0", "2022-03-01",
                "--t1", "2022-04-01"], d)
    assert 0 < rng["points"] < full["points"]

    import pyarrow.dataset as pds
    t0 = pa.scalar(int(np.datetime64("2022-03-01", "us")
                       .astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    t1 = pa.scalar(int(np.datetime64("2022-04-01", "us")
                       .astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    ft = pds.dataset(os.path.join(d, "dec_full")).to_table()
    ft = ft.filter(pc.and_(pc.greater_equal(ft.column("bucket_ts"), t0),
                           pc.less(ft.column("bucket_ts"), t1)))
    rt = pds.dataset(os.path.join(d, "dec_rng")).to_table()
    key = [("url", "ascending"), ("bucket_ts", "ascending")]
    ft = ft.take(pc.sort_indices(ft, sort_keys=key))
    rt = rt.take(pc.sort_indices(rt, sort_keys=key))
    assert ft.equals(rt.select(ft.column_names).cast(ft.schema))


def test_cli_query_subcommand(tmp_path):
    d = str(tmp_path)
    env = dict(os.environ, PYTHONPATH=ROOT)
    ls = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "query", "--list"],
        cwd=d, env=env, capture_output=True, text=True, timeout=120)
    assert ls.returncode == 0
    names = ls.stdout.split()
    assert "rollup_1d_events" in names and len(names) > 100

    out = _run(["query", "rollup_1d_events",
                "--sf-dir", "/root/testdata/sf0.001", "--head", "2"], d)
    assert out["query"] == "rollup_1d_events"
    assert out["rows"] > 0 and len(out["head"]) == 2
    assert "bucket_ts" in out["columns"]

    # unknown name fails loudly
    bad = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "query", "nope",
         "--sf-dir", "/tmp", "--num-cpus", "4"],
        cwd=d, env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode != 0 and "unknown name" in bad.stderr


def test_cli_retier_fsck(tmp_path):
    d = str(tmp_path)
    gen = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "generate",
         "--out", "wt", "--urls", "20", "--seed", "9"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=300)
    assert gen.returncode == 0, gen.stderr[-2000:]
    _run(["run", "--input", "wt/webtext.parquet", "--out", "out",
          "--strategy", "CUSUM", "--partitions", "3"], d)
    stat = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "stats", "--out", "out"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=60)
    sm = json.loads(stat.stdout.strip().splitlines()[-1])
    # served tier points (observed + fill) and the observed among them
    assert 0 < sm["observed_buckets"] < sm["rollup_points"]
    # bytes: each table's committed partition files, summed; the tiers
    # share one rollup file per partition and keep their rows per tier
    assert sm["bytes"] == {t: sum(
        os.path.getsize(os.path.join(d, "out", t, f"part={pid}",
                                     "part.parquet")) for pid in range(3))
        for t in ("alerts", "rollup", "segments", "state")}
    assert all(sm["row_counts"][f"rollup_{t}"] > 0
               for t in ("1h", "1d", "1w"))
    # codec mix: every segment row of a fresh store is dec coded
    assert sm["codecs"] == {"dod+dec4": sm["row_counts"]["segments"]}

    s = _run(["retier", "--out", "out", "--tier", "4w",
              "--width-s", str(4 * 7 * 86400), "--source", "1w"], d)
    assert s["partitions"] == 3 and s["rollup_points"] > 0

    rep = _run(["fsck", "--out", "out"], d)
    assert rep["partitions"] == 3 and rep["ok"] == 3 and not rep["issues"]

    # the decode path serves the new tier
    dec = _run(["decode", "--out", "out", "--tier", "4w",
                "--dest", "dec"], d)
    assert dec["points"] == s["rollup_points"]


def test_cli_forget_reads_no_input_then_fsck(tmp_path):
    """``forget`` takes no ``--input``: the store's input is deleted
    first, the urls leave every table (a retiered tier included), and
    ``fsck`` finds the store consistent."""
    import shutil

    d = str(tmp_path)
    gen = subprocess.run(
        [sys.executable, "-m", "nrt_ray.cli", "generate",
         "--out", "wt", "--urls", "20", "--seed", "9"],
        cwd=d, env=dict(os.environ, PYTHONPATH=ROOT),
        capture_output=True, text=True, timeout=300)
    assert gen.returncode == 0, gen.stderr[-2000:]
    _run(["run", "--input", "wt/webtext.parquet", "--out", "out",
          "--strategy", "CUSUM", "--partitions", "3"], d)
    _run(["retier", "--out", "out", "--tier", "4w",
          "--width-s", str(4 * 7 * 86400), "--source", "1w"], d)
    urls = sorted(set(pq.read_table(os.path.join(
        d, "wt", "webtext.parquet"), columns=["url"])
        .column("url").to_pylist()))[:2]
    shutil.rmtree(os.path.join(d, "wt"))

    s = _run(["forget", "--out", "out", "--urls"] + urls, d)
    assert s["urls_forgotten"] == 2
    assert s["partitions_rewritten"] + s["partitions_emptied"] >= 1
    for table in ("state", "alerts", "segments", "rollup"):  # 4w included
        left = pq.read_table(os.path.join(d, "out", table),
                             columns=["url"]).column("url").to_pylist()
        assert not set(left) & set(urls), table

    rep = _run(["fsck", "--out", "out"], d)
    assert rep["partitions"] == 3 and rep["ok"] == 3 and not rep["issues"]
