"""Command-line entry points.

Examples::

    # full run (resumable — rerun after a kill and committed partitions
    # are skipped)
    python -m nrt_ray.cli run --input /data/webtext --out /data/out \
        --strategy EWMA --monitor-start 2021-01-01 --partitions 128

    # incremental ingest of new snapshots against the same output
    python -m nrt_ray.cli increment --input /data/new_crawl --out /data/out

    # top-k most recent confirmed breaks
    python -m nrt_ray.cli report --out /data/out --k 50

    # deterministic synthetic input (tests / benchmarks)
    python -m nrt_ray.cli generate --out /tmp/webtext --urls 5000

Owns its Ray session (guarded init + shutdown), unlike the library code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="nrt_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="full fit+monitor+rollup pipeline")
    run.add_argument("--input", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--strategy", default="EWMA",
                     choices=["EWMA", "CUSUM", "MOSUM", "CCDC", "IQR"])
    run.add_argument("--monitor-start", default="2021-01-01")
    run.add_argument("--fit-method", default=None,
                     choices=["OLS", "RIRLS", "LASSO", "ROC",
                              "CCDC-stable"],
                     help="override the strategy's default history fit")
    run.add_argument("--lam", type=float, default=None,
                     help="LASSO penalty (only with --fit-method LASSO)")
    run.add_argument("--partitions", type=int, default=64)
    run.add_argument("--no-resume", action="store_true")
    run.add_argument("--verify-extract", action="store_true")
    run.add_argument("--num-cpus", type=int, default=None)
    run.add_argument("--reduce-cpus", type=float, default=1.0,
                     help="logical CPUs per fused reduce task "
                          "(memory-bandwidth sizing; results identical)")

    inc = sub.add_parser("increment", help="apply new snapshots to an "
                                           "existing output")
    inc.add_argument("--input", required=True)
    inc.add_argument("--out", required=True)
    inc.add_argument("--prune-ingested", action="store_true",
                     help="push the committed high-water mark into the "
                          "parquet scan (row groups at/below it are "
                          "never read; skips the late-row dead-letter "
                          "audit for pruned rows)")
    inc.add_argument("--num-cpus", type=int, default=None)

    st = sub.add_parser("stream", help="continuous mode: apply inputs as "
                                       "successive micro-batches through "
                                       "the stateful actor pool, "
                                       "checkpointing every K batches")
    st.add_argument("--inputs", nargs="+", required=True,
                    help="parquet files/dirs applied in order")
    st.add_argument("--out", required=True,
                    help="output dir of a previous `run` (state is "
                         "resumed from its checkpoint)")
    st.add_argument("--pool", type=int, default=None,
                    help="actor pool size (default: cpu-based)")
    st.add_argument("--checkpoint-every", type=int, default=0,
                    help="flush every K micro-batches (0 = only at end)")
    st.add_argument("--num-cpus", type=int, default=None)

    fg = sub.add_parser("forget", help="right-to-be-forgotten: remove "
                                       "urls from every output artifact "
                                       "by filtering the owning "
                                       "partitions' committed tables "
                                       "(no input is read)")
    fg.add_argument("--out", required=True)
    fg.add_argument("--urls", nargs="+", default=None)
    fg.add_argument("--urls-file", default=None,
                    help="newline-delimited url list")
    fg.add_argument("--num-cpus", type=int, default=None)

    bf = sub.add_parser("backfill", help="apply dead-lettered late rows "
                                         "by rebuilding only the owning "
                                         "partitions")
    bf.add_argument("--input", required=True, nargs="+",
                    help="ALL ingested input parquet paths (original + "
                         "increment batches, incl. the late rows' source)")
    bf.add_argument("--out", required=True)
    bf.add_argument("--num-cpus", type=int, default=None)

    lu = sub.add_parser("lookup", help="O(1)-partition point lookup: "
                                       "one url's state, alert count "
                                       "and per-tier latest points")
    lu.add_argument("--out", required=True)
    lu.add_argument("--url", required=True)
    lu.add_argument("--t0", default=None,
                    help="with --t1: return the url's points over "
                         "[t0, t1) from the auto-selected tier")
    lu.add_argument("--t1", default=None)
    lu.add_argument("--max-points", type=int, default=500)

    rep = sub.add_parser("report", help="top-k recent confirmed breaks")
    rep.add_argument("--out", required=True)
    rep.add_argument("--k", type=int, default=100)
    rep.add_argument("--num-cpus", type=int, default=None)

    sts = sub.add_parser("stats", help="manifest summary: committed "
                                       "partitions, rows, metrics, bytes")
    sts.add_argument("--out", required=True)

    rt = sub.add_parser("retier", help="add a rollup tier to a committed "
                                       "store, composed from a persisted "
                                       "finer tier (no raw re-scan)")
    rt.add_argument("--out", required=True)
    rt.add_argument("--tier", required=True,
                    help="new tier name (1h/1d/1w, or any name with "
                         "--width-s)")
    rt.add_argument("--source", required=True,
                    help="existing tier to compose from; its width must "
                         "divide the new tier's")
    rt.add_argument("--width-s", type=int, default=None,
                    help="new tier bucket width in seconds (defaults to "
                         "the builtin width for 1h/1d/1w names)")
    rt.add_argument("--retention-days", type=int, default=None)
    rt.add_argument("--max-gap", type=int, default=None)
    rt.add_argument("--no-gapfill", action="store_true")
    rt.add_argument("--num-cpus", type=int, default=None)

    fs = sub.add_parser("fsck", help="verify a store against its lineage "
                                     "records: state checksums, per-table "
                                     "row counts, segment metadata")
    fs.add_argument("--out", required=True)
    fs.add_argument("--repair", action="store_true",
                    help="uncommit damaged partitions so the next "
                         "resumed run rebuilds exactly them")
    fs.add_argument("--num-cpus", type=int, default=None)

    dec = sub.add_parser("decode", help="decode compressed segments back "
                                        "to rollup points (parquet out)")
    dec.add_argument("--out", required=True,
                     help="pipeline output dir (reads its segments)")
    dec.add_argument("--tier", default=None)
    dec.add_argument("--max-points", type=int, default=None,
                     help="auto-select the finest tier whose point "
                          "count over [--t0, --t1) fits this budget "
                          "(overrides --tier; needs both bounds)")
    dec.add_argument("--t0", default=None,
                     help="ISO start (inclusive): prune segments by "
                          "metadata, never decoding out-of-range "
                          "payloads")
    dec.add_argument("--t1", default=None,
                     help="ISO end (exclusive)")
    dec.add_argument("--dest", required=True,
                     help="destination parquet directory")
    dec.add_argument("--num-cpus", type=int, default=None)

    gen = sub.add_parser("generate", help="seeded synthetic webtext table")
    gen.add_argument("--out", required=True)
    gen.add_argument("--urls", type=int, default=512)
    gen.add_argument("--seed", type=int, default=42)

    cur = sub.add_parser("curate", help="corpus curation: quality band + "
                                        "exact/near dedup + decontaminate "
                                        "+ sequence packing")
    cur.add_argument("--sf-dir", required=True,
                     help="directory containing documents.parquet")
    cur.add_argument("--out", required=True,
                     help="output directory (partitioned parquet)")
    cur.add_argument("--capacity", type=int, default=256,
                     help="tokens per packed bin")
    cur.add_argument("--num-cpus", type=int, default=None)

    qry = sub.add_parser("query", help="run a catalog query over an "
                                       "sf-style table directory")
    qry.add_argument("name", nargs="?", default=None,
                     help="query name (omit with --list)")
    qry.add_argument("--list", action="store_true",
                     help="print available query names and exit")
    qry.add_argument("--sf-dir", default=None,
                     help="directory with the parquet tables")
    qry.add_argument("--dest", default=None,
                     help="write result as partitioned parquet here "
                          "instead of printing row count + head")
    qry.add_argument("--head", type=int, default=5,
                     help="rows to print when no --dest")
    qry.add_argument("--num-cpus", type=int, default=None)

    exp = sub.add_parser("export", help="convert a parquet table to "
                                        "JSONL/CSV shards (timestamps as "
                                        "epoch microseconds), type-exact "
                                        "Arrow IPC shards, or a WARC "
                                        "archive (webtext tables)")
    exp.add_argument("--input", required=True, help="parquet file/dir")
    exp.add_argument("--out", required=True)
    exp.add_argument("--format", default="jsonl",
                     choices=["jsonl", "csv", "ipc", "warc"])
    exp.add_argument("--drop-binary", action="store_true",
                     help="drop binary columns (not representable)")
    exp.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)

    if args.cmd == "stats":
        import pyarrow.parquet as pq

        from nrt_ray.state import manifest as mf
        records = mf.load_manifest(args.out)
        rows = {}
        points = {"rollup_points": 0, "observed_buckets": 0}
        for r in records:
            for k, v in (r.get("row_counts") or {}).items():
                rows[k] = rows.get(k, 0) + int(v)
            for k in points:
                points[k] += int((r.get("metrics") or {}).get(k, 0))
        # tier tables share each partition's one rollup file: its bytes
        # are the rollup table's, their rows stay per tier
        sizes = {t: sum(map(os.path.getsize, files))
                 for t in [*rows, mf.ROLLUP]
                 if not t.startswith(mf.TIER_PREFIX)
                 and (files := mf.committed_files(args.out, t))}
        # segment rows per codec tag: partitions no writer has rewritten
        # since the codec changed keep the older one
        codecs = {}
        for f in mf.committed_files(args.out, "segments"):
            for tag in pq.read_table(f, columns=["codec"]).column(
                    "codec").to_pylist():
                codecs[tag] = codecs.get(tag, 0) + 1
        print(json.dumps({
            "partitions_committed": len(records),
            "row_counts": rows,
            # served tier points (observed + gap-fill) and the observed
            # buckets among them; tier row_counts are stored rows
            **points,
            "bytes": dict(sorted(sizes.items())),   # committed files
            "codecs": dict(sorted(codecs.items())),
            "runs": sorted({r.get("run_id") for r in records}),
        }))
        return 0

    if args.cmd == "query" and args.list:
        from nrt_ray.pipelines import catalog
        for name in sorted(catalog.queries()):
            print(name)
        return 0

    if args.cmd == "generate":
        from nrt_ray.sources.synthetic import generate_webtext
        info = generate_webtext(args.out, n_urls=args.urls, seed=args.seed)
        print(json.dumps(info))
        return 0

    if args.cmd == "lookup":
        # pure local reads of one partition's files — no Ray session
        if args.t0 and args.t1:
            import numpy as np
            from nrt_ray.pipelines.monitor_pipeline import read_url_range
            res = read_url_range(
                args.out, args.url,
                int(np.datetime64(args.t0, "us").astype(np.int64)),
                int(np.datetime64(args.t1, "us").astype(np.int64)),
                max_points=args.max_points)
        else:
            from nrt_ray.pipelines.monitor_pipeline import lookup_url
            res = lookup_url(args.out, args.url)
        print(json.dumps(res, default=str))
        return 0

    ray = _init_ray(args.num_cpus)
    try:
        if args.cmd == "run":
            from nrt_ray.pipelines.monitor_pipeline import run_pipeline
            summary = run_pipeline(
                args.input, args.out, strategy=args.strategy,
                monitor_start=args.monitor_start,
                num_partitions=args.partitions,
                resume=not args.no_resume,
                verify_extract=args.verify_extract,
                reduce_num_cpus=args.reduce_cpus,
                fit_method=args.fit_method,
                fit_params=({"lam": args.lam}
                            if args.lam is not None else None))
            print(json.dumps(summary))
        elif args.cmd == "increment":
            from nrt_ray.pipelines.incremental import (read_run_config,
                                                       run_increment)
            from nrt_ray.pipelines.monitor_pipeline import ingest_webtext
            hw = read_run_config(args.out)["high_water_us"] \
                if args.prune_ingested else None
            summary = run_increment(
                args.out, ingest_webtext(args.input, min_warc_ts_us=hw))
            print(json.dumps(summary))
        elif args.cmd == "stream":
            from nrt_ray.pipelines.continuous import ContinuousMonitor
            from nrt_ray.pipelines.monitor_pipeline import ingest_webtext
            cm = ContinuousMonitor(args.out, pool=args.pool)
            try:
                totals = {"input_rows": 0, "late_rows": 0, "batches": 0}
                for i, path in enumerate(args.inputs, 1):
                    s = cm.ingest(ingest_webtext(path))
                    totals["input_rows"] += s["input_rows"]
                    totals["late_rows"] += s["late_rows"]
                    totals["batches"] += 1
                    if args.checkpoint_every \
                            and i % args.checkpoint_every == 0:
                        cm.checkpoint()
                ck = cm.checkpoint()
            finally:
                cm.close()
            print(json.dumps({**totals, **ck}))
        elif args.cmd == "retier":
            from nrt_ray.pipelines.retier import run_retier
            from nrt_ray.stages.rollup import TierSpec
            spec = TierSpec(
                args.tier,
                width_us=(args.width_s * 1_000_000
                          if args.width_s else None),
                gapfill=not args.no_gapfill, max_gap=args.max_gap,
                retention_us=(args.retention_days * 86400 * 1_000_000
                              if args.retention_days else None))
            print(json.dumps(run_retier(args.out, spec, args.source)))
        elif args.cmd == "fsck":
            from nrt_ray.pipelines.retier import verify_store
            rep = verify_store(args.out, repair=args.repair)
            print(json.dumps(rep))
            return 0 if not rep["issues"] else 1
        elif args.cmd == "backfill":
            from nrt_ray.pipelines.incremental import run_backfill
            inp = args.input if len(args.input) > 1 else args.input[0]
            print(json.dumps(run_backfill(args.out, inp)))
        elif args.cmd == "forget":
            from nrt_ray.pipelines.incremental import run_forget
            urls = list(args.urls or [])
            if args.urls_file:
                with open(args.urls_file) as f:
                    urls += [ln.strip() for ln in f if ln.strip()]
            if not urls:
                raise SystemExit("forget: need --urls or --urls-file")
            print(json.dumps(run_forget(args.out, urls)))
        elif args.cmd == "query":
            import pandas as pd
            import pyarrow as pa
            import ray.data
            from nrt_ray.pipelines import catalog
            q = catalog.queries()
            if not args.name or args.name not in q:
                known = ", ".join(sorted(q))
                raise SystemExit(f"query: unknown name {args.name!r} "
                                 f"(use --list). Known: {known[:2000]}")
            if not args.sf_dir:
                raise SystemExit("query: --sf-dir required")
            res = q[args.name](args.sf_dir)
            if args.dest:
                if isinstance(res, pd.DataFrame):
                    res = ray.data.from_pandas(res)
                elif isinstance(res, pa.Table):
                    res = ray.data.from_arrow(res)
                res.write_parquet(args.dest)
                import pyarrow.dataset as pds_
                n = pds_.dataset(args.dest).count_rows()
                print(json.dumps({"query": args.name, "rows": int(n),
                                  "dest": args.dest}))
            else:
                df = res if isinstance(res, pd.DataFrame) else \
                    res.to_pandas()
                print(json.dumps({
                    "query": args.name, "rows": int(len(df)),
                    "columns": list(map(str, df.columns)),
                    "head": json.loads(
                        df.head(args.head).to_json(orient="records",
                                                   date_format="iso")),
                }))
        elif args.cmd == "decode":
            import numpy as np
            import ray.data
            from nrt_ray.pipelines.incremental import read_run_config
            from nrt_ray.pipelines.monitor_pipeline import window_starts
            from nrt_ray.stages.compress import decode_segments_table
            from nrt_ray.state import manifest as mf
            t0_us = (int(np.datetime64(args.t0, "us").astype(np.int64))
                     if args.t0 else None)
            t1_us = (int(np.datetime64(args.t1, "us").astype(np.int64))
                     if args.t1 else None)
            tier = args.tier
            cfg = read_run_config(args.out)
            window = window_starts(cfg)
            if args.max_points is not None:
                if t0_us is None or t1_us is None:
                    raise SystemExit("decode: --max-points needs --t0 "
                                     "and --t1")
                from nrt_ray.stages.rollup import TierSpec, choose_tier
                tiers = [TierSpec(**t) for t in cfg["tiers"]]
                tier = choose_tier(tiers, t0_us, t1_us,
                                   args.max_points,
                                   now_us=int(cfg["high_water_us"])
                                   ).name
            # the decode drops other tiers' and out-of-range segments by
            # their metadata before any payload decodes
            ds = ray.data.read_parquet(
                mf.committed_files(args.out, "segments")).map_batches(
                lambda t: decode_segments_table(t, tier=tier, t0_us=t0_us,
                                                t1_us=t1_us, window=window),
                batch_format="pyarrow")
            ds.write_parquet(args.dest)
            import pyarrow.dataset as pds_
            n = pds_.dataset(args.dest).count_rows()
            print(json.dumps({"points": int(n), "dest": args.dest,
                              "tier": tier}))
        elif args.cmd == "report":
            from nrt_ray.pipelines.monitor_pipeline import top_recent_breaks
            ds = top_recent_breaks(args.out, k=args.k)
            for row in ds.take_all():
                print(json.dumps(row, default=str))
        elif args.cmd == "export":
            import pyarrow as pa
            import ray.data
            from nrt_ray.sources import formats
            ds = ray.data.read_parquet(args.input)
            if args.drop_binary:
                drop = [f.name for f in ds.schema().base_schema
                        if pa.types.is_binary(f.type)
                        or pa.types.is_large_binary(f.type)]
                if drop:
                    ds = ds.drop_columns(drop)
            import os as _os
            if args.format == "warc":
                # webtext → WARC archive: one gzip member per record
                # (url, warc_ts, html required)
                from nrt_ray.sources.warc import write_warc
                import pyarrow.parquet as _pq
                t = _pq.read_table(args.input,
                                   columns=["url", "warc_ts", "html"])
                n = write_warc(args.out, zip(
                    t.column("url").to_pylist(),
                    t.column("warc_ts").cast(pa.int64()).to_pylist(),
                    t.column("html").to_pylist()))
                print(json.dumps({"out": args.out, "format": "warc",
                                  "records": n}))
                return 0
            if args.format == "ipc":
                paths = formats.dataset_to_ipc(ds, args.out)
                print(json.dumps({"out": args.out, "format": "ipc",
                                  "shards": len(paths)}))
                return 0
            if args.format == "jsonl":
                ts_cols = formats.dataset_to_jsonl(ds, args.out)
            else:
                ts_cols = formats.dataset_to_csv(ds, args.out)
            print(json.dumps({"out": args.out, "format": args.format,
                              "ts_columns": ts_cols,
                              "shards": len(_os.listdir(args.out))}))
        elif args.cmd == "curate":
            import pyarrow.compute as pc
            import pyarrow.dataset as pds
            from nrt_ray.pipelines.curate import curate_corpus
            ds = curate_corpus(args.sf_dir, capacity=args.capacity)
            ds.write_parquet(args.out)
            t = pds.dataset(args.out).to_table(columns=["end_bin"])
            n_bins = (int(pc.max(t["end_bin"]).as_py()) + 1
                      if t.num_rows else 0)
            print(json.dumps({"survivors": t.num_rows,
                              "bins": n_bins, "out": args.out}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
