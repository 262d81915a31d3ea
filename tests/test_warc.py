"""WARC source: codec roundtrip (plain + gzip-member layout), framing
rejections, and the headline equality — a run over raw WARC bytes
produces the same store, checksum for checksum, as the same rows via
Parquet."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nrt_ray.sources import warc
from nrt_ray.state import manifest

US = 1_000_000


def _records(n=7, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        html = (b"<html><body><p>doc %d ndvi:0.%06d</p></body></html>"
                % (i, rng.integers(0, 999999)))
        ts = 1_600_000_000_000_000 + int(rng.integers(0, 10**12))
        out.append((f"https://ex.com/p{i}", ts, html))
    return out


def test_roundtrip_plain_and_gzip(tmp_path):
    recs = _records()
    for name in ("a.warc", "a.warc.gz"):
        p = str(tmp_path / name)
        assert warc.write_warc(p, recs) == len(recs)
        with open(p, "rb") as f:
            got = warc.decode_warc(f.read())
        assert got == recs, name


def test_microsecond_dates_preserved(tmp_path):
    ts = 1_600_000_000_123_457  # odd microseconds
    p = str(tmp_path / "b.warc")
    warc.write_warc(p, [("u", ts, b"<p>x</p>")])
    with open(p, "rb") as f:
        (_, got_ts, _), = warc.decode_warc(f.read())
    assert got_ts == ts


def test_non_response_records_skipped():
    info = (b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n"
            b"\r\nabcd\r\n\r\n")
    rec = warc.encode_record("u", 0, b"<p>hi</p>")
    got = warc.decode_warc(info + rec)
    assert len(got) == 1 and got[0][2] == b"<p>hi</p>"


def test_framing_rejections():
    rec = warc.encode_record("u", 0, b"<p>hi</p>")
    with pytest.raises(ValueError, match="version line"):
        warc.decode_warc(b"HTTP/1.1 garbage" + rec)
    with pytest.raises(ValueError, match="truncated"):
        warc.decode_warc(rec[:-10])
    nolen = (b"WARC/1.0\r\nWARC-Type: response\r\n\r\n")
    with pytest.raises(ValueError, match="Content-Length"):
        warc.decode_warc(nolen)


def test_gzip_member_layout_is_multistream(tmp_path):
    # each record its own gzip member — decompressing only the FIRST
    # member must yield exactly one record
    recs = _records(3)
    p = str(tmp_path / "c.warc.gz")
    warc.write_warc(p, recs)
    data = open(p, "rb").read()
    d = zlib.decompressobj(wbits=31)
    first = d.decompress(data) + d.flush()
    assert warc.decode_warc(first) == recs[:1]
    assert d.unused_data  # more members follow


def test_read_warc_dataset(ray_session, tmp_path):
    recs = _records(9)
    p1 = str(tmp_path / "s1.warc.gz")
    p2 = str(tmp_path / "s2.warc")
    warc.write_warc(p1, recs[:5])
    warc.write_warc(p2, recs[5:])
    ds = warc.read_warc([p1, p2])
    t = ds.to_pandas()
    assert sorted(t["url"]) == sorted(r[0] for r in recs)
    assert set(t["html"]) == {r[2] for r in recs}


def test_warc_run_equals_parquet_run(ray_session, tmp_path):
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.sources import synthetic
    from nrt_ray.stages import rollup

    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=25, seed=77)
    t = pq.read_table(info["webtext"])
    urls = t.column("url").to_pylist()
    tss = t.column("warc_ts").cast(pa.int64()).to_pylist()
    htmls = t.column("html").to_pylist()
    wpath = str(tmp_path / "crawl.warc.gz")
    warc.write_warc(wpath, zip(urls, tss, htmls))

    common = dict(strategy="CUSUM", fit_method="OLS",
                  monitor_params={"trend": False},
                  monitor_start="2021-01-01", num_partitions=4,
                  tiers=(rollup.TierSpec("1d"), rollup.TierSpec("1w")))
    out_p = str(tmp_path / "out_parquet")
    out_w = str(tmp_path / "out_warc")
    sp = mp.run_pipeline(info["webtext"], out_p, **common)
    sw = mp.run_pipeline(wpath, out_w, **common)
    assert sw["input_rows"] == sp["input_rows"]
    assert sw["rollup_points"] == sp["rollup_points"]

    cks_p = {r["partition_id"]: r["state_checksum"]
             for r in manifest.load_manifest(out_p)}
    cks_w = {r["partition_id"]: r["state_checksum"]
             for r in manifest.load_manifest(out_w)}
    assert cks_w == cks_p and len(cks_p) == 4

    # tier tables byte-identical partition for partition
    for pid in range(4):
        for table in ("rollup", "segments"):
            a = open(os.path.join(manifest.partition_dir(out_p, table,
                                                         pid),
                                  "part.parquet"), "rb").read()
            b = open(os.path.join(manifest.partition_dir(out_w, table,
                                                         pid),
                                  "part.parquet"), "rb").read()
            assert a == b, (table, pid)
