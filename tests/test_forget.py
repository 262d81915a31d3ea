"""run_forget: forgotten urls vanish from every artifact; outputs equal a
fresh run over the filtered input; only the owning partitions that hold
a forgotten url are rewritten, and a second forget rewrites nothing."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.sources import synthetic
from nrt_ray.stages import rollup
from nrt_ray.state import manifest

US = 1_000_000
TIERS = (rollup.TierSpec("1d"),
         rollup.TierSpec("1w", retention_us=300 * 86400 * US))
COMMON = dict(strategy="CUSUM", fit_method="OLS",
              monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=5, tiers=TIERS)
STRATEGIES = ("EWMA", "CUSUM", "MOSUM", "CCDC", "IQR")


def _by_url(tbl, extra=()):
    keys = [("url", "ascending")] + [(c, "ascending") for c in extra]
    return tbl.take(pa.compute.sort_indices(tbl, sort_keys=keys))


def _files(out):
    """Every file of a store with its mtime."""
    return {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
            for r, _, fs in os.walk(out) for f in fs}


def _points(out):
    return sum(r["metrics"]["rollup_points"]
               for r in manifest.load_manifest(out))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forget_urls(ray_session, tmp_path, strategy):
    """Forget each partition's longest url (it sets the padded ``T`` of
    its partition's fit), except in the last partition, which is asked
    to forget a url it never ingested and so is not rewritten."""
    from nrt_ray.pipelines import retier
    from nrt_ray.stages.assemble import bucket_of

    common = dict(COMMON, strategy=strategy)
    P = common["num_partitions"]
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=40, seed=59)
    t = pq.read_table(info["webtext"])
    col = np.asarray(t.column("url").to_pandas(), dtype=object)
    urls, n = np.unique(col, return_counts=True)
    pid = bucket_of(urls, P)
    forget = [urls[pid == p][np.argmax(n[pid == p])] for p in range(P - 1)]
    never = next(u for u in (f"https://never.example.com/{i}"
                             for i in range(100))
                 if bucket_of([u], P)[0] == P - 1)

    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, **common)
    hw = inc.read_run_config(out)["high_water_us"]
    before = _files(out)

    s = inc.run_forget(out, forget + [never])
    assert s["urls_forgotten"] == P
    assert s["affected_pids"] == list(range(P))
    assert s["partitions_rewritten"] == P - 1 and not s["partitions_emptied"]
    assert retier.verify_store(out)["issues"] == []

    # the partition that holds none of the urls was not rewritten
    after = _files(out)
    untouched = [f for f in before if f"part={P - 1}" in f
                 or f.endswith(f"partition-{P - 1:05d}.json")]
    assert untouched
    for f in untouched:
        assert after[f] == before[f], f

    # a second forget of the same urls rewrites nothing
    s2 = inc.run_forget(out, forget + [never])
    assert s2["partitions_rewritten"] == s2["partitions_emptied"] == 0
    assert _files(out) == after

    # reference: fresh run over the filtered input at the SAME high-water
    filt = t.filter(pa.array(~np.isin(col, np.asarray(forget, dtype=object)),
                             pa.bool_()))
    fp = str(tmp_path / "filtered.parquet")
    pq.write_table(filt, fp)
    ref = str(tmp_path / "ref")
    mp.run_pipeline(fp, ref, high_water_us=hw, **common)
    assert _points(out) == _points(ref)

    for name in ("state", "alerts", "rollup_1d", "rollup_1w", "segments"):
        extra = ("bucket_ts",) if name.startswith("rollup") else \
            (("tier", "seg_start") if name == "segments" else ())
        ta = _by_url(mp.read_output_table(out, name), extra=extra)
        tb = _by_url(mp.read_output_table(ref, name), extra=extra)
        assert ta.num_rows == tb.num_rows, name
        got_urls = set(ta.column("url").to_pylist())
        assert not (got_urls & set(forget)), name
        for col in ta.column_names:
            if col == "part":
                continue
            va = ta.column(col).to_pylist()
            vb = tb.column(col).to_pylist()
            if ta.schema.field(col).type == pa.float64():
                np.testing.assert_allclose(
                    np.array(va, dtype=np.float64),
                    np.array(vb, dtype=np.float64),
                    rtol=1e-12, equal_nan=True, err_msg=f"{name}.{col}")
            else:
                assert va == vb, f"{name}.{col}"


def test_verify_store_accepts_emptied_partition(ray_session, tmp_path):
    """A partition whose every url was forgotten is committed empty:
    ``verify_store`` reports no issue for it and ``repair=True``
    uncommits nothing (a resumed run would bring the urls back); a stale
    file left for it is reported."""
    from nrt_ray.pipelines import retier
    from nrt_ray.stages.assemble import bucket_of

    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=20, seed=71)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, **COMMON)
    urls = np.unique(np.asarray(pq.read_table(
        info["webtext"], columns=["url"]).column("url").to_pandas(),
        dtype=object))
    gone = urls[bucket_of(urls, COMMON["num_partitions"]) == 0].tolist()
    assert gone
    s = inc.run_forget(out, gone)
    assert s["partitions_emptied"] == 1

    rep = retier.verify_store(out, repair=True)
    assert rep["issues"] == [] and rep["ok"] == rep["partitions"]
    assert "uncommitted" not in rep
    assert 0 in manifest.committed_partitions(out)

    stale = manifest.partition_dir(out, "state", 0)
    os.makedirs(stale, exist_ok=True)
    pq.write_table(pa.table({"url": ["x"]}),
                   os.path.join(stale, "part.parquet"))
    rep = retier.verify_store(out)
    assert rep["issues"] == ["pid 0: empty partition has a state file"]


def test_forget_rerun_finishes_an_interrupted_forget(ray_session, tmp_path):
    """A forget that wrote a partition's filtered files but died before
    its commit record: ``verify_store`` flags the partition, and a rerun
    (which needs no input) commits it instead of bringing the url back."""
    import shutil

    from nrt_ray.pipelines import retier
    from nrt_ray.stages.assemble import bucket_of

    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=20, seed=71)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, **COMMON)
    url = sorted(set(pq.read_table(info["webtext"], columns=["url"])
                     .column("url").to_pylist()))[0]
    pid = int(bucket_of([url], COMMON["num_partitions"])[0])
    rec = os.path.join(out, manifest.MANIFEST_DIR, f"partition-{pid:05d}.json")
    shutil.copy(rec, str(tmp_path / "record.json"))

    assert inc.run_forget(out, [url])["partitions_rewritten"] == 1
    shutil.copy(str(tmp_path / "record.json"), rec)     # the lost commit
    assert retier.verify_store(out)["issues"]

    s = inc.run_forget(out, [url])
    assert s["partitions_rewritten"] == 1
    assert retier.verify_store(out)["issues"] == []
    assert url not in mp.read_output_table(out, "state") \
        .column("url").to_pylist()


def test_repair_rebuild_keeps_forgotten_urls_out(ray_session, tmp_path):
    """An interrupted forget (filtered files, the pre-forget commit
    record) repaired the fsck way: ``verify_store(repair=True)``
    uncommits the partition and a resumed ``run_pipeline`` over the
    original input rebuilds it.  The forget recorded its urls in the run
    config first, so the rebuild leaves the url out of every table."""
    import shutil

    from nrt_ray.pipelines import retier
    from nrt_ray.stages.assemble import bucket_of

    info = synthetic.generate_webtext(str(tmp_path / "wt"), n_urls=20,
                                      seed=71)
    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, **COMMON)
    url = sorted(set(pq.read_table(info["webtext"], columns=["url"])
                     .column("url").to_pylist()))[0]
    pid = int(bucket_of([url], COMMON["num_partitions"])[0])
    rec = os.path.join(out, manifest.MANIFEST_DIR, f"partition-{pid:05d}.json")
    shutil.copy(rec, str(tmp_path / "record.json"))

    inc.run_forget(out, [url])
    assert inc.read_run_config(out)["forgotten_urls"] == [url]
    shutil.copy(str(tmp_path / "record.json"), rec)     # the lost commit
    assert retier.verify_store(out, repair=True)["uncommitted"] == [pid]

    s = mp.run_pipeline(info["webtext"], out, resume=True, **COMMON)
    assert s["partitions_processed"] == 1
    assert inc.read_run_config(out)["forgotten_urls"] == [url]
    assert retier.verify_store(out)["issues"] == []
    for table in ["state", "alerts", "segments"] + [
            f"rollup_{t.name}" for t in TIERS]:
        got = mp.read_output_table(out, table)
        assert got is None or url not in got.column("url").to_pylist(), \
            table
    assert mp.lookup_url(out, url)["tiers"] == {}
