"""run_forget: forgotten urls vanish from every artifact; outputs equal a
fresh run over the filtered input; only owning partitions rebuild."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

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


def _by_url(tbl, extra=()):
    keys = [("url", "ascending")] + [(c, "ascending") for c in extra]
    return tbl.take(pa.compute.sort_indices(tbl, sort_keys=keys))


def test_forget_urls(ray_session, tmp_path):
    d = str(tmp_path / "wt")
    info = synthetic.generate_webtext(d, n_urls=40, seed=59)
    t = pq.read_table(info["webtext"])
    urls = np.unique(np.asarray(t.column("url").to_pandas(),
                                dtype=object))
    forget = urls[:3].tolist()

    out = str(tmp_path / "out")
    mp.run_pipeline(info["webtext"], out, **COMMON)
    hw = inc.read_run_config(out)["high_water_us"]
    mtime_before = {}
    for pid in range(COMMON["num_partitions"]):
        p = os.path.join(manifest.partition_dir(out, "state", pid),
                         "part.parquet")
        mtime_before[pid] = os.path.getmtime(p)

    s = inc.run_forget(out, info["webtext"], forget)
    assert s["urls_forgotten"] == 3
    assert s["partitions_rebuilt"] + s["partitions_emptied"] \
        == len(s["affected_pids"]) < COMMON["num_partitions"]

    # untouched partitions' files were not rewritten
    for pid in range(COMMON["num_partitions"]):
        p = os.path.join(manifest.partition_dir(out, "state", pid),
                         "part.parquet")
        if pid not in s["affected_pids"]:
            assert os.path.getmtime(p) == mtime_before[pid], pid

    # reference: fresh run over the filtered input at the SAME high-water
    filt = t.filter(pa.array(
        ~np.isin(np.asarray(t.column("url").to_pandas(), dtype=object),
                 np.asarray(forget, dtype=object)), pa.bool_()))
    fp = str(tmp_path / "filtered.parquet")
    pq.write_table(filt, fp)
    ref = str(tmp_path / "ref")
    mp.run_pipeline(fp, ref, high_water_us=hw, **COMMON)

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
    s = inc.run_forget(out, info["webtext"], gone)
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
