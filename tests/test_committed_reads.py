"""The store's read side goes through ``manifest``: readers serve
committed partitions only, increments refuse a store with uncommitted
partition files, fsck compares commit marks with ``run.json``, and
dead-letter files are named by their content."""

from __future__ import annotations

import json
import os
import runpy
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nrt_ray import cli
from nrt_ray.pipelines import incremental as inc
from nrt_ray.pipelines import monitor_pipeline as mp
from nrt_ray.pipelines import retier
from nrt_ray.sources import synthetic
from nrt_ray.stages import rollup
from nrt_ray.stages.assemble import bucket_of
from nrt_ray.state import manifest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
US = 1_000_000
P = 4
CUT = np.datetime64("2021-09-01", "us")
TIERS = (rollup.TierSpec("1d"),
         rollup.TierSpec("1w", retention_us=300 * 86400 * US))
COMMON = dict(strategy="CUSUM", fit_method="OLS",
              monitor_params={"trend": False},
              monitor_start="2021-01-01", num_partitions=P, tiers=TIERS)
TABLES = ["state", "alerts", "segments"] + [f"rollup_{t.name}"
                                            for t in TIERS]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """``early.parquet`` (rows up to CUT), ``late.parquet`` (after it)
    and a committed store built from the early rows."""
    d = tmp_path_factory.mktemp("committed_reads")
    info = synthetic.generate_webtext(str(d / "wt"), n_urls=24, seed=83)
    t = pq.read_table(info["webtext"])
    cut = pa.scalar(int(CUT.astype(np.int64)), pa.int64()) \
        .cast(pa.timestamp("us"))
    pq.write_table(t.filter(pc.less_equal(t.column("warc_ts"), cut)),
                   str(d / "early.parquet"))
    pq.write_table(t.filter(pc.greater(t.column("warc_ts"), cut)),
                   str(d / "late.parquet"))
    return d


def _build(ray_session, store, tmp_path) -> str:
    out = str(tmp_path / "out")
    cached = str(store / "built")
    if not os.path.isdir(cached):
        mp.run_pipeline(str(store / "early.parquet"), cached, **COMMON)
    shutil.copytree(cached, out)
    return out


def _pid_urls(out: str, pid: int) -> list[str]:
    state = mp.read_output_table(out, "state")
    urls = np.asarray(state.column("url").to_pylist(), dtype=object)
    return sorted(urls[bucket_of(urls, P) == pid].tolist())


def _stats(out: str, capsys) -> dict:
    capsys.readouterr()
    assert cli.main(["stats", "--out", out]) == 0
    return json.loads(capsys.readouterr().out)


def test_readers_serve_committed_partitions_only(ray_session, store,
                                                 tmp_path, capsys):
    """Uncommitting one pid hides it from every reader: the output
    tables, ``lookup_url``, ``read_url_range``, the breaks report,
    ``cli decode`` and ``cli stats`` bytes, while fsck still lists
    it."""
    out = _build(ray_session, store, tmp_path)
    pid = 2
    gone = _pid_urls(out, pid)
    assert gone
    before = {t: mp.read_output_table(out, t) for t in TABLES}
    bytes_before = _stats(out, capsys)["bytes"]
    hw = inc.read_run_config(out)["high_water_us"]
    assert mp.lookup_url(out, gone[0])["state"] is not None

    assert manifest.uncommit_partitions(out, [pid]) == [pid]
    for t in TABLES:
        got = mp.read_output_table(out, t)
        urls = set(got.column("url").to_pylist())
        assert not urls & set(gone), t
        want = before[t].filter(pc.invert(pc.is_in(
            before[t].column("url"), value_set=pa.array(gone))))
        assert got.num_rows == want.num_rows, t
    for url in gone:
        hit = mp.lookup_url(out, url)
        assert hit["state"] is None and hit["tiers"] == {} \
            and hit["alerts"] == 0
        assert mp.read_url_range(out, url, hw - 400 * 86400 * US,
                                 hw)["points"] == 0
    report = mp.top_recent_breaks(out, k=1000).take_all()
    assert not {r["url"] for r in report} & set(gone)

    dest = str(tmp_path / "decoded")
    assert cli.main(["decode", "--out", out, "--dest", dest]) == 0
    decoded = pq.read_table(dest)
    assert decoded.num_rows and not set(
        decoded.column("url").to_pylist()) & set(gone)

    bytes_after = _stats(out, capsys)["bytes"]
    for t in ["state", "alerts", "segments", "rollup"]:    # the files
        size = os.path.getsize(os.path.join(
            manifest.partition_dir(out, t, pid), "part.parquet"))
        assert bytes_after[t] == bytes_before[t] - size, t

    rep = retier.verify_store(out)
    assert rep["issues"] == [f"pid {pid}: files present but no commit "
                             "record"]
    assert manifest.uncommitted_pids(out) == [pid]


def test_increments_refuse_uncommitted_store(ray_session, store,
                                             tmp_path):
    """``run_increment`` and ``ContinuousMonitor`` raise on a store with
    an uncommitted pid and name it; once a resumed ``run_pipeline``
    rebuilt it, the increment matches one on an uninterrupted store."""
    from nrt_ray.pipelines.continuous import ContinuousMonitor

    out = _build(ray_session, store, tmp_path)
    ref = str(tmp_path / "ref")
    shutil.copytree(out, ref)
    late = str(store / "late.parquet")
    assert manifest.uncommit_partitions(out, [1]) == [1]
    with pytest.raises(RuntimeError, match=r"partitions \[1\]"):
        inc.run_increment(out, mp.ingest_webtext(late))
    with pytest.raises(RuntimeError, match=r"partitions \[1\]"):
        ContinuousMonitor(out, pool=1)
    assert not os.path.exists(os.path.join(out, "dead_letter"))

    s = mp.run_pipeline(str(store / "early.parquet"), out, resume=True,
                        **COMMON)
    assert s["partitions_processed"] == 1
    assert manifest.uncommitted_pids(out) == []
    for root in (out, ref):
        assert inc.run_increment(root, mp.ingest_webtext(late))[
            "input_rows"] > 0
    for t in TABLES:
        assert mp.read_output_table(out, t).equals(
            mp.read_output_table(ref, t)), t
    assert retier.verify_store(out)["issues"] == []


def test_fsck_flags_marks_ahead_of_run_config(ray_session, store,
                                              tmp_path):
    """A driver that died after an increment's partition commits but
    before its run config (the pre-increment ``run.json`` put back):
    fsck lists exactly the pids the increment committed."""
    out = _build(ray_session, store, tmp_path)
    run_json = os.path.join(out, manifest.MANIFEST_DIR, "run.json")
    shutil.copy(run_json, str(tmp_path / "run.json"))
    old_hw = inc.read_run_config(out)["high_water_us"]
    late = pq.read_table(str(store / "late.parquet"))
    urls = sorted(set(late.column("url").to_pylist()))[:2]
    batch = str(tmp_path / "batch.parquet")
    pq.write_table(late.filter(pc.is_in(late.column("url"),
                                        value_set=pa.array(urls))), batch)
    inc.run_increment(out, mp.ingest_webtext(batch))
    touched = sorted(r["partition_id"] for r in manifest.load_manifest(out)
                     if r.get("increment"))
    assert touched == sorted(set(bucket_of(np.asarray(urls, dtype=object),
                                           P).tolist()))
    assert len(touched) < P
    assert retier.verify_store(out)["issues"] == []

    shutil.copy(str(tmp_path / "run.json"), run_json)
    issues = retier.verify_store(out)["issues"]
    assert sorted(int(i.split(":")[0].split()[1]) for i in issues) \
        == touched
    assert all(f"ahead of run.json's {old_hw}" in i for i in issues)


def test_routing_parses_no_commit_record(ray_session, store, tmp_path,
                                         monkeypatch):
    """Point and range reads find the committed (and merge) pids from
    the commit records' names and parse none; fsck parses every record,
    so a corrupt one fails loudly there."""
    out = _build(ray_session, store, tmp_path)
    url = _pid_urls(out, 1)[0]
    hw = inc.read_run_config(out)["high_water_us"]

    def reads():
        return (mp.lookup_url(out, url),
                mp.read_url_range(out, url, hw - 400 * 86400 * US, hw))

    want = reads()

    def parse(_):
        raise AssertionError("a commit record was parsed")

    monkeypatch.setattr(manifest, "load_manifest", parse)
    assert reads() == want
    monkeypatch.undo()
    with open(os.path.join(out, manifest.MANIFEST_DIR,
                           "partition-00002.json"), "w") as f:
        f.write("{")
    assert manifest.committed_partitions(out) == set(range(P))
    assert reads() == want
    with pytest.raises(ValueError):
        retier.verify_store(out)


def test_read_output_table_of_several_tables(ray_session, store, tmp_path,
                                            monkeypatch):
    """``read_output_table`` given several names returns each one's
    table, equal to its own call, and reads each partition file once:
    the tiers from one read of the partition's ``rollup`` file."""
    out = _build(ray_session, store, tmp_path)
    names = ["state", *(f"rollup_{t.name}" for t in TIERS)]
    want = {name: mp.read_output_table(out, name) for name in names}
    reads, real = [], manifest._read
    monkeypatch.setattr(manifest, "_read",
                        lambda path: reads.append(path) or real(path))
    got = mp.read_output_table(out, names)
    assert list(got) == names
    assert all(got[name].equals(want[name]) for name in names)
    assert len(reads) == len(set(reads)) == 2 * P
    assert sum(os.sep + "rollup" + os.sep in r for r in reads) == P


def test_dead_letter_replay_overwrites(ray_session, store, tmp_path):
    """Two splits of the same input at the same mark leave one
    dead-letter file per source with late rows."""
    out = _build(ray_session, store, tmp_path)
    hw = inc.read_run_config(out)["high_water_us"]
    early = pq.read_table(str(store / "early.parquet"))
    paths = [str(tmp_path / f"src{i}.parquet") for i in range(2)]
    half = early.num_rows // 2
    pq.write_table(early.slice(0, half), paths[0])
    pq.write_table(early.slice(half), paths[1])
    dl = os.path.join(out, "dead_letter")
    for _ in range(2):
        _, late_rows, new_hw = inc.split_batch(
            mp.ingest_webtext(paths), hw, out, P, None, P)
        assert late_rows > 0 and new_hw == hw
        assert len(os.listdir(dl)) == 2
    assert sum(pq.read_metadata(os.path.join(dl, f)).num_rows
               for f in os.listdir(dl)) == late_rows


def test_only_manifest_knows_the_partition_layout():
    """Among the engine modules, only ``nrt_ray/state/manifest.py``
    spells out partition file paths."""
    modules = runpy.run_path(os.path.join(REPO, "scripts",
                                          "engine_loc.py"))["ENGINE_MODULES"]
    spelled = []
    for mod in modules:
        with open(os.path.join(REPO, "nrt_ray", mod + ".py")) as f:
            src = f.read()
        if "part.parquet" in src or "part=" in src:
            spelled.append(mod)
    assert spelled == ["state/manifest"]
