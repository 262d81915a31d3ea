"""Property-based tests (hypothesis) for the distributed scan and the
shuffle hash join: arbitrary key/value distributions must match the
single-process references for any partition count."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from nrt_ray.stages.scan import ordered_prefix_scan
from nrt_ray.stages.shuffle_join import shuffle_hash_join

# one shared Ray session comes from conftest's ray_session; hypothesis
# re-runs the body many times inside one test invocation, so the session
# fixture must be requested by the test functions themselves


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(1, 120),
    nparts=st.integers(1, 6),
    vmax=st.integers(0, 1000),
    seed=st.integers(0, 2 ** 16),
)
def test_scan_property(ray_session, n, nparts, vmax, seed):
    import ray.data
    rng = np.random.default_rng(seed)
    keys = rng.permutation(10 * n)[:n]          # sparse, unique
    values = rng.integers(0, vmax + 1, n)
    tbl = pa.table({"k": pa.array(keys, pa.int64()),
                    "v": pa.array(values, pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(min(3, n))
    out = ordered_prefix_scan(ds, key="k", value="v",
                              num_partitions=nparts,
                              key_bound=10 * n, out_name="cb") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    order = np.argsort(keys)
    exp_k = keys[order]
    exp_cb = np.cumsum(values[order]) - values[order]
    assert np.array_equal(out["k"].to_numpy(), exp_k)
    assert np.array_equal(out["cb"].to_numpy(), exp_cb)


@settings(max_examples=8, deadline=None)
@given(
    nl=st.integers(1, 80),
    nr=st.integers(1, 40),
    keyspace=st.integers(1, 25),
    nparts=st.integers(1, 5),
    seed=st.integers(0, 2 ** 16),
)
def test_join_property(ray_session, nl, nr, keyspace, nparts, seed):
    import ray.data
    rng = np.random.default_rng(seed)
    lk = rng.integers(0, keyspace, nl)
    rk = rng.integers(0, keyspace, nr)

    def empty():
        return pa.table({"k": pa.array([], pa.int64()),
                         "lv": pa.array([], pa.int64()),
                         "rv": pa.array([], pa.int64())})

    lds = ray.data.from_arrow(pa.table(
        {"k": pa.array(lk, pa.int64()),
         "lv": pa.array(np.arange(nl), pa.int64())})).repartition(2)
    rds = ray.data.from_arrow(pa.table(
        {"rk": pa.array(rk, pa.int64()),
         "rv": pa.array(np.arange(nr), pa.int64())})).repartition(2)
    got = shuffle_hash_join(lds, rds, on_left="k", on_right="rk",
                            num_partitions=nparts, empty_fn=empty) \
        .to_pandas()
    exp = pd.merge(pd.DataFrame({"k": lk, "lv": np.arange(nl)}),
                   pd.DataFrame({"rk": rk, "rv": np.arange(nr)}),
                   left_on="k", right_on="rk").drop(columns=["rk"])
    if len(exp) == 0:
        assert len(got) == 0
        return
    got = got.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp[got.columns.tolist()])


def test_exchange_hierarchical_equals_flat_p300(ray_session):
    """The two-level (√P) exchange at P=300 — above the autoswitch
    threshold — must produce exactly the per-partition results of the
    flat path on the same input (VERDICT r02 item 8: the 100×-scale
    story must be executable, not just documented)."""
    import ray.data
    from nrt_ray.stages.exchange import exchange_map_groups

    P = 300
    rng = np.random.default_rng(42)
    n = 5000
    tbl = pa.table({
        "pid": pa.array(rng.integers(0, P, n), pa.int64()),
        "v": pa.array(rng.integers(-1000, 1000, n), pa.int64())})

    def proc(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "pid": pa.array([int(t["pid"][0].as_py())], pa.int64()),
            "n": pa.array([t.num_rows], pa.int64()),
            "s": pa.array([int(pc.sum(t["v"]).as_py())], pa.int64())})

    def run(hier):
        ds = ray.data.from_arrow(tbl).repartition(7)
        out = pa.concat_tables(
            exchange_map_groups(ds, P, proc, hierarchical=hier))
        return out.to_pandas().sort_values("pid").reset_index(drop=True)

    flat, hier, auto = run(False), run(True), run(None)
    pd.testing.assert_frame_equal(hier, flat)
    pd.testing.assert_frame_equal(auto, flat)   # auto picks hierarchical
    # every non-empty pid is present exactly once with the true sums
    df = tbl.to_pandas().groupby("pid")["v"].agg(["count", "sum"])
    assert flat["pid"].tolist() == sorted(df.index.tolist())
    assert flat["n"].tolist() == df["count"].tolist()
    assert flat["s"].tolist() == df["sum"].tolist()


def test_exchange_dataset_hierarchical_small_p_forced(ray_session):
    """Forcing hierarchical=True below the autoswitch threshold (P=5,
    fanout ⌈√5⌉=3, ragged last coarse bucket) must keep exchange_dataset
    semantics identical to the flat path, including empty partitions."""
    import ray.data
    from nrt_ray.stages.exchange import exchange_dataset

    tbl = pa.table({
        "pid": pa.array([0, 0, 1, 1, 1, 4], pa.int64()),
        "v": pa.array([1, 2, 10, 20, 30, 7], pa.int64())})

    def proc(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "pid": pa.array([int(t["pid"][0].as_py())], pa.int64()),
            "total": pa.array([int(pc.sum(t["v"]).as_py())], pa.int64())})

    def empty() -> pa.Table:
        return pa.table({"pid": pa.array([], pa.int64()),
                         "total": pa.array([], pa.int64())})

    def run(hier):
        ds = ray.data.from_arrow(tbl).repartition(3)
        return exchange_dataset(ds, 5, proc, empty, hierarchical=hier) \
            .to_pandas().sort_values("pid").reset_index(drop=True)

    pd.testing.assert_frame_equal(run(True), run(False))
    got = run(True)
    assert got["pid"].tolist() == [0, 1, 4]
    assert got["total"].tolist() == [3, 60, 7]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 60),
    nparts=st.integers(1, 7),
    seed=st.integers(0, 2 ** 16),
)
def test_split_by_pid_property(n, nparts, seed):
    """Slice ``p`` holds exactly the rows with ``pid == p`` in input order
    (empty slices included); pids outside ``0..nparts-1`` are dropped."""
    from nrt_ray.stages.exchange import split_by_pid

    rng = np.random.default_rng(seed)
    pid = rng.integers(-1, nparts + 1, n)
    tbl = pa.table({"row": pa.array(np.arange(n), pa.int64())})
    out = split_by_pid(tbl, pid, nparts)
    assert len(out) == nparts
    for p, part in enumerate(out):
        assert part.column("row").to_pylist() == \
            np.flatnonzero(pid == p).tolist()
