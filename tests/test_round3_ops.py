"""Planted-fixture semantics tests for the round-3 operators
(counter_increase_daily, novelty_scores) — edge cases the random
catalog fixtures can't pin down: reset orientation on timestamp ties,
same-day-only pairing, first-seen ordering, duplicate/empty docs."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

DAY_US = 86400 * 1_000_000


def _write_events(tmp_path, rows):
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64())
            .cast(pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    return str(tmp_path)


def _df(res):
    return res.to_pandas().sort_values(
        list(res.to_pandas().columns)).reset_index(drop=True)


def test_counter_increase_resets_and_days(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import counter_increase_daily
    d0 = 1_700_000_000_000_000 // DAY_US * DAY_US
    rows = [
        # user 1, day 0: 1.00 -> 3.00 (+200) -> 2.00 (reset: +200 cents)
        (1, d0 + 1, 1, 1.00),
        (2, d0 + 2, 1, 3.00),
        (3, d0 + 3, 1, 2.00),
        # user 1, day 1: pair crossing midnight lands on day 1
        (4, d0 + DAY_US + 5, 1, 5.00),        # 2.00 -> 5.00 = +300
        # user 2: single event, no pair -> absent from output
        (5, d0 + 7, 2, 9.99),
        # user 3: timestamp tie ordered by event_id: 4.00 then 1.00
        (6, d0 + 9, 3, 4.00),
        (7, d0 + 9, 3, 1.00),                 # reset -> +100
    ]
    out = _df(counter_increase_daily(_write_events(tmp_path, rows)))
    exp = pd.DataFrame({
        "user_id": [1, 1, 3],
        "day_ts": pd.to_datetime([d0, d0 + DAY_US, d0], unit="us"),
        "increase_cents": [400, 300, 100],
        "n_resets": [1, 0, 1],
        "n_pairs": [2, 1, 1],
    }).sort_values(["user_id", "day_ts"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out.sort_values(["user_id", "day_ts"]).reset_index(drop=True)
           [exp.columns], exp, check_dtype=False)


def test_counter_increase_empty(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import counter_increase_daily
    out = counter_increase_daily(
        _write_events(tmp_path, [(1, 10**15, 1, 1.0)])).to_pandas()
    # a single event has no consecutive pair: no output rows (Ray Data
    # drops the schema of an all-empty dataset, so only length checks)
    assert len(out) == 0


def _write_docs(tmp_path, texts):
    t = pa.table({
        "doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_novelty_first_seen_order(ray_session, tmp_path):
    from nrt_ray.pipelines.textops import novelty_scores
    texts = [
        "a b c d e f",       # doc 1: 2 shingles, all first-seen -> 1.0
        "a b c d e f",       # doc 2: identical -> 0.0
        "p q r s t u v",     # doc 3: 3 shingles, disjoint -> 1.0
        "a b c d e p q r s t",  # doc 4: 6 shingles, 2 seen
                                 # (abcde from doc 1, pqrst from doc 3)
        "",                  # doc 5: empty-hash shingle, first -> 1.0
        "",                  # doc 6: empty again -> 0.0
    ]
    out = _df(novelty_scores(_write_docs(tmp_path, texts)))
    got = out.set_index("doc_id")
    assert got.loc[1, "novelty"] == 1.0 and got.loc[1, "n_shingles"] == 2
    assert got.loc[2, "novelty"] == 0.0
    assert got.loc[3, "novelty"] == 1.0 and got.loc[3, "n_shingles"] == 3
    assert got.loc[4, "n_shingles"] == 6 and got.loc[4, "n_seen"] == 2
    assert got.loc[4, "novelty"] == pytest.approx(1 - 2 / 6, abs=1e-6)
    assert got.loc[5, "novelty"] == 1.0
    assert got.loc[6, "novelty"] == 0.0


def test_fragment_lineage_recorded(ray_session, tmp_path):
    """Each partition's manifest commit lists exactly the input files
    (fragment ids) that contributed rows to it."""
    import glob
    import json
    from nrt_ray.sources.synthetic import generate_webtext
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.pipelines.incremental import read_run_config

    info = generate_webtext(str(tmp_path), n_urls=30, seed=5)
    t = pq.read_table(info["webtext"])
    multi = tmp_path / "multi"
    multi.mkdir()
    pq.write_table(t.slice(0, t.num_rows // 2), str(multi / "a.parquet"))
    pq.write_table(t.slice(t.num_rows // 2), str(multi / "b.parquet"))
    out = str(tmp_path / "out")
    mp.run_pipeline(str(multi), out, strategy="EWMA",
                    monitor_start="2021-01-01",
                    monitor_params={"trend": False},
                    num_partitions=3, resume=False)
    frags = read_run_config(out)["fragments"]
    assert sorted(frags.values()) == [str(multi / "a.parquet"),
                                      str(multi / "b.parquet")]
    seen = set()
    for f in glob.glob(out + "/manifest/partition-*.json"):
        rec = json.load(open(f))
        assert set(rec["input_fragments"]) <= {0, 1}
        seen |= set(rec["input_fragments"])
    assert seen == {0, 1}   # every fragment fed at least one partition


def test_fragment_lineage_is_partition_exact(ray_session, tmp_path):
    """Three input files, each url in exactly one of them: every
    partition's ``input_fragments`` is exactly the set of files that hold
    its urls."""
    import glob
    import json
    import os
    from nrt_ray.sources.synthetic import generate_webtext
    from nrt_ray.pipelines import monitor_pipeline as mp
    from nrt_ray.pipelines.incremental import read_run_config
    from nrt_ray.state import manifest

    info = generate_webtext(str(tmp_path), n_urls=30, seed=7)
    t = pq.read_table(info["webtext"])
    file_of = {u: i % 3 for i, u in
               enumerate(sorted(set(t.column("url").to_pylist())))}
    rows_file = np.array([file_of[u] for u in t.column("url").to_pylist()])
    multi = tmp_path / "multi"
    multi.mkdir()
    names = ["a.parquet", "b.parquet", "c.parquet"]
    for i, name in enumerate(names):
        pq.write_table(t.filter(pa.array(rows_file == i)),
                       str(multi / name))
    out = str(tmp_path / "out")
    mp.run_pipeline(str(multi), out, strategy="EWMA",
                    monitor_start="2021-01-01",
                    monitor_params={"trend": False},
                    num_partitions=4, resume=False)
    frag_id = {os.path.basename(p): int(i)
               for i, p in read_run_config(out)["fragments"].items()}
    assert sorted(frag_id) == names
    recs = [json.load(open(f))
            for f in glob.glob(out + "/manifest/partition-*.json")]
    assert len(recs) == 4
    for rec in recs:
        pid = rec["partition_id"]
        state = pq.read_table(os.path.join(
            manifest.partition_dir(out, "state", pid), "part.parquet"))
        want = {frag_id[names[file_of[u]]]
                for u in state.column("url").to_pylist()}
        assert rec["input_fragments"] == sorted(want), pid


def test_daily_hll_exact_side_and_merge(ray_session, tmp_path):
    """Planted days: exact distinct counts are right, the sketch rows
    are one-per-day, and the estimate agrees with a direct replay of
    the register math on the same hashes (merge across batches can't
    change registers)."""
    from nrt_ray.pipelines.timeseries import (DHLL_M, DHLL_REM_BITS,
                                              daily_active_users_hll,
                                              _mix64_user)
    d0 = 1_700_000_000_000_000 // DAY_US * DAY_US
    rows, eid = [], 0
    # day 0: users 1..5 (some repeated); day 1: users 3 and 4; day 2: 1
    for u in [1, 2, 3, 4, 5, 1, 2, 1]:
        eid += 1
        rows.append((eid, d0 + eid, u, 1.0))
    for u in [3, 4, 4]:
        eid += 1
        rows.append((eid, d0 + DAY_US + eid, u, 1.0))
    eid += 1
    rows.append((eid, d0 + 2 * DAY_US + 1, 1, 1.0))
    out = _df(daily_active_users_hll(_write_events(tmp_path, rows)))
    assert len(out) == 3
    exact = out.sort_values("day_ts")["n_active_exact"].tolist()
    assert exact == [5, 2, 1]
    # replay day 0's registers directly
    h = _mix64_user(np.array([1, 2, 3, 4, 5], np.int64))
    regs = {}
    for hv in h:
        idx = int(hv >> np.uint64(DHLL_REM_BITS))
        rem = int(hv & np.uint64((1 << DHLL_REM_BITS) - 1))
        rho = DHLL_REM_BITS + 1 - rem.bit_length()
        regs[idx] = max(regs.get(idx, 0), rho)
    n_zero = DHLL_M - len(regs)
    row0 = out.sort_values("day_ts").iloc[0]
    assert int(row0["n_zero_registers"]) == n_zero
    # tiny cardinality -> linear counting branch
    est = DHLL_M * np.log(DHLL_M / n_zero)
    assert abs(row0["hll_estimate"] - round(est, 4)) < 1e-9


def test_holt_winters_planted_recursion(ray_session, tmp_path):
    """Hand-computed Holt trajectory: init l1=y1, b1=y2-y1, one update
    step, single-day user gets trend 0, forecast = l + 3b."""
    from nrt_ray.pipelines.timeseries import holt_winters_daily
    d0 = 1_700_000_000_000_000 // DAY_US * DAY_US
    rows = [
        # user 1: y = [1.00, 2.00, 4.00] on days 0,1,2
        (1, d0 + 1, 1, 1.00),
        (2, d0 + DAY_US + 1, 1, 2.00),
        (3, d0 + 2 * DAY_US + 1, 1, 4.00),
        # user 2: single day, two events -> composite mean 1.50
        (4, d0 + 5, 2, 1.00),
        (5, d0 + 6, 2, 2.00),
    ]
    out = _df(holt_winters_daily(_write_events(tmp_path, rows))) \
        .set_index("user_id")
    a, bt, om, ob = 0.5, 0.3, 0.5, 0.7
    l1, b1 = 1.0, 1.0            # init from y1=1, y2=2
    l2 = a * 2.0 + om * (l1 + b1)        # = 2.0
    b2 = bt * (l2 - l1) + ob * b1        # = 1.0
    l3 = a * 4.0 + om * (l2 + b2)        # = 3.5
    b3 = bt * (l3 - l2) + ob * b2        # = 1.15
    r1 = out.loc[1]
    assert r1["n_days"] == 3
    assert abs(r1["level"] - round(l3, 6)) < 1e-12
    assert abs(r1["trend"] - round(b3, 6)) < 1e-12
    assert abs(r1["forecast"] - round(l3 + 3 * b3, 6)) < 1e-12
    r2 = out.loc[2]
    assert r2["n_days"] == 1 and r2["trend"] == 0.0
    assert abs(r2["level"] - 1.5) < 1e-12
    assert abs(r2["forecast"] - 1.5) < 1e-12


from hypothesis import given, settings, strategies as st


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 300), n_users=st.integers(1, 40),
       n_days=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_daily_hll_property_vs_naive(ray_session, tmp_path_factory,
                                     n, n_users, n_days, seed):
    """Random event sets: exact side == pandas nunique per day, sketch
    side == a naive single-process HLL over the same hashes (merging
    across batches/partitions must be transparent)."""
    from nrt_ray.pipelines.timeseries import (DHLL_M, DHLL_REM_BITS,
                                              daily_active_users_hll,
                                              _mix64_user)
    rng = np.random.default_rng(seed)
    d0 = 1_600_000_000_000_000 // DAY_US * DAY_US
    uid = rng.integers(0, n_users, n).astype(np.int64)
    day = rng.integers(0, n_days, n).astype(np.int64)
    ts = d0 + day * DAY_US + rng.integers(0, DAY_US, n)
    tmp = tmp_path_factory.mktemp("hllprop")
    rows = [(i, int(ts[i]), int(uid[i]), 1.0) for i in range(n)]
    out = _df(daily_active_users_hll(_write_events(tmp, rows))) \
        .sort_values("day_ts").reset_index(drop=True)
    df = pd.DataFrame({"day": day, "uid": uid})
    naive_exact = df.groupby("day")["uid"].nunique()
    assert len(out) == len(naive_exact)
    assert out["n_active_exact"].tolist() == naive_exact.tolist()
    # naive sketch replay per day
    for i, (dd, users) in enumerate(sorted(
            df.groupby("day")["uid"].unique().items())):
        h = _mix64_user(np.asarray(sorted(users), np.int64))
        regs = {}
        for hv in h:
            idx = int(hv >> np.uint64(DHLL_REM_BITS))
            rem = int(hv & np.uint64((1 << DHLL_REM_BITS) - 1))
            regs[idx] = max(regs.get(idx, 0),
                            DHLL_REM_BITS + 1 - rem.bit_length())
        assert int(out.loc[i, "n_zero_registers"]) == DHLL_M - len(regs)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 200), n_users=st.integers(1, 20),
       n_days=st.integers(1, 10), seed=st.integers(0, 2 ** 16))
def test_holt_property_vs_naive(ray_session, tmp_path_factory,
                                n, n_users, n_days, seed):
    """Random events: the distributed Holt recursion equals a plain
    per-user python loop over the same daily composites."""
    from nrt_ray.pipelines.relational import round_away
    from nrt_ray.pipelines.timeseries import holt_winters_daily
    rng = np.random.default_rng(seed)
    d0 = 1_600_000_000_000_000 // DAY_US * DAY_US
    uid = rng.integers(0, n_users, n).astype(np.int64)
    day = rng.integers(0, n_days, n).astype(np.int64)
    ts = d0 + day * DAY_US + rng.integers(0, DAY_US, n)
    val = np.round(rng.uniform(0.01, 99.99, n), 2)
    tmp = tmp_path_factory.mktemp("holtprop")
    rows = [(i, int(ts[i]), int(uid[i]), float(val[i]))
            for i in range(n)]
    out = _df(holt_winters_daily(_write_events(tmp, rows))) \
        .set_index("user_id")
    a, bt, om, ob = 0.5, 0.3, 0.5, 0.7
    df = pd.DataFrame({"uid": uid, "day": day,
                       "cents": np.round(val * 100).astype(np.int64)})
    for u, g in df.groupby("uid"):
        daily = g.groupby("day")["cents"].agg(["sum", "count"])
        y = ((daily["sum"].to_numpy().astype(np.float64) / 100.0)
             / daily["count"].to_numpy()).tolist()
        if len(y) == 1:
            l, b = y[0], 0.0
        else:
            l, b = y[0], y[1] - y[0]
            for t in range(1, len(y)):
                ln = a * y[t] + om * (l + b)
                b = bt * (ln - l) + ob * b
                l = ln
        r = out.loc[u]
        assert r["n_days"] == len(y)
        assert r["level"] == float(round_away(np.array([l]), 6)[0])
        assert r["trend"] == float(round_away(np.array([b]), 6)[0])


def test_lttb_planted_selection(ray_session, tmp_path_factory):
    """n=12 daily points, B=10: endpoints always kept; 10 inner points
    fall into 8 index buckets with buckets 0 and 4 holding two points —
    a planted spike wins bucket 0, a flat tie resolves to the earliest
    day in bucket 4; a 3-point user passes through whole."""
    from nrt_ray.pipelines.timeseries import lttb_downsample_daily
    d0 = 1_600_000_000_000_000 // DAY_US * DAY_US
    rows, eid = [], 0
    y1 = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    for d, v in enumerate(y1):
        eid += 1
        rows.append((eid, d0 + d * DAY_US + 1, 1, v))
    for d, v in enumerate([5.0, 6.0, 7.0]):
        eid += 1
        rows.append((eid, d0 + d * DAY_US + 1, 2, v))
    out = _df(lttb_downsample_daily(
        tmp_path_factory.mktemp("lttb").joinpath("..") if False
        else _write_events(tmp_path_factory.mktemp("lttb"), rows)))
    u1 = out[out.user_id == 1].sort_values("day_ts")
    days1 = [(t - pd.Timestamp(d0, unit="us")).days
             for t in u1["day_ts"]]
    # endpoints 0 and 11 kept; bucket map k=((i-1)*8)//10 puts days
    # {1,2} in bucket 0 (spike day 2 wins) and days {6,7} in bucket 4
    # (flat -> zero areas tie -> earliest day 6); single-point buckets
    # keep their only point (days 3,4,5,8,9,10)
    assert days1 == [0, 2, 3, 4, 5, 6, 8, 9, 10, 11]
    assert u1[u1.day_ts == pd.Timestamp(d0 + 2 * DAY_US,
                                        unit="us")]["v_sel"].iloc[0] == 9.0
    u2 = out[out.user_id == 2]
    assert len(u2) == 3 and sorted(u2["v_sel"]) == [5.0, 6.0, 7.0]


def test_weekly_spectral_pure_period_vs_flat(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import weekly_spectral_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    rows = []
    eid = 0
    # user 1: all mass on one weekly phase -> rel_power7 == 1 exactly
    for w in (0, 7):
        eid += 1
        rows.append((eid, d0 + w * DAY_US + 1, 1, 1.00))
    # keep user 1 over >=7 OBSERVED days: zero-cent filler days change
    # neither the phase sums nor T
    for k in range(1, 6):
        eid += 1
        rows.append((eid, d0 + k * DAY_US + 1, 1, 0.00))
    # user 2: constant daily spend for 14 days -> power ~ 0
    for k in range(14):
        eid += 1
        rows.append((eid, d0 + k * DAY_US + 1, 2, 1.00))
    # user 3: only 3 observed days -> excluded
    for k in range(3):
        eid += 1
        rows.append((eid, d0 + k * DAY_US + 1, 3, 5.00))
    out = _df(weekly_spectral_events(_write_events(tmp_path, rows)))
    assert sorted(out["user_id"]) == [1, 2]
    byu = out.set_index("user_id")
    assert byu.loc[1, "rel_power7"] == 1.0
    assert byu.loc[1, "n_days"] == 7
    assert abs(byu.loc[2, "rel_power7"]) < 1e-5
    assert byu.loc[2, "n_days"] == 14


def test_rle_runs_planted_sequence(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import rle_runs_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    cents = [100, 200, 300, 200, 100, 100, 500]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    rows.append((99, d0 + 1, 2, 3.00))        # single day -> excluded
    out = _df(rle_runs_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]
    r = out.iloc[0]
    # delta signs: + + - - 0 +  -> runs ++ / -- / 0 / +
    assert (r["n_days"], r["n_runs"], r["longest_run"],
            r["n_up"], r["n_down"]) == (7, 4, 2, 3, 2)


def test_sax_symbols_one_day_per_segment(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import sax_symbols_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    vals = [10.00, 60.00, 120.00, 200.00] * 2   # a b c d a b c d
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, v)
            for i, v in enumerate(vals)]
    # user 2: 7 days < width -> excluded
    rows += [(50 + i, d0 + i * DAY_US + 1, 2, 1.00) for i in range(7)]
    out = _df(sax_symbols_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]
    assert out.iloc[0]["sax"] == "abcdabcd"
    assert out.iloc[0]["n_days"] == 8


def test_sax_breakpoints_are_mean_based(ray_session, tmp_path):
    """Two days fold into one segment when n > width·? — here n=16,
    width=8 -> 2 days/segment; the symbol bins the MEAN, compared in
    integers (sum vs break*len)."""
    from nrt_ray.pipelines.timeseries import sax_symbols_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    # each consecutive pair averages to: 49.99, 50.00 -> means straddle
    # the 5000-cent break: [49.98,50.00]->49.99 'a', [50.00,50.00] 'b'
    vals = ([49.98, 50.00, 50.00, 50.00] * 4)
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, v)
            for i, v in enumerate(vals)]
    out = _df(sax_symbols_events(_write_events(tmp_path, rows)))
    assert out.iloc[0]["sax"] == "abab" * 2


def test_bollinger_planted_spike(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import bollinger_breakouts_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    cents = [100] * 7 + [1000]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    rows += [(90 + i, d0 + i * DAY_US + 1, 2, 1.00) for i in range(6)]
    out = _df(bollinger_breakouts_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]       # user 2: < window days
    r = out.iloc[0]
    # flat window: L=0 -> no breakout; the spike day: L^2 > 4Q -> up
    assert (r["n_days"], r["n_windows"], r["n_up"], r["n_down"]) \
        == (8, 2, 1, 0)


def test_seasonal_strength_pure_weekday_pattern(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import seasonal_strength_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    rows = []
    eid = 0
    for k in range(14):       # value a function of weekday only -> 1.0
        eid += 1
        rows.append((eid, d0 + k * DAY_US + 1, 1, float(10 + (k % 7))))
    for k in range(14):       # constant -> SS_total = 0 -> excluded
        eid += 1
        rows.append((eid, d0 + k * DAY_US + 1, 2, 5.00))
    for k in range(10):       # too few days -> excluded
        eid += 1
        rows.append((eid, d0 + k * DAY_US + 1, 3, float(k)))
    out = _df(seasonal_strength_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]
    assert out.iloc[0]["seasonal_strength"] == 1.0
    assert out.iloc[0]["n_days"] == 14


def test_ewma_crossover_matches_direct_replay(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import (_EWMA_FAST, _EWMA_SLOW,
                                              ewma_crossover_events)
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    cents = [100, 400, 50, 500, 60, 600, 70]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    out = _df(ewma_crossover_events(_write_events(tmp_path, rows)))
    # independent replay of the recursion
    af, asl = _EWMA_FAST, _EWMA_SLOW
    f = s = float(cents[0])
    prev, ncross = 0.0, 0
    for c in cents[1:]:
        f = af * c + (1.0 - af) * f
        s = asl * c + (1.0 - asl) * s
        dd = f - s
        if (dd > 0 > prev) or (dd < 0 < prev):
            ncross += 1
        prev = dd
    r = out.iloc[0]
    assert r["n_days"] == len(cents)
    assert r["n_cross"] == ncross
    assert abs(r["last_diff"] - prev) < 1e-6


def test_drawdown_planted_peak_trough(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import drawdown_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    # daily cents: 100 500 200 50 400 -> peak 500 at i=2, trough 50 at
    # i=4 -> dd=450; the later 400 does not beat the peak
    cents = [100, 500, 200, 50, 400]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    # user 2: strictly increasing -> drawdown 0, trough at day 1
    rows += [(80 + i, d0 + i * DAY_US + 1, 2, float(i + 1))
             for i in range(4)]
    out = _df(drawdown_events(_write_events(tmp_path, rows)))
    byu = out.set_index("user_id")
    assert (byu.loc[1, "max_drawdown_cents"], byu.loc[1, "trough_idx"],
            byu.loc[1, "n_days"]) == (450, 4, 5)
    assert (byu.loc[2, "max_drawdown_cents"],
            byu.loc[2, "trough_idx"]) == (0, 1)


def test_cusum_breach_planted_alarm_and_reset(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import cusum_breach_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    # k=10000, h=50000.  Six days at 30000: S+ grows by 20000/day ->
    # breaches (>50000) on day 3 (60000), resets, breaches again on
    # day 6, resets.  Then two days at 9000: S- = 1000, 2000.
    cents = [30000] * 6 + [9000, 9000]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    out = _df(cusum_breach_events(_write_events(tmp_path, rows)))
    r = out.iloc[0]
    assert (r["n_days"], r["n_alarms"], r["last_sp"], r["last_sn"]) \
        == (8, 2, 0, 2000)


def test_readability_planted_counts(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    from nrt_ray.pipelines.textops import readability_scores
    texts = ["The cat sat. The dog ran!",   # 6 words, 2 sents
             "no sentence markers here",    # 4 words, floored 1 sent
             ""]                            # 0 words -> excluded
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
        "source": pa.array(["t"] * 3, pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    _pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = _df(readability_scores(str(tmp_path)))
    assert sorted(out["doc_id"]) == [1, 2]
    byd = out.set_index("doc_id")
    assert byd.loc[1, "n_words"] == 6
    assert byd.loc[1, "n_sents"] == 2
    # vowel groups: the-1 cat-1 sat-1 the-1 dog-1 ran-1 = 6
    assert byd.loc[1, "n_syllables"] == 6
    exp = 206.835 - 1.015 * (6 / 2) - 84.6 * (6 / 6)
    assert abs(byd.loc[1, "flesch"] - exp) < 1e-4
    assert byd.loc[2, "n_sents"] == 1


def test_kalman_level_matches_direct_replay(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import (_KALMAN_Q, _KALMAN_R,
                                              kalman_level_events)
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    cents = [10000, 30000, 5000, 20000, 15000]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    out = _df(kalman_level_events(_write_events(tmp_path, rows)))
    lvl, p = float(cents[0]), _KALMAN_R
    kg = 0.0
    for c in cents[1:]:
        pp = p + _KALMAN_Q
        kg = pp / (pp + _KALMAN_R)
        lvl = lvl + kg * (c - lvl)
        p = (1.0 - kg) * pp
    r = out.iloc[0]
    assert r["n_days"] == 5
    assert abs(r["level"] - lvl) < 1e-6
    assert abs(r["p_var"] - p) < 1e-6
    assert abs(r["gain"] - kg) < 1e-6
    # the filter pulls the level toward the running mean, between the
    # first observation and the last
    assert min(cents) < r["level"] < max(cents)


def test_changepoint_planted_step(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import changepoint_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    # clean step: 4 days at 100, then 4 days at 900 -> split at s=4
    cents = [100] * 4 + [900] * 4
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    rows += [(90 + i, d0 + i * DAY_US + 1, 2, 1.00) for i in range(3)]
    out = _df(changepoint_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]       # user 2: too short
    r = out.iloc[0]
    assert r["split_idx"] == 4
    assert r["mean_left"] == 100.0
    assert r["mean_right"] == 900.0
    # perfect step: the split removes ALL the variance
    exp_sst = sum((c - 500) ** 2 for c in cents)   # means are exact
    assert abs(r["gain"] - exp_sst) < 1e-6


def test_mad_outlier_days_planted(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import mad_outlier_days_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    # 7 days: median 100, MAD = median(|c-100|) = 10; the 1000-cent
    # day deviates 900 > 3*10 -> exactly one outlier
    cents = [100, 110, 90, 100, 105, 95, 1000]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    out = _df(mad_outlier_days_events(_write_events(tmp_path, rows)))
    r = out.iloc[0]
    assert (r["n_days"], r["n_outliers"]) == (7, 1)
    assert r["med2_cents"] == 200              # 2 * 100
    # devs sorted: [0,0,5,5,10,10,900] -> median dev 5 -> 4*MAD = 20
    assert r["mad4_cents"] == 20


def test_rescaled_range_planted(ray_session, tmp_path):
    import math
    from nrt_ray.pipelines.timeseries import rescaled_range_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    cents = [100, 300, 200, 400, 100, 300, 200, 400]
    rows = [(i + 1, d0 + i * DAY_US + 1, 1, c / 100.0)
            for i, c in enumerate(cents)]
    # constant user: zero variance -> excluded
    rows += [(90 + i, d0 + i * DAY_US + 1, 2, 5.00) for i in range(8)]
    out = _df(rescaled_range_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]
    n = len(cents)
    tot = sum(cents)
    ps, acc = [], 0
    for c in cents:
        acc += c
        ps.append(acc)
    walk = [n * p - (i + 1) * tot for i, p in enumerate(ps)]
    rn = max(walk) - min(walk)
    var = (sum(c * c for c in cents) - tot * tot / n) / n
    exp = (rn / n) / math.sqrt(var)
    assert abs(out.iloc[0]["rs_stat"] - exp) < 1e-6
    assert out.iloc[0]["n_days"] == n


def test_gini_uniform_vs_concentrated(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import gini_daily_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    rows = []
    # user 1: perfectly uniform 4 days -> G = 0
    rows += [(i + 1, d0 + i * DAY_US + 1, 1, 2.00) for i in range(4)]
    # user 2: [100,100,100,900] -> sorted, num = sum((2i-n-1)c)
    c2 = [100, 100, 100, 900]
    rows += [(10 + i, d0 + i * DAY_US + 1, 2, c / 100.0)
             for i, c in enumerate(c2)]
    out = _df(gini_daily_events(_write_events(tmp_path, rows)))
    byu = out.set_index("user_id")
    assert byu.loc[1, "gini"] == 0.0
    n, tot = 4, sum(c2)
    num = sum((2 * (i + 1) - n - 1) * c
              for i, c in enumerate(sorted(c2)))
    assert abs(byu.loc[2, "gini"] - num / (n * tot)) < 1e-6


def test_wow_growth_skips_gap_weeks(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import wow_growth_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    wk = 7 * DAY_US
    rows = [
        (1, d0 + 1, 1, 1.00),                # week 0: 100
        (2, d0 + 2 * wk + 1, 1, 5.00),       # week 2 (week 1 absent)
        (3, d0 + 2 * wk + DAY_US, 1, 2.00),  # week 2 again: total 700
        (4, d0 + 1, 2, 9.00),                # user 2: single week
    ]
    out = _df(wow_growth_events(_write_events(tmp_path, rows)))
    assert list(out["user_id"]) == [1]
    r = out.iloc[0]
    assert (r["n_weeks"], r["last_week_cents"], r["prev_week_cents"],
            r["growth_cents"]) == (2, 700, 100, 600)


def test_hapax_ratio_planted(ray_session, tmp_path):
    import pyarrow.parquet as _pq
    from nrt_ray.pipelines.textops import hapax_ratio
    texts = ["a b a c b d",    # counts a2 b2 c1 d1 -> 2/4 hapax
             "x x x",          # 0/1
             ""]               # excluded
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
        "source": pa.array(["t"] * 3, pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    _pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = _df(hapax_ratio(str(tmp_path)))
    assert sorted(out["doc_id"]) == [1, 2]
    byd = out.set_index("doc_id")
    assert (byd.loc[1, "n_tokens"], byd.loc[1, "n_distinct"],
            byd.loc[1, "n_hapax"]) == (6, 4, 2)
    assert byd.loc[1, "hapax_ratio"] == 0.5
    assert (byd.loc[2, "n_distinct"], byd.loc[2, "n_hapax"]) == (1, 0)
    assert byd.loc[2, "hapax_ratio"] == 0.0


def test_burstiness_metronome_vs_bursty(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import burstiness_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    rows = []
    # user 1: perfectly regular gaps -> sigma=0 -> B = -1
    rows += [(i + 1, d0 + i * 3_600_000_000, 1, 1.0) for i in range(5)]
    # user 2: bursty — gaps [1us, 1us, big] -> B > 0
    for j, off in enumerate([0, 1, 2, 10**12]):
        rows.append((50 + j, d0 + off, 2, 1.0))
    # user 3: single event -> excluded
    rows.append((99, d0, 3, 1.0))
    out = _df(burstiness_events(_write_events(tmp_path, rows)))
    byu = out.set_index("user_id")
    assert byu.loc[1, "burstiness"] == -1.0
    assert byu.loc[1, "n_gaps"] == 4
    # finite-size bound: max B for n=3 gaps is (sqrt(2)-1)/(sqrt(2)+1)
    # ~ 0.1716; the planted burst sits essentially at it
    assert byu.loc[2, "burstiness"] > 0.17
    assert 3 not in byu.index


def test_fano_factor_poisson_like_and_clumped(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import fano_factor_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    rows = []
    # user 1: one event every day for 4 days -> var 0 -> fano 0
    rows += [(i + 1, d0 + i * DAY_US + 1, 1, 1.0) for i in range(4)]
    # user 2: 4 events on day 0, none on days 1-3 -> span 4,
    # counts [4,0,0,0]: mu=1, var=(16-4)/4=3 -> fano 3
    rows += [(10 + i, d0 + i, 2, 1.0) for i in range(4)]
    rows.append((20, d0 + 3 * DAY_US + 1, 2, 1.0))
    # ^ adds a 5th event on day 3: counts [4,0,0,1], span 4 — recompute
    out = _df(fano_factor_events(_write_events(tmp_path, rows)))
    byu = out.set_index("user_id")
    assert byu.loc[1, "fano"] == 0.0
    assert byu.loc[1, "span_days"] == 4
    sc, scc, span = 5, 17, 4
    mu = sc / span
    var = (scc - sc * sc / span) / span
    assert abs(byu.loc[2, "fano"] - var / mu) < 1e-6


def test_percentile_rank_orders_and_ties(ray_session, tmp_path):
    from nrt_ray.pipelines.timeseries import user_percentile_rank_events
    d0 = (1_700_000_000_000_000 // DAY_US) * DAY_US
    # totals: u1=300, u2=100, u3=300 (tie with u1 -> u1 ranks first)
    rows = [(1, d0 + 1, 1, 3.00), (2, d0 + 2, 2, 1.00),
            (3, d0 + 3, 3, 2.00), (4, d0 + 4, 3, 1.00)]
    out = _df(user_percentile_rank_events(_write_events(tmp_path, rows)))
    byu = out.set_index("user_id")
    assert byu.loc[2, "rnk"] == 0 and byu.loc[2, "pct"] == 0.0
    assert byu.loc[1, "rnk"] == 1                 # tie broken by uid
    assert byu.loc[3, "rnk"] == 2 and byu.loc[3, "pct"] == 1.0


def test_daily_hll_wrap_range_n_zero(ray_session, tmp_path):
    """Planted day with n_zero in the int64 positive-wrap range
    (512 < n_zero < 768): a numpy-int64 ``n_zero * 2^55`` register sum
    would wrap to a SMALL positive value, flip the estimator off the
    linear-counting branch and diverge; exact python-int arithmetic
    must keep the branch and match the naive replay (VERDICT r3 #1)."""
    from nrt_ray.pipelines.relational import round_away
    from nrt_ray.pipelines.timeseries import (DHLL_M, DHLL_REM_BITS,
                                              daily_active_users_hll,
                                              _mix64_user)
    n_users = 400                     # occupies 328 regs -> n_zero=696
    d0 = 1_700_000_000_000_000 // DAY_US * DAY_US
    rows = [(u, d0 + u, u, 1.0) for u in range(1, n_users + 1)]
    out = _df(daily_active_users_hll(_write_events(tmp_path, rows)))
    assert len(out) == 1
    row = out.iloc[0]
    assert int(row["n_active_exact"]) == n_users
    # naive exact-arithmetic replay of the sketch
    h = _mix64_user(np.arange(1, n_users + 1, dtype=np.int64))
    regs = {}
    for hv in h:
        idx = int(hv >> np.uint64(DHLL_REM_BITS))
        rem = int(hv & np.uint64((1 << DHLL_REM_BITS) - 1))
        regs[idx] = max(regs.get(idx, 0),
                        DHLL_REM_BITS + 1 - rem.bit_length())
    n_zero = DHLL_M - len(regs)
    assert 512 < n_zero < 768, "fixture must sit in the wrap range"
    assert int(row["n_zero_registers"]) == n_zero
    two_top = 1 << (DHLL_REM_BITS + 1)
    s = sum(1 << (DHLL_REM_BITS + 1 - r) for r in regs.values()) \
        + n_zero * two_top            # pure python ints: exact
    alpha = 0.7213 / (1.0 + 1.079 / DHLL_M)
    e_raw = alpha * DHLL_M * DHLL_M * float(two_top) / s
    assert e_raw <= 2.5 * DHLL_M      # exact math picks linear counting
    est = DHLL_M * np.log(DHLL_M / n_zero)
    assert abs(row["hll_estimate"] - round_away(
        np.array([est]), 4)[0]) < 1e-9
    # the int64-wrapped sum ((n_zero-512)*2^55-ish) would have picked
    # the raw branch instead — i.e. the old bug diverges on this day
    s_wrapped = s - n_zero * two_top + (n_zero - 512) * two_top
    assert (alpha * DHLL_M * DHLL_M * float(two_top) / s_wrapped) \
        > 2.5 * DHLL_M
