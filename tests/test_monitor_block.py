"""``BaseMonitor.monitor_block`` vs the per-date step loop it replaced.

The oracle below is the one-step update every strategy used to apply once
per acquisition row (screen → update → break check), kept here verbatim
as the reference.  The block scan must reproduce its state bit for bit:
same dtypes, same values, NaNs and signed zeros in place.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from nrt_ray.kernels.monitors import (BREAK, EWMA, MONITOR_REGISTRY,
                                      MONITORED, TOO_SHORT, UNSTABLE, CuSum,
                                      MoSum, scan_columns)
from nrt_ray.sources import extract
from nrt_ray.stages import assemble
from nrt_ray.stages.fit_monitor import SeriesFitMonitor

STRATEGIES = sorted(MONITOR_REGISTRY)


# -- the per-date reference loop ---------------------------------------------

def _step_ewma(mon, resid, valid):
    lam = mon.lambda_
    new = np.where(np.isnan(resid), mon.process,
                   (1.0 - lam) * mon.process + lam * resid)
    mon.process = np.where(valid, new, mon.process)


def _step_cusum(mon, resid, valid):
    mon.n = mon.n + valid
    x = mon.n / mon.histsize
    mon.boundary = np.where(
        valid, np.sqrt(x * (x - 1) * (mon.critval ** 2
                                      + np.log(x / (x - 1)))),
        mon.boundary)
    norm = resid / (mon.sigma * np.sqrt(mon.histsize))
    mon.process = np.where(valid, mon.process + norm, mon.process)


def _step_mosum(mon, resid, valid):
    idx = np.flatnonzero(valid)
    slot = np.mod(mon.n - mon.histsize, mon.winsize)[idx]
    norm = resid / (mon.sigma * np.sqrt(mon.histsize))
    mon.window[slot, idx] = norm[idx]
    mon.n = mon.n + valid
    x = mon.n / mon.histsize
    log_term = np.ones_like(x, dtype=np.float64)
    np.log(x, out=log_term, where=(x > np.e))
    mon.boundary = np.where(valid, mon.critval * np.sqrt(2.0 * log_term),
                            mon.boundary)


def _step_run_length(mon, resid, valid):
    out = mon._is_outlier(resid)
    if mon.process is None:
        mon.process = np.zeros(resid.shape, dtype=np.uint8)
    mon.process = np.where(valid, mon.process * out + out,
                           mon.process).astype(np.uint8)


_STEPS = {"EWMA": _step_ewma, "CUSUM": _step_cusum, "MOSUM": _step_mosum,
          "CCDC": _step_run_length, "IQR": _step_run_length}


def oracle_step(mon, resid, values, days, update):
    """One acquisition row: ``(m,)`` residuals, values and days."""
    if mon.detection_date is None:
        mon.detection_date = np.zeros(mon.status.shape, dtype=np.int32)
    with np.errstate(all="ignore"):
        valid = (mon.status == MONITORED) & np.isfinite(values)
        if isinstance(mon, EWMA):
            valid &= ~(np.abs(resid) > mon.threshold_outlier * mon.sigma)
        _STEPS[mon.strategy](mon, resid, valid)
        if update:
            process = (np.nansum(mon.window, axis=0)
                       if isinstance(mon, MoSum) else mon.process)
            brk = valid & (np.abs(process) >= mon.boundary)
            mon.status[brk] = BREAK
            mon.detection_date[brk] = days[brk]


def oracle_loop(mon, resid, values, days, update):
    for t in range(resid.shape[0]):
        oracle_step(mon, resid[t], values[t], days[t], update)


def oracle_ewma_seed(lam, residuals):
    ewma = np.zeros(residuals.shape[1], dtype=np.float64)
    for row in residuals:
        ewma = np.where(np.isnan(row), ewma,
                        (1.0 - lam) * ewma + lam * row)
    return ewma


# -- helpers -----------------------------------------------------------------

def _same(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if not np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
        return False
    return x.dtype.kind != "f" or np.array_equal(np.signbit(x),
                                                 np.signbit(y))


def assert_same_state(got, want):
    a, b = got.state_dict(), want.state_dict()
    assert a.keys() == b.keys()
    for name in a:
        x, y = a[name], b[name]
        if isinstance(x, list):          # MoSum's windows, one per url
            assert len(x) == len(y) and all(map(_same, x, y)), name
        else:
            assert _same(x, y), name
    if isinstance(got, MoSum):
        assert _same(got.window, want.window), "window"


def assert_same_table(got: pa.Table, want: pa.Table):
    assert got.schema == want.schema
    for name in got.column_names:
        a, b = got.column(name), want.column(name)
        if pa.types.is_list(a.type):
            assert pc.list_value_length(a).equals(
                pc.list_value_length(b)), name
            a, b = pc.list_flatten(a), pc.list_flatten(b)
        assert _same(a.to_numpy(), b.to_numpy()), name


def _ragged(seed, m=40, n_hist=160, n_mon=140):
    """Weekly seasonal series, NaN-holed, each column keeping its own share
    of the rows (so column lengths differ widely) and ending at its own
    row, with level breaks planted in a third of them."""
    rng = np.random.default_rng(seed)
    n = n_hist + n_mon
    dates = np.datetime64("2017-01-02") + 7 * np.arange(n)
    dy = dates.astype("datetime64[s]").astype(float) / (365.25 * 86400)
    values = (0.5 + 0.2 * np.sin(2 * np.pi * dy[:, None]
                                 + rng.uniform(0, 6.28, m))
              + rng.normal(0, 0.05, (n, m)))
    keep = rng.uniform(0.08, 1.0, m)
    values[rng.random((n, m)) > keep] = np.nan
    values[:, :4] = np.where(rng.random((n, 4)) < 0.97, values[:, :4],
                             np.nan)           # a few dense columns
    for j in range(m):
        values[n_hist + rng.integers(0, n_mon):, j] = np.nan
    values[n_hist + 40:, : m // 3] -= 0.6
    return dates[:n_hist], values[:n_hist], dates[n_hist:], values[n_hist:]


def _fitted(strategy, seed=0, m=40, **monitor_params):
    hd, hv, md, mv = _ragged(seed, m=m)
    mon = MONITOR_REGISTRY[strategy](**monitor_params)
    kw = {} if strategy == "EWMA" else dict(method="OLS",
                                             screen_outliers=None)
    hv[5:, m - 1] = np.nan                      # 5 rows → TOO_SHORT
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mon.fit(hd, hv, **kw)
    mon.status[m - 2] = UNSTABLE
    mon.status[m - 3] = TOO_SHORT
    resid = mv - mon.design_matrix(md) @ mon.beta
    rng = np.random.default_rng(seed + 1)
    days = (md.astype("datetime64[D]").astype(np.int64)[:, None]
            + rng.integers(0, 3, mv.shape))
    return mon, resid, mv, days


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("update", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_block_scan_equals_step_loop(strategy, update):
    mon, resid, values, days = _fitted(strategy)
    # a series with no monitored rows at all
    values[:, 5] = np.nan
    if strategy == "EWMA":
        # extreme outliers are screened out of the update
        resid[3:9, 6] = 50 * mon.sigma[6]
        values[3:9, 6] = 9.0
        # a valid step whose residual is NaN holds the average
        resid[2, 7] = np.nan
    oracle = copy.deepcopy(mon)
    mon.monitor_block(resid, values, days, update_mask=update)
    oracle_loop(oracle, resid, values, days, update)
    assert_same_state(mon, oracle)
    if update and strategy in ("EWMA", "CCDC", "IQR"):
        assert (mon.status == BREAK).any()
    assert mon.status[5] == oracle.status[5] == MONITORED


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_break_on_first_monitored_step(strategy):
    mon, resid, values, days = _fitted(strategy, seed=3)
    if strategy == "EWMA":
        resid[0, :3] = 5 * mon.sigma[:3]      # beyond 2σ-EWMA, under 10σ
    elif strategy in ("CCDC", "IQR"):
        mon.process = np.full(len(mon.status), 2, dtype=np.uint8)
        resid[0, :3] = 40.0
    elif strategy == "CUSUM":
        mon.process[:3] = 1e6
        resid[0, :3] = 0.0
    else:
        mon.window[:, :3] = 1e3
        resid[0, :3] = 1e3
    values[0, :3] = 0.5
    oracle = copy.deepcopy(mon)
    mon.monitor_block(resid, values, days)
    oracle_loop(oracle, resid, values, days, True)
    assert_same_state(mon, oracle)
    assert (mon.status[:3] == BREAK).all()
    assert (mon.detection_date[:3] == days[0, :3]).all()


def test_process_equal_to_boundary_breaks():
    """``|process| == boundary`` is a break (≥, not >), here at a valid
    step whose NaN residual leaves the process exactly on the limit."""
    mon, resid, values, days = _fitted("EWMA", seed=4)
    mon.status[:] = MONITORED
    mon.process = mon.boundary.copy()
    mon.process[1] = -mon.boundary[1]
    resid[0, :2] = np.nan
    values[0, :2] = 0.5
    oracle = copy.deepcopy(mon)
    mon.monitor_block(resid, values, days)
    oracle_loop(oracle, resid, values, days, True)
    assert_same_state(mon, oracle)
    assert (mon.status[:2] == BREAK).all()
    assert (mon.detection_date[:2] == days[0, :2]).all()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_restore_then_scan_equals_one_shot(strategy):
    mon, resid, values, days = _fitted(strategy, seed=5)
    one_shot = copy.deepcopy(mon)
    one_shot.monitor_block(resid, values, days)
    cut = 37
    mon.monitor_block(resid[:cut], values[:cut], days[:cut])
    back = type(mon).from_state(mon.config_dict(), mon.state_dict())
    back.monitor_block(resid[cut:], values[cut:], days[cut:])
    assert_same_state(back, one_shot)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("width", [1, 2, 9])
def test_column_subset_equals_full_width_loop(strategy, width):
    """A block where only ``width`` series observe anything (the increment
    update's full-width block, NaN for urls not in the batch)."""
    mon, resid, values, days = _fitted(strategy, seed=6)
    m = len(mon.status)
    cols = np.random.default_rng(width).choice(m, width, replace=False)
    full_r = np.full(resid.shape, np.nan)
    full_v = np.full(values.shape, np.nan)
    full_r[:, cols], full_v[:, cols] = resid[:, cols], values[:, cols]
    oracle = copy.deepcopy(mon)
    oracle_loop(oracle, full_r, full_v, days, True)
    mon.monitor_block(full_r, full_v, days)
    assert_same_state(mon, oracle)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_series_monitor(strategy):
    """A one-series monitor (the hot-url merge partitions)."""
    mon, resid, values, days = _fitted(strategy, seed=7)
    one = type(mon).from_state(mon.config_dict(), {
        k: v[:1] for k, v in mon.state_dict().items()})
    oracle = copy.deepcopy(one)
    one.monitor_block(resid[:, :1], values[:, :1], days[:, :1])
    oracle_loop(oracle, resid[:, :1], values[:, :1], days[:, :1], True)
    assert_same_state(one, oracle)


def test_cusum_signed_zero_survives_gaps():
    """A -0.0 process stays -0.0 across rows a series did not observe."""
    mon, resid, values, days = _fitted("CUSUM", seed=10)
    mon.process[:] = -0.0
    values[0], values[1:3, :5] = np.nan, 0.5
    resid[1:3, :5] = -0.0
    oracle = copy.deepcopy(mon)
    mon.monitor_block(resid[:3], values[:3], days[:3])
    oracle_loop(oracle, resid[:3], values[:3], days[:3], True)
    assert_same_state(mon, oracle)
    assert np.signbit(mon.process[:5]).all()


@pytest.mark.parametrize("strategy", ["CCDC", "IQR"])
def test_run_length_wraps_like_uint8(strategy):
    """With ``update_mask=False`` a run of outliers keeps counting; the
    stored uint8 run length wraps at 256 exactly as the step loop's did."""
    mon, resid, values, days = _fitted(strategy, seed=13)
    reps = 3
    resid, values, days = (np.concatenate([a] * reps) for a in
                           (resid, values, days))
    resid[:, :4] = 1e3
    values[:, :4] = 0.5
    oracle = copy.deepcopy(mon)
    mon.monitor_block(resid, values, days, update_mask=False)
    oracle_loop(oracle, resid, values, days, False)
    assert_same_state(mon, oracle)
    assert (mon.process[:4] == (len(resid) % 256)).all()


def test_monitor_residuals_is_one_row_block():
    mon, resid, values, days = _fitted("CUSUM", seed=8)
    oracle = copy.deepcopy(mon)
    for t in range(resid.shape[0]):
        mon.monitor_residuals(resid[t], values[t], days[t])
    oracle_loop(oracle, resid, values, days, True)
    assert_same_state(mon, oracle)


@pytest.mark.parametrize("m", [3, 40])
def test_ewma_seed_and_scan_columns(m):
    """The per-series scalar scan reproduces the row loop, including one
    very long column and columns with no cell at all."""
    rng = np.random.default_rng(m)
    r = rng.normal(0, 1, (900, m))
    r[rng.random(r.shape) < rng.uniform(0.05, 0.97, m)] = np.nan
    r[:, 0] = rng.normal(0, 1, 900)
    r[5, 1] = np.inf
    r[:, 2] = np.nan
    mon = EWMA()
    want = oracle_ewma_seed(mon.lambda_, r)
    traj, final = scan_columns(mon._ewma(), np.zeros(m), r, ~np.isnan(r))
    assert _same(final, want)
    assert np.isnan(traj[np.isnan(r)]).all()
    # the trajectory's last finite entry per column is the final value
    for col in np.flatnonzero((~np.isnan(r)).any(axis=0)):
        assert _same(traj[~np.isnan(r[:, col]), col][-1], want[col])


# -- the ragged pipeline and the increment update ----------------------------

def _flat(urls, values, dates):
    ts = dates.astype("datetime64[us]").astype(np.int64)
    n, m = values.shape
    flat_val = values.ravel(order="F")
    keep = np.isfinite(flat_val)
    flat_ts = np.tile(ts, m)[keep]
    days, dyear = extract.timestamp_features(
        pa.array(flat_ts, pa.int64()).cast(pa.timestamp("us")))
    return pa.table({
        "url": pa.array(np.repeat(urls, n)[keep], pa.string()),
        "warc_ts": pa.array(flat_ts, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(flat_val[keep], pa.float64()),
        "days": pa.array(days, pa.int32()),
        "dyear": pa.array(dyear, pa.float64()),
    })


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_update_state_subset_of_urls(strategy):
    """The increment update of a batch that holds only some of the
    partition's urls (plus one new url) equals the per-date loop over
    full-width rows, and the restored-then-updated state equals a
    one-shot run over all rows."""
    from nrt_ray.pipelines.incremental import IncrementProcessor
    from nrt_ray.stages.assemble import padded_matrices
    from nrt_ray.stages.fit_monitor import regressor_tensor

    hd, hv, md, mv = _ragged(11, m=24)
    dates = np.concatenate([hd, md])
    values = np.concatenate([hv, mv])
    m = values.shape[1]
    urls = np.array([f"https://u.example.com/{i:03d}" for i in range(m)])
    cfg = {"strategy": strategy, "monitor_start": str(md[0]), "tiers": [],
           "fit_method": None if strategy == "EWMA" else "OLS",
           "screen_outliers": "default" if strategy == "EWMA" else None}
    proc = IncrementProcessor("unused", "run", cfg, 0)
    cut = len(hd) + 60
    state = proc.stage(assemble.assemble_series(
        _flat(urls, values[:cut], dates[:cut])))
    later = values[cut:].copy()
    later[:, ::3] = np.nan                      # urls absent from the batch
    new_url = np.array(["https://u.example.com/new"])
    batch = pa.concat_tables([
        _flat(urls, later, dates[cut:]),
        _flat(new_url, values[:, :1], dates)])
    series = assemble.assemble_series(batch)
    got = proc._update_state(state, series)

    # reference: the per-date loop over full-width rows
    mon = proc.stage.restore(state)
    pos = {u: i for i, u in enumerate(state.column("url").to_pylist())}
    mats = padded_matrices(series)
    idx = np.array([pos.get(u, -1) for u in mats["url"]])
    known = idx >= 0
    sel = idx[known]
    X3 = regressor_tensor(mats["days"][:, known], mats["dyear"][:, known],
                          proc.stage.trend, proc.stage.harmonic_order)
    resid_k = mats["value"][:, known] - np.einsum(
        "tki,ik->tk", X3, mon.beta[:, sel])
    within = np.arange(len(resid_k))[:, None] < mats["length"][None, known]
    vals_k = np.where(within, mats["value"][:, known], np.nan)
    for t in range(len(resid_k)):
        r = np.full(m, np.nan)
        v = np.full(m, np.nan)
        d = np.zeros(m, dtype=np.int64)
        r[sel], v[sel], d[sel] = resid_k[t], vals_k[t], mats["days"][t, known]
        oracle_step(mon, r, v, d, True)
    want = proc.stage._state_table(np.array(list(pos), dtype=object), mon)
    assert_same_table(got.slice(0, m), want)
    assert got.num_rows == m + 1
    assert got.column("url")[m].as_py() == new_url[0]

    # restore-then-scan ≡ one-shot.  Not for IQR: its history quartiles
    # (nan_percentile_axis0) move in the last ulp with the padded length
    # of the batch they are fitted in, before any monitoring.
    if strategy == "IQR":
        return
    both = values.copy()
    both[cut:] = later
    one_shot = proc.stage(assemble.assemble_series(
        _flat(urls, both, dates)))
    assert_same_table(got.slice(0, m), one_shot)


def test_series_fit_monitor_has_no_step_loop_drift():
    """The ragged stage over a wide, length-skewed batch equals fitting
    with the stage and monitoring with the reference loop."""
    hd, hv, md, mv = _ragged(12, m=30)
    dates = np.concatenate([hd, md])
    values = np.concatenate([hv, mv])
    urls = np.array([f"https://w.example.com/{i:03d}" for i in range(30)])
    stage = SeriesFitMonitor(strategy="EWMA", monitor_start=str(md[0]))
    series = assemble.assemble_series(_flat(urls, values, dates))
    got = stage(series)

    mats = assemble.padded_matrices(series)
    from nrt_ray.stages.fit_monitor import (regressor_tensor,
                                            split_history_monitor)
    hist, part = split_history_monitor(mats, stage.monitor_start_us)
    mon = stage._fit(hist, mats["url"])
    X3 = regressor_tensor(part["days"], part["dyear"], stage.trend,
                          stage.harmonic_order)
    resid = part["value"] - np.einsum("tki,ik->tk", X3, mon.beta)
    within = np.arange(len(resid))[:, None] < part["length"][None, :]
    oracle_loop(mon, resid, np.where(within, part["value"], np.nan),
                part["days"], True)
    assert_same_table(got, stage._state_table(mats["url"], mon))
