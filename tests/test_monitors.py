"""End-to-end monitor conformance vs the golden strucchange runs, plus
state round-trip checks.

Mirrors the reference tests: fit on the first 100 golden dates, monitor the
remaining acquisitions one by one, compare final process / boundary /
histsize / sigma against the R `mefp`/`monitor` outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from nrt_ray.kernels.monitors import (BREAK, MONITORED, MONITOR_REGISTRY,
                                      CCDC, CuSum, EWMA, IQR, MoSum)


def _six_series(y):
    """Widen the golden 5-series matrix to 6 by duplicating column 0
    (matches the reference test setup)."""
    return np.insert(y, 5, values=y[:, 0], axis=1)


def test_cusum_process_boundary_vs_strucchange(X_y_dates_romania,
                                               golden_cusum):
    X, y, dates = X_y_dates_romania
    y6 = _six_series(y)
    mon = CuSum(trend=False)
    mon.fit(dates[:100], y6[:100], method="OLS")
    mon.monitor_matrix(dates[100:], y6[100:])

    np.testing.assert_allclose(golden_cusum[0], mon.process[:-1], rtol=1e-4)
    np.testing.assert_allclose(golden_cusum[1], mon.boundary[:-1], rtol=1e-6)
    np.testing.assert_allclose(golden_cusum[2], mon.histsize[:-1])
    np.testing.assert_allclose(golden_cusum[3], mon.sigma[:-1], rtol=1e-6)


def test_mosum_process_boundary_vs_strucchange(X_y_dates_romania,
                                               golden_mosum):
    X, y, dates = X_y_dates_romania
    y6 = _six_series(y)
    mon = MoSum(trend=False)
    mon.fit(dates[:100], y6[:100], method="OLS")
    mon.monitor_matrix(dates[100:], y6[100:])

    # series 2 contains a confirmed break → R (which keeps monitoring)
    # diverges there, like in the reference test it is excluded
    np.testing.assert_allclose(np.delete(golden_mosum[0], 2),
                               np.delete(mon.process, [2, 5]), rtol=1e-4)
    np.testing.assert_allclose(golden_mosum[1], mon.boundary[:-1], rtol=1e-6)
    np.testing.assert_allclose(golden_mosum[2], mon.histsize[:-1])
    np.testing.assert_allclose(golden_mosum[3], mon.sigma[:-1], rtol=1e-6)


def test_lasso_fit_end_to_end(X_y_dates_romania):
    """method='LASSO' fits and monitors (beyond-reference: the reference
    raises NotImplementedError at this dispatch, nrt/monitor/__init__.py
    :244-245).  With λ→0 the run must agree with the OLS fit; with a
    moderate λ it must still produce a finite monitorable state."""
    X, y, dates = X_y_dates_romania
    y6 = _six_series(y)
    mon_l = EWMA(trend=False, L=5)
    mon_l.fit(dates[:100], y6[:100], method="LASSO", lam=1e-12,
              maxiter=20000, tol=1e-14)
    mon_o = EWMA(trend=False, L=5)
    mon_o.fit(dates[:100], y6[:100], method="OLS")
    np.testing.assert_allclose(mon_l.beta, mon_o.beta, atol=1e-5)
    np.testing.assert_allclose(mon_l.sigma, mon_o.sigma, rtol=1e-4)

    mon = EWMA(trend=False, L=5)
    mon.fit(dates[:100], y6[:100], method="LASSO", lam=0.02)
    mon.monitor_matrix(dates[100:], y6[100:])
    assert np.isfinite(mon.sigma).all()
    assert np.isfinite(mon.process).all()


monitor_params = {
    "EWMA": (EWMA, {"trend": False, "L": 5}, 5),
    "IQR": (IQR, {"trend": False, "harmonic_order": 1}, 3),
    "CUSUM": (CuSum, {}, 6),
    "MOSUM": (MoSum, {}, 6),
}


@pytest.fixture(scope="module")
def synth_series():
    """Deterministic seasonal series batch with planted breaks (analog of
    the Romania NDVI cube; see FIXTURES.md §1)."""
    rng = np.random.default_rng(42)
    dates = np.arange("2018-01-01", "2022-06-15", 7, dtype="datetime64[D]")
    n = len(dates)
    m = 24
    dy = dates.astype("datetime64[s]").astype(float) / (365.25 * 86400) + 1970
    t = 2 * np.pi * dy
    values = (0.5
              + 0.25 * np.sin(t[:, None] + rng.uniform(0, 2 * np.pi, m))
              + rng.normal(0, 0.04, (n, m)))
    # missing observations
    values[rng.random((n, m)) < 0.1] = np.nan
    # planted break: level drop for the last year in half the series
    break_at = dates >= np.datetime64("2021-06-01")
    values[np.ix_(break_at, np.arange(m) < m // 2)] -= 0.4
    history = dates < np.datetime64("2021-01-01")
    return dates, values, history


@pytest.mark.parametrize("cls,kwargs,n_beta", monitor_params.values(),
                         ids=monitor_params.keys())
def test_fit_monitor_synthetic(cls, kwargs, n_beta, synth_series):
    dates, values, history = synth_series
    fit_kwargs = {k: v for k, v in kwargs.items() if k == "L"}
    init_kwargs = {k: v for k, v in kwargs.items() if k != "L"}
    mon = cls(**init_kwargs)
    mon.fit(dates[history], values[history], **fit_kwargs)
    assert mon.beta.shape[0] == n_beta
    mon.monitor_matrix(dates[~history], values[~history])
    m = values.shape[1]
    # every planted-break series detected; false alarms stay below the
    # detection count (EWMA at 2σ legitimately accumulates some over ~75
    # monitoring steps)
    broken = mon.status[:m // 2] == BREAK
    false_alarms = (mon.status[m // 2:] == BREAK).sum()
    assert broken.all()
    assert false_alarms <= broken.sum()
    # detection dates of true breaks fall after the planted break date
    break_day = (np.datetime64("2021-06-01") - np.datetime64("1970-01-01")
                 ).astype(int)
    det = mon.detection_date[:m // 2]
    assert (det >= break_day).sum() >= (2 * (m // 2)) // 3


@pytest.mark.parametrize("cls,kwargs,n_beta", monitor_params.values(),
                         ids=monitor_params.keys())
def test_state_roundtrip(cls, kwargs, n_beta, synth_series):
    """Parquet-checkpoint analog of the reference netCDF round-trip test."""
    import pyarrow as pa
    dates, values, history = synth_series
    fit_kwargs = {k: v for k, v in kwargs.items() if k == "L"}
    init_kwargs = {k: v for k, v in kwargs.items() if k != "L"}
    mon = cls(**init_kwargs)
    mon.fit(dates[history], values[history], **fit_kwargs)

    state = mon.state_dict()
    table = pa.table({k: (pa.array(list(v)) if getattr(v, "ndim", 1) > 1
                          or isinstance(v, list) else pa.array(v))
                      for k, v in state.items()})
    back = {name: np.asarray(table[name].to_pylist(), dtype=object)
            if table[name].type == pa.list_(pa.float64()) or
            isinstance(table[name].type, pa.ListType)
            else table[name].to_numpy(zero_copy_only=False)
            for name in table.column_names}
    # list columns back to float rows (MoSum's windows are ragged:
    # each url's holds its own winsize, and from_state pads them)
    for name in back:
        if back[name].dtype == object:
            back[name] = [np.asarray(r, dtype=np.float64)
                          for r in back[name]]
    mon2 = cls.from_state(mon.config_dict(), back)
    assert mon == mon2

    # and the restored monitor keeps monitoring identically
    mon.monitor_matrix(dates[~history], values[~history])
    mon2.monitor_matrix(dates[~history], values[~history])
    assert mon == mon2


def test_registry_complete():
    assert set(MONITOR_REGISTRY) == {"EWMA", "CUSUM", "MOSUM", "CCDC", "IQR"}


def test_ccdc_fit_monitor(synth_series):
    """CCDC with green/swir analog screening (reference test_ccdc)."""
    dates, values, history = synth_series
    green = np.where(np.isnan(values), np.nan, 0.1)
    swir = np.where(np.isnan(values), np.nan, 0.2)
    mon = CCDC()
    mon.fit(dates[history], values[history],
            green=green[history], swir=swir[history])
    assert mon.beta.shape[0] == 6
    mon.monitor_matrix(dates[~history], values[~history])
    m = values.shape[1]
    assert (mon.status[:m // 2] == BREAK).sum() >= m // 4


def test_short_series_masked():
    dates = np.arange("2020-01-01", "2020-03-01", 7, dtype="datetime64[D]")
    values = np.full((len(dates), 3), 0.5)
    values[:, 0] = np.nan  # too short
    mon = IQR(trend=False, harmonic_order=1)
    with pytest.warns(UserWarning):
        mon.fit(dates, values)
    assert mon.status[0] == 4
    assert np.all(mon.status[1:] == MONITORED)


def test_all_short_raises():
    dates = np.arange("2020-01-01", "2020-01-15", 7, dtype="datetime64[D]")
    values = np.full((len(dates), 2), 0.5)
    mon = IQR()
    with pytest.raises(ValueError):
        mon.fit(dates, values)


def test_unsorted_dates_raise(synth_series):
    dates, values, history = synth_series
    mon = IQR(trend=False, harmonic_order=1)
    with pytest.raises(ValueError):
        mon.fit(dates[history][::-1], values[history])


def test_update_mask_false_keeps_monitoring(synth_series):
    dates, values, history = synth_series
    mon = CuSum(update_mask=False)
    mon.fit(dates[history], values[history], method="OLS")
    mon.monitor_matrix(dates[~history], values[~history])
    assert not np.any(mon.status == BREAK)


def test_mosum_init_window_pads_missing_residuals():
    """Fewer finite residuals than ``winsize`` (none at all when σ = 0
    makes every normalized residual NaN) fill the window from the front
    and leave the rest zero."""
    from nrt_ray.kernels.efp import mosum_init_window

    window = mosum_init_window(np.full((10, 1), np.nan), np.array([3]))
    assert window.shape == (3, 1) and not window.any()
    res = np.full((6, 3), np.nan)
    res[:, 0] = np.arange(6.0)
    res[[1, 4], 1] = [7.0, 8.0]
    window = mosum_init_window(res, np.array([3, 3, 2]))
    np.testing.assert_array_equal(window[:, 0], [3.0, 4.0, 5.0])
    np.testing.assert_array_equal(window[:, 1], [7.0, 8.0, 0.0])
    np.testing.assert_array_equal(window[:, 2], [0.0, 0.0, 0.0])


def test_mosum_constant_history_does_not_raise(synth_series):
    """A MONITORED series whose history is constant has σ = 0: the batch
    fits and monitors, and every other series' state is bit for bit what
    it is when that series is an ordinary one."""
    dates, values, history = synth_series
    const = values.copy()
    const[history, 5] = 0.0          # exact zero fit: residuals all 0
    mons = []
    for v in (values, const):
        mon = MoSum()
        mon.fit(dates[history], v[history])
        mon.monitor_matrix(dates[~history], v[~history])
        mons.append(mon)
    ref, got = mons
    assert got.status[5] != 0 and got.sigma[5] == 0.0
    others = np.arange(values.shape[1]) != 5
    sa, sb = ref.state_dict(), got.state_dict()
    for name in sa:                  # series-first columns
        if name == "window":         # each url's at its own winsize
            a, b = (np.concatenate([w for w, o in zip(s[name], others)
                                    if o]) for s in (sa, sb))
        else:
            a, b = np.asarray(sa[name])[others], np.asarray(sb[name])[others]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
