"""Sequential change-detection monitors over batches of series.

This is a from-scratch re-expression of the reference monitor hierarchy
(``/root/reference/nrt/monitor/__init__.py`` plus the five subclasses in
``/root/reference/nrt/monitor/{ewma,cusum,mosum,ccdc,iqr}.py``) for the
series-batch layout our Ray engine uses: instead of dense ``(y, x)`` raster
state arrays, every state attribute is a 1-D array over the ``m`` series
(urls) in a batch, and observation matrices are ``(time, m)`` float64 with
NaN for missing snapshots.

Template-method flow (reference ``monitor()``
``nrt/monitor/__init__.py:259-292``), run over a whole ``(time, m)`` block
of acquisitions at once (``BaseMonitor.monitor_block``):

1. predict expected values from the harmonic model,
2. residual = observation − prediction,
3. validity mask = (status == MONITORED) & finite, minus extreme outliers,
4. strategy-specific process recursion over each series' valid steps,
5. break at the first valid step with |process| ≥ boundary → status=BREAK,
   detection date recorded, every state column frozen there.

The result is bit-identical to running steps 3-5 once per acquisition
date: no recursion is re-associated or replaced by a closed form.

Status codes match the reference mask codes
(``nrt/monitor/__init__.py:50-55``)::

    0 NOT_MONITORED | 1 MONITORED | 2 UNSTABLE | 3 BREAK | 4 TOO_SHORT

State serialization goes to/from Arrow-friendly dicts of 1-D numpy arrays
(Parquet checkpoint tables) instead of netCDF.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pandas as pd

from nrt_ray.kernels import regressors
from nrt_ray.kernels.efp import (mosum_crit, mosum_init_window, ols_cusum_crit,
                                 rec_cusum_crit)
from nrt_ray.kernels.fit import (ccdc_stable_fit, lasso, ols, rirls,
                                 roc_stable_fit)
from nrt_ray.kernels.outliers import ccdc_rirls, shewhart
from nrt_ray.kernels.stats import nan_percentile_axis0
from nrt_ray.util import full as nrfull

NOT_MONITORED, MONITORED, UNSTABLE, BREAK, TOO_SHORT = 0, 1, 2, 3, 4

MONITOR_REGISTRY: dict[str, type] = {}


def register(cls):
    MONITOR_REGISTRY[cls.strategy] = cls
    return cls


def _to_days(dates) -> np.ndarray:
    return regressors.days_since_epoch(dates)


def scan_columns(step, init: np.ndarray, x: np.ndarray, mask: np.ndarray):
    """Run ``p ← step(p, x[t, j])`` down each column ``j`` of ``x`` over
    its ``mask``ed cells in row order, starting from ``init[j]``.

    Returns ``(trajectory, final)``: ``trajectory[t, j]`` is ``p`` after
    the step at masked cell ``(t, j)`` (NaN elsewhere), ``final[j]`` is
    ``p`` after column ``j``'s last masked cell.

    Each column runs as one scalar loop over its masked cells, so a series
    costs one float op per observation, not one array call per row.
    ``step`` must apply the same IEEE operations to Python floats as the
    per-row array update did: every cell then sees exactly its operations,
    in the same order.
    """
    cols, rows = np.nonzero(mask.T)                 # by column, then row
    vals = x[rows, cols].tolist()
    bounds = np.searchsorted(cols, np.arange(x.shape[1] + 1)).tolist()
    final = np.array(init, dtype=np.float64)
    traj = []
    for j in np.flatnonzero(np.diff(bounds)).tolist():
        run = list(itertools.accumulate(vals[bounds[j]:bounds[j + 1]],
                                        step, initial=float(final[j])))
        traj += run[1:]
        final[j] = run[-1]
    trajectory = nrfull(x.shape, np.nan)
    trajectory[rows, cols] = traj
    return trajectory, final


class BaseMonitor:
    """Abstract monitor over a batch of series.

    Subclasses implement ``_init_from_fit`` (derive monitoring state from
    history residuals) and ``_scan`` (the sequential recursion over a block
    of steps), optionally overriding ``_screen_extremes`` / ``_commit``.

    Attributes (all per-series 1-D arrays of length ``m`` unless noted):
        status: uint8 status codes (reference "mask").
        beta: ``(k, m)`` float64 regression coefficients.
        process / boundary: monitor-specific running value and its limit.
        detection_date: int32 days-since-epoch of a confirmed break (0 = none).
        fit_start: int32 days-since-epoch where the stable history begins.
    """

    strategy = "BASE"
    default_fit_method = "OLS"
    default_screen_outliers = None

    def __init__(self, trend: bool = True, harmonic_order: int = 3,
                 update_mask: bool = True, save_fit_start: bool = False,
                 **state):
        self.trend = bool(trend)
        self.harmonic_order = int(harmonic_order)
        self.update_mask = bool(update_mask)
        self.save_fit_start = bool(save_fit_start)
        self.status = state.get("status")
        self.beta = state.get("beta")
        self.process = state.get("process")
        self.boundary = state.get("boundary")
        self.detection_date = state.get("detection_date")
        self.fit_start = state.get("fit_start")

    # ------------------------------------------------------------------ fit

    def design_matrix(self, dates) -> np.ndarray:
        return regressors.design_matrix(dates, trend=self.trend,
                                        harmonic_order=self.harmonic_order)

    def fit(self, dates, values: np.ndarray, method: str | None = None,
            screen_outliers: str | None = "default", **kwargs) -> None:
        """Fit the history model and initialize monitoring state.

        Args:
            dates: ``(n,)`` datetime-like history acquisition dates, sorted
                ascending (raises otherwise, like the reference).
            values: ``(n, m)`` float observations, NaN = missing.
            method: 'OLS' | 'RIRLS' | 'ROC' | 'CCDC-stable' (default is the
                strategy's preferred method).
            screen_outliers: None | 'Shewhart' | 'CCDC_RIRLS'; the sentinel
                "default" selects the strategy's preferred screening.
            **kwargs: forwarded to the fit / screening functions (``L``,
                ``alpha``, ``threshold``, ``green``, ``swir``, ...).
        """
        method = method or self.default_fit_method
        if screen_outliers == "default":
            screen_outliers = self.default_screen_outliers
        dates = pd.DatetimeIndex(dates)
        if not np.all(dates.values[1:] >= dates.values[:-1]):
            raise ValueError("history dates must be sorted chronologically")
        y = np.asarray(values, dtype=np.float64)
        n, m = y.shape
        X = self.design_matrix(dates).astype(np.float64)
        k = X.shape[1]
        if self.status is None:
            self.status = np.full(m, MONITORED, dtype=np.uint8)
        self.detection_date = np.zeros(m, dtype=np.int32)

        beta = np.zeros((k, m), dtype=np.float64)
        residuals = np.full((n, m), np.nan, dtype=np.float64)

        active = self.status == MONITORED
        y_act = y[:, active]
        y_act, active = self._drop_short_series(y_act, X, active)

        if screen_outliers == "Shewhart":
            y_act = shewhart(X, y_act, **{k_: v for k_, v in kwargs.items()
                                          if k_ == "L"})
            y_act, active = self._drop_short_series(y_act, X, active)
        elif screen_outliers == "CCDC_RIRLS":
            try:
                green = np.asarray(kwargs.pop("green"),
                                   dtype=np.float64)[:, active]
                swir = np.asarray(kwargs.pop("swir"),
                                  dtype=np.float64)[:, active]
            except KeyError:
                raise ValueError("green and swir matrices are required for "
                                 "CCDC_RIRLS screening")
            y_act = ccdc_rirls(X, y_act, green=green, swir=swir,
                               scaling_factor=kwargs.pop("scaling_factor", 1))
            y_act, active = self._drop_short_series(y_act, X, active)
        elif screen_outliers:
            raise ValueError(f"Unknown screen_outliers {screen_outliers!r}")

        days = _to_days(dates)
        if method == "OLS":
            beta_a, resid_a = ols(X, y_act)
        elif method == "RIRLS":
            beta_a, resid_a = rirls(X, y_act, **{k_: v for k_, v in
                                                 kwargs.items() if k_ in
                                                 ("tune", "scale_constant",
                                                  "update_scale", "maxiter",
                                                  "tol")})
        elif method == "ROC":
            crit = rec_cusum_crit(kwargs.get("alpha", 0.05))
            beta_a, resid_a, is_stable, fit_start = roc_stable_fit(
                X, y_act, days, alpha=kwargs.get("alpha", 0.05), crit=crit)
            self._mark_unstable(active, is_stable, fit_start)
        elif method == "CCDC-stable":
            if not self.trend:
                raise ValueError('Method "CCDC-stable" requires trend')
            beta_a, resid_a, is_stable, fit_start = ccdc_stable_fit(
                X, y_act, days, threshold=kwargs.get("threshold", 3))
            self._mark_unstable(active, is_stable, fit_start)
        elif method == "LASSO":
            # beyond-reference: the reference raises NotImplementedError
            # here (nrt/monitor/__init__.py:244-245) — kernels.fit.lasso
            # is a vectorized coordinate-descent implementation
            beta_a, resid_a = lasso(X, y_act, **{k_: v for k_, v in
                                                 kwargs.items() if k_ in
                                                 ("lam", "maxiter", "tol")})
        else:
            raise ValueError(f"Unknown method {method!r}")

        beta[:, active] = beta_a
        residuals[:, active] = resid_a
        self.beta = beta
        self._X_cols = k
        self._init_from_fit(X, residuals, **kwargs)

    def _drop_short_series(self, y_act, X, active):
        """Flag series with < 1.5·k valid observations as TOO_SHORT (code 4);
        raise when nothing monitorable remains."""
        short = np.count_nonzero(np.isfinite(y_act), axis=0) < X.shape[1] * 1.5
        if short.any():
            idx = np.flatnonzero(active)[short]
            self.status[idx] = TOO_SHORT
            active = self.status == MONITORED
            warnings.warn(f"{short.sum()} series shorter than 1.5x the number "
                          "of regressors were masked")
        if not np.any(active):
            raise ValueError("No series with sufficient "
                             f"({int(X.shape[1] * 1.5)}) data points.")
        return y_act[:, ~short], active

    def _mark_unstable(self, active, is_stable, fit_start):
        idx = np.flatnonzero(active)
        self.status[idx[~is_stable]] = UNSTABLE
        if self.save_fit_start:
            fs = np.zeros(self.status.shape, dtype=np.int32)
            fs[idx] = fit_start
            self.fit_start = fs

    # -------------------------------------------------------------- monitor

    def predict(self, date) -> np.ndarray:
        """Expected value per series for one date: ``x(date)ᵀ · β``."""
        X = regressors.design_row(date, trend=self.trend,
                                  harmonic_order=self.harmonic_order)
        return (X @ self.beta)[0]

    def monitor(self, values: np.ndarray, date, update_mask=None) -> None:
        """Ingest one new acquisition (all series share the date)."""
        days = int(_to_days([date])[0])
        resid = np.asarray(values, dtype=np.float64) - self.predict(date)
        self.monitor_residuals(resid, np.asarray(values, dtype=np.float64),
                               np.full(resid.shape, days, dtype=np.int64),
                               update_mask=update_mask)

    def monitor_residuals(self, resid: np.ndarray, values: np.ndarray,
                          days: np.ndarray, update_mask=None) -> None:
        """One sequential update step from precomputed residuals: the
        ``T = 1`` case of :meth:`monitor_block` (``days`` is per-series)."""
        self.monitor_block(np.asarray(resid)[None], np.asarray(values)[None],
                           np.asarray(days)[None], update_mask=update_mask)

    def monitor_matrix(self, dates, values: np.ndarray,
                       update_mask=None) -> None:
        """Monitor a whole ``(t, m)`` block of new acquisitions in time
        order (shared time axis)."""
        dates = pd.DatetimeIndex(dates)
        values = np.asarray(values, dtype=np.float64)
        days_arr = _to_days(dates)
        preds = self.design_matrix(dates) @ self.beta  # (t, m)
        self.monitor_block(values - preds, values,
                           np.broadcast_to(days_arr[:, None], values.shape),
                           update_mask=update_mask)

    def monitor_block(self, resid: np.ndarray, values: np.ndarray,
                      days: np.ndarray, update_mask=None) -> None:
        """Monitor a ``(T, m)`` block of acquisitions, each column in time
        order.

        Column ``j`` holds series ``j``'s residuals, observations (NaN = not
        observed at that row, so ragged series pad with NaN) and
        acquisition days.  The result is bit-identical to applying the
        one-step update row by row: validity and outlier screening are
        ``(T, m)`` array ops, each strategy runs only its recursion over
        every series' valid observations (:meth:`_scan`), and a break is
        the first valid step with ``|process| ≥ boundary``, where every
        state column of that series freezes.
        """
        resid = np.asarray(resid, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        T = resid.shape[0]
        if T == 0:
            return
        update = self.update_mask if update_mask is None else update_mask
        if self.detection_date is None:
            self.detection_date = np.zeros(self.status.shape, dtype=np.int32)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            valid = (self.status == MONITORED) & np.isfinite(values)
            valid = self._screen_extremes(resid, valid)
            traj = self._scan(resid, valid)
            if update:
                hit = valid & (np.abs(traj["process"]) >= traj["boundary"])
                broke = np.flatnonzero(hit.any(axis=0))
                first = hit[:, broke].argmax(axis=0)
                # steps after a break never happen: status leaves MONITORED
                valid[:, broke] &= np.arange(T)[:, None] <= first
            self._commit(resid, traj, valid)
        if update:
            self.status[broke] = BREAK
            self.detection_date[broke] = np.broadcast_to(
                days, resid.shape)[first, broke]

    def _scan(self, resid, valid) -> dict:  # pragma: no cover - abstract
        """The strategy's recursion over each series' ``valid`` steps.

        Returns ``{state name: value after each step}``: ``(T, m)``
        trajectories (read at valid cells only) for every state column the
        recursion moves, and ``process`` / ``boundary`` (a boundary that
        never moves may stay ``(m,)`` or scalar)."""
        raise NotImplementedError

    def _commit(self, resid, traj, applied) -> None:
        """Set each moving state column to its value at the series' last
        ``applied`` step (unchanged when it has none)."""
        T = applied.shape[0]
        cols = np.flatnonzero(applied.any(axis=0))
        rows = T - 1 - applied[::-1, cols].argmax(axis=0)
        for name, value in traj.items():
            if np.shape(value) != applied.shape or self._derived(name):
                continue
            state = np.array(getattr(self, name))
            state[cols] = value[rows, cols]
            setattr(self, name, state)

    @classmethod
    def _derived(cls, name) -> bool:
        return isinstance(getattr(cls, name, None), property)

    def _screen_extremes(self, resid, is_valid):
        return is_valid

    def _init_from_fit(self, X, residuals, **kwargs):  # pragma: no cover
        raise NotImplementedError

    # ---------------------------------------------------------------- state

    #: state attributes serialized to / from checkpoint tables
    state_columns = ("status", "process", "boundary", "detection_date",
                     "fit_start")

    def state_dict(self) -> dict[str, np.ndarray]:
        """All per-series state as a dict of 1-D arrays plus the stacked
        ``beta`` rows — the Parquet-checkpoint analog of the reference's
        netCDF dump (``nrt/monitor/__init__.py:442-491``)."""
        m = len(self.status)
        out: dict[str, np.ndarray] = {}
        for name in self.state_columns:
            v = getattr(self, name, None)
            if v is not None:
                v = np.asarray(v)
                if v.ndim == 0:  # scalar boundary (CCDC/IQR) → broadcast
                    v = np.full(m, v)
                out[name] = v
        out["beta"] = self.beta.T.copy()  # (m, k) row-per-series
        extra = self._extra_state()
        for name, v in extra.items():
            if v is not None:
                out[name] = v
        assert all(len(v) == m for v in out.values())
        return out

    def _extra_state(self) -> dict[str, np.ndarray]:
        return {}

    def config_dict(self) -> dict:
        """Scalar configuration needed to reconstruct the monitor."""
        return {"strategy": self.strategy, "trend": self.trend,
                "harmonic_order": self.harmonic_order,
                "update_mask": self.update_mask,
                "save_fit_start": self.save_fit_start}

    @classmethod
    def from_state(cls, config: dict, state: dict[str, np.ndarray]):
        """Rebuild a monitor from ``config_dict()`` + ``state_dict()``
        output (checkpoint resume path)."""
        config = dict(config)
        strategy = config.pop("strategy", cls.strategy)
        klass = MONITOR_REGISTRY.get(strategy, cls)
        obj = klass(**config)
        state = dict(state)
        beta = state.pop("beta", None)
        if beta is not None:
            obj.beta = np.ascontiguousarray(np.asarray(beta).T,
                                            dtype=np.float64)
        for name, v in state.items():
            # copy: Arrow-backed numpy views are read-only
            setattr(obj, name, np.array(v))
        return obj

    def __eq__(self, other):
        if type(self) is not type(other):
            return False
        a, b = self.state_dict(), other.state_dict()
        if a.keys() != b.keys():
            return False
        return all(map(_equal, a.values(), b.values()))


@register
class EWMA(BaseMonitor):
    """EWMA control chart of residuals (Brooks et al. 2014 semantics;
    reference ``nrt/monitor/ewma.py``).

    State: ``process`` = exponentially weighted moving average of residuals,
    ``sigma`` = history residual std, static ``boundary`` =
    ``sensitivity · σ · √(λ / (2 − λ))``.  Extreme residuals
    (``|r| > threshold_outlier·σ``) are excluded from updates.
    """

    strategy = "EWMA"
    default_fit_method = "OLS"
    default_screen_outliers = "Shewhart"
    state_columns = BaseMonitor.state_columns + ("sigma",)

    def __init__(self, trend: bool = True, harmonic_order: int = 2,
                 sensitivity: float = 2, lambda_: float = 0.3,
                 threshold_outlier: float = 10, **kwargs):
        super().__init__(trend=trend, harmonic_order=harmonic_order, **kwargs)
        self.sensitivity = float(sensitivity)
        self.lambda_ = float(lambda_)
        self.threshold_outlier = float(threshold_outlier)
        self.sigma = kwargs.get("sigma")

    def _init_from_fit(self, X, residuals, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.sigma = np.nanstd(residuals, axis=0)
        self.boundary = (self.sensitivity * self.sigma
                         * np.sqrt(self.lambda_ / (2.0 - self.lambda_)))
        _, self.process = scan_columns(
            self._ewma(), np.zeros(residuals.shape[1], dtype=np.float64),
            residuals, ~np.isnan(residuals))
        # already beyond the limit after fitting → unstable history
        with np.errstate(invalid="ignore"):
            self.status[self.process > self.boundary] = UNSTABLE

    def _ewma(self):
        """The recursion ``p ← (1 − λ)·p + λ·r`` as a :func:`scan_columns`
        step."""
        a, lam = 1.0 - self.lambda_, self.lambda_
        return lambda p, r: a * p + lam * r

    def _screen_extremes(self, resid, is_valid):
        extreme = np.abs(resid) > self.threshold_outlier * self.sigma
        return ~extreme & is_valid

    def _scan(self, resid, valid):
        if self.process is None:
            raise ValueError("monitor not initialized (fit first)")
        moved = valid & ~np.isnan(resid)
        process, _ = scan_columns(self._ewma(), self.process, resid, moved)
        if (valid & ~moved).any():
            # a NaN residual leaves the average where it was
            T = resid.shape[0]
            src = np.maximum.accumulate(
                np.where(moved, np.arange(T)[:, None], -1), axis=0)
            process = np.where(
                src >= 0,
                np.take_along_axis(process, np.maximum(src, 0), axis=0),
                self.process)
        return {"process": process, "boundary": self.boundary}

    def config_dict(self):
        d = super().config_dict()
        d.update(sensitivity=self.sensitivity, lambda_=self.lambda_,
                 threshold_outlier=self.threshold_outlier)
        return d

    def _extra_state(self):
        return {"sigma": self.sigma}


@register
class CuSum(BaseMonitor):
    """OLS-CUSUM monitoring (strucchange/bfast mefp semantics; reference
    ``nrt/monitor/cusum.py``).

    Process = running sum of residuals normalized by ``σ·√histsize``;
    boundary grows with the observation count:
    ``√(x(x−1)(crit² + ln(x/(x−1))))`` with ``x = n/histsize``.
    """

    strategy = "CUSUM"
    default_fit_method = "ROC"
    state_columns = BaseMonitor.state_columns + ("sigma", "histsize", "n")

    def __init__(self, trend: bool = True, harmonic_order: int = 2,
                 sensitivity: float = 0.05, **kwargs):
        super().__init__(trend=trend, harmonic_order=harmonic_order, **kwargs)
        self.sensitivity = float(sensitivity)
        self.critval = float(ols_cusum_crit(self.sensitivity))
        self.sigma = kwargs.get("sigma")
        self.histsize = kwargs.get("histsize")
        self.n = kwargs.get("n")

    def _init_from_fit(self, X, residuals, **kwargs):
        self.histsize = np.sum(np.isfinite(residuals), axis=0).astype(np.int32)
        self.n = self.histsize.copy()
        self.boundary = np.full(residuals.shape[1], np.nan, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.sigma = np.nanstd(residuals, axis=0, ddof=X.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            norm_resid = residuals / (self.sigma * np.sqrt(self.histsize))
        self.process = np.nancumsum(norm_resid, axis=0)[-1]

    def _scan(self, resid, valid):
        norm_resid = resid / (self.sigma * np.sqrt(self.histsize))
        # sequential cumulative sum; -0.0 is the exact additive identity
        steps = np.where(valid, norm_resid, -0.0)
        process = np.cumsum(np.vstack([self.process[None], steps]),
                            axis=0)[1:]
        n = self.n + np.cumsum(valid, axis=0)
        x = n / self.histsize
        boundary = np.sqrt(x * (x - 1) * (self.critval ** 2
                                          + np.log(x / (x - 1))))
        return {"process": process, "boundary": boundary, "n": n}

    def config_dict(self):
        d = super().config_dict()
        d.update(sensitivity=self.sensitivity)
        return d

    def _extra_state(self):
        return {"sigma": self.sigma, "histsize": self.histsize, "n": self.n}


def _equal(x, y) -> bool:
    """NaN-equal state entries; a list (MoSum's windows) row by row."""
    if isinstance(x, list):
        return len(x) == len(y) and all(map(_equal, x, y))
    return np.array_equal(x, y, equal_nan=True)


@register
class MoSum(BaseMonitor):
    """OLS-MOSUM monitoring (moving sum over a per-series ring buffer of the
    last ``⌊h·histsize⌋`` normalized residuals; reference
    ``nrt/monitor/mosum.py``).

    ``process`` is derived (``nansum`` of the window), not stored.  The ring
    buffer is serialized as a list column in checkpoints, each url's at
    its own ``winsize``.
    """

    strategy = "MOSUM"
    default_fit_method = "ROC"
    state_columns = BaseMonitor.state_columns + ("sigma", "histsize", "n",
                                                 "winsize")

    def __init__(self, trend: bool = True, harmonic_order: int = 2,
                 sensitivity: float = 0.05, h: float = 0.25, **kwargs):
        super().__init__(trend=trend, harmonic_order=harmonic_order, **kwargs)
        self.sensitivity = float(sensitivity)
        self.h = float(h)
        self.critval = float(mosum_crit(self.sensitivity, h=self.h,
                                        period=10, functional="max"))
        self.sigma = kwargs.get("sigma")
        self.histsize = kwargs.get("histsize")
        self.n = kwargs.get("n")
        self.winsize = kwargs.get("winsize")
        self.window = kwargs.get("window")

    @property
    def process(self):
        if self.window is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nansum(self.window, axis=0)

    @process.setter
    def process(self, value):
        pass  # derived quantity

    def _init_from_fit(self, X, residuals, **kwargs):
        self.histsize = np.sum(np.isfinite(residuals), axis=0).astype(np.int32)
        self.histsize[self.status != MONITORED] = 0
        self.winsize = np.floor(self.histsize * self.h).astype(np.int32)
        self.n = self.histsize.copy()
        self.boundary = np.full(residuals.shape[1], np.nan, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.sigma = np.nanstd(residuals, axis=0, ddof=X.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            norm_resid = residuals / (self.sigma * np.sqrt(self.histsize))
        self.window = mosum_init_window(norm_resid, self.winsize)

    def _norm_resid(self, resid):
        return resid / (self.sigma * np.sqrt(self.histsize))

    def _scan(self, resid, valid):
        norm_resid = self._norm_resid(resid)
        n = self.n + np.cumsum(valid, axis=0)
        slots = np.mod(n - 1 - self.histsize, self.winsize)
        x = n / self.histsize
        log_term = np.ones_like(x, dtype=np.float64)
        np.log(x, out=log_term, where=(x > np.e))
        boundary = self.critval * np.sqrt(2.0 * log_term)
        # the moving sum has no bit-identical vectorized form: replay the
        # ring buffer on a copy, one step per row that observes anything
        window = self.window.copy()
        process = nrfull(resid.shape, np.nan)
        for t in np.flatnonzero(valid.any(axis=1)):
            j = np.flatnonzero(valid[t])
            window[slots[t, j], j] = norm_resid[t, j]
            process[t] = np.nansum(window, axis=0)
        return {"process": process, "boundary": boundary, "n": n}

    def _commit(self, resid, traj, applied):
        # the ring buffer ends holding each series' last ``winsize``
        # applied residuals, each in its own slot
        rank = np.cumsum(applied, axis=0)
        t, j = np.nonzero(applied
                          & (rank > applied.sum(axis=0) - self.winsize))
        slot = np.mod(self.n[j] - self.histsize[j] + rank[t, j] - 1,
                      self.winsize[j])
        self.window[slot, j] = self._norm_resid(resid)[t, j]
        super()._commit(resid, traj, applied)

    def config_dict(self):
        d = super().config_dict()
        d.update(sensitivity=self.sensitivity, h=self.h)
        return d

    def _extra_state(self):
        return {"sigma": self.sigma, "histsize": self.histsize, "n": self.n,
                "winsize": self.winsize,
                "window": None if self.window is None else
                [w[:k] for w, k in zip(self.window.T, self.winsize)]}

    @classmethod
    def from_state(cls, config, state):
        """Each url's stored window holds its own ``winsize`` slots; the
        ring buffers are zero-padded to the longest."""
        state = dict(state)
        window = state.pop("window", None)
        obj = super().from_state(config, state)
        if window is not None:
            obj.window = np.zeros((max(map(len, window), default=0),
                                   len(window)))
            for j, w in enumerate(window):
                obj.window[:len(w), j] = w
        return obj


class _RunLengthMonitor(BaseMonitor):
    """Shared run-length process for CCDC and IQR: ``process`` counts
    consecutive outlier observations and resets on any inlier; a break is
    ``boundary`` (default 3) consecutive outliers."""

    def __init__(self, boundary: int = 3, **kwargs):
        super().__init__(**kwargs)
        if self.boundary is None:
            self.boundary = int(boundary)

    def _is_outlier(self, resid):  # pragma: no cover - abstract
        raise NotImplementedError

    def _scan(self, resid, valid):
        if self.process is None:
            self.process = np.zeros(resid.shape[1], dtype=np.uint8)
        inlier = valid & ~self._is_outlier(resid)
        seen = np.cumsum(valid, axis=0)
        reset = np.maximum.accumulate(np.where(inlier, seen, 0), axis=0)
        run = np.where(reset > 0, seen - reset, self.process + seen)
        # uint8 like the stored state: a run of 256 wraps to 0
        return {"process": run.astype(np.uint8), "boundary": self.boundary}


@register
class CCDC(_RunLengthMonitor):
    """CCDC-style monitoring (Zhu & Woodcock 2014 semantics; reference
    ``nrt/monitor/ccdc.py``): outlier when ``|resid| / rmse > sensitivity``.
    """

    strategy = "CCDC"
    default_fit_method = "CCDC-stable"
    default_screen_outliers = "CCDC_RIRLS"
    state_columns = BaseMonitor.state_columns + ("rmse",)

    def __init__(self, trend: bool = True, harmonic_order: int = 2,
                 sensitivity: float = 3, boundary: int = 3, **kwargs):
        super().__init__(trend=trend, harmonic_order=harmonic_order,
                         boundary=boundary, **kwargs)
        self.sensitivity = float(sensitivity)
        self.rmse = kwargs.get("rmse")

    def _init_from_fit(self, X, residuals, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.rmse = np.sqrt(np.nanmean(residuals ** 2, axis=0))

    def _is_outlier(self, resid):
        return np.abs(resid) / self.rmse > self.sensitivity

    def config_dict(self):
        d = super().config_dict()
        d.update(sensitivity=self.sensitivity)
        return d

    def _extra_state(self):
        return {"rmse": self.rmse}


@register
class IQR(_RunLengthMonitor):
    """Interquartile-range monitoring (reference ``nrt/monitor/iqr.py``):
    outlier when the residual falls outside
    ``[q25 − s·IQR, q75 + s·IQR]`` of the history residuals."""

    strategy = "IQR"
    default_fit_method = "OLS"
    state_columns = BaseMonitor.state_columns + ("q25", "q75")

    def __init__(self, trend: bool = True, harmonic_order: int = 3,
                 sensitivity: float = 1.5, boundary: int = 3, **kwargs):
        super().__init__(trend=trend, harmonic_order=harmonic_order,
                         boundary=boundary, **kwargs)
        self.sensitivity = float(sensitivity)
        self.q25 = kwargs.get("q25")
        self.q75 = kwargs.get("q75")

    def _init_from_fit(self, X, residuals, **kwargs):
        q75, q25 = nan_percentile_axis0(residuals, np.array([75, 25]))
        self.q25, self.q75 = q25, q75

    def _is_outlier(self, resid):
        iqr = self.q75 - self.q25
        lo = self.q25 - self.sensitivity * iqr
        hi = self.q75 + self.sensitivity * iqr
        return (resid > hi) | (resid < lo)

    def config_dict(self):
        d = super().config_dict()
        d.update(sensitivity=self.sensitivity)
        return d

    def _extra_state(self):
        return {"q25": self.q25, "q75": self.q75}
