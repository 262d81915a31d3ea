"""Fused fit + sequential-monitor kernel over ragged series batches.

The raster reference shares ONE design matrix across all pixels (common time
axis).  Web crawls are ragged — every url has its own acquisition dates — so
this stage builds per-series design matrices from the precomputed
``days``/``dyear`` list columns and runs:

* **fit** (vectorized across series): batched masked normal equations over a
  ``(T, K, k)`` regressor tensor, optional Shewhart screening, TOO_SHORT
  masking (status 4), process seeding per strategy;
* **monitor**: one :meth:`BaseMonitor.monitor_block` scan over the
  padded ``(T, K)`` block, each url in ``warc_ts`` order with its own
  acquisition days; only each strategy's recursion runs per observation.

Stateless by design: the batch carries everything, actors only hold
configuration + driver-side critical values (computed once per actor in
``__init__``, mirroring the reference's pre-computation of crit before
entering jitted code at ``nrt/monitor/__init__.py:222-223``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pyarrow as pa

from nrt_ray.util import full as nrfull

from nrt_ray.kernels import fit as fit_kernels
from nrt_ray.kernels import regressors
from nrt_ray.kernels.monitors import (MONITORED, MONITOR_REGISTRY, TOO_SHORT,
                                      BaseMonitor)
from nrt_ray.stages.assemble import padded_matrices

US = 1_000_000


def _pad_parts(flat: np.ndarray, col_idx: np.ndarray, row_idx: np.ndarray,
               shape, fill, dtype):
    out = nrfull(shape, fill, dtype=dtype)
    out[row_idx, col_idx] = flat
    return out


def split_history_monitor(mats: dict, monitor_start_us: int):
    """Split padded series matrices at the fit/monitor boundary.

    Within each series (column) the rows are time-sorted, so the history is
    a per-column prefix.  Returns two dicts of padded matrices (``value``,
    ``days``, ``dyear``, ``ts``, ``length``) with per-part padding.
    """
    T, K = mats["value"].shape
    within = np.arange(T)[:, None] < mats["length"][None, :]
    is_hist = within & (mats["ts"] < monitor_start_us)
    nh = is_hist.sum(axis=0)
    nm = mats["length"] - nh

    # flatten column-major traversal of valid cells
    from nrt_ray.stages.assemble import ragged_row_index
    col_idx = np.repeat(np.arange(K), mats["length"])
    row_idx = ragged_row_index(mats["length"])
    hist_flag = row_idx < nh[col_idx]

    def build(flag, lengths, offset):
        Tp = int(lengths.max()) if len(lengths) and lengths.max() > 0 else 0
        cidx = col_idx[flag]
        ridx = row_idx[flag] - offset[cidx]
        out = {"length": lengths}
        spec = [("value", np.nan, np.float64), ("days", 0, np.int64),
                ("dyear", np.nan, np.float64), ("ts", 0, np.int64)]
        for aux in ("aux_green", "aux_swir"):
            if aux in mats:
                spec.append((aux, np.nan, np.float64))
        for name, fill, dtype in spec:
            flat = mats[name][row_idx, col_idx][flag]
            out[name] = _pad_parts(flat, cidx, ridx, (Tp, K), fill, dtype)
        return out

    hist = build(hist_flag, nh, np.zeros(K, dtype=np.int64))
    mon = build(~hist_flag, nm, nh.astype(np.int64))
    return hist, mon


def regressor_tensor(days: np.ndarray, dyear: np.ndarray, trend: bool,
                     harmonic_order: int) -> np.ndarray:
    """(T, K) day/decimal-year matrices → (T, K, k) design tensor with
    all-finite entries (padded cells become harmless zeros-weight rows)."""
    return regressors.harmonic_features(
        np.nan_to_num(days.astype(np.float64)), np.nan_to_num(dyear),
        trend, harmonic_order)


def batched_masked_ols(X3: np.ndarray, y: np.ndarray):
    """OLS per series with per-series design matrices.

    Args:
        X3: ``(T, K, k)`` regressor tensor.
        y: ``(T, K)`` observations, NaN = missing/padded.

    Returns:
        beta ``(k, K)``, residuals ``(T, K)`` (``X·β − y`` fit convention,
        NaN where y is NaN).
    """
    valid = np.isfinite(y)
    w = valid.astype(np.float64)
    y0 = np.where(valid, y, 0.0)
    K = y.shape[1]
    k = X3.shape[2]
    # centered normal equations: eliminate the intercept column by
    # weighted centering so the solve conditions on the centered
    # regressors (~1e2 for a trend column) instead of cond(X)² (~1e9
    # over days-since-epoch) — agrees with a QR/SVD solve to ~1e-12
    sw = w.sum(axis=0)                                       # (K,)
    swc = np.maximum(sw, 1.0)
    xbar = np.einsum("tki,tk->ki", X3, w) / swc[:, None]     # (K, k)
    ybar = (w * y0).sum(axis=0) / swc                        # (K,)
    if k == 1:
        beta = ybar[:, None]                                 # (K, 1)
    else:
        Xc = X3[:, :, 1:] - xbar[None, :, 1:]                # (T, K, k-1)
        yc = y0 - ybar[None, :]
        A = np.einsum("tki,tk,tkj->kij", Xc, w, Xc, optimize=True)
        b = np.einsum("tki,tk->ki", Xc, w * yc, optimize=True)
        try:
            br = np.linalg.solve(A, b[..., None])[..., 0]    # (K, k-1)
        except np.linalg.LinAlgError:
            # rare singular series (constant dates / collinear
            # regressors): SVD pseudo-inverse for the whole batch
            br = (np.linalg.pinv(A) @ b[..., None])[..., 0]
        b0 = ybar - np.einsum("ki,ki->k", br, xbar[:, 1:])
        beta = np.concatenate([b0[:, None], br], axis=1)     # (K, k)
    resid = np.einsum("tki,ki->tk", X3, beta, optimize=True) - y
    return beta.T, resid


class SeriesFitMonitor:
    """Ray Data batch transform: assembled series rows → per-url state rows.

    Use as ``ds.map_batches(SeriesFitMonitor, fn_constructor_kwargs={...},
    batch_format="pyarrow", concurrency=N)`` or call directly inside the
    fused partition processor.

    Args:
        strategy: one of EWMA / CUSUM / MOSUM / CCDC / IQR.
        monitor_start: ISO date string or datetime64 — observations strictly
            before it form the history (fit) period.
        fit_method: override the strategy default ('OLS', 'RIRLS',
            'LASSO', 'ROC', 'CCDC-stable').  OLS runs on the ragged
            vectorized path; RIRLS/LASSO and the stable fits run
            per-series.
        screen_outliers: None | 'Shewhart' (default per strategy).
        monitor_params: kwargs for the monitor constructor
            (sensitivity, lambda_, h, ...).
        fit_params: kwargs for fit/screening (L, threshold, alpha, ...).
    """

    def __init__(self, strategy: str = "EWMA",
                 monitor_start: str = "2021-01-01",
                 fit_method: str | None = None,
                 screen_outliers: str | None = "default",
                 monitor_params: dict | None = None,
                 fit_params: dict | None = None):
        self.strategy = strategy
        self.monitor_start_us = int(np.datetime64(monitor_start, "us")
                                    .astype(np.int64))
        self.monitor_params = dict(monitor_params or {})
        self.fit_params = dict(fit_params or {})
        cls = MONITOR_REGISTRY[strategy]
        # instantiate once per actor → critical values are computed once
        self._template = cls(**self.monitor_params)
        self.trend = self._template.trend
        self.harmonic_order = self._template.harmonic_order
        self.fit_method = fit_method or cls.default_fit_method
        if screen_outliers == "default":
            screen_outliers = cls.default_screen_outliers
        self.screen_outliers = screen_outliers

    # ------------------------------------------------------------------

    #: padded-cell budget per processing chunk — series are length-sorted
    #: and chunked so one hot url (daily cadence) doesn't force every
    #: weekly series in the batch to pad to its length
    CELL_BUDGET = 2_000_000

    def __call__(self, series: pa.Table) -> pa.Table:
        if series.num_rows == 0:
            return self._state_table(np.array([], dtype=object), None)
        lengths = series.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(-lengths, kind="stable")
        chunks = []
        start = 0
        while start < len(order):
            max_len = max(int(lengths[order[start]]), 1)
            count = max(int(self.CELL_BUDGET // max_len), 1)
            chunks.append(order[start:start + count])
            start += count
        parts = [self._process_chunk(series.take(pa.array(c)))
                 for c in chunks]
        out = pa.concat_tables(parts)
        # restore the caller's row order (chunks were length-sorted)
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order))
        return out.take(pa.array(inverse))

    def _process_chunk(self, series: pa.Table) -> pa.Table:
        mats = padded_matrices(series)
        hist, mon_part = split_history_monitor(mats, self.monitor_start_us)
        monitor = self._fit(hist, mats["url"])
        self._monitor(monitor, mon_part)
        return self._state_table(mats["url"], monitor)

    # ------------------------------------------------------------------ fit

    def _fit(self, hist: dict, urls: np.ndarray) -> BaseMonitor:
        k = 1 + int(self.trend) + 2 * self.harmonic_order
        K = len(hist["length"])
        y = hist["value"]
        status = np.full(K, MONITORED, dtype=np.uint8)

        def short_mask(yy):
            return np.isfinite(yy).sum(axis=0) < k * 1.5

        status[short_mask(y)] = TOO_SHORT
        y = np.where(status[None, :] == MONITORED, y, np.nan)

        X3 = regressor_tensor(hist["days"], hist["dyear"], self.trend,
                              self.harmonic_order)
        if self.screen_outliers == "Shewhart":
            L = float(self.fit_params.get("L", 5.0))
            _, resid0 = batched_masked_ols(X3, y)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sigma0 = np.nanstd(resid0, axis=0)
                y = np.where(np.abs(resid0) > L * sigma0, np.nan, y)
        elif self.screen_outliers == "CCDC_RIRLS":
            # two-band robust screening (reference nrt/outliers.py:60-95):
            # RIRLS-fit both auxiliary signals, drop observations where
            # green_resid > 0.04·sf or swir_resid < −0.04·sf
            if "aux_green" not in hist or "aux_swir" not in hist:
                raise ValueError(
                    "CCDC_RIRLS screening requires aux_green/aux_swir "
                    "columns in the series batch (emitted by ExtractSignal; "
                    "absent from this input). Pass screen_outliers=None to "
                    "fit without screening.")
            sf_ = float(self.fit_params.get("scaling_factor", 1.0))
            _, g_resid = self._per_series_fit(
                fit_kernels.rirls, X3, hist["aux_green"], hist,
                with_dates=False)
            _, s_resid = self._per_series_fit(
                fit_kernels.rirls, X3, hist["aux_swir"], hist,
                with_dates=False)
            with np.errstate(invalid="ignore"):
                is_out = ((g_resid > 0.04 * sf_)
                          | (s_resid < -0.04 * sf_))
            y = np.where(is_out, np.nan, y)
        elif self.screen_outliers is not None:
            raise ValueError(
                f"Unknown screen_outliers {self.screen_outliers!r}")
        if self.screen_outliers is not None:
            newly_short = short_mask(y) & (status == MONITORED)
            status[newly_short] = TOO_SHORT
            y = np.where(status[None, :] == MONITORED, y, np.nan)

        if self.fit_method == "OLS":
            beta, resid = batched_masked_ols(X3, y)
        elif self.fit_method == "RIRLS":
            beta, resid = self._per_series_fit(fit_kernels.rirls, X3, y,
                                               hist, with_dates=False)
        elif self.fit_method == "LASSO":
            # beyond-reference (its dispatch raises NotImplementedError);
            # per-series like RIRLS — the ragged per-series designs rule
            # out the shared-X vectorized kernel path here
            lkw = {k_: v for k_, v in self.fit_params.items()
                   if k_ in ("lam", "maxiter", "tol")}
            beta, resid = self._per_series_fit(
                lambda X, yy: fit_kernels.lasso(X, yy, **lkw),
                X3, y, hist, with_dates=False)
        elif self.fit_method in ("ROC", "CCDC-stable"):
            beta, resid = self._stable_fit(X3, y, hist, status)
        else:
            raise ValueError(f"Unknown fit method {self.fit_method!r}")

        mon = MONITOR_REGISTRY[self.strategy](**self.monitor_params)
        mon.status = status
        mon.detection_date = np.zeros(K, dtype=np.int32)
        mon.beta = np.where(status[None, :] == MONITORED, beta, 0.0)
        resid = np.where(status[None, :] == MONITORED, resid, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mon._init_from_fit(np.zeros((1, k)), resid)
        return mon

    def _per_series_fit(self, kernel, X3, y, hist, with_dates=True):
        K = y.shape[1]
        k = X3.shape[2]
        beta = np.zeros((k, K))
        resid = nrfull(y.shape, np.nan)
        for i in range(K):
            n = int(hist["length"][i])
            if n == 0 or not np.isfinite(y[:n, i]).any():
                continue
            args = [X3[:n, i, :], y[:n, i:i + 1]]
            if with_dates:
                args.append(hist["days"][:n, i])
            b, r = kernel(*args)[:2]
            beta[:, i] = b[:, 0]
            resid[:n, i] = r[:, 0]
        return beta, resid

    def _stable_fit(self, X3, y, hist, status):
        """Per-series ROC / CCDC-stable fit (variable-length suffix logic
        is inherently scalar per series; Ray tasks provide parallelism)."""
        kernel = (fit_kernels.roc_stable_fit if self.fit_method == "ROC"
                  else fit_kernels.ccdc_stable_fit)
        K = y.shape[1]
        k = X3.shape[2]
        beta = np.zeros((k, K))
        resid = nrfull(y.shape, np.nan)
        from nrt_ray.kernels.monitors import UNSTABLE
        kw = {}
        if self.fit_method == "ROC":
            from nrt_ray.kernels.efp import rec_cusum_crit
            alpha = float(self.fit_params.get("alpha", 0.05))
            kw = dict(alpha=alpha, crit=rec_cusum_crit(alpha))
        else:
            kw = dict(threshold=float(self.fit_params.get("threshold", 3)))
        for i in range(K):
            if status[i] != MONITORED:
                continue
            n = int(hist["length"][i])
            b, r, stable, _ = kernel(X3[:n, i, :], y[:n, i:i + 1],
                                     hist["days"][:n, i], **kw)
            beta[:, i] = np.nan_to_num(b[:, 0])
            resid[:n, i] = r[:, 0]
            if not stable[0]:
                status[i] = UNSTABLE
        return beta, resid

    # -------------------------------------------------------------- monitor

    def _monitor(self, mon: BaseMonitor, part: dict) -> None:
        Tm = part["value"].shape[0]
        if Tm == 0:
            return
        X3 = regressor_tensor(part["days"], part["dyear"], self.trend,
                              self.harmonic_order)
        preds = np.einsum("tki,ik->tk", X3, mon.beta, optimize=True)
        resid = part["value"] - preds
        within = np.arange(Tm)[:, None] < part["length"][None, :]
        vals = np.where(within, part["value"], np.nan)
        mon.monitor_block(resid, vals, part["days"])

    # ---------------------------------------------------------------- state

    def _state_table(self, urls: np.ndarray, mon: BaseMonitor | None) -> pa.Table:
        if mon is None:
            cols = {"url": pa.array([], pa.string()),
                    "strategy": pa.array([], pa.string())}
            return pa.table(cols)
        state = mon.state_dict()
        cols: dict[str, pa.Array] = {
            "url": pa.array(urls, pa.string()),
            "strategy": pa.array([self.strategy] * len(urls), pa.string()),
        }
        for name, v in state.items():
            if name == "beta" or (isinstance(v, list)):
                cols[name] = pa.array([np.asarray(r, dtype=np.float64)
                                       for r in v],
                                      pa.list_(pa.float64()))
            else:
                cols[name] = pa.array(np.asarray(v))
        # MOSUM ring-buffer already included via state_dict ("window")
        return pa.table(cols)

    def restore(self, state: pa.Table) -> BaseMonitor:
        """Rebuild a monitor from a state table (resume path).  List
        columns pass as rows: MoSum's windows are ragged, each url's at
        its own ``winsize``, and ``from_state`` pads them."""
        cols = {}
        for name in state.column_names:
            if name in ("url", "strategy"):
                continue
            col = state.column(name)
            if pa.types.is_list(col.type):
                cols[name] = col.to_pylist()
            else:
                cols[name] = col.to_numpy(zero_copy_only=False)
        cls = MONITOR_REGISTRY[self.strategy]
        cfg = cls(**self.monitor_params).config_dict()
        return cls.from_state(cfg, cols)
