"""History-period fit methods over ``(time, n_series)`` matrices.

Functional parity targets: ``/root/reference/nrt/fit_methods.py`` (OLS
``:58-71``, RIRLS ``:74-164``, CCDC-stable ``:166-251``, ROC-stable
``:254-323``).  Implementations are new NumPy code: OLS and RIRLS are
vectorized across series via batched normal equations (the reference loops
per column under numba ``prange``); the variable-length stable fits keep a
per-series loop because their suffix logic is inherently scalar, and rely on
Ray-task parallelism across batches instead of threads.

Residual sign conventions match the reference fits exactly, including their
inconsistency: OLS and the stable fits return ``X·β − y`` while RIRLS
returns ``y − X·β`` (the *monitoring* residual is always ``y − ŷ``).
"""

from __future__ import annotations

import numpy as np

from nrt_ray.kernels.stats import bisquare, mad, nanlstsq
from nrt_ray.kernels.efp import history_roc

MIN_SPAN_DAYS = 183  # half a year — minimum history span for stable fits


def _solve_normal(Xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Solve the least-squares system via *centered* normal equations
    (intercept column 0 eliminated by centering — conditioning of the
    centered regressors instead of ``cond(X)²``), with an SVD
    pseudo-inverse fallback for singular suffixes (e.g. all observations
    on one day under a trend design — arbitrary web data hits this, a
    raster never does)."""
    xbar = Xs.mean(axis=0)
    ybar = ys.mean(axis=0)                       # scalar or (p,)
    if Xs.shape[1] == 1:
        return np.full((1,) + np.shape(ybar), ybar)[0][None] \
            if ys.ndim > 1 else np.atleast_1d(ybar)
    Xc = Xs[:, 1:] - xbar[1:]
    yc = ys - ybar
    A, b = Xc.T @ Xc, Xc.T @ yc                  # b: (k-1,) or (k-1, p)
    try:
        br = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        br = np.linalg.pinv(A) @ b
    b0 = ybar - xbar[1:] @ br                    # scalar or (p,)
    if ys.ndim > 1:
        return np.vstack([np.atleast_1d(b0), br])
    return np.concatenate([np.atleast_1d(b0), np.atleast_1d(br)])


def ols(X: np.ndarray, y: np.ndarray):
    """NaN-aware OLS fit for all series at once.

    Returns:
        beta ``(k, m)``, residuals ``(n, m)`` (``X·β − y``; NaN where y is NaN).
    """
    beta = nanlstsq(X, y)
    residuals = X @ beta - y
    return beta, residuals


def rirls(X: np.ndarray, y: np.ndarray, tune: float = 4.685,
          scale_constant: float = 0.6745, update_scale: bool = True,
          maxiter: int = 50, tol: float = 1e-8):
    """Robust iteratively-reweighted least squares (Tukey bisquare, MAD scale).

    Vectorized across series: each iteration solves the batched weighted
    normal equations for every still-active series.  Per-series behaviours of
    the reference are preserved:

    * a series whose initial MAD scale is below float32-eps keeps its plain
      OLS solution (no reweighting);
    * convergence is the reference's *signed* criterion
      ``not any((β_new − β_old) > tol)`` (not the absolute difference);
    * iteration count starts at 1 and stops strictly below ``maxiter``.

    Returns:
        beta ``(k, m)``, residuals ``(n, m)`` (NaN rows preserved).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = y.shape
    eps = float(np.finfo(np.float32).eps)

    valid = np.isfinite(y)

    def _solve(weights):
        # lstsq on the √w-scaled system, batched across series via stacked
        # SVD pseudo-inverse (minimum-norm on near-singular systems, like
        # the reference's np.linalg.lstsq — normal equations would square
        # the condition number and diverge on near-singular series).
        w = valid.astype(np.float64)
        if weights is not None:
            w = w * weights
        sw = np.sqrt(w).T  # (m, n)
        Xw = X[None, :, :] * sw[:, :, None]       # (m, n, k)
        yw = np.where(valid, y, 0.0).T * sw       # (m, n)
        beta_m = np.linalg.pinv(Xw) @ yw[..., None]  # (m, k, 1)
        beta_ = beta_m[..., 0].T                  # (k, m)
        resid_ = np.where(valid, y - X @ beta_, np.nan)
        return beta_, resid_

    beta, resid = _solve(None)
    scale = mad(resid, c=scale_constant, axis=0)  # (m,)
    active = scale >= eps  # series still being reweighted
    scale = np.where(active, scale, 1.0)  # avoid 0-division for frozen ones

    iteration = 1
    while np.any(active) and iteration < maxiter:
        last_beta = beta.copy()
        weights = bisquare(resid / scale, c=tune)
        weights = np.where(np.isfinite(weights), weights, 0.0)
        new_beta, new_resid = _solve(weights)
        beta = np.where(active, new_beta, beta)
        resid = np.where(active[None, :], new_resid, resid)
        if update_scale:
            new_scale = mad(resid, c=scale_constant, axis=0)
            new_scale = np.maximum(eps, np.where(np.isfinite(new_scale),
                                                 new_scale, eps))
            scale = np.where(active, new_scale, scale)
        iteration += 1
        # signed convergence criterion, per series
        diverged = np.any((beta - last_beta) > tol, axis=0)
        active = active & diverged
    return beta, resid


def lasso(X: np.ndarray, y: np.ndarray, lam: float = 0.01,
          maxiter: int = 1000, tol: float = 1e-10):
    """L1-penalized harmonic fit (coordinate descent), vectorized across
    series.

    BEYOND-reference: the reference dispatches ``method='LASSO'`` to
    ``NotImplementedError`` (``/root/reference/nrt/monitor/__init__.py:
    244-245``); this implements it.  The objective is glmnet's
    standardized form, per series ``i`` with validity weights
    ``w = isfinite(y)`` and ``n_i = w.sum()``::

        (1 / (2 n_i)) Σ_t w_ti (y_ti − X_t β_i)²  +  λ Σ_{j≥1} |β̃_ij|

    where ``β̃`` are the coefficients of the per-series STANDARDIZED
    penalized columns (weighted mean 0, weighted variance 1 over that
    series' valid rows) and the intercept (column 0) is unpenalized —
    standardization is what makes one λ meaningful across columns of
    wildly different scale (the trend column is ~18 000 days while the
    harmonics are ±1).  Returned ``beta`` is on the ORIGINAL scale.

    Vectorization: cyclic coordinate descent where each coordinate
    update is one ``(n,) × (n, m)`` contraction across ALL series at
    once — the per-iteration cost is ``O(k · n · m)`` with no per-series
    Python loop.  Centering y and each penalized column per series keeps
    the weighted residual mean at exactly 0 throughout, so the update
    needs no intercept bookkeeping until the final un-standardization.

    Degenerate columns (zero weighted variance over a series' valid
    rows, e.g. all observations on one day under a trend design) get
    ``β_j = 0`` for that series — indistinguishable from the intercept.

    Returns:
        beta ``(k, m)``, residuals ``(n, m)`` (``X·β − y``; NaN where y
        is NaN) — same conventions as :func:`ols`.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n, m = y.shape
    k = X.shape[1]
    valid = np.isfinite(y)
    w = valid.astype(np.float64)                   # (n, m)
    n_i = np.maximum(w.sum(axis=0), 1.0)           # (m,)
    y0 = np.where(valid, y, 0.0)
    ybar = y0.sum(axis=0) / n_i                    # (m,)

    # per-series weighted mean / std of each penalized column
    mu = (X.T @ w) / n_i                           # (k, m)
    ex2 = ((X * X).T @ w) / n_i                    # (k, m)
    sd = np.sqrt(np.maximum(ex2 - mu * mu, 0.0))   # (k, m)
    ok = sd > 1e-12                                # non-degenerate (k, m)
    sd_safe = np.where(ok, sd, 1.0)

    # residual of the centered fit (all β̃ start at 0); invariant:
    # weighted per-series mean of r stays exactly 0
    r = np.where(valid, y0 - ybar[None, :], 0.0)   # (n, m)
    bt = np.zeros((k, m))                          # standardized coefs

    for _ in range(maxiter):
        delta_max = 0.0
        for j in range(1, k):
            xj = X[:, j]                           # (n,)
            # ρ_j = (1/n_i) Σ_t w x̃s r + β̃_j  (weighted r-mean is 0, so
            # the −μ term of the centered column contributes nothing)
            rho = (xj @ r) / (n_i * sd_safe[j]) + bt[j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
            new = np.where(ok[j], new, 0.0)
            d = new - bt[j]
            if np.any(d):
                # r ← r − w · x̃s_j · Δ  with x̃s_j = (x_j − μ_j) / sd_j
                r -= w * ((xj[:, None] - mu[j][None, :])
                          / sd_safe[j][None, :]) * d[None, :]
                bt[j] = new
                delta_max = max(delta_max, float(np.abs(d).max()))
        if delta_max < tol:
            break

    beta = np.zeros((k, m))
    beta[1:] = bt[1:] / sd_safe[1:]
    beta[0] = ybar - (beta[1:] * mu[1:]).sum(axis=0)
    residuals = X @ beta - y
    return beta, residuals


def ccdc_stable_fit(X: np.ndarray, y: np.ndarray, dates: np.ndarray,
                    threshold: float = 3.0):
    """Stability-seeking OLS fit (CCDC-style shrink-from-the-left).

    Per series: fit OLS on the suffix of valid observations, check the three
    stability conditions (|slope|/RMSE, |first resid|/RMSE, |last resid|/RMSE
    all < threshold), and drop the two oldest valid observations per round
    until stable, until fewer than ``1.5·k`` observations remain, or until
    the remaining span is under half a year.

    Args:
        X: ``(n, k)`` design matrix (column 1 must be the trend).
        y: ``(n, m)`` observations, NaN = missing.
        dates: ``(n,)`` observation dates in days since epoch (int).
        threshold: stability sensitivity.

    Returns:
        beta ``(k, m)``, residuals ``(n, m)`` (suffix-aligned, NaN elsewhere),
        is_stable ``(m,)`` bool, fit_start ``(m,)`` days-since-epoch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dates = np.asarray(dates)
    n, m = y.shape
    k = X.shape[1]
    min_obs = int(k * 1.5)
    beta = np.zeros((k, m), dtype=np.float64)
    residuals = np.full_like(y, np.nan)
    stable = np.zeros(m, dtype=bool)
    fit_start = np.zeros(m, dtype=np.int64)

    for idx in range(m):
        col = y[:, idx]
        ok = np.isfinite(col)
        Xv, yv, dv = X[ok], col[ok], dates[ok]
        is_stable = False
        beta_s = None
        jdx = len(yv)
        for jdx in range(len(yv), min_obs - 1, -2):
            Xs, ys = Xv[-jdx:], yv[-jdx:]
            beta_s = _solve_normal(Xs, ys)
            resid_s = Xs @ beta_s - ys
            rmse = np.sqrt(np.mean(resid_s ** 2))
            is_stable = (np.fabs(beta_s[1]) / rmse < threshold
                         and np.fabs(resid_s[0]) / rmse < threshold
                         and np.fabs(resid_s[-1]) / rmse < threshold)
            if is_stable:
                break
            if dv[-1] - dv[-jdx] < MIN_SPAN_DAYS:
                break
        beta[:, idx] = beta_s
        residuals[-jdx:, idx] = resid_s
        stable[idx] = is_stable
        fit_start[idx] = dv[-jdx]
    return beta, residuals, stable, fit_start


def roc_stable_fit(X: np.ndarray, y: np.ndarray, dates: np.ndarray,
                   alpha: float = 0.05, crit: float = 0.9478982340418134,
                   min_span_days: int = MIN_SPAN_DAYS):
    """Stable fit via Reverse-Ordered-CUSUM stable-history detection.

    Per series: find the stable-history start with :func:`history_roc`,
    require at least ``k+1`` observations and half a year of span in the
    stable window, then OLS-fit the stable suffix.  Unstable series keep
    NaN coefficients (and hence NaN residuals).

    Returns:
        beta ``(k, m)``, residuals ``(n, m)``, is_stable ``(m,)``,
        fit_start ``(m,)`` days-since-epoch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dates = np.asarray(dates)
    n, m = y.shape
    k = X.shape[1]
    is_stable = np.ones(m, dtype=bool)
    fit_start = np.zeros(m, dtype=np.int64)
    beta = np.full((k, m), np.nan, dtype=np.float64)

    for idx in range(m):
        col = y[:, idx]
        ok = np.isfinite(col)
        yv, Xv = col[ok], X[ok]
        stable_idx = history_roc(Xv, yv, alpha=alpha, crit=crit)
        if len(yv) - stable_idx < k + 1:
            is_stable[idx] = False
            continue
        dv = dates[ok]
        if dv[-1] - dv[stable_idx] < min_span_days:
            is_stable[idx] = False
            continue
        Xs, ys = Xv[stable_idx:], yv[stable_idx:]
        beta[:, idx] = _solve_normal(Xs, ys)
        fit_start[idx] = dv[stable_idx]

    residuals = X @ beta - y
    return beta, residuals, is_stable, fit_start
