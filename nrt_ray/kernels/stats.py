"""Scalar/statistical helpers (pure NumPy, float64).

Functional parity targets (all in ``/root/reference/nrt/``):
``stats.py:20-68`` (NaN-aware least squares), ``stats.py:71-127``
(mad / bisquare / erfcc / ncdf), ``stats.py:130-154`` (per-column
nan-percentile).  The implementations here are new: the NaN-aware solver is
fully vectorized over series via batched normal equations instead of a
per-column jit loop (Ray tasks supply the coarse-grained parallelism that
numba threads supplied in the reference).
"""

from __future__ import annotations

import numpy as np


def nanlstsq(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NaN-aware least squares, vectorized over series.

    Equivalent to solving ``lstsq(X[finite], y[finite, m])`` independently
    per column ``m`` (reference ``nrt/stats.py:20-68``), but via batched
    *centered* normal equations: the intercept column is eliminated by
    weighted centering, which drops the condition number from
    ``cond(X)²`` (raw normal equations — ~1e9 for a days-since-epoch
    trend column) to that of the centered regressors (~1e2), i.e. the
    solution agrees with a QR/SVD solve to ~1e-12 relative.

    Args:
        X: ``(n, k)`` design matrix with an all-ones intercept column 0
            (all design matrices in this engine have one).
        y: ``(n, m)`` observations with NaN for missing.

    Returns:
        ``(k, m)`` float64 coefficients.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = np.isfinite(y)
    w = valid.astype(np.float64)
    y0 = np.where(valid, y, 0.0)
    n, k = X.shape
    m = y.shape[1]
    sw = w.sum(axis=0)                                    # (m,)
    swc = np.maximum(sw, 1.0)
    xbar = np.einsum("nk,nm->mk", X, w) / swc[:, None]    # (m, k)
    ybar = (w * y0).sum(axis=0) / swc                     # (m,)
    if k == 1:
        return ybar[None, :].copy()
    Xc = X[None, :, 1:] - xbar[:, None, 1:]               # (m, n, k-1)
    yc = (y0 - ybar[None, :]).T                           # (m, n)
    A = np.einsum("mni,nm,mnj->mij", Xc, w, Xc, optimize=True)
    b = np.einsum("mni,mn->mi", Xc, w.T * yc, optimize=True)
    try:
        br = np.linalg.solve(A, b[..., None])[..., 0]     # (m, k-1)
    except np.linalg.LinAlgError:
        br = (np.linalg.pinv(A) @ b[..., None])[..., 0]
    b0 = ybar - np.einsum("mi,mi->m", br, xbar[:, 1:])
    return np.concatenate([b0[:, None], br], axis=1).T    # (k, m)


def mad(resid: np.ndarray, c: float = 0.6745, axis=None) -> np.ndarray:
    """Median absolute deviation scaled to ~std-normal (MAD / c)."""
    med = np.nanmedian(resid, axis=axis, keepdims=axis is not None)
    return np.nanmedian(np.fabs(resid - med), axis=axis) / c


def bisquare(resid: np.ndarray, c: float = 4.685) -> np.ndarray:
    """Tukey biweight: ``(|r|<c) · (1 − (r/c)²)²``."""
    return (np.abs(resid) < c) * (1.0 - (resid / c) ** 2) ** 2


# Rational polynomial approximation of the complementary error function
# (Numerical Recipes §6.2, ~1e-7 absolute accuracy) — same approximation the
# reference uses so the Brownian-motion p-values agree bit-for-bit.
_ERFCC_COEF = (-1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
               0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277)


def erfcc(x: float) -> float:
    """Complementary error function (polynomial approximation)."""
    z = abs(x)
    t = 1.0 / (1.0 + 0.5 * z)
    poly = _ERFCC_COEF[-1]
    for coef in _ERFCC_COEF[-2::-1]:
        poly = coef + t * poly
    r = t * np.exp(-z * z + poly)
    return r if x >= 0.0 else 2.0 - r


def ncdf(x: float) -> float:
    """Standard normal CDF via :func:`erfcc`."""
    return 1.0 - 0.5 * erfcc(x / np.sqrt(2.0))


def nan_percentile_axis0(arr: np.ndarray, percentiles) -> np.ndarray:
    """``np.nanpercentile(arr, percentiles, axis=0)`` (reference exposes a
    jitted clone at ``nrt/stats.py:130-154``; plain NumPy is already
    vectorized here)."""
    arr = np.asarray(arr)
    if arr.shape[0] == 0:
        # np.nanpercentile collapses the axis on empty input
        return np.full((len(percentiles),) + arr.shape[1:], np.nan)
    with np.errstate(all="ignore"):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return np.nanpercentile(arr, percentiles, axis=0)
