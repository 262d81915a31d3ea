"""Generate the OLS-MOSUM monitoring critical-value table by Monte-Carlo.

The reference sources these values from an external simulated table
(``/root/reference/nrt/utils_efp.py:145-166`` reads
``data.mre_crit_table()``, shipped with the out-of-checkout nrt-data
package).  This script regenerates the full (h, period) grid offline from
the published theory, so ``nrt_ray.kernels.efp.mosum_crit`` can serve the
reference's whole parameter domain.

Model (Chu/Hornik/Kuan; Zeileis et al. monitoring): with history length
normalized to 1 and monitoring time x = n/n_hist, the OLS-MOSUM process
converges to

    M(x) = [W(x) − W(x−h)] − h·W(1),        x ∈ [1, period]

(standard Brownian motion W; the −h·W(1) term is the OLS estimation
effect of the history fit).  The engine's boundary is
c·sqrt(2·max(1, ln x)), so the critical value c at level 1−α is the
(1−α) quantile of  sup_x |M(x)| / sqrt(2·max(1, ln x)).

Simulation: Euler grid dt, N paths.  One set of Brownian paths serves
every (h, period): running maxima give all periods, and each h only
re-windows the same W.  The discretization bias (grid sup underestimates
the continuous sup by O(√dt)) is removed with an additive calibration at
the golden anchor (α=0.05, h=0.25, period=10), whose exact value
1.89762642047451/√2 is pinned by the vendored strucchange golden run —
the anchor is reproduced exactly, other entries are accurate to ~1%.

Deterministic: seed fixed below.  Output: the Python literal table
written to nrt_ray/kernels/_mosum_crit_table.py.
"""

from __future__ import annotations

import os
import time

import numpy as np

SEED = 20260817
DT = 0.0025
N_PATHS = 600_000
H_VALUES = (0.25, 0.5, 1.0)
PERIODS = (2, 4, 6, 8, 10)
SIG_LEVELS = (0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.999)
GOLDEN = 1.89762642047451 / np.sqrt(2.0)  # (alpha=.05, h=.25, p=10, max)


def simulate(dt: float = DT, n_paths: int = N_PATHS, seed: int = SEED):
    rng = np.random.default_rng(seed)
    period_max = max(PERIODS)
    n_steps = int(round(period_max / dt))
    xs = dt * np.arange(n_steps + 1)
    i1 = int(round(1.0 / dt))
    mon = np.flatnonzero(xs >= 1.0 - 1e-12)
    denom = np.sqrt(2.0 * np.maximum(1.0, np.log(xs[mon])))
    # per-period slice ends within the monitoring index range
    ends = {p: int(np.searchsorted(xs[mon], p + 1e-12, side="right"))
            for p in PERIODS}

    sup = {(h, p): [] for h in H_VALUES for p in PERIODS}
    batch = max(1, int(2e7 // n_steps))
    done = 0
    while done < n_paths:
        b = min(batch, n_paths - done)
        incr = rng.normal(0.0, np.sqrt(dt), (b, n_steps))
        W = np.concatenate([np.zeros((b, 1)), np.cumsum(incr, axis=1)],
                           axis=1)
        est = W[:, [i1]]
        for h in H_VALUES:
            w = int(round(h / dt))
            M = W[:, mon] - W[:, mon - w] - h * est
            stat = np.abs(M) / denom[None, :]
            run = np.maximum.accumulate(stat, axis=1)
            for p in PERIODS:
                # .copy(): a column view would pin the whole `run`
                # buffer per batch (tens of GB across the loop)
                sup[(h, p)].append(run[:, ends[p] - 1].copy())
        done += b
    return {k: np.concatenate(v) for k, v in sup.items()}


def quantile_se(stats: np.ndarray, levels) -> np.ndarray:
    """Asymptotic Monte-Carlo standard error of each sample quantile:
    SE(q_p) = sqrt(p(1-p)/N) / f(q_p), with the density f estimated by a
    central finite difference of the empirical quantile function."""
    n = stats.size
    levels = np.asarray(levels, dtype=np.float64)
    dp = 2e-3
    lo = np.quantile(stats, np.clip(levels - dp, 0.0, 1.0))
    hi = np.quantile(stats, np.clip(levels + dp, 0.0, 1.0))
    span = np.clip(levels + dp, 0.0, 1.0) - np.clip(levels - dp, 0.0, 1.0)
    f = span / np.maximum(hi - lo, 1e-12)
    return np.sqrt(levels * (1.0 - levels) / n) / f


def main():
    t0 = time.time()
    sup = simulate()
    # additive discretization calibration at the golden anchor
    anchor = np.quantile(sup[(0.25, 10)], 0.95)
    corr = float(GOLDEN - anchor)
    anchor_se = float(quantile_se(sup[(0.25, 10)], [0.95])[0])
    print(f"anchor sim={anchor:.5f} golden={GOLDEN:.5f} corr={corr:+.5f} "
          f"anchor_se={anchor_se:.5f}")

    table: dict = {}
    se_table: dict = {}
    for (h, p), stats in sorted(sup.items()):
        qs = np.quantile(stats, SIG_LEVELS) + corr
        table[(h, p, "max")] = {float(s): float(c)
                                for s, c in zip(SIG_LEVELS, qs)}
        # total MC error bar: the entry's own quantile SE plus the
        # anchor's SE carried by the additive calibration (quadrature)
        ses = np.sqrt(quantile_se(stats, SIG_LEVELS) ** 2 + anchor_se ** 2)
        se_table[(h, p, "max")] = {float(s): float(e)
                                   for s, e in zip(SIG_LEVELS, ses)}
    # the anchor quantile is pinned exactly (golden), by construction of
    # the additive correction it already equals GOLDEN up to float noise;
    # force bit-exactness (and zero simulation error, by pinning):
    table[(0.25, 10, "max")][0.95] = float(GOLDEN)
    se_table[(0.25, 10, "max")][0.95] = 0.0

    lines = [
        '"""OLS-MOSUM monitoring critical values, generated by',
        'scripts/gen_mosum_crit.py (Monte-Carlo, seed %d, dt=%s,' % (
            SEED, DT),
        'N=%d, additive calibration at the strucchange golden anchor).' %
        N_PATHS,
        '',
        'Layout: {(h, period, functional): {sig_level: crit}}.',
        '',
        'MOSUM_CRIT_SE holds the one-sigma Monte-Carlo error bar of each',
        'entry (asymptotic quantile SE + the anchor-calibration SE in',
        'quadrature); the golden anchor (0.25, 10, "max")@0.95 is pinned',
        'bit-exactly to the strucchange golden run, so its SE is 0.',
        'DO NOT EDIT — regenerate with the script."""',
        '',
        'MOSUM_CRIT_TABLE = {',
    ]
    for key, quants in sorted(table.items()):
        lines.append(f"    {key!r}: {{")
        for s, c in quants.items():
            lines.append(f"        {s!r}: {c!r},")
        lines.append("    },")
    lines.append("}")
    lines.append("")
    lines.append("MOSUM_CRIT_SE = {")
    for key, quants in sorted(se_table.items()):
        lines.append(f"    {key!r}: {{")
        for s, e in quants.items():
            lines.append(f"        {s!r}: {round(e, 6)!r},")
        lines.append("    },")
    lines.append("}")
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "nrt_ray", "kernels",
        "_mosum_crit_table.py")
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {out} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
