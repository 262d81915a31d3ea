"""Driver-style correctness gate over any scale factor.

Runs every catalog query through Ray and its DuckDB oracle side by side,
normalizes (columns sorted by name, rows sorted by all columns) and
compares values exactly — a stricter local stand-in for the driver's
row-count / schema / value-hash check.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import importlib.util
import os
import sys

#: checkout root (this script lives in ``<root>/scripts``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def _to_pandas(res):
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    started = not ray.is_initialized()
    if started:
        # workers import the engine from this checkout, whatever the cwd,
        # ahead of anything already on the caller's PYTHONPATH
        path = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 log_to_driver=False,
                 runtime_env={"env_vars": {"PYTHONPATH": path}})
    try:
        n_fail = _sweep(sf_dir, only)
    finally:
        # a Ray the caller started stays up for the caller
        if started:
            ray.shutdown()
    print("FAILURES:", n_fail)
    return 1 if n_fail else 0


def _sweep(sf_dir: str, only: set) -> int:
    """Compare each selected query with its oracle; returns the number
    of failures (a query or oracle that raises is one)."""
    spec = importlib.util.spec_from_file_location(
        "ray_entry", os.path.join(ROOT, "__ray_entry__.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    queries, oracles = mod.queries(), mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    n_fail = 0
    for name in sorted(queries):
        if only and name not in only:
            continue
        try:
            got = _normalize(_to_pandas(queries[name](sf_dir)))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {e!r}")
            n_fail += 1
            continue
        if name not in oracles:
            print(f"rows-only {name}: {len(got)} rows")
            continue
        try:
            exp = _normalize(con.sql(oracles[name]).df())
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {e!r}")
            n_fail += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"FAIL {name}: columns {list(got.columns)} "
                  f"!= {list(exp.columns)}")
            n_fail += 1
            continue
        if len(got) != len(exp):
            print(f"FAIL {name}: rows {len(got)} != {len(exp)}")
            n_fail += 1
            continue
        bad = []
        for c in got.columns:
            a, b = got[c].values, exp[c].values
            if got[c].dtype == np.float64:
                eq = (a == b) | (np.isnan(a.astype(float))
                                 & np.isnan(b.astype(float)))
            elif np.issubdtype(got[c].dtype, np.datetime64):
                eq = (a == b) | (np.isnat(a) & np.isnat(b))
            else:
                eq = a == b
            if not eq.all():
                d = np.flatnonzero(~eq)
                bad.append((c, len(d),
                            got.iloc[d[:2]].to_dict("records"),
                            exp.iloc[d[:2]].to_dict("records")))
        if bad:
            print(f"FAIL {name}: value diffs {bad}")
            n_fail += 1
        else:
            print(f"PASS {name}: {len(got)} rows hash-equal")
    return n_fail


if __name__ == "__main__":
    raise SystemExit(main())
