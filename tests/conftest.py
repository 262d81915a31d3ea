"""Shared fixtures: golden conformance corpus + a single Ray session.

The golden CSVs under ``tests/data`` are vendored from the reference test
suite (R strucchange/bfast/statsmodels outputs) — see tests/data/README.md.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run."""
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def X_y_dates_romania():
    X = np.loadtxt(DATA / "X.csv", delimiter=",", dtype=np.float64)
    y = np.loadtxt(DATA / "y.csv", delimiter=",", dtype=np.float64)
    dates = np.genfromtxt(DATA / "dates.csv", delimiter=",") \
        .astype("datetime64[ns]")
    return X, y, dates


@pytest.fixture(scope="session")
def golden_recresid():
    return np.genfromtxt(DATA / "rr_result.csv", delimiter=",",
                         dtype=np.float64, missing_values="NA")


@pytest.fixture(scope="session")
def golden_efp():
    return np.genfromtxt(DATA / "efp_result.csv", delimiter=",",
                         dtype=np.float64, missing_values="NA")


@pytest.fixture(scope="session")
def golden_roc_history():
    return np.loadtxt(DATA / "roc_history_result.csv", delimiter=",",
                      dtype=np.float64)


@pytest.fixture(scope="session")
def golden_cusum():
    return np.loadtxt(DATA / "cusum_result.csv", delimiter=",",
                      dtype=np.float64)


@pytest.fixture(scope="session")
def golden_mosum():
    return np.loadtxt(DATA / "mosum_result.csv", delimiter=",",
                      dtype=np.float64)


@pytest.fixture(scope="session")
def X_y_RLM():
    X = np.loadtxt(DATA / "RLM_X.csv", delimiter=",", dtype=np.float64)
    y = np.loadtxt(DATA / "RLM_y.csv", delimiter=",", dtype=np.float64)
    return X, y


@pytest.fixture(scope="session")
def golden_RLM():
    # statsmodels RLM(TukeyBiweight) coefficients for X_y_RLM (see
    # FIXTURES.md §2 / reference unit-test conftest)
    return np.array([
        [2.3757569983999076, -51.621207292381314],
        [1.5919053949452396e-05, -0.00019788972214892546],
        [4.960483948314601, -73.95341088849317],
        [4.0427485592574195, -17.66452192456504],
        [1.0676653146683237, 0.579422996703399],
        [-0.7172424822211365, -49.52111301879781],
        [1.2701246101474761, -38.324020145702654],
        [1.1329168669944791, -9.034638787625045]], dtype=np.float64)


@pytest.fixture
def X_y_intercept_slope():
    np.random.seed(0)
    slope, intercept = 2.0, 5.0
    X = np.c_[np.ones(10), np.arange(10)]
    y = np.array([slope * X[:, 1] + intercept,
                  slope * X[:, 1] + intercept])
    y[0, 9] = 0.0
    y[1, 0] = 23.0
    return X, y.T, intercept, slope


@pytest.fixture
def X_y_clear(X_y_intercept_slope):
    X, y, intercept, slope = X_y_intercept_slope
    clear = np.ones_like(y, dtype=bool)
    clear[9, 0] = False
    clear[0, 1] = False
    return X, y, clear


@pytest.fixture
def stability_ccdc():
    np.random.seed(0)
    a_len = 30
    residuals = (np.random.rand(a_len, 4) - 0.5) * 2
    residuals[0, 0] = 100
    residuals[-1, 1] = 100
    ts = np.array([np.ones(a_len),
                   np.ones(a_len),
                   np.arange(a_len) * 20 + 5,
                   np.ones(a_len)]).T
    ts[a_len // 2, 3] = np.nan
    X = np.array([np.ones(a_len), np.arange(a_len)]).T
    y = ts + residuals
    dates = np.linspace(1, 365, a_len)
    expected = np.array([True, False, False, True])
    return X, y, dates, expected


@pytest.fixture(scope="session")
def earlier_tier_layout():
    """``rewrite(out, convert=None)``: rewrite a committed store into the
    layout before the ``rollup`` file and the decimal codec — per
    partition, one ``rollup_{tier}`` file per run-config tier, each
    table's ``sum`` a float column (then passed through ``convert`` when
    given), and tier-major "dod+xor3" segments, sorted by (tier, url,
    seg_start) — and delete its ``rollup`` files."""
    import os

    import pyarrow as pa

    from codec_oracle import _oracle_xor
    from nrt_ray.pipelines.incremental import read_run_config
    from nrt_ray.stages import compress, rollup
    from nrt_ray.state import manifest

    def float_sum(t: pa.Table) -> pa.Table:
        meta = dict(t.schema.metadata)
        meta.pop(rollup.SUM_SCALE)
        return t.drop_columns(["sum_float"]).set_column(
            t.column_names.index("sum"), "sum",
            pa.array(rollup.table_rolled(t)[0]["sum"])) \
            .replace_schema_metadata(meta)

    def xor3(seg: pa.Table) -> pa.Table:
        values = [_oracle_xor(compress.decode_dec(p), compress.BLOCK)
                  for p in seg.column("payload_value").to_pylist()]
        for name, col in (("codec", pa.array([compress.XOR3] * len(values))),
                          ("payload_value", pa.array(values, pa.binary()))):
            seg = seg.set_column(seg.column_names.index(name), name, col)
        return seg

    def rewrite(out: str, convert=None) -> None:
        tiers = [t["name"] for t in read_run_config(out)["tiers"]]
        rank = {t: i for i, t in enumerate(tiers)}
        for pid in sorted(manifest.committed_partitions(out)):
            got = manifest.read_partition(
                out, pid, ["segments", *(f"rollup_{t}" for t in tiers)])
            seg = got.pop("segments")
            if seg is None:                # committed empty
                continue
            for name, t in got.items():
                t = float_sum(t)
                manifest.write_partition_table(
                    out, name, pid, convert(t) if convert else t)
            tier_rank = np.array([rank[t] for t in
                                  seg.column("tier").to_pylist()])
            manifest.write_partition_table(out, "segments", pid, xor3(
                seg.take(pa.array(np.argsort(tier_rank, kind="stable")))))
            os.remove(os.path.join(manifest.partition_dir(out, "rollup",
                                                          pid),
                                   "part.parquet"))

    return rewrite
