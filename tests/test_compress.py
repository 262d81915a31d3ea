"""Exact round-trip tests for the dod / xor segment codecs."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrt_ray.stages import compress

US = 1_000_000


@pytest.mark.parametrize("ts", [
    [],
    [0],
    [5, 5],
    [0, US, 2 * US, 3 * US],                       # perfectly regular
    [0, US, 2 * US + 7, 3 * US - 123, 10 ** 15],   # jittery + big jump
    list(range(0, 1000 * US, US)),                  # > BLOCK values
    [-10 ** 12, 0, 10 ** 12],
])
def test_dod_roundtrip(ts):
    arr = np.array(ts, dtype=np.int64)
    out = compress.decode_dod(compress.encode_dod(arr))
    np.testing.assert_array_equal(out, arr)


@pytest.mark.parametrize("vals", [
    [],
    [0.0],
    [1.5, 1.5, 1.5],
    [0.1, 0.2, 0.3, np.nan, -0.5, 1e300, -1e-300, 0.0],
    list(np.linspace(0, 1, 777)),
])
def test_xor_roundtrip(vals):
    arr = np.array(vals, dtype=np.float64)
    out = compress.decode_xor(compress.encode_xor(arr))
    np.testing.assert_array_equal(arr.view(np.uint64), out.view(np.uint64))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-2 ** 40, max_value=2 ** 40),
                max_size=300))
def test_dod_roundtrip_property(ts):
    arr = np.array(ts, dtype=np.int64)
    out = compress.decode_dod(compress.encode_dod(arr))
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          width=64), max_size=300))
def test_xor_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.float64)
    out = compress.decode_xor(compress.encode_xor(arr))
    np.testing.assert_array_equal(arr.view(np.uint64), out.view(np.uint64))


@pytest.mark.parametrize("block", [1, 3, 7, 128, 1024, 65535])
def test_block_size_self_describing(block):
    """Payloads record their block size: a decoder compiled with ANY
    default BLOCK reads payloads written at any other block size
    (regression for the r4 BLOCK=128→1024 silent format break)."""
    rng = np.random.default_rng(block)
    ts = np.cumsum(rng.integers(1, 10**7, size=300)).astype(np.int64)
    vals = rng.normal(size=300)
    np.testing.assert_array_equal(
        compress.decode_dod(compress.encode_dod(ts, block=block)), ts)
    np.testing.assert_array_equal(
        compress.decode_xor(compress.encode_xor(vals, block=block))
        .view(np.uint64), vals.view(np.uint64))


def test_block_size_header_only_difference():
    """Same data at two block sizes decodes identically even though the
    byte streams differ (block size is honored from the header, not the
    compile-time constant)."""
    ts = (np.arange(500) * 3600 * US).astype(np.int64)
    e128 = compress.encode_dod(ts, block=128)
    e1024 = compress.encode_dod(ts, block=1024)
    assert e128 != e1024
    np.testing.assert_array_equal(compress.decode_dod(e128),
                                  compress.decode_dod(e1024))


def test_legacy_codec_refused():
    """v1 'dod+xor' rows: decode_segments_table refuses them loudly.  A
    rewrite of their partition replaces them, since it encodes its
    segments from the tiers alone
    (``test_incremental::test_legacy_codec_store_migrates_on_increment``)."""
    tier = pa.table({
        "url": pa.array(["a"] * 4 + ["b"] * 4, pa.string()),
        "bucket_ts": pa.array(list(range(0, 4 * US * 3600, US * 3600)) * 2,
                              pa.int64()).cast(pa.timestamp("us")),
        "mean": pa.array([1.0, 2.0, 3.0, 4.0] * 2, pa.float64()),
    })
    seg = compress.segments_from_rollups({"1h": tier})
    assert set(seg.column("codec").to_pylist()) == {compress.CODEC}
    # forge a v1 store: same rows under the legacy codec tag
    legacy = seg.set_column(
        seg.column_names.index("codec"), "codec",
        pa.array(["dod+xor"] * seg.num_rows, pa.string()))
    with pytest.raises(ValueError, match="dod\\+xor"):
        compress.decode_segments_table(legacy, tier="1h")


def test_compression_ratio_regular_series():
    """Regular cadence + smooth values must compress well below raw size."""
    n = 4096
    ts = np.arange(n, dtype=np.int64) * 3600 * US
    vals = 0.5 + 0.1 * np.sin(np.arange(n) / 50)
    enc_ts = compress.encode_dod(ts)
    enc_v = compress.encode_xor(vals)
    assert len(enc_ts) < n * 8 * 0.05        # dod of regular ts ≈ nothing
    assert len(enc_v) < n * 8 * 0.9          # xor beats raw floats


def test_segments_from_rollups_roundtrip():
    urls = ["a"] * 40 + ["b"] * 10
    ts = np.concatenate([np.arange(40), np.arange(10)]) * 3600 * US
    mean = np.concatenate([np.linspace(0, 1, 40), np.linspace(5, 6, 10)])
    tier = pa.table({
        "url": pa.array(urls, pa.string()),
        "bucket_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "count": pa.array([1] * 50, pa.int32()),
        "mean": pa.array(mean, pa.float64()),
        "min": pa.array(mean, pa.float64()),
        "max": pa.array(mean, pa.float64()),
        "last": pa.array(mean, pa.float64()),
        "gapfilled": pa.array([False] * 50, pa.bool_()),
    })
    seg = compress.segments_from_rollups({"1h": tier}, max_points=16)
    assert seg.column("url").to_pylist().count("a") == 3  # 40 pts / 16
    total = 0
    for row in seg.to_pylist():
        dec_ts = compress.decode_dod(row["payload_ts"])
        dec_v = compress.decode_xor(row["payload_value"])
        assert len(dec_ts) == row["n_points"] == len(dec_v)
        assert int(dec_ts[0]) == int(row["seg_start"].timestamp() * US)
        assert int(dec_ts[-1]) == int(row["seg_end"].timestamp() * US)
        total += row["n_points"]
    total_expected = 50
    assert total == total_expected
    # decoded values equal the tier means, exactly
    a_rows = [r for r in seg.to_pylist() if r["url"] == "a"]
    dec = np.concatenate([compress.decode_xor(r["payload_value"])
                          for r in a_rows])
    np.testing.assert_array_equal(dec, mean[:40])


def test_decode_segments_table_roundtrip():
    """decode_segments_table returns exactly the (bucket_ts, mean) points
    the segments were encoded from."""
    import pyarrow as pa

    from nrt_ray.stages.compress import (decode_segments_table,
                                         segments_from_rollups)

    rng = np.random.default_rng(7)
    urls, ts, mean = [], [], []
    for u in ("a", "b", "c"):
        n = int(rng.integers(3, 40))
        t0 = int(rng.integers(0, 10**6))
        urls += [u] * n
        ts += (t0 + np.arange(n) * 3600).tolist()
        mean += rng.normal(size=n).tolist()
    tier = pa.table({
        "url": pa.array(urls, pa.string()),
        "bucket_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "mean": pa.array(mean, pa.float64()),
    })
    seg = segments_from_rollups({"1h": tier}, max_points=16)
    dec = decode_segments_table(seg, tier="1h")
    dec = dec.take(pa.compute.sort_indices(dec, sort_keys=[
        ("url", "ascending"), ("bucket_ts", "ascending")]))
    assert dec.column("url").to_pylist() == urls
    assert dec.column("bucket_ts").cast(pa.int64()).to_pylist() == ts
    np.testing.assert_array_equal(
        np.array(dec.column("mean").to_pylist()).view(np.uint64),
        np.array(mean).view(np.uint64))


def test_decode_segments_table_range_prunes_without_decode(monkeypatch):
    """A [t0, t1) range decode (a) never decodes segments whose metadata
    falls outside the range and (b) returns exactly the full decode
    filtered to the range."""
    import pyarrow as pa

    from nrt_ray.stages import compress
    from nrt_ray.stages.compress import (decode_segments_table,
                                         segments_from_rollups)

    n = 32
    ts = (np.arange(n) * 3600 * 10**6).astype(np.int64)
    mean = np.arange(n, dtype=np.float64) * 1.5
    tier = pa.table({
        "url": pa.array(["a"] * n, pa.string()),
        "bucket_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "mean": pa.array(mean, pa.float64()),
    })
    # 4 segments of 8 hourly points each
    seg = segments_from_rollups({"1h": tier}, max_points=8)
    assert seg.num_rows == 4
    full = decode_segments_table(seg, tier="1h")

    calls = {"n": 0}
    orig = compress.decode_dod

    def counting(buf):
        calls["n"] += 1
        return orig(buf)

    monkeypatch.setattr(compress, "decode_dod", counting)
    # range = hours [10, 20): overlaps segments 1 (8-15) and 2 (16-23)
    t0, t1 = int(ts[10]), int(ts[20])
    dec = decode_segments_table(seg, tier="1h", t0_us=t0, t1_us=t1)
    assert calls["n"] == 2  # segments 0 and 3 never decoded
    exp = full.filter(
        (pa.compute.field("bucket_ts") >= pa.scalar(
            t0, pa.timestamp("us")))
        & (pa.compute.field("bucket_ts") < pa.scalar(
            t1, pa.timestamp("us"))))
    assert dec.equals(exp)
    assert dec.num_rows == 10


def _v1(payload: bytes) -> bytes:
    """The pre-v2 layout of a payload: same bytes without the u16 block
    field (v1 decoders assumed a compile-time block of 128)."""
    return payload[:4] + payload[6:]


@pytest.mark.parametrize("codec", ["dod", "xor"])
def test_payload_length_is_validated(codec):
    """Decoders check the length the header implies (n, block, per-block
    widths): truncated, padded and v1-shaped payloads raise instead of
    decoding to garbage."""
    rng = np.random.default_rng(5)
    enc, dec = ((compress.encode_dod, compress.decode_dod) if codec == "dod"
                else (compress.encode_xor, compress.decode_xor))
    for n in (0, 1, 2, 3, 200, 1500):
        data = (np.cumsum(rng.integers(1, 10**6, n)) if codec == "dod"
                else rng.normal(size=n))
        good = enc(data, block=128)
        dec(good)
        for bad in (good[:-1], good + b"\0", good[:5]):
            with pytest.raises(ValueError):
                dec(bad)
        if n:
            with pytest.raises(ValueError):
                dec(_v1(good))


def test_v1_payloads_refused_structurally():
    """v1 payloads whose 'first' value has nonzero low bytes (so the
    block field reads nonzero) are still refused by the length check."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        ts = np.cumsum(rng.integers(1, 10**7, 300)) + (1 << 40) + 12345
        vals = rng.normal(size=300)
        with pytest.raises(ValueError):
            compress.decode_dod(_v1(compress.encode_dod(ts, block=128)))
        with pytest.raises(ValueError):
            compress.decode_xor(_v1(compress.encode_xor(vals, block=128)))


# -- oracle: the per-segment encoders the partition-wide one replaced ------

def _oracle_pack(values: np.ndarray, width: int) -> bytes:
    if width == 0:
        return b""
    if width % 8 == 0:
        le = values.astype("<u8", copy=False)
        return le.view(np.uint8).reshape(len(values), 8)[:, :width // 8] \
            .tobytes()
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)) \
        .astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def _oracle_round(width: int) -> int:
    return (width + 7) & ~7


def _oracle_dod(ts: np.ndarray, block: int) -> bytes:
    ts = np.asarray(ts, dtype=np.int64)
    n = len(ts)
    parts = [n.to_bytes(4, "little") + block.to_bytes(2, "little")]
    if n == 0:
        return parts[0]
    parts.append(ts[:1].tobytes())
    if n == 1:
        return b"".join(parts)
    deltas = np.diff(ts)
    parts.append(deltas[:1].tobytes())
    dod = compress._zigzag(np.diff(deltas))
    for i in range(0, len(dod), block):
        blk = dod[i:i + block]
        width = _oracle_round(int(blk.max()).bit_length())
        parts.append(bytes([width]))
        parts.append(_oracle_pack(blk, width))
    return b"".join(parts)


def _oracle_xor(values: np.ndarray, block: int) -> bytes:
    v = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    n = len(v)
    parts = [n.to_bytes(4, "little") + block.to_bytes(2, "little")]
    if n == 0:
        return parts[0]
    parts.append(v[:1].tobytes())
    xors = v[1:] ^ v[:-1]
    for i in range(0, len(xors), block):
        blk = xors[i:i + block]
        nz = blk[blk != 0]
        if len(nz) == 0:
            shift, width = 0, 0
        else:
            ored = int(np.bitwise_or.reduce(nz))
            shift = (ored & -ored).bit_length() - 1
            width = min(64, _oracle_round(ored.bit_length() - shift))
        parts.append(bytes([shift, width]))
        parts.append(_oracle_pack(blk >> np.uint64(shift), width))
    return b"".join(parts)


def _assert_oracle(ts, mean, cs, pe, block):
    pts, pval = compress.encode_chunks(ts, mean, cs, pe, block=block)
    pts.validate(full=True)
    pval.validate(full=True)
    assert len(pts) == len(pval) == len(cs)
    for k, (c, e) in enumerate(zip(cs, pe)):
        assert pts[k].as_py() == _oracle_dod(ts[c:e], block), (k, c, e)
        assert pval[k].as_py() == _oracle_xor(mean[c:e], block), (k, c, e)


ONES = np.array([np.iinfo(np.uint64).max], np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("block", [1, 3, 17, 1024, 65535])
def test_encode_chunks_matches_per_segment_oracle(block):
    """The partition-wide encoder equals the per-segment encoders byte
    for byte: 0/1/2-point chunks, overlapping right-anchor ranges
    (``pe = ce + 1``), NaN and all-ones float payloads, constant runs
    (width 0), 64-bit XOR widths, deltas near ±2^40 and timestamps near
    2^62."""
    rng = np.random.default_rng(block)
    n = 3000
    steps = np.where(rng.random(n) < 0.5, 1, -1) * (2 ** 40 - rng.integers(
        0, 1000, n))
    ts = np.concatenate([
        2 ** 62 + np.cumsum(rng.integers(0, 10 ** 6, n)),   # near 2^62
        np.cumsum(steps),                                   # ±2^40 deltas
        np.arange(n) * 3600 * US,                           # regular
    ]).astype(np.int64)
    mean = np.concatenate([
        np.where(rng.random(n) < 0.5, 0.0, ONES),           # 64-bit xors
        np.full(n, 2.5),                                    # constant run
        np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n)),
    ])
    N = len(ts)
    cs = np.concatenate([
        [0, 5, 5, 9, N - 1, N],                 # 3, 0, 1, 2, 1, 0 points
        np.arange(20, N - 700, 677),            # long chunks
    ])
    pe = np.concatenate([[3, 5, 6, 11, N, N],
                         np.arange(20, N - 700, 677) + 678])  # overlap +1
    _assert_oracle(ts, mean, cs, pe, block)
    assert compress.encode_dod(ts, block) == _oracle_dod(ts, block)
    assert compress.encode_xor(mean, block) == _oracle_xor(mean, block)


def test_encode_chunks_random_cases_match_oracle():
    rng = np.random.default_rng(2024)
    for case in range(300):
        n = int(rng.integers(0, 200))
        ts = (rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
              if case % 3 == 0 else
              np.cumsum(rng.integers(0, 10 ** rng.integers(1, 12), n)))
        mean = (rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64)
                .view(np.float64) if case % 2 else
                np.round(rng.normal(size=n), int(rng.integers(0, 4))))
        k = int(rng.integers(0, 12))
        cs = rng.integers(0, n + 1, k)
        pe = np.minimum(cs + rng.integers(0, 60, k), n)
        _assert_oracle(ts.astype(np.int64), mean, cs, pe,
                       int(rng.choice([1, 3, 17, 1024, 65535])))


def test_encode_chunks_rejects_bad_block():
    for block in (0, 65536):
        with pytest.raises(ValueError):
            compress.encode_chunks(np.zeros(3, np.int64), np.zeros(3),
                                   [0], [3], block=block)
