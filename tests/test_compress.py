"""Exact round-trip tests for the segment codecs: dod timestamps, dec
values, and the "dod+xor3" XOR values still decoded (its payloads are
made here by the per-segment oracle encoder ``_oracle_xor``)."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_oracle import _oracle_pack, _oracle_round, _oracle_xor
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
    out = compress.decode_xor(_oracle_xor(arr, compress.BLOCK))
    np.testing.assert_array_equal(arr.view(np.uint64), out.view(np.uint64))


@pytest.mark.parametrize("vals", [
    [],
    [0.0],
    [1.5, 1.5, 1.5],
    [0.1, 0.2, 0.3, np.nan, -0.5, 1e300, -1e-300, 0.0, -0.0],
    list(np.linspace(0, 1, 777)),
    list(np.round(np.linspace(-1, 1, 3000), 6)),
])
def test_dec_roundtrip(vals):
    arr = np.array(vals, dtype=np.float64)
    out = compress.decode_dec(compress.encode_dec(arr))
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
    out = compress.decode_xor(_oracle_xor(arr, compress.BLOCK))
    np.testing.assert_array_equal(arr.view(np.uint64), out.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.decimals(min_value=-10 ** 6, max_value=10 ** 6, places=6,
                allow_nan=False).map(float),
    st.integers(min_value=0, max_value=2 ** 64 - 1).map(
        lambda b: np.array([b], np.uint64).view(np.float64)[0])),
    max_size=300), st.sampled_from([1, 3, 17, 1024]))
def test_dec_roundtrip_property(vals, block):
    arr = np.array(vals, dtype=np.float64)
    out = compress.decode_dec(compress.encode_dec(arr, block))
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
    for v in (vals, np.round(vals, 4)):           # XOR and dec blocks
        np.testing.assert_array_equal(
            compress.decode_dec(compress.encode_dec(v, block=block))
            .view(np.uint64), v.view(np.uint64))
    np.testing.assert_array_equal(
        compress.decode_xor(_oracle_xor(vals, block)).view(np.uint64),
        vals.view(np.uint64))


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
    """Regular cadence + smooth values must compress well below raw size,
    and 6-decimal values to three bytes each."""
    n = 4096
    ts = np.arange(n, dtype=np.int64) * 3600 * US
    vals = 0.5 + 0.1 * np.sin(np.arange(n) / 50)
    enc_ts = compress.encode_dod(ts)
    enc_v = compress.encode_dec(vals)
    assert len(enc_ts) < n * 8 * 0.05        # dod of regular ts ≈ nothing
    assert len(enc_v) < n * 8 * 0.9          # xor beats raw floats
    assert len(compress.encode_dec(np.round(vals, 6))) < n * 3.1


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
        dec_v = compress.decode_dec(row["payload_value"])
        assert len(dec_ts) == row["n_points"] == len(dec_v)
        assert int(dec_ts[0]) == int(row["seg_start"].timestamp() * US)
        assert int(dec_ts[-1]) == int(row["seg_end"].timestamp() * US)
        total += row["n_points"]
    total_expected = 50
    assert total == total_expected
    # decoded values equal the tier means, exactly
    a_rows = [r for r in seg.to_pylist() if r["url"] == "a"]
    dec = np.concatenate([compress.decode_dec(r["payload_value"])
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


@pytest.mark.parametrize("codec", ["dod", "xor", "dec"])
def test_payload_length_is_validated(codec):
    """Decoders check the length the header implies (n, block, per-block
    widths, and a dec block's exception count): truncated, padded and
    v1-shaped payloads raise instead of decoding to garbage."""
    rng = np.random.default_rng(5)
    enc, dec = {"dod": (compress.encode_dod, compress.decode_dod),
                "xor": (_oracle_xor, compress.decode_xor),
                "dec": (compress.encode_dec, compress.decode_dec)}[codec]
    for n in (0, 1, 2, 3, 200, 1500):
        data = (np.cumsum(rng.integers(1, 10**6, n)) if codec == "dod"
                else rng.normal(size=n))
        if codec == "dec":                  # decimal, a few exceptions
            data = np.where(rng.random(n) < 0.05, data, np.round(data, 6))
        good = enc(data, 128)
        dec(good)
        for bad in (good[:-1], good + b"\0", good[:5]):
            with pytest.raises(ValueError):
                dec(bad)
        if n and codec != "dec":
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
            compress.decode_xor(_v1(_oracle_xor(vals, 128)))


# -- oracle: the per-segment encoders the partition-wide one replaced ------

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


NEG_ZERO = 1 << 63
EXACT = 2 ** 53


def _oracle_scale(x: float):
    """``(s, k)``: the smallest scale s ≤ 22 at which the integer
    ``k = rint(x·10^s)``, |k| < 2^53, gives x back bit for bit as
    ``k / 10.0**s``; (None, None) if none does."""
    bits = int(np.float64(x).view(np.uint64))
    if not np.isfinite(x) or bits == NEG_ZERO:
        return None, None
    for s in range(23):
        with np.errstate(over="ignore"):
            k = np.rint(np.float64(x) * float(10 ** s))
        if abs(k) < EXACT and int((np.float64(int(k)) / float(10 ** s))
                                  .view(np.uint64)) == bits:
            return s, int(k)
    return None, None


def _oracle_dec_block(v: np.ndarray) -> bytes:
    """One dec block, spelled out value by value (the format and scale
    rule of ``nrt_ray.stages.compress``)."""
    cnt = len(v)
    bits = [int(b) for b in v.view(np.uint64)]
    mins = [_oracle_scale(x) for x in v]
    exact = [x for x, (s, _) in zip(v, mins) if s is not None]
    best, cost = 255, float("inf")
    if exact:
        span = np.float64(max(exact)) - np.float64(min(exact))
        for s in range(23):
            n = sum(m is not None and m <= s for m, _ in mins)
            zz = 2 * np.ceil(span * float(10 ** s))
            nbyte = min(-(-math.frexp(float(zz))[1] // 8), 8)
            c = cnt * nbyte + 10 * (cnt - n)
            if n and c < cost:
                best, cost = s, c
    xors = [0] + [bits[j] ^ bits[j - 1] for j in range(1, cnt)]
    xor_bytes = _oracle_round(max(xors).bit_length()) // 8
    ks = [None] * cnt
    if best != 255 and not cnt * xor_bytes < cost:
        for j, (m, k) in enumerate(mins):
            if m is not None and m <= best:
                k *= 10 ** (best - m)
                back = np.float64(k) / float(10 ** best)
                if abs(k) < EXACT and int(back.view(np.uint64)) == bits[j]:
                    ks[j] = k
    if not any(k is not None for k in ks):
        out = bytes([255, _oracle_round(max(xors).bit_length()), 0, 0])
        return out + bits[0].to_bytes(8, "little") + _oracle_pack(
            np.array(xors, np.uint64), _oracle_round(
                max(xors).bit_length()))
    exc = [j for j, k in enumerate(ks) if k is None]
    first = next(k for k in ks if k is not None)
    filled, last = [], first
    for k in ks:
        last = last if k is None else k
        filled.append(last)
    zz = [0] + [((d << 1) ^ (d >> 63)) & (2 ** 64 - 1) for d in (
        filled[j] - filled[j - 1] for j in range(1, cnt))]
    width = _oracle_round(max(zz).bit_length())
    return (bytes([best, width]) + len(exc).to_bytes(2, "little")
            + (filled[0] % 2 ** 64).to_bytes(8, "little")
            + _oracle_pack(np.array(zz, np.uint64), width)
            + b"".join(j.to_bytes(2, "little") + bits[j].to_bytes(
                8, "little") for j in exc))


def _oracle_dec(values: np.ndarray, block: int) -> bytes:
    v = np.ascontiguousarray(values, dtype=np.float64)
    return len(v).to_bytes(4, "little") + block.to_bytes(2, "little") \
        + b"".join(_oracle_dec_block(v[i:i + block])
                   for i in range(0, len(v), block))


def _dec_blocks(payload: bytes) -> list[tuple[int, int, int]]:
    """``(scale, width, exceptions)`` of each block of a dec payload."""
    n = int.from_bytes(payload[:4], "little")
    block = int.from_bytes(payload[4:6], "little")
    pos, out = 6, []
    for i in range(0, n, block):
        cnt = min(block, n - i)
        scale, width = payload[pos], payload[pos + 1]
        nexc = int.from_bytes(payload[pos + 2:pos + 4], "little")
        out.append((scale, width, nexc))
        pos += 12 + (cnt * width + 7) // 8 + 10 * nexc
    assert pos == len(payload)
    return out


def _assert_oracle(ts, mean, cs, pe, block):
    pts, pval = compress.encode_chunks(ts, mean, cs, pe, block=block)
    pts.validate(full=True)
    pval.validate(full=True)
    assert len(pts) == len(pval) == len(cs)
    for k, (c, e) in enumerate(zip(cs, pe)):
        assert pts[k].as_py() == _oracle_dod(ts[c:e], block), (k, c, e)
        assert pval[k].as_py() == _oracle_dec(mean[c:e], block), (k, c, e)
        np.testing.assert_array_equal(
            compress.decode_dec(pval[k].as_py()).view(np.uint64),
            mean[c:e].view(np.uint64))


ONES = np.array([np.iinfo(np.uint64).max], np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("block", [1, 3, 17, 1024, 65535])
def test_encode_chunks_matches_per_segment_oracle(block):
    """The partition-wide encoder equals the per-segment encoders byte
    for byte: 0/1/2-point chunks, overlapping right-anchor ranges
    (``pe = ce + 1``), NaN and all-ones float payloads, constant runs
    (width 0), 64-bit XOR widths, short decimals with exceptions, deltas
    near ±2^40 and timestamps near 2^62."""
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
        np.where(rng.random(n) < 0.2, np.nan, np.where(     # decimals
            rng.random(n) < 0.7, np.round(rng.normal(size=n), 6),
            rng.normal(size=n))),
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
    assert compress.encode_dec(mean, block) == _oracle_dec(mean, block)


def test_encode_chunks_random_cases_match_oracle():
    rng = np.random.default_rng(2024)
    for case in range(300):
        n = int(rng.integers(0, 200))
        ts = (rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
              if case % 3 == 0 else
              np.cumsum(rng.integers(0, 10 ** rng.integers(1, 12), n)))
        mean = (rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64)
                .view(np.float64) if case % 2 else
                np.round(rng.normal(size=n) * 10.0 ** rng.integers(-3, 9),
                         int(rng.integers(0, 17))))
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


# -- the dec codec's scale rule, exceptions and fallback ------------------

def _dec_round_trip(v: np.ndarray, block: int = compress.BLOCK) -> bytes:
    """``v``'s dec payload, checked against the oracle and decoded back
    bit for bit."""
    payload = compress.encode_dec(v, block)
    assert payload == _oracle_dec(v, block)
    np.testing.assert_array_equal(
        compress.decode_dec(payload).view(np.uint64), v.view(np.uint64))
    return payload


def test_dec_exception_at_every_position():
    """A value that is no 6-decimal number, at each position of a block
    in turn, is the block's one exception: the others keep scale 6 and
    three bytes."""
    rng = np.random.default_rng(11)
    base = np.round(rng.uniform(-1, 1, 17), 6)
    for odd in (np.nan, 1 / 3, -0.0):
        for pos in range(len(base)):
            v = base.copy()
            v[pos] = odd
            assert _dec_blocks(_dec_round_trip(v, 17)) == [(6, 24, 1)]


def test_dec_special_values_are_exceptions():
    """−0.0, NaN payloads, ±inf, subnormals and |v| ≥ 2^53 come back bit
    for bit, as exceptions of a decimal block."""
    nan_payloads = np.array([0x7FF8000000000001, 0xFFF0000000000ABC,
                             0x7FF4000000000000], np.uint64).view(np.float64)
    odd = np.concatenate([nan_payloads, [-0.0, np.inf, -np.inf, 5e-324,
                                         -2.2e-308, 2.0 ** 53, -1e300]])
    v = np.round(np.linspace(-3, 3, 100), 3)
    v[::10] = odd
    (scale, _, nexc), = _dec_blocks(_dec_round_trip(v))
    assert scale == 3 and nexc == len(odd)


def test_dec_all_exceptions_fall_back_to_xor():
    """A block with no usable scale — every value special or a long
    decimal — is XOR coded (scale 255, no exception list); so is one
    whose XOR coding is smaller."""
    near = 1 / 3 + np.arange(50) * 2.0 ** -52     # XORs of a few bits
    for v, width in ((np.full(50, np.nan), 0), (np.full(50, -0.0), 0),
                     (np.array([5e-324, np.inf] * 25), 64), (near, 16)):
        assert _dec_blocks(_dec_round_trip(v)) == [(255, width, 0)]
    # a long decimal that is exact somewhere stays decimal
    assert _dec_blocks(_dec_round_trip(np.full(50, 1 / 3)))[0][0] == 16


def test_dec_scales_from_the_data():
    """The scale is the data's: 0 for integers, 15 or more for long
    decimals, whatever the 6-decimal values around them need."""
    ints = np.arange(-500, 500, dtype=np.float64) * 7
    assert _dec_blocks(_dec_round_trip(ints)) == [(0, 8, 0)]
    long = np.round(np.random.default_rng(13).uniform(0, 0.9, 64), 15)
    (scale, width, nexc), = _dec_blocks(_dec_round_trip(long))
    assert scale >= 15 and width == 56 and nexc == 0
    sixteen = np.array([0.1234567890123456] * 64)
    assert _dec_blocks(_dec_round_trip(sixteen))[0][0] == 16


def test_dec_one_long_decimal_does_not_widen_its_block():
    """One value exact only at scale 16 becomes an exception: its
    1023 neighbours stay three bytes wide at scale 6."""
    v = np.round(np.random.default_rng(14).uniform(-1, 1, 1024), 6)
    v[500] = 0.1234567890123456
    payload = _dec_round_trip(v)
    assert _dec_blocks(payload) == [(6, 24, 1)]
    assert len(payload) == 6 + 12 + 3 * 1024 + 10


def test_dec_k_near_2_53():
    """Integers just under 2^53 are exact at scale 0, and so is a decimal
    whose k is 2^53 − 1; 2^53 and beyond are exact at no scale, and a
    value whose k at its block's scale would pass 2^53 is an exception
    there."""
    top = float(2 ** 53 - 1)
    v = np.array([top, top - 1, -top, 2.0 ** 53, 2.0 ** 53 + 2,
                  -(2.0 ** 54), 900719925474.0991])
    scale, k = compress.min_scales(v)
    assert scale.tolist() == [0, 0, 0, 255, 255, 255, 4]
    assert k[[0, 1, 2, 6]].tolist() == [2 ** 53 - 1, 2 ** 53 - 2,
                                        -(2 ** 53 - 1), 2 ** 53 - 1]
    _dec_round_trip(v)
    w = np.round(np.random.default_rng(15).uniform(-1, 1, 64), 6)
    w[7] = 123456789012.5                  # exact at 1; 1.2e17 at 6
    assert _dec_blocks(_dec_round_trip(w)) == [(6, 24, 1)]


@pytest.mark.parametrize("block", [1, 3, 17, 1024, 65535])
def test_dec_block_sizes(block):
    """Every block size round-trips mixed decimal, special and arbitrary
    values, each block choosing its own scale."""
    rng = np.random.default_rng(block)
    n = 2000
    v = np.round(rng.normal(size=n) * 100, 4)
    v[rng.random(n) < 0.01] = np.nan
    v[1500:1800] = rng.normal(size=300)           # XOR-worthy stretch
    v[100:160] = np.arange(60.0)                  # integers
    _dec_round_trip(v, block)


def test_dec_corrupt_headers_refused():
    """A scale past 22 (other than 255), a width past 64 and an
    exception position past its block raise instead of decoding."""
    v = np.round(np.linspace(0, 1, 10), 6)
    v[4] = np.nan
    good = bytearray(compress.encode_dec(v))
    compress.decode_dec(bytes(good))
    for at, byte in ((6, 23), (6, 254), (7, 72)):
        bad = bytearray(good)
        bad[at] = byte
        with pytest.raises(ValueError):
            compress.decode_dec(bytes(bad))
    bad = bytearray(good)
    bad[-10:-8] = (10).to_bytes(2, "little")      # exception position 10
    with pytest.raises(ValueError):
        compress.decode_dec(bytes(bad))
