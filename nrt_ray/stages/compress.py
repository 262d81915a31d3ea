"""Compressed time-series segments (block codecs, vectorized).

Closed rollup ranges are stored as binary segment blobs in Arrow ``binary``
columns: timestamps with **delta-of-delta** coding (Facebook Gorilla,
Pelkonen et al. 2015), values with a **decimal** codec after Camel
("Efficient Compression of Floating-Point Time Series", SIGMOD 2024).
Tier values are mostly short decimals (the crawl text carries
``ndvi:%.6f``), whose float64 bits XOR coding cannot shrink; as integers
``k`` at a decimal scale ``s`` (the value is ``k / 10**s``) they take
three bytes.  Both codecs work on fixed blocks of points (size recorded
in each payload's header) with a header per block, and the scale, like
the bit width, is chosen per block (as TerseTS, EDBT 2026, chooses the
method per segment), so encode AND decode are vectorized NumPy.  The
encoder (:func:`encode_chunks`) takes all of a partition's chunks at
once: block widths from ``reduceat``, byte-aligned packing through a mask
over the values' little-endian bytes, every header and exception list
placed with one ordered ``np.insert`` — so its cost is per value, not per
(url, tier) chunk.

Format v4 ("dod+dec4", little-endian) — SELF-DESCRIBING block size:
    dod segment:  u32 n | u16 block | i64 first | i64 first_delta |
                  blocks of ≤block zigzag(dod) values:
                  u8 width | ceil(cnt·width/8) bytes
    dec segment:  u32 n | u16 block |
                  blocks of ≤block values:
                  u8 scale | u8 width | u16 nexc | u64 base |
                  ceil(cnt·width/8) bytes | nexc × (u16 pos, u64 bits)

A dec block of ``scale`` s ≤ :data:`MAX_SCALE` packs zigzag deltas: its
value j is ``k_j / 10.0**s`` (:func:`from_scaled`, one IEEE division by
an exact power of ten) with ``k_j = base + delta_0 + … + delta_j``; then
each exception record puts its raw float64 bits at its position in the
block.  The encoder chooses each block's scale from its data
(:func:`block_scales`) and checks every value against the decoder's own
division: a value whose bits do not come back (−0.0, NaN payloads, ±inf,
subnormals, |k| ≥ 2^53, or a longer decimal than the block's scale) is an
exception, and its delta is 0.  A block with no usable scale, or one
whose XOR coding is smaller, has scale 255: its value j's bits are
``base ^ packed_0 ^ … ^ packed_j``.

The ``block`` field in the header is what the decoder uses to chunk the
stream, so payloads written with ANY block size decode correctly — the
compile-time :data:`BLOCK` is only the encoder's default.  Older formats:

* "dod+xor3" (v3) has the same dod payload and Gorilla XOR values,
  ``u32 n | u16 block | u64 first`` then blocks of ``u8 shift | u8 width
  | ceil(cnt·width/8) bytes``; it is still decoded (:func:`decode_xor`),
  and a rewrite of its partition re-encodes it as v4.
* "dod+xor" (v1) had no block field (the decoder assumed the
  compile-time constant), and v2 payloads held the served points, fills
  included; both are refused by ``decode_segments_table``.

A partition's segments are encoded from its tier tables alone
(:func:`segments_from_rollups`), so any rewrite of the partition
replaces older payloads.  Since v3 a segment holds its tier's STORED
rows (observed buckets, plus the retention anchor), and each segment row
carries what its linear gap-fill needs (``width_us``, ``max_gap``, and
the served span ``seg_start``..``seg_end``), so a row still decodes on
its own.

Round-trip is exact (bit-for-bit) for any int64/float64 input including
NaN payloads; exhaustively tested in tests/test_compress.py.  The tier
tables store their ``sum`` column with the same scale machinery
(:func:`decimal_column`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nrt_ray.stages import rollup
from nrt_ray.util import url_major_order

#: default values per fixed-width block.  1024 (vs the classic 128)
#: trades a few % of compression (one wide outlier widens more
#: neighbours) for fewer block headers.  The chosen size is written into
#: every payload header (u16), so decoders never depend on this
#: constant.
BLOCK = 1024

#: codec tag written to the segment table: dod timestamps, decimal values
CODEC = "dod+dec4"
#: the tag of the XOR-valued payloads before it, still decoded
XOR3 = "dod+xor3"

#: the largest decimal scale: 10**22 is the largest power of ten a
#: float64 holds exactly, so ``k / 10.0**s`` is one correctly rounded
#: division for every scale up to it
MAX_SCALE = 22
POW10 = np.array([float(10 ** s) for s in range(MAX_SCALE + 1)])
_IPOW10 = np.array([10 ** s for s in range(19)], np.int64)
#: a value's scale when it is exact at none; a block's when it is XOR coded
NO_SCALE = XOR = 255
#: |k| must stay below it: every integer below 2^53 is exact in float64
_EXACT = 2.0 ** 53
_NEG_ZERO = np.uint64(1 << 63)
#: a dec block's header, and one exception record
_DEC_BLOCK = np.dtype([("scale", "u1"), ("width", "u1"), ("nexc", "<u2"),
                       ("base", "<u8")])
_EXC = np.dtype([("pos", "<u2"), ("bits", "<u8")])

#: column layout of a segment table
SEGMENT_SCHEMA = pa.schema([
    ("url", pa.string()), ("tier", pa.string()),
    ("seg_start", pa.timestamp("us")), ("seg_end", pa.timestamp("us")),
    ("n_points", pa.int32()), ("width_us", pa.int64()),
    ("max_gap", pa.int64()), ("codec", pa.string()),
    ("payload_ts", pa.binary()), ("payload_value", pa.binary())])


def _zigzag(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, np.int64)
    return ((x << 1) ^ (x >> 63)).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, np.uint64)
    return ((u >> np.uint64(1)).view(np.int64)
            ^ -(u & np.uint64(1)).view(np.int64))


def _unpack(buf: memoryview, count: int, width: int) -> np.ndarray:
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    nbytes = (count * width + 7) // 8
    if width % 8 == 0:
        nb = width // 8
        out = np.zeros((count, 8), dtype=np.uint8)
        out[:, :nb] = np.frombuffer(buf[:nbytes], dtype=np.uint8) \
            .reshape(count, nb)
        return out.view("<u8").reshape(count).astype(np.uint64,
                                                     copy=False)
    bits = np.unpackbits(np.frombuffer(buf[:nbytes], dtype=np.uint8),
                         bitorder="little")[:count * width]
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))
    return (bits.reshape(count, width).astype(np.uint64) * weights).sum(
        axis=1, dtype=np.uint64)


def _round_width(width: np.ndarray) -> np.ndarray:
    """Encoder-side width policy: round up to a whole byte.  Costs ≤7
    bits/value of compression; buys the byte-aligned fast path in BOTH
    codec directions.  Decoders honor whatever width the stream says,
    so payloads from either policy remain readable."""
    return (width + 7) & ~7


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64 (0 for 0): how many of its right
    shifts by 0..63 are nonzero.  A float log2 would round 2^k − 1 up to
    k + 1 bits above 2^53."""
    return ((x[:, None] >> np.arange(64, dtype=np.uint64)) != 0).sum(axis=1)


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(start, length)])``."""
    return np.arange(int(length.sum())) - np.repeat(
        np.cumsum(length) - length - start, length)


# -- decimal scales -------------------------------------------------------

def from_scaled(k: np.ndarray, scale) -> np.ndarray:
    """The float64 values of integers ``k`` at decimal scale ``scale``
    (one int or one per value): ``k / 10.0**scale``, the one division
    every decimal decoder runs and every encoder checks its values
    against."""
    return np.asarray(k, np.int64).astype(np.float64) / POW10[scale]


def _exact_at(x: np.ndarray, s: int):
    """``(k, exact)`` of values ``x`` at scale ``s``: ``k = rint(x·10^s)``
    (a float) and whether ``k / 10.0**s`` gives x back, |k| < 2^53.  x
    holds no NaN, ±inf or −0.0, so float equality is bit equality."""
    k = np.rint(x * POW10[s])
    return k, (k / POW10[s] == x) & (np.abs(k) < _EXACT)


def _first_exact(x: np.ndarray, lo: int, hi: int):
    """``(scale, k)`` of each of ``x`` (no NaN, ±inf or −0.0) at its
    first exact scale in ``lo..hi``: NO_SCALE and k 0 if none."""
    k, exact = _exact_at(x[:, None], np.arange(lo, hi + 1))
    j = exact.argmax(axis=1)
    hit = exact[np.arange(len(x)), j]
    return (np.where(hit, lo + j, NO_SCALE).astype(np.uint8),
            np.where(hit, k[np.arange(len(x)), j], 0).astype(np.int64))


def min_scales(v: np.ndarray):
    """Per float64 value: the smallest decimal scale s ≤ MAX_SCALE at
    which it is exact — an integer k, |k| < 2^53, gives it back bit for
    bit as ``k / 10.0**s`` — and that k; scale NO_SCALE (k 0) for a value
    exact at none (NaN, ±inf, −0.0, subnormals, |v| ≥ 2^53, long
    decimals).

    One pass over all the values, at the median smallest scale s0 of a
    sample of them, settles most.  Below s0, a value whose k there is
    under 2^50 is exact at s − 1 only if its k at s ends in a 0 (10·k
    then rounds back from the same decimal), so those values walk down
    one scale at a time, testing only the ks that end in 0; every other
    value is tested at every scale."""
    v = np.ascontiguousarray(v, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = (np.abs(v) < _EXACT) & (v.view(np.uint64) != _NEG_ZERO)
        step = max(64, len(v) // 1024)
        sample = _first_exact(v[::step][valid[::step]], 0, MAX_SCALE)[0]
        sample = sample[sample != NO_SCALE]
        s0 = int(np.median(sample)) if len(sample) else 0
        k, ok = _exact_at(v, s0)
        ok &= valid & (np.abs(k) < 2.0 ** 50)
        scale = np.where(ok, s0, NO_SCALE).astype(np.uint8)
        k = np.where(ok, k, 0).astype(np.int64)
        down = np.flatnonzero(ok)
        for s in range(s0 - 1, -1, -1):
            down = down[k[down] % 10 == 0]
            r, hit = _exact_at(v[down], s)
            down = down[hit]
            scale[down], k[down] = s, r[hit]
        rest = np.flatnonzero(valid & ~ok)
        scale[rest], k[rest] = _first_exact(v[rest], 0, MAX_SCALE)
    return scale, k


def block_scales(v: np.ndarray, scale: np.ndarray, start: np.ndarray,
                 cnt: np.ndarray):
    """Each block's decimal scale (block b is ``v[start[b]:start[b] +
    cnt[b]]``, ``scale`` the :func:`min_scales` of ``v``): the one that
    minimises the block's estimated bytes, ``cnt · w(s) + 10 · (values
    not exact at s)``, over every scale some value of the block is exact
    at.  ``w(s)`` is the byte width of a zigzag delta as wide as the
    range of the block's exact values times 10^s allows, so one value
    that needs a long decimal becomes an exception instead of widening
    the others.  Returns ``(scale, estimated bytes)`` per block:
    NO_SCALE and inf for a block without an exact value."""
    nb, S = len(start), MAX_SCALE + 1
    exact = np.bincount(np.repeat(np.arange(nb) * (S + 1), cnt)
                        + np.minimum(scale, S), minlength=nb * (S + 1)) \
        .reshape(nb, S + 1)[:, :S].cumsum(axis=1)
    w = np.where(scale != NO_SCALE, v, np.nan)
    zz = 2 * np.ceil((np.fmax.reduceat(w, start) - np.fmin.reduceat(
        w, start))[:, None] * POW10)
    # bit length of the integer zz: its binary exponent (0 for 0)
    nbyte = np.minimum(-(-np.frexp(np.nan_to_num(zz))[1] // 8), 8)
    cost = np.where(exact > 0, cnt[:, None] * nbyte
                    + _EXC.itemsize * (cnt[:, None] - exact), np.inf)
    best = cost.argmin(axis=1)
    est = cost[np.arange(nb), best]
    return np.where(np.isfinite(est), best, NO_SCALE), est


def _scaled(v: np.ndarray, scale: np.ndarray, k: np.ndarray,
            s: np.ndarray):
    """``(k at s, exact)`` per value, ``s`` ≤ MAX_SCALE per value (k is
    meaningless where not exact).  A value at its own :func:`min_scales`
    scale keeps its k; one exact at a smaller scale takes its k times
    10^(s − that scale), exact where that stays below 2^53 and
    :func:`from_scaled` gives the value's bits back — the decoder's own
    division, checked."""
    d = s.astype(np.int64) - scale
    exact = d == 0
    up = np.flatnonzero(d > 0)
    kk = k[up] * _IPOW10[np.minimum(d[up], 18)]
    good = np.abs(k[up]) * POW10[d[up]] < _EXACT
    good &= from_scaled(kk, s[up]).view(np.uint64) == v[up].view(np.uint64)
    k = k.copy()
    k[up[good]], exact[up[good]] = kk[good], True
    return k, exact


def decimal_column(v: np.ndarray):
    """``(scale, k, exact)`` of a float64 column kept as one decimal
    block (a stored tier's ``sum``): the scale :func:`block_scales`
    picks (0 when no value is exact at any), each value's integer at it,
    and whether :func:`from_scaled` gives the value back from it."""
    v = np.ascontiguousarray(v, np.float64)
    scale, k = min_scales(v)
    s = 0
    if len(v):
        s = int(block_scales(v, scale, np.zeros(1, np.int64),
                             np.array([len(v)]))[0][0]) % NO_SCALE
    return (s, *_scaled(v, scale, k, np.full(len(v), s)))


# -- encode ----------------------------------------------------------------

def _layout(m: np.ndarray, block: int):
    """Blocks of rows holding ``m[k]`` values each, in one value stream:
    ``(blocks per row, each row's first block, each block's start in
    the stream, values per block)``."""
    nblk = -(-m // block)
    first = np.cumsum(nblk) - nblk
    j = np.arange(int(nblk.sum())) - np.repeat(first, nblk)
    start = np.repeat(np.cumsum(m) - m, nblk) + j * block
    return nblk, first, start, np.minimum(block, np.repeat(m, nblk)
                                          - j * block)


def _column(head: np.ndarray, head_len: np.ndarray, vals: np.ndarray,
            layout, bhead: np.ndarray, nbyte: np.ndarray,
            tail: np.ndarray | None = None,
            tail_len: np.ndarray | None = None) -> pa.BinaryArray:
    """One payload column.  Row k is the first ``head_len[k]`` bytes of
    the packed record ``head[k]``, then its blocks (``layout``, of
    :func:`_layout`): each block is its header row of ``bhead``, the low
    ``nbyte`` little-endian bytes of each of its values (``vals`` holds
    every row's, in order), then its ``tail_len`` bytes of ``tail``
    (block after block)."""
    nblk, first, _, cnt = layout
    nseg, nb = len(nblk), len(cnt)
    if tail is None:
        tail, tail_len = np.zeros(0, np.uint8), np.zeros(nb, np.int64)
    packed = vals.astype("<u8").view(np.uint8).reshape(-1, 8)[np.repeat(
        np.arange(8) < nbyte[:, None], cnt, axis=0)]
    # pieces in stream order — each row's header, then each of its
    # blocks' header and tail — go in front of the packed bytes that
    # follow them: one ordered insert (equal positions keep the order)
    cb = np.concatenate([[0], np.cumsum(cnt * nbyte)])
    srow = np.arange(nseg) + 2 * first
    brow = np.repeat(srow + 1, nblk) + 2 * (
        np.arange(nb) - np.repeat(first, nblk))
    width = max(head.dtype.itemsize, bhead.shape[1])
    hdr = np.zeros((nseg + 2 * nb, width), np.uint8)
    hdr[srow, :head.dtype.itemsize] = head.view(np.uint8).reshape(
        nseg, head.dtype.itemsize)
    hdr[brow, :bhead.shape[1]] = bhead
    size = np.empty(len(hdr), np.int64)
    size[srow], size[brow], size[brow + 1] = head_len, bhead.shape[1], \
        tail_len
    at = np.empty(len(hdr), np.int64)
    at[srow], at[brow], at[brow + 1] = cb[first], cb[:-1], cb[1:]
    src = np.arange(len(hdr)) * width      # a piece's bytes: hdr or tail
    src[brow + 1] = hdr.size + np.cumsum(tail_len) - tail_len
    data = np.insert(packed, np.repeat(at, size), np.concatenate(
        [hdr.ravel(), tail])[_ranges(src, size)])
    per_block = bhead.shape[1] + cnt * nbyte + tail_len
    row = np.concatenate([[0], np.cumsum(per_block)])
    offsets = np.concatenate([[0], np.cumsum(
        head_len + row[first + nblk] - row[first])])
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError("segment payloads exceed a binary column's 2 GiB")
    return pa.Array.from_buffers(pa.binary(), nseg, [
        None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)])


def _dec_blocks(v: np.ndarray, start: np.ndarray, cnt: np.ndarray):
    """The dec blocks of value stream ``v`` (block b is ``v[start[b]:
    start[b] + cnt[b]]``): ``(coded values, block headers (one row of
    bytes each), byte widths, exception records, their bytes per
    block)`` for :func:`_column`.  Each block is decimal at its
    :func:`block_scales` scale, or XOR coded when that is smaller by the
    estimate or no scale is usable."""
    nb = len(start)
    bits = v.view(np.uint64)
    if not nb:
        return (bits, np.zeros((0, _DEC_BLOCK.itemsize), np.uint8),
                np.zeros(0, np.int64), np.zeros(0, np.uint8),
                np.zeros(0, np.int64))
    scale, k = min_scales(v)
    s, est = block_scales(v, scale, start, cnt)
    xor = bits ^ np.concatenate([np.zeros(1, np.uint64), bits[:-1]])
    xor[start] = 0                     # each block XORs from its base
    s = np.where(cnt * (_round_width(_bit_length(np.bitwise_or.reduceat(
        xor, start))) // 8) < est, XOR, s)
    k, exact = _scaled(v, scale, k, np.repeat(s % XOR, cnt))
    exc = np.flatnonzero(~exact & np.repeat(s != XOR, cnt))
    eb = np.searchsorted(start, exc, "right") - 1     # their blocks
    nexc = np.bincount(eb, minlength=nb)
    dead = nexc == cnt                 # no value passed the check: XOR
    if dead.any():
        s, nexc = np.where(dead, XOR, s), np.where(dead, 0, nexc)
        exc, eb = exc[~dead[eb]], eb[~dead[eb]]
    dec = np.repeat(s != XOR, cnt)
    if len(exc):
        # an exception repeats the k of the exact value before it in its
        # block (the block's first, before any), so its delta is 0
        ok = np.flatnonzero(exact & dec)
        i = np.searchsorted(ok, exc)
        before = ok[np.maximum(i - 1, 0)]
        k[exc] = k[np.where((i > 0) & (before >= start[eb]), before,
                            ok[np.minimum(i, len(ok) - 1)])]
    delta = np.diff(k, prepend=k[:1])
    delta[start] = 0
    vals = np.where(dec, _zigzag(delta), xor)
    width = _round_width(_bit_length(np.bitwise_or.reduceat(vals, start)))
    head = np.zeros(nb, _DEC_BLOCK)
    head["scale"], head["width"], head["nexc"] = s, width, nexc
    head["base"] = np.where(s != XOR, k[start].view(np.uint64), bits[start])
    tail = np.zeros(len(exc), _EXC)
    tail["pos"], tail["bits"] = exc - start[eb], bits[exc]
    return (vals, head.view(np.uint8).reshape(nb, _DEC_BLOCK.itemsize),
            width // 8, tail.view(np.uint8), nexc * _EXC.itemsize)


def encode_chunks(ts: np.ndarray, mean: np.ndarray, cs: np.ndarray,
                  pe: np.ndarray, block: int = BLOCK):
    """Both payload columns of many chunks in one pass of array ops: row
    k of the returned ``(payload_ts, payload_value)`` binary arrays is
    ``ts[cs[k]:pe[k]]`` delta-of-delta coded and ``mean[cs[k]:pe[k]]``
    dec coded.  Chunks may overlap (a chunk's right anchor is the next
    chunk's first row).  The cost is per value, not per chunk, so a
    partition's many small chunks encode in one call.

    ``block`` (1..65535) is written into the header; decoders read it
    from the stream, so any value round-trips against the same decoder.
    """
    if not 1 <= block <= 0xFFFF:
        raise ValueError(f"block must fit u16 and be >=1, got {block}")
    ts = np.asarray(ts, np.int64)
    mean = np.ascontiguousarray(mean, np.float64)
    cs = np.asarray(cs, np.int64)
    n = np.asarray(pe, np.int64) - cs
    pad = np.concatenate([ts, np.zeros(2, np.int64)])
    head = np.zeros(len(cs), [("n", "<u4"), ("block", "<u2"),
                              ("first", "<i8"), ("delta", "<i8")])
    head["n"], head["block"] = n, block
    head["first"], head["delta"] = pad[cs], pad[cs + 1] - pad[cs]
    m = np.maximum(n - 2, 0)
    i = _ranges(cs, m)
    dod = _zigzag((ts[i + 2] - ts[i + 1]) - (ts[i + 1] - ts[i]))
    layout = _layout(m, block)
    width = _round_width(_bit_length(np.maximum.reduceat(dod, layout[2])))
    dod = _column(head, 6 + 8 * np.minimum(n, 2), dod, layout,
                  width.astype(np.uint8)[:, None], width // 8)
    head = np.zeros(len(cs), [("n", "<u4"), ("block", "<u2")])
    head["n"], head["block"] = n, block
    layout = _layout(n, block)
    vals, bhead, nbyte, tail, tail_len = _dec_blocks(
        mean[_ranges(cs, n)], layout[2], layout[3])
    return dod, _column(head, np.full(len(cs), 6), vals, layout, bhead,
                        nbyte, tail, tail_len)


def encode_dod(ts: np.ndarray, block: int = BLOCK) -> bytes:
    """Delta-of-delta encode an int64 array (e.g. epoch-µs timestamps):
    the one-chunk case of :func:`encode_chunks`."""
    n = len(ts)
    return encode_chunks(ts, np.zeros(n), [0], [n], block)[0][0].as_py()


def encode_dec(values: np.ndarray, block: int = BLOCK) -> bytes:
    """Dec-encode a float64 array: the one-chunk case of
    :func:`encode_chunks`."""
    n = len(values)
    return encode_chunks(np.zeros(n, np.int64), values, [0], [n],
                         block)[1][0].as_py()


# -- decode ----------------------------------------------------------------

def _header(mv: memoryview, size, kind: str) -> tuple[int, int]:
    """``(n, block)`` of a payload whose fixed header (``n``, ``block``
    and the first values) takes ``size(n)`` bytes.  Refuses a zero block
    — no v2+ encoder writes one — and a buffer shorter than its header."""
    if len(mv) < 6:
        raise ValueError(f"truncated {kind} payload ({len(mv)} bytes)")
    n = int(np.frombuffer(mv[:4], dtype=np.uint32)[0])
    block = int(np.frombuffer(mv[4:6], dtype=np.uint16)[0])
    if block == 0:
        raise ValueError(f"corrupt or pre-v2 {kind} payload (block=0); "
                         "v1 'dod+xor' payloads must be re-encoded")
    if len(mv) < size(n):
        raise ValueError(f"truncated {kind} payload ({len(mv)} bytes)")
    return n, block


def _blocks(mv: memoryview, pos: int, total: int, block: int, hdr: int,
            kind: str, body=lambda head, cnt: (cnt * head[-1] + 7) // 8):
    """Walk ``total`` packed values in blocks of ``block`` starting at
    ``pos``; yields ``(count, block header, block body)``, the body
    ``body(header, count)`` bytes long (by default the packed values
    at the width in the header's last byte).  The payload must end
    exactly where the header implies (n, block, per-block widths), so
    truncated, padded and v1-shaped payloads are refused instead of
    decoded to garbage."""
    done = 0
    while done < total:
        cnt = min(block, total - done)
        head = mv[pos:pos + hdr]
        end = pos + hdr + body(head, cnt) \
            if len(head) == hdr else len(mv) + 1     # header cut short
        if end > len(mv):
            raise ValueError(f"truncated {kind} payload ({len(mv)} bytes)")
        yield cnt, head, mv[pos + hdr:end]
        pos = end
        done += cnt
    if pos != len(mv):
        raise ValueError(f"{kind} payload is {len(mv)} bytes; its header "
                         f"implies {pos}")


def decode_dod(buf: bytes) -> np.ndarray:
    mv = memoryview(buf)
    n, block = _header(mv, lambda n: 6 + 8 * min(n, 2), "dod")
    head = np.frombuffer(mv[6:6 + 8 * min(n, 2)], dtype=np.int64)
    out = np.empty(max(n - 2, 0), dtype=np.uint64)
    done = 0
    for cnt, bh, packed in _blocks(mv, 6 + 8 * min(n, 2), len(out),
                                   block, 1, "dod"):
        out[done:done + cnt] = _unpack(packed, cnt, bh[0])
        done += cnt
    if n < 2:
        return head.copy()
    first, first_delta = int(head[0]), int(head[1])
    dod = _unzigzag(out)
    deltas = np.concatenate([np.array([first_delta], dtype=np.int64),
                             first_delta + np.cumsum(dod, dtype=np.int64)])
    return first + np.concatenate([np.array([0], dtype=np.int64),
                                   np.cumsum(deltas, dtype=np.int64)])


def decode_dec(buf: bytes) -> np.ndarray:
    """The float64 values of a dec payload (format v4), bit for bit."""
    mv = memoryview(buf)
    n, block = _header(mv, lambda n: 6, "dec")
    out = np.empty(n, np.float64)
    bits = out.view(np.uint64)
    done = 0
    for cnt, h, body in _blocks(
            mv, 6, n, block, _DEC_BLOCK.itemsize, "dec",
            lambda h, cnt: (cnt * h[1] + 7) // 8
            + _EXC.itemsize * (h[2] | h[3] << 8)):
        scale, width, nexc = h[0], h[1], h[2] | h[3] << 8
        base = np.frombuffer(h[4:], np.uint64)
        if width > 64 or MAX_SCALE < scale != XOR:
            raise ValueError(f"corrupt dec payload (block width {width}, "
                             f"scale {scale})")
        u = _unpack(body, cnt, width)
        if scale == XOR:
            bits[done:done + cnt] = np.bitwise_xor.accumulate(u) ^ base
        else:
            out[done:done + cnt] = from_scaled(
                np.cumsum(_unzigzag(u)) + base.view(np.int64), scale)
        if nexc:
            exc = np.frombuffer(body[(cnt * width + 7) // 8:], _EXC)
            if int(exc["pos"].max()) >= cnt:
                raise ValueError("corrupt dec payload (exception position "
                                 "past its block)")
            bits[done + exc["pos"].astype(np.int64)] = exc["bits"]
        done += cnt
    return out


def decode_xor(buf: bytes) -> np.ndarray:
    """The float64 values of a "dod+xor3" value payload."""
    mv = memoryview(buf)
    n, block = _header(mv, lambda n: 6 + 8 * min(n, 1), "xor")
    first = np.frombuffer(mv[6:6 + 8 * min(n, 1)], dtype=np.uint64)
    xors = np.empty(max(n - 1, 0), dtype=np.uint64)
    done = 0
    for cnt, bh, packed in _blocks(mv, 6 + 8 * min(n, 1), len(xors),
                                   block, 2, "xor"):
        xors[done:done + cnt] = _unpack(packed, cnt, bh[1]) \
            << np.uint64(bh[0])
        done += cnt
    stream = np.concatenate([first, xors])
    return np.bitwise_xor.accumulate(stream).view(np.float64)


#: the value decoder of each codec tag this reader decodes
VALUE_DECODERS = {CODEC: decode_dec, XOR3: decode_xor}


def segments_from_rollups(tier_tables: dict, max_points: int = 4096,
                          rolled: dict | None = None):
    """Build the compressed segment table from rolled-up tier tables.

    One segment per (url, tier) chunk of at most ``max_points`` stored
    rows: timestamps dod-coded, means dec-coded.  A stored tier table
    (:func:`nrt_ray.stages.rollup.observed_tier_tables`) holds observed
    buckets plus a retention anchor; its segments serve the gap-fill the
    reader derives.  Each row records:

    * ``seg_start``/``seg_end`` — the first and last bucket it SERVES
      (anchor and out-of-window fills excluded); consecutive chunks of a
      url tile its served span, so range pruning stays exact;
    * ``n_points`` — how many points it serves, counted from the gap
      lengths (no fill is materialized here);
    * ``width_us``/``max_gap`` — the tier's fill rule (``max_gap`` 0:
      no fill, null: unbounded).

    A gap across a chunk boundary still fills: the chunk's payload then
    ends with the next chunk's first row as its right anchor, outside
    its served span.  A table without tier metadata is a served view,
    encoded point for point.

    A partition's segments are this function of its committed tier
    tables: every writer re-encodes them whole when it rewrites the
    partition.  Rows are url-major, sorted by (url, tier in the order of
    ``tier_tables``, seg_start): a url's tiers sit side by side, where
    the file's LZ4 finds the payloads the tiers share (a url observed
    once a week has byte-identical 1d and 1w payloads).  Each url's
    chunks encode on their own, so dropping a url's rows from the result
    equals encoding the tiers without it.

    ``rolled`` maps a tier name to the arrays its segments encode from,
    ``(rolled dict, per-series urls, served runs)``
    (:func:`nrt_ray.stages.rollup.table_rolled`,
    :func:`nrt_ray.stages.rollup.served_runs`); a writer that has just
    merged a tier passes its own instead of having them derived again
    from the table.

    Returns:
        pyarrow.Table (url, tier, seg_start, seg_end, n_points, width_us,
        max_gap, codec, payload_ts, payload_value)
    """
    chunks = [_tier_chunks(tier_name, table, max_points,
                           (rolled or {}).get(tier_name))
              for tier_name, table in tier_tables.items() if table.num_rows]
    if not chunks:
        return SEGMENT_SCHEMA.empty_table()
    # one encode of every tier's chunks, each tier's rows offset by the
    # rows before it
    at = np.cumsum([0] + [len(ts) for ts, *_ in chunks[:-1]])
    payload_ts, payload_value = encode_chunks(*(
        np.concatenate([c[k] + (a if k > 1 else 0)
                        for c, a in zip(chunks, at)]) for k in range(4)))
    segs = pa.table({
        **{name: pa.concat_arrays([c[4][name] for c in chunks])
           for name in SEGMENT_SCHEMA.names[:8]},
        "payload_ts": payload_ts, "payload_value": payload_value},
        schema=SEGMENT_SCHEMA)
    # each tier's rows are (url, seg_start)-sorted; a stable url sort
    # keeps the tiers' order within a url
    return segs.take(url_major_order(segs.column("url")))


def _tier_chunks(tier_name: str, table: pa.Table, max_points: int,
                 rolled=None):
    """The segments of one non-empty tier table (see
    :func:`segments_from_rollups`) before their encode: ``(ts, mean, cs,
    pe, columns)``, row k encoding ``[cs[k], pe[k])`` of the tier's
    stored rows ``ts``/``mean``, and its other segment columns."""
    tier, hw = rollup.tier_meta(table) or (
        rollup.TierSpec(tier_name, gapfill=False), None)
    if rolled is None:
        r, urls = rollup.table_rolled(table)
        rolled = r, urls, rollup.served_runs(r, tier, hw)
    r, urls, (first, last, count) = rolled
    ts, mean, sidx = r["bucket_ts"], r["mean"], r["series_idx"]
    # chunk starts cs / ends ce: <= max_points stored rows per url run
    u0 = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
    u1 = np.r_[u0[1:], len(sidx)]
    nch = -(-(u1 - u0) // max_points)
    url_end = np.repeat(u1, nch)
    cs = np.repeat(u0, nch) + max_points * (
        np.arange(nch.sum()) - np.repeat(np.cumsum(nch) - nch, nch))
    ce = np.minimum(cs + max_points, url_end)
    served = count > 0
    n_points = np.add.reduceat(count, cs)
    seg_start = np.minimum.reduceat(
        np.where(served, first, np.iinfo(np.int64).max), cs)
    seg_end = np.maximum.reduceat(
        np.where(served, last, np.iinfo(np.int64).min), cs)
    # right anchor: the next chunk's first row, when fills served by this
    # chunk's last row interpolate towards it
    pe = ce + ((ce < url_end) & served[ce - 1] & (last[ce - 1] > ts[ce - 1]))
    keep = n_points > 0                # e.g. a lone anchor serving nothing
    cs, pe = cs[keep], pe[keep]
    nseg = len(cs)
    return ts, mean, cs, pe, {
        "url": urls.take(pa.array(sidx[cs])).combine_chunks()
        if isinstance(urls, pa.ChunkedArray) else urls.take(
            pa.array(sidx[cs])),
        "tier": pa.repeat(pa.scalar(tier_name, pa.string()), nseg),
        "seg_start": pa.array(seg_start[keep]).cast(pa.timestamp("us")),
        "seg_end": pa.array(seg_end[keep]).cast(pa.timestamp("us")),
        "n_points": pa.array(n_points[keep], pa.int32()),
        "width_us": pa.repeat(pa.scalar(tier.width_us, pa.int64()), nseg),
        "max_gap": pa.repeat(pa.scalar(tier.fill_gap, pa.int64()), nseg),
        "codec": pa.repeat(pa.scalar(CODEC, pa.string()), nseg)}


def decode_segments_table(segments, tier: str | None = None,
                          t0_us: int | None = None,
                          t1_us: int | None = None,
                          window: dict | None = None):
    """Decode a segment table back to served rollup points — the
    storage-layer read path (``(url, tier, bucket_ts, mean)`` rows):
    each row's stored points, the linear gap-fill between them
    (:func:`nrt_ray.stages.rollup.gapfill_linear` with the row's
    ``width_us``/``max_gap``), cut to the row's served span
    ``[seg_start, seg_end]``.

    ``window`` maps a tier name to its first served bucket at the
    store's committed mark (:func:`nrt_ray.stages.rollup.window_start`),
    which cuts the wider span of a segment encoded at an older mark;
    without it each row serves its own span, exact for a one-shot store.

    Runs fine inside ``map_batches`` over segment batches: each row
    decodes independently, so the read path scales exactly like the
    write path.

    ``t0_us``/``t1_us`` restrict the read to points in [t0, t1):
    segments whose (seg_start, seg_end) metadata falls outside the
    range are dropped WITHOUT decoding their payloads, and decoded
    points of straddling segments are filtered to the range.
    """
    if tier is not None:
        segments = segments.filter(pc.equal(segments.column("tier"),
                                            tier))
    codecs = segments.column("codec").to_pylist()
    others = sorted(set(codecs) - VALUE_DECODERS.keys())
    if others:
        raise ValueError(
            f"segment(s) use codec(s) {others}; this reader decodes "
            f"{sorted(VALUE_DECODERS)}.  Older payloads either lack "
            "their block size (v1 'dod+xor') or hold materialized "
            "gap-fill (v2) — re-encode the store (any increment "
            "re-encodes touched partitions automatically).")
    # each row's served span [lo, hi], cut to the window and the range
    lo = segments.column("seg_start").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    hi = segments.column("seg_end").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    for name, start in (window or {}).items():
        if start is not None:
            lo = np.where(pc.equal(segments.column("tier"), name)
                          .to_numpy(zero_copy_only=False),
                          np.maximum(lo, start), lo)
    if t0_us is not None:
        lo = np.maximum(lo, t0_us)
    if t1_us is not None:
        hi = np.minimum(hi, t1_us - 1)
    live = lo <= hi
    if not live.all():
        segments, lo, hi = segments.filter(pa.array(live)), lo[live], hi[live]
        codecs = [c for c, keep in zip(codecs, live) if keep]
    decoded = [(decode_dod(bts), VALUE_DECODERS[c](bval))
               for c, bts, bval in zip(
                   codecs, segments.column("payload_ts").to_pylist(),
                   segments.column("payload_value").to_pylist())]
    row = np.repeat(np.arange(len(decoded)),
                    [len(ts) for ts, _ in decoded]).astype(np.int64)
    ts = np.concatenate([ts for ts, _ in decoded]) if decoded else \
        np.array([], np.int64)
    mean = np.concatenate([v for _, v in decoded]) if decoded else \
        np.array([], np.float64)
    # fill per (width, max_gap) class; the row index is the series key,
    # so rows never share a gap
    rule = np.stack([segments.column("width_us").to_numpy(),
                     segments.column("max_gap").fill_null(-1).to_numpy()],
                    axis=1)
    rules, cls = np.unique(rule, axis=0, return_inverse=True)
    filled = []
    for k, (w, g) in enumerate(rules):
        mine = cls.reshape(-1)[row] == k
        filled.append(rollup.gapfill_linear(
            {"series_idx": row[mine], "bucket_ts": ts[mine],
             "mean": mean[mine]}, int(w), None if g < 0 else int(g)))
    if filled:
        row, ts, mean = (np.concatenate([f[k] for f in filled]) for k in
                         ("series_idx", "bucket_ts", "mean"))
        if len(filled) > 1:
            order = np.argsort(row, kind="stable")
            row, ts, mean = row[order], ts[order], mean[order]
    m = (ts >= lo[row]) & (ts <= hi[row])
    row, ts, mean = row[m], ts[m], mean[m]
    return pa.table({
        "url": segments.column("url").take(pa.array(row)),
        "tier": segments.column("tier").take(pa.array(row)),
        "bucket_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "mean": pa.array(mean, pa.float64()),
    })
