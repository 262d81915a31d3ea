"""Compressed time-series segments (Gorilla-family codecs, vectorized).

Closed rollup ranges are stored as binary segment blobs in Arrow ``binary``
columns: timestamps with **delta-of-delta** coding, values with **XOR**
coding (Facebook Gorilla, Pelkonen et al. 2015).  Unlike the classic
per-point bit-stream, both codecs here work on fixed blocks of points
(size recorded in each payload's header) with a per-block bit-width
header — the same information-theoretic idea (delta-of-delta ≈ 0 for
regular cadence; XOR of similar floats has long runs of leading/trailing
zero bits) but encode AND decode are vectorized NumPy.  The encoder
(:func:`encode_chunks`) takes all of a partition's chunks at once: block
widths from ``reduceat``, byte-aligned packing through a mask over the
values' little-endian bytes, every header placed with one ordered
``np.insert`` — so its cost is per value, not per (url, tier) chunk.

Format v2/v3 ("dod+xor3", little-endian) — SELF-DESCRIBING block size:
    dod segment:  u32 n | u16 block | i64 first | i64 first_delta |
                  blocks of ≤block zigzag(dod) values:
                  u8 width | ceil(cnt·width/8) bytes
    xor segment:  u32 n | u16 block | u64 first |
                  blocks of ≤block xor values:
                  u8 shift | u8 width | ceil(cnt·width/8) bytes

The ``block`` field in the header is what the decoder uses to chunk the
stream, so payloads written with ANY block size decode correctly — the
compile-time :data:`BLOCK` is only the encoder's default.  The previous
"dod+xor" (v1) format had no block field (the decoder assumed the
compile-time constant), which made a BLOCK change an on-disk format
break; v1 payloads are therefore refused by ``decode_segments_table``.
A partition's segments are encoded from its tier tables alone
(:func:`segments_from_rollups`), so any rewrite of the partition
replaces its legacy payloads.  v3 keeps the v2 payload layout but
changes what the points are: a segment holds its tier's STORED rows
(observed buckets, plus the retention anchor), and each segment row
carries what its linear gap-fill needs (``width_us``, ``max_gap``, and
the served span ``seg_start``..``seg_end``), so a row still decodes on
its own.  v2 payloads held the served points fills included, so they
are refused and replaced like v1.

Round-trip is exact (bit-for-bit) for any int64/float64 input including
NaN payloads; exhaustively tested in tests/test_compress.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nrt_ray.stages import rollup

#: default values per fixed-width block.  1024 (vs the classic 128)
#: trades a few % of compression (one wide outlier widens more
#: neighbours) for fewer block headers.  The chosen size is written into
#: every payload header (u16), so decoders never depend on this
#: constant.
BLOCK = 1024

#: codec tag written to the segment table.  "2" = the self-describing
#: block-size header; "3" = same payload layout, but the points are a
#: tier's stored rows (observed buckets + retention anchor) that decode
#: fills on read, not the served points themselves.
CODEC = "dod+xor3"

#: column layout of a segment table
SEGMENT_SCHEMA = pa.schema([
    ("url", pa.string()), ("tier", pa.string()),
    ("seg_start", pa.timestamp("us")), ("seg_end", pa.timestamp("us")),
    ("n_points", pa.int32()), ("width_us", pa.int64()),
    ("max_gap", pa.int64()), ("codec", pa.string()),
    ("payload_ts", pa.binary()), ("payload_value", pa.binary())])


def _zigzag(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.int64)
    return ((x << 1) ^ (x >> 63)).astype(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)
            ^ -(u & np.uint64(1)).astype(np.int64))


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


def _column(head: np.ndarray, head_len: np.ndarray, vals: np.ndarray,
            m: np.ndarray, block: int, xor: bool) -> pa.BinaryArray:
    """One payload column.  Row k is the first ``head_len[k]`` bytes of
    the packed record ``head[k]``, then the row's ``m[k]`` values
    (``vals`` holds every row's, in order) in blocks of ``block``.  A
    block is its header — dod: u8 width; xor: u8 shift, u8 width, its
    values shifted right by the trailing zeros common to them all — then
    the low width/8 little-endian bytes of each value."""
    nseg = len(m)
    nblk = -(-m // block)
    first = np.cumsum(nblk) - nblk          # each row's first block
    j = np.arange(int(nblk.sum())) - np.repeat(first, nblk)
    start = np.repeat(np.cumsum(m) - m, nblk) + j * block
    cnt = np.minimum(block, np.repeat(m, nblk) - j * block)
    if xor:
        ored = np.bitwise_or.reduceat(vals, start)
        low = ored & (~ored + np.uint64(1))          # lowest set bit
        shift = np.where(ored != 0, _bit_length(low) - 1, 0)
        width = _round_width(_bit_length(ored) - shift)
        vals = vals >> np.repeat(shift, cnt).astype(np.uint64)
        bhead = np.stack([shift, width], axis=1)
    else:
        width = _round_width(_bit_length(np.maximum.reduceat(vals, start)))
        bhead = width[:, None]
    nbyte = width // 8
    packed = vals.astype("<u8").view(np.uint8).reshape(-1, 8)[np.repeat(
        np.arange(8) < nbyte[:, None], cnt, axis=0)]
    # every row and block header goes in front of its packed bytes: one
    # ordered insert, headers in stream order (equal positions keep it)
    cb = np.concatenate([[0], np.cumsum(cnt * nbyte)])
    srow = np.arange(nseg) + first
    brow = np.repeat(srow + 1, nblk) + j
    hdr = np.zeros((nseg + len(j), head.dtype.itemsize), np.uint8)
    hdr[srow] = head.view(np.uint8).reshape(nseg, hdr.shape[1])
    hdr[brow, :bhead.shape[1]] = bhead
    size = np.empty(len(hdr), np.int64)
    size[srow], size[brow] = head_len, bhead.shape[1]
    at = np.empty(len(hdr), np.int64)
    at[srow], at[brow] = cb[first], cb[:-1]
    data = np.insert(packed, np.repeat(at, size),
                     hdr[np.arange(hdr.shape[1]) < size[:, None]])
    offsets = np.concatenate([[0], np.cumsum(
        head_len + cb[first + nblk] - cb[first] + bhead.shape[1] * nblk)])
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError("segment payloads exceed a binary column's 2 GiB")
    return pa.Array.from_buffers(pa.binary(), nseg, [
        None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)])


def encode_chunks(ts: np.ndarray, mean: np.ndarray, cs: np.ndarray,
                  pe: np.ndarray, block: int = BLOCK):
    """Both payload columns of many chunks in one pass of array ops: row
    k of the returned ``(payload_ts, payload_value)`` binary arrays is
    ``ts[cs[k]:pe[k]]`` delta-of-delta coded and ``mean[cs[k]:pe[k]]``
    XOR coded.  Chunks may overlap (a chunk's right anchor is the next
    chunk's first row).  The cost is per value, not per chunk, so a
    partition's many small chunks encode in one call.

    ``block`` (1..65535) is written into the header; decoders read it
    from the stream, so any value round-trips against the same decoder.
    """
    if not 1 <= block <= 0xFFFF:
        raise ValueError(f"block must fit u16 and be >=1, got {block}")
    ts = np.asarray(ts, np.int64)
    bits = np.ascontiguousarray(mean, np.float64).view(np.uint64)
    cs = np.asarray(cs, np.int64)
    n = np.asarray(pe, np.int64) - cs
    pad = np.concatenate([ts, np.zeros(2, np.int64)])
    head = np.zeros(len(cs), [("n", "<u4"), ("block", "<u2"),
                              ("first", "<i8"), ("delta", "<i8")])
    head["n"], head["block"] = n, block
    head["first"], head["delta"] = pad[cs], pad[cs + 1] - pad[cs]
    m = np.maximum(n - 2, 0)
    i = _ranges(cs, m)
    dod = _column(head, 6 + 8 * np.minimum(n, 2), _zigzag(
        (ts[i + 2] - ts[i + 1]) - (ts[i + 1] - ts[i])), m, block, xor=False)
    head = np.zeros(len(cs), [("n", "<u4"), ("block", "<u2"),
                              ("first", "<u8")])
    head["n"], head["block"] = n, block
    head["first"] = np.concatenate([bits, np.zeros(1, np.uint64)])[cs]
    m = np.maximum(n - 1, 0)
    i = _ranges(cs, m)
    return dod, _column(head, 6 + 8 * np.minimum(n, 1),
                        bits[i + 1] ^ bits[i], m, block, xor=True)


def encode_dod(ts: np.ndarray, block: int = BLOCK) -> bytes:
    """Delta-of-delta encode an int64 array (e.g. epoch-µs timestamps):
    the one-chunk case of :func:`encode_chunks`."""
    n = len(ts)
    return encode_chunks(ts, np.zeros(n), [0], [n], block)[0][0].as_py()


def _header(mv: memoryview, size: int, kind: str) -> tuple[int, int]:
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
            kind: str):
    """Walk ``total`` packed values in blocks of ``block`` starting at
    ``pos``; yields ``(count, block header, packed bytes)``.  The payload
    must end exactly where the header implies (n, block, per-block
    widths), so truncated, padded and v1-shaped payloads are refused
    instead of decoded to garbage."""
    done = 0
    while done < total:
        cnt = min(block, total - done)
        head = mv[pos:pos + hdr]
        end = pos + hdr + (cnt * head[-1] + 7) // 8 \
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


def encode_xor(values: np.ndarray, block: int = BLOCK) -> bytes:
    """XOR-encode a float64 array (Gorilla value stream, block-wise):
    the one-chunk case of :func:`encode_chunks`."""
    n = len(values)
    return encode_chunks(np.zeros(n, np.int64), values, [0], [n],
                         block)[1][0].as_py()


def decode_xor(buf: bytes) -> np.ndarray:
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


def segments_from_rollups(tier_tables: dict, max_points: int = 4096,
                          rolled: dict | None = None):
    """Build the compressed segment table from rolled-up tier tables.

    One segment per (url, tier) chunk of at most ``max_points`` stored
    rows: timestamps dod-coded, means xor-coded.  A stored tier table
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
    tables, in the tiers' order: every writer re-encodes them whole
    when it rewrites the partition.  Each url's chunks encode on their
    own, so dropping a url's rows from the result equals encoding the
    tiers without it.

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
    return pa.concat_tables([SEGMENT_SCHEMA.empty_table()] + [
        _encode_tier(tier_name, table, max_points,
                     (rolled or {}).get(tier_name))
        for tier_name, table in tier_tables.items() if table.num_rows])


def _encode_tier(tier_name: str, table: pa.Table, max_points: int,
                 rolled=None):
    """Segments of one non-empty tier table (see
    :func:`segments_from_rollups`)."""
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
    payload_ts, payload_value = encode_chunks(ts, mean, cs, pe)
    return pa.table({
        "url": urls.take(pa.array(sidx[cs])),
        "tier": pa.repeat(pa.scalar(tier_name, pa.string()), nseg),
        "seg_start": pa.array(seg_start[keep]).cast(pa.timestamp("us")),
        "seg_end": pa.array(seg_end[keep]).cast(pa.timestamp("us")),
        "n_points": pa.array(n_points[keep], pa.int32()),
        "width_us": pa.repeat(pa.scalar(tier.width_us, pa.int64()), nseg),
        "max_gap": pa.repeat(pa.scalar(tier.fill_gap, pa.int64()), nseg),
        "codec": pa.repeat(pa.scalar(CODEC, pa.string()), nseg),
        "payload_ts": payload_ts,
        "payload_value": payload_value,
    }, schema=SEGMENT_SCHEMA)


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
    range are dropped WITHOUT decoding their payloads (callers should
    additionally push the same predicate into the parquet scan so
    non-overlapping row groups never leave storage — see the ``decode``
    CLI subcommand), and decoded points of straddling segments are
    filtered to the range.
    """
    if tier is not None:
        segments = segments.filter(pc.equal(segments.column("tier"),
                                            tier))
    if segments.num_rows:
        nbad = segments.num_rows - pc.sum(pc.cast(pc.equal(
            segments.column("codec"), CODEC), pa.int64())).as_py()
        if nbad:
            others = sorted(set(segments.column("codec").to_pylist())
                            - {CODEC})
            raise ValueError(
                f"{nbad} segment(s) use codec(s) {others}; this reader "
                f"only decodes {CODEC!r}.  Older payloads either lack "
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
    decoded = [(decode_dod(bts), decode_xor(bval)) for bts, bval in zip(
        segments.column("payload_ts").to_pylist(),
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
