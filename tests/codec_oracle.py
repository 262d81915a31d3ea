"""Reference encoders of segment payloads, written out per segment and
per block: the oracles of ``tests/test_compress.py``, and the writer of
"dod+xor3" value payloads for stores of the layout before the decimal
codec (``conftest.earlier_tier_layout``)."""

from __future__ import annotations

import numpy as np


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
