"""Integer chunk codecs: plain, bitpack, for, rle, dict, zigzag, delta,
vbyte and pfor.

Bit-packing and vbyte run in the C kernel (kernel/native.py); the rest
is vectorized numpy, with no Python loops over values. These are the
[ENGINE] codecs required by the north rule beyond the reference's FSST
(the reference implements only FSST; see SURVEY.md §2.6).
"""

from __future__ import annotations

import struct

import numpy as np

from ..kernel import native
from .base import Codec, register


def bit_width(max_value: int) -> int:
    """Bits needed for values in [0, max_value]."""
    return int(max_value).bit_length() if max_value > 0 else 0


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative int64 values into `width`-bit little-endian
    lanes (C kernel; width <= native.MAX_BIT_WIDTH)."""
    if width == 0 or len(values) == 0:
        return b""
    return native.bitpack(values, width)


def unpack_bits(data: bytes, n: int, width: int) -> np.ndarray:
    """Inverse of pack_bits; returns uint64 values. Raises ValueError on
    a width or body length the payload cannot hold."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    return native.bitunpack(data, n, width).astype(np.uint64, copy=False)


class PlainCodec(Codec):
    """Raw little-endian int32 bytes — the always-applicable baseline."""

    name = "plain"
    codec_id = 0

    def estimate(self, stats, state):
        return 4 * stats["n"]

    def encode_values(self, values, state):
        return values.astype("<i4", copy=False).tobytes()

    def decode_values(self, body, n_values):
        return np.frombuffer(body, dtype="<i4", count=n_values).astype(np.int32, copy=False)


class BitPackCodec(Codec):
    """Fixed-width bit packing; applicable to non-negative values only."""

    name = "bitpack"
    codec_id = 1

    def estimate(self, stats, state):
        if stats["min"] < 0:
            return float("inf")
        return 1 + (stats["n"] * bit_width(stats["max"]) + 7) // 8

    def encode_values(self, values, state):
        assert len(values) == 0 or int(values.min()) >= 0, "bitpack requires non-negative values"
        width = bit_width(int(values.max())) if len(values) else 0
        return struct.pack("<B", width) + pack_bits(values.astype(np.int64), width)

    def decode_values(self, body, n_values):
        (width,) = struct.unpack_from("<B", body, 0)
        return unpack_bits(body[1:], n_values, width).astype(np.int32)


class ForCodec(Codec):
    """Frame-of-reference: subtract the chunk min, bit-pack the deltas."""

    name = "for"
    codec_id = 2

    def estimate(self, stats, state):
        width = bit_width(stats["max"] - stats["min"])
        return 9 + (stats["n"] * width + 7) // 8

    def encode_values(self, values, state):
        if len(values) == 0:
            return struct.pack("<qB", 0, 0)
        base = int(values.min())
        deltas = values.astype(np.int64) - base
        width = bit_width(int(deltas.max()))
        return struct.pack("<qB", base, width) + pack_bits(deltas, width)

    def decode_values(self, body, n_values):
        base, width = struct.unpack_from("<qB", body, 0)
        deltas = unpack_bits(body[9:], n_values, width)
        return (deltas.astype(np.int64) + base).astype(np.int32)


class RleCodec(Codec):
    """Run-length encoding: run values + run lengths (both FOR-packed)."""

    name = "rle"
    codec_id = 3

    def estimate(self, stats, state):
        # what encode_values writes: a 26 B header, then the run values
        # FOR-packed at the value range's width and the run lengths at
        # the longest run's width, each padded to a byte
        if stats["n"] == 0:
            return 8
        n_runs = stats["n_runs"]
        vwidth = bit_width(stats["max"] - stats["min"])
        lwidth = bit_width(stats["max_run"])
        return 26 + (n_runs * vwidth + 7) // 8 + (n_runs * lwidth + 7) // 8

    def encode_values(self, values, state):
        if len(values) == 0:
            return struct.pack("<q", 0)
        boundaries = np.flatnonzero(np.diff(values)) + 1
        starts = np.concatenate([[0], boundaries])
        run_values = values[starts]
        run_lengths = np.diff(np.concatenate([starts, [len(values)]]))
        n_runs = len(run_values)
        vbase = int(run_values.min())
        vwidth = bit_width(int(run_values.max()) - vbase)
        lwidth = bit_width(int(run_lengths.max()))
        packed_v = pack_bits(run_values.astype(np.int64) - vbase, vwidth)
        packed_l = pack_bits(run_lengths.astype(np.int64), lwidth)
        return (
            struct.pack("<qqBB", n_runs, vbase, vwidth, lwidth)
            + struct.pack("<q", len(packed_v))
            + packed_v
            + packed_l
        )

    def decode_values(self, body, n_values):
        (n_runs,) = struct.unpack_from("<q", body, 0)
        if n_runs == 0:
            return np.empty(0, dtype=np.int32)
        _, vbase, vwidth, lwidth, v_len = struct.unpack_from("<qqBBq", body, 0)
        off = 8 + 8 + 1 + 1 + 8
        run_values = (unpack_bits(body[off : off + v_len], n_runs, vwidth).astype(np.int64) + vbase)
        run_lengths = unpack_bits(body[off + v_len :], n_runs, lwidth).astype(np.int64)
        return np.repeat(run_values, run_lengths).astype(np.int32)


class DictCodec(Codec):
    """Per-chunk dictionary: sorted unique values + bit-packed indices."""

    name = "dict"
    codec_id = 4

    def estimate(self, stats, state):
        card = stats["card"]
        return 16 + 4 * card + (stats["n"] * bit_width(max(card - 1, 0)) + 7) // 8

    def encode_values(self, values, state):
        if len(values) == 0:
            return struct.pack("<qB", 0, 0)
        dict_values, indices = np.unique(values, return_inverse=True)
        width = bit_width(len(dict_values) - 1)
        return (
            struct.pack("<qB", len(dict_values), width)
            + dict_values.astype("<i4").tobytes()
            + pack_bits(indices.astype(np.int64), width)
        )

    def decode_values(self, body, n_values):
        card, width = struct.unpack_from("<qB", body, 0)
        if card == 0:
            return np.empty(0, dtype=np.int32)
        off = 9
        dict_values = np.frombuffer(body, dtype="<i4", count=card, offset=off)
        indices = unpack_bits(body[off + 4 * card :], n_values, width)
        return dict_values[indices.astype(np.int64)].astype(np.int32)


def zigzag(v: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned (0,-1,1,-2 -> 0,1,2,3)."""
    return ((v << 1) ^ (v >> 63)).astype(np.int64)


def unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.int64)
    return (u >> 1) ^ -(u & 1)


class ZigzagCodec(Codec):
    """Zigzag + bit-pack: the negative-friendly cousin of bitpack."""

    name = "zigzag"
    codec_id = 6

    def estimate(self, stats, state):
        width = bit_width(
            max(
                int(zigzag(np.array([stats["min"]], dtype=np.int64))[0]),
                int(zigzag(np.array([stats["max"]], dtype=np.int64))[0]),
            )
        )
        return 1 + (stats["n"] * width + 7) // 8

    def encode_values(self, values, state):
        z = zigzag(values.astype(np.int64))
        width = bit_width(int(z.max())) if len(z) else 0
        return struct.pack("<B", width) + pack_bits(z, width)

    def decode_values(self, body, n_values):
        (width,) = struct.unpack_from("<B", body, 0)
        return unzigzag(unpack_bits(body[1:], n_values, width)).astype(np.int32)


class DeltaCodec(Codec):
    """Delta + zigzag + bit-pack: wins on sorted / slowly varying
    sequences (e.g. id columns, timestamps as ints)."""

    name = "delta"
    codec_id = 7

    def estimate(self, stats, state):
        width = stats.get("delta_zz_width")
        if width is None:
            return float("inf")
        return 9 + (stats["n"] * width + 7) // 8

    def encode_values(self, values, state):
        if len(values) == 0:
            return struct.pack("<qB", 0, 0)
        v = values.astype(np.int64)
        deltas = np.empty_like(v)
        deltas[0] = 0
        deltas[1:] = np.diff(v)
        z = zigzag(deltas)
        width = bit_width(int(z.max()))
        return struct.pack("<qB", int(v[0]), width) + pack_bits(z, width)

    def decode_values(self, body, n_values):
        first, width = struct.unpack_from("<qB", body, 0)
        if n_values == 0:
            return np.empty(0, dtype=np.int32)
        deltas = unzigzag(unpack_bits(body[9:], n_values, width))
        deltas[0] = first
        return np.cumsum(deltas, dtype=np.int64).astype(np.int32)


class VByteCodec(Codec):
    """Stream-vbyte-style variable byte coding (control bytes separated
    from data bytes, per Lemire & Boytsov's published layout): zigzag
    to uint32, then each value spends 1-4 data bytes + a 2-bit length
    code (4 codes per control byte). Wins over fixed-width bit packing
    on MIXED-magnitude chunks — e.g. zipf-ish token ids where most
    values are small but the max forces a wide fixed lane (a 17-bit
    bitpack lane vs ~10 bits/value here).

    Encode and decode run in the C kernel (vbyte_encode/vbyte_decode).
    """

    name = "vbyte"
    codec_id = 8

    def estimate(self, stats, state):
        nbytes = stats.get("vbyte_bytes")
        if nbytes is None:
            return float("inf")
        return (stats["n"] + 3) // 4 + nbytes

    def encode_values(self, values, state):
        if len(values) == 0:
            return b""
        return native.vbyte_encode(values)

    def decode_values(self, body, n_values):
        if n_values == 0:
            return np.empty(0, dtype=np.int32)
        return native.vbyte_decode(body, n_values)


class PforCodec(Codec):
    """Patched frame-of-reference (the PFOR family, Zukowski et al.,
    ICDE 2006): subtract the chunk min, bit-pack the deltas at a width
    `w` chosen to minimize TOTAL size — deltas that do not fit `w`
    become exceptions stored out-of-line (bit-packed positions + full
    delta values); their main-lane slot holds 0.

    Complements vbyte on the same mixed-magnitude chunks: vbyte's
    per-value floor is 1.25 bytes (1 data byte + 2 control bits), so a
    chunk whose typical delta fits 4-7 BITS with a small tail of large
    outliers pays ~2-3x less here (e.g. w=6 + 2% exceptions ~ 0.85
    B/value vs vbyte's 1.25). Fixed-width bitpack/FOR must pay the
    OUTLIER width for every value; vbyte pays a byte floor; pfor pays
    the TYPICAL width plus a per-outlier surcharge.

    Width choice is exact and deterministic: the bit-length histogram
    of the deltas gives n_exceptions(w) for every w in one bincount,
    and the argmin of the closed-form size is taken (smallest w on
    ties). The selector estimate uses the same histogram from
    chunk_stats, so estimate == actual on exactly-profiled chunks.
    """

    name = "pfor"
    codec_id = 9

    @staticmethod
    def _best_width(n: int, bl_hist: np.ndarray) -> tuple[int, int]:
        """(width, n_exc) minimizing main + positions + exception
        lanes; bl_hist[b] = deltas with bit_length b (b in 0..32)."""
        maxw = int(np.flatnonzero(bl_hist)[-1]) if bl_hist.any() else 0
        pos_w = bit_width(max(n - 1, 0))
        exc_w = maxw
        # suffix sums: n_exc(w) = deltas with bit_length > w
        suffix = np.concatenate([np.cumsum(bl_hist[::-1])[::-1][1:], [0]])
        best_w, best_sz, best_exc = 0, None, 0
        for w in range(maxw + 1):
            nexc = int(suffix[w])
            sz = (n * w + 7) // 8
            if nexc:
                sz += (nexc * pos_w + 7) // 8 + (nexc * exc_w + 7) // 8
            if best_sz is None or sz < best_sz:
                best_w, best_sz, best_exc = w, sz, nexc
        return best_w, best_exc

    @staticmethod
    def _size(n: int, w: int, nexc: int, pos_w: int, exc_w: int) -> int:
        sz = 19 + (n * w + 7) // 8
        if nexc:
            sz += (nexc * pos_w + 7) // 8 + (nexc * exc_w + 7) // 8
        return sz

    def estimate(self, stats, state):
        hist = stats.get("bl_hist")
        if hist is None:
            return float("inf")
        n = stats["n"]
        if n == 0:
            return 19
        hist = np.asarray(hist, dtype=np.int64)
        # windowed stats sample the histogram: scale it to n before the
        # width choice, or exceptions are priced at the sampling fraction
        # (n >= hist.sum(), so no nonzero bin rounds to zero)
        hist = np.rint(hist * (n / max(int(hist.sum()), 1))).astype(np.int64)
        w, nexc = self._best_width(n, hist)
        exc_w = int(np.flatnonzero(hist)[-1]) if hist.any() else 0
        return self._size(n, w, nexc, bit_width(max(n - 1, 0)), exc_w)

    def encode_values(self, values, state):
        n = len(values)
        if n == 0:
            return struct.pack("<qBqBB", 0, 0, 0, 0, 0)
        v = values.astype(np.int64)
        base = int(v.min())
        deltas = v - base
        # bit-length per delta without Python loops: searchsorted over
        # the 2^b thresholds (bit_length(x) = #thresholds <= x)
        thresholds = np.left_shift(np.int64(1), np.arange(0, 33, dtype=np.int64))
        bl = np.searchsorted(thresholds, deltas, side="right").astype(np.int64)
        hist = np.bincount(bl, minlength=33)[:33]
        w, _ = self._best_width(n, hist)
        exc_mask = bl > w
        nexc = int(exc_mask.sum())
        pos_w = bit_width(max(n - 1, 0))
        exc_w = int(bl.max())
        main = np.where(exc_mask, 0, deltas)
        header = struct.pack("<qBqBB", base, w, nexc, pos_w, exc_w)
        body = header + pack_bits(main, w)
        if nexc:
            pos = np.flatnonzero(exc_mask).astype(np.int64)
            body += pack_bits(pos, pos_w) + pack_bits(deltas[pos], exc_w)
        return body

    def decode_values(self, body, n_values):
        base, w, nexc, pos_w, exc_w = struct.unpack_from("<qBqBB", body, 0)
        if n_values == 0:
            return np.empty(0, dtype=np.int32)
        off = 19
        main_len = (n_values * w + 7) // 8
        deltas = unpack_bits(body[off : off + main_len], n_values, w).astype(np.int64)
        if nexc:
            off += main_len
            pos_len = (nexc * pos_w + 7) // 8
            pos = unpack_bits(body[off : off + pos_len], nexc, pos_w).astype(np.int64)
            if len(pos) and int(pos.max()) >= n_values:
                raise ValueError("corrupt chunk: pfor exception position out of range")
            exc = unpack_bits(body[off + pos_len :], nexc, exc_w).astype(np.int64)
            deltas[pos] = exc
        return (deltas + base).astype(np.int32)


PLAIN = register(PlainCodec())
BITPACK = register(BitPackCodec())
FOR = register(ForCodec())
RLE = register(RleCodec())
DICT = register(DictCodec())
ZIGZAG = register(ZigzagCodec())
DELTA = register(DeltaCodec())
VBYTE = register(VByteCodec())
PFOR = register(PforCodec())
