"""FSST chunk codec: byte-serialize int32 token values, compress with a
partition-trained symbol table (state), embed the ~2.3 KB table in the
payload so chunks are self-contained.

Semantics of train/compress/decompress are the reference's
(spiraldb/fsst src/builder.rs:604-628, src/lib.rs:456-515, 255-303),
via the golden-tested kernel in fsst_ray.kernel.
"""

from __future__ import annotations

import struct

import numpy as np

from ..kernel import fsst, native
from .base import Codec, register

# encoder cache: state digest -> rebuilt Compressor (actors reuse across batches)
_ENCODER_CACHE: dict[bytes, fsst.Compressor] = {}
_CACHE_MAX = 64


def _compressor_for_state(state: bytes) -> fsst.Compressor:
    key = bytes(state)  # full blob (<= ~2.3 KB): collision-free cache key
    comp = _ENCODER_CACHE.get(key)
    if comp is None:
        comp = fsst.compressor_from_state(state)
        if len(_ENCODER_CACHE) >= _CACHE_MAX:
            _ENCODER_CACHE.clear()
        _ENCODER_CACHE[key] = comp
    return comp


def train_from_lines(sample_lines: list[bytes]) -> bytes:
    """Train a symbol table on sample lines; returns the state blob."""
    return fsst.train(sample_lines).symbol_table_bytes()


def train_with_ratio(sample_lines: list[bytes]) -> dict:
    """Train + measure the expected compression ratio on the training
    sample — pass-1 work, so per-chunk size estimation is free."""
    comp = fsst.train(sample_lines)
    blob = comp.symbol_table_bytes()
    total = sum(len(ln) for ln in sample_lines)
    if total == 0:
        return {"fsst": blob, "ratio": 1.0}
    offsets = np.zeros(len(sample_lines) + 1, dtype=np.int64)
    np.cumsum([len(ln) for ln in sample_lines], out=offsets[1:])
    data = np.frombuffer(b"".join(sample_lines), dtype=np.uint8)
    codes, _ = native.compress_bulk(data, offsets, comp)
    return {"fsst": blob, "ratio": len(codes) / total}


def _state_blob(state) -> bytes:
    return state["fsst"] if isinstance(state, dict) else state


def _state_ratio(state) -> float | None:
    return state.get("ratio") if isinstance(state, dict) else None


class FsstCodec(Codec):
    name = "fsst"
    codec_id = 5

    def train(self, sample_lines: list[bytes]) -> dict:
        return train_with_ratio(sample_lines)

    def estimate(self, stats, state):
        if state is None:
            return float("inf")
        blob = _state_blob(state)
        ratio = _state_ratio(state)
        if ratio is None:
            # legacy raw-blob state: compress the chunk sample to estimate
            sample = stats.get("sample_bytes")
            if sample is None or len(sample) == 0:
                return float("inf")
            comp = _compressor_for_state(blob)
            data = np.frombuffer(sample, dtype=np.uint8)
            offsets = np.array([0, len(sample)], dtype=np.int64)
            codes, _ = native.compress_bulk(data, offsets, comp)
            ratio = len(codes) / len(sample)
        n_seg = max(1, -(-4 * stats["n"] // self.SEGMENT_BYTES))
        return len(blob) + 16 + 4 * n_seg + ratio * 4 * stats["n"]

    # encode-side segmentation: concatenated FSST code streams decode
    # identically as one stream (the decoder is stateless per code), so
    # splitting the chunk into fixed segments costs only the symbols
    # that would have spanned a boundary (~8 bytes / segment) while
    # letting the C kernel's multi-lane interleave engage — on BOTH
    # sides: the v2 body records per-segment code lengths, and since
    # every segment decodes to exactly SEGMENT_BYTES raw bytes (last one
    # excepted), decode output positions are known up front and
    # fsst_decompress_bulk_at runs N_LANES segments in lockstep.
    SEGMENT_BYTES = 1 << 15
    _SEG_FLAG = 0x80000000  # state_len high bit marks the v2 body

    def encode_values(self, values, state):
        assert state is not None, "fsst codec requires trained state"
        state = _state_blob(state)
        raw = values.astype("<i4", copy=False).view(np.uint8)
        comp = _compressor_for_state(state)
        offsets = np.concatenate(
            [
                np.arange(0, max(len(raw), 1), self.SEGMENT_BYTES, dtype=np.int64),
                np.array([len(raw)], dtype=np.int64),
            ]
        )
        codes, seg_off = native.compress_bulk(raw, offsets, comp)
        seg_lens = np.diff(seg_off).astype("<u4")
        return (
            struct.pack("<I", len(state) | self._SEG_FLAG)
            + state
            + struct.pack("<II", self.SEGMENT_BYTES, len(seg_lens))
            + seg_lens.tobytes()
            + codes.tobytes()
        )

    def decode_values(self, body, n_values):
        decoded, _ = self._decompress(body, n_values, out=None)
        return decoded.view("<i4").astype(np.int32, copy=False)

    def decode_values_into(self, body, n_values, out):
        u8 = out.view(np.uint8)
        decoded, _ = self._decompress(body, n_values, out=u8)
        if len(decoded) != 4 * n_values:
            raise ValueError(
                f"fsst chunk decoded {len(decoded)} bytes, expected {4 * n_values}"
            )

    @classmethod
    def _decompress(cls, body, n_values, out):
        (state_len,) = struct.unpack_from("<I", body, 0)
        segmented = bool(state_len & cls._SEG_FLAG)
        state_len &= cls._SEG_FLAG - 1
        state = body[4 : 4 + state_len]
        # unpack_from, NOT state[1] | state[2] << 8: `state` is a
        # memoryview of a pyarrow Buffer whose format is signed 'b',
        # so byte indexing returns NEGATIVE values for bytes >= 0x80 —
        # a 255-symbol table parsed as n = -1 (count=-1 then makes
        # np.frombuffer demand multiple-of-8 buffer size and throw)
        (n,) = struct.unpack_from("<H", state, 1)
        symbols = np.frombuffer(state, dtype="<u8", count=n, offset=4).astype(np.uint64)
        lengths = np.frombuffer(state, dtype="u1", count=n, offset=4 + 8 * n).astype(np.uint8)
        if not segmented:
            # v1 body: one unsegmented code stream (decoded sizes unknown
            # per position -> single-cursor kernel, 8-byte out slack)
            codes = np.frombuffer(body, dtype=np.uint8, offset=4 + state_len)
            offsets = np.array([0, len(codes)], dtype=np.int64)
            return native.decompress_bulk(
                codes, offsets, symbols, lengths, decoded_size_hint=4 * n_values, out=out
            )
        seg_raw, n_seg = struct.unpack_from("<II", body, 4 + state_len)
        seg_lens = np.frombuffer(body, dtype="<u4", count=n_seg, offset=12 + state_len)
        codes = np.frombuffer(body, dtype=np.uint8, offset=12 + state_len + 4 * n_seg)
        offsets = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(seg_lens, out=offsets[1:])
        total = 4 * n_values
        out_offsets = np.minimum(
            np.arange(n_seg + 1, dtype=np.int64) * seg_raw, total
        )
        if int(out_offsets[-1]) != total or (
            n_seg > 1 and (n_seg - 1) * seg_raw >= total
        ):
            raise ValueError(
                f"fsst chunk segment table inconsistent with {n_values} values"
            )
        dest = out if out is not None else np.empty(total, dtype=np.uint8)
        written = native.decompress_bulk_at(
            codes, offsets, symbols, lengths, dest, out_offsets
        )
        return dest[:written], out_offsets


FSST = register(FsstCodec())
