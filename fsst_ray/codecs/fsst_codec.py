"""FSST chunk codec: byte-serialize int32 token values, compress with a
partition-trained symbol table, embed the table's state blob (at most
2.3 KB) in the payload so chunks are self-contained.

A partition's state is {"fsst": blob, "ratio": compressed/raw on the
training sample} (pass 1, `train_with_ratio`). The blob is opaque here:
the C kernel reads it (fsst_ray.kernel.native), with the reference's
semantics (spiraldb/fsst src/builder.rs:604-628, src/lib.rs:456-515,
255-303).
"""

from __future__ import annotations

import struct

import numpy as np

from ..kernel import fsst, native
from .base import Codec, register


def train_with_ratio(sample_lines: list[bytes]) -> dict:
    """Train + measure the expected compression ratio on the training
    sample — pass-1 work, so per-chunk size estimation is free."""
    blob = fsst.train(sample_lines)
    total = sum(len(ln) for ln in sample_lines)
    if total == 0:
        return {"fsst": blob, "ratio": 1.0}
    offsets = np.zeros(len(sample_lines) + 1, dtype=np.int64)
    np.cumsum([len(ln) for ln in sample_lines], out=offsets[1:])
    data = np.frombuffer(b"".join(sample_lines), dtype=np.uint8)
    codes, _ = native.compress_bulk(data, offsets, blob)
    return {"fsst": blob, "ratio": len(codes) / total}


class FsstCodec(Codec):
    name = "fsst"
    codec_id = 5

    def estimate(self, stats, state):
        if state is None:
            return float("inf")
        n_seg = max(1, -(-4 * stats["n"] // self.SEGMENT_BYTES))
        return len(state["fsst"]) + 16 + 4 * n_seg + state["ratio"] * 4 * stats["n"]

    # encode-side segmentation: concatenated FSST code streams decode
    # identically as one stream (the decoder is stateless per code), so
    # splitting the chunk into fixed segments costs only the symbols
    # that would have spanned a boundary (~8 bytes / segment) while
    # letting the C kernel's multi-lane interleave engage — on BOTH
    # sides: the body records per-segment code lengths, and since
    # every segment decodes to exactly SEGMENT_BYTES raw bytes (last one
    # excepted), decode output positions are known up front and
    # fsst_decompress_bulk_at runs N_LANES segments in lockstep.
    SEGMENT_BYTES = 1 << 15
    # state_len high bit marks the segmented body. Bodies without it
    # (one unsegmented stream) are no longer written and do not decode.
    _SEG_FLAG = 0x80000000

    def encode_values(self, values, state):
        assert state is not None, "fsst codec requires trained state"
        blob = state["fsst"]
        raw = values.astype("<i4", copy=False).view(np.uint8)
        offsets = np.concatenate(
            [
                np.arange(0, max(len(raw), 1), self.SEGMENT_BYTES, dtype=np.int64),
                np.array([len(raw)], dtype=np.int64),
            ]
        )
        codes, seg_off = native.compress_bulk(raw, offsets, blob)
        seg_lens = np.diff(seg_off).astype("<u4")
        return (
            struct.pack("<I", len(blob) | self._SEG_FLAG)
            + blob
            + struct.pack("<II", self.SEGMENT_BYTES, len(seg_lens))
            + seg_lens.tobytes()
            + codes.tobytes()
        )

    def decode_values(self, body, n_values):
        out = np.empty(n_values, dtype=np.int32)
        self._decode(body, n_values, out)
        return out

    def decode_values_into(self, body, n_values, out):
        self._decode(body, n_values, out)

    @classmethod
    def _decode(cls, body, n_values, out):
        (state_len,) = struct.unpack_from("<I", body, 0)
        if not state_len & cls._SEG_FLAG:
            raise ValueError("corrupt chunk: unsegmented fsst body")
        state_len &= cls._SEG_FLAG - 1
        if len(body) < 12 + state_len:
            raise ValueError("corrupt chunk: fsst body shorter than its header")
        seg_raw, n_seg = struct.unpack_from("<II", body, 4 + state_len)
        if len(body) < 12 + state_len + 4 * n_seg:
            raise ValueError("corrupt chunk: fsst body shorter than its segment table")
        seg_lens = np.frombuffer(body, dtype="<u4", count=n_seg, offset=12 + state_len)
        codes = np.frombuffer(body, dtype=np.uint8, offset=12 + state_len + 4 * n_seg)
        offsets = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(seg_lens, out=offsets[1:])
        total = 4 * n_values
        out_offsets = np.minimum(
            np.arange(n_seg + 1, dtype=np.int64) * seg_raw, total
        )
        if int(out_offsets[-1]) != total or int(offsets[-1]) != len(codes) or (
            n_seg > 1 and (n_seg - 1) * seg_raw >= total
        ):
            raise ValueError(
                f"corrupt chunk: fsst segment table inconsistent with {n_values} values"
            )
        native.decompress_bulk_at(
            codes, offsets, body[4 : 4 + state_len], out.view(np.uint8), out_offsets
        )


FSST = register(FsstCodec())
