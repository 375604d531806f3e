"""Codec protocol + registry + payload framing."""

from __future__ import annotations

import struct

import numpy as np

_MAGIC_VERSION = 1

CODEC_BY_ID: dict[int, "Codec"] = {}
CODEC_BY_NAME: dict[str, "Codec"] = {}


def register(codec: "Codec") -> "Codec":
    assert codec.codec_id not in CODEC_BY_ID, f"duplicate codec id {codec.codec_id}"
    assert codec.name not in CODEC_BY_NAME, f"duplicate codec name {codec.name}"
    CODEC_BY_ID[codec.codec_id] = codec
    CODEC_BY_NAME[codec.name] = codec
    return codec


class Codec:
    """One chunk codec. Stateless singletons; partition-trained state
    (the FSST codec's {"fsst", "ratio"}, from pass 1) is passed
    explicitly as `state`, None for codecs with no cross-chunk state."""

    name: str = "?"
    codec_id: int = -1

    # -- selection --------------------------------------------------------
    def estimate(self, stats: dict, state: dict | None) -> float:
        """Estimated encoded bytes for a chunk with the given stats
        (see select.chunk_stats). float('inf') = not applicable."""
        raise NotImplementedError

    # -- encode / decode --------------------------------------------------
    def encode_values(self, values: np.ndarray, state: dict | None) -> bytes:
        """Encode int32 values into the codec-specific body (no frame)."""
        raise NotImplementedError

    def decode_values(self, body: bytes, n_values: int) -> np.ndarray:
        """Decode the codec-specific body back into int32 values."""
        raise NotImplementedError

    def decode_values_into(self, body: bytes, n_values: int, out: np.ndarray) -> None:
        """Decode into a caller-provided int32 array of exactly
        n_values elements, writing nothing outside it. Default: decode
        then copy — codecs override when they can write in place."""
        out[:] = self.decode_values(body, n_values)

    # -- framing ----------------------------------------------------------
    def encode(self, values: np.ndarray, state: dict | None = None) -> bytes:
        body = self.encode_values(np.ascontiguousarray(values, dtype=np.int32), state)
        return struct.pack("<BBq", self.codec_id, _MAGIC_VERSION, len(values)) + body


def decode_payload(payload: bytes) -> np.ndarray:
    """Decode any framed chunk payload back to its int32 values array."""
    codec_id, version, n_values = struct.unpack_from("<BBq", payload, 0)
    if version != _MAGIC_VERSION:
        raise ValueError(f"corrupt chunk: unknown payload version {version}")
    if codec_id not in CODEC_BY_ID:
        raise ValueError(f"corrupt chunk: unknown codec id {codec_id}")
    # absolute sanity cap (RLE/width-0 chunks legitimately decode many
    # values from few bytes, so no ratio bound): corrupt headers fail
    # cleanly instead of attempting absurd allocations downstream
    if n_values < 0 or n_values > (1 << 34):
        raise ValueError(f"corrupt chunk: implausible n_values {n_values}")
    codec = CODEC_BY_ID[codec_id]
    return codec.decode_values(payload[10:], n_values)


def decode_payload_into(payload: bytes, out: np.ndarray) -> None:
    """Decode a framed chunk payload into a caller-provided int32 array
    (len(out) must equal the frame's n_values); nothing outside `out`
    is written."""
    codec_id, version, n_values = struct.unpack_from("<BBq", payload, 0)
    if version != _MAGIC_VERSION:
        raise ValueError(f"corrupt chunk: unknown payload version {version}")
    if codec_id not in CODEC_BY_ID:
        raise ValueError(f"corrupt chunk: unknown codec id {codec_id}")
    if n_values != len(out):
        raise ValueError(
            f"chunk frame declares {n_values} values but metadata expects {len(out)}"
        )
    CODEC_BY_ID[codec_id].decode_values_into(payload[10:], n_values, out)
