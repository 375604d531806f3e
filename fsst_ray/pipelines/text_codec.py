"""FSST over real string columns + numeric codecs over real tables —
oracle-checkable demonstrations of the codec engine on the provided
TPC-H-ish tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..keyed import position_sums
from ..kernel import fsst, native


def text_roundtrip_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Train-encode-decode the text column within the batch (block-local
    symbol table, like the reference's file_compressor example:
    /root/reference/examples/file_compressor.rs:20-55) and return the
    decoded rows — equality with the source is the oracle check."""
    col = batch[text_col]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lines = [t.encode() for t in arr.to_pylist()]
    state = fsst.train(lines)

    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in lines], out=offsets[1:])
    data = np.frombuffer(b"".join(lines), dtype=np.uint8)
    codes, code_offsets = native.compress_bulk(data, offsets, state)
    decoded, dec_offsets = native.decompress_bulk(
        codes, code_offsets, state, decoded_size_hint=int(offsets[-1])
    )
    assert np.array_equal(dec_offsets, offsets), "fsst text round-trip length mismatch"
    raw = decoded.tobytes()
    texts = [raw[dec_offsets[i] : dec_offsets[i + 1]].decode() for i in range(len(lines))]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "text": pa.array(texts, type=pa.string()),
        }
    )


def fsst_text_roundtrip(ds) -> "pa.Table | object":
    """Dataset of (doc_id, text) reconstructed through FSST."""
    return ds.map_batches(text_roundtrip_batch, batch_format="pyarrow")


def int_column_roundtrip_groupby(ds, int_col: str, group_col: str):
    """Encode an integer column through the auto-selected chunk codec,
    decode it, then aggregate — proving losslessness on a real table.

    Returns rows (group_col, sum_<int_col>, n) ordered by group.
    """
    from ..codecs import decode_payload, encode_chunk

    def roundtrip(batch: pa.Table) -> pa.Table:
        vals = batch[int_col].to_numpy(zero_copy_only=False).astype(np.int64)
        assert np.abs(vals).max(initial=0) < 2**31, f"{int_col} exceeds int32"
        payload, meta = encode_chunk(vals.astype(np.int32))
        decoded = decode_payload(payload).astype(np.int64)
        return pa.table(
            {
                group_col: batch[group_col],
                int_col: pa.array(decoded, type=pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Sum

    out = (
        ds.map_batches(roundtrip, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum(int_col, alias_name=f"sum_{int_col}"), Count(alias_name="n"))
    )
    df = out.to_pandas().sort_values(group_col).reset_index(drop=True)
    return pa.table(
        {
            group_col: pa.array(df[group_col], type=pa.string()),
            f"sum_{int_col}": pa.array(df[f"sum_{int_col}"].astype("int64"), type=pa.int64()),
            "n": pa.array(df["n"].astype("int64"), type=pa.int64()),
        }
    )


def float_column_roundtrip_groupby(ds, float_col: str, group_col: str, scale: int = 100):
    """Encode a float column through the lossless float chunk codec
    (byte-plane / decimal-int auto mode, codecs/floats.py), decode it,
    then aggregate an integer checksum — proving bit-exactness on a
    real table. Checksum per group: SUM(FLOOR(x * scale)) as int64,
    exactly recomputable in SQL (integral doubles sum exactly).

    Returns rows (group_col, n, checksum) ordered by group.
    """
    from ..codecs.floats import decode_float_payload, encode_float_chunk

    def roundtrip(batch: pa.Table) -> pa.Table:
        vals = np.ascontiguousarray(batch[float_col].to_numpy(zero_copy_only=False))
        payload, _ = encode_float_chunk(vals)
        decoded = decode_float_payload(payload)
        assert decoded.tobytes() == vals.tobytes(), "float round-trip mismatch"
        check = np.floor(decoded.astype(np.float64) * scale).astype(np.int64)
        return pa.table(
            {
                group_col: batch[group_col],
                "checksum": pa.array(check, type=pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Sum

    out = (
        ds.map_batches(roundtrip, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Count(alias_name="n"), Sum("checksum", alias_name="checksum"))
    )
    df = out.to_pandas().sort_values(group_col).reset_index(drop=True)
    return pa.table(
        {
            group_col: pa.array(df[group_col], type=pa.string()),
            "n": pa.array(df["n"].astype("int64"), type=pa.int64()),
            "checksum": pa.array(df["checksum"].astype("int64"), type=pa.int64()),
        }
    )


def float_list_roundtrip_groupby(ds, list_col: str, group_col: str, scale: int = 1_000_000):
    """Encode a list<float> column (flattened per batch, zero-copy list
    child buffer) through the float chunk codec, decode, and aggregate a
    position-weighted integer checksum per group:
    SUM over elements of FLOOR(x * scale) * (1-based position) — the
    same shape DuckDB's list_transform((x, i) -> ...) computes.

    Returns rows (group_col, n, checksum) ordered by group.
    """
    from ..codecs.floats import decode_float_payload, encode_float_chunk

    def roundtrip(batch: pa.Table) -> pa.Table:
        col = batch[list_col]
        lists = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        offsets = np.asarray(lists.offsets, dtype=np.int64)
        flat = np.ascontiguousarray(
            lists.values.to_numpy(zero_copy_only=False)[offsets[0] : offsets[-1]]
        )
        offsets = offsets - offsets[0]
        payload, _ = encode_float_chunk(flat)
        decoded = decode_float_payload(payload)
        assert decoded.tobytes() == flat.tobytes(), "float list round-trip mismatch"
        elem = np.floor(decoded.astype(np.float64) * scale).astype(np.int64)
        row_sums = position_sums(elem, offsets)
        return pa.table(
            {
                group_col: batch[group_col],
                "checksum": pa.array(row_sums, type=pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Sum

    out = (
        ds.map_batches(roundtrip, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Count(alias_name="n"), Sum("checksum", alias_name="checksum"))
    )
    df = out.to_pandas().sort_values(group_col).reset_index(drop=True)
    return pa.table(
        {
            group_col: pa.array(df[group_col].astype("int64"), type=pa.int64()),
            "n": pa.array(df["n"].astype("int64"), type=pa.int64()),
            "checksum": pa.array(df["checksum"].astype("int64"), type=pa.int64()),
        }
    )
