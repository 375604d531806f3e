"""Decode pass: encoded-chunk rows -> original (doc_id, tokens, n_tok,
source) rows, plus streaming verification checksums.

Chunks are self-contained (codec id + any dictionary / symbol table are
inside the payload), so decode is a stateless map_batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import decode_payload, decode_payload_into
from ..keyed import position_sums, sum_by
from ..kernel import native
from ..sources.tokens import TOKENS_SCHEMA
from .serialize import tokens_views


def decode_chunks_batch(batch: pa.Table) -> pa.Table:
    """Each input row is one encoded chunk; output rows are documents.

    doc_id / n_tok list columns stay Arrow (flattened zero-copy); only
    the payload decode itself runs per chunk — on a zero-copy buffer
    view, no bytes copies.
    """
    import pyarrow.compute as pc

    def col(name):
        c = batch[name]
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

    doc_lists = col("doc_id")
    ntok_lists = col("n_tok")
    payloads = col("payload")
    doc_flat = doc_lists.flatten()
    n_tok = ntok_lists.flatten()
    counts = pc.list_value_length(doc_lists).to_numpy(zero_copy_only=False)
    sources = np.repeat(batch["source"].to_numpy(zero_copy_only=False), counts)

    n_tok_np = n_tok.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.zeros(len(n_tok_np) + 1, dtype=np.int64)
    np.cumsum(n_tok_np, out=offsets[1:])
    # per-chunk token counts -> slice bounds in one preallocated values
    # buffer; each payload decodes IN PLACE into its slice (saves two
    # full passes of memory traffic vs decode-then-concatenate — this
    # stage is bandwidth-bound at high parallelism).
    ndocs_per_chunk = pc.list_value_length(ntok_lists).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    doc_bounds = np.zeros(len(ndocs_per_chunk) + 1, dtype=np.int64)
    np.cumsum(ndocs_per_chunk, out=doc_bounds[1:])
    chunk_ntok = offsets[doc_bounds[1:]] - offsets[doc_bounds[:-1]]
    total = int(n_tok_np.sum())
    values = np.empty(total, dtype=np.int32)
    pos = 0
    for r in range(batch.num_rows):
        c = int(chunk_ntok[r])
        decode_payload_into(memoryview(payloads[r].as_buffer()), values[pos : pos + c])
        pos += c
    if offsets[-1] >= 2**31:
        raise ValueError(
            f"decode batch holds {offsets[-1]} token values — exceeds "
            "list<int32> offset range; lower override_num_blocks/batch size"
        )
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), type=pa.int32()),
        pa.array(values, type=pa.int32()),
    )
    return pa.table(
        {
            "doc_id": doc_flat,
            "tokens": tokens,
            "n_tok": n_tok,
            "source": pa.array(sources, type=pa.string()),
        },
        schema=TOKENS_SCHEMA,
    )


def _row_checksums(batch: pa.Table) -> np.ndarray:
    """Order-sensitive per-row u64 checksum of the tokens column."""
    return native.row_checksums(*tokens_views(batch))


def checksum_batch(batch: pa.Table) -> pa.Table:
    """One partial row per batch: (rows, tokens, checksum) for verify."""
    import polars as pl

    row_sums = _row_checksums(batch)
    doc_hash = (
        pl.from_arrow(batch["doc_id"].combine_chunks()
                      if isinstance(batch["doc_id"], pa.ChunkedArray) else batch["doc_id"])
        .hash(seed=7)
        .to_numpy()
        .astype(np.uint64)
    )
    # splitmix64-style nonlinear finalizer: without it, single-bit row
    # differences produce +/-constant deltas that can cancel in the sum
    x = row_sums ^ doc_hash
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    total = int(x.sum(dtype=np.uint64))
    n_tokens = int(batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64).sum())
    return pa.table(
        {
            "rows": pa.array([batch.num_rows], type=pa.int64()),
            "tokens": pa.array([n_tokens], type=pa.int64()),
            "checksum": pa.array([total], type=pa.uint64()),
        }
    )


def tokens_summary_partials(batch: pa.Table) -> pa.Table:
    """Per-batch partial of the per-source roundtrip summary.

    checksum row term: sum_i (token_i + 1) * i with i 1-based — order
    sensitive and SQL-expressible (DuckDB list_transform with index).
    `position_sums` raises where a row's term could pass int64 (with
    int32 token ids, rows beyond about 92k tokens; DuckDB sums in
    HUGEINT); the per-source sums of row terms are exact int64. Combine
    partials with a tiny groupby.
    """
    values, offsets = tokens_views(batch)
    row_sums = position_sums(values.astype(np.int64) + 1, offsets)
    sources = batch["source"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(sources, return_inverse=True)
    return pa.table(
        {
            "source": pa.array(uniq, type=pa.string()),
            "n_docs": pa.array(np.bincount(inv), type=pa.int64()),
            "total_tokens": pa.array(sum_by(inv, np.diff(offsets), len(uniq))),
            "checksum": pa.array(sum_by(inv, row_sums, len(uniq))),
        }
    )


def tokens_summary(ds):
    """Per-source (n_docs, total_tokens, checksum) of a tokens dataset:
    the order-sensitive roundtrip summary compared against the DuckDB
    oracle over the original corpus parquet. Streams: partials per
    batch, then a #sources-sized groupby."""
    partials = ds.map_batches(
        tokens_summary_partials, batch_format="pyarrow", batch_size=None
    )
    agg = partials.groupby("source").sum(["n_docs", "total_tokens", "checksum"])
    return agg.map_batches(
        lambda b: b.rename_columns(["source", "n_docs", "total_tokens", "checksum"]),
        batch_format="pyarrow",
    )


def dataset_checksum(ds) -> dict:
    """Streaming order-insensitive content checksum of a tokens dataset.

    The driver-side reduction uses exact Python ints: a pandas
    conversion would round uint64 through float64 and lose low bits.
    """
    rows = tokens = checksum = 0
    for part in ds.map_batches(checksum_batch, batch_format="pyarrow", batch_size=None).take_all():
        rows += int(part["rows"])
        tokens += int(part["tokens"])
        checksum = (checksum + int(part["checksum"])) & 0xFFFFFFFFFFFFFFFF
    return {"rows": rows, "tokens": tokens, "checksum": checksum}
