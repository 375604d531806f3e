"""Sequence packing for LLM training: assign every document a slot in
the concatenated fixed-length training-sequence stream.

Semantics (deterministic, order = doc_id ascending): concatenate all
documents' tokens into one global stream; training sequences are
consecutive `seq_len`-token windows of that stream (documents may span
sequence boundaries — the standard "packed" pretraining layout). Each
doc gets its global token `offset` and the [seq_first, seq_last]
sequence-index range it lands in.

Scale shape: the token bytes NEVER move. The global exclusive
prefix-sum runs over the (doc_id, n_tok) projection only (~16 bytes a
row vs the ~KB token payload):

  1. project + range-sort by doc_id (the one shuffle — metadata-sized,
     0.3% of corpus bytes; packing inherently needs a total order)
  2. per-block partials: (block min doc_id, block token total) — one
     row per block to the driver
  3. driver exclusive-scans the per-block totals (rows = #blocks) and
     broadcasts {block_min_doc_id: base_offset} via ray.put
  4. second pass over the SAME materialized blocks adds the block base
     to a local cumsum — embarrassingly parallel

The projection is materialized between passes so both see identical
block boundaries; at 100 TB that materialized projection is ~0.3% of
the corpus and spills to the object store if needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..keyed import position_sums


def pack_sequences(ds, seq_len: int = 4096):
    """(doc_id, offset, seq_first, seq_last): global token offset and
    sequence span per document, order = doc_id ascending. `offset` is
    the exclusive prefix sum of n_tok; seq_first = offset // seq_len,
    seq_last = (offset + n_tok - 1) // seq_len (== seq_first for empty
    docs so the span stays well-formed)."""
    import ray

    proj = ds.select_columns(["doc_id", "n_tok"]).sort("doc_id").materialize()

    def block_summary(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        total = (
            int(np.sum(batch["n_tok"].to_numpy(zero_copy_only=False), dtype=np.int64))
            if n
            else 0
        )
        first = batch["doc_id"][0].as_py() if n else ""
        return pa.table(
            {
                "first_id": pa.array([first], type=pa.string()),
                "total": pa.array([total], type=pa.int64()),
                "rows": pa.array([n], type=pa.int64()),
            }
        )

    # one row per block; blocks hold disjoint doc_id ranges after the
    # range sort, so sorting summaries by first_id reproduces block order
    summaries = proj.map_batches(
        block_summary, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    summaries = summaries[summaries["rows"] > 0].sort_values("first_id")
    bases = {}
    run = 0
    for first_id, total in zip(summaries["first_id"], summaries["total"]):
        bases[first_id] = run
        run += int(total)
    bases_ref = ray.put(bases)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.string()),
                    "offset": pa.array([], type=pa.int64()),
                    "seq_first": pa.array([], type=pa.int64()),
                    "seq_last": pa.array([], type=pa.int64()),
                }
            )
        base = ray.get(bases_ref)[batch["doc_id"][0].as_py()]
        n_tok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = base + np.concatenate(([0], np.cumsum(n_tok)[:-1]))
        seq_first = off // seq_len
        seq_last = np.maximum(off + n_tok - 1, off) // seq_len
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "offset": pa.array(off, type=pa.int64()),
                "seq_first": pa.array(seq_first, type=pa.int64()),
                "seq_last": pa.array(seq_last, type=pa.int64()),
            }
        )

    return proj.map_batches(assign, batch_format="pyarrow", batch_size=None)


def split_windows(ds, seq_len: int = 512, stride: int = 384):
    """Chunk every document's token sequence into fixed-length training
    windows with stride (overlapping when stride < seq_len) — the
    "split long docs" counterpart of `pack_sequences`' "concatenate
    short docs". Window w of a doc covers tokens
    [w*stride, w*stride + seq_len) clamped to the doc; docs emit
    ceil(n_tok/stride) windows (empty docs none).

    Pure map-side flat expansion — no shuffle, no driver state; each
    batch computes its windows with repeat/arange index math and ONE
    `position_sums` over gathered values (no Python loop over rows or
    windows). Emits (doc_id, win_idx, win_start, win_len,
    win_checksum) where win_checksum = sum((tok+1) * pos1based) —
    position-weighted so any token mispairing or misalignment changes
    it; token payloads themselves never leave the map task."""
    from ..stages.serialize import tokens_views

    assert stride > 0 and seq_len > 0

    def expand(batch: pa.Table) -> pa.Table:
        values, offsets = tokens_views(batch)
        n_tok = np.diff(offsets)
        n_win = -(-n_tok // stride)  # ceil; 0 for empty docs
        total = int(n_win.sum())
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "win_idx": pa.array([], pa.int64()),
                "win_start": pa.array([], pa.int64()),
                "win_len": pa.array([], pa.int64()),
                "win_checksum": pa.array([], pa.int64()),
            }
        )
        if total == 0:
            return empty
        row = np.repeat(np.arange(len(n_tok)), n_win)
        # per-window index within its doc: global arange minus the
        # doc's first window's global index
        base = np.concatenate([[0], np.cumsum(n_win)])[:-1]
        widx = np.arange(total) - base[row]
        wstart = widx * stride
        wlen = np.minimum(seq_len, n_tok[row] - wstart)
        # gather indices for all window tokens at once
        g_base = np.concatenate([[0], np.cumsum(wlen)])
        flat = np.arange(int(g_base[-1])) - g_base[:-1].repeat(wlen)
        gidx = offsets[:-1][row].repeat(wlen) + wstart.repeat(wlen) + flat
        # 1-based position within the window; raises where a window's
        # sum could pass int64
        csum = position_sums(values[gidx].astype(np.int64) + 1, g_base)
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table(
            {
                "doc_id": ids.take(pa.array(row)),
                "win_idx": pa.array(widx.astype(np.int64)),
                "win_start": pa.array(wstart.astype(np.int64)),
                "win_len": pa.array(wlen.astype(np.int64)),
                "win_checksum": pa.array(csum.astype(np.int64)),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow")
