"""Pass 2: skew-aware bucket routing + chunk encoding.

Skew handling per the north rule: each source gets a bucket count
proportional to its token mass (pass-1 stats), and its rows spread
across buckets by the corpus's doc-id hash `h` (`native.doc_hash64`):
bucket b of n holds the hash range [b * 2^64 / n, (b + 1) * 2^64 / n),
so b = (h * n) >> 64 (multiply-shift; Lemire, ACM TOMACS 2019). The
giant-row family therefore fans out over many buckets instead of
serializing one task, and a block staged in (source, h) order holds
each bucket of any plan as one contiguous slice. Encoded output is
written one atomic parquet file per bucket, which is the resume unit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs import encode_chunk
from ..keyed import group_starts
from ..kernel import native
from .serialize import tokens_views
from .trainer import _source_codes

ENCODED_CHUNK_SCHEMA = pa.schema(
    [
        ("part_key", pa.string()),
        ("source", pa.string()),
        ("chunk_seq", pa.int32()),
        ("codec", pa.string()),
        ("payload", pa.large_binary()),
        ("n_rows", pa.int64()),
        ("n_values", pa.int64()),
        ("bytes_in", pa.int64()),
        ("bytes_out", pa.int64()),
        ("doc_id", pa.list_(pa.string())),
        ("n_tok", pa.list_(pa.int32())),
    ]
)


def build_bucket_plan(mass: dict[str, dict], bucket_tokens: int) -> dict[str, int]:
    """source -> number of encode buckets (>=1), proportional to token mass."""
    return {
        source: max(1, -(-info["tokens"] // bucket_tokens)) for source, info in mass.items()
    }


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def hash_bucket(h, n):
    """The routing rule: bucket (h * n) >> 64 of each u64 hash `h`
    among `n` buckets (a scalar or one count per hash, below 2^32).
    Exact in u64: h is split into 32-bit halves, so no product passes
    2^64. Monotone in h, so hash-sorted rows keep each bucket
    contiguous."""
    h = np.asarray(h, dtype=np.uint64)
    n = np.asarray(n, dtype=np.uint64)
    if (n >= np.uint64(1 << 32)).any():
        raise ValueError("a source holds 2^32 buckets or more")
    return (((h >> _SHIFT32) * n + (((h & _LOW32) * n) >> _SHIFT32)) >> _SHIFT32).astype(np.int64)


def part_key(source: str, tag: str, bucket: int) -> str:
    """A bucket's part key, '{source}:{tag}{bucket:05d}'."""
    return f"{source}:{tag}{bucket:05d}"


def assign_partitions(batch: pa.Table, plan: dict[str, int], tag: str = "") -> pa.Table:
    """Append the part_key column: '{source}:{tag}{bucket:05d}', the
    bucket by `hash_bucket` of each row's doc-id hash.

    `tag` namespaces a generation of buckets (incremental append jobs
    pass 'g{N}-') so appended part keys never collide with existing
    bucket files. One key string is built per distinct (source,
    bucket); the rows gather them."""
    names, inv = _source_codes(batch["source"])
    n = np.array([plan.get(s, 1) for s in names.to_pylist()], dtype=np.uint64)
    buckets = hash_bucket(native.doc_hash64(batch["doc_id"]), n[inv])
    stride = int(n.max(initial=1))
    pairs, code = np.unique(inv * stride + buckets, return_inverse=True)
    names = names.to_pylist()
    keys = [part_key(names[p // stride], tag, p % stride) for p in pairs.tolist()]
    return batch.append_column("part_key", pa.array(keys, pa.string()).take(pa.array(code)))


def encode_rows_to_chunks(
    batch: pa.Table,
    states: dict[str, bytes],
    part_key: str | None,
    chunk_tokens: int,
    codecs: tuple[str, ...],
    sort_keys: np.ndarray | None = None,
) -> pa.Table:
    """Encode a run of rows into encoded-chunk rows.

    Rows are grouped by source; an explicit `part_key` labels all
    output (already-grouped input), else each source's chunks are keyed
    `{source}:-0001`. `sort_keys` orders rows within each group (e.g.
    doc_id for deterministic chunking) without a physical table sort —
    the chunk gather below copies the values once either way.
    """
    values, offsets = tokens_views(batch)
    sources = batch["source"].to_numpy(zero_copy_only=False)
    # coerce doc_id to str ONCE, vectorized (the schema stores
    # list<string>); per-chunk [str(d) for d in ...] loops paid a
    # Python call per row (VERDICT r2 minor item 4)
    _doc_col = batch["doc_id"]
    if not pa.types.is_string(_doc_col.type):
        _doc_col = pc.cast(_doc_col, pa.string())
    doc_ids = _doc_col.to_numpy(zero_copy_only=False)
    n_tok = (offsets[1:] - offsets[:-1]).astype(np.int32)

    out = {name: [] for name in ENCODED_CHUNK_SCHEMA.names}
    if sort_keys is not None:
        order = np.lexsort((sort_keys, sources))
    else:
        order = np.argsort(sources, kind="stable")
    bounds = np.append(group_starts(sources[order]), len(sources))
    for g in range(len(bounds) - 1):
        idx = order[bounds[g] : bounds[g + 1]]
        source = sources[idx[0]]
        state = states.get(source)
        key = part_key if part_key is not None else f"{source}:-0001"
        # chunk rows so each chunk holds ~chunk_tokens tokens
        row_tok = n_tok[idx].astype(np.int64)
        cum = np.cumsum(row_tok)
        chunk_of_row = np.minimum(cum // max(chunk_tokens, 1), 2**31 - 1)
        seq = 0
        start = 0
        while start < len(idx):
            end = int(np.searchsorted(chunk_of_row, chunk_of_row[start], side="right"))
            rows = idx[start:end]
            # gather values of these rows — zero-copy slice when the run
            # is contiguous ascending (first/last span alone is not
            # enough: sort_keys makes rows a permutation, e.g. [0,2,1,3]
            # spans len-1 without being ascending)
            if (
                len(rows)
                and rows[-1] - rows[0] == len(rows) - 1
                and (len(rows) == 1 or (np.diff(rows) == 1).all())
            ):
                chunk_values = values[offsets[rows[0]] : offsets[rows[-1] + 1]]
            else:
                parts = [values[offsets[i] : offsets[i + 1]] for i in rows]
                chunk_values = (
                    np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
                )
            payload, meta = encode_chunk(chunk_values, state, codecs)
            out["part_key"].append(key)
            out["source"].append(source)
            out["chunk_seq"].append(seq)
            out["codec"].append(meta["codec"])
            out["payload"].append(payload)
            out["n_rows"].append(len(rows))
            out["n_values"].append(meta["n_values"])
            out["bytes_in"].append(meta["bytes_in"])
            out["bytes_out"].append(meta["bytes_out"])
            out["doc_id"].append(doc_ids[rows].tolist())
            out["n_tok"].append(n_tok[rows].tolist())
            seq += 1
            start = end
    return pa.table(out, schema=ENCODED_CHUNK_SCHEMA)
