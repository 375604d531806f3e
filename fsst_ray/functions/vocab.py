"""Vocabulary statistics over a pre-tokenized corpus (tokens table).

The hot path is a per-batch partial histogram (np.unique over the
list-column's flat values — no row iteration); the shuffle moves only
(token, partial_count) rows, which are vocabulary-sized, not
corpus-sized. The final top-k runs on the driver over the aggregated
vocabulary table (a corpus's distinct-token count is bounded by the
tokenizer's vocab, e.g. tens of thousands — orders of magnitude smaller
than the corpus).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import sum_by
from ..stages.serialize import tokens_views


def _partial_counts(batch: pa.Table) -> pa.Table:
    values, _ = tokens_views(batch)
    if len(values) == 0:
        return pa.table(
            {
                "token": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
    uniq, counts = np.unique(values, return_counts=True)
    return pa.table(
        {
            "token": pa.array(uniq.astype(np.int64), type=pa.int64()),
            "n": pa.array(counts.astype(np.int64), type=pa.int64()),
        }
    )


def _ntok_partials(batch: pa.Table) -> pa.Table:
    sources = batch["source"].to_numpy(zero_copy_only=False)
    n_tok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
    key = np.char.add(np.char.add(sources.astype(str), "\x00"), n_tok.astype(str))
    uniq, idx, cnt = np.unique(key, return_index=True, return_counts=True)
    return pa.table(
        {
            "source": pa.array(sources[idx], type=pa.string()),
            "n_tok": pa.array(n_tok[idx], type=pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), type=pa.int64()),
        }
    )


def ntok_percentiles(ds, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> pa.Table:
    """EXACT per-source discrete percentiles of n_tok, computed
    distributed: per-batch (source, n_tok) count partials -> a
    distribution-sized groupby -> driver rank lookup. The shuffle moves
    only the value histogram (sources x distinct lengths), never rows.
    Rank convention matches DuckDB quantile_disc: the 1-based
    ceil(q*n)-th smallest value."""
    agg = (
        ds.map_batches(_ntok_partials, batch_format="pyarrow", batch_size=None)
        .groupby(["source", "n_tok"])
        .sum("cnt")
    )
    rows = agg.take_all()
    by_src: dict[str, list[tuple[int, int]]] = {}
    for r in rows:
        by_src.setdefault(r["source"], []).append((int(r["n_tok"]), int(r["sum(cnt)"])))
    out = {"source": []}
    for q in qs:
        out[f"p{int(q * 100)}"] = []
    for src in sorted(by_src):
        dist = sorted(by_src[src])
        vals = np.array([v for v, _ in dist], dtype=np.int64)
        cum = np.cumsum([c for _, c in dist])
        n = int(cum[-1])
        out["source"].append(src)
        for q in qs:
            rank = int(np.ceil(q * n))
            out[f"p{int(q * 100)}"].append(int(vals[np.searchsorted(cum, rank)]))
    return pa.table(
        {
            "source": pa.array(out["source"], type=pa.string()),
            **{
                f"p{int(q * 100)}": pa.array(out[f"p{int(q * 100)}"], type=pa.int64())
                for q in qs
            },
        }
    )


def _topk_by_count(tokens: np.ndarray, counts: np.ndarray, k: int) -> pa.Table:
    order = np.lexsort((tokens, -counts))[:k]
    return pa.table(
        {
            "token": pa.array(tokens[order].astype(np.int64), type=pa.int64()),
            "n": pa.array(counts[order].astype(np.int64), type=pa.int64()),
        }
    )


def token_histogram(ds, k: int = 100, merge_partitions: int = 32) -> pa.Table:
    """Top-k most frequent token ids: (token, n), ties broken by token
    ascending.

    Shape: per-batch partial histograms (vocab-sized rows), then a
    HASH-BUCKETED merge — each token's partials are co-located by
    `token % merge_partitions`, so the groupby has a constant number of
    groups instead of one group per distinct token (the previous
    per-token groupby built ~431k single-row groups and took ~30x the
    partials' time); each bucket combines with one np.unique + `sum_by`
    and emits its local top-k, and the driver merges
    <= k x merge_partitions candidate rows. A token's global count
    lives wholly in one bucket, so the top-k is exact."""

    def add_bucket(t: pa.Table) -> pa.Table:
        tok = t["token"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "part", pa.array((tok % merge_partitions).astype(np.int64))
        )

    def combine_topk(group: pa.Table) -> pa.Table:
        tok = group["token"].to_numpy(zero_copy_only=False)
        cnt = group["n"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(tok, return_inverse=True)
        return _topk_by_count(u, sum_by(inv, cnt, len(u)), k)

    cand = (
        ds.map_batches(_partial_counts, batch_format="pyarrow", batch_size=None)
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(combine_topk, batch_format="pyarrow")
        .take_all()
    )
    tokens = np.array([r["token"] for r in cand], dtype=np.int64)
    counts = np.array([r["n"] for r in cand], dtype=np.int64)
    return _topk_by_count(tokens, counts, k)


def explode_tokens(ds):
    """(doc_id, pos, token): list-explode of the tokens corpus — SQL
    UNNEST WITH ORDINALITY. Pure map-side reshape, zero shuffle, and
    zero per-row Python: the token column is `pc.list_flatten` (a
    buffer-level flatten), doc_ids are one `take` over a repeat-index
    vector, positions are a global arange minus repeated row starts.
    Output preserves the list element type (int32) so the oracle's
    unnest dtype matches without casts. A null list explodes to no
    rows, as SQL UNNEST(NULL) does."""

    def flat(batch: pa.Table) -> pa.Table:
        col = batch["tokens"]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        lens = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n = len(lens)
        idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        total = int(lens.sum())
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]) if n else np.zeros(0, np.int64)
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        ids = batch["doc_id"]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
        return pa.table(
            {
                "doc_id": ids.take(pa.array(idx)),
                "pos": pa.array(pos),
                "token": pc.list_flatten(arr),
            }
        )

    return ds.map_batches(flat, batch_format="pyarrow")


def _topk_bigrams(packed: np.ndarray, counts: np.ndarray, k: int) -> pa.Table:
    tok = (packed >> 32).astype(np.int64)
    nxt = (packed & 0xFFFFFFFF).astype(np.int64)
    order = np.lexsort((nxt, tok, -counts))[:k]
    return pa.table(
        {
            "token": pa.array(tok[order], type=pa.int64()),
            "next_token": pa.array(nxt[order], type=pa.int64()),
            "n": pa.array(counts[order].astype(np.int64), type=pa.int64()),
        }
    )


def bigram_histogram(ds, k: int = 100, merge_partitions: int = 32) -> pa.Table:
    """Top-k within-document token BIGRAMS: (token, next_token, n),
    ties broken by (token, next_token) ascending — the n-gram LM
    statistics step of a training-data pipeline (unigram sibling:
    `token_histogram`).

    Shape (the token_histogram lesson verbatim): adjacent pairs are
    packed into ONE int64 (token << 32 | next — tokens are int32, so
    the pack is lossless; negative tokens raise loudly since the pack
    assumes non-negative ids), per-batch partial histograms via
    np.unique (pair-vocabulary-sized rows, doc boundaries masked out
    vectorized), a hash-bucketed merge with a CONSTANT group count, and
    a driver merge of <= k x merge_partitions candidates. A bigram's
    global count lives wholly in one bucket, so the top-k is exact."""

    def partial(batch: pa.Table) -> pa.Table:
        values, offsets = tokens_views(batch)
        empty = pa.table(
            {
                "bigram": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
        if len(values) == 0:
            return empty
        if values.min() < 0:
            raise ValueError("bigram_histogram: negative token id breaks the pack")
        # adjacent pairs, excluding each row's last position
        keep = np.ones(len(values) - 1, dtype=bool) if len(values) > 1 else np.zeros(0, bool)
        ends = offsets[1:-1] - 1  # last position of every row but the final one
        keep[ends[(ends >= 0) & (ends < len(keep))]] = False
        # rows of length 0 make duplicate offsets; the mask above only
        # clears valid in-range positions, and a final row's last token
        # has no successor inside `values[:-1]` by construction
        if not keep.any():
            return empty
        a = values[:-1][keep].astype(np.int64)
        b = values[1:][keep].astype(np.int64)
        packed = (a << 32) | b
        uniq, counts = np.unique(packed, return_counts=True)
        return pa.table(
            {
                "bigram": pa.array(uniq),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    def add_bucket(t: pa.Table) -> pa.Table:
        bg = t["bigram"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "part", pa.array((bg % merge_partitions).astype(np.int64))
        )

    def combine_topk(group: pa.Table) -> pa.Table:
        bg = group["bigram"].to_numpy(zero_copy_only=False)
        cnt = group["n"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(bg, return_inverse=True)
        return _topk_bigrams(u, sum_by(inv, cnt, len(u)), k)

    cand = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(combine_topk, batch_format="pyarrow")
        .take_all()
    )
    packed = np.array(
        [(r["token"] << 32) | r["next_token"] for r in cand], dtype=np.int64
    )
    counts = np.array([r["n"] for r in cand], dtype=np.int64)
    return _topk_bigrams(packed, counts, k)
