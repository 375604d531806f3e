"""Distributed BPE tokenizer training (Sennrich, Neubig & Birch, ACL
2016 — byte-pair encoding over a word-frequency table).

The scalability insight BPE itself provides: training never needs the
corpus — it needs the WORD FREQUENCY TABLE, which is vocabulary-sized.
So the distributed stage is one corpus pass of word-count partials +
one vocab-sized groupby (the token_histogram shape), and the merge
loop runs over flat numpy arrays of that table on the driver — the
same bounded-by-vocab driver fold the repo already uses for kmeans
(≤k rows/block) and top-k merges. Nothing corpus-sized ever
materializes.

Exact, deterministic semantics (mirrored op-for-op by the SQL oracle):
- pair counts: EVERY adjacent symbol pair inside a word, weighted by
  the word's count; overlapping occurrences all count ("aaa" has
  (a,a) twice).
- best pair per merge: max weighted count, ties broken by the merged
  symbols' STRING forms (count DESC, left ASC, right ASC) — symbols
  are identified by their string, so two merge paths yielding the
  same string are the same symbol (the Sennrich convention).
- rewrite: greedy left-to-right non-overlapping — within each run of
  consecutive matching positions, even offsets merge ("aaaa" ->
  "aa","aa"). Vectorized via run-boundary + offset parity, zero
  per-word Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import sum_by

_MERGES_SCHEMA = {
    "rank": pa.int64(),
    "l_sym": pa.string(),
    "r_sym": pa.string(),
    "new_token": pa.string(),
    "pair_count": pa.int64(),
}


def word_counts(ds, text_col: str = "text"):
    """(word, cnt) over space-split words (empty strings dropped —
    the string_split(text, ' ') convention both engines share):
    per-batch np.unique partials, ONE vocab-sized groupby."""

    def partials(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        words = pc.list_flatten(pc.split_pattern(col, " "))
        words = words.filter(pc.not_equal(words, ""))
        w = words.to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(w, return_inverse=True)
        return pa.table(
            {
                "word": pa.array(uniq, pa.string()),
                "cnt": pa.array(np.bincount(inv).astype(np.int64)),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("word")
        .sum("cnt")
        .map_batches(
            lambda t: t.rename_columns(["word", "cnt"]), batch_format="pyarrow"
        )
    )


def _merge_loop(words: list[str], cnts: np.ndarray, n_merges: int):
    """Vectorized BPE merges over flat symbol arrays; returns the
    merge-table rows. Bounded by total vocab characters."""
    if len(words) == 0:
        return []
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    chars = np.frombuffer("".join(words).encode("utf-32-le"), dtype=np.uint32)
    word_id = np.repeat(np.arange(len(words), dtype=np.int64), lengths)
    uniq_chars, sym = np.unique(chars, return_inverse=True)
    sym = sym.astype(np.int64)
    strs: list[str] = [chr(int(c)) for c in uniq_chars]
    by_str = {s: i for i, s in enumerate(strs)}

    out = []
    for rank in range(n_merges):
        if len(sym) < 2:
            break
        valid = word_id[:-1] == word_id[1:]
        if not valid.any():
            break
        # lossless: symbol ids count the distinct symbols, far below 2^31
        pack = (sym[:-1] << 32) | sym[1:]
        uniq_p, inv = np.unique(pack[valid], return_inverse=True)
        c = sum_by(inv, cnts[word_id[:-1][valid]], len(uniq_p))
        cmax = int(c.max())
        # tie-break on the SYMBOL STRINGS (the SQL oracle's ORDER BY
        # c DESC, l, r), not on internal ids
        cand = np.flatnonzero(c == cmax)
        best_pack = min(
            (int(uniq_p[i]) for i in cand),
            key=lambda p: (strs[p >> 32], strs[p & 0xFFFFFFFF]),
        )
        l_id, r_id = best_pack >> 32, best_pack & 0xFFFFFFFF
        new_str = strs[l_id] + strs[r_id]
        nid = by_str.get(new_str)
        if nid is None:
            nid = len(strs)
            strs.append(new_str)
            by_str[new_str] = nid
        out.append((rank + 1, strs[l_id], strs[r_id], new_str, cmax))

        # greedy non-overlapping rewrite: runs of consecutive matching
        # pair positions merge at even offsets
        m = valid & (pack == best_pack)
        idx = np.flatnonzero(m)
        if len(idx):
            starts = np.ones(len(idx), dtype=bool)
            starts[1:] = np.diff(idx) > 1
            run_start = idx[starts][np.cumsum(starts) - 1]
            keep_idx = idx[(idx - run_start) % 2 == 0]
            sym[keep_idx] = nid
            keep_pos = np.ones(len(sym), dtype=bool)
            keep_pos[keep_idx + 1] = False
            sym = sym[keep_pos]
            word_id = word_id[keep_pos]
    return out


def bpe_train(ds, text_col: str = "text", n_merges: int = 10):
    """Train `n_merges` BPE merges over the corpus; returns a
    pa.Table (rank, left, right, new_token, pair_count). The corpus
    pass is the distributed word count; the merge loop is a
    vocab-bounded driver fold (see module docstring)."""
    import ray

    if n_merges < 1:
        raise ValueError("bpe_train: n_merges must be >= 1")
    wc = word_counts(ds, text_col).materialize()
    blocks = [t for t in ray.get(wc.to_arrow_refs()) if t.num_rows]
    if blocks:
        t = pa.concat_tables(blocks)
        words = t["word"].to_pylist()
        cnts = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        words, cnts = [], np.empty(0, np.int64)
    rows = _merge_loop(words, cnts, n_merges)
    return pa.table(
        {
            name: pa.array([r[i] for r in rows], typ)
            for i, (name, typ) in enumerate(_MERGES_SCHEMA.items())
        }
    )


def _apply_merges(words: list[str], merge_pairs: list[tuple[str, str]]) -> np.ndarray:
    """Token count per word after applying `merge_pairs` in rank order
    (each merge rewritten greedily, the training-time semantics — so a
    trained word reproduces its training segmentation). Vectorized
    over flat symbol arrays: one masked rewrite pass per merge."""
    if not words:
        return np.empty(0, np.int64)
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    chars = np.frombuffer("".join(words).encode("utf-32-le"), dtype=np.uint32)
    word_id = np.repeat(np.arange(len(words), dtype=np.int64), lengths)
    uniq_chars, sym = np.unique(chars, return_inverse=True)
    sym = sym.astype(np.int64)
    strs: list[str] = [chr(int(c)) for c in uniq_chars]
    by_str = {s: i for i, s in enumerate(strs)}

    for l_str, r_str in merge_pairs:
        l_id = by_str.get(l_str)
        r_id = by_str.get(r_str)
        new_str = l_str + r_str
        nid = by_str.get(new_str)
        if nid is None:
            nid = len(strs)
            strs.append(new_str)
            by_str[new_str] = nid
        if l_id is None or r_id is None or len(sym) < 2:
            continue  # merge inputs absent from this batch's alphabet
        valid = word_id[:-1] == word_id[1:]
        m = valid & (sym[:-1] == l_id) & (sym[1:] == r_id)
        idx = np.flatnonzero(m)
        if not len(idx):
            continue
        starts = np.ones(len(idx), dtype=bool)
        starts[1:] = np.diff(idx) > 1
        run_start = idx[starts][np.cumsum(starts) - 1]
        keep_idx = idx[(idx - run_start) % 2 == 0]
        sym[keep_idx] = nid
        keep_pos = np.ones(len(sym), dtype=bool)
        keep_pos[keep_idx + 1] = False
        sym = sym[keep_pos]
        word_id = word_id[keep_pos]
    return np.bincount(word_id, minlength=len(words)).astype(np.int64)


def bpe_apply(ds, merges: pa.Table, text_col: str = "text"):
    """Tokenize with a trained merge table: per doc, the word count and
    the BPE token count after applying every merge in rank order.
    Returns a Dataset (doc_id, n_words, n_bpe_tokens).

    Pure map-side: the merge table (n_merges rows) broadcasts via
    ray.put; each batch deduplicates its words, applies the merges to
    the batch vocabulary with one vectorized rewrite pass per merge,
    and maps per-word token counts back to docs with a bincount —
    zero shuffle, zero per-word Python in the hot path."""
    import ray

    pairs = list(zip(merges["l_sym"].to_pylist(), merges["r_sym"].to_pylist()))
    ref = ray.put(pairs)

    def apply_batch(batch: pa.Table) -> pa.Table:
        mp = ray.get(ref)
        col = batch[text_col]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        lists = pc.split_pattern(col, " ")
        flat = pc.list_flatten(lists)
        keep = pc.not_equal(flat, "")
        words_np = flat.filter(keep).to_numpy(zero_copy_only=False)
        # doc index per surviving word; a null text has no words
        sizes = pc.fill_null(pc.list_value_length(lists), 0).to_numpy(
            zero_copy_only=False
        )
        doc_idx = np.repeat(np.arange(batch.num_rows), sizes)[
            keep.to_numpy(zero_copy_only=False)
        ]
        uniq, inv = np.unique(words_np, return_inverse=True)
        tok_per_word = _apply_merges(uniq.tolist(), mp)
        per_doc_tokens = sum_by(doc_idx, tok_per_word[inv], batch.num_rows)
        per_doc_words = np.bincount(doc_idx, minlength=batch.num_rows).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(per_doc_words),
                "n_bpe_tokens": pa.array(per_doc_tokens),
            }
        )

    return ds.map_batches(apply_batch, batch_format="pyarrow")
