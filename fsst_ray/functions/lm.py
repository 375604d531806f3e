"""Statistical language-model document scoring — the classic
perplexity-proxy quality signal (KenLM-style filtering a la CCNet,
Wenzek et al. 2020), here as an EXACT integer word-bigram model so the
oracle recomputes every score.

Model: corpus-wide bigram counts c2(w1, w2) and prefix counts
c1(w1) = Σ_w2 c2(w1, w2); a document's score is

    lm_score = Σ over its bigrams of floor(10^6 * c2 / c1)

i.e. quantized conditional probabilities summed in integers — order-
independent, so the SQL oracle's aggregation order cannot matter (the
bm25 quantize-before-sum convention). High scores = text made of
predictable word transitions; low = unusual/garbled text.

Shape:
- counts: per-batch lexsort partials (batch-distinct bigram rows) ->
  `sum_per_key` folds (the sorted-block aggregate — bigram vocabulary
  scales sublinearly with the corpus but far beyond Ray's built-in
  hash-aggregate comfort), then the two count tables broadcast via
  ray.put with a LOUD size cap — the decontaminate broadcast shape.
  Beyond the cap (≈10^8+ distinct bigrams) the documented alternative
  is a sorted-exchange join keyed on the bigram; the broadcast path is
  the common regime (word-bigram vocabularies plateau).
- scoring: pure map-side — one searchsorted per batch against the
  broadcast tables, per-doc sums via bincount. The corpus never
  shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import group_sizes, group_starts, sum_by

_SCALE = 10**6


def _bigram_rows(batch: pa.Table, text_col: str):
    """(doc_index, w1, w2) numpy arrays for all adjacent word pairs in
    the batch (split on ' ' verbatim — the string_split parity rule,
    empties kept; a null text has no words, as string_split(NULL)
    unnests to nothing)."""
    col = batch[text_col]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lists = pc.split_pattern(col, " ")
    flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
    sizes = pc.fill_null(pc.list_value_length(lists), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64), sizes)
    if len(flat) < 2:
        e = np.empty(0, dtype=object)
        return np.empty(0, np.int64), e, e
    same_doc = doc_of[:-1] == doc_of[1:]
    w1 = flat[:-1][same_doc]
    w2 = flat[1:][same_doc]
    return doc_of[:-1][same_doc], w1, w2


def _join_pairs(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    if len(w1) == 0:
        return np.empty(0, dtype=object)
    a1 = pa.array(w1, pa.string())
    a2 = pa.array(w2, pa.string())
    return pc.binary_join_element_wise(a1, a2, "\x1f").to_numpy(
        zero_copy_only=False
    )


def bigram_lm_score(ds, text_col: str = "text", id_col: str = "doc_id",
                    max_vocab_rows: int = 50_000_000):
    """(doc_id, n_bigrams, lm_score) for every doc with >= 1 bigram.
    Two corpus passes: count partials -> sum_per_key folds -> broadcast;
    then map-side scoring. Raises if either count table exceeds
    `max_vocab_rows` (broadcast bound; see module docstring)."""
    import ray
    import ray.data as rd

    from fsst_ray.functions.graph import sum_per_key

    def count_partials(batch: pa.Table) -> pa.Table:
        _, w1, w2 = _bigram_rows(batch, text_col)
        bg = _join_pairs(w1, w2)
        # batch-distinct partial counts for both tables in one pass;
        # tagged rows ("2:" bigram, "1:" prefix) share one fold
        out_keys = []
        out_cnts = []
        for tag, keys in (("2\x1e", bg), ("1\x1e", w1)):
            if len(keys) == 0:
                continue
            order = np.argsort(keys, kind="stable")
            k = keys[order]
            starts = group_starts(k)
            out_keys.append(np.char.add(tag, k[starts].astype(str)))
            out_cnts.append(group_sizes(starts, len(k)))
        if not out_keys:
            return pa.table(
                {
                    "key": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "key": pa.array(np.concatenate(out_keys), pa.string()),
                "cnt": pa.array(np.concatenate(out_cnts)),
            }
        )

    counts = sum_per_key(
        ds.map_batches(count_partials, batch_format="pyarrow", batch_size=None),
        "key",
        ["cnt"],
    ).materialize()

    blocks = [t for t in ray.get(counts.to_arrow_refs()) if t.num_rows]
    if blocks:
        ct = pa.concat_tables(blocks)
        if ct.num_rows > max_vocab_rows:
            raise ValueError(
                f"bigram_lm_score: {ct.num_rows} count rows exceed the "
                f"broadcast bound max_vocab_rows={max_vocab_rows}; use a "
                "sorted-exchange join variant for this vocabulary size"
            )
        keys = ct["key"].to_numpy(zero_copy_only=False)
        cnts = ct["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        is2 = np.char.startswith(keys.astype(str), "2\x1e")
        bg_keys = np.array([k[2:] for k in keys[is2]], dtype=object)
        bg_cnts = cnts[is2]
        w1_keys = np.array([k[2:] for k in keys[~is2]], dtype=object)
        w1_cnts = cnts[~is2]
        o2 = np.argsort(bg_keys)
        o1 = np.argsort(w1_keys)
        ref = ray.put(
            (bg_keys[o2], bg_cnts[o2], w1_keys[o1], w1_cnts[o1])
        )
    else:
        ref = ray.put(
            (
                np.empty(0, object),
                np.empty(0, np.int64),
                np.empty(0, object),
                np.empty(0, np.int64),
            )
        )

    def score(batch: pa.Table) -> pa.Table:
        bgk, bgc, w1k, w1c = ray.get(ref)
        didx, w1, w2 = _bigram_rows(batch, text_col)
        if len(didx) == 0:
            return pa.table(
                {
                    id_col: batch[id_col].take(pa.array([], pa.int64())),
                    "n_bigrams": pa.array([], pa.int64()),
                    "lm_score": pa.array([], pa.int64()),
                }
            )
        bg = _join_pairs(w1, w2)
        p2 = np.searchsorted(bgk, bg)
        p1 = np.searchsorted(w1k, w1)
        # every bigram of the corpus is in the table by construction
        c2 = bgc[p2]
        c1 = w1c[p1]
        contrib = (_SCALE * c2) // c1
        n_per_doc = np.bincount(didx, minlength=batch.num_rows)
        s_per_doc = sum_by(didx, contrib, batch.num_rows)
        has = np.flatnonzero(n_per_doc > 0)
        return pa.table(
            {
                id_col: batch[id_col].take(pa.array(has)),
                "n_bigrams": pa.array(n_per_doc[has].astype(np.int64)),
                "lm_score": pa.array(s_per_doc[has]),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
