"""Batched linear-model document scoring — the model-inference shape.

A fasttext-style hashed bag-of-words linear classifier run as a Ray
Data actor-pool stage: the weight vector is built ONCE driver-side and
broadcast via `ray.put`; each actor fetches it once in `__init__` (not
per batch); scoring is one vectorized pass per Arrow batch.  This is
the canonical "batched model inference" stage of a training-data
pipeline (quality / toxicity / domain classifiers over 100 TB of
text) with the model swapped for a deterministic linear one so the
result has an EXACT DuckDB oracle:

    bucket(word) = md5_number_upper(word) % n_buckets      (DuckDB-parity)
    weight(b)    = (b * 2654435761) % 1001 - 500           (integer)
    score(doc)   = sum over word OCCURRENCES of weight(bucket(word))

Everything is int64, so the SQL oracle recomputes scores bit-for-bit.

Scale shape (100 TB): zero shuffle — the corpus streams through the
actor pool map-side only; the model is shipped once per actor via the
object store, never per batch.  Word-hash cost is paid on the DISTINCT
words of each batch (dictionary-encode first), at DuckDB's vectorized
md5 speed — the `fingerprint_batch` lesson (textstats.py:219).

Reference scope note: the reference crate (spiraldb/fsst) has no model
scoring; this operator comes from the training-data-pipeline half of
the task brief (batched model inference).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import segment_sum
from .textstats import _fp_con, _word_lists

N_BUCKETS = 4096
# Knuth multiplicative constant; W_MOD chosen odd/prime-ish so bucket
# weights spread over [-500, 500] with no engine-visible float math.
W_MULT = 2654435761
W_MOD = 1001


def make_weights(n_buckets: int = N_BUCKETS) -> np.ndarray:
    """Deterministic int64 weight vector; mirrors the SQL expression
    `(bucket * 2654435761) % 1001 - 500` exactly."""
    b = np.arange(n_buckets, dtype=np.int64)
    return (b * np.int64(W_MULT)) % np.int64(W_MOD) - np.int64(W_MOD // 2)


def _bucket_distinct(words: pa.Array, n_buckets: int) -> np.ndarray:
    """md5-parity bucket per DISTINCT word, computed batch-at-a-time by
    DuckDB's vectorized md5 (identical to the oracle by construction).
    An explicit row index makes the result order-independent of DuckDB's
    scan order."""
    con = _fp_con()
    tbl = pa.table({"i": pa.array(np.arange(len(words), dtype=np.int64)), "w": words})
    con.register("_lm_words", tbl)
    out = con.execute(
        f"SELECT i, CAST(md5_number_upper(w) % {int(n_buckets)} AS BIGINT) AS b "
        "FROM _lm_words"
    ).arrow()
    con.unregister("_lm_words")
    buckets = np.empty(len(words), dtype=np.int64)
    buckets[out["i"].to_numpy()] = out["b"].to_numpy()
    return buckets


def score_batch(batch: pa.Table, weights: np.ndarray, n_buckets: int) -> pa.Table:
    """(doc_id, score, positive) per document — one vectorized pass."""
    words = _word_lists(batch)
    flat = words.flatten()
    n = len(batch)
    score = np.zeros(n, dtype=np.int64)
    if len(flat):
        dict_arr = pc.dictionary_encode(flat)
        buckets = _bucket_distinct(dict_arr.dictionary, n_buckets)
        per_word = weights[buckets][dict_arr.indices.to_numpy(zero_copy_only=False)]
        offsets = np.asarray(words.offsets, dtype=np.int64)
        score = segment_sum(per_word, offsets - offsets[0])
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "score": pa.array(score, type=pa.int64()),
            "positive": pa.array((score > 0).astype(np.int64), type=pa.int64()),
        }
    )


class LinearScorer:
    """Actor-pool stage: the broadcast weight vector is fetched once per
    actor here (NOT per batch); __call__ is pure vectorized scoring."""

    def __init__(self, weights_ref, n_buckets: int = N_BUCKETS):
        import ray

        self.weights = (
            weights_ref
            if isinstance(weights_ref, np.ndarray)
            else ray.get(weights_ref)
        )
        if len(self.weights) != n_buckets:
            raise ValueError(
                f"weight vector has {len(self.weights)} entries, expected {n_buckets}"
            )
        self.n_buckets = n_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        return score_batch(batch, self.weights, self.n_buckets)


def score_documents(ds, n_buckets: int = N_BUCKETS, concurrency=(1, 8)):
    """Score every document with the broadcast linear model.

    `concurrency` sizes the actor pool; the (min, max) autoscaling form
    is the default so the pool never reserves every CPU ahead of the
    upstream read (a fixed pool == session CPU count deadlocks the
    streaming executor: actors hold all slots, the read starves). On a
    cluster set max to nodes x cores_per_stage — the model ships once
    per actor via the object store regardless of batch count.
    """
    import ray

    weights_ref = ray.put(make_weights(n_buckets))
    return ds.map_batches(
        LinearScorer,
        fn_constructor_kwargs={"weights_ref": weights_ref, "n_buckets": n_buckets},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
