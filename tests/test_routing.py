"""Bucket routing: the corpus's doc-id hash (`native.doc_hash64`) and
the multiply-shift hash ranges (`encoder.hash_bucket`). Stored plans
name this rule, so the hash values are pinned."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fsst_ray.kernel import native
from fsst_ray.stages.encoder import assign_partitions, hash_bucket

# doc_hash64 of these ids, taken when the rule was introduced
PINNED = {
    "": 0x9CA066F1A4AB2EEA,
    "english-000000005": 0xE5F02B1AC3232580,
    "héllo wörld ✓ long enough string": 0x6C9C6938138FA220,
}


def test_doc_hash64_is_pinned():
    ids = pa.array(list(PINNED))
    assert native.doc_hash64(ids).tolist() == list(PINNED.values())


def test_doc_hash64_ignores_chunking_and_slicing():
    ids = pa.array([f"doc-{i}" for i in range(50)] + list(PINNED))
    want = native.doc_hash64(ids)
    assert native.doc_hash64(pa.chunked_array([ids.slice(0, 7), ids.slice(7)])).tolist() == want.tolist()
    assert native.doc_hash64(ids.slice(13, 20)).tolist() == want[13:33].tolist()
    assert native.doc_hash64(ids.cast(pa.large_string())).tolist() == want.tolist()
    assert native.doc_hash64(pa.chunked_array([], pa.string())).tolist() == []
    with pytest.raises(ValueError, match="nulls"):
        native.doc_hash64(pa.array(["a", None]))


@pytest.mark.parametrize("n", [1, 2, 7, 418, 2**32 - 1])
def test_hash_bucket_is_exact_multiply_shift(n):
    hs = [0, 1, 2**63, 2**64 - 1]
    got = hash_bucket(np.array(hs, dtype=np.uint64), n).tolist()
    assert got == [(h * n) >> 64 for h in hs]
    # one count per hash gives the same buckets
    assert hash_bucket(np.array(hs, dtype=np.uint64), np.full(4, n, np.uint64)).tolist() == got


def test_hash_bucket_refuses_2_pow_32_buckets():
    with pytest.raises(ValueError):
        hash_bucket(np.zeros(1, np.uint64), 2**32)


def _sequential_ids(n: int) -> pa.Array:
    return pc.binary_join_element_wise("doc-", pc.cast(pa.array(np.arange(n)), pa.string()), "")


@pytest.mark.parametrize("n_buckets,n_ids", [(7, 100_000), (418, 6_400_000)])
def test_hash_ranges_are_balanced(n_buckets, n_ids):
    """Sequential ids spread within 5 % of the mean bucket size. At
    n = 418 that takes 6.4M ids (15.3k a bucket, 5 % = 6 binomial sd):
    at 100k ids a bucket holds 239 on average, and 5 % is less than one
    sd, which no well-mixed hash meets."""
    buckets = hash_bucket(native.doc_hash64(_sequential_ids(n_ids)), n_buckets)
    sizes = np.bincount(buckets, minlength=n_buckets)
    mean = n_ids / n_buckets
    assert len(sizes) == n_buckets
    assert np.abs(sizes - mean).max() <= 0.05 * mean, (sizes.min(), sizes.max(), mean)


def test_assign_partitions_states_the_rule():
    """assign_partitions keys each row by hash_bucket of its doc-id hash,
    a tag namespacing the key, and sources missing from the plan get
    one bucket."""
    ids = _sequential_ids(1000)
    batch = pa.table({"doc_id": ids, "source": pa.array(["a", "b"] * 500)})
    out = assign_partitions(batch, {"a": 5}, tag="g2-")
    b = hash_bucket(native.doc_hash64(ids), np.where(np.arange(1000) % 2 == 0, 5, 1))
    want = [f"{s}:g2-{k:05d}" for s, k in zip(batch["source"].to_pylist(), b.tolist())]
    assert out["part_key"].to_pylist() == want
    assert out.column_names == ["doc_id", "source", "part_key"]
