"""Behavioral tests for the training-data operators: planted
near-duplicates must be found; ANN paths agree with brute force."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_with_dups(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(77)
    vocab = [f"w{i}" for i in range(200)]
    rows = []
    for i in range(40):
        words = [vocab[j] for j in rng.integers(0, 200, size=60)]
        rows.append({"doc_id": i, "text": " ".join(words)})
    # plant near-duplicates: copies of doc 0 and doc 1 with tiny edits
    base0 = rows[0]["text"].split(" ")
    base1 = rows[1]["text"].split(" ")
    rows.append({"doc_id": 100, "text": " ".join(base0[:-1] + ["zzz"])})
    rows.append({"doc_id": 101, "text": " ".join(base0)})
    rows.append({"doc_id": 102, "text": " ".join(base1[:-2] + ["yyy", "xxx"])})
    table = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    return rd.from_arrow(table)


def test_minhash_dedup_finds_planted(docs_with_dups):
    from fsst_ray.functions.dedup import minhash_dedup

    out = minhash_dedup(docs_with_dups, jaccard_threshold=0.6).to_pandas()
    clusters = dict(zip(out["doc_id"], out["cluster_id"]))
    assert clusters[100] == 0 and clusters[101] == 0, clusters
    assert clusters[102] == 1
    # non-duplicates stay singleton
    assert clusters[5] == 5 and clusters[17] == 17


def test_simhash_finds_planted(docs_with_dups):
    from fsst_ray.functions.dedup import simhash_near_pairs

    pairs = simhash_near_pairs(docs_with_dups, max_hamming=8).to_pandas()
    got = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 101) in got  # identical text -> hamming 0
    assert (0, 100) in got or (1, 102) in got


@pytest.fixture(scope="module")
def embeddings_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    mat = rng.normal(size=(120, 32)).astype(np.float32)
    mat[100] = mat[0] + rng.normal(scale=0.01, size=32)  # planted near-dup
    rows = [
        {"vec_id": i, "embedding": mat[i].tolist(), "label": 0} for i in range(120)
    ]
    return rd.from_arrow(
        pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32())), ("label", pa.int32())]
            ),
        )
    )


def test_embedding_near_dups(embeddings_ds):
    from fsst_ray.functions.similarity import embedding_near_dups

    pairs = embedding_near_dups(embeddings_ds, threshold=0.98).to_pandas()
    assert (0, 100) in set(zip(pairs["vec_a"], pairs["vec_b"]))


def test_lsh_recalls_top1(embeddings_ds):
    from fsst_ray.functions.similarity import brute_force_topk, lsh_topk

    exact = brute_force_topk(embeddings_ds, query_ids=[0, 5], k=3).to_pandas()
    approx = lsh_topk(embeddings_ds, query_ids=[0, 5], k=3).to_pandas()
    # the planted near-identical vector must be rank 1 for query 0 in both
    top1 = lambda df, q: int(
        df[(df["query_id"] == q) & (df["rank"] == 1)]["neighbor_id"].iloc[0]
    )
    assert top1(exact, 0) == 100
    assert top1(approx, 0) == 100


def test_ivf_recalls_top1(embeddings_ds):
    from fsst_ray.functions.similarity import brute_force_topk, ivf_topk

    exact = brute_force_topk(embeddings_ds, query_ids=[0, 5], k=3).to_pandas()
    approx = ivf_topk(
        embeddings_ds, query_ids=[0, 5], k=3, n_centroids=8, nprobe=4, sample_every=1
    ).to_pandas()
    top1 = lambda df, q: int(
        df[(df["query_id"] == q) & (df["rank"] == 1)]["neighbor_id"].iloc[0]
    )
    # the planted near-identical vector must be rank 1 for query 0
    assert top1(exact, 0) == 100
    assert top1(approx, 0) == 100
    # with nprobe covering half the centroids, overall top-3 recall
    # against brute force should be high
    e = set(map(tuple, exact[["query_id", "neighbor_id"]].itertuples(index=False)))
    a = set(map(tuple, approx[["query_id", "neighbor_id"]].itertuples(index=False)))
    assert len(e & a) >= 4, (e, a)


def test_media_feature_plumbing(ray_session):
    from fsst_ray.functions.multimodal import (
        RealMediaDecoder,
        extract_media_features,
        synthetic_media_dataset,
    )

    feats = extract_media_features(synthetic_media_dataset(50)).take_all()
    assert len(feats) == 50
    f = feats[0]
    assert 16 <= f["width"] <= 512 and 16 <= f["height"] <= 512
    assert len(f["feature"]) == 16
    assert abs(sum(f["feature"]) - 1.0) < 1e-5

    dec = RealMediaDecoder()
    if not dec.available:
        with pytest.raises(NotImplementedError):
            dec.decode(b"xxxx", "image/png")


def test_ngram_jaccard_finds_planted(docs_with_dups):
    from fsst_ray.functions.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(docs_with_dups, threshold=0.8).to_pandas()
    got = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 101) in got  # identical text -> jaccard 1.0
    assert (0, 100) in got  # one word changed in 60 -> jaccard ~0.9
    # unrelated random docs never pair at 0.8
    assert not any(a < 40 and b < 40 for a, b in got)


def test_minhash_pairs_emitted_once(docs_with_dups):
    from fsst_ray.functions.dedup import minhash_pairs

    pairs = minhash_pairs(docs_with_dups, jaccard_threshold=0.6).to_pandas()
    keys = list(zip(pairs["doc_a"], pairs["doc_b"]))
    assert len(keys) == len(set(keys)), "pair emitted by more than one band"
    assert (0, 101) in set(keys)


def test_minhash_pairs_no_per_bucket_dispatch(docs_with_dups):
    """The bucket exchange is a range sort + one vectorized pass per
    block — buckets are overwhelmingly singletons, so a per-bucket
    `map_groups` would pay one Python call per band row (the pattern
    min_per_key's docstring forbids). Pin the executed plan."""
    from fsst_ray.functions.dedup import minhash_pairs

    pairs = minhash_pairs(docs_with_dups, jaccard_threshold=0.6).materialize()
    stats = pairs.stats()
    assert "MapGroups" not in stats and "Aggregate" not in stats, stats


def _pair_set(pairs_ds) -> set:
    t = pairs_ds.to_pandas()
    return set(zip(t["doc_a"], t["doc_b"]))


@pytest.mark.parametrize("threshold", [0.6, 1.0])
def test_minhash_pairs_lean_parity(docs_with_dups, threshold):
    """The lean exchange (16 B/row band rows + candidate-only
    signature recompute) must emit the bit-identical pair set as the
    carry path, at both near-dup and exact thresholds."""
    from fsst_ray.functions.dedup import minhash_pairs, minhash_pairs_lean

    carry = _pair_set(minhash_pairs(docs_with_dups, threshold))
    lean = _pair_set(minhash_pairs_lean(docs_with_dups, threshold))
    assert lean == carry
    if threshold == 0.6:
        assert (0, 101) in lean  # non-vacuous: planted dup found


def test_minhash_pairs_lean_parity_flood_and_random(ray_session):
    """Lean-vs-carry parity on a corpus with a 300-doc identical flood
    (exercises the _pair_blocks fallback inside candidate extraction)
    plus random docs and planted near-dups."""
    import ray.data as rd

    from fsst_ray.functions.dedup import minhash_pairs, minhash_pairs_lean

    rng = np.random.default_rng(5150)
    vocab = [f"t{i}" for i in range(300)]
    rows = [{"doc_id": i, "text": "a b c d e f g h i j"} for i in range(300)]
    for i in range(300, 380):
        words = [vocab[j] for j in rng.integers(0, 300, size=50)]
        rows.append({"doc_id": i, "text": " ".join(words)})
        if i % 9 == 0:  # planted near-dup of the random doc
            rows.append({"doc_id": i + 1000, "text": " ".join(words[:-1] + ["q"])})
    t = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    ds = rd.from_arrow(t)
    carry = _pair_set(minhash_pairs(ds, 0.7))
    lean = _pair_set(minhash_pairs_lean(ds, 0.7))
    assert lean == carry
    assert len(lean) >= 300 * 299 // 2  # the flood pairs all verified


def test_minhash_pairs_lean_no_candidates(ray_session):
    """All-unique corpus: zero candidate pairs -> empty result, no
    second pass, no error."""
    import ray.data as rd

    from fsst_ray.functions.dedup import minhash_pairs_lean

    rows = [{"doc_id": i, "text": f"u{i} v{i} w{i} x{i} y{i}"} for i in range(30)]
    t = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    out = minhash_pairs_lean(rd.from_arrow(t), 0.7)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_a", "doc_b"}


def test_minhash_pairs_lean_candidate_cap(docs_with_dups):
    """Candidate-doc count above max_candidate_docs raises the loud
    documented error instead of an unbounded broadcast."""
    from fsst_ray.functions.dedup import minhash_pairs_lean

    with pytest.raises(ValueError, match="max_candidate_docs"):
        minhash_pairs_lean(docs_with_dups, 0.6, max_candidate_docs=1)


def test_minhash_dedup_lean_exchange_identical(docs_with_dups):
    """minhash_dedup(lean_exchange=True) lands bit-identical cluster
    assignments to the default carry path."""
    from fsst_ray.functions.dedup import minhash_dedup

    base = minhash_dedup(docs_with_dups, jaccard_threshold=0.6).to_pandas()
    lean = minhash_dedup(
        docs_with_dups, jaccard_threshold=0.6, lean_exchange=True
    ).to_pandas()
    b = base.sort_values("doc_id").reset_index(drop=True)
    l = lean.sort_values("doc_id").reset_index(drop=True)
    assert b.equals(l)


def test_simhash_pairs_no_per_bucket_dispatch(docs_with_dups):
    """Same plan pin for the SimHash band exchange."""
    from fsst_ray.functions.dedup import simhash_near_pairs

    pairs = simhash_near_pairs(docs_with_dups, max_hamming=8).materialize()
    stats = pairs.stats()
    assert "MapGroups" not in stats and "Aggregate" not in stats, stats


def _sorted_block(bands: pa.Table) -> pa.Table:
    order = np.argsort(bands["bucket"].to_numpy())
    return bands.take(pa.array(order))


def test_sorted_bucket_pairs_big_group_route_identical():
    """A flood bucket (hundreds of identical docs) routes through the
    per-group `_pair_blocks` fallback; its pairs must be identical to
    the all-small d-loop route, and complete (n*(n-1)/2)."""
    from fsst_ray.functions import dedup

    rows = [{"doc_id": i, "text": "a b c d e f g h i j"} for i in range(300)]
    rows += [{"doc_id": 1000 + i, "text": f"x{i} y{i} z{i} q{i}"} for i in range(20)]
    t = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    blk = _sorted_block(dedup.minhash_bands_batch(t))
    via_big = dedup._sorted_bucket_pairs_block(1.0, big_group=64)(blk)
    via_small = dedup._sorted_bucket_pairs_block(1.0, big_group=1 << 30)(blk)
    pb = set(zip(via_big["doc_a"].to_pylist(), via_big["doc_b"].to_pylist()))
    ps = set(zip(via_small["doc_a"].to_pylist(), via_small["doc_b"].to_pylist()))
    assert pb == ps
    assert len(pb) == 300 * 299 // 2  # every identical pair, exactly once
    assert via_big.num_rows == len(pb), "duplicate emission"


def test_sorted_bucket_pairs_dedups_doc_occurrences():
    """The same (bucket, doc_id) row appearing twice (duplicate corpus
    doc_id) must not pair with itself."""
    from fsst_ray.functions import dedup

    rows = [
        {"doc_id": 7, "text": "a b c d e f"},
        {"doc_id": 7, "text": "a b c d e f"},
        {"doc_id": 9, "text": "p q r s t u"},
    ]
    t = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    blk = _sorted_block(dedup.minhash_bands_batch(t))
    out = dedup._sorted_bucket_pairs_block(0.6)(blk)
    got = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
    assert got == set(), got  # no self pair, no cross pair


def test_sorted_bucket_pairs_cross_orientation_and_sides():
    """cross=True: only side0xside1 pairs, oriented doc_a=train,
    doc_b=eval, even when ids collide across sides."""
    from fsst_ray.functions import dedup

    text = "m n o p q r s t u v"
    train = pa.Table.from_pylist(
        [{"doc_id": 3, "text": text}, {"doc_id": 4, "text": text}],
        schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
    )
    ev = pa.Table.from_pylist(
        [{"doc_id": 3, "text": text}],  # id collides with train's
        schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
    )
    bt = dedup.minhash_bands_batch(train)
    be = dedup.minhash_bands_batch(ev)
    tagged = pa.concat_tables(
        [dedup._tag_side(0)(bt), dedup._tag_side(1)(be)]
    )
    blk = _sorted_block(tagged)
    out = dedup._sorted_bucket_pairs_block(1.0, cross=True)(blk)
    got = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
    # train 3 x eval 3 and train 4 x eval 3 — never train 3 x train 4
    assert got == {(3, 3), (4, 3)}, got


def test_ivf_disk_index_partition_pruned_search(embeddings_ds, tmp_path):
    from fsst_ray.functions.similarity import brute_force_topk, ivf_build, ivf_search

    idx = str(tmp_path / "ivf")
    cents = ivf_build(embeddings_ds, idx, n_centroids=8, sample_every=1)
    assert cents.shape == (8, 32)
    q_rows = pa.Table.from_pylist(
        [r for r in embeddings_ds.take_all() if r["vec_id"] in (0, 5)]
    )
    # exhaustive probe == exact
    exact = brute_force_topk(embeddings_ds, query_ids=[0, 5], k=3).to_pandas()
    full = ivf_search(idx, q_rows, k=3, nprobe=8).to_pandas()
    assert full.equals(exact), (full, exact)
    # pruned probe still finds the planted near-identical twin
    pruned = ivf_search(idx, q_rows, k=3, nprobe=3).to_pandas()
    top1 = int(
        pruned[(pruned["query_id"] == 0) & (pruned["rank"] == 1)]["neighbor_id"].iloc[0]
    )
    assert top1 == 100


def test_frame_sampling_and_resize(ray_session):
    from fsst_ray.functions.multimodal import (
        extract_media_features,
        resize_media,
        sample_frames,
        synthetic_media_dataset,
    )

    media = synthetic_media_dataset(30)
    frames = sample_frames(media, frame_bytes=256, stride=4).take_all()
    # every sampled frame_no is a stride multiple and < n_frames
    assert frames, "no frames sampled"
    for f in frames:
        assert f["frame_no"] % 4 == 0 and f["frame_no"] < f["n_frames"]
        assert len(f["frame"]) == 256
    # per-media counts = ceil(n_frames / stride)
    from collections import Counter

    per = Counter(f["media_id"] for f in frames)
    nf = {f["media_id"]: f["n_frames"] for f in frames}
    for mid, count in per.items():
        assert count == -(-nf[mid] // 4)

    # resize halves header dims and shrinks payload; features still flow
    resized = extract_media_features(resize_media(media, factor=2)).take_all()
    orig = {f["media_id"]: f for f in extract_media_features(media).take_all()}
    for r in resized:
        o = orig[r["media_id"]]
        assert r["width"] == o["width"] // 2 and r["height"] == o["height"] // 2
        assert r["n_bytes"] <= o["n_bytes"] // 2 + 9


def test_jsonl_documents_source(ray_session, tmp_path):
    """JSONL ingestion normalizes to the documents schema and feeds the
    operators directly; rows without doc_id get stable content-hash
    ids."""
    import json as _json

    from fsst_ray.functions.dedup import exact_dedup
    from fsst_ray.sources.documents import read_documents_jsonl

    f = tmp_path / "docs.jsonl"
    rows = [
        {"doc_id": 1, "text": "the cat sat", "lang": "en"},
        {"doc_id": 2, "text": "the cat sat"},          # exact dup of 1
        {"doc_id": 3, "text": "unrelated words here", "source": "web"},
        {"text": "no id assigned"},                     # hash-assigned id
    ]
    f.write_text("\n".join(_json.dumps(r) for r in rows))

    ds = read_documents_jsonl(str(f))
    got = {r["doc_id"]: r for r in ds.take_all()}
    assert got[1]["lang"] == "en" and got[3]["source"] == "web"
    hashed = [d for d in got if d not in (1, 2, 3)]
    assert len(hashed) == 1 and got[hashed[0]]["text"] == "no id assigned"
    # stable across a second read
    again = {r["doc_id"] for r in read_documents_jsonl(str(f)).take_all()}
    assert set(got) == again

    winners = exact_dedup(ds).to_pandas()
    assert 1 in set(winners["doc_id"]) and 2 not in set(winners["doc_id"])


# ---------------- hot-key memory bounds (VERDICT r2 items 2-3) ----------------


def _posting_group(n: int) -> pa.Table:
    """Synthetic single-shingle posting list of n docs."""
    return pa.table(
        {
            "shingle": pa.array(np.zeros(n, dtype=np.int64)),
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "n_shingles": pa.array(np.full(n, 57, dtype=np.int64)),
        }
    )


def test_shingle_blocked_pairs_match_triu():
    """Blocked emission is exactly the upper triangle."""
    from fsst_ray.functions.dedup import _shingle_group_pairs

    n = 317
    out = _shingle_group_pairs(df_cap=1024)(_posting_group(n))
    ia, ib = np.triu_indices(n, k=1)
    assert out.num_rows == n * (n - 1) // 2
    assert np.array_equal(out["doc_a"].to_numpy(), ia)
    assert np.array_equal(out["doc_b"].to_numpy(), ib)


def test_hot_shingle_10k_df_bounded_memory():
    """A shingle with 10k document frequency must not explode: the
    default df_cap drops it (stopword-like), so the group completes in
    O(1) memory instead of emitting ~50M pairs."""
    import tracemalloc

    from fsst_ray.functions.dedup import _shingle_group_pairs

    group = _posting_group(10_000)
    fn = _shingle_group_pairs(df_cap=1 << 12)  # the default
    tracemalloc.start()
    out = fn(group)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert out.num_rows == 0
    assert peak < 8 * 1024 * 1024, f"peak {peak} bytes"


def test_hot_shingle_blocked_emission_bounded_working_set():
    """Above-default cap: the blocked path's transient working set
    stays near the inherent output size (no n x n mask matrix)."""
    import tracemalloc

    from fsst_ray.functions.dedup import _shingle_group_pairs

    n = 3000  # 4.5M pairs -> ~144 MB inherent output
    group = _posting_group(n)
    fn = _shingle_group_pairs(df_cap=4096)
    tracemalloc.start()
    out = fn(group)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert out.num_rows == n * (n - 1) // 2
    # inherent output = 4 int64 cols; allow 3x for transients
    budget = 3 * 4 * 8 * out.num_rows
    assert peak < budget, f"peak {peak} > budget {budget}"


def test_ngram_jaccard_hot_shingle_end_to_end(ray_session):
    """A corpus-wide hot shingle is capped away; planted near-dups are
    still found through their non-hot shingles."""
    import ray.data as rd

    from fsst_ray.functions.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(3)
    rows = []
    for i in range(400):
        uniq = " ".join(f"u{i}_{j}" for j in range(8))
        rows.append({"doc_id": i, "text": f"common hot shingle {uniq}"})
    rows.append({"doc_id": 900, "text": rows[0]["text"]})  # planted dup
    ds = rd.from_arrow(
        pa.Table.from_pylist(
            rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
        )
    )
    pairs = ngram_jaccard_pairs(ds, threshold=0.8, df_cap=64).to_pandas()
    got = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 900) in got
    # no false positives from the hot shingle alone
    assert all(a == 0 and b == 900 for a, b in got)


def test_embedding_hot_bucket_20k_bounded_memory():
    """All 20k vectors in ONE bucket (the near-dup hot case): the
    blocked verifier must not allocate the n x n similarity matrix
    (3.2 GB at n=20k); peak stays under a block-sized budget."""
    import tracemalloc

    from fsst_ray.functions.similarity import _near_dup_bucket_pairs

    rng = np.random.default_rng(5)
    n, dim = 20_000, 16
    mat = rng.normal(size=(n, dim)).astype(np.float32)
    mat[19_999] = mat[0] * 1.001  # planted twin
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    mat = mat / norms
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32) * dim, type=pa.int32()),
        pa.array(mat.reshape(-1), type=pa.float32()),
    )
    codes = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32), type=pa.int32()),
        pa.array(np.zeros(n, dtype=np.int64), type=pa.int64()),
    )
    group = pa.table(
        {
            "bucket": pa.array(["0:0"] * n, type=pa.string()),
            "table_no": pa.array(np.zeros(n, dtype=np.int64)),
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": emb,
            "codes": codes,
        }
    )
    fn = _near_dup_bucket_pairs(threshold=0.98, n_tables=1)
    tracemalloc.start()
    out = fn(group)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    got = {(a, b) for a, b in zip(out["vec_a"].to_pylist(), out["vec_b"].to_pylist())}
    assert (0, 19_999) in got
    # full matrix would be n*n*8 = 3.2 GB; budget covers the float64
    # copy of the bucket (2.5 MB) + one ~33 MB block + transients
    assert peak < 700 * 1024 * 1024, f"peak {peak} bytes"


def test_stratified_sample_deterministic_and_nested(ray_session):
    """Rates honored per stratum, rate=0 drops a source entirely, and
    raising a rate only ADDS docs (nested samples, shared hash)."""
    import ray.data as rd

    from fsst_ray.functions.curate import stratified_sample

    tbl = pa.table(
        {
            "doc_id": pa.array(range(400), type=pa.int64()),
            "source": pa.array(
                ["a", "b", "c", "d"] * 100, type=pa.string()
            ),
        }
    )
    out = stratified_sample(
        rd.from_arrow(tbl), rates_bp={"a": 10000, "b": 0}, default_bp=2000
    ).to_pandas()
    by_src = out.groupby("source")["doc_id"].apply(set).to_dict()
    assert len(by_src.get("a", set())) == 100  # 100% kept
    assert "b" not in by_src  # 0% kept
    # determinism: second run identical
    out2 = stratified_sample(
        rd.from_arrow(tbl), rates_bp={"a": 10000, "b": 0}, default_bp=2000
    ).to_pandas()
    assert sorted(out.doc_id) == sorted(out2.doc_id)
    # nestedness: raising c's rate keeps every previously-sampled c doc
    up = stratified_sample(
        rd.from_arrow(tbl), rates_bp={"a": 10000, "b": 0, "c": 6000}, default_bp=2000
    ).to_pandas()
    up_c = set(up[up.source == "c"].doc_id)
    assert by_src.get("c", set()) <= up_c
    assert len(up_c) > len(by_src.get("c", set()))


def test_decontaminate_flags_overlap(ray_session):
    """Eval doc (id 0, % 97 == 0) contaminates a training doc that
    copies one of its 3-grams; disjoint training docs keep=True; eval
    docs themselves are excluded from the output."""
    import ray.data as rd

    from fsst_ray.functions.curate import decontaminate

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma delta"},  # eval set
        {"doc_id": 1, "text": "zeta eta theta iota kappa"},  # clean
        {"doc_id": 2, "text": "xx alpha beta gamma yy"},  # shares a 3-gram
        {"doc_id": 97, "text": "unrelated eval doc here"},  # eval set
        {"doc_id": 3, "text": "unrelated eval doc here"},  # exact copy of eval
    ]
    tbl = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    out = decontaminate(rd.from_arrow(tbl), eval_mod=97, min_hits=1).to_pandas()
    got = {int(r.doc_id): (int(r.n_hits), bool(r.keep)) for r in out.itertuples()}
    assert set(got) == {1, 2, 3}  # eval docs 0 and 97 excluded
    assert got[1] == (0, True)
    assert got[2][0] >= 1 and got[2][1] is False
    assert got[3][0] >= 1 and got[3][1] is False


def test_sig_matrix_fast_path_engages_on_large_binary():
    """ADVICE r3: large_binary offsets are int64; reading them as int32
    made widths look non-constant so the vectorized reshape never ran.
    Assert the fast path engages (fallback np.stack forbidden) and the
    result matches the written matrix, including on a sliced column."""
    from unittest import mock

    from fsst_ray.functions import dedup

    words = dedup._MINHASH_PERMS + 1
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 2**63, size=(17, words), dtype=np.uint64)
    row_bytes = words * 8
    raw = mat.tobytes()
    col = pa.array(
        [raw[i * row_bytes : (i + 1) * row_bytes] for i in range(17)],
        type=pa.large_binary(),
    )
    with mock.patch.object(np, "stack", side_effect=AssertionError("fallback engaged")):
        out = dedup._sig_matrix(col)
        out_sliced = dedup._sig_matrix(col.slice(3, 10))
    assert out.shape == (17, words) and (out == mat).all()
    assert out_sliced.shape == (10, words) and (out_sliced == mat[3:13]).all()


def test_top_quality_docs_driver_merge_bounded(ray_session):
    """VERDICT r3 weak item 1: the driver must collect at most
    k x merge_partitions candidate rows no matter how many blocks the
    corpus has, and the bounded two-level merge must still return the
    exact global top-k."""
    import ray.data as rd

    from fsst_ray.functions.curate import _topk_candidates, top_quality_docs
    from fsst_ray.functions.textstats import quality_batch

    rng = np.random.default_rng(5)
    rows = [
        {
            "doc_id": i,
            "text": " ".join(
                f"w{j}" for j in rng.integers(0, 50, size=int(rng.integers(3, 40)))
            ),
        }
        for i in range(400)
    ]
    tbl = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    ds = rd.from_arrow(tbl).repartition(40)  # many blocks
    k, m = 7, 4
    cand = _topk_candidates(ds, k, m)
    assert len(cand) <= k * m, (len(cand), k * m)

    out = top_quality_docs(ds, k=k, merge_partitions=m)
    q = quality_batch(tbl)
    ids = q["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    quality = q["quality"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, -quality))[:k]
    assert out["doc_id"].to_pylist() == list(ids[order])
    assert out["quality"].to_pylist() == list(quality[order])


def test_fingerprint_batch_matches_hashlib():
    """Pin the fingerprint semantics independently of DuckDB: first 8
    md5 digest bytes little-endian, sign bit masked."""
    import hashlib

    from fsst_ray.functions.textstats import fingerprint_batch

    texts = ["", "a", "hello world", "café au lait", "x" * 1000]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    out = fingerprint_batch(tbl)
    got = dict(zip(out["doc_id"].to_pylist(), out["fingerprint"].to_pylist()))
    for i, t in enumerate(texts):
        want = (
            int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little")
            & 0x7FFFFFFFFFFFFFFF
        )
        assert got[i] == want, (i, t)


def test_hot_shingle_streaming_chunks_o_maxpairs_memory():
    """VERDICT r3 item 6 tightened: consuming the STREAMING chunk
    generator over a hot shingle must peak at O(max_pairs), far below
    the aggregate pair output (~144 MB here), because no per-group
    preallocation exists anymore."""
    import tracemalloc

    from fsst_ray.functions.dedup import _shingle_group_pair_chunks

    n = 3000  # 4.5M pairs -> ~144 MB if materialized at once
    group = _posting_group(n)
    gen = _shingle_group_pair_chunks(df_cap=4096, max_pairs=1 << 16)
    tracemalloc.start()
    total = 0
    for t in gen(group):
        total += t.num_rows
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert total == n * (n - 1) // 2
    # per-chunk working set: ~max_pairs rows x 4 cols x 8 B (~2 MB),
    # plus transients; 32 MB is <1/4 of the materialized output
    assert peak < 32 * 1024 * 1024, f"peak {peak} bytes"


def test_streaming_group_map_matches_map_groups(ray_session):
    """The sort+generator group map must produce exactly the pairs the
    one-batch-per-group path produces."""
    import ray.data as rd

    from fsst_ray.functions.dedup import (
        _PAIR_EMPTY,
        _shingle_group_pair_chunks,
        _shingle_group_pairs,
        _sorted_group_map_streaming,
    )

    rng = np.random.default_rng(9)
    n_rows = 5000
    tbl = pa.table(
        {
            "shingle": pa.array(rng.integers(0, 40, size=n_rows), type=pa.int64()),
            "doc_id": pa.array(rng.permutation(n_rows), type=pa.int64()),
            "n_shingles": pa.array(np.full(n_rows, 7), type=pa.int64()),
        }
    )
    ds = rd.from_arrow(tbl).repartition(8)
    got = _sorted_group_map_streaming(
        ds, "shingle", _shingle_group_pair_chunks(df_cap=1 << 12), _PAIR_EMPTY
    ).to_pandas()
    want = (
        rd.from_arrow(tbl)
        .groupby("shingle")
        .map_groups(_shingle_group_pairs(1 << 12), batch_format="pyarrow")
        .to_pandas()
    )
    key = ["doc_a", "doc_b", "n_a", "n_b"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.equals(want), (len(got), len(want))


def test_redact_pii_edge_cases():
    """Counts and replacements on hand-built texts, including adjacent
    matches, empty strings, and an email whose domain is not an IP."""
    from fsst_ray.functions.textstats import redact_pii_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "mail a.b-c%d@sub.example.org now",
                    "ips 1.2.3.4 10.20.30.40 done",
                    "",
                    "user@10.0.0.1",  # not an email (numeric TLD) -> IP redacted
                    "plain text only",
                ]
            ),
        }
    )
    out = redact_pii_batch(batch)
    assert out["n_email"].to_pylist() == [1, 0, 0, 0, 0]
    assert out["n_ip"].to_pylist() == [0, 2, 0, 1, 0]
    assert out["clean_text"].to_pylist() == [
        "mail <EMAIL> now",
        "ips <IP> <IP> done",
        "",
        "user@<IP>",
        "plain text only",
    ]


def test_plant_pii_then_redact_roundtrip():
    """Planted docs (doc_id % 13 == 0) gain exactly one email and one
    IP; unplanted docs are untouched."""
    from fsst_ray.functions.textstats import plant_pii_batch, redact_pii_batch

    ids = list(range(30))
    batch = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array([f"doc body {i}" for i in ids]),
        }
    )
    out = redact_pii_batch(plant_pii_batch(batch))
    for i, ne, ni, ct in zip(
        ids,
        out["n_email"].to_pylist(),
        out["n_ip"].to_pylist(),
        out["clean_text"].to_pylist(),
    ):
        if i % 13 == 0:
            assert (ne, ni) == (1, 1), i
            assert ct == f"doc body {i} contact <EMAIL> at <IP>", ct
        else:
            assert (ne, ni) == (0, 0), i
            assert ct == f"doc body {i}"


def test_repetition_stats_edge_cases():
    """Bigram repetition on empty / single-word / fully-repeated docs."""
    from fsst_ray.functions.textstats import repetition_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                ["a b a b c", "x", "", "a a a a", "q w e r t y"]
            ),
        }
    )
    out = repetition_batch(batch)
    assert out["n_bigrams"].to_pylist() == [4, 0, 0, 3, 5]
    assert out["n_distinct_bigrams"].to_pylist() == [3, 0, 0, 1, 5]
    assert out["dup_pct"].to_pylist() == [25, 0, 0, 66, 0]


def test_shuffle_order_is_permutation_and_stable(ray_session):
    """pos is exactly 0..n-1, deterministic across runs, and invariant
    to input block layout (repartition before the call)."""
    import ray.data as rd

    from fsst_ray.functions.curate import shuffle_order

    tbl = pa.table({"doc_id": pa.array(range(500), type=pa.int64())})
    a = shuffle_order(rd.from_arrow(tbl)).to_pandas().sort_values("doc_id")
    assert sorted(a["pos"]) == list(range(500))
    # not the identity order (it's a shuffle)
    assert list(a["pos"]) != list(range(500))
    b = (
        shuffle_order(rd.from_arrow(tbl).repartition(7))
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(a["pos"]) == list(b["pos"])


def test_hash_join_multiplicities_and_antijoin_drops(ray_session):
    """Inner-join semantics: m x n cross product per key, keys present
    on only one side produce no rows."""
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 2, 3], type=pa.int64()),
            "lv": pa.array(["a", "b", "c", "d"]),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 1, 2, 4], type=pa.int64()),
            "rv": pa.array([10, 20, 30, 40], type=pa.int64()),
        }
    )
    out = (
        hash_join(rd.from_arrow(left), rd.from_arrow(right), "k", "rk")
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    # key 1: 2x2 rows, key 2: 1x1, keys 3 and 4: dropped
    assert list(out["k"]) == [1, 1, 1, 1, 2]
    assert list(out["lv"]) == ["a", "a", "b", "b", "c"]
    assert list(out["rv"]) == [10, 20, 10, 20, 30]


def test_hash_join_rejects_column_collision(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    t = pa.table({"k": pa.array([1], type=pa.int64()), "v": pa.array([1], type=pa.int64())})
    with pytest.raises(AssertionError, match="collision"):
        hash_join(rd.from_arrow(t), rd.from_arrow(t.rename_columns(["k2", "v"])), "k", "k2")


def test_dim_lookup_rollup_asserts_fk_integrity(ray_session):
    """A fact key missing from the dimension fails loudly, not silently."""
    import ray.data as rd

    from fsst_ray.functions.relational import dim_lookup_rollup

    supplier = pa.table(
        {
            "s_suppkey": pa.array([1, 2], type=pa.int64()),
            "s_nationkey": pa.array([0, 1], type=pa.int32()),
        }
    )
    nation = pa.table(
        {
            "n_nationkey": pa.array([0, 1], type=pa.int32()),
            "n_name": pa.array(["AAA", "BBB"]),
            "n_regionkey": pa.array([0, 0], type=pa.int32()),
        }
    )
    region = pa.table(
        {"r_regionkey": pa.array([0], type=pa.int32()), "r_name": pa.array(["R0"])}
    )
    fact = pa.table(
        {
            "l_suppkey": pa.array([1, 2, 2, 9], type=pa.int64()),  # 9 missing
            "l_quantity": pa.array([1.0, 2.0, 3.0, 4.0]),
        }
    )
    ds = dim_lookup_rollup(rd.from_arrow(fact), supplier, nation, region)
    with pytest.raises(Exception, match="missing from dimension"):
        ds.to_pandas()

    good = fact.filter(pa.array([True, True, True, False]))
    out = (
        dim_lookup_rollup(rd.from_arrow(good), supplier, nation, region)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    assert list(out["n_name"]) == ["AAA", "BBB"]
    assert list(out["sum_qty"]) == [1, 5]
    assert list(out["n"]) == [1, 2]


def test_asof_join_semantics(ray_session):
    """Latest-at-or-before match per user: inclusive ties, unmatched
    left events drop, matches never cross users."""
    import ray.data as rd

    from fsst_ray.functions.relational import asof_join_events

    us = np.array([0, 0, 0, 0, 1, 1, 2], dtype=np.int64)
    ts = np.array([100, 200, 200, 300, 100, 50, 10], dtype="datetime64[us]")
    et = ["click", "purchase", "click", "purchase", "purchase", "click", "purchase"]
    tbl = pa.table(
        {
            "event_id": pa.array(range(7), type=pa.int64()),
            "ts": pa.array(ts),
            "user_id": pa.array(us, type=pa.int64()),
            "event_type": pa.array(et, type=pa.string()),
        }
    )
    out = (
        asof_join_events(rd.from_arrow(tbl))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # user 0: purchase@200 matches click@200 (inclusive tie, event 2);
    #         purchase@300 matches click@200 (latest prior)
    # user 1: purchase@100 matches click@50 (gap 50)
    # user 2: purchase with no click -> dropped
    assert list(out["event_id"]) == [1, 3, 4]
    assert list(out["match_event_id"]) == [2, 2, 5]
    assert list(out["gap_us"]) == [0, 100, 50]


def test_asof_oracle_precondition_no_ts_ties():
    """The ASOF oracle comparison relies on (user_id, ts) uniqueness in
    the testdata (ties would make engine/oracle pick arbitrary rows)."""
    import duckdb

    n = duckdb.sql(
        "SELECT COUNT(*) FROM (SELECT user_id, ts, COUNT(*) c FROM "
        "'/root/testdata/sf0.01/events.parquet' GROUP BY 1,2 HAVING c>1)"
    ).fetchone()[0]
    assert n == 0


def test_range_join_overlap_and_boundaries(ray_session):
    """Overlapping bands multi-emit; lo inclusive, hi exclusive."""
    import ray.data as rd

    from fsst_ray.functions.relational import range_join_bands

    tbl = pa.table(
        {
            "event_id": pa.array(range(5), type=pa.int64()),
            "value": pa.array([0.0, 7.5, 10.0, 25.0, 99.9]),
        }
    )
    bands = [(0, 0.0, 10.0), (1, 5.0, 25.0), (2, 20.0, 60.0)]
    out = (
        range_join_bands(rd.from_arrow(tbl), bands)
        .to_pandas()
        .sort_values(["event_id", "band_id"])
        .reset_index(drop=True)
    )
    got = list(zip(out["event_id"], out["band_id"]))
    # 0.0 -> band 0 only; 7.5 -> bands 0+1 (overlap); 10.0 -> band 1
    # (hi-exclusive of band 0); 25.0 -> band 2 (hi-exclusive of band 1);
    # 99.9 -> none
    assert got == [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]


def test_kmv_sketch_merge_invariance_and_exact_below_k(ray_session):
    """Bottom-k sketches merge associatively: the result is invariant
    to input block layout; below-k groups report the exact count; the
    above-k estimate lands within 50% of truth at k=32."""
    import ray.data as rd

    from fsst_ray.functions.sketch import kmv_distinct

    rng = np.random.default_rng(5)
    # group "big": 1000 distinct keys, repeated; group "small": 7 keys
    big = rng.integers(0, 1000, size=5000)
    small = rng.integers(5000, 5007, size=200)
    tbl = pa.table(
        {
            "k": pa.array(np.concatenate([big, small]), type=pa.int64()),
            "g": pa.array(["big"] * 5000 + ["small"] * 200, type=pa.string()),
        }
    )
    a = (
        kmv_distinct(rd.from_arrow(tbl), "k", "g", k=32)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    b = (
        kmv_distinct(rd.from_arrow(tbl).repartition(13), "k", "g", k=32)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert a.equals(b)
    small_row = a[a.g == "small"].iloc[0]
    assert small_row["est_distinct"] == len(np.unique(small))  # exact below k
    assert small_row["n_hashes"] == len(np.unique(small))
    big_row = a[a.g == "big"].iloc[0]
    true_big = len(np.unique(big))
    assert big_row["n_hashes"] == 32
    assert 0.5 * true_big < big_row["est_distinct"] < 1.5 * true_big


def test_hash_join_hot_key_chunked_emission(ray_session):
    """A hot key's cross product (600 x 400 = 240k rows) streams out in
    chunk_rows slices and is complete and exact."""
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    left = pa.table(
        {
            "k": pa.array([7] * 600 + [8], type=pa.int64()),
            "lv": pa.array(list(range(600)) + [0], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([7] * 400 + [9], type=pa.int64()),
            "rv": pa.array(list(range(400)) + [0], type=pa.int64()),
        }
    )
    out = hash_join(
        rd.from_arrow(left), rd.from_arrow(right), "k", "rk", chunk_rows=1 << 10
    ).to_pandas()
    assert len(out) == 600 * 400
    assert set(out["k"]) == {7}
    assert out["lv"].value_counts().eq(400).all()
    assert out["rv"].value_counts().eq(600).all()


def test_min_per_key_vectorized_reducer(ray_session):
    """min_per_key returns the min-order row per key with exact counts,
    invariant to block layout."""
    import ray.data as rd

    from fsst_ray.functions.dedup import min_per_key

    tbl = pa.table(
        {
            "k": pa.array(["b", "a", "b", "c", "a", "b"], type=pa.string()),
            "doc_id": pa.array([5, 2, 3, 9, 1, 4], type=pa.int64()),
            "v": pa.array([50, 20, 30, 90, 10, 40], type=pa.int64()),
        }
    )
    out = (
        min_per_key(rd.from_arrow(tbl).repartition(3), "k", "doc_id", counts_col="n")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out["k"]) == ["a", "b", "c"]
    assert list(out["doc_id"]) == [1, 3, 9]
    assert list(out["v"]) == [10, 30, 90]
    assert list(out["n"]) == [2, 3, 1]


# ---------------- Bloom blocklist anti-join ----------------


def test_bloom_no_false_negatives_and_prunes(ray_session):
    from fsst_ray.functions.curate import _bloom_test, build_bloom

    import ray.data as rd

    rng = np.random.default_rng(9)
    members = rng.integers(0, 1 << 62, 500, dtype=np.int64)
    others = rng.integers(0, 1 << 62, 20000, dtype=np.int64)
    others = others[~np.isin(others, members)]
    bits = build_bloom(
        rd.from_arrow(pa.table({"fp": pa.array(members)})), n_bits=1 << 16
    )
    assert _bloom_test(bits, members.astype(np.uint64), 7).all()  # no FN ever
    fp_rate = _bloom_test(bits, others.astype(np.uint64), 7).mean()
    assert fp_rate < 0.01, fp_rate  # pruning engages: ~0.1% expected


def test_blocklist_filter_exact_anti_join(ray_session):
    import ray.data as rd

    from fsst_ray.functions.curate import blocklist_filter
    from fsst_ray.functions.textstats import fingerprint_batch

    docs = pa.table(
        {
            "doc_id": pa.array(range(200), pa.int64()),
            "text": pa.array(
                # ids 0..99 unique text; 100..199 duplicate 0..99's text
                [f"doc body {i % 100} lorem" for i in range(200)]
            ),
        }
    )
    ds = rd.from_arrow(docs)

    def blk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.take(pa.array(np.flatnonzero(ids % 10 == 3)))
        return pa.table({"fp": fingerprint_batch(sub)["fingerprint"]})

    out = blocklist_filter(ds, ds.map_batches(blk, batch_format="pyarrow"))
    got = sorted(out.to_pandas()["doc_id"])
    # blocked fingerprints cover ids =3 mod 10 AND their text twins
    want = sorted(i for i in range(200) if i % 10 != 3)
    assert got == want


def test_blocklist_filter_empty_blocklist(ray_session):
    import ray.data as rd

    from fsst_ray.functions.curate import blocklist_filter

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(20), pa.int64()),
                "text": pa.array([f"t {i}" for i in range(20)]),
            }
        )
    )
    empty = rd.from_arrow(pa.table({"fp": pa.array([], pa.int64())}))
    got = sorted(blocklist_filter(ds, empty).to_pandas()["doc_id"])
    assert got == list(range(20))


def test_quantize_embeddings_error_bound_and_layout(ray_session):
    import ray.data as rd

    from fsst_ray.functions.similarity import (
        _minmax_stats,
        dequantize_codes,
        quantize_embeddings,
    )

    rng = np.random.default_rng(5)
    n, dim = 300, 16
    mat = rng.normal(size=(n, dim)).astype(np.float32)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [row.tolist() for row in mat], pa.list_(pa.float32())
                ),
            }
        )
    )
    out = quantize_embeddings(ds).to_pandas().sort_values("vec_id")
    codes = np.frombuffer(b"".join(out["codes"]), dtype=np.uint8).reshape(n, dim)
    mn, mx = _minmax_stats(ds)
    scale = (mx - mn) / 255.0
    # reconstruction error <= scale/2 per dim (the int8 quantizer bound)
    err = np.abs(dequantize_codes(codes, mn, scale) - mat.astype(np.float64))
    assert (err <= scale / 2 + 1e-12).all()
    # checksums match the code bytes
    assert (out["code_sum"].to_numpy() == codes.sum(axis=1)).all()
    w = np.arange(1, dim + 1)
    assert (out["code_wsum"].to_numpy() == (codes.astype(np.int64) * w).sum(axis=1)).all()
    # extremes hit the rails
    assert codes.min() == 0 and codes.max() == 255


def test_fuzzy_decontaminate_cross_side_only(ray_session):
    import ray.data as rd

    from fsst_ray.functions.dedup import cross_minhash_pairs, fuzzy_decontaminate

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(300)]
    mk = lambda: " ".join(vocab[j] for j in rng.integers(0, 300, size=80))
    train_rows, eval_rows = [], []
    for i in range(30):
        train_rows.append({"doc_id": i, "text": mk()})
    for i in range(5):
        eval_rows.append({"doc_id": i, "text": mk()})  # ids COLLIDE with train
    # near-dup of eval doc 2 planted in train as doc 20 (tiny edit)
    ew = eval_rows[2]["text"].split(" ")
    train_rows[20]["text"] = " ".join(ew[:-1] + ["zz"])
    # exact dup of eval doc 3 planted in train as doc 21
    train_rows[21]["text"] = eval_rows[3]["text"]
    # two train docs that are near-dups of EACH OTHER but of no eval doc
    train_rows[25]["text"] = train_rows[24]["text"]
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    train = rd.from_arrow(pa.Table.from_pylist(train_rows, schema=schema))
    ev = rd.from_arrow(pa.Table.from_pylist(eval_rows, schema=schema))

    pairs = cross_minhash_pairs(train, ev, jaccard_threshold=0.6).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (20, 2) in got and (21, 3) in got
    # train x train near-dups (24, 25) never emitted; doc_a is always train-side
    assert all(b in range(5) for _, b in got)
    assert not any({a, b} == {24, 25} for a, b in got)

    out = fuzzy_decontaminate(train, ev, jaccard_threshold=0.6).to_pandas()
    flags = dict(zip(out["doc_id"], out["keep"]))
    assert len(flags) == 30
    assert flags[20] is False or flags[20] == False  # noqa: E712
    assert not flags[21]
    assert flags[24] and flags[25]  # in-train dups are NOT contamination


def test_consistent_sample_nests_and_is_stable(ray_session):
    import ray.data as rd

    from fsst_ray.functions.curate import consistent_sample

    docs = pa.table({"doc_id": pa.array(range(1000), pa.int64())})
    ds = rd.from_arrow(docs)
    s50 = set(consistent_sample(ds, k=50)["doc_id"].to_pylist())
    s200 = set(consistent_sample(ds, k=200)["doc_id"].to_pylist())
    assert len(s50) == 50 and len(s200) == 200
    assert s50 <= s200  # nesting: smaller budgets are subsets
    # stable under repartition
    s50b = set(consistent_sample(ds.repartition(7), k=50)["doc_id"].to_pylist())
    assert s50b == s50


def test_hash_join_left_outer(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    left = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 3], pa.int64()),
                  "lv": pa.array(["a", "b", "c", "d"])})
    )
    right = rd.from_arrow(
        pa.table({"rk": pa.array([1, 1, 3], pa.int64()),
                  "rv": pa.array([10, 11, 30], pa.int64())})
    )
    out = (
        hash_join(left, right, "k", "rk", how="left")
        .to_pandas()
        .sort_values(["k", "lv", "rv"], na_position="first")
        .reset_index(drop=True)
    )
    got = list(zip(out["k"], out["lv"], [None if v != v else int(v) for v in out["rv"]]))
    want = [
        (1, "a", 10), (1, "a", 11),
        (2, "b", None),           # unmatched left keeps one null row
        (3, "c", 30), (3, "d", 30),
    ]
    assert got == want

    # inner drops the unmatched key
    inner = hash_join(left, right, "k", "rk", how="inner").to_pandas()
    assert set(inner["k"]) == {1, 3} and len(inner) == 4

    # empty right side: left join yields all-left with nulls
    empty_r = rd.from_arrow(pa.table({"rk": pa.array([], pa.int64()),
                                      "rv": pa.array([], pa.int64())}))
    allnull = hash_join(left, empty_r, "k", "rk", how="left").to_pandas()
    assert len(allnull) == 4 and allnull["rv"].isna().all()


def test_kmeans_codes_invariants(ray_session):
    import ray.data as rd

    from fsst_ray.functions.similarity import kmeans_codes

    rng = np.random.default_rng(21)
    n, dim, k = 240, 12, 6
    # three planted gaussian blobs -> k-means should separate them
    centers = rng.normal(scale=4.0, size=(3, dim))
    mat = np.concatenate(
        [c + rng.normal(scale=0.15, size=(n // 3, dim)) for c in centers]
    ).astype(np.float32)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float32())),
            }
        )
    )
    out = kmeans_codes(ds, k=k, iters=3).to_pandas().sort_values("vec_id")
    assert len(out) == n
    assert out["cluster"].nunique() <= k
    # Lloyd monotonicity: more iterations never worsen the total
    # within-cluster distance (init is rank-based, not kmeans++, so
    # perfect blob separation is NOT guaranteed — determinism is)
    d1 = kmeans_codes(ds, k=k, iters=1).to_pandas()["dist"].sum()
    d3 = out["dist"].sum()
    assert d3 <= d1
    # the planted blobs are far apart, so distances must collapse a lot
    assert d3 < d1 * 0.5, (d1, d3)

    # deterministic under repartition (map partials + integer updates)
    out2 = kmeans_codes(ds.repartition(7), k=k, iters=3).to_pandas().sort_values("vec_id")
    assert (out2["cluster"].to_numpy() == out["cluster"].to_numpy()).all()
    assert (out2["dist"].to_numpy() == out["dist"].to_numpy()).all()


def test_kmeans_codes_corpus_smaller_than_k(ray_session):
    import ray.data as rd

    from fsst_ray.functions.similarity import kmeans_codes

    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 8)).astype(np.float32)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(4), pa.int64()),
                "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float32())),
            }
        )
    )
    out = kmeans_codes(ds, k=16, iters=2).to_pandas().sort_values("vec_id")
    # every vector seeds its own cluster and stays there (dist 0)
    assert list(out["cluster"]) == [0, 1, 2, 3]
    assert (out["dist"] == 0).all()


def test_length_outliers_exact_flags(ray_session):
    import ray.data as rd

    from fsst_ray.functions.textstats import length_outliers

    # source "a": tight cluster around 100 plus one wild value. NB a
    # lone outlier among n points caps its own |z| at sqrt(n-1) (it
    # inflates the sigma it is measured against), so n must exceed 10
    # for a 3-sigma flag — 24 cluster points give max |z| ~ 4.8
    lens_a = [100 + (i % 5) - 2 for i in range(24)] + [5000]
    # source "b": uniform spread, no outliers at 3 sigma
    lens_b = [10, 20, 30, 40, 50]
    lens = lens_a + lens_b
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(lens))], pa.string()),
            "n_tok": pa.array(lens, pa.int32()),
            "source": pa.array(["a"] * len(lens_a) + ["b"] * len(lens_b)),
        }
    )
    out = length_outliers(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    flags = dict(zip(out["doc_id"], out["is_outlier"]))
    assert flags["d24"]  # the 5000 in source a
    assert not any(flags[f"d{i}"] for i in range(24))  # cluster members
    assert not any(flags[f"d{i}"] for i in range(25, 30))  # uniform source

    # the integer test agrees with the float z-score on every row
    for src, group in out.groupby("source"):
        x = group["n_tok"].to_numpy(dtype=np.float64)
        z = (x - x.mean()) / max(x.std(), 1e-12)
        assert (np.abs(z) > 3).tolist() == group["is_outlier"].tolist()


def test_csv_source_normalizes_like_jsonl(ray_session, tmp_path):
    import csv

    from fsst_ray.sources.documents import read_documents_csv

    f = tmp_path / "docs.csv"
    with open(f, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["doc_id", "text"])
        w.writerow([1, "hello world"])
        w.writerow([2, 'embedded "quotes" and, commas'])
        w.writerow([3, "line\nbreak survives csv quoting"])
    out = read_documents_csv(str(f)).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [1, 2, 3]
    assert out["text"].iloc[2] == "line\nbreak survives csv quoting"
    assert (out["lang"] == "").all() and (out["source"] == "").all()


def test_csv_null_doc_id_falls_back_to_content_hash(ray_session, tmp_path):
    import csv

    from fsst_ray.sources.documents import read_documents_csv

    f = tmp_path / "null_ids.csv"
    with open(f, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["doc_id", "text"])
        w.writerow([7, "has an id"])
        w.writerow(["", "first null id text"])
        w.writerow(["", "second null id text"])
    out = read_documents_csv(str(f)).to_pandas()
    ids = dict(zip(out["text"], out["doc_id"]))
    assert ids["has an id"] == 7
    # null ids hash the content: distinct, positive, never INT64_MIN
    a, b = ids["first null id text"], ids["second null id text"]
    assert a != b and a > 0 and b > 0


def test_winnow_batch_matches_reference(ray_session):
    import hashlib

    from fsst_ray.functions.textstats import _WINNOW_P, winnow_batch

    k, w = 8, 16
    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "short",  # < k: no grams, emits nothing
        "a" * 20,  # degenerate: all grams identical
        "the quick brown fox jumps over the lazy dog again and AGAIN",
    ]
    batch = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(texts))]),
            "text": pa.array(texts),
        }
    )
    got = winnow_batch(batch, k=k, w=w)
    out = {
        d: (int(a), int(b))
        for d, a, b in zip(
            got["doc_id"].to_pylist(), got["n_fp"].to_pylist(), got["fp_sum"].to_pylist()
        )
    }

    def md5h(s: str) -> int:
        # DuckDB md5_number_upper = first 8 digest bytes little-endian
        return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little") & (
            (1 << 63) - 1
        )

    for i, t in enumerate(texts):
        grams = [md5h(t[j : j + k]) for j in range(len(t) - k + 1)]
        if not grams:
            assert f"d{i}" not in out
            continue
        mins = {
            min(grams[max(0, j - w + 1) : j + 1]) for j in range(len(grams))
        }
        assert out[f"d{i}"] == (len(mins), sum(mins) % _WINNOW_P), f"d{i}"

    # edit-locality: one changed word perturbs few fingerprints
    assert out["d3"][0] >= out["d0"][0] - 6  # d3 differs from d0 by one word

    # the truncation guard is LIVE: an over-long doc fails loudly
    import pytest as _pytest

    long_batch = pa.table(
        {"doc_id": pa.array(["big"]), "text": pa.array(["x" * 2000])}
    )
    # ValueError (not assert) so the guard survives `python -O`
    with _pytest.raises(ValueError, match="position table"):
        winnow_batch(long_batch, k=k, w=w)
    # non-power-of-two windows are rejected, not silently widened
    with _pytest.raises(AssertionError, match="power of two"):
        winnow_batch(batch, k=k, w=10)
    # int64 doc_id schema: an all-short block keeps the input id type
    short64 = pa.table(
        {"doc_id": pa.array([5], pa.int64()), "text": pa.array(["tiny"])}
    )
    et = winnow_batch(short64, k=k, w=w)
    assert et.num_rows == 0 and et.schema.field("doc_id").type == pa.int64()


def test_hash_join_skew_guard_raises_on_hot_key(ray_session):
    """A key whose cross product exceeds max_group_rows must fail
    LOUDLY (ValueError naming the key), not OOM a worker building
    total-sized index arrays (VERDICT r4 item 6)."""
    import ray
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    left = pa.table(
        {
            "k": pa.array([7] * 50 + [8], type=pa.int64()),
            "lv": pa.array(list(range(50)) + [0], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([7] * 50 + [8], type=pa.int64()),
            "rv": pa.array(list(range(50)) + [0], type=pa.int64()),
        }
    )
    # the sorted fold runs when the join is built (keyed.sorted_fold)
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)) as ei:
        hash_join(
            rd.from_arrow(left), rd.from_arrow(right), "k", "rk", max_group_rows=100
        ).materialize()
    assert "max_group_rows" in str(ei.value)
    # under the bound the same join succeeds (50*50 + 1 rows)
    ok = hash_join(
        rd.from_arrow(left), rd.from_arrow(right), "k", "rk", max_group_rows=2500
    ).to_pandas()
    assert len(ok) == 50 * 50 + 1


# ---------------- segment-level exact dedup ----------------


def _segment_dedup_ref(rows, W):
    """Pure-python reference: global first-(doc_id, seg_idx) occurrence
    of each distinct W-word segment wins; docs rebuilt from kept
    segments; fully-covered docs vanish."""
    seen = set()
    out = {}
    for d, t in sorted(rows):
        ws = t.split(" ")
        segs = [" ".join(ws[k * W : (k + 1) * W]) for k in range(-(-len(ws) // W))]
        kept = []
        for s in segs:
            if s not in seen:
                seen.add(s)
                kept.append(s)
        if kept:
            out[d] = (len(segs), len(kept), " ".join(kept))
    return out


@pytest.mark.parametrize("W", [1, 3, 10])
def test_segment_dedup_matches_reference(ray_session, W):
    import ray.data as rd

    from fsst_ray.functions.dedup import segment_dedup

    rng = np.random.default_rng(424)
    vocab = [f"w{i}" for i in range(12)]  # tiny vocab -> natural dup segments
    rows = []
    for i in range(120):
        n = int(rng.integers(1, 25))
        rows.append((i, " ".join(vocab[j] for j in rng.integers(0, 12, size=n))))
    rows.append((500, rows[3][1]))  # full-copy doc: must vanish
    # within-doc repeated segment (doc repeats its own first W words)
    ws = rows[7][1].split(" ")
    rows.append((501, " ".join(ws[:W] + ws[:W] + ["tail501"])))
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in rows], pa.int64()),
                "text": pa.array([t for _, t in rows], pa.string()),
            }
        )
    )
    got_ds = segment_dedup(ds, segment_words=W)
    got = {
        r["doc_id"]: (r["n_seg"], r["n_kept"], r["text"])
        for r in got_ds.take_all()
    }
    exp = _segment_dedup_ref(rows, W)
    assert got == exp
    assert 500 not in got  # fully-covered doc vanished
    # executed plan: range sort + vectorized blocks, no per-group dispatch
    stats = got_ds.stats()
    assert "MapGroups" not in stats and "Aggregate" not in stats, stats


def test_segment_dedup_no_duplicates_is_identity(ray_session):
    import ray.data as rd

    from fsst_ray.functions.dedup import segment_dedup

    rows = [(i, f"u{i}a u{i}b u{i}c u{i}d u{i}e") for i in range(30)]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in rows], pa.int64()),
                "text": pa.array([t for _, t in rows], pa.string()),
            }
        )
    )
    out = segment_dedup(ds, segment_words=2).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [d for d, _ in rows]
    assert list(out["text"]) == [t for _, t in rows]
    assert (out["n_seg"] == out["n_kept"]).all()


def test_segment_dedup_candidate_cap(ray_session):
    import ray.data as rd

    from fsst_ray.functions.dedup import segment_dedup

    rows = [(0, "a b c d"), (1, "a b c d")]  # 2 dup segments at W=2
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in rows], pa.int64()),
                "text": pa.array([t for _, t in rows], pa.string()),
            }
        )
    )
    with pytest.raises(ValueError, match="max_dup_segments"):
        segment_dedup(ds, segment_words=2, max_dup_segments=1)
    with pytest.raises(ValueError, match="segment_words"):
        segment_dedup(ds, segment_words=0)


def test_score_documents_matches_duckdb_and_batch_path(ray_session):
    """Linear-model scoring: the distributed actor-pool result equals a
    direct DuckDB recomputation of the oracle formula (md5 bucket ->
    integer weight -> per-occurrence sum), including repeated words,
    empty text, and whitespace-edge docs."""
    import duckdb
    import ray.data as rd

    from fsst_ray.functions.classify import (
        N_BUCKETS,
        make_weights,
        score_batch,
        score_documents,
    )

    rows = [
        {"doc_id": 1, "text": "the cat sat on the mat the cat"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": "one"},
        {"doc_id": 4, "text": " leading and  double space"},
        {"doc_id": 5, "text": "zebra " * 50 + "end"},
    ]
    tbl = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    out = (
        score_documents(rd.from_arrow(tbl).repartition(3), concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = con.execute(
        "WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w "
        "FROM documents), "
        "s AS (SELECT doc_id, CAST(SUM("
        "(CAST(md5_number_upper(w) % 4096 AS BIGINT) * 2654435761) % 1001 - 500"
        ") AS BIGINT) AS score FROM w GROUP BY doc_id) "
        "SELECT doc_id, score, CAST(score > 0 AS BIGINT) AS positive FROM s "
        "ORDER BY doc_id"
    ).df()
    assert list(out["doc_id"]) == list(exp["doc_id"])
    assert list(out["score"]) == list(exp["score"]), (out, exp)
    assert list(out["positive"]) == list(exp["positive"])
    # the single-batch path is the same function the actors run
    direct = score_batch(tbl, make_weights(), N_BUCKETS)
    assert direct["score"].to_pylist() == list(exp["score"])


def test_linear_scorer_weights_fetched_once_per_actor(ray_session):
    """The weight vector is broadcast via ray.put and resolved in
    __init__ — scoring a multi-batch dataset must not re-fetch or
    rebuild weights per batch (LinearScorer.__call__ takes no ref)."""
    import ray

    from fsst_ray.functions.classify import LinearScorer, make_weights

    ref = ray.put(make_weights())
    scorer = LinearScorer(ref)
    assert isinstance(scorer.weights, np.ndarray)
    b1 = pa.table({"doc_id": pa.array([7], pa.int64()), "text": pa.array(["a b"])})
    r1 = scorer(b1)
    r2 = scorer(b1)
    assert r1.equals(r2)
    with pytest.raises(ValueError, match="weight vector"):
        LinearScorer(make_weights(8), n_buckets=16)


# ---------------- Misra-Gries heavy hitters ----------------


def _hh_tokens_ds(rd, rng, n=60_000, vocab=5_000, zipf=1.2, blocks=7):
    toks = (rng.zipf(zipf, size=n) % vocab).astype(np.int32)
    docs = [toks[i : i + 50] for i in range(0, n, 50)]
    tbl = pa.table(
        {
            "doc_id": pa.array([f"d{i:06d}" for i in range(len(docs))]),
            "tokens": pa.array(
                [d.tolist() for d in docs], type=pa.list_(pa.int32())
            ),
        }
    )
    return rd.from_arrow(tbl).repartition(blocks), toks


def _exact_topk(toks: np.ndarray, k: int):
    u, c = np.unique(toks, return_counts=True)
    order = np.lexsort((u, -c))[:k]
    return list(zip(u[order].astype(int).tolist(), c[order].astype(int).tolist()))


def test_heavy_hitters_exact_vs_bruteforce(ray_session):
    """Skewed stream with distinct >> capacity: compressions genuinely
    fire and the sketch-backed answer still equals brute force exactly
    (the whole point — candidate recount makes the MG output exact)."""
    import ray.data as rd

    from fsst_ray.functions.sketch import token_heavy_hitters

    ds, toks = _hh_tokens_ds(rd, np.random.default_rng(5))
    assert len(np.unique(toks)) > 256  # capacity below forces compression
    out = token_heavy_hitters(ds, k=15, capacity=256, merge_partitions=4)
    got = list(zip(out["token"].to_pylist(), out["cnt"].to_pylist()))
    assert got == _exact_topk(toks, 15)
    assert out.schema.field("token").type == pa.int64()
    assert out.schema.field("cnt").type == pa.int64()


def test_heavy_hitters_repartition_invariant(ray_session):
    """Block boundaries change which compressions fire, but the exact
    recount makes the output independent of partitioning."""
    import ray.data as rd

    from fsst_ray.functions.sketch import token_heavy_hitters

    ds1, toks = _hh_tokens_ds(rd, np.random.default_rng(9), blocks=3)
    ds2, _ = _hh_tokens_ds(rd, np.random.default_rng(9), blocks=17)
    out1 = token_heavy_hitters(ds1, k=10, capacity=200, merge_partitions=2)
    out2 = token_heavy_hitters(ds2, k=10, capacity=200, merge_partitions=6)
    assert out1.to_pydict() == out2.to_pydict() == {
        "token": [t for t, _ in _exact_topk(toks, 10)],
        "cnt": [c for _, c in _exact_topk(toks, 10)],
    }


def test_heavy_hitters_guard_trips_on_uniform(ray_session):
    """Near-uniform stream + tiny capacity: the k-th count cannot beat
    the undercount bound, so the sketch must REFUSE loudly instead of
    returning a plausible-but-unprovable top-k."""
    import ray.data as rd

    from fsst_ray.functions.sketch import heavy_hitters, _token_values

    rng = np.random.default_rng(3)
    toks = rng.permutation(np.repeat(np.arange(2_000, dtype=np.int32), 10))
    docs = [toks[i : i + 40] for i in range(0, len(toks), 40)]
    tbl = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
            "tokens": pa.array([d.tolist() for d in docs], type=pa.list_(pa.int32())),
        }
    )
    ds = rd.from_arrow(tbl).repartition(5)
    with pytest.raises(ValueError, match="undercount"):
        heavy_hitters(ds, _token_values, "token", pa.int64(), k=5, capacity=8)


def test_heavy_hitters_no_compression_is_trivially_exact(ray_session):
    """capacity >= global distinct: U == 0, candidates == full vocab,
    result exact including a vocabulary smaller than k."""
    import ray.data as rd

    from fsst_ray.functions.sketch import token_heavy_hitters

    toks = np.array([1, 1, 1, 2, 2, 3], dtype=np.int32)
    tbl = pa.table(
        {
            "doc_id": pa.array(["a", "b"]),
            "tokens": pa.array([toks[:3].tolist(), toks[3:].tolist()], type=pa.list_(pa.int32())),
        }
    )
    out = token_heavy_hitters(rd.from_arrow(tbl), k=10, capacity=64)
    assert out.to_pydict() == {"token": [1, 2, 3], "cnt": [3, 2, 1]}


def test_word_heavy_hitters_ties_break_by_word(ray_session):
    import ray.data as rd

    from fsst_ray.functions.sketch import word_heavy_hitters

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["b a b c a", "c b z"], type=pa.string()),
        }
    )
    out = word_heavy_hitters(rd.from_arrow(tbl), k=3, capacity=64)
    # counts: b=3, a=2, c=2, z=1 -> tie a/c broken ascending
    assert out.to_pydict() == {"word": ["b", "a", "c"], "cnt": [3, 2, 2]}


def test_mg_compress_undercount_invariant():
    """Property of one compression: every value's effective count drops
    by at most t, and survivors keep count-t exactly."""
    from fsst_ray.functions.sketch import _mg_compress

    rng = np.random.default_rng(7)
    vals = pa.array(np.arange(300, dtype=np.int64))
    counts = rng.integers(1, 1000, size=300).astype(np.int64)
    kept_v, kept_c, t = _mg_compress(vals, counts, 50)
    assert len(kept_c) <= 50 and t > 0
    orig = dict(zip(vals.to_pylist(), counts.tolist()))
    for v, c in zip(kept_v.to_pylist(), kept_c.tolist()):
        assert c == orig[v] - t and c > 0
    dropped = set(orig) - set(kept_v.to_pylist())
    assert all(orig[v] <= t for v in dropped)


def test_existence_join_semi_anti_semantics(ray_session):
    """SQL EXISTS / NOT EXISTS: each left row emitted at most once,
    right-side duplicates irrelevant, left duplicates preserved."""
    import ray.data as rd

    from fsst_ray.functions.relational import existence_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 2, 3, 4], type=pa.int64()),
            "lv": pa.array(["a", "b", "c", "d", "e"]),
        }
    )
    right = pa.table({"rk": pa.array([1, 1, 1, 3, 9], type=pa.int64())})
    semi = (
        existence_join(rd.from_arrow(left), rd.from_arrow(right), "k", "rk", how="semi")
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    assert list(semi["k"]) == [1, 1, 3]
    assert list(semi["lv"]) == ["a", "b", "d"]
    anti = (
        existence_join(rd.from_arrow(left), rd.from_arrow(right), "k", "rk", how="anti")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(anti["k"]) == [2, 4]
    assert list(anti["lv"]) == ["c", "e"]


def test_existence_join_string_keys_and_empty_right(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import existence_join

    left = pa.table(
        {"k": pa.array(["x", "y", "z"]), "v": pa.array([1, 2, 3], type=pa.int64())}
    )
    right_empty = pa.table({"rk": pa.array([], type=pa.string())})
    semi = existence_join(
        rd.from_arrow(left), rd.from_arrow(right_empty), "k", "rk", how="semi"
    ).to_pandas()
    assert len(semi) == 0
    anti = (
        existence_join(
            rd.from_arrow(left), rd.from_arrow(right_empty), "k", "rk", how="anti"
        )
        .to_pandas()
        .sort_values("k")
    )
    assert list(anti["k"]) == ["x", "y", "z"]


def test_existence_join_randomized_parity_and_plan(ray_session):
    """Randomized parity vs driver-side set logic, many keys across
    many blocks; executed plan must contain no MapGroups/Aggregate."""
    import ray.data as rd

    from fsst_ray.functions.relational import existence_join

    rng = np.random.default_rng(11)
    lk = rng.integers(0, 500, size=4000).astype(np.int64)
    rk = rng.integers(250, 750, size=3000).astype(np.int64)
    left = pa.table({"k": pa.array(lk), "row": pa.array(np.arange(4000, dtype=np.int64))})
    right = pa.table({"rk": pa.array(rk)})
    lds = rd.from_arrow(left).repartition(13)
    rds = rd.from_arrow(right).repartition(7)
    out = existence_join(lds, rds, "k", "rk", how="semi")
    got = out.to_pandas().sort_values("row").reset_index(drop=True)
    present = np.isin(lk, np.unique(rk))
    assert list(got["row"]) == list(np.flatnonzero(present))
    stats = out.stats()
    assert "MapGroups" not in stats and "Aggregate" not in stats
    anti = (
        existence_join(lds, rds, "k", "rk", how="anti")
        .to_pandas()
        .sort_values("row")
        .reset_index(drop=True)
    )
    assert list(anti["row"]) == list(np.flatnonzero(~present))


def test_existence_join_rejects_bad_how(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import existence_join

    t = pa.table({"k": pa.array([1], type=pa.int64())})
    with pytest.raises(ValueError, match="semi"):
        existence_join(rd.from_arrow(t), rd.from_arrow(t.rename_columns(["rk"])), "k", "rk", how="outer")


def _bm25_reference(texts, doc_ids, queries, k):
    """Pure-python BM25 mirror (same quantization) for parity tests."""
    import math

    words = [t.split(" ") if t is not None else [] for t in texts]
    n = len(words)
    dl = [len(w) for w in words]
    avgdl = float(sum(dl)) / float(n)
    out = {}
    for q, terms in queries.items():
        scores = {}
        for d in range(n):
            s = 0
            hit = False
            for t in terms:
                tf = words[d].count(t)
                if tf == 0:
                    continue
                hit = True
                df = sum(1 for w in words if t in w)
                idf = (n - df + 0.5) / (df + 0.5)
                contrib = idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * (dl[d] / avgdl)))
                s += math.floor(contrib * 1e6)
            if hit:
                scores[doc_ids[d]] = s
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        out[q] = [(i + 1, d, s) for i, (d, s) in enumerate(ranked)]
    return out


def test_bm25_topk_matches_reference_across_blocks(ray_session):
    """Randomized parity vs the pure-python mirror; 9 blocks so the
    per-block prune must not lose the global top-k."""
    import ray.data as rd

    from fsst_ray.functions.search import bm25_topk

    rng = np.random.default_rng(5)
    vocab = ["hash", "join", "scan", "sort", "table", "row", "agg", "key"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 30)))
        for _ in range(400)
    ]
    doc_ids = list(range(1000, 1400))
    tbl = pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()), "text": pa.array(texts)})
    queries = {0: ["hash", "join"], 1: ["sort"], 2: ["key", "agg", "row"]}
    got = (
        bm25_topk(rd.from_arrow(tbl).repartition(9), queries, k=7)
        .to_pandas()
        .sort_values(["query_id", "rnk"])
        .reset_index(drop=True)
    )
    want = _bm25_reference(texts, doc_ids, queries, 7)
    for q, rows in want.items():
        sub = got[got["query_id"] == q]
        assert list(zip(sub["rnk"], sub["doc_id"], sub["score"])) == rows


def test_bm25_topk_null_text_has_no_words(ray_session):
    """A null text is a document with no words (dl 0, no term hits) in
    both passes' np.repeat by split lengths: it never shifts the words
    of the rows after it, at block edges included."""
    import ray.data as rd

    from fsst_ray.functions.search import bm25_topk

    vocab = ["hash", "join", "scan", "sort"]
    texts = [
        None if i % 5 in (0, 3) else " ".join(vocab[(i + j) % 4] for j in range(1 + i % 4))
        for i in range(40)
    ]
    doc_ids = list(range(500, 540))
    tbl = pa.table({"doc_id": pa.array(doc_ids, pa.int64()), "text": pa.array(texts, pa.string())})
    queries = {0: ["hash"], 1: ["sort", "scan"]}
    for blocks in (1, 4, 7):
        got = bm25_topk(rd.from_arrow(tbl).repartition(blocks), queries, k=40).to_pandas()
        got = got.sort_values(["query_id", "rnk"])
        for q, rows in _bm25_reference(texts, doc_ids, queries, 40).items():
            sub = got[got["query_id"] == q]
            assert list(zip(sub["rnk"], sub["doc_id"], sub["score"])) == rows, blocks


def test_bm25_topk_absent_term_and_tie_determinism(ray_session):
    import ray.data as rd

    from fsst_ray.functions.search import bm25_topk

    tbl = pa.table(
        {
            "doc_id": pa.array([3, 1, 2], type=pa.int64()),
            "text": pa.array(["hash join", "hash join", "scan only"]),
        }
    )
    out = (
        bm25_topk(rd.from_arrow(tbl), {0: ["hash"], 1: ["zzz_absent"]}, k=5)
        .to_pandas()
        .sort_values(["query_id", "rnk"])
    )
    # docs 1 and 3 tie exactly (identical text) -> doc_id ascending
    q0 = out[out["query_id"] == 0]
    assert list(q0["doc_id"]) == [1, 3]
    assert list(q0["rnk"]) == [1, 2]
    assert q0["score"].iloc[0] == q0["score"].iloc[1]
    # absent term: no candidates, no rows
    assert len(out[out["query_id"] == 1]) == 0


def test_bm25_topk_rejects_empty_queries(ray_session):
    import ray.data as rd

    from fsst_ray.functions.search import bm25_topk

    t = pa.table({"doc_id": pa.array([1], type=pa.int64()), "text": pa.array(["a"])})
    with pytest.raises(ValueError, match="non-empty"):
        bm25_topk(rd.from_arrow(t), {})


def test_asof_join_vectorized_block_shape_and_randomized_parity(ray_session):
    """r5 rewrite: the executed plan must contain no per-user
    MapGroups/Aggregate dispatch, and the sorted-block cummax pass must
    match a per-user reference on a randomized many-user corpus spread
    over many blocks."""
    import ray.data as rd

    from fsst_ray.functions.relational import asof_join_events

    rng = np.random.default_rng(23)
    n = 6000
    us = rng.integers(0, 900, n).astype(np.int64)
    # unique (user, ts): assign distinct ts per user via permuted ranks
    ts_base = rng.permutation(n).astype(np.int64) * 7 + 1
    et = np.where(rng.random(n) < 0.4, "purchase", "click")
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts_base.astype("datetime64[us]")),
            "user_id": pa.array(us, type=pa.int64()),
            "event_type": pa.array(et, type=pa.string()),
        }
    )
    out = asof_join_events(rd.from_arrow(tbl).repartition(11))
    got = out.to_pandas().sort_values("event_id").reset_index(drop=True)
    stats = out.stats()
    assert "MapGroups" not in stats and "Aggregate" not in stats
    # per-user reference
    want = []
    for u in np.unique(us):
        m = us == u
        lts = ts_base[m & (et == "purchase")]
        lid = np.arange(n)[m & (et == "purchase")]
        rts = ts_base[m & (et == "click")]
        rid = np.arange(n)[m & (et == "click")]
        ro = np.argsort(rts)
        rts, rid = rts[ro], rid[ro]
        for i, t in zip(lid, lts):
            pos = np.searchsorted(rts, t, side="right") - 1
            if pos >= 0:
                want.append((i, rid[pos], t - rts[pos]))
    want.sort()
    assert list(zip(got["event_id"], got["match_event_id"], got["gap_us"])) == want


def test_bm25_topk_duplicate_terms_deduped(ray_session):
    """A term listed twice in one query must score as if listed once
    (distinct-terms semantics, matching the SQL oracle)."""
    import ray.data as rd

    from fsst_ray.functions.search import bm25_topk

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["hash hash join", "join scan"]),
        }
    )
    once = bm25_topk(rd.from_arrow(tbl), {0: ["hash"]}, k=5).to_pandas()
    twice = bm25_topk(rd.from_arrow(tbl), {0: ["hash", "hash"]}, k=5).to_pandas()
    assert once.equals(twice)


def test_existence_join_rejects_reserved_column(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import existence_join

    t = pa.table(
        {
            "k": pa.array([1], type=pa.int64()),
            "_join_key": pa.array([9], type=pa.int64()),
        }
    )
    r = pa.table({"rk": pa.array([1], type=pa.int64())})
    with pytest.raises(ValueError, match="reserved"):
        existence_join(rd.from_arrow(t), rd.from_arrow(r), "k", "rk")


def test_hll_registers_partition_invariant_and_reference(ray_session):
    """Registers are max-mergeable: any repartitioning yields the same
    table; values match a per-row python reference."""
    import ray.data as rd

    from fsst_ray.functions.curate import _murmur64
    from fsst_ray.functions.sketch import hll_registers

    rng = np.random.default_rng(9)
    n = 20000
    keys = rng.integers(0, 5000, n).astype(np.int64)
    grp = np.where(rng.random(n) < 0.5, "a", "b")
    tbl = pa.table({"k": pa.array(keys), "g": pa.array(grp)})
    out1 = (
        hll_registers(rd.from_arrow(tbl), "k", "g")
        .to_pandas().sort_values(["g", "bucket"]).reset_index(drop=True)
    )
    out2 = (
        hll_registers(rd.from_arrow(tbl).repartition(17), "k", "g")
        .to_pandas().sort_values(["g", "bucket"]).reset_index(drop=True)
    )
    assert out1.equals(out2)
    # python reference
    want = {}
    hv = _murmur64(keys)
    for i in range(n):
        b = int(hv[i] >> np.uint64(56))
        w = int(hv[i] & np.uint64((1 << 56) - 1))
        rank = 57 if w == 0 else 56 - w.bit_length() + 1
        kk = (grp[i], b)
        want[kk] = max(want.get(kk, 0), rank)
    got = {(r.g, r.bucket): r.register for r in out1.itertuples()}
    assert got == want


def test_hll_estimate_within_published_error_band(ray_session):
    """alpha_256 estimate within ~3 standard errors (1.04/sqrt(256) ≈
    6.5% per std) of the exact distinct count."""
    import ray.data as rd

    from fsst_ray.functions.sketch import hll_estimate, hll_registers

    rng = np.random.default_rng(31)
    keys = rng.integers(0, 10**12, 60000).astype(np.int64)
    tbl = pa.table(
        {"k": pa.array(keys), "g": pa.array(np.full(len(keys), "x"))}
    )
    regs = hll_registers(rd.from_arrow(tbl), "k", "g").to_arrow_refs()
    import ray as _ray

    t = pa.concat_tables([_ray.get(r) for r in regs])
    est = hll_estimate(t)["x"]
    exact = len(np.unique(keys))
    assert abs(est - exact) / exact < 0.20


def test_weighted_sample_exact_rule_and_proportionality(ray_session):
    """Keep rule matches the integer reference per row; realized rates
    track min(1, w/cap); cap>=max(w) keeps everything; errors on
    negative weight / bad cap."""
    import ray.data as rd

    from fsst_ray.functions.curate import _murmur64, weighted_sample

    rng = np.random.default_rng(17)
    n = 30000
    ids = rng.permutation(n).astype(np.int64)
    w = rng.integers(0, 1200, n).astype(np.int64)
    tbl = pa.table({"doc_id": pa.array(ids), "n": pa.array(w)})
    cap = 800
    out = weighted_sample(rd.from_arrow(tbl).repartition(9), "n", cap).to_pandas()
    thr = np.minimum(w, cap).astype(np.uint64) * np.uint64(((1 << 64) - 1) // cap)
    want = set(ids[_murmur64(ids) < thr].tolist())
    assert set(out["doc_id"]) == want
    # rate proportionality on the w<cap mass (3-sigma-ish slack)
    lo = w < cap
    expected = float((w[lo] / cap).sum())
    got = np.isin(ids, out["doc_id"].to_numpy()) & lo
    assert abs(got.sum() - expected) < 4 * np.sqrt(expected)
    # cap >= max weight with all-max weights keeps every row
    allmax = pa.table(
        {"doc_id": pa.array(ids[:100]), "n": pa.array(np.full(100, 50, np.int64))}
    )
    kept = weighted_sample(rd.from_arrow(allmax), "n", 50).to_pandas()
    assert len(kept) == 100
    with pytest.raises(ValueError, match="positive"):
        weighted_sample(rd.from_arrow(tbl), "n", 0)


def test_cm_registers_partition_invariant_and_reference(ray_session):
    """Registers are sum-mergeable: any repartitioning yields the same
    table; values match a per-row python reference of the double-hash
    family."""
    import ray.data as rd

    from fsst_ray.functions.curate import _murmur64
    from fsst_ray.functions.sketch import cm_registers

    rng = np.random.default_rng(41)
    n = 20000
    keys = rng.zipf(1.4, n).astype(np.int64) % 3000
    grp = np.where(rng.random(n) < 0.5, "a", "b")
    tbl = pa.table({"k": pa.array(keys), "g": pa.array(grp)})
    out1 = (
        cm_registers(rd.from_arrow(tbl), "k", "g")
        .to_pandas().sort_values(["g", "hash_row", "bucket"]).reset_index(drop=True)
    )
    out2 = (
        cm_registers(rd.from_arrow(tbl).repartition(17), "k", "g")
        .to_pandas().sort_values(["g", "hash_row", "bucket"]).reset_index(drop=True)
    )
    assert out1.equals(out2)
    # python reference
    h1 = _murmur64(keys)
    a = (h1 & np.uint64(255)).astype(np.int64)
    step = ((_murmur64(h1.view(np.int64)) & np.uint64(255)) | np.uint64(1)).astype(
        np.int64
    )
    want = {}
    for i in range(n):
        for r in range(4):
            kk = (grp[i], r, int((a[i] + r * step[i]) % 256))
            want[kk] = want.get(kk, 0) + 1
    got = {(r.g, r.hash_row, r.bucket): r.register for r in out1.itertuples()}
    assert got == want
    # every register row sums the group's row count per hash row
    for g in ("a", "b"):
        for r in range(4):
            tot = sum(v for (gg, rr, _), v in got.items() if gg == g and rr == r)
            assert tot == int((grp == g).sum())


def test_cm_estimate_upper_bound_and_heavy_keys_exact(ray_session):
    """CM point estimates never undercount; with width 256 >> distinct
    keys here, planted heavy keys estimate exactly."""
    import ray as _ray
    import ray.data as rd

    from fsst_ray.functions.sketch import cm_estimate, cm_registers

    rng = np.random.default_rng(42)
    light = rng.integers(0, 40, 5000).astype(np.int64)
    heavy = np.full(3000, 777, dtype=np.int64)
    keys = np.concatenate([light, heavy])
    tbl = pa.table(
        {"k": pa.array(keys), "g": pa.array(np.full(len(keys), "x"))}
    )
    regs = pa.concat_tables(
        [_ray.get(r) for r in cm_registers(rd.from_arrow(tbl), "k", "g").to_arrow_refs()]
    )
    probe = list(range(40)) + [777, 999_999]
    est = cm_estimate(regs, "g", probe)
    exact = {k: int((keys == k).sum()) for k in probe}
    for k in probe:
        assert est[("x", k)] >= exact[k]
    assert est[("x", 777)] == 3000  # heavy key collides with nothing here
    # total mass bound: est - exact <= eps * N on every probe
    n_total = len(keys)
    for k in probe:
        assert est[("x", k)] - exact[k] <= 2 * n_total / 256 * 4


def test_rollup_aggregate_reference_and_guards(ray_session):
    """3-col rollup matches a per-level python reference; partition
    invariant; NULL group values and group-cardinality overflow raise."""
    import ray.data as rd

    from fsst_ray.functions.analytics import rollup_aggregate

    rng = np.random.default_rng(7)
    n = 5000
    a = np.array(["r1", "r2", "r3"])[rng.integers(0, 3, n)]
    b = np.array(["x", "y"])[rng.integers(0, 2, n)]
    c = np.array(["p", "q", "s", "t"])[rng.integers(0, 4, n)]
    v = rng.random(n) * 100
    tbl = pa.table({"a": pa.array(a), "b": pa.array(b), "c": pa.array(c),
                    "v": pa.array(v)})
    out = rollup_aggregate(rd.from_arrow(tbl), ["a", "b", "c"], "v")
    out17 = rollup_aggregate(
        rd.from_arrow(tbl).repartition(17), ["a", "b", "c"], "v"
    )

    def canon(t):
        df = t.to_pandas()
        return df.sort_values(list(df.columns), na_position="last").reset_index(
            drop=True
        )

    assert canon(out).equals(canon(out17))
    # python reference per level
    cents = np.floor(v * 100.0).astype(np.int64)
    got = {
        (r.a, r.b, r.c): (r.sum_cents, r.n)
        for r in out.to_pandas().itertuples()
    }
    keys = [a, b, c]
    want = {}
    for lvl in range(4):
        tags = {}
        for i in range(n):
            kk = tuple(
                keys[j][i] if j < lvl else None for j in range(3)
            )
            s, m = tags.get(kk, (0, 0))
            tags[kk] = (s + int(cents[i]), m + 1)
        want.update(tags)
    want = {
        tuple(x if x is not None else np.nan for x in k): v2
        for k, v2 in want.items()
    }
    got = {
        tuple(x if isinstance(x, str) else np.nan for x in k): v2
        for k, v2 in got.items()
    }
    assert got == want
    assert out.num_rows == 3 * 2 * 4 + 3 * 2 + 3 + 1

    # NULL group value -> loud error
    tbl_null = pa.table(
        {"a": pa.array(["x", None]), "b": pa.array(["u", "u"]),
         "v": pa.array([1.0, 2.0])}
    )
    with pytest.raises((ValueError, Exception), match="NULL"):
        rollup_aggregate(rd.from_arrow(tbl_null), ["a", "b"], "v")

    # cardinality guard
    big = pa.table(
        {"a": pa.array([f"k{i}" for i in range(100)]),
         "v": pa.array(np.ones(100))}
    )
    with pytest.raises(ValueError, match="max_groups"):
        rollup_aggregate(rd.from_arrow(big), ["a"], "v", max_groups=10)


def test_mix_corpus_exact_rule_budget_and_guards(ray_session):
    """Keep rule matches the big-int reference per row; realized weight
    tracks the budget; keep-all when budget >= total; dict budgets;
    missing-source / negative budget errors; partition invariant."""
    import ray.data as rd

    from fsst_ray.functions.curate import _murmur64, mix_corpus

    rng = np.random.default_rng(77)
    n = 8000
    src = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    w = rng.integers(1, 50, n).astype(np.int64)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {"doc_id": pa.array(ids), "source": pa.array(src), "n_chars": pa.array(w)}
    )
    target = 30_000
    out = mix_corpus(rd.from_arrow(tbl).repartition(9), target).to_pandas()
    # per-row reference
    totals = {s: int(w[src == s].sum()) for s in ("a", "b", "c")}
    hv = _murmur64(ids)
    want_keep = set()
    for i in range(n):
        t = totals[src[i]]
        if t <= target or int(hv[i]) < (target << 64) // t:
            want_keep.add(i)
    assert set(out["doc_id"]) == want_keep
    # realized weight within 10% of budget for downsampled sources
    for s in ("a", "b", "c"):
        kept_w = int(out.loc[out["source"] == s, "weight"].sum())
        if totals[s] > target:
            assert abs(kept_w - target) / target < 0.10
        else:
            assert kept_w == totals[s]
    # keep-all when budget exceeds totals
    all_out = mix_corpus(rd.from_arrow(tbl), 10**9).to_pandas()
    assert len(all_out) == n
    # dict budgets: per-source
    d_out = mix_corpus(
        rd.from_arrow(tbl), {"a": 10**9, "b": 0, "c": 20_000}
    ).to_pandas()
    assert (d_out["source"] != "b").all()
    assert int((d_out["source"] == "a").sum()) == int((src == "a").sum())
    # guards
    with pytest.raises((ValueError, Exception), match="no budget"):
        mix_corpus(rd.from_arrow(tbl), {"a": 1}).take_all()
    with pytest.raises((ValueError, Exception), match="negative"):
        mix_corpus(rd.from_arrow(tbl), -5).take_all()


def test_normalize_text_edge_cases(ray_session):
    """Punctuation-only, unicode, multi-space, already-clean inputs."""
    import ray.data as rd

    from fsst_ray.functions.textstats import normalize_text

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "text": pa.array(
                [
                    "Hello,   World!!",
                    "...!!!",
                    "",
                    "already clean text",
                    "Tabs\tand\nnewlines MIXED-case 42",
                ]
            ),
        }
    )
    out = (
        normalize_text(rd.from_arrow(tbl))
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[1, "norm_text"] == "hello world"
    assert out.loc[1, "n_words"] == 2
    assert out.loc[2, "norm_text"] == "" and out.loc[2, "n_words"] == 0
    assert out.loc[3, "norm_text"] == "" and out.loc[3, "n_words"] == 0
    assert out.loc[4, "norm_text"] == "already clean text"
    assert out.loc[5, "norm_text"] == "tabs and newlines mixed case 42"
    assert out.loc[5, "n_words"] == 6


def test_quality_deciles_rank_rule_and_invariance(ray_session):
    """Bucket = 1 + (10 * rows-strictly-below) // n (RANK semantics:
    ties share a bucket); partition invariant; n_buckets guard."""
    import ray.data as rd

    from fsst_ray.functions.curate import quality_deciles

    # build texts with controlled quality ties: repeat words to move
    # the distinct ratio
    texts = []
    for i in range(300):
        k = (i % 30) + 1
        words = [f"w{j}" for j in range(k)] + ["the"] * 5
        texts.append(" ".join(words * 2))
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(300, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    out = quality_deciles(rd.from_arrow(tbl).repartition(7)).to_pandas()
    out2 = quality_deciles(rd.from_arrow(tbl)).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    q = a["quality"].to_numpy()
    n = len(q)
    for i in range(n):
        below = int((q < q[i]).sum())
        assert a.loc[i, "decile"] == 1 + (10 * below) // n
    # ties share buckets
    for v in np.unique(q):
        assert a.loc[q == v, "decile"].nunique() == 1
    assert a["decile"].min() == 1 and a["decile"].max() == 10
    with pytest.raises(ValueError, match="n_buckets"):
        quality_deciles(rd.from_arrow(tbl), n_buckets=0)


def test_cube_aggregate_reference(ray_session):
    """CUBE over 2 cols = 4 grouping sets; matches a python reference
    including the column-b-only subtotal ROLLUP lacks."""
    import ray.data as rd

    from fsst_ray.functions.analytics import cube_aggregate

    rng = np.random.default_rng(13)
    n = 3000
    a = np.array(["r1", "r2"])[rng.integers(0, 2, n)]
    b = np.array(["x", "y", "z"])[rng.integers(0, 3, n)]
    v = rng.random(n) * 10
    tbl = pa.table({"a": pa.array(a), "b": pa.array(b), "v": pa.array(v)})
    out = cube_aggregate(rd.from_arrow(tbl).repartition(5), ["a", "b"], "v")
    cents = np.floor(v * 100.0).astype(np.int64)
    got = {
        (r.a if isinstance(r.a, str) else None,
         r.b if isinstance(r.b, str) else None): (r.sum_cents, r.n)
        for r in out.to_pandas().itertuples()
    }
    assert len(got) == 2 * 3 + 2 + 3 + 1
    # the b-only subtotals (CUBE-specific)
    for bb in ("x", "y", "z"):
        sel = b == bb
        assert got[(None, bb)] == (int(cents[sel].sum()), int(sel.sum()))
    assert got[(None, None)] == (int(cents.sum()), n)
    assert got[("r1", "x")] == (
        int(cents[(a == "r1") & (b == "x")].sum()),
        int(((a == "r1") & (b == "x")).sum()),
    )


def test_hash_join_full_outer(ray_session):
    """Full outer: randomized parity vs python set logic across 9
    blocks with duplicate keys on both sides; key survives right-only
    rows; empty-side degenerations; how guard."""
    import pandas as pd
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    rng = np.random.default_rng(55)
    lk = rng.integers(0, 40, 300).astype(np.int64)
    rk = rng.integers(20, 60, 250).astype(np.int64)  # partial overlap
    lt = pa.table(
        {"k": pa.array(lk), "lv": pa.array(np.arange(300, dtype=np.int64))}
    )
    rt = pa.table(
        {"rk": pa.array(rk), "rv": pa.array(np.arange(250, dtype=np.int64) + 1000)}
    )
    out = hash_join(
        rd.from_arrow(lt).repartition(9),
        rd.from_arrow(rt).repartition(4),
        "k",
        "rk",
        how="full",
    ).to_pandas()
    want = set()
    for key in np.union1d(lk, rk):
        ls = np.flatnonzero(lk == key)
        rs = np.flatnonzero(rk == key)
        if len(ls) and len(rs):
            for i in ls:
                for j in rs:
                    want.add((int(key), int(i), int(j) + 1000))
        elif len(ls):
            for i in ls:
                want.add((int(key), int(i), None))
        else:
            for j in rs:
                want.add((int(key), None, int(j) + 1000))
    got = {
        (
            int(r.k),
            None if pd.isna(r.lv) else int(r.lv),
            None if pd.isna(r.rv) else int(r.rv),
        )
        for r in out.itertuples()
    }
    assert got == want
    assert len(out) == len(want)
    # key is never null, even on right-only rows
    assert out["k"].notna().all()
    # empty left -> pure right rows with null lv
    eout = hash_join(
        rd.from_arrow(lt.slice(0, 0)), rd.from_arrow(rt), "k", "rk", how="full"
    ).to_pandas()
    assert len(eout) == 250 and eout["lv"].isna().all()
    with pytest.raises(ValueError, match="how must be"):
        hash_join(rd.from_arrow(lt), rd.from_arrow(rt), "k", "rk", how="cross")


def test_tumbling_distinct_and_value_histogram_reference(ray_session):
    """Cross-block duplicate (window, user) pairs dedup exactly;
    histogram bins floor toward -inf; both partition-invariant."""
    import ray.data as rd

    from fsst_ray.functions.windows import (
        tumbling_distinct_users,
        value_histogram,
    )

    rng = np.random.default_rng(17)
    n = 8000
    t0 = 1_700_000_000_000_000
    ts_us = t0 + rng.integers(0, 6 * 3600 * 10**6, n)
    uid = rng.integers(0, 200, n).astype(np.int64)
    val = rng.random(n) * 40 - 10  # negatives included
    tbl = pa.table(
        {
            "ts": pa.array(ts_us).cast(pa.timestamp("us")),
            "user_id": pa.array(uid),
            "event_type": pa.array(
                np.array(["a", "b"])[rng.integers(0, 2, n)]
            ),
            "value": pa.array(val),
        }
    )
    ds = rd.from_arrow(tbl).repartition(9)
    out = tumbling_distinct_users(ds).to_pandas()
    win = (ts_us // (3600 * 10**6)) * 3600
    for r in out.itertuples():
        assert r.n_users == len(np.unique(uid[win == r.window_start]))
    assert set(out["window_start"]) == set(np.unique(win))
    out1 = tumbling_distinct_users(rd.from_arrow(tbl)).to_pandas()
    assert out.sort_values("window_start").reset_index(drop=True).equals(
        out1.sort_values("window_start").reset_index(drop=True)
    )

    et = tbl["event_type"].to_numpy(zero_copy_only=False)
    h = value_histogram(ds, bin_width=5).to_pandas()
    bins = np.floor(val / 5).astype(np.int64)
    assert bins.min() < 0  # the negative-floor branch is exercised
    for r in h.itertuples():
        assert r.n == int(((et == r.event_type) & (bins == r.bin)).sum())
    assert int(h["n"].sum()) == n
    with pytest.raises(ValueError, match="bin_width"):
        value_histogram(ds, bin_width=0)


def test_bigram_histogram_boundaries_and_reference(ray_session):
    """Pairs never straddle doc boundaries (incl. empty and 1-token
    docs); counts match a python reference; partition invariant."""
    import ray.data as rd

    from fsst_ray.functions.vocab import bigram_histogram

    rng = np.random.default_rng(29)
    docs, want = [], {}
    for i in range(400):
        L = int(rng.integers(0, 6))  # includes 0- and 1-token docs
        toks = rng.integers(0, 7, L).astype(np.int32).tolist()
        docs.append(toks)
        for a, b in zip(toks, toks[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1
    tbl = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(400)]),
            "tokens": pa.array(docs, type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(d) for d in docs], type=pa.int32()),
            "source": pa.array(["s"] * 400),
        }
    )
    out = bigram_histogram(rd.from_arrow(tbl).repartition(7), k=1000)
    got = {
        (r["token"], r["next_token"]): r["n"] for r in out.to_pylist()
    }
    assert got == want
    out1 = bigram_histogram(rd.from_arrow(tbl), k=1000)
    assert out.equals(out1)
    # k truncation keeps the count-desc, pair-asc total order
    top3 = bigram_histogram(rd.from_arrow(tbl), k=3).to_pylist()
    ordered = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert [(r["token"], r["next_token"], r["n"]) for r in top3] == [
        (a, b, n) for (a, b), n in ordered
    ]
    # negative token guard
    bad = pa.table(
        {
            "doc_id": pa.array(["x"]),
            "tokens": pa.array([[-1, 2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2], type=pa.int32()),
            "source": pa.array(["s"]),
        }
    )
    with pytest.raises((ValueError, Exception), match="negative token"):
        bigram_histogram(rd.from_arrow(bad), k=5)


def test_rollup_aggregate_single_group_many_partitions(ray_session):
    """More aggregate output partitions than groups makes Ray emit
    empty zero-column blocks; the finest-table concat must skip them
    (regression: ArrowInvalid 'Schema at index 1 was different' at
    num_cpus=8 on the 9-group orders input)."""
    import ray.data as rd

    from fsst_ray.functions.analytics import rollup_aggregate

    tbl = pa.table(
        {
            "a": pa.array(["only"] * 50),
            "v": pa.array(np.ones(50)),
        }
    )
    out = rollup_aggregate(rd.from_arrow(tbl).repartition(16), ["a"], "v")
    got = {
        (r.a if isinstance(r.a, str) else None): (r.sum_cents, r.n)
        for r in out.to_pandas().itertuples()
    }
    assert got == {"only": (5000, 50), None: (5000, 50)}


def test_interval_join_semantics_and_boundaries(ray_session):
    """Inclusive lo / exclusive hi, multi-match overlap, key isolation,
    keys present on only one side."""
    import ray.data as rd

    from fsst_ray.functions.relational import interval_join

    pts = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
                "pid": pa.array([10, 11, 12, 20, 30], pa.int64()),
                "ts": pa.array([5, 10, 15, 5, 5], pa.int64()),
            }
        )
    )
    ivs = rd.from_arrow(
        pa.table(
            {
                "ik": pa.array([1, 1, 2, 4], pa.int64()),
                "iid": pa.array([100, 101, 200, 400], pa.int64()),
                "lo": pa.array([5, 0, 6, 0], pa.int64()),
                "hi": pa.array([15, 11, 9, 100], pa.int64()),
            }
        )
    )
    out = (
        interval_join(pts, ivs, "k", "ik", "ts", "lo", "hi")
        .to_pandas()
        .sort_values(["pid", "iid"])
        .reset_index(drop=True)
    )
    got = set(zip(out["pid"], out["iid"]))
    # pid 10 (k1,ts5): iv100 [5,15) yes (lo inclusive), iv101 [0,11) yes
    # pid 11 (k1,ts10): iv100 yes, iv101 yes (10 < 11)
    # pid 12 (k1,ts15): iv100 no (hi exclusive), iv101 no
    # pid 20 (k2,ts5): iv200 [6,9) no
    # pid 30 (k3): no intervals; iv400 (k4): no points
    assert got == {(10, 100), (10, 101), (11, 100), (11, 101)}


def test_interval_join_randomized_parity_and_plan(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import interval_join

    rng = np.random.default_rng(4242)
    npts, nivs, nkeys = 600, 300, 23
    pk = rng.integers(0, nkeys, npts)
    pts_ts = rng.integers(0, 1000, npts)
    ik = rng.integers(0, nkeys, nivs)
    lo = rng.integers(0, 1000, nivs)
    hi = lo + rng.integers(0, 120, nivs)
    want = {
        (i, j)
        for i in range(npts)
        for j in range(nivs)
        if pk[i] == ik[j] and lo[j] <= pts_ts[i] < hi[j]
    }
    pts = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(pk, pa.int64()),
                "pid": pa.array(np.arange(npts), pa.int64()),
                "ts": pa.array(pts_ts, pa.int64()),
            }
        )
    ).repartition(9)
    ivs = rd.from_arrow(
        pa.table(
            {
                "ik": pa.array(ik, pa.int64()),
                "iid": pa.array(np.arange(nivs), pa.int64()),
                "lo": pa.array(lo, pa.int64()),
                "hi": pa.array(hi, pa.int64()),
            }
        )
    ).repartition(5)
    out = interval_join(pts, ivs, "k", "ik", "ts", "lo", "hi").materialize()
    df = out.to_pandas()
    assert set(zip(df["pid"], df["iid"])) == want
    assert len(df) == len(want)  # no duplicate emissions
    assert "MapGroups" not in out.stats()


def test_interval_join_guards(ray_session):
    import ray.data as rd

    from fsst_ray.functions.relational import interval_join

    pts = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1] * 40, pa.int64()),
                "ts": pa.array(range(40), pa.int64()),
            }
        )
    )
    ivs = rd.from_arrow(
        pa.table(
            {
                "ik": pa.array([1] * 40, pa.int64()),
                "lo": pa.array([0] * 40, pa.int64()),
                "hi": pa.array([100] * 40, pa.int64()),
            }
        )
    )
    with pytest.raises(ValueError, match="max_group_rows"):
        interval_join(
            pts, ivs, "k", "ik", "ts", "lo", "hi", max_group_rows=100
        ).materialize()
    # column collision
    bad = rd.from_arrow(
        pa.table({"ik": pa.array([1], pa.int64()), "ts": pa.array([0], pa.int64()),
                  "lo": pa.array([0], pa.int64()), "hi": pa.array([1], pa.int64())})
    )
    with pytest.raises(ValueError, match="collision"):
        interval_join(pts, bad, "k", "ik", "ts", "lo", "hi")
    with pytest.raises(ValueError, match="ts_col"):
        interval_join(pts, ivs, "k", "ik", "nope", "lo", "hi")


def test_json_int_field_and_rollup(ray_session):
    """Vectorized JSON extraction: nulls for absent/malformed paths;
    rollup parity vs DuckDB json_extract on randomized props including
    all-null groups."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from fsst_ray.functions.jsonx import json_int_field, props_int_rollup

    rng = np.random.default_rng(555)
    n = 2000
    groups = np.array(["a", "b", "c", "nullgrp"])[rng.integers(0, 4, n)]
    kvals = rng.integers(-100, 10**7, n)
    props = []
    for g, k in zip(groups, kvals):
        if g == "nullgrp" or k % 11 == 0:
            props.append('{"other": 1}' if k % 2 else "not json")
        else:
            props.append('{"k": %d}' % k)
    t = pa.table(
        {
            "grp": pa.array(groups, pa.string()),
            "props": pa.array(props, pa.string()),
        }
    )
    ds = rd.from_arrow(t).repartition(7)

    ext = json_int_field(ds, "props", "$.k", "k").to_pandas()
    want_k = [
        None if (g == "nullgrp" or k % 11 == 0) else k
        for g, k in zip(groups, kvals)
    ]
    got_k = [None if pd.isna(x) else int(x) for x in ext["k"]]
    assert sorted(
        (g, x if x is not None else -(10**18)) for g, x in zip(ext["grp"], got_k)
    ) == sorted(
        (g, x if x is not None else -(10**18)) for g, x in zip(groups, want_k)
    )

    out = (
        props_int_rollup(ds, "grp", "props", "$.k")
        .to_pandas()
        .sort_values("grp")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"grp": groups, "props": props}))
    ref = con.execute(
        "SELECT grp, CAST(COUNT(*) AS BIGINT) AS n, "
        "CAST(COUNT(TRY_CAST(json_extract_string(TRY_CAST(props AS JSON), '$.k') AS BIGINT)) AS BIGINT) AS n_present, "
        "CAST(COALESCE(SUM(TRY_CAST(json_extract_string(TRY_CAST(props AS JSON), '$.k') AS BIGINT)), 0) AS BIGINT) AS sum_val, "
        "MAX(TRY_CAST(json_extract_string(TRY_CAST(props AS JSON), '$.k') AS BIGINT)) AS max_val "
        "FROM t GROUP BY grp ORDER BY grp"
    ).df()
    assert out["grp"].tolist() == ref["grp"].tolist()
    assert out["n"].tolist() == ref["n"].tolist()
    assert out["n_present"].tolist() == ref["n_present"].tolist()
    assert out["sum_val"].tolist() == ref["sum_val"].tolist()
    got_max = [None if pd.isna(x) else int(x) for x in out["max_val"]]
    ref_max = [None if pd.isna(x) else int(x) for x in ref["max_val"]]
    assert got_max == ref_max


def test_interval_join_survives_full_width_values(ray_session):
    """ts/lo/hi above 2^53 (packed keys, wide timestamps): the
    nullable-union float64 round trip would corrupt them; fill_null
    keeps the compare exact. Regression for the session-9 review
    find."""
    import ray.data as rd

    from fsst_ray.functions.relational import interval_join

    base = (1 << 60) + 987654321987654321 % (1 << 59)
    pts = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1], pa.int64()),
                "pid": pa.array([0, 1], pa.int64()),
                "ts": pa.array([base, base + 2], pa.int64()),
            }
        )
    )
    ivs = rd.from_arrow(
        pa.table(
            {
                "ik": pa.array([1], pa.int64()),
                "iid": pa.array([9], pa.int64()),
                "lo": pa.array([base + 1], pa.int64()),
                "hi": pa.array([base + 3], pa.int64()),
            }
        )
    )
    out = interval_join(pts, ivs, "k", "ik", "ts", "lo", "hi").to_pandas()
    # only pid 1 (ts = base+2) is inside [base+1, base+3); pid 0 at
    # base would FALSELY match if anything rounded through float64
    assert set(zip(out["pid"], out["iid"])) == {(1, 9)}
    assert out["ts"].tolist() == [base + 2]


def test_cap_per_key_deterministic_and_nested(ray_session):
    """Per-key hash-rank cap: parity vs a python reference on the same
    murmur64 order; stable under repartition; caps nest (n=5 ⊂ n=20);
    keys under the cap keep every row; MapGroups-free plan."""
    import ray.data as rd

    from fsst_ray.functions.curate import _murmur64, cap_per_key

    rng = np.random.default_rng(808)
    nrows = 4000
    keys = np.array(["d%d" % x for x in rng.integers(0, 37, nrows)])
    ids = rng.permutation(10**6)[:nrows].astype(np.int64)
    t = pa.table({"source": pa.array(keys, pa.string()), "doc_id": pa.array(ids)})

    def ref_cap(n):
        h = _murmur64(ids)
        order = np.lexsort((ids, h, keys))
        out = set()
        seen: dict[str, int] = {}
        for i in order:
            k = keys[i]
            c = seen.get(k, 0)
            if c < n:
                out.add(int(ids[i]))
                seen[k] = c + 1
        return out

    ds = rd.from_arrow(t).repartition(11)
    got5 = cap_per_key(ds, "source", 5).materialize()
    ids5 = set(got5.to_pandas()["doc_id"])
    assert ids5 == ref_cap(5)
    assert "MapGroups" not in got5.stats()
    ids20 = set(cap_per_key(ds, "source", 20).to_pandas()["doc_id"])
    assert ids20 == ref_cap(20)
    assert ids5 <= ids20  # caps nest
    # repartition-stable
    ids5b = set(
        cap_per_key(rd.from_arrow(t).repartition(3), "source", 5)
        .to_pandas()["doc_id"]
    )
    assert ids5b == ids5
    # a cap larger than every group keeps everything
    assert len(set(cap_per_key(ds, "source", 10**6).to_pandas()["doc_id"])) == nrows
    with pytest.raises(ValueError, match="n must be"):
        cap_per_key(ds, "source", 0)


def test_hash_join_right_outer(ray_session):
    """Right join = mirror of left: left-empty key groups emit their
    right rows once with null left columns; randomized set-logic
    parity across blocks."""
    import pandas as pd
    import ray.data as rd

    from fsst_ray.functions.relational import hash_join

    rng = np.random.default_rng(314)
    lk = rng.integers(0, 30, 200)
    rk = rng.integers(10, 40, 150)
    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(lk, pa.int64()),
                "lv": pa.array(np.arange(200), pa.int64()),
            }
        )
    ).repartition(5)
    right = rd.from_arrow(
        pa.table(
            {
                "rk": pa.array(rk, pa.int64()),
                "rv": pa.array(np.arange(150) + 1000, pa.int64()),
            }
        )
    ).repartition(3)
    out = hash_join(left, right, "k", "rk", how="right").to_pandas()
    ldf = pd.DataFrame({"k": lk, "lv": np.arange(200)})
    rdf = pd.DataFrame({"k": rk, "rv": np.arange(150) + 1000})
    ref = ldf.merge(rdf, on="k", how="right")
    got = set(
        (int(k), None if pd.isna(l) else int(l), int(r))
        for k, l, r in zip(out["k"], out["lv"], out["rv"])
    )
    want = set(
        (int(k), None if pd.isna(l) else int(l), int(r))
        for k, l, r in zip(ref["k"], ref["lv"], ref["rv"])
    )
    assert got == want
    assert len(out) == len(ref)
    with pytest.raises(ValueError, match="how must be"):
        hash_join(left, right, "k", "rk", how="outer")


def test_profile_table_exact(ray_session):
    """Column profiler vs direct computation: nulls, distinct counts,
    native-type min/max rendering, multi-block dedup, type guard."""
    import ray.data as rd

    from fsst_ray.functions.profile import profile_table

    rng = np.random.default_rng(606)
    n = 3000
    ints = rng.integers(-500, 500, n)
    int_null_mask = rng.random(n) < 0.1
    strs = np.array(["w%03d" % x for x in rng.integers(0, 150, n)])
    t = pa.table(
        {
            "a": pa.array(
                [None if m else int(v) for v, m in zip(ints, int_null_mask)],
                pa.int64(),
            ),
            "b": pa.array(strs, pa.string()),
            "f": pa.array(rng.random(n), pa.float64()),
        }
    )
    ds = rd.from_arrow(t).repartition(7)
    out = (
        profile_table(ds, ["a", "b"])
        .to_pandas()
        .set_index("column")
        .to_dict("index")
    )
    valid = ints[~int_null_mask]
    assert out["a"]["n"] == n
    assert out["a"]["n_null"] == int(int_null_mask.sum())
    assert out["a"]["n_distinct"] == len(np.unique(valid))
    assert out["a"]["min_repr"] == str(valid.min())
    assert out["a"]["max_repr"] == str(valid.max())
    assert out["b"]["n"] == n and out["b"]["n_null"] == 0
    assert out["b"]["n_distinct"] == len(np.unique(strs))
    assert out["b"]["min_repr"] == min(strs.tolist())
    assert out["b"]["max_repr"] == max(strs.tolist())
    with pytest.raises(ValueError, match="float"):
        profile_table(ds, ["f"])
    with pytest.raises(ValueError, match="non-empty"):
        profile_table(ds, [])


def _ref_bpe(word_cnt: dict, n_merges: int):
    """Pure-python Sennrich BPE over a word-count table: overlapping
    pair counts, string tie-break, greedy left-to-right rewrite."""
    seqs = {w: list(w) for w in word_cnt}
    merges = []
    for rank in range(n_merges):
        counts: dict = {}
        for w, c in word_cnt.items():
            s = seqs[w]
            for i in range(len(s) - 1):
                counts[(s[i], s[i + 1])] = counts.get((s[i], s[i + 1]), 0) + c
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p[0], p[1]))
        merges.append(
            (rank + 1, best[0], best[1], best[0] + best[1], counts[best])
        )
        for w in seqs:
            s = seqs[w]
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and (s[i], s[i + 1]) == best:
                    out.append(s[i] + s[i + 1])
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seqs[w] = out
    return merges


def test_bpe_train_matches_reference(ray_session):
    import ray.data as rd

    from fsst_ray.functions.bpe import bpe_train

    rng = np.random.default_rng(2222)
    vocab = ["aaa", "aaaa", "abab", "banana", "bandana", "low", "lower",
             "lowest", "newer", "wider", "xyzzy"]
    docs = [
        " ".join(vocab[j] for j in rng.integers(0, len(vocab), 30))
        for _ in range(80)
    ]
    ds = rd.from_arrow(
        pa.table({"text": pa.array(docs, pa.string())})
    ).repartition(6)
    got = bpe_train(ds, n_merges=12)
    wc: dict = {}
    for d in docs:
        for w in d.split(" "):
            wc[w] = wc.get(w, 0) + 1
    want = _ref_bpe(wc, 12)
    rows = list(
        zip(
            got["rank"].to_pylist(),
            got["l_sym"].to_pylist(),
            got["r_sym"].to_pylist(),
            got["new_token"].to_pylist(),
            got["pair_count"].to_pylist(),
        )
    )
    assert rows == want
    with pytest.raises(ValueError, match="n_merges"):
        bpe_train(ds, n_merges=0)


def _ref_apply(word: str, merge_pairs) -> int:
    s = list(word)
    for l, r in merge_pairs:
        out, i = [], 0
        while i < len(s):
            if i + 1 < len(s) and s[i] == l and s[i + 1] == r:
                out.append(s[i] + s[i + 1])
                i += 2
            else:
                out.append(s[i])
                i += 1
        s = out
    return len(s)


def test_bpe_apply_matches_training_and_reference(ray_session):
    """Applying the learned merges reproduces per-word training
    segmentation lengths AND handles UNSEEN words exactly like a
    python single-pass-per-merge reference."""
    import ray.data as rd

    from fsst_ray.functions.bpe import bpe_apply, bpe_train

    rng = np.random.default_rng(4444)
    vocab = ["aaa", "aaaa", "abab", "banana", "low", "lower", "newer"]
    docs = [
        " ".join(vocab[j] for j in rng.integers(0, len(vocab), 20))
        for _ in range(40)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    ds = rd.from_arrow(t).repartition(4)
    merges = bpe_train(ds, n_merges=8)
    pairs = list(zip(merges["l_sym"].to_pylist(), merges["r_sym"].to_pylist()))
    out = bpe_apply(ds, merges).to_pandas().sort_values("doc_id")
    for did, text in enumerate(docs):
        words = text.split(" ")
        want = sum(_ref_apply(w, pairs) for w in words)
        row = out[out["doc_id"] == did].iloc[0]
        assert row["n_words"] == len(words)
        assert row["n_bpe_tokens"] == want, did
    # unseen words (new chars, new shapes) through the same merges
    ds2 = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["zzz banana lowest", "qq aaaa"], pa.string()),
            }
        )
    )
    out2 = bpe_apply(ds2, merges).to_pandas().sort_values("doc_id")
    for did, text in [(0, "zzz banana lowest"), (1, "qq aaaa")]:
        want = sum(_ref_apply(w, pairs) for w in text.split(" "))
        assert out2[out2["doc_id"] == did].iloc[0]["n_bpe_tokens"] == want


def test_null_text_has_no_words(ray_session):
    """A null text contributes no words, as DuckDB's string_split(NULL)
    unnests to nothing (it used to reach np.repeat as a garbage length)."""
    import ray.data as rd

    from fsst_ray.functions.bpe import bpe_apply, bpe_train
    from fsst_ray.functions.lm import _bigram_rows

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a b c", None, "d e"], pa.string()),
        }
    )
    doc, w1, w2 = _bigram_rows(t, "text")
    assert doc.tolist() == [0, 0, 2]
    assert list(zip(w1, w2)) == [("a", "b"), ("b", "c"), ("d", "e")]

    merges = bpe_train(rd.from_arrow(t.slice(0, 1)), n_merges=2)
    out = bpe_apply(rd.from_arrow(t), merges).to_pandas().sort_values("doc_id")
    assert out["n_words"].tolist() == [3, 0, 2]
    assert out["n_bpe_tokens"].tolist()[1] == 0

def test_props_rollup_single_group_many_partitions(ray_session):
    """More aggregate output partitions than groups: Ray emits empty
    zero-column blocks (the session-8 rollup lesson) — finish must
    survive them with a stable schema."""
    import ray.data as rd

    from fsst_ray.functions.jsonx import props_int_rollup

    t = pa.table(
        {
            "grp": pa.array(["only"] * 40, pa.string()),
            "props": pa.array(['{"k": %d}' % i for i in range(40)], pa.string()),
        }
    )
    out = props_int_rollup(
        rd.from_arrow(t).repartition(16), "grp", "props", "$.k"
    ).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["n"] == 40 and out.iloc[0]["sum_val"] == sum(range(40))
    assert out.iloc[0]["max_val"] == 39


def test_props_rollup_sum_exact_above_2_pow_53(ray_session):
    """Per-group sums of values above 2**53 are exact int64 sums — a
    float64 accumulator rounds 2**53 + 1 to 2**53."""
    import ray.data as rd

    from fsst_ray.functions.jsonx import props_int_rollup

    big = 2**53 + 1
    vals = {"a": [big, big, 3], "b": [big + 2, -1]}
    rows = [(g, v) for g, vs in vals.items() for v in vs]
    t = pa.table(
        {
            "grp": pa.array([g for g, _ in rows], pa.string()),
            "props": pa.array(['{"k": %d}' % v for _, v in rows], pa.string()),
        }
    )
    # two blocks: both the map-side partials and the final Sum see
    # values above 2**53
    blocks = [t.take([0, 3]), t.take([1, 2, 4])]
    out = props_int_rollup(rd.from_arrow(blocks), "grp", "props", "$.k").to_pandas()
    got = {r["grp"]: int(r["sum_val"]) for _, r in out.iterrows()}
    assert got == {g: sum(vs) for g, vs in vals.items()}
    assert float(sum(vals["a"])) != sum(vals["a"])  # float64 could not hold it


def test_bigram_lm_score_hand_case_and_partition_invariance(ray_session):
    import ray.data as rd

    from fsst_ray.functions.lm import bigram_lm_score

    # corpus: "a b" x3, "a c" x1, "b" (no bigram), "a b c"
    docs = ["a b", "a b", "a b", "a c", "b", "a b c"]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    # c2: (a,b)=4, (a,c)=1, (b,c)=1 ; c1: a=5, b=1
    want = {
        0: (1, 1_000_000 * 4 // 5),
        1: (1, 800_000),
        2: (1, 800_000),
        3: (1, 1_000_000 * 1 // 5),
        5: (2, 800_000 + 1_000_000 * 1 // 1),
    }
    for nparts in (1, 4):
        out = (
            bigram_lm_score(rd.from_arrow(t).repartition(nparts))
            .to_pandas()
            .set_index("doc_id")
        )
        got = {
            int(i): (int(r["n_bigrams"]), int(r["lm_score"]))
            for i, r in out.iterrows()
        }
        assert got == want, nparts
    # broadcast cap raises loudly
    import pytest as _pytest

    with _pytest.raises(ValueError, match="max_vocab_rows"):
        bigram_lm_score(rd.from_arrow(t), max_vocab_rows=2)


def test_time_of_week_matrix_calendar_arithmetic(ray_session):
    """dow/hour integer arithmetic vs python datetime on known
    timestamps incl. week boundaries; pre-1970 guard."""
    import datetime as dt

    import ray.data as rd

    from fsst_ray.functions.windows import time_of_week_matrix

    stamps = [
        dt.datetime(1970, 1, 1, 0, 0),    # Thursday, dow 4
        dt.datetime(2024, 1, 7, 23, 59),  # Sunday, dow 0
        dt.datetime(2024, 1, 8, 0, 0),    # Monday, dow 1
        dt.datetime(2026, 8, 20, 13, 5),
    ]
    t = pa.table({"ts": pa.array(stamps, pa.timestamp("us"))})
    out = time_of_week_matrix(rd.from_arrow(t)).to_pandas()
    got = {(int(r["dow"]), int(r["hour"])): int(r["n"]) for _, r in out.iterrows()}
    want: dict = {}
    for s in stamps:
        key = ((s.weekday() + 1) % 7, s.hour)  # python Mon=0 -> SQL Sun=0
        want[key] = want.get(key, 0) + 1
    assert got == want
    bad = pa.table({"ts": pa.array([dt.datetime(1969, 12, 31)], pa.timestamp("us"))})
    # Ray wraps worker exceptions in RayTaskError; match the message
    with pytest.raises(Exception, match="pre-1970"):
        time_of_week_matrix(rd.from_arrow(bad)).materialize()


_NULL_TEXT = pa.table(
    {
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["the cat and the dog", None, ""], type=pa.string()),
    }
)


def test_word_stats_null_text_has_no_words():
    """A null text counts no words and no distinct words, like an empty
    split (it used to read int64 min)."""
    from fsst_ray.functions.textstats import word_stats_batch

    out = word_stats_batch(_NULL_TEXT).to_pydict()
    assert out["n_words"] == [5, 0, 1]
    assert out["n_distinct"] == [4, 0, 1]
    assert out["n_stop_en"] == [3, 0, 0]


def test_quality_null_text_scores_as_empty():
    """quality_batch's length signals read 0 for a null text, not
    int64 min."""
    from fsst_ray.functions.textstats import quality_batch

    out = quality_batch(_NULL_TEXT).to_pydict()
    assert out["n_chars_text"] == [19, 0, 0]
    assert out["n_words"] == [5, 0, 1]
    assert out["n_distinct"] == [4, 0, 1]
    assert out["quality"][1] == 0


def test_explode_tokens_null_list_explodes_to_no_rows(ray_session):
    """A null tokens row explodes to no rows, as SQL UNNEST(NULL) does,
    and the rows around it keep their ids and positions."""
    import ray.data as rd

    from fsst_ray.functions.vocab import explode_tokens

    tbl = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c"]),
            "tokens": pa.array([[7, 8], None, [9]], type=pa.list_(pa.int32())),
        }
    )
    out = explode_tokens(rd.from_arrow(tbl)).take_all()
    assert [(r["doc_id"], r["pos"], r["token"]) for r in out] == [
        ("a", 0, 7),
        ("a", 1, 8),
        ("c", 0, 9),
    ]
